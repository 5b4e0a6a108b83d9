"""Token-bucket admission control over simulated time.

Every shed is a typed :class:`~repro.core.api.RetryAfter` carrying the
simulated microseconds until the caller should try again --- admission is
a first-class backpressure signal, not a bare refusal.  The controller is
clockless the way the memory market is: callers pass ``now_us`` (engine
time), so it composes with any discrete-event schedule and stays a pure
function of its inputs.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.api import RetryAfter


class TokenBucket:
    """The classic token bucket, refilled from the simulated clock."""

    __slots__ = ("rate_per_s", "burst", "tokens", "last_refill_us")

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0:
            raise ValueError(f"token rate must be positive: {rate_per_s}")
        if burst < 1:
            raise ValueError(f"burst must allow at least one token: {burst}")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.tokens = burst
        self.last_refill_us = 0.0

    def try_take(self, now_us: float) -> float:
        """Take one token if available.

        The bucket first refills from the simulated clock: when
        ``now_us`` is past the last refill it gains ``rate_per_s``
        tokens a second, capped at ``burst``; an equal or earlier time
        adds nothing and leaves the refill time where it is.  Returns
        ``0.0`` on success, else the simulated microseconds until a
        token will have accrued (the ``RetryAfter`` horizon,
        ``(1 - tokens) / rate_per_s * 1e6``).
        """
        tokens = self.tokens
        dt_us = now_us - self.last_refill_us
        if dt_us > 0:
            tokens += dt_us * 1e-6 * self.rate_per_s
            if tokens > self.burst:
                tokens = self.burst
            self.last_refill_us = now_us
        if tokens >= 1.0:
            self.tokens = tokens - 1.0
            return 0.0
        self.tokens = tokens
        return (1.0 - tokens) / self.rate_per_s * 1e6


class AdmissionController:
    """Per-tenant token buckets plus a shared backpressure valve.

    A request is shed with reason ``"backpressure"`` when the scheduler
    backlog (read through ``backlog_fn``) is at or past ``max_backlog``,
    and with reason ``"admission"`` when the tenant's bucket is dry; both
    sheds carry a computed retry horizon.  ``admit_tenant`` sheds with
    reason ``"capacity"`` once ``max_tenants`` sessions are registered.
    """

    def __init__(
        self,
        rate_per_s: float = 20_000.0,
        burst: float = 8.0,
        max_backlog: int = 256,
        backlog_fn: Callable[[], int] | None = None,
        max_tenants: int | None = None,
    ) -> None:
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.max_backlog = max_backlog
        self.backlog_fn = backlog_fn
        self.max_tenants = max_tenants
        self.buckets: dict[str, TokenBucket] = {}
        self.admitted = 0
        self.shed = 0
        self.shed_by_reason: dict[str, int] = {}

    def _shed(self, tenant: str, retry_after_us: float, reason: str) -> RetryAfter:
        self.shed += 1
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        return RetryAfter(tenant, retry_after_us, reason)

    def admit_tenant(self, tenant: str) -> RetryAfter | None:
        """Register a tenant's bucket; a capacity shed when full.

        Returns ``None`` on success.  Capacity sheds carry no meaningful
        horizon (a session must end first), so the retry is one bucket
        period --- the caller polls.
        """
        if (
            self.max_tenants is not None
            and tenant not in self.buckets
            and len(self.buckets) >= self.max_tenants
        ):
            return self._shed(tenant, 1e6 / self.rate_per_s, "capacity")
        self.buckets.setdefault(
            tenant, TokenBucket(self.rate_per_s, self.burst)
        )
        return None

    def try_admit(self, tenant: str, now_us: float) -> RetryAfter | None:
        """Admit one request at simulated time ``now_us``.

        Returns ``None`` when admitted, else the typed shed.
        """
        backlog_fn = self.backlog_fn
        if backlog_fn is not None:
            backlog = backlog_fn()
            if backlog >= self.max_backlog:
                # horizon: time for the excess to drain at the token rate
                excess = backlog - self.max_backlog + 1
                return self._shed(
                    tenant, excess / self.rate_per_s * 1e6, "backpressure"
                )
        wait_us = self.buckets[tenant].try_take(now_us)
        if wait_us > 0:
            return self._shed(tenant, wait_us, "admission")
        self.admitted += 1
        return None
