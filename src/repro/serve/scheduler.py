"""Batched fault-service scheduling per (manager, node).

Admitted references queue here instead of trapping one by one.  Only a
key with work has a queue; each flush takes all of them and walks their
keys in sorted order.  Per batch it pre-refills the owning manager's
frame stock with **one** SPCM request sized to the batch --- which the
sharded SPCM turns into one batched ``MigratePages`` kernel entry
(:class:`~repro.core.api.BatchMigratePagesRequest`, full entry cost once,
marginal cost per further run) --- then drives the queued references
through the kernel (the serving system's fault listener bills each service
to its tenant).  A refill the SPCM refuses loses no request: each
reference then faults on its own and is counted as an error.  A request's
reported latency is its queue wait (engine time) plus the metered cost of
its own service.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel
    from repro.serve.tenants import TenantSession


class BatchScheduler:
    """Coalesces outstanding fault-service work into batched flushes.

    A queue entry is the plain tuple ``(session, vaddr, write,
    t_submit_us)``: one is built per admitted reference.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        # (manager name, home node) -> FIFO of queued requests, for keys
        # with work only; walked in sorted key order at flush so the
        # service order is deterministic
        self._queues: dict[
            tuple[str, int], list[tuple["TenantSession", int, bool, float]]
        ] = {}
        self.backlog = 0
        self.batches_flushed = 0
        self.items_serviced = 0
        self.errors = 0

    def submit(
        self,
        session: "TenantSession",
        vaddr: int,
        write: bool,
        t_submit_us: float,
    ) -> None:
        """Queue one admitted reference for the next flush."""
        key = (session.manager.name, session.home_node)
        self._queues.setdefault(key, []).append(
            (session, vaddr, write, t_submit_us)
        )
        self.backlog += 1

    def flush(
        self,
        now_us: float,
        on_serviced: Callable[["TenantSession", float, bool], None]
        | None = None,
    ) -> int:
        """Service every queued request; returns the number serviced.

        ``on_serviced(session, latency_us, ok)`` fires per request with
        the queue wait + metered service latency; ``ok`` is False when
        the reference raised (the error is counted, not propagated ---
        one tenant's out-of-frames must not stall the batch).
        """
        if self.backlog == 0:
            return 0
        queues, self._queues = self._queues, {}
        kernel = self.kernel
        reference = kernel.reference
        meter = kernel.meter
        serviced = 0
        for key in sorted(queues):
            items = queues[key]
            self.backlog -= len(items)
            self.batches_flushed += 1
            manager = items[0][0].manager
            # one batched refill for the whole batch: the SPCM turns this
            # into a single BatchMigratePagesRequest kernel entry instead
            # of per-fault refill churn inside each reference below
            missing = len(items) - manager.free_frames
            if missing > 0:
                try:
                    manager.request_frames(missing)
                except ReproError:
                    # the queues are already taken: a refused refill must
                    # not drop this batch or the keys after it, so each
                    # reference below asks for its own frame and is
                    # counted if that fails too
                    pass
            for session, vaddr, write, t_submit_us in items:
                before = meter.total_us
                ok = True
                try:
                    reference(session.segment, vaddr, write)
                except ReproError:
                    ok = False
                    self.errors += 1
                latency = (now_us - t_submit_us) + (meter.total_us - before)
                if on_serviced is not None:
                    on_serviced(session, latency, ok)
            serviced += len(items)
        self.items_serviced += serviced
        return serviced
