"""Failure plans: what the injector may break, and how often.

A :class:`ChaosPlan` is a frozen, fully-declarative description of a fault
schedule: per-choke-point injection rates plus a seed.  The plan carries
no state --- the :class:`~repro.chaos.injector.Injector` derives all of its
randomness from ``(seed, substream name)`` so two runs of the same plan
produce bit-identical failure schedules.

This module must stay dependency-light (errors only): it is imported by
``hw``-layer modules, below everything else in the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum, auto

from repro.errors import ChaosError


class ManagerFailureMode(Enum):
    """How an injected manager failure manifests to the kernel."""

    #: the manager process dies before replying (kernel sees a dead peer)
    CRASH = auto()
    #: the manager never replies; the kernel's per-fault timeout expires
    HANG = auto()
    #: the manager replies promptly but did not resolve the fault
    BYZANTINE = auto()


class IPCFailureMode(Enum):
    """What happens to one kernel->manager fault message."""

    #: the message is lost; the kernel times out and redelivers
    DROP = auto()
    #: the message is delivered twice (at-least-once semantics)
    DUPLICATE = auto()


@dataclass(frozen=True)
class InjectedFault:
    """One injected event, recorded in schedule order."""

    seq: int
    kind: str      # e.g. "disk_error", "manager_crash", "frame_ecc"
    target: str    # what was hit (block, pfn, manager name)
    detail: str = ""


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic fault schedule: seed plus per-choke-point rates.

    All rates are per-opportunity Bernoulli probabilities in ``[0, 1]``.
    The three manager modes (and the two IPC modes) are drawn from one
    uniform variate, so their rates must sum to at most 1.
    """

    seed: int = 0

    # -- disk (hw/disk.py) -------------------------------------------------
    #: probability one transfer fails with TransientDiskError
    disk_error_rate: float = 0.0
    #: consecutive transfers that fail once an error fires (>= 1)
    disk_error_burst: int = 1
    #: probability one transfer is slowed by ``disk_slow_factor``
    disk_slow_rate: float = 0.0
    #: service-time multiplier for an injected latency spike (>= 1)
    disk_slow_factor: float = 10.0

    # -- physical memory (hw/phys_mem.py) ----------------------------------
    #: probability a referenced frame reports an uncorrectable ECC error
    frame_ecc_rate: float = 0.0

    # -- managers (core/kernel.py dispatch, managers/base.py alloc) --------
    manager_crash_rate: float = 0.0
    manager_hang_rate: float = 0.0
    manager_byzantine_rate: float = 0.0
    #: probability the manager dies mid-handler, in its allocator
    manager_alloc_crash_rate: float = 0.0

    # -- manager IPC (SEPARATE_PROCESS dispatch only) ----------------------
    ipc_drop_rate: float = 0.0
    ipc_duplicate_rate: float = 0.0

    # -- recovery (recovery/journal.py, recovery/checkpoint.py) ------------
    #: probability a warm restart finds the journal tail torn
    journal_tear_rate: float = 0.0
    #: most bytes shaved off the journal tail when a tear fires (>= 1)
    journal_tear_max_bytes: int = 64
    #: probability a checkpoint is damaged as it is written (the
    #: read-back check discards it)
    checkpoint_corrupt_rate: float = 0.0

    # -- scope -------------------------------------------------------------
    #: manager names eligible for injection; None means every manager
    #: except the kernel's fallback manager (which is always exempt)
    target_managers: tuple[str, ...] | None = None
    #: stop injecting after this many events (None = unbounded)
    max_injections: int | None = None

    def validate(self) -> None:
        """Raise :class:`ChaosError` unless the plan is well-formed."""
        rates = {
            "disk_error_rate": self.disk_error_rate,
            "disk_slow_rate": self.disk_slow_rate,
            "frame_ecc_rate": self.frame_ecc_rate,
            "manager_crash_rate": self.manager_crash_rate,
            "manager_hang_rate": self.manager_hang_rate,
            "manager_byzantine_rate": self.manager_byzantine_rate,
            "manager_alloc_crash_rate": self.manager_alloc_crash_rate,
            "ipc_drop_rate": self.ipc_drop_rate,
            "ipc_duplicate_rate": self.ipc_duplicate_rate,
            "journal_tear_rate": self.journal_tear_rate,
            "checkpoint_corrupt_rate": self.checkpoint_corrupt_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ChaosError(f"{name} out of [0, 1]: {rate}")
        mgr_sum = (
            self.manager_crash_rate
            + self.manager_hang_rate
            + self.manager_byzantine_rate
        )
        if mgr_sum > 1.0:
            raise ChaosError(
                f"manager crash+hang+byzantine rates sum to {mgr_sum} > 1"
            )
        if self.ipc_drop_rate + self.ipc_duplicate_rate > 1.0:
            raise ChaosError("ipc drop+duplicate rates sum to more than 1")
        if self.disk_error_burst < 1:
            raise ChaosError(
                f"disk_error_burst must be >= 1: {self.disk_error_burst}"
            )
        if self.disk_slow_factor < 1.0:
            raise ChaosError(
                f"disk_slow_factor must be >= 1: {self.disk_slow_factor}"
            )
        if self.journal_tear_max_bytes < 1:
            raise ChaosError(
                "journal_tear_max_bytes must be >= 1: "
                f"{self.journal_tear_max_bytes}"
            )
        if self.max_injections is not None and self.max_injections < 0:
            raise ChaosError("max_injections must be non-negative")

    def with_seed(self, seed: int) -> "ChaosPlan":
        """The same plan reseeded (for seed-matrix schedules)."""
        return replace(self, seed=seed)

    @property
    def manager_rate(self) -> float:
        """Combined probability of any manager-invocation failure."""
        return (
            self.manager_crash_rate
            + self.manager_hang_rate
            + self.manager_byzantine_rate
        )

    @property
    def ipc_rate(self) -> float:
        """Combined probability of any IPC delivery failure."""
        return self.ipc_drop_rate + self.ipc_duplicate_rate
