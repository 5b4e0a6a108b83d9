"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class KernelError(ReproError):
    """Base class for errors raised by the V++ kernel model."""


class SegmentError(KernelError):
    """A segment operation was invalid (bad range, unknown segment, ...)."""


class ProtectionError(KernelError):
    """An access violated the protection of a page or bound region."""


class MigrationError(KernelError):
    """A ``MigratePages`` call was invalid (frame not owned, overlap, ...)."""


class BindingError(KernelError):
    """A bound-region operation was invalid (overlap, misalignment, ...)."""


class UnresolvedFaultError(KernelError):
    """A page fault could not be resolved by the responsible manager.

    The kernel's last resort: after exhausting retries (and, when a
    fallback manager is configured, failing over to it) the kernel gives
    up on the reference and suspends only the faulting process.
    """


class NoManagerError(KernelError):
    """A fault occurred on a segment that has no segment manager."""


class UIOError(KernelError):
    """A Uniform I/O (block read/write) operation failed."""


class HardwareError(ReproError):
    """Base class for errors raised by the simulated hardware."""


class PhysicalMemoryError(HardwareError):
    """An invalid physical frame was referenced."""


class FrameECCError(PhysicalMemoryError):
    """A page frame reported an uncorrectable ECC (machine-check) error."""


class DiskError(HardwareError):
    """An invalid disk transfer was requested."""


class TransientDiskError(DiskError):
    """A disk transfer failed transiently; the request may be retried."""


class ManagerError(ReproError):
    """Base class for errors raised by process-level segment managers."""


class OutOfFramesError(ManagerError):
    """A manager could not obtain a page frame to satisfy a fault."""


class ManagerCrashError(ManagerError):
    """A segment manager process died while (or before) handling a request.

    When a recovery coordinator is installed the kernel first attempts a
    *warm restart*: the manager's policy state is rebuilt from its latest
    checkpoint plus the write-ahead journal suffix and the fault is
    redelivered.  Only when that fails (torn journal, exhausted restart
    budget, replay deadline) does the kernel fall back to the original
    cold path: fail the segments over to the fallback (default) manager
    and let the SPCM forcibly reclaim the dead manager's free frames.
    """


class SPCMError(ReproError):
    """Base class for errors raised by the System Page Cache Manager."""


class InsufficientFundsError(SPCMError):
    """A dram account did not have the funds for the requested operation."""


class AllocationRefusedError(SPCMError):
    """The SPCM refused a frame allocation request outright."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event engine."""


class DeadlockError(SimulationError):
    """The discrete-event simulation deadlocked (no runnable events)."""


class DBMSError(ReproError):
    """Base class for errors raised by the database substrate."""


class LockProtocolError(DBMSError):
    """The hierarchical locking protocol was violated."""


class WorkloadError(ReproError):
    """A workload trace or application model was malformed."""


class ChaosError(ReproError):
    """Base class for errors raised by the fault-injection subsystem."""


class InvariantViolationError(ChaosError):
    """A check of the invariant engine (:mod:`repro.invariants`) failed."""


class VerificationError(ReproError):
    """Base class for errors raised by the conformance/determinism harness."""


class DigestVersionError(VerificationError):
    """A recorded digest chain or corpus entry was produced by a different
    ``DIGEST_VERSION`` than the current tree computes.

    Digests are only comparable within one version of the canonical state
    encoding, so the harness refuses loudly (CLI exit code 2, mirroring
    ``repro bench diff``) instead of reporting phantom divergences.
    """


class ScheduleFormatError(VerificationError):
    """A workload schedule (corpus entry) was malformed or unreadable."""


class RecoveryError(ReproError):
    """Base class for errors raised by the crash-recovery subsystem."""


class JournalCorruptionError(RecoveryError):
    """A journal record or checkpoint failed its CRC/framing check.

    A corrupt *tail* is expected after a torn write and is truncated
    silently; this error means state needed for a warm restart (a
    checkpoint, or a record before the torn tail) was unusable.
    """


class ReplayDeadlineError(RecoveryError):
    """Journal replay would exceed the warm-restart deadline.

    The coordinator gives up on the warm path and lets the kernel fall
    back to the cold failover rather than blocking fault service.
    """
