"""repro.chaos: deterministic fault injection.

The subsystem has three parts:

* :mod:`repro.chaos.plan` --- declarative, frozen fault schedules
  (:class:`ChaosPlan`): per-choke-point injection rates plus a seed.
* :mod:`repro.chaos.injector` --- the :class:`Injector` that executes a
  plan at the stack's choke points (disk transfers, frame ECC, manager
  invocation and allocation, manager IPC), and the zero-overhead
  :data:`NULL_INJECTOR` every component holds by default.
* :mod:`repro.chaos.harness` --- named scenarios pairing plans with real
  workloads, run via :func:`run_schedule` or ``python -m repro chaos``;
  the invariant engine (:mod:`repro.invariants`) sweeps the whole system
  after every injected event.

Faults the kernel and SPCM *survive* (see DESIGN.md, "Robustness
model"): manager crash/hang/byzantine behavior fails the manager's
segments over to the default manager; transient disk errors are retried
with backoff; dropped IPC is redelivered; ECC failures retire the frame;
only a fault no manager can resolve suspends (only) the faulting
process.
"""

from repro.chaos.harness import (
    ChaosResult,
    SCENARIOS,
    Scenario,
    run_schedule,
    run_seed_matrix,
)
from repro.chaos.injector import Injector, NULL_INJECTOR, NullInjector
from repro.chaos.plan import (
    ChaosPlan,
    InjectedFault,
    IPCFailureMode,
    ManagerFailureMode,
)

__all__ = [
    "ChaosPlan",
    "ChaosResult",
    "InjectedFault",
    "Injector",
    "IPCFailureMode",
    "ManagerFailureMode",
    "NULL_INJECTOR",
    "NullInjector",
    "SCENARIOS",
    "Scenario",
    "run_schedule",
    "run_seed_matrix",
]
