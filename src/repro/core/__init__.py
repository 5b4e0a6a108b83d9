"""External page-cache management: the paper's core contribution.

The public surface:

* :class:`~repro.core.kernel.Kernel` — the V++ kernel model with the four
  page-cache management operations and manager fault forwarding.
* :class:`~repro.core.supervisor.ManagerSupervisor` — ``kernel.supervisor``:
  carries each forwarded fault to its manager and back, and fails a
  crashed, hung, unreachable or byzantine manager's segments over to the
  default manager (chaos and recovery plug in here).
* :class:`~repro.core.segment.Segment` / bound regions / COW composition.
* :class:`~repro.core.manager_api.SegmentManager` — the interface
  process-level managers implement (concrete managers live in
  :mod:`repro.managers`).
* :class:`~repro.core.uio.UIO` / :class:`~repro.core.uio.FileServer` —
  cached files behind the block read/write interface.
* :mod:`repro.core.address_space` — Figure-1 style address-space
  composition helpers.
"""

from repro.core.address_space import (
    Region,
    RegionSpec,
    VirtualAddressSpace,
    build_address_space,
    build_figure1_layout,
    fork_address_space,
)
from repro.core.faults import FaultKind, FaultTrace, PageFault, TraceStep
from repro.core.flags import MANAGER_SETTABLE, PageFlags, describe_flags
from repro.core.kernel import Kernel, KernelStats, PageAttribute
from repro.core.manager_api import InvocationMode, SegmentManager
from repro.core.segment import Binding, ResolvedPage, Segment
from repro.core.supervisor import ManagerSupervisor
from repro.core.uio import UIO, CachedFile, FileServer, pages_for_bytes

__all__ = [
    "Region",
    "RegionSpec",
    "VirtualAddressSpace",
    "build_address_space",
    "build_figure1_layout",
    "fork_address_space",
    "FaultKind",
    "FaultTrace",
    "PageFault",
    "TraceStep",
    "MANAGER_SETTABLE",
    "PageFlags",
    "describe_flags",
    "Kernel",
    "KernelStats",
    "ManagerSupervisor",
    "PageAttribute",
    "InvocationMode",
    "SegmentManager",
    "Binding",
    "ResolvedPage",
    "Segment",
    "UIO",
    "CachedFile",
    "FileServer",
    "pages_for_bytes",
]
