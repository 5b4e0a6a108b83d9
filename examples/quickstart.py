#!/usr/bin/env python
"""Quickstart: external page-cache management in five minutes.

Boots a V++ system, writes a tiny application-specific segment manager by
specializing the generic one (exactly the paper's S2.2 recipe), and shows:

1. the manager observing and resolving its application's page faults;
2. `GetPageAttributes` exposing flags and *physical* addresses;
3. the kernel's Figure-2 fault trace;
4. the cost difference between in-process and default (separate-process)
   fault handling --- the paper's 107 us vs. 379 us.

Run:  python examples/quickstart.py
"""

from repro import build_system
from repro.core import FaultTrace, PageFlags, describe_flags
from repro.core.api import GetPageAttributesRequest
from repro.managers import GenericSegmentManager
from repro.obs import NULL_TRACER, Tracer


class LoggingManager(GenericSegmentManager):
    """A specialized manager: logs faults and zero-fills heap pages."""

    def __init__(self, kernel, spcm):
        super().__init__(kernel, spcm, "quickstart-manager", initial_frames=32)
        self.log: list[str] = []

    def fill_page(self, segment, page, frame):
        # Application-specific fill policy: tag each page with its number.
        frame.write(b"page %03d says hello" % page)
        self.log.append(f"filled page {page} of {segment.name}")


def main() -> None:
    system = build_system(memory_mb=16)
    kernel = system.kernel

    print("== a booted V++ system ==")
    print(f"physical memory : {system.memory.size_bytes // 2**20} MB "
          f"({system.memory.n_frames} frames)")
    print(f"boot segment    : {kernel.initial_segment.name} holds "
          f"{kernel.initial_segment.resident_pages} frames")

    # --- an application manages its own memory -------------------------
    manager = LoggingManager(kernel, system.spcm)
    heap = kernel.create_segment(16, name="app.heap", manager=manager)

    print("\n== touching three heap pages ==")
    for page in (0, 7, 3):
        frame = kernel.reference(heap, page * 4096, write=False)
        print(f"  page {page}: pfn={frame.pfn} "
              f"data={frame.read(0, 20)!r}")
    for line in manager.log:
        print(f"  manager: {line}")

    # --- the paper's new kernel operations ------------------------------
    print("\n== GetPageAttributes(app.heap, 0, 8) ==")
    reply = kernel.get_page_attributes(GetPageAttributesRequest(heap, 0, 8))
    for attr in reply.attributes:
        if attr.present:
            print(f"  page {attr.page}: pfn={attr.pfn} "
                  f"phys={attr.phys_addr:#09x} "
                  f"flags={describe_flags(attr.flags)}")
        else:
            print(f"  page {attr.page}: not resident")

    # --- watch one fault in Figure-2 detail ------------------------------
    print("\n== fault trace (Figure 2) ==")
    kernel.tracer = Tracer()
    kernel.reference(heap, 11 * 4096, write=True)
    print(FaultTrace.from_events(kernel.tracer.steps).render())
    kernel.tracer = NULL_TRACER

    # --- cost comparison ---------------------------------------------------
    print("\n== minimal fault cost: in-process vs default manager ==")
    snap = kernel.meter.snapshot()
    kernel.reference(heap, 12 * 4096, write=True)
    in_process = sum(kernel.meter.delta_since(snap).values())

    conventional = kernel.create_segment(
        4, name="conventional.heap", manager=system.default_manager
    )
    snap = kernel.meter.snapshot()
    kernel.reference(conventional, 0, write=True)
    separate = sum(kernel.meter.delta_since(snap).values())
    print(f"  faulting-process manager : {in_process:.0f} us  (paper: 107)")
    print(f"  default segment manager  : {separate:.0f} us  (paper: 379)")

    kernel.check_frame_conservation()
    print("\nframe conservation holds; done.")


if __name__ == "__main__":
    main()
