"""Virtual address spaces as composed segments (Figure 1).

"A program virtual address space in V++ is a segment that is composed by
binding one or more regions of other segments" (paper, S2.1).  This module
provides the conventional code/data/stack composition from Figure 1 plus a
generic builder, and a renderer that regenerates the figure's structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.flags import PageFlags
from repro.core.kernel import Kernel
from repro.core.manager_api import SegmentManager
from repro.core.segment import Binding, Segment
from repro.errors import SegmentError


@dataclass(frozen=True)
class RegionSpec:
    """One region to bind into an address space."""

    name: str
    n_pages: int
    prot: PageFlags = PageFlags.READ | PageFlags.WRITE
    start_page: int | None = None       # None: placed after the previous region
    guard_pages: int = 0                # unmapped gap before the region
    copy_on_write_of: Segment | None = None  # bind a COW image of this segment


@dataclass
class Region:
    """One bound region of a built address space."""

    name: str
    start_page: int
    n_pages: int
    segment: Segment
    binding: Binding

    @property
    def end_page(self) -> int:
        return self.start_page + self.n_pages


class VirtualAddressSpace:
    """A VAS segment plus its named regions."""

    def __init__(self, kernel: Kernel, space: Segment) -> None:
        self.kernel = kernel
        self.space = space
        self.regions: dict[str, Region] = {}

    @property
    def page_size(self) -> int:
        return self.space.page_size

    def region(self, name: str) -> Region:
        """The named region (raises for unknown names)."""
        try:
            return self.regions[name]
        except KeyError:
            raise SegmentError(f"no region named {name!r}") from None

    def addr(self, region_name: str, offset: int = 0) -> int:
        """Virtual address of byte ``offset`` within a named region."""
        region = self.region(region_name)
        if offset < 0 or offset >= region.n_pages * self.page_size:
            raise SegmentError(
                f"offset {offset} outside region {region_name!r}"
            )
        return region.start_page * self.page_size + offset

    def read(self, vaddr: int) -> None:
        """Issue a read reference at ``vaddr``."""
        self.kernel.reference(self.space, vaddr, write=False)

    def write(self, vaddr: int) -> None:
        """Issue a write reference at ``vaddr``."""
        self.kernel.reference(self.space, vaddr, write=True)

    def describe(self) -> str:
        """Figure-1 style rendering of the space's composition."""
        lines = [f"Virtual Address Space Segment ({self.space.name})"]
        for region in sorted(self.regions.values(), key=lambda r: r.start_page):
            seg = region.segment
            kind = "copy-on-write of" if seg.cow_source is not None else "bound to"
            lines.append(
                f"  pages [{region.start_page:5d}, {region.end_page:5d}) "
                f"{region.name:<8s} {kind} {seg.name} "
                f"({seg.resident_pages}/{seg.n_pages} resident)"
            )
        return "\n".join(lines)


def build_address_space(
    kernel: Kernel,
    manager: SegmentManager,
    specs: list[RegionSpec],
    name: str = "vas",
) -> VirtualAddressSpace:
    """Build an address space from region specs.

    Each region gets its own backing segment managed by ``manager`` (or a
    COW image of the given source); the VAS segment binds them at their
    assigned page ranges with the spec's protection as the binding mask.
    """
    if not specs:
        raise SegmentError("an address space needs at least one region")
    placed: list[tuple[RegionSpec, int]] = []
    cursor = 0
    for spec in specs:
        if spec.n_pages <= 0:
            raise SegmentError(f"region {spec.name!r} must have pages")
        start = spec.start_page if spec.start_page is not None else (
            cursor + spec.guard_pages
        )
        placed.append((spec, start))
        cursor = start + spec.n_pages
    total_pages = max(start + spec.n_pages for spec, start in placed)
    space = kernel.create_segment(total_pages, name=name)
    vas = VirtualAddressSpace(kernel, space)
    for spec, start in placed:
        if spec.copy_on_write_of is not None:
            backing = kernel.create_segment(
                spec.n_pages,
                name=f"{name}.{spec.name}",
                manager=manager,
                cow_source=spec.copy_on_write_of,
            )
        else:
            backing = kernel.create_segment(
                spec.n_pages, name=f"{name}.{spec.name}", manager=manager
            )
        binding = space.bind(start, spec.n_pages, backing, 0, prot_mask=spec.prot)
        vas.regions[spec.name] = Region(
            spec.name, start, spec.n_pages, backing, binding
        )
    return vas


def fork_address_space(
    kernel: Kernel,
    manager: SegmentManager,
    parent: VirtualAddressSpace,
    name: str = "",
) -> VirtualAddressSpace:
    """Duplicate an address space copy-on-write (the fork shape).

    Every region of the child binds to a fresh COW image of the parent's
    backing segment: reads share the parent's frames; the first write to a
    page privatizes it through the manager-allocated-frame / kernel-copy
    protocol of S2.1.  Read-only regions (e.g. code) are shared without a
    shadow --- there is nothing to privatize.
    """
    child_name = name or f"{parent.space.name}-fork"
    space = kernel.create_segment(parent.space.n_pages, name=child_name)
    child = VirtualAddressSpace(kernel, space)
    for region in parent.regions.values():
        writable = PageFlags.WRITE in region.binding.prot_mask
        if writable:
            backing = kernel.create_segment(
                region.n_pages,
                name=f"{child_name}.{region.name}",
                manager=manager,
                cow_source=region.segment,
            )
        else:
            backing = region.segment  # share read-only segments outright
        binding = space.bind(
            region.start_page,
            region.n_pages,
            backing,
            0,
            prot_mask=region.binding.prot_mask,
        )
        child.regions[region.name] = Region(
            region.name, region.start_page, region.n_pages, backing, binding
        )
    return child


def build_figure1_layout(
    kernel: Kernel, manager: SegmentManager
) -> VirtualAddressSpace:
    """The canonical Figure-1 space: 16 code, 32 data and 8 stack pages."""
    return build_address_space(
        kernel,
        manager,
        [
            RegionSpec("code", 16, prot=PageFlags.READ),
            RegionSpec("data", 32, guard_pages=16),
            RegionSpec("stack", 8, guard_pages=16),
        ],
    )
