"""Figure 1: kernel implementation of a virtual address space.

Reconstructs the figure's composition --- a VAS segment with code, data
and stack regions bound to their own segments --- and benchmarks the
translation machinery through it: binding resolution, fault fill, and the
cached TLB path.
"""

from __future__ import annotations

import pytest

from repro import build_system
from repro.analysis.experiments import figure1_address_space
from repro.core.address_space import build_figure1_layout
from repro.managers.base import GenericSegmentManager


@pytest.fixture
def world():
    system = build_system(memory_mb=16)
    manager = GenericSegmentManager(
        system.kernel, system.spcm, "fig1", initial_frames=128
    )
    vas = build_figure1_layout(system.kernel, manager)
    return system.kernel, vas


def test_figure1_reconstruction(benchmark):
    text = benchmark.pedantic(figure1_address_space, rounds=3, iterations=1)
    assert "code" in text and "data" in text and "stack" in text
    assert "pfn" in text


def test_translation_through_bound_regions(benchmark, world):
    kernel, vas = world
    # fill every page once so the benchmark measures pure translation
    for region in ("code", "data", "stack"):
        r = vas.region(region)
        for page in range(r.n_pages):
            kernel.reference(
                vas.space, (r.start_page + page) * 4096, write=False
            )
    addrs = [
        vas.addr("code", 0),
        vas.addr("data", 8 * 4096),
        vas.addr("stack", 4096),
    ]

    def translate_all():
        for addr in addrs:
            kernel.reference(vas.space, addr)

    # judge the translations alone, not the fill's misses: with the
    # benchmark disabled, translate_all runs only once
    stats = kernel.tlb.stats
    lookups_before, hits_before = stats.lookups, stats.hits
    benchmark(translate_all)
    lookups = stats.lookups - lookups_before
    assert lookups >= len(addrs)
    assert (stats.hits - hits_before) / lookups > 0.5


def test_first_touch_fill_through_binding(benchmark, world):
    kernel, vas = world
    data = vas.region("data")
    pages = iter(range(data.n_pages))

    def first_touch():
        try:
            page = next(pages)
        except StopIteration:
            return
        kernel.reference(vas.space, (data.start_page + page) * 4096, True)

    benchmark.pedantic(first_touch, rounds=min(30, data.n_pages), iterations=1)
    assert data.segment.resident_pages > 0
