"""System construction, error hierarchy, and multi-space isolation."""

from __future__ import annotations

import pytest

import repro.errors as errors
from repro import build_system
from repro.hw.costs import SGI_4D_380
from repro.managers.base import GenericSegmentManager


class TestBuildSystem:
    def test_components_are_wired_together(self, system):
        assert system.kernel.memory is system.memory
        assert system.uio.kernel is system.kernel
        assert not hasattr(system.uio, "file_server")
        assert system.file_server.disk is system.disk
        assert system.meter is system.kernel.meter

    def test_default_manager_is_stocked(self, system):
        assert system.default_manager.free_frames == 128

    def test_memory_size_honored(self):
        system = build_system(memory_mb=4)
        assert system.memory.size_bytes == 4 * 1024 * 1024

    def test_alternate_machine_costs(self):
        system = build_system(memory_mb=4, costs=SGI_4D_380)
        assert system.kernel.costs is SGI_4D_380

    def test_page_size_override(self):
        system = build_system(memory_mb=4, page_size=8192)
        assert system.memory.page_size == 8192
        assert system.kernel.initial_segment.page_size == 8192


class TestErrorHierarchy:
    def test_every_error_is_a_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    def test_kernel_errors_grouped(self):
        for cls in (
            errors.SegmentError,
            errors.ProtectionError,
            errors.MigrationError,
            errors.BindingError,
            errors.UnresolvedFaultError,
            errors.NoManagerError,
            errors.UIOError,
        ):
            assert issubclass(cls, errors.KernelError)

    def test_specific_groupings(self):
        assert issubclass(errors.OutOfFramesError, errors.ManagerError)
        assert issubclass(errors.InsufficientFundsError, errors.SPCMError)
        assert issubclass(errors.DeadlockError, errors.SimulationError)
        assert issubclass(errors.LockProtocolError, errors.DBMSError)


class TestMultiSpaceIsolation:
    def test_same_vpn_in_different_spaces_is_distinct(self, system):
        kernel = system.kernel
        manager = GenericSegmentManager(
            kernel, system.spcm, "iso", initial_frames=64
        )
        spaces = [
            kernel.create_segment(8, name=f"space{i}", manager=manager)
            for i in range(4)
        ]
        frames = [kernel.reference(s, 0, write=True) for s in spaces]
        assert len({f.pfn for f in frames}) == 4
        for i, frame in enumerate(frames):
            frame.write(bytes([i]))
        # caches are per-space: re-access returns each space's own frame
        for i, space in enumerate(spaces):
            assert kernel.reference(space, 0).read(0, 1) == bytes([i])

    def test_interleaved_accesses_thrash_tlb_not_correctness(self, system):
        kernel = system.kernel
        manager = GenericSegmentManager(
            kernel, system.spcm, "iso2", initial_frames=512
        )
        spaces = [
            kernel.create_segment(40, name=f"s{i}", manager=manager)
            for i in range(3)
        ]
        for sweep in range(2):
            for page in range(40):
                for i, space in enumerate(spaces):
                    frame = kernel.reference(
                        space, page * 4096, write=(sweep == 0)
                    )
                    if sweep == 0:
                        frame.write(bytes([i, page]))
                    else:
                        assert frame.read(0, 2) == bytes([i, page])
        assert kernel.tlb.stats.evictions > 0  # 120 pages through 64 entries
        kernel.check_frame_conservation()
