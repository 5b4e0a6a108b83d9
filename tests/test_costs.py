"""Cost model calibration and CostMeter behavior.

The calibration identities pin the component decomposition to the paper's
Table 1; if anyone retunes a component, these tests say which published
number broke.
"""

from __future__ import annotations

import pytest

from repro.hw.costs import DECSTATION_5000_200, SGI_4D_380, CostMeter

C = DECSTATION_5000_200


class TestCalibration:
    def test_vpp_minimal_fault_faulting_process_is_107us(self):
        total = (
            C.trap_entry_exit
            + C.vpp_fault_dispatch
            + C.vpp_upcall
            + C.vpp_manager_alloc
            + C.vpp_migrate_call
            + C.vpp_resume_direct
        )
        assert total == 107.0

    def test_vpp_minimal_fault_default_manager_is_379us(self):
        total = (
            C.trap_entry_exit
            + C.vpp_fault_dispatch
            + 2 * (C.ipc_message + C.context_switch)
            + C.vpp_manager_alloc
            + C.vpp_migrate_call
            + C.vpp_kernel_resume
        )
        assert total == 379.0

    def test_ultrix_fault_is_175us(self):
        total = (
            C.trap_entry_exit
            + C.ultrix_fault_service
            + C.zero_page
            + C.map_update
        )
        assert total == 175.0

    def test_zeroing_is_the_paper_75us_delta(self):
        assert C.zero_page == 75.0

    def test_ultrix_user_level_fault_is_152us(self):
        total = (
            C.trap_entry_exit
            + C.signal_delivery
            + C.mprotect_call
            + C.sigreturn
        )
        assert total == 152.0

    def test_vpp_read_4kb_is_222us(self):
        assert C.uio_call + C.fs_lookup_vpp + C.copy_page == 222.0

    def test_vpp_write_4kb_is_203us(self):
        total = (
            C.uio_call
            + C.fs_lookup_vpp
            + C.copy_page
            - C.vpp_write_fastpath_saving
        )
        assert total == 203.0

    def test_ultrix_read_4kb_is_211us(self):
        assert C.syscall + C.fs_lookup_ultrix + C.copy_page == 211.0

    def test_ultrix_write_4kb_is_311us(self):
        total = (
            C.syscall
            + C.fs_lookup_ultrix
            + C.copy_page
            + C.ultrix_write_extra
        )
        assert total == 311.0


class TestMachineCosts:
    def test_instructions_us_uses_mips(self):
        assert C.instructions_us(25.0) == 1.0
        assert SGI_4D_380.instructions_us(30.0) == 1.0

    def test_disk_transfer_includes_latency_and_bandwidth(self):
        us = C.disk_transfer_us(4096)
        assert us == C.disk_latency_us + 4096 / C.disk_bandwidth_mb_s

    def test_sgi_machine_shape(self):
        assert SGI_4D_380.n_cpus == 8
        assert SGI_4D_380.cpu_mips == 30.0


class TestCostMeter:
    def test_charge_accumulates_by_category(self):
        meter = CostMeter()
        meter.charge("a", 10.0)
        meter.charge("a", 5.0)
        meter.charge("b", 1.0)
        assert meter.total_us == 16.0
        assert meter.by_category == {"a": 15.0, "b": 1.0}
        assert meter.count("a") == 2
        assert meter.count("missing") == 0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostMeter().charge("a", -1.0)

    def test_reset_clears_only_self(self):
        meter, other = CostMeter(), CostMeter()
        meter.charge("x", 7.0)
        other.charge("x", 7.0)
        meter.reset()
        assert (meter.total_us, meter.by_category, meter.counts) == (0.0, {}, {})
        assert meter.count("x") == 0
        assert other.total_us == 7.0
        meter.charge("y", 2.0)
        assert meter.by_category == {"y": 2.0}

    def test_snapshot_delta(self):
        meter = CostMeter()
        meter.charge("a", 3.0)
        snap = meter.snapshot()
        meter.charge("a", 2.0)
        meter.charge("b", 4.0)
        assert meter.delta_since(snap) == {"a": 2.0, "b": 4.0}

    def test_unit_conversions(self):
        meter = CostMeter()
        meter.charge("a", 2_500_000.0)
        assert meter.total_ms == 2500.0
        assert meter.total_s == 2.5
