"""API v3 facade: payload round-trips, removed legacy forms, topology checks.

This file is the *only* place the removed v2 keyword call forms are
exercised on purpose (to pin that they are rejected); every other caller
in the repo goes through the typed request/result dataclasses of
:mod:`repro.core.api`.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager

import pytest

from repro.core.api import (
    API_VERSION,
    AdmitTenantRequest,
    AdmitTenantResult,
    BatchMigratePagesRequest,
    BatchMigratePagesResult,
    BatchStats,
    FrameDemand,
    FrameGrant,
    GetPageAttributesRequest,
    GetPageAttributesResult,
    MigratePagesRequest,
    MigratePagesResult,
    ModifyPageFlagsRequest,
    ModifyPageFlagsResult,
    PageAttribute,
    RetryAfter,
    SetSegmentManagerRequest,
    SetSegmentManagerResult,
    TenantQuota,
)
from repro.core.flags import PageFlags
from repro.core.kernel import Kernel
from repro.errors import HardwareError
from repro.hw.numa import NumaTopology
from repro.hw.phys_mem import PhysicalMemory
from repro.managers.base import GenericSegmentManager
from repro.spcm.spcm import SystemPageCacheManager


class _NamedManager:
    """Just enough of a manager for the wire-form tests."""

    def __init__(self, name: str) -> None:
        self.name = name


class TestPayloadRoundTrips:
    """Every request/result survives to_payload -> from_payload."""

    def test_api_version(self):
        assert API_VERSION == (3, 0)

    def test_page_attribute(self):
        attr = PageAttribute(
            page=3,
            present=True,
            flags=PageFlags.READ | PageFlags.DIRTY,
            pfn=17,
            phys_addr=17 * 4096,
        )
        assert PageAttribute.from_payload(attr.to_payload()) == attr

    def test_page_attribute_absent(self):
        attr = PageAttribute(
            page=0, present=False, flags=PageFlags.NONE, pfn=None,
            phys_addr=None,
        )
        assert PageAttribute.from_payload(attr.to_payload()) == attr

    def test_batch_stats(self):
        stats = BatchStats(
            n_calls=2, n_pages=64, zero_fills=3, cow_copies=1,
            local_pages=48, remote_pages=16,
        )
        assert BatchStats.from_payload(stats.to_payload()) == stats

    def test_batch_stats_merged(self):
        a = BatchStats(n_calls=1, n_pages=8, local_pages=8)
        b = BatchStats(n_calls=2, n_pages=4, remote_pages=4, zero_fills=1)
        merged = a.merged(b)
        assert merged == BatchStats(
            n_calls=3, n_pages=12, zero_fills=1, local_pages=8,
            remote_pages=4,
        )

    def test_migrate_pages_request(self):
        req = MigratePagesRequest(
            src=1, dst=2, src_page=3, dst_page=4, n_pages=5,
            set_flags=PageFlags.PINNED, clear_flags=PageFlags.DIRTY,
            home_node=1,
        )
        assert MigratePagesRequest.from_payload(req.to_payload()) == req

    def test_migrate_pages_request_coerces_segments(self, kernel):
        seg = kernel.create_segment(1, name="coerce")
        req = MigratePagesRequest(seg, seg, 0, 0)
        assert req.src == seg.seg_id
        assert req.dst == seg.seg_id

    def test_migrate_pages_result(self):
        result = MigratePagesResult(
            moved_pfns=(9, 10, 11),
            batch=BatchStats(n_pages=3, local_pages=3),
        )
        assert MigratePagesResult.from_payload(result.to_payload()) == result
        assert result.n_pages == 3

    def test_modify_page_flags_request(self):
        req = ModifyPageFlagsRequest(
            segment=7, page=1, n_pages=2,
            set_flags=PageFlags.READ, clear_flags=PageFlags.REFERENCED,
        )
        assert ModifyPageFlagsRequest.from_payload(req.to_payload()) == req

    def test_modify_page_flags_result(self):
        result = ModifyPageFlagsResult(modified=5)
        assert (
            ModifyPageFlagsResult.from_payload(result.to_payload()) == result
        )

    def test_get_page_attributes_request(self):
        req = GetPageAttributesRequest(segment=4, page=0, n_pages=8)
        assert (
            GetPageAttributesRequest.from_payload(req.to_payload()) == req
        )

    def test_get_page_attributes_result(self):
        result = GetPageAttributesResult(
            attributes=(
                PageAttribute(0, True, PageFlags.READ, 1, 4096),
                PageAttribute(1, False, PageFlags.NONE, None, None),
            )
        )
        assert (
            GetPageAttributesResult.from_payload(result.to_payload())
            == result
        )

    def test_set_segment_manager_request(self):
        managers = {"dbms": _NamedManager("dbms")}
        req = SetSegmentManagerRequest(segment=9, manager=managers["dbms"])
        back = SetSegmentManagerRequest.from_payload(
            req.to_payload(), managers.__getitem__
        )
        assert back.segment == 9
        assert back.manager is managers["dbms"]

    def test_set_segment_manager_result(self):
        result = SetSegmentManagerResult(previous_manager="default")
        assert (
            SetSegmentManagerResult.from_payload(result.to_payload())
            == result
        )

    def test_frame_demand(self):
        demand = FrameDemand(n_frames=4, node=1, reason="loan-recall")
        assert FrameDemand.from_payload(demand.to_payload()) == demand

    def test_frame_demand_rejects_negative(self):
        with pytest.raises(ValueError):
            FrameDemand(-1)

    def test_frame_grant(self):
        grant = FrameGrant(pages=(2, 5, 7), node=0)
        assert FrameGrant.from_payload(grant.to_payload()) == grant
        assert grant.n_frames == 3
        assert grant

    def test_frame_grant_empty(self):
        grant = FrameGrant.empty()
        assert not grant
        assert grant.n_frames == 0
        assert FrameGrant.from_payload(grant.to_payload()) == grant

    # -- the v2.1 serving vocabulary ------------------------------------

    def test_batch_migrate_pages_request(self):
        req = BatchMigratePagesRequest(
            requests=(
                MigratePagesRequest(1, 2, 0, 0, 4, home_node=0),
                MigratePagesRequest(1, 2, 8, 4, 2, home_node=1),
            )
        )
        assert (
            BatchMigratePagesRequest.from_payload(req.to_payload()) == req
        )
        assert req.n_requests == 2
        assert req.n_pages == 6

    def test_batch_migrate_pages_request_coerces_tuple(self):
        req = BatchMigratePagesRequest(
            requests=[MigratePagesRequest(1, 2, 0, 0, 1)]  # type: ignore[arg-type]
        )
        assert type(req.requests) is tuple

    def test_batch_migrate_pages_result(self):
        result = BatchMigratePagesResult(
            moved_pfns=(3, 4, 5),
            batch=BatchStats(n_calls=2, n_pages=3, local_pages=3),
            n_requests=2,
        )
        assert (
            BatchMigratePagesResult.from_payload(result.to_payload())
            == result
        )
        assert result.n_pages == 3

    def test_retry_after(self):
        shed = RetryAfter(
            tenant="tenant-3", retry_after_us=1500.0, reason="backpressure"
        )
        assert RetryAfter.from_payload(shed.to_payload()) == shed

    def test_retry_after_rejects_negative(self):
        with pytest.raises(ValueError):
            RetryAfter("t", -1.0)

    def test_tenant_quota(self):
        quota = TenantQuota(account="tenant-0", frames=16, dram_mb=0.0625)
        assert TenantQuota.from_payload(quota.to_payload()) == quota

    def test_tenant_quota_unlimited_axes(self):
        quota = TenantQuota(account="tenant-1")
        assert quota.frames is None and quota.dram_mb is None
        assert TenantQuota.from_payload(quota.to_payload()) == quota

    def test_tenant_quota_rejects_negative(self):
        with pytest.raises(ValueError):
            TenantQuota("t", frames=-1)
        with pytest.raises(ValueError):
            TenantQuota("t", dram_mb=-0.5)

    def test_admit_tenant_request(self):
        req = AdmitTenantRequest(
            tenant="tenant-7",
            home_node=1,
            working_set_pages=32,
            quota=TenantQuota("tenant-7", frames=8),
        )
        assert AdmitTenantRequest.from_payload(req.to_payload()) == req

    def test_admit_tenant_request_no_quota(self):
        req = AdmitTenantRequest(tenant="solo")
        assert AdmitTenantRequest.from_payload(req.to_payload()) == req

    def test_admit_tenant_request_rejects_bad_args(self):
        with pytest.raises(ValueError):
            AdmitTenantRequest(tenant="")
        with pytest.raises(ValueError):
            AdmitTenantRequest(tenant="t", working_set_pages=0)

    def test_admit_tenant_result_admitted(self):
        result = AdmitTenantResult(
            admitted=True, tenant="tenant-2", account="tenant-2", home_node=0
        )
        assert AdmitTenantResult.from_payload(result.to_payload()) == result

    def test_admit_tenant_result_shed(self):
        result = AdmitTenantResult(
            admitted=False,
            tenant="tenant-9",
            retry_after=RetryAfter("tenant-9", 250.0, reason="capacity"),
        )
        assert AdmitTenantResult.from_payload(result.to_payload()) == result


@pytest.fixture
def legacy_world(system):
    """A booted system plus a generic manager to aim legacy calls at."""
    kernel, spcm = system.kernel, system.spcm
    manager = GenericSegmentManager(
        kernel, spcm, "legacy", initial_frames=16
    )
    return kernel, spcm, manager


def _legacy_calls(record) -> list[warnings.WarningMessage]:
    return [
        w for w in record if issubclass(w.category, DeprecationWarning)
    ]


@contextmanager
def _rejected():
    """The v2 call form inside raises Python's own error, silently.

    API v3 keeps no rejection code: the typed signature alone turns a
    legacy call into a ``TypeError`` (wrong arity) or ``AttributeError``
    (a bare value where a request dataclass belongs), and no
    ``DeprecationWarning`` is emitted on the way.
    """
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises((TypeError, AttributeError)):
            yield
    assert _legacy_calls(record) == []


class TestDeprecationShims:
    """API v3 removed the v2 legacy call forms: each now raises, unwarned."""

    def test_modify_page_flags_warns_once(self, legacy_world):
        kernel, _, manager = legacy_world
        seg = kernel.create_segment(4, manager=manager)
        kernel.reference(seg, 0)
        with _rejected():
            kernel.modify_page_flags(
                seg, 0, 1, clear_flags=PageFlags.REFERENCED
            )

    def test_migrate_pages_warns_once_and_returns_frames(self, legacy_world):
        kernel, _, manager = legacy_world
        seg = kernel.create_segment(4, manager=manager)
        boot = kernel.initial_segment
        page = min(boot.pages)
        with _rejected():
            kernel.migrate_pages(boot, seg, page, 0, 1)
        assert 0 not in seg.pages  # nothing moved

    def test_migrate_pages_batch_list_warns_once(self, legacy_world):
        kernel, _, manager = legacy_world
        seg = kernel.create_segment(4, manager=manager)
        boot = kernel.initial_segment
        page = min(boot.pages)
        with _rejected():
            kernel.migrate_pages_batch(
                [MigratePagesRequest(boot, seg, page, 0, 1)]
            )
        assert 0 not in seg.pages  # nothing moved

    def test_migrate_pages_batch_typed_form(self, legacy_world):
        kernel, _, manager = legacy_world
        seg = kernel.create_segment(4, manager=manager)
        boot = kernel.initial_segment
        pages = sorted(boot.pages)[:2]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = kernel.migrate_pages_batch(
                BatchMigratePagesRequest(
                    (
                        MigratePagesRequest(boot, seg, pages[0], 0, 1),
                        MigratePagesRequest(boot, seg, pages[1], 1, 1),
                    )
                )
            )
        assert _legacy_calls(record) == []
        assert isinstance(result, BatchMigratePagesResult)
        assert result.n_requests == 2
        assert result.n_pages == 2
        assert result.batch.n_calls == 2

    def test_migrate_pages_batch_typed_empty(self, legacy_world):
        kernel, _, _ = legacy_world
        result = kernel.migrate_pages_batch(BatchMigratePagesRequest(()))
        assert isinstance(result, BatchMigratePagesResult)
        assert result.n_pages == 0
        assert result.n_requests == 0

    def test_get_page_attributes_warns_once(self, legacy_world):
        kernel, _, manager = legacy_world
        seg = kernel.create_segment(4, manager=manager)
        with _rejected():
            kernel.get_page_attributes(seg, 0, 4)
        with _rejected():
            kernel.get_page_attributes(seg)

    def test_set_segment_manager_warns_once(self, legacy_world):
        kernel, spcm, manager = legacy_world
        other = GenericSegmentManager(
            kernel, spcm, "legacy-other", initial_frames=0
        )
        seg = kernel.create_segment(2, manager=manager)
        with _rejected():
            kernel.set_segment_manager(seg, other)
        assert seg.manager is manager

    def test_release_frames_warns_once(self, legacy_world):
        _, _, manager = legacy_world
        free_before = manager.free_frames
        with _rejected():
            manager.release_frames(2)
        assert manager.free_frames == free_before  # nothing surrendered

    def test_on_frames_seized_warns_once(self, legacy_world):
        _, _, manager = legacy_world
        with _rejected():
            manager.on_frames_seized([])

    def test_each_operation_warns_independently(self, legacy_world):
        kernel, _, manager = legacy_world
        seg = kernel.create_segment(4, manager=manager)
        for call in (
            lambda: kernel.get_page_attributes(seg, 0, 1),
            lambda: kernel.modify_page_flags(seg, 0, 1),
            lambda: kernel.migrate_pages(seg, seg),
            lambda: kernel.set_segment_manager(seg, manager),
        ):
            with _rejected():
                call()

    def test_typed_forms_never_warn(self, legacy_world):
        kernel, _, manager = legacy_world
        seg = kernel.create_segment(4, manager=manager)
        kernel.reference(seg, 0)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            kernel.get_page_attributes(GetPageAttributesRequest(seg, 0, 4))
            kernel.modify_page_flags(
                ModifyPageFlagsRequest(
                    seg, 0, 1, clear_flags=PageFlags.REFERENCED
                )
            )
            manager.release_frames(FrameDemand(1))
            manager.on_frames_seized(FrameGrant.empty())
        assert _legacy_calls(record) == []


class TestTopologyValidation:
    """Node boundaries are checked wherever a topology meets a machine."""

    def test_for_memory_requires_divisible_size(self, memory):
        with pytest.raises(HardwareError):
            NumaTopology.for_memory(memory, 3)  # 4 MB does not split by 3

    def test_validate_for_rejects_short_topology(self, memory):
        bad = NumaTopology(n_nodes=2, node_bytes=memory.size_bytes // 4)
        with pytest.raises(HardwareError):
            bad.validate_for(memory)

    def test_kernel_rejects_mismatched_topology(self, memory):
        bad = NumaTopology(n_nodes=2, node_bytes=memory.size_bytes)
        with pytest.raises(HardwareError):
            Kernel(memory, topology=bad)

    def test_spcm_rejects_mismatched_topology(self, memory):
        kernel = Kernel(memory)
        bad = NumaTopology(n_nodes=4, node_bytes=memory.size_bytes)
        with pytest.raises(HardwareError):
            SystemPageCacheManager(kernel, topology=bad)

    def test_matching_topology_boots_sharded(self, memory):
        topology = NumaTopology.for_memory(memory, 2)
        kernel = Kernel(memory, topology=topology)
        spcm = SystemPageCacheManager(kernel)
        assert spcm.n_shards == 2
        assert [shard.node for shard in spcm.shards] == [0, 1]
