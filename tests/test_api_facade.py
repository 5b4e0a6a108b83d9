"""API v4 facade: the record contract, pickle round-trips, removed legacy
forms, topology checks.

This file is the *only* place the removed v2 keyword call forms are
exercised on purpose (to pin that they are rejected); every other caller
in the repo goes through the typed request/result records of
:mod:`repro.core.api`.  Those records are immutable tuples; the contract
tests below pin what they kept from the dataclasses they replaced: field
names, order and defaults, coercions, validation and hashing.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import warnings
from contextlib import contextmanager

import pytest

from repro.core import api
from repro.core.api import (
    API_VERSION,
    AdmitTenantRequest,
    AdmitTenantResult,
    BatchMigratePagesRequest,
    FrameDemand,
    FrameGrant,
    GetPageAttributesRequest,
    GetPageAttributesResult,
    MigratePagesRequest,
    ModifyPageFlagsRequest,
    ModifyPageFlagsResult,
    PageAttribute,
    Record,
    RetryAfter,
    SetSegmentManagerRequest,
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
    """Just enough of a manager for the record tests."""

    def __init__(self, name: str) -> None:
        self.name = name


def _assert_round_trips(obj) -> None:
    """``obj`` survives pickling, rebuilt field by field as its own type."""
    back = pickle.loads(pickle.dumps(obj))
    # records compare as tuples, which ignores the type
    assert type(back) is type(obj)
    assert back == obj


_REQUIRED = inspect.Parameter.empty

#: every record's fields, in order, with their defaults
_FIELDS = {
    PageAttribute: [
        ("page", _REQUIRED), ("present", _REQUIRED), ("flags", _REQUIRED),
        ("pfn", _REQUIRED), ("phys_addr", _REQUIRED),
    ],
    MigratePagesRequest: [
        ("src", _REQUIRED), ("dst", _REQUIRED), ("src_page", _REQUIRED),
        ("dst_page", _REQUIRED), ("n_pages", 1),
        ("set_flags", PageFlags.NONE), ("clear_flags", PageFlags.NONE),
        ("home_node", None),
    ],
    BatchMigratePagesRequest: [("requests", _REQUIRED)],
    ModifyPageFlagsRequest: [
        ("segment", _REQUIRED), ("page", _REQUIRED), ("n_pages", 1),
        ("set_flags", PageFlags.NONE), ("clear_flags", PageFlags.NONE),
    ],
    ModifyPageFlagsResult: [("modified", _REQUIRED)],
    GetPageAttributesRequest: [
        ("segment", _REQUIRED), ("page", _REQUIRED), ("n_pages", 1),
    ],
    GetPageAttributesResult: [("attributes", _REQUIRED)],
    SetSegmentManagerRequest: [("segment", _REQUIRED), ("manager", _REQUIRED)],
    RetryAfter: [
        ("tenant", _REQUIRED), ("retry_after_us", _REQUIRED),
        ("reason", "admission"),
    ],
    TenantQuota: [("account", _REQUIRED), ("frames", None), ("dram_mb", None)],
    AdmitTenantRequest: [
        ("tenant", _REQUIRED), ("home_node", None), ("working_set_pages", 16),
        ("quota", None),
    ],
    AdmitTenantResult: [
        ("admitted", _REQUIRED), ("tenant", _REQUIRED), ("account", None),
        ("home_node", None), ("retry_after", None),
    ],
    FrameDemand: [
        ("n_frames", _REQUIRED), ("node", None), ("reason", "pressure"),
    ],
    FrameGrant: [("pages", ()), ("node", None)],
}

#: one instance of every record
_EXAMPLES = [
    PageAttribute(0, True, PageFlags.READ, 1, 4096),
    MigratePagesRequest(1, 2, 3, 4, home_node=0),
    BatchMigratePagesRequest((MigratePagesRequest(1, 2, 0, 0),)),
    ModifyPageFlagsRequest(7, 1, clear_flags=PageFlags.REFERENCED),
    ModifyPageFlagsResult(3),
    GetPageAttributesRequest(4, 0, 8),
    GetPageAttributesResult(
        (PageAttribute(0, False, PageFlags.NONE, None, None),)
    ),
    SetSegmentManagerRequest(9, _NamedManager("dbms")),
    RetryAfter("t", 10.0),
    TenantQuota("t", frames=4),
    AdmitTenantRequest("t", quota=TenantQuota("t", frames=4)),
    AdmitTenantResult(False, "t", retry_after=RetryAfter("t", 5.0)),
    FrameDemand(2, node=1),
    FrameGrant((1, 2), node=0),
]


class TestRecordContract:
    """The records are immutable, hashable tuples that kept every field,
    default, coercion and check of the dataclasses they replaced."""

    def test_every_record_is_listed(self):
        records = {
            getattr(api, name) for name in api.__all__
            if isinstance(getattr(api, name), type)
            and issubclass(getattr(api, name), Record)
        }
        assert records == set(_FIELDS)
        assert {type(r) for r in _EXAMPLES} == records

    @pytest.mark.parametrize("cls", list(_FIELDS), ids=lambda c: c.__name__)
    def test_fields_order_and_defaults(self, cls):
        assert issubclass(cls, tuple)
        assert not dataclasses.is_dataclass(cls)
        expected = _FIELDS[cls]
        assert cls._fields == tuple(name for name, _ in expected)
        params = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in params] == expected

    @pytest.mark.parametrize(
        "record", _EXAMPLES, ids=lambda r: type(r).__name__
    )
    def test_immutable(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1  # type: ignore[attr-defined]
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize(
        "record", _EXAMPLES, ids=lambda r: type(r).__name__
    )
    def test_hashable(self, record):
        twin = type(record)(*record)
        assert twin == record and type(twin) is type(record)
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
        copied = copy.copy(record)
        assert copied == record and type(copied) is type(record)

    def test_segments_coerce_to_ids(self, kernel):
        # MigratePagesRequest: test_migrate_pages_request_coerces_segments
        seg = kernel.create_segment(2, name="coerce")
        for record in (
            ModifyPageFlagsRequest(seg, 0),
            GetPageAttributesRequest(seg, 0),
            SetSegmentManagerRequest(seg, _NamedManager("m")),
        ):
            assert type(record.segment) is int
            assert record.segment == seg.seg_id
        with pytest.raises(TypeError):
            ModifyPageFlagsRequest("not a segment", 0)

    def test_ints_coerce_to_page_flags(self):
        migrate = MigratePagesRequest(1, 2, 0, 0, set_flags=16, clear_flags=12)
        modify = ModifyPageFlagsRequest(1, 0, set_flags=3, clear_flags=4)
        for record in (migrate, modify):
            assert type(record.set_flags) is PageFlags
            assert type(record.clear_flags) is PageFlags
        assert migrate.set_flags == PageFlags.PINNED
        assert modify.clear_flags == PageFlags.REFERENCED

    def test_grant_pages_coerce_to_a_tuple(self):
        grant = FrameGrant([3, 4])
        assert grant.pages == (3, 4) and type(grant.pages) is tuple


class TestPayloadRoundTrips:
    """Every record survives pickling: ``__getnewargs__`` hands its fields
    back to its own constructor."""

    def test_api_version(self):
        assert API_VERSION == (4, 0)

    def test_page_attribute(self):
        attr = PageAttribute(
            page=3,
            present=True,
            flags=PageFlags.READ | PageFlags.DIRTY,
            pfn=17,
            phys_addr=17 * 4096,
        )
        _assert_round_trips(attr)

    def test_page_attribute_absent(self):
        attr = PageAttribute(
            page=0, present=False, flags=PageFlags.NONE, pfn=None,
            phys_addr=None,
        )
        _assert_round_trips(attr)

    def test_migrate_pages_request(self):
        req = MigratePagesRequest(
            src=1, dst=2, src_page=3, dst_page=4, n_pages=5,
            set_flags=PageFlags.PINNED, clear_flags=PageFlags.DIRTY,
            home_node=1,
        )
        _assert_round_trips(req)

    def test_migrate_pages_request_coerces_segments(self, kernel):
        seg = kernel.create_segment(1, name="coerce")
        req = MigratePagesRequest(seg, seg, 0, 0)
        assert req.src == seg.seg_id
        assert req.dst == seg.seg_id

    def test_modify_page_flags_request(self):
        req = ModifyPageFlagsRequest(
            segment=7, page=1, n_pages=2,
            set_flags=PageFlags.READ, clear_flags=PageFlags.REFERENCED,
        )
        _assert_round_trips(req)

    def test_modify_page_flags_result(self):
        result = ModifyPageFlagsResult(modified=5)
        _assert_round_trips(result)

    def test_get_page_attributes_request(self):
        req = GetPageAttributesRequest(segment=4, page=0, n_pages=8)
        _assert_round_trips(req)

    def test_get_page_attributes_result(self):
        result = GetPageAttributesResult(
            attributes=(
                PageAttribute(0, True, PageFlags.READ, 1, 4096),
                PageAttribute(1, False, PageFlags.NONE, None, None),
            )
        )
        _assert_round_trips(result)

    def test_set_segment_manager_request(self):
        """The request carries the live manager itself, not its name."""
        manager = _NamedManager("dbms")
        req = SetSegmentManagerRequest(segment=9, manager=manager)
        assert req.segment == 9
        assert req.manager is manager

    def test_frame_demand(self):
        demand = FrameDemand(n_frames=4, node=1, reason="loan-recall")
        _assert_round_trips(demand)

    def test_frame_demand_rejects_negative(self):
        with pytest.raises(ValueError):
            FrameDemand(-1)

    def test_frame_grant(self):
        grant = FrameGrant(pages=(2, 5, 7), node=0)
        _assert_round_trips(grant)
        assert grant.n_frames == 3
        assert grant

    def test_frame_grant_empty(self):
        grant = FrameGrant.empty()
        assert not grant
        assert grant.n_frames == 0
        _assert_round_trips(grant)

    # -- the v2.1 serving vocabulary ------------------------------------

    def test_batch_migrate_pages_request(self):
        req = BatchMigratePagesRequest(
            requests=(
                MigratePagesRequest(1, 2, 0, 0, 4, home_node=0),
                MigratePagesRequest(1, 2, 8, 4, 2, home_node=1),
            )
        )
        _assert_round_trips(req)
        assert req.n_requests == 2
        assert req.n_pages == 6

    def test_batch_migrate_pages_request_coerces_tuple(self):
        req = BatchMigratePagesRequest(
            requests=[MigratePagesRequest(1, 2, 0, 0, 1)]  # type: ignore[arg-type]
        )
        assert type(req.requests) is tuple

    def test_retry_after(self):
        shed = RetryAfter(
            tenant="tenant-3", retry_after_us=1500.0, reason="backpressure"
        )
        _assert_round_trips(shed)

    def test_retry_after_rejects_negative(self):
        with pytest.raises(ValueError):
            RetryAfter("t", -1.0)

    def test_tenant_quota(self):
        quota = TenantQuota(account="tenant-0", frames=16, dram_mb=0.0625)
        _assert_round_trips(quota)

    def test_tenant_quota_unlimited_axes(self):
        quota = TenantQuota(account="tenant-1")
        assert quota.frames is None and quota.dram_mb is None
        _assert_round_trips(quota)

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
        _assert_round_trips(req)

    def test_admit_tenant_request_no_quota(self):
        req = AdmitTenantRequest(tenant="solo")
        _assert_round_trips(req)

    def test_admit_tenant_request_rejects_bad_args(self):
        with pytest.raises(ValueError):
            AdmitTenantRequest(tenant="")
        with pytest.raises(ValueError):
            AdmitTenantRequest(tenant="t", working_set_pages=0)

    def test_admit_tenant_result_admitted(self):
        result = AdmitTenantResult(
            admitted=True, tenant="tenant-2", account="tenant-2", home_node=0
        )
        _assert_round_trips(result)

    def test_admit_tenant_result_shed(self):
        result = AdmitTenantResult(
            admitted=False,
            tenant="tenant-9",
            retry_after=RetryAfter("tenant-9", 250.0, reason="capacity"),
        )
        _assert_round_trips(result)


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

    Since API v3 the facade keeps no rejection code: the typed
    signature alone turns a legacy call into a ``TypeError`` (wrong
    arity) or ``AttributeError`` (a bare value where a request record
    belongs), and no ``DeprecationWarning`` is emitted on the way.
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
        assert result is None
        assert sorted(seg.pages) == [0, 1]

    def test_migrate_pages_batch_typed_empty(self, legacy_world):
        kernel, _, _ = legacy_world
        before = kernel.stats.as_dict()
        result = kernel.migrate_pages_batch(BatchMigratePagesRequest(()))
        assert result is None
        assert kernel.stats.as_dict() == before

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
