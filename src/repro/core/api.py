"""The versioned, typed kernel API facade (v4).

The paper's four external page-cache management operations (S2.1) are
methods on :class:`~repro.core.kernel.Kernel`, and this module is their
only call surface: each primitive takes an immutable *request* record
(a migrate request carries the NUMA placement hint the sharded System
Page Cache Manager needs).  A record is a tuple of named fields
(:class:`Record`): one fault-path crossing builds several, so building
one costs little more than building a tuple of its fields.

* :class:`MigratePagesRequest` (and :class:`BatchMigratePagesRequest`)
* :class:`ModifyPageFlagsRequest` / :class:`ModifyPageFlagsResult`
* :class:`GetPageAttributesRequest` / :class:`GetPageAttributesResult`
* :class:`SetSegmentManagerRequest`

``MigratePages`` and ``SetSegmentManager`` return nothing: what they did
is in the kernel's counters (:class:`~repro.core.kernel.KernelStats`) and
in the segments themselves.

The same vocabulary covers the manager callback surface: the SPCM asks a
manager for frames with a :class:`FrameDemand` and frames change hands as
a :class:`FrameGrant`, whichever direction they travel (release, seizure,
adoption).

Requests reference segments by id (``Segment`` instances are accepted and
coerced).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any

from repro.core.flags import PageFlags

#: Facade version: (major, minor).  Major bumps may drop call forms.  v2
#: introduced the typed request/result records; v2.1 added the multi-tenant
#: serving vocabulary: :class:`BatchMigratePagesRequest` (the batched
#: kernel entry as a typed form), :class:`AdmitTenantRequest` /
#: :class:`AdmitTenantResult`, :class:`TenantQuota`, and
#: :class:`RetryAfter` (the typed shed).  v3 makes the records the only
#: call forms.  v4 drops the plain-dict wire codec and the results of
#: ``MigratePages`` and ``SetSegmentManager``, which now return ``None``.
API_VERSION = (4, 0)


def _seg_id(value: Any) -> int:
    """Coerce a ``Segment`` (or anything with ``seg_id``) to its id."""
    seg_id = getattr(value, "seg_id", value)
    if not isinstance(seg_id, int):
        raise TypeError(f"expected a segment or segment id, got {value!r}")
    return seg_id


_new_tuple = tuple.__new__


# ---------------------------------------------------------------------------
# the record form
# ---------------------------------------------------------------------------


class Record(tuple):
    """An immutable record: a tuple of named fields.

    A record class declares its fields as annotations, in order, with
    defaults as class values (the dataclass spelling), and sets
    ``__slots__ = ()`` so an instance holds its fields and nothing else.
    :meth:`__init_subclass__` gives it the namedtuple machinery: read-only
    field accessors, ``_fields``, the constructor, the
    ``Name(field=value, ...)`` repr and ``__getnewargs__`` (so copy and
    pickle rebuild a record field by field).  A record that coerces its
    arguments writes its own ``__new__``, which holds its defaults and
    builds the tuple with ``tuple.__new__``; one that only validates them
    checks its fields in ``__init__``, which runs once the tuple is
    built.  Records hash and compare as tuples, so ``==`` does not look
    at the type.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        names = tuple(own.get("__annotations__", {}))
        shape = namedtuple(
            cls.__name__, names, defaults=[own[n] for n in names if n in own]
        )
        for name in names:
            setattr(cls, name, shape.__dict__[name])
        cls._fields = names
        for attr in ("__new__", "__repr__", "__getnewargs__"):
            if attr not in own:
                setattr(cls, attr, shape.__dict__[attr])


# ---------------------------------------------------------------------------
# page attributes (one entry of a GetPageAttributes result)
# ---------------------------------------------------------------------------


class PageAttribute(Record):
    """One entry of a ``GetPageAttributes`` result."""

    __slots__ = ()

    page: int
    present: bool
    flags: PageFlags
    pfn: int | None
    phys_addr: int | None


# ---------------------------------------------------------------------------
# the four primitives
# ---------------------------------------------------------------------------


class MigratePagesRequest(Record):
    """``MigratePages(src, dst, src_page, dst_page, n_pages, ...)``.

    ``home_node`` is a placement hint: the node the destination's pages
    are expected to be accessed from.  A NUMA-aware kernel uses it to
    split the per-page local/remote counts and charge the DASH-style
    remote-access penalty for frames landing off-node.
    """

    __slots__ = ()

    src: int
    dst: int
    src_page: int
    dst_page: int
    n_pages: int
    set_flags: PageFlags
    clear_flags: PageFlags
    home_node: int | None

    def __new__(
        cls,
        src: Any,
        dst: Any,
        src_page: int,
        dst_page: int,
        n_pages: int = 1,
        set_flags: PageFlags | int = PageFlags.NONE,
        clear_flags: PageFlags | int = PageFlags.NONE,
        home_node: int | None = None,
    ) -> "MigratePagesRequest":
        # coercions are skipped when the caller already passed the exact
        # types --- this constructor runs on every fault-path grant
        if type(src) is not int:
            src = _seg_id(src)
        if type(dst) is not int:
            dst = _seg_id(dst)
        if type(set_flags) is not PageFlags:
            set_flags = PageFlags(set_flags)
        if type(clear_flags) is not PageFlags:
            clear_flags = PageFlags(clear_flags)
        return _new_tuple(
            cls,
            (
                src, dst, src_page, dst_page, n_pages,
                set_flags, clear_flags, home_node,
            ),
        )


class BatchMigratePagesRequest(Record):
    """Several ``MigratePages`` runs crossing into the kernel once (v2.1).

    The canonical form of the batched fast path: the first run is charged
    the full kernel-entry cost, the rest only the marginal batch cost.
    The sharded SPCM groups per-node frame grabs into one of these, and
    the serving layer's :class:`~repro.serve.scheduler.BatchScheduler`
    coalesces per-(manager, node) fault work the same way.
    """

    __slots__ = ()

    requests: tuple[MigratePagesRequest, ...]

    def __new__(cls, requests: Any) -> "BatchMigratePagesRequest":
        if type(requests) is not tuple:
            requests = tuple(requests)
        return _new_tuple(cls, (requests,))

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def n_pages(self) -> int:
        return sum(r.n_pages for r in self.requests)


class ModifyPageFlagsRequest(Record):
    """``ModifyPageFlags(seg, page, n_pages, set, clear)``."""

    __slots__ = ()

    segment: int
    page: int
    n_pages: int
    set_flags: PageFlags
    clear_flags: PageFlags

    def __new__(
        cls,
        segment: Any,
        page: int,
        n_pages: int = 1,
        set_flags: PageFlags | int = PageFlags.NONE,
        clear_flags: PageFlags | int = PageFlags.NONE,
    ) -> "ModifyPageFlagsRequest":
        if type(segment) is not int:
            segment = _seg_id(segment)
        if type(set_flags) is not PageFlags:
            set_flags = PageFlags(set_flags)
        if type(clear_flags) is not PageFlags:
            clear_flags = PageFlags(clear_flags)
        return _new_tuple(
            cls, (segment, page, n_pages, set_flags, clear_flags)
        )


class ModifyPageFlagsResult(Record):
    """How many present pages one ``ModifyPageFlags`` touched."""

    __slots__ = ()

    modified: int


class GetPageAttributesRequest(Record):
    """``GetPageAttributes(seg, page, n_pages)``."""

    __slots__ = ()

    segment: int
    page: int
    n_pages: int

    def __new__(
        cls, segment: Any, page: int, n_pages: int = 1
    ) -> "GetPageAttributesRequest":
        return _new_tuple(cls, (_seg_id(segment), page, n_pages))


class GetPageAttributesResult(Record):
    """Per-page attributes, physical addresses included (S1)."""

    __slots__ = ()

    attributes: tuple[PageAttribute, ...]


class SetSegmentManagerRequest(Record):
    """``SetSegmentManager(seg, manager)``; ``manager`` is the live
    manager object."""

    __slots__ = ()

    segment: int
    manager: Any

    def __new__(cls, segment: Any, manager: Any) -> "SetSegmentManagerRequest":
        return _new_tuple(cls, (_seg_id(segment), manager))


# ---------------------------------------------------------------------------
# the multi-tenant serving vocabulary (v2.1)
# ---------------------------------------------------------------------------


class RetryAfter(Record):
    """A typed shed: the request was not admitted, try again later.

    ``retry_after_us`` is simulated microseconds from the shed; every
    shed the admission controller issues carries one, so backpressure is
    a first-class, typed signal rather than a bare refusal.
    """

    __slots__ = ()

    tenant: str
    retry_after_us: float
    reason: str = "admission"  # "admission" | "backpressure" | "capacity"

    def __init__(self, *_args: Any, **_kwargs: Any) -> None:
        if self.retry_after_us < 0:
            raise ValueError(
                f"retry_after_us must be non-negative: {self.retry_after_us}"
            )


class TenantQuota(Record):
    """Per-tenant dram-pool cap, enforced through the SPCM market rules.

    ``frames`` caps the tenant's machine-wide SPCM frame grants (the
    paper's memory-market holding, in frames rather than drams); a
    request that would breach it is **deferred**, never refused, so the
    tenant reclaims and retries rather than failing.  ``dram_mb`` is the
    equivalent advisory holding ceiling recorded with the shard markets.
    ``None`` means unlimited on that axis.
    """

    __slots__ = ()

    account: str
    frames: int | None = None
    dram_mb: float | None = None

    def __init__(self, *_args: Any, **_kwargs: Any) -> None:
        if self.frames is not None and self.frames < 0:
            raise ValueError(f"frames quota must be >= 0: {self.frames}")
        if self.dram_mb is not None and self.dram_mb < 0:
            raise ValueError(f"dram_mb quota must be >= 0: {self.dram_mb}")


class AdmitTenantRequest(Record):
    """``AdmitTenant``: register one workload + manager + home node.

    ``working_set_pages`` sizes the tenant's address space; ``quota``
    rides along (its ``account`` may be left empty --- the serving layer
    fills in the manager's account at admission).
    """

    __slots__ = ()

    tenant: str
    home_node: int | None = None
    working_set_pages: int = 16
    quota: TenantQuota | None = None

    def __init__(self, *_args: Any, **_kwargs: Any) -> None:
        if not self.tenant:
            raise ValueError("tenant name must be non-empty")
        if self.working_set_pages <= 0:
            raise ValueError(
                f"working_set_pages must be positive: {self.working_set_pages}"
            )


class AdmitTenantResult(Record):
    """Whether the tenant was admitted; a shed carries the retry signal."""

    __slots__ = ()

    admitted: bool
    tenant: str
    account: str | None = None
    home_node: int | None = None
    retry_after: RetryAfter | None = None


# ---------------------------------------------------------------------------
# the manager callback vocabulary (shared with the SPCM)
# ---------------------------------------------------------------------------


class FrameDemand(Record):
    """The SPCM (or arbiter) asking a manager for frames back.

    ``node`` narrows the demand to frames homed on one NUMA node (the
    arbiter reclaiming a loan); ``None`` means any frames will do.
    """

    __slots__ = ()

    n_frames: int
    node: int | None = None
    reason: str = "pressure"

    def __init__(self, *_args: Any, **_kwargs: Any) -> None:
        if self.n_frames < 0:
            raise ValueError("cannot demand a negative number of frames")


class FrameGrant(Record):
    """Frames changing hands, named by free-segment page index.

    The single currency of the callback surface: what a manager
    surrenders under pressure (``release_frames``), what the SPCM seizes
    from a failed manager (``on_frames_seized``), and what an adopter
    indexes during failover (``adopt_segment``).
    """

    __slots__ = ()

    pages: tuple[int, ...]
    node: int | None

    def __new__(cls, pages: Any = (), node: int | None = None) -> "FrameGrant":
        return _new_tuple(cls, (tuple(pages), node))

    @classmethod
    def empty(cls) -> "FrameGrant":
        return cls(())

    @property
    def n_frames(self) -> int:
        return len(self.pages)

    def __bool__(self) -> bool:
        return bool(self.pages)


__all__ = [
    "API_VERSION",
    "AdmitTenantRequest",
    "AdmitTenantResult",
    "BatchMigratePagesRequest",
    "FrameDemand",
    "FrameGrant",
    "GetPageAttributesRequest",
    "GetPageAttributesResult",
    "MigratePagesRequest",
    "ModifyPageFlagsRequest",
    "ModifyPageFlagsResult",
    "PageAttribute",
    "RetryAfter",
    "SetSegmentManagerRequest",
    "TenantQuota",
]
