"""The versioned, typed kernel API facade (v3).

The paper's four external page-cache management operations (S2.1) are
methods on :class:`~repro.core.kernel.Kernel`, and this module is their
only call surface: each primitive takes an immutable *request* record and
returns an immutable *result* record, so the call forms are versionable,
serializable (for IPC-style manager processes) and carry the NUMA
placement hints and batch statistics the sharded System Page Cache
Manager needs.  A record is a tuple of named fields (:class:`WireForm`):
one fault-path crossing builds several, so building one costs little
more than building a tuple of its fields.

* :class:`MigratePagesRequest` / :class:`MigratePagesResult`
* :class:`ModifyPageFlagsRequest` / :class:`ModifyPageFlagsResult`
* :class:`GetPageAttributesRequest` / :class:`GetPageAttributesResult`
* :class:`SetSegmentManagerRequest` / :class:`SetSegmentManagerResult`

The same vocabulary covers the manager callback surface: the SPCM asks a
manager for frames with a :class:`FrameDemand` and frames change hands as
a :class:`FrameGrant`, whichever direction they travel (release, seizure,
adoption).

API v3 removed the keyword-argument call forms that v2 deprecated, and
the bare-int/bare-list manager callbacks with them.

Requests reference segments by id (``Segment`` instances are accepted and
coerced), so every request/result round-trips through its plain-dict
wire form, :meth:`WireForm.to_payload` / :meth:`WireForm.from_payload`.
One codec derives that form from the record's fields and their type
hints; no class writes its own.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from typing import Any, Callable, get_args, get_origin, get_type_hints

from repro.core.flags import PageFlags

#: Facade version: (major, minor).  Major bumps may drop call forms.  v2
#: introduced the typed request/result records; v2.1 added the multi-tenant
#: serving vocabulary: :class:`BatchMigratePagesRequest` /
#: :class:`BatchMigratePagesResult` (the batched kernel entry as a typed,
#: serializable form), :class:`AdmitTenantRequest` /
#: :class:`AdmitTenantResult`, :class:`TenantQuota`, and
#: :class:`RetryAfter` (the typed shed).  v3 makes the records the only
#: call forms.
API_VERSION = (3, 0)


def _seg_id(value: Any) -> int:
    """Coerce a ``Segment`` (or anything with ``seg_id``) to its id."""
    seg_id = getattr(value, "seg_id", value)
    if not isinstance(seg_id, int):
        raise TypeError(f"expected a segment or segment id, got {value!r}")
    return seg_id


_new_tuple = tuple.__new__


# ---------------------------------------------------------------------------
# the record form and its wire codec (one rule per field type hint)
# ---------------------------------------------------------------------------

#: decoder marker for the ``Any``-typed manager field: resolved by name
_RESOLVE = object()


def _field_codec(hint: Any) -> tuple[Callable, Any] | None:
    """``(encode, decode)`` for one field's type hint; ``None`` when the
    value is already plain (ints, floats, strings, bools)."""
    if hint is PageFlags:
        return int, PageFlags
    if hint is Any:  # a live manager travels by name
        return (lambda manager: manager.name), _RESOLVE
    if isinstance(hint, type) and issubclass(hint, WireForm):
        return (lambda value: value.to_payload()), hint.from_payload
    args = get_args(hint)
    if get_origin(hint) is tuple:
        item = _field_codec(args[0])
        if item is None:
            return list, tuple
        enc, dec = item
        return (
            lambda values: [enc(v) for v in values],
            lambda values: tuple(dec(v) for v in values),
        )
    if type(None) in args:  # ``X | None``
        (inner,) = [a for a in args if a is not type(None)]
        item = _field_codec(inner)
        if item is None:
            return None
        enc, dec = item
        return (
            lambda value: None if value is None else enc(value),
            lambda value: None if value is None else dec(value),
        )
    return None


@cache
def _plan(cls: type) -> tuple[tuple[str, Callable | None, Any], ...]:
    """``(name, encode, decode)`` per record field, in field order."""
    hints = get_type_hints(cls)
    return tuple(
        (name, *(_field_codec(hints[name]) or (None, None)))
        for name in cls._fields
    )


class WireForm(tuple):
    """An immutable record: a tuple of named fields with a plain-dict
    wire form.

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

    Every field maps to one payload key, in field order; its type hint
    picks the rule: ``PageFlags`` travels as an int, a tuple as a list, a
    nested request/result as its own payload, ``X | None`` as ``None`` or
    X, and the ``Any``-typed live manager as its name (converted back
    through ``resolve_manager``, since manager processes are addressed by
    name on the wire).  Plain values pass through unchanged.
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

    def to_payload(self) -> dict[str, Any]:
        """Plain-dict wire form (inverse of :meth:`from_payload`)."""
        payload = {}
        for (name, enc, _), value in zip(_plan(type(self)), self):
            payload[name] = value if enc is None else enc(value)
        return payload

    @classmethod
    def from_payload(
        cls,
        payload: dict[str, Any],
        resolve_manager: Callable[[str], Any] | None = None,
    ):
        """Rebuild an instance from :meth:`to_payload` output."""
        kwargs = {}
        for name, _, dec in _plan(cls):
            value = payload[name]
            if dec is _RESOLVE:
                value = resolve_manager(value)
            elif dec is not None:
                value = dec(value)
            kwargs[name] = value
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# page attributes (the GetPageAttributes payload element)
# ---------------------------------------------------------------------------


class PageAttribute(WireForm):
    """One entry of a ``GetPageAttributes`` result."""

    __slots__ = ()

    page: int
    present: bool
    flags: PageFlags
    pfn: int | None
    phys_addr: int | None


# ---------------------------------------------------------------------------
# batch statistics (returned with every MigratePages result)
# ---------------------------------------------------------------------------


class BatchStats(WireForm):
    """What one (possibly batched) ``MigratePages`` actually did.

    ``local_pages`` / ``remote_pages`` are only split when the kernel has
    a NUMA topology and the request carried a ``home_node`` hint;
    otherwise every page counts as local.
    """

    __slots__ = ()

    n_calls: int = 1
    n_pages: int = 0
    zero_fills: int = 0
    cow_copies: int = 0
    local_pages: int = 0
    remote_pages: int = 0

    def merged(self, other: "BatchStats") -> "BatchStats":
        """Combine statistics of two batches into one."""
        return BatchStats(
            n_calls=self.n_calls + other.n_calls,
            n_pages=self.n_pages + other.n_pages,
            zero_fills=self.zero_fills + other.zero_fills,
            cow_copies=self.cow_copies + other.cow_copies,
            local_pages=self.local_pages + other.local_pages,
            remote_pages=self.remote_pages + other.remote_pages,
        )


# ---------------------------------------------------------------------------
# the four primitives
# ---------------------------------------------------------------------------


class MigratePagesRequest(WireForm):
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


class MigratePagesResult(WireForm):
    """Frames moved by one ``MigratePages`` (or one batch of them)."""

    __slots__ = ()

    moved_pfns: tuple[int, ...]
    batch: BatchStats = BatchStats()

    @property
    def n_pages(self) -> int:
        return len(self.moved_pfns)


class BatchMigratePagesRequest(WireForm):
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


class BatchMigratePagesResult(WireForm):
    """What one batched kernel entry moved, run statistics merged."""

    __slots__ = ()

    moved_pfns: tuple[int, ...]
    batch: BatchStats = BatchStats()
    n_requests: int = 0

    @property
    def n_pages(self) -> int:
        return len(self.moved_pfns)


class ModifyPageFlagsRequest(WireForm):
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


class ModifyPageFlagsResult(WireForm):
    """How many present pages one ``ModifyPageFlags`` touched."""

    __slots__ = ()

    modified: int


class GetPageAttributesRequest(WireForm):
    """``GetPageAttributes(seg, page, n_pages)``."""

    __slots__ = ()

    segment: int
    page: int
    n_pages: int

    def __new__(
        cls, segment: Any, page: int, n_pages: int = 1
    ) -> "GetPageAttributesRequest":
        return _new_tuple(cls, (_seg_id(segment), page, n_pages))


class GetPageAttributesResult(WireForm):
    """Per-page attributes, physical addresses included (S1)."""

    __slots__ = ()

    attributes: tuple[PageAttribute, ...]


class SetSegmentManagerRequest(WireForm):
    """``SetSegmentManager(seg, manager)``.

    ``manager`` is the live manager object; the payload form carries its
    name, and :meth:`from_payload` takes a resolver because manager
    processes are addressed by name on the wire.
    """

    __slots__ = ()

    segment: int
    manager: Any

    def __new__(cls, segment: Any, manager: Any) -> "SetSegmentManagerRequest":
        return _new_tuple(cls, (_seg_id(segment), manager))


class SetSegmentManagerResult(WireForm):
    """The manager the segment had before (by name; None if unmanaged)."""

    __slots__ = ()

    previous_manager: str | None


# ---------------------------------------------------------------------------
# the multi-tenant serving vocabulary (v2.1)
# ---------------------------------------------------------------------------


class RetryAfter(WireForm):
    """A typed shed: the request was not admitted, try again later.

    ``retry_after_us`` is simulated microseconds from the shed; every
    shed the admission controller issues carries one, so backpressure is
    a first-class, serializable signal rather than a bare refusal.
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


class TenantQuota(WireForm):
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


class AdmitTenantRequest(WireForm):
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


class AdmitTenantResult(WireForm):
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


class FrameDemand(WireForm):
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


class FrameGrant(WireForm):
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
    "BatchMigratePagesResult",
    "BatchStats",
    "FrameDemand",
    "FrameGrant",
    "GetPageAttributesRequest",
    "GetPageAttributesResult",
    "MigratePagesRequest",
    "MigratePagesResult",
    "ModifyPageFlagsRequest",
    "ModifyPageFlagsResult",
    "PageAttribute",
    "RetryAfter",
    "SetSegmentManagerRequest",
    "SetSegmentManagerResult",
    "TenantQuota",
]
