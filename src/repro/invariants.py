"""The invariant engine: one table of named whole-system checks.

``MigratePages`` is the only way a frame changes segment (paper, S2.1),
and that is what makes frame ownership checkable at all.  This module
holds every fact built on it, one copy each, as an ordered table of
named checks, each ``check(kernel) -> list[str]``:

* ``frames`` --- every in-service frame is owned by exactly one segment
  and its back-pointers agree; a frame retired after an ECC failure is
  out of service and must not be filed anywhere.
* ``spcm_pool`` --- the SPCM free pool equals the boot segment's
  residency, with no repeats, in ascending order; no account holds a
  negative frame count.
* ``shards`` --- on a sharded (NUMA) SPCM, each node's frames are its
  free frames plus its grants plus its retirements.
* ``translations`` --- every TLB and page-table entry resolves to the
  frame the segment walk finds; a writable entry needs WRITE permission.
* ``bindings`` --- no segment's bound regions overlap, and no binding
  targets a deleted segment.
* ``market`` --- each shard market's drams sum to its net transfers in,
  each account balances, and the arbiter's transfers are zero-sum.
* ``quotas`` --- quota-capped holdings stay under their caps and the
  frame pool is conserved across capped, uncapped, free and retired.
* ``managers`` --- every live generic segment manager's slot lists,
  migrate-back maps and residency agree with :func:`manager_truth`.

:class:`InvariantChecker` runs the whole table: after every injected
chaos event, as the recovery auditor's closing sweep, and as the last
step of every verify run.  The SLO watchdog alerts on ``frames`` and
``market``; :meth:`~repro.core.kernel.Kernel.check_frame_conservation`
runs ``frames``.  There is no repair mode: the recovery auditor repairs
a restarted manager against the same :func:`manager_truth`.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.errors import InvariantViolationError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel

#: absolute slack for dram sums (floating-point rounding, not policy)
DRAM_TOLERANCE = 1e-6


# ---------------------------------------------------------------------------
# kernel state
# ---------------------------------------------------------------------------


def check_frames(kernel: "Kernel") -> list[str]:
    """Every in-service frame has one owner whose back-pointers agree."""
    found: list[str] = []
    retired = kernel.retired_frames
    census: dict[int, int] = {}  # pfn -> the first seg_id filing it
    for segment in kernel.segments():
        for page, frame in segment.pages.items():
            if frame.pfn in census:
                found.append(
                    f"frame pfn={frame.pfn} owned twice: by segment "
                    f"{census[frame.pfn]} and by segment {segment.seg_id} "
                    f"page {page}"
                )
                continue
            census[frame.pfn] = segment.seg_id
            if frame.owner_segment_id != segment.seg_id:
                found.append(
                    f"frame pfn={frame.pfn} back-pointer names segment "
                    f"{frame.owner_segment_id}, but segment "
                    f"{segment.seg_id} holds it"
                )
            if frame.page_index != page:
                found.append(
                    f"frame pfn={frame.pfn} back-pointer names page "
                    f"{frame.page_index}, but it sits at page {page}"
                )
            if frame.pfn in retired:
                found.append(
                    f"retired frame pfn={frame.pfn} still in service "
                    f"in segment {segment.seg_id}"
                )
    for frame in kernel.memory.frames():
        if frame.pfn not in census and frame.pfn not in retired:
            found.append(
                f"frame pfn={frame.pfn} lost: owned by no segment and "
                "not retired"
            )
    return found


def check_translations(kernel: "Kernel") -> list[str]:
    """Cached translations match the segment walk and its permissions."""
    # lazy, like GenericSegmentManager below: this module stays a leaf so
    # the kernel, chaos, obs and recovery layers can all import it
    from repro.core.flags import PageFlags

    found: list[str] = []

    def check(where, space_id, vpn, pfn, writable) -> None:
        space = kernel._segments.get(space_id)
        if space is None:
            found.append(
                f"{where} entry for deleted space {space_id} vpn {vpn}"
            )
            return
        try:
            res = space.resolve(vpn, for_write=False)
        except ReproError as exc:
            found.append(
                f"{where} entry space {space_id} vpn {vpn} no longer "
                f"resolves: {exc}"
            )
            return
        if res.frame is None or res.frame.pfn != pfn:
            got = "nothing" if res.frame is None else f"pfn={res.frame.pfn}"
            found.append(
                f"{where} entry space {space_id} vpn {vpn} caches "
                f"pfn={pfn} but the segment structures resolve to {got}"
            )
            return
        if writable and PageFlags.WRITE not in res.prot:
            found.append(
                f"{where} entry space {space_id} vpn {vpn} is writable "
                "but the page is not write-permitted"
            )

    for (space_id, vpn), (pfn, writable) in kernel.tlb.entries():
        check("TLB", space_id, vpn, pfn, bool(writable))
    for entry in kernel.page_table.entries():
        check(
            "page table",
            entry.space_id,
            entry.vpn,
            entry.pfn,
            bool(PageFlags.WRITE & PageFlags(entry.prot)),
        )
    return found


def check_bindings(kernel: "Kernel") -> list[str]:
    """Bound regions never overlap or target a deleted segment."""
    found: list[str] = []
    for segment in kernel.segments():
        prev_start = prev_end = None
        for binding in sorted(segment.bindings, key=lambda b: b.start_page):
            if prev_end is not None and binding.start_page < prev_end:
                found.append(
                    f"segment {segment.seg_id} bound regions overlap: "
                    f"[{prev_start}, {prev_end}) and "
                    f"[{binding.start_page}, "
                    f"{binding.start_page + binding.n_pages})"
                )
            prev_start = binding.start_page
            prev_end = binding.start_page + binding.n_pages
            if binding.target.deleted:
                found.append(
                    f"segment {segment.seg_id} binds deleted segment "
                    f"{binding.target.seg_id}"
                )
    return found


# ---------------------------------------------------------------------------
# SPCM, shards, market, quotas
# ---------------------------------------------------------------------------


def check_spcm_pool(kernel: "Kernel") -> list[str]:
    """The free pool is exactly the boot residency, ascending, no repeats."""
    spcm = kernel.spcm
    if spcm is None:
        return []
    found: list[str] = []
    for size, free_pages in spcm._free.items():
        boot = kernel.boot_segments.get(size)
        if boot is None:
            found.append(f"SPCM free list for unknown page size {size}")
            continue
        pool = list(free_pages)
        repeats = sorted(p for p, n in Counter(pool).items() if n > 1)
        if repeats:
            found.append(f"pool({size}) repeats boot pages {repeats[:5]}")
        if pool != sorted(pool):
            found.append(f"pool({size}) is not in ascending order")
        pool_set, resident = set(pool), set(boot.pages)
        if pool_set != resident:
            found.append(
                f"pool({size}) != boot residency; "
                f"pool-only={sorted(pool_set - resident)[:5]} "
                f"boot-only={sorted(resident - pool_set)[:5]}"
            )
    for account, held in spcm.frames_held.items():
        if held < 0:
            found.append(f"SPCM books {held} frames for {account!r}")
    return found


def check_shards(kernel: "Kernel") -> list[str]:
    """Each node's frames are free here, granted from here, or retired."""
    spcm = kernel.spcm
    if spcm is None or spcm.n_shards <= 1:
        return []
    found: list[str] = []
    totals = {shard.node: 0 for shard in spcm.shards}
    for frame in kernel.memory.frames():
        totals[spcm.shard_of(frame.phys_addr).node] += 1
    free_by_node = {shard.node: 0 for shard in spcm.shards}
    for size, free_pages in spcm._free.items():
        boot = kernel.boot_segments.get(size)
        if boot is None:
            continue
        for page in free_pages:
            frame = boot.pages.get(page)
            if frame is not None:
                free_by_node[spcm.shard_of(frame.phys_addr).node] += 1
    for shard in spcm.shards:
        for account, held in shard.frames_held.items():
            if held < 0:
                found.append(
                    f"shard {shard.node} holds negative frame count "
                    f"for {account}: {held}"
                )
        held = sum(shard.frames_held.values())
        free = free_by_node[shard.node]
        expected = totals[shard.node]
        got = free + held + shard.retired_frames
        if got != expected:
            found.append(
                f"shard {shard.node} does not conserve frames: "
                f"{free} free + {held} held + {shard.retired_frames} "
                f"retired = {got} != {expected} frames on node"
            )
    return found


def check_market(kernel: "Kernel") -> list[str]:
    """Drams are conserved per market and per account; transfers net zero."""
    markets = kernel.spcm.markets if kernel.spcm is not None else []
    if not markets:
        return []
    found: list[str] = []
    net_transfer = 0.0
    for i, market in enumerate(markets):
        net_transfer += market.transfer_balance
        total = market.total_drams()
        if abs(total - market.transfer_balance) > DRAM_TOLERANCE:
            found.append(
                f"market {i} does not conserve drams: total {total!r} "
                f"!= net transfers {market.transfer_balance!r}"
            )
        for name, account in market.accounts.items():
            expected = (
                account.total_income
                - account.total_memory_charges
                - account.total_io_charges
                - account.total_tax
                + account.total_transfers
            )
            if abs(account.balance - expected) > DRAM_TOLERANCE:
                found.append(
                    f"market {i} account {name!r} balance "
                    f"{account.balance!r} != income - charges - tax "
                    f"+ transfers = {expected!r}"
                )
    if abs(net_transfer) > DRAM_TOLERANCE:
        found.append(
            "arbiter transfers are not zero-sum across shard markets: "
            f"net {net_transfer!r}"
        )
    return found


def check_quotas(kernel: "Kernel") -> list[str]:
    """Quota-capped holdings stay within cap and sum to the pool total.

    Only runs when quotas are installed (the serving layer).  Per capped
    account: machine-wide frames held <= cap, the SPCM's machine-wide
    count equals the sum of per-shard counts, and the summed dram-market
    holdings match the frames and stay under the advisory MB ceiling.
    Machine-wide: capped holdings plus uncapped holdings, free and
    retired frames equal the frame pool.
    """
    spcm = kernel.spcm
    quotas = spcm.arbiter.quotas if spcm is not None else None
    if not quotas:
        return []
    found: list[str] = []
    page_mb = kernel.memory.page_size / (1024 * 1024)
    capped_total = 0
    for account in sorted(quotas):
        cap = quotas[account]
        held = spcm.frames_held.get(account, 0)
        capped_total += held
        if held > cap:
            found.append(
                f"account {account!r} holds {held} frames over its "
                f"quota of {cap}"
            )
        shard_sum = sum(
            shard.frames_held.get(account, 0) for shard in spcm.shards
        )
        if shard_sum != held:
            found.append(
                f"account {account!r} shard holdings sum to {shard_sum}, "
                f"but the SPCM books {held} machine-wide"
            )
        holding_mb = 0.0
        quota_mb = None
        for market in spcm.markets:
            acct = market.accounts.get(account)
            if acct is None:
                continue
            holding_mb += acct.holding_mb
            if acct.quota_mb is not None:
                quota_mb = acct.quota_mb
        if quota_mb is None:
            continue
        if holding_mb > quota_mb + DRAM_TOLERANCE:
            found.append(
                f"account {account!r} dram holdings {holding_mb:.6f} MB "
                f"exceed the {quota_mb:.6f} MB quota ceiling"
            )
        expected_mb = held * page_mb
        if abs(holding_mb - expected_mb) > DRAM_TOLERANCE:
            found.append(
                f"account {account!r} market holdings {holding_mb:.6f} MB "
                f"disagree with {held} frames held ({expected_mb:.6f} MB)"
            )
    uncapped_total = sum(
        held
        for account, held in spcm.frames_held.items()
        if account not in quotas
    )
    free_total = sum(len(free) for free in spcm._free.values())
    retired = len(kernel.retired_frames)
    n_frames = kernel.memory.n_frames
    got = capped_total + uncapped_total + free_total + retired
    if got != n_frames:
        found.append(
            "quota sweep does not conserve the frame pool: "
            f"{capped_total} capped + {uncapped_total} uncapped + "
            f"{free_total} free + {retired} retired = {got} != "
            f"{n_frames} frames"
        )
    return found


# ---------------------------------------------------------------------------
# segment managers
# ---------------------------------------------------------------------------


class ManagerTruth(NamedTuple):
    """What the kernel says one manager holds.

    Kernel state survives a manager crash by construction, so this is
    the ground truth both the ``managers`` check and the recovery
    auditor's repairs read.
    """

    #: free-segment slots that hold a frame
    backed: frozenset[int]
    #: free-segment slot indices that hold none, ascending
    unbacked: list[int]
    #: ``(seg_id, page)`` backed in the segments the manager manages
    resident: frozenset[tuple[int, int]]


def manager_truth(kernel: "Kernel", manager) -> ManagerTruth:
    """Read ``manager``'s holdings off the kernel's segment structures."""
    free_segment = manager.free_segment
    backed = frozenset(free_segment.pages)
    return ManagerTruth(
        backed=backed,
        unbacked=[s for s in range(free_segment.n_pages) if s not in backed],
        resident=frozenset(
            (segment.seg_id, page)
            for segment in kernel.segments()
            if segment.manager is manager and segment is not free_segment
            for page in segment.pages
        ),
    )


def check_managers(kernel: "Kernel") -> list[str]:
    """Each live generic manager's bookkeeping matches the kernel.

    Two differences are legal mid-operation.  Free slots must be backed
    but need not be *all* the backed slots: a sweep fired from inside a
    fill (a disk error during the page read) sees the slot just popped
    for it, still backed but off the list.  And a page whose frame the
    kernel retired after an ECC error stays listed as resident until its
    refault places a new frame, so each retired frame may explain one
    listed page the kernel no longer backs.
    """
    from repro.managers.base import GenericSegmentManager

    spcm = kernel.spcm
    if spcm is None:
        return []
    found: list[str] = []
    unbacked_residents: list[tuple[str, tuple[int, int]]] = []
    for manager in spcm.managers.values():
        if not isinstance(manager, GenericSegmentManager) or manager.failed:
            continue
        name = manager.name
        truth = manager_truth(kernel, manager)
        free, empty = manager._free_slots, manager._empty_slots
        twice = sorted(s for s, n in Counter(free + empty).items() if n > 1)
        if twice:
            found.append(f"{name}: slots listed twice: {twice[:5]}")
        phantom = sorted(set(free) - truth.backed)
        if phantom:
            found.append(f"{name}: free slots hold no frame: {phantom[:5]}")
        if sorted(set(empty)) != truth.unbacked:
            found.append(
                f"{name}: empty slots {sorted(set(empty))[:8]} != "
                f"unbacked slots {truth.unbacked[:8]}"
            )
        forward = set(manager._stale_origin.items())
        if forward != {(s, k) for k, s in manager._stale_slot.items()}:
            found.append(f"{name}: the two migrate-back maps disagree")
        not_free = sorted(set(manager._stale_origin) - set(free))
        if not_free:
            found.append(
                f"{name}: migrate-back cache names slots that are not "
                f"free: {not_free[:5]}"
            )
        resident = set(manager._resident)
        forgotten = sorted(truth.resident - resident)
        if forgotten:
            found.append(
                f"{name}: kernel backs pages the manager does not list as "
                f"resident: {forgotten[:5]}"
            )
        unbacked_residents.extend(
            (name, key) for key in sorted(resident - truth.resident)
        )
    if len(unbacked_residents) > len(kernel.retired_frames):
        found.append(
            f"{len(unbacked_residents)} page(s) listed as resident hold no "
            f"frame, but only {len(kernel.retired_frames)} frame(s) were "
            f"retired: {unbacked_residents[:5]}"
        )
    return found


# ---------------------------------------------------------------------------
# the table and its entry point
# ---------------------------------------------------------------------------

#: every check, in sweep order
CHECKS: dict[str, Callable[["Kernel"], list[str]]] = {
    "frames": check_frames,
    "spcm_pool": check_spcm_pool,
    "shards": check_shards,
    "translations": check_translations,
    "bindings": check_bindings,
    "market": check_market,
    "quotas": check_quotas,
    "managers": check_managers,
}


def sweep(kernel: "Kernel", names=CHECKS) -> list[str]:
    """``[check] message`` for each violation of the named checks."""
    return [
        f"[{name}] {message}"
        for name in names
        for message in CHECKS[name](kernel)
    ]


def enforce(kernel: "Kernel", names=CHECKS) -> None:
    """Raise :class:`InvariantViolationError` listing every violation."""
    found = sweep(kernel, names)
    if found:
        raise InvariantViolationError(
            f"{len(found)} invariant violation(s):\n  " + "\n  ".join(found)
        )


class InvariantChecker:
    """Runs the whole table against one kernel.

    Callable with one argument, so it can observe a chaos injector and
    sweep after every injected event.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.checks_run = 0

    def __call__(self, _event=None) -> None:
        self.check_all()

    def violations(self) -> list[str]:
        """Every ``[check] message`` found (empty when consistent)."""
        self.checks_run += 1
        return sweep(self.kernel)

    def check_all(self) -> None:
        """Sweep; raise :class:`InvariantViolationError` on any violation."""
        self.checks_run += 1
        enforce(self.kernel)
