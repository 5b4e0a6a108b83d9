"""Edge cases of the global arbiter and sharded-SPCM bookkeeping.

Backfill for the corners the sharded-SPCM suite skipped: cross-node
loan repayment after a loaned frame is retired, dram rebalancing when a
donor market is empty, and the hit-ratio denominator when nothing was
ever placement-hinted.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import build_system
from repro.core.kernel import Kernel
from repro.hw.numa import NumaTopology
from repro.hw.phys_mem import PhysicalMemory
from repro.invariants import InvariantChecker
from repro.managers.base import GenericSegmentManager
from repro.spcm.arbiter import GlobalArbiter
from repro.spcm.market import MarketConfig, MemoryMarket
from repro.spcm.policy import ReservePolicy
from repro.spcm.spcm import SystemPageCacheManager

pytestmark = pytest.mark.verify


def _sharded_system():
    return build_system(memory_mb=4, manager_frames=16, n_nodes=2)


def _node_of(system, frame) -> int:
    return system.spcm.shard_of(frame.phys_addr).node


class TestCrossNodeLoanRetirement:
    def _borrowing_manager(self, system):
        """A manager homed on node 0 whose demand overflows into node 1."""
        spcm = system.spcm
        manager = GenericSegmentManager(
            system.kernel, spcm, "borrower", initial_frames=0, home_node=0
        )
        free_on_home = spcm.free_frames_by_node()[0]
        granted = manager.request_frames(free_on_home + 16)
        assert granted == free_on_home + 16
        return manager

    def test_overflow_demand_is_booked_as_a_loan(self):
        system = _sharded_system()
        manager = self._borrowing_manager(system)
        arbiter = system.spcm.arbiter
        assert arbiter.loans.get((0, 1), 0) >= 16
        assert arbiter.loaned_to(0) >= 16
        assert system.spcm.shards[1].loaned_grants >= 16
        assert manager.free_frames > 16

    def test_loan_repayment_after_loaned_frame_retired(self):
        """Retiring a loaned frame must come off the lender shard's books
        so the later repayment closes them out exactly (never negative)."""
        system = _sharded_system()
        spcm, kernel = system.spcm, system.kernel
        manager = self._borrowing_manager(system)
        account = spcm.account_of(manager)
        shard1 = spcm.shards[1]
        held_before = shard1.frames_held[account]

        # pick one loaned (node-1) frame out of the free stock and let the
        # kernel retire it (the ECC path: leaves the segment, then the
        # SPCM takes it off the lender's books)
        slot, frame = next(
            (s, manager.free_segment.pages[s])
            for s in manager._free_slots
            if _node_of(system, manager.free_segment.pages[s]) == 1
        )
        kernel.retire_frame(frame)
        # the SPCM tells the manager, whose slot is now empty
        assert slot not in manager._free_slots
        assert slot in manager._empty_slots

        assert shard1.frames_held[account] == held_before - 1
        assert shard1.retired_frames == 1
        assert spcm.retired_frames == 1
        InvariantChecker(kernel).check_all()

        # repay everything (node-1 frames surrendered first); the
        # lender's ledger must land on exactly zero, not clamp from below
        total_free = len(manager._free_slots)
        returned = manager.return_frames(total_free, node=1)
        assert returned == total_free
        assert shard1.frames_held[account] == 0
        InvariantChecker(kernel).check_all()

    def test_retirement_of_free_pool_frame_charges_no_account(self):
        """A frame retired while sitting in the free pool is nobody's
        holding: shard retired count moves, no account's ledger does."""
        system = _sharded_system()
        spcm, kernel = system.spcm, system.kernel
        boot = kernel.boot_segments[kernel.memory.page_size]
        frame = boot.pages[min(boot.pages)]
        node = _node_of(system, frame)
        held_before = dict(spcm.shards[node].frames_held)
        kernel.retire_frame(frame)
        assert spcm.shards[node].retired_frames == 1
        assert spcm.shards[node].frames_held == held_before
        InvariantChecker(kernel).check_all()


class TestRebalanceEdges:
    def _market(self, accounts: dict[str, tuple[float, float]]):
        """A market holding ``name -> (balance, holding_mb)``."""
        market = MemoryMarket(MarketConfig())
        for name, (balance, holding) in accounts.items():
            acct = market.open_account(name)
            acct.balance = balance
            acct.holding_mb = holding
        return market

    def test_zero_sum_with_empty_donor_market(self):
        """A sibling market with no accounts at all neither crashes the
        round nor absorbs drams; machine-wide drams are conserved."""
        rich = self._market({"m": (40.0, 0.0)})
        poor = self._market({"m": (0.0, 4.0)})
        empty = self._market({})
        arbiter = GlobalArbiter([rich, poor, empty])
        moved = arbiter.rebalance_drams()
        assert moved == pytest.approx(40.0)
        # all drams follow the holdings: the account holds only in `poor`
        assert rich.accounts["m"].balance == pytest.approx(0.0)
        assert poor.accounts["m"].balance == pytest.approx(40.0)
        assert not empty.accounts
        total = sum(
            m.accounts["m"].balance for m in (rich, poor)
        )
        assert total == pytest.approx(40.0)
        # transfers are balanced pairs: the siblings' transfer balances
        # cancel machine-wide
        assert sum(
            m.transfer_balance for m in (rich, poor, empty)
        ) == pytest.approx(0.0)

    def test_even_split_when_account_holds_nothing_anywhere(self):
        a = self._market({"m": (10.0, 0.0)})
        b = self._market({"m": (0.0, 0.0)})
        arbiter = GlobalArbiter([a, b])
        arbiter.rebalance_drams()
        assert a.accounts["m"].balance == pytest.approx(5.0)
        assert b.accounts["m"].balance == pytest.approx(5.0)

    def test_single_market_account_is_untouched(self):
        a = self._market({"solo": (7.0, 2.0), "m": (6.0, 0.0)})
        b = self._market({"m": (0.0, 3.0)})
        arbiter = GlobalArbiter([a, b])
        arbiter.rebalance_drams()
        assert a.accounts["solo"].balance == pytest.approx(7.0)
        assert a.accounts["m"].balance == pytest.approx(0.0)
        assert b.accounts["m"].balance == pytest.approx(6.0)

    def test_fewer_than_two_markets_is_a_no_op(self):
        a = self._market({"m": (9.0, 1.0)})
        arbiter = GlobalArbiter([a])
        assert arbiter.rebalance_drams() == 0.0
        assert arbiter.rebalance_rounds == 0


class TestLocalHitRatio:
    def test_ratio_is_one_with_zero_hinted_grants(self):
        """No hinted grants -> vacuously all-local (1.0), not 0/0."""
        system = _sharded_system()
        # the boot-time default manager has no home node, so nothing so
        # far was placement-hinted
        assert system.spcm.local_grant_pages == 0
        assert system.spcm.remote_grant_pages == 0
        assert system.spcm.local_hit_ratio() == 1.0

    def test_ratio_drops_when_demand_overflows_the_home_node(self):
        system = _sharded_system()
        manager = GenericSegmentManager(
            system.kernel, system.spcm, "hinted", initial_frames=0,
            home_node=0,
        )
        manager.request_frames(8)
        assert system.spcm.local_hit_ratio() == 1.0
        free_on_home = system.spcm.free_frames_by_node()[0]
        manager.request_frames(free_on_home + 8)
        assert 0.0 < system.spcm.local_hit_ratio() < 1.0


# -- property-based conservation across randomized interleavings -----------

#: one step of the randomized schedule: grants, repayments, retirements,
#: holdings drift, income accrual, and arbiter rebalance rounds, in any
#: order hypothesis cares to interleave them
_STEPS = st.one_of(
    st.tuples(st.just("request"), st.integers(0, 1), st.integers(1, 200)),
    st.tuples(st.just("overflow"), st.integers(0, 1)),
    st.tuples(st.just("return"), st.integers(0, 1), st.integers(1, 200)),
    st.tuples(st.just("retire"), st.just(0)),
    st.tuples(st.just("hold"), st.integers(0, 1), st.integers(0, 8)),
    st.tuples(st.just("advance"), st.integers(1, 5)),
    st.tuples(st.just("rebalance"), st.just(0)),
)


class TestConservationProperties:
    """Per-shard frame books and dram markets survive any interleaving.

    The two machine-wide conservation laws the sharded SPCM promises:

    * every shard's boot pages stay partitioned into free + held +
      retired, with cross-node demand booked on the arbiter's loan
      ledger, and
    * drams only ever *move* --- income mints them, charges burn them,
      but arbiter rebalancing is zero-sum machine-wide.
    """

    def _market_system(self):
        """A two-node system with a dram market on every shard."""
        memory = PhysicalMemory(4 * 1024 * 1024)
        topology = NumaTopology.for_memory(memory, 2)
        kernel = Kernel(memory, topology=topology)
        spcm = SystemPageCacheManager(
            kernel,
            policy=ReservePolicy(0),
            market=MemoryMarket(MarketConfig()),
        )
        managers = [
            GenericSegmentManager(
                kernel, spcm, f"m{node}", initial_frames=0, home_node=node
            )
            for node in (0, 1)
        ]
        return kernel, spcm, managers

    def _apply(self, step, kernel, spcm, managers, now):
        op = step[0]
        if op == "request":
            managers[step[1]].request_frames(step[2])
        elif op == "overflow":
            # force a cross-node loan: ask for more than the home node has
            home = managers[step[1]].home_node
            free_on_home = spcm.free_frames_by_node().get(home, 0)
            managers[step[1]].request_frames(free_on_home + 8)
        elif op == "return":
            manager = managers[step[1]]
            n = min(step[2], manager.free_frames)
            if n:
                manager.return_frames(n)
        elif op == "retire":
            boot = kernel.boot_segments[kernel.memory.page_size]
            if boot.pages:
                kernel.retire_frame(boot.pages[min(boot.pages)])
        elif op == "hold":
            name = f"m{step[1]}"
            for market in spcm.markets:
                if name in market.accounts:
                    market.set_holding(name, float(step[2]))
        elif op == "advance":
            now += step[1]
            for market in spcm.markets:
                market.advance(float(now))
        elif op == "rebalance":
            total_before = sum(m.total_drams() for m in spcm.markets)
            moved = spcm.arbiter.rebalance_drams()
            assert moved >= 0.0
            total_after = sum(m.total_drams() for m in spcm.markets)
            # rebalancing moves drams between shards, never mints or
            # burns them
            assert total_after == pytest.approx(total_before)
        return now

    @given(steps=st.lists(_STEPS, min_size=1, max_size=15))
    @settings(
        max_examples=20,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_interleavings_conserve_frames_and_drams(self, steps):
        kernel, spcm, managers = self._market_system()
        checker = InvariantChecker(kernel)
        now = 0
        for step in steps:
            now = self._apply(step, kernel, spcm, managers, now)
            # the full oracle after *every* step: per-shard frame
            # conservation, per-market dram conservation, translation
            # coherence
            checker.check_all()
            # arbiter transfers cancel machine-wide (zero-sum)
            net = sum(m.transfer_balance for m in spcm.markets)
            assert net == pytest.approx(0.0, abs=1e-9)
            # the loan ledger never goes negative and always sums to the
            # brokered total
            arbiter = spcm.arbiter
            assert all(n > 0 for n in arbiter.loans.values())
            assert sum(arbiter.loans.values()) == arbiter.loans_brokered

    @given(
        balances=st.lists(
            st.floats(0.0, 100.0, allow_nan=False), min_size=2, max_size=4
        ),
        holdings=st.lists(
            st.floats(0.0, 16.0, allow_nan=False), min_size=2, max_size=4
        ),
        rounds=st.integers(1, 3),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_rebalance_is_zero_sum_for_any_market_shape(
        self, balances, holdings, rounds
    ):
        """Pure-market half: arbitrary balances and holdings, repeated
        rebalance rounds; total drams invariant, transfers cancel."""
        markets = []
        for balance in balances:
            market = MemoryMarket(MarketConfig())
            acct = market.open_account("m")
            # seed via balanced income so the account's own books stay
            # consistent (balance == income - charges - tax + transfers)
            acct.balance = balance
            acct.total_income = balance
            markets.append(market)
        for market, holding in zip(markets, holdings):
            market.set_holding("m", holding)
        arbiter = GlobalArbiter(markets)
        total_before = sum(m.total_drams() for m in markets)
        for _ in range(rounds):
            arbiter.rebalance_drams()
        assert sum(m.total_drams() for m in markets) == pytest.approx(
            total_before
        )
        assert sum(m.transfer_balance for m in markets) == pytest.approx(
            0.0, abs=1e-9
        )
        # a second round after convergence moves (almost) nothing new
        assert arbiter.rebalance_drams() == pytest.approx(0.0, abs=1e-9)
