"""The dram memory market (S2.4)."""

from __future__ import annotations

import pytest

from repro.errors import InsufficientFundsError
from repro.spcm.market import DramAccount, MarketConfig, MemoryMarket
from repro.spcm.policy import (
    AllocationDecision,
    MarketPolicy,
    ReservePolicy,
)


def market(**kwargs) -> MemoryMarket:
    return MemoryMarket(MarketConfig(**kwargs))


class TestCharging:
    def test_holding_charge_is_m_d_t(self):
        """A process holding M megabytes for T seconds at rate D is
        charged M*D*T drams."""
        m = market(
            price_per_mb_second=2.0,
            income_per_second=0.0,
            savings_tax_rate=0.0,
            free_when_uncontended=False,
        )
        acct = m.open_account("p")
        acct.balance = 100.0
        m.set_holding("p", 5.0)
        m.advance(3.0)
        assert acct.balance == 100.0 - 5.0 * 2.0 * 3.0
        assert acct.total_memory_charges == 30.0

    def test_income_accrues(self):
        m = market(income_per_second=4.0, savings_tax_rate=0.0)
        acct = m.open_account("p")
        m.advance(2.5)
        assert acct.balance == 10.0
        assert acct.total_income == 10.0

    def test_free_when_uncontended(self):
        """'The SPCM can allow a process to continue to use memory at no
        charge when there are no outstanding memory requests.'"""
        m = market(income_per_second=0.0, savings_tax_rate=0.0)
        acct = m.open_account("p")
        m.set_holding("p", 10.0)
        m.advance(5.0)
        assert acct.total_memory_charges == 0.0
        m.demand_outstanding = True
        m.advance(10.0)
        assert acct.total_memory_charges == 50.0

    def test_savings_tax_only_above_threshold(self):
        m = market(
            income_per_second=0.0,
            savings_tax_rate=0.1,
            savings_tax_threshold=50.0,
        )
        rich = m.open_account("rich")
        poor = m.open_account("poor")
        rich.balance = 150.0
        poor.balance = 40.0
        m.advance(1.0)
        assert rich.balance == 150.0 - 10.0  # 10% of the 100 above threshold
        assert poor.balance == 40.0

    def test_io_charge(self):
        """The I/O charge that stops scan programs dodging the memory
        price."""
        m = market(io_charge_per_mb=0.5)
        acct = m.open_account("scanner")
        acct.balance = 10.0
        charged = m.charge_io("scanner", 8.0)
        assert charged == 4.0
        assert acct.balance == 6.0
        with pytest.raises(ValueError):
            m.charge_io("scanner", -1.0)

    def test_clock_monotonic(self):
        m = market()
        m.advance(5.0)
        with pytest.raises(ValueError):
            m.advance(4.0)

    def test_duplicate_account_rejected(self):
        m = market()
        m.open_account("p")
        with pytest.raises(ValueError):
            m.open_account("p")


class TestConservation:
    def test_drams_conserved_across_all_flows(self):
        """Invariant 6: balances plus the system sink always sum to zero."""
        m = market(free_when_uncontended=False, savings_tax_threshold=10.0)
        m.open_account("a", income_per_second=10.0)
        m.open_account("b", income_per_second=20.0)  # accrues taxable savings
        m.set_holding("a", 4.0)
        for t in (1.0, 2.5, 7.0, 20.0):
            m.advance(t)
            m.charge_io("a", 1.0)
            assert abs(m.total_drams()) < 1e-9


class TestPlanningQueries:
    def test_affordable_seconds(self):
        m = market(price_per_mb_second=1.0, income_per_second=2.0)
        acct = m.open_account("p")
        acct.balance = 100.0
        # net drain at 12 MB = 12 - 2 = 10/s -> 10 seconds
        assert m.affordable_seconds("p", 12.0) == pytest.approx(10.0)
        # sustainable holdings run forever
        assert m.affordable_seconds("p", 1.0) == float("inf")

    def test_seconds_until_affordable_save_then_run(self):
        """The batch pattern: save drams, then run with full memory."""
        m = market(price_per_mb_second=1.0, income_per_second=5.0)
        acct = m.open_account("batch")
        acct.balance = 0.0
        # needs 100 MB for 10 s = 1000 drams at 5/s income -> 200 s saving
        assert m.seconds_until_affordable("batch", 100.0, 10.0) == 200.0
        acct.balance = 1000.0
        assert m.seconds_until_affordable("batch", 100.0, 10.0) == 0.0

    def test_is_broke_and_require_funds(self):
        m = market()
        acct = m.open_account("p")
        acct.balance = -1.0
        assert m.is_broke("p")
        with pytest.raises(InsufficientFundsError):
            m.require_funds("p", 5.0)

    def test_equal_income_yields_equal_long_run_share(self):
        """'If each user account receives equal income, its programs also
        receive an equal share of the machine over time.'"""
        m = market(price_per_mb_second=1.0, income_per_second=10.0,
                   free_when_uncontended=False, savings_tax_rate=0.0)
        m.open_account("a")
        m.open_account("b")
        # both sustainably hold income/price = 10 MB; simulate that
        m.set_holding("a", 10.0)
        m.set_holding("b", 10.0)
        m.advance(100.0)
        a, b = m.account("a"), m.account("b")
        assert a.holding_mb_seconds == b.holding_mb_seconds
        assert abs(a.balance - b.balance) < 1e-9


class TestIOChargeIntegration:
    def test_scan_manager_pays_for_its_io(self, memory):
        """The S2.4 rule wired end to end: a manager's backing-store
        traffic drains its dram account."""
        from repro.core.kernel import Kernel
        from repro.core.uio import UIO, FileServer
        from repro.hw.costs import DECSTATION_5000_200
        from repro.hw.disk import Disk
        from repro.managers.default_manager import DefaultSegmentManager
        from repro.spcm.spcm import SystemPageCacheManager

        kernel = Kernel(memory)
        mkt = market(io_charge_per_mb=2.0)
        spcm = SystemPageCacheManager(kernel, market=mkt)
        disk = Disk(DECSTATION_5000_200)
        server = FileServer(kernel, disk)
        manager = DefaultSegmentManager(kernel, spcm, server, initial_frames=64)
        mkt.account(manager.account).balance = 100.0
        uio = UIO(kernel)
        seg = kernel.create_segment(
            0, name="scanfile", manager=manager, auto_grow=True
        )
        server.create_file(seg, data=b"s" * (16 * 4096))
        uio.read(seg, 0, 16 * 4096)  # 16 page-ins = 64 KB
        account = mkt.account(manager.account)
        expected = 16 * 4096 / (1024 * 1024) * 2.0
        assert account.total_io_charges == pytest.approx(expected)

    def test_no_market_means_no_charge(self, system):
        # the default system has no market: charge_io is a no-op
        assert system.default_manager.charge_io(4096) == 0.0


class TestPolicies:
    def test_reserve_policy(self):
        policy = ReservePolicy(reserve_frames=10)
        verdict = policy.decide("p", 100, 50, 4096)
        assert verdict.decision is AllocationDecision.GRANT
        assert verdict.n_frames == 40
        verdict = policy.decide("p", 5, 10, 4096)
        assert verdict.decision is AllocationDecision.DEFER

    def test_reserve_policy_validation(self):
        with pytest.raises(ValueError):
            ReservePolicy(reserve_frames=-1)

    def test_market_policy_grants_sustainable_amounts(self):
        m = market(price_per_mb_second=1.0, income_per_second=4.0)
        acct = m.open_account("p")
        acct.balance = 100.0
        policy = MarketPolicy(m, min_hold_seconds=10.0)
        # 4 MB = 1024 frames is sustainable (income covers it)
        verdict = policy.decide("p", 1024, 100000, 4096)
        assert verdict.decision is AllocationDecision.GRANT
        assert verdict.n_frames == 1024

    def test_market_policy_halves_unaffordable_requests(self):
        m = market(price_per_mb_second=1.0, income_per_second=0.0)
        acct = m.open_account("p")
        acct.balance = 50.0
        policy = MarketPolicy(m, min_hold_seconds=10.0)
        # can afford ~5 MB for 10 s; asks for 100 MB (25600 frames)
        verdict = policy.decide("p", 25600, 100000, 4096)
        assert verdict.decision is AllocationDecision.GRANT
        assert verdict.n_frames * 4096 / (1024 * 1024) <= 5.0

    def test_market_policy_refuses_broke_accounts(self):
        m = market()
        acct = m.open_account("p")
        acct.balance = -5.0
        policy = MarketPolicy(m)
        assert (
            policy.decide("p", 1, 100, 4096).decision
            is AllocationDecision.REFUSE
        )

    def test_market_policy_refuses_unknown_accounts(self):
        policy = MarketPolicy(market())
        assert (
            policy.decide("ghost", 1, 100, 4096).decision
            is AllocationDecision.REFUSE
        )

    def test_market_policy_defers_when_pool_empty(self):
        m = market()
        m.open_account("p")
        policy = MarketPolicy(m, reserve_frames=4)
        assert (
            policy.decide("p", 1, 4, 4096).decision
            is AllocationDecision.DEFER
        )


class TestDemandFlag:
    """S2.4: memory is charged only while other requests wait for it."""

    @staticmethod
    def machine(reserve_frames: int = 32):
        from repro.core.kernel import Kernel
        from repro.hw.phys_mem import PhysicalMemory
        from repro.managers.base import GenericSegmentManager
        from repro.spcm.spcm import SystemPageCacheManager

        mkt = market(income_per_second=0.0, savings_tax_rate=0.0)
        kernel = Kernel(PhysicalMemory(8 * 1024 * 1024))
        spcm = SystemPageCacheManager(
            kernel, policy=ReservePolicy(reserve_frames), market=mkt
        )
        capped = GenericSegmentManager(
            kernel, spcm, "tenant-a", initial_frames=16
        )
        holder = GenericSegmentManager(
            kernel, spcm, "tenant-b", initial_frames=64
        )
        return mkt, spcm, capped, holder

    def test_a_tenant_at_its_own_quota_is_not_demand(self):
        from repro.core.api import TenantQuota

        mkt, spcm, capped, holder = self.machine()
        spcm.set_tenant_quota(TenantQuota("tenant-a", frames=16))
        assert capped.request_frames(1) == 0
        assert spcm.quota_deferrals == 1 and spcm.deferred_requests == 1
        assert spcm.available_frames() == 1968
        assert not mkt.demand_outstanding
        mkt.advance(10.0)
        assert mkt.account(holder.account).total_memory_charges == 0.0

    def test_a_pool_held_back_by_its_reserve_is_demand(self):
        mkt, spcm, capped, holder = self.machine(reserve_frames=1968)
        assert capped.request_frames(1) == 0
        assert spcm.quota_deferrals == 0 and spcm.deferred_requests == 1
        assert mkt.demand_outstanding
        mkt.advance(10.0)
        charged = mkt.account(holder.account).total_memory_charges
        assert charged == pytest.approx(64 * 4096 / (1024 * 1024) * 10.0)
