"""The Table-4 transaction-processing simulation."""

from __future__ import annotations

import pytest

from repro.dbms.buffer import SegmentBackedIndex
from repro.dbms.locking import LockManager, LockMode, Transaction
from repro.dbms.relations import Database, Relation, bank_database
from repro.dbms.simulator import (
    IndexPolicy,
    TPConfig,
    _declare_hierarchy,
    run_tp_experiment,
    table4_configurations,
)
from repro.errors import DBMSError, LockProtocolError
from repro.sim.engine import Engine


class TestRelations:
    def test_geometry(self):
        rel = Relation("r", n_records=100, record_size=100, page_size=4096)
        assert rel.records_per_page == 40
        assert rel.n_pages == 3
        assert rel.page_of(0) == 0
        assert rel.page_of(41) == 1
        with pytest.raises(DBMSError):
            rel.page_of(100)

    def test_validation(self):
        with pytest.raises(DBMSError):
            Relation("r", n_records=0)
        with pytest.raises(DBMSError):
            Relation("r", n_records=1, record_size=8192)

    def test_database(self):
        db = Database()
        rel = db.add(Relation("a", 10))
        assert db.relation("a") is rel
        with pytest.raises(DBMSError):
            db.add(Relation("a", 10))
        with pytest.raises(DBMSError):
            db.relation("missing")

    def test_bank_database_is_about_120mb(self):
        db = bank_database(120)
        assert set(db.relations) == {
            "accounts",
            "tellers",
            "branches",
            "history",
            "summary",
        }
        assert 100 * 1024 * 1024 < db.size_bytes < 130 * 1024 * 1024


class TestSegmentBackedIndex:
    def test_starts_fully_resident(self):
        index = SegmentBackedIndex(n_pages=16)
        assert index.fully_resident
        assert index.n_resident == 16
        assert index.missing_pages() == []

    def test_evict_all_and_fault_back(self):
        index = SegmentBackedIndex(n_pages=16)
        assert index.evict_all() == 16
        assert index.n_resident == 0
        index.fault_in(3)
        assert index.resident(3)
        assert index.faults_served == 1
        assert len(index.missing_pages()) == 15

    def test_evicted_frames_are_not_migrate_back_recoverable(self):
        index = SegmentBackedIndex(n_pages=8)
        index.evict_all()
        index.fault_in(0)
        assert index.manager.fast_reclaims == 0

    def test_discard_and_regenerate(self):
        index = SegmentBackedIndex(n_pages=16)
        assert index.discard() == 16
        assert index.n_resident == 0
        index.regenerate()
        assert index.fully_resident
        assert index.discards == 1
        assert index.regenerations == 2  # construction + explicit

    def test_frame_conservation_through_cycles(self):
        index = SegmentBackedIndex(n_pages=8)
        for _ in range(3):
            index.evict_all()
            for page in index.missing_pages():
                index.fault_in(page)
        index.kernel.check_frame_conservation()


def quick_config(policy: IndexPolicy, **kwargs) -> TPConfig:
    defaults = dict(duration_s=20.0, warmup_s=2.0, seed=11)
    defaults.update(kwargs)
    return TPConfig(policy=policy, **defaults)


class TestSimulator:
    def test_all_spawned_transactions_complete(self):
        result = run_tp_experiment(quick_config(IndexPolicy.IN_MEMORY))
        assert result.n_completed > 0
        assert result.n_measured <= result.n_completed
        assert result.avg_response_ms > 0

    def test_throughput_is_about_40_tps(self):
        result = run_tp_experiment(quick_config(IndexPolicy.IN_MEMORY))
        assert 30 <= result.n_completed / 20.0 <= 50

    def test_mix_is_95_5(self):
        result = run_tp_experiment(
            quick_config(IndexPolicy.IN_MEMORY, duration_s=60.0)
        )
        # joins measured separately
        join_fraction = result.config.join_fraction
        total = result.n_measured
        joins = total - int(total * (1 - join_fraction))  # rough
        assert result.avg_join_ms > result.avg_dc_ms

    def test_no_index_config_runs_without_index(self):
        result = run_tp_experiment(quick_config(IndexPolicy.NONE))
        assert result.index_faults == 0
        assert result.regenerations == 0

    def test_paging_config_faults_the_index(self):
        result = run_tp_experiment(quick_config(IndexPolicy.PAGING))
        assert result.index_faults > 0

    def test_regenerate_config_rebuilds(self):
        result = run_tp_experiment(quick_config(IndexPolicy.REGENERATE))
        assert result.regenerations > 0
        assert result.index_faults == 0

    def test_deterministic_given_seed(self):
        a = run_tp_experiment(quick_config(IndexPolicy.PAGING))
        b = run_tp_experiment(quick_config(IndexPolicy.PAGING))
        assert a.avg_response_ms == b.avg_response_ms
        assert a.worst_response_ms == b.worst_response_ms

    def test_lock_waits_happen(self):
        result = run_tp_experiment(quick_config(IndexPolicy.NONE))
        assert result.lock_waits > 0


class TestLockHierarchy:
    """The Table-4 run's lock hierarchy: db, its relations, and each
    relation's pages declared as one range."""

    def test_every_page_lock_is_protocol_checked(self):
        db = bank_database(120)
        locks = LockManager(Engine())
        _declare_hierarchy(locks, db)
        assert len(locks._parent) + len(locks._ranges) == 10
        txn = Transaction(1)
        for name, relation in db.relations.items():
            for page in (0, relation.n_pages - 1):
                with pytest.raises(LockProtocolError):
                    locks.acquire(txn, ("page", name, page), LockMode.X)
        locks.acquire(txn, "db", LockMode.IX)
        for name, relation in db.relations.items():
            locks.acquire(txn, ("rel", name), LockMode.IX)
            for page in (0, relation.n_pages - 1):
                assert locks.acquire(txn, ("page", name, page), LockMode.X) == ()


class TestTable4Shape:
    """The paper's ordering and rough factors, on short runs."""

    @pytest.fixture(scope="class")
    def results(self):
        configs = table4_configurations(duration_s=40.0, seed=1992)
        return {
            r.config.policy: r
            for r in (run_tp_experiment(c) for c in configs)
        }

    def test_index_in_memory_wins(self, results):
        best = results[IndexPolicy.IN_MEMORY].avg_response_ms
        for policy in (IndexPolicy.NONE, IndexPolicy.PAGING):
            assert results[policy].avg_response_ms > 5 * best

    def test_paging_erases_most_of_the_index_benefit(self, results):
        """'indices ... are of limited benefit if ... there is a modest
        amount of paging.'"""
        paging = results[IndexPolicy.PAGING].avg_response_ms
        memory = results[IndexPolicy.IN_MEMORY].avg_response_ms
        none = results[IndexPolicy.NONE].avg_response_ms
        assert paging > 4 * memory
        assert paging > none / 4

    def test_regeneration_is_order_of_magnitude_below_paging(self, results):
        regen = results[IndexPolicy.REGENERATE].avg_response_ms
        paging = results[IndexPolicy.PAGING].avg_response_ms
        assert paging > 5 * regen

    def test_regeneration_close_to_in_memory(self, results):
        """Paper: regeneration only 27% worse than index-in-memory."""
        regen = results[IndexPolicy.REGENERATE].avg_response_ms
        memory = results[IndexPolicy.IN_MEMORY].avg_response_ms
        assert regen < 2.0 * memory

    def test_worst_cases_order(self, results):
        assert (
            results[IndexPolicy.IN_MEMORY].worst_response_ms
            < results[IndexPolicy.REGENERATE].worst_response_ms
            < results[IndexPolicy.PAGING].worst_response_ms
        )


class TestTable4Pinned:
    """The ``--quick`` report's Table-4 runs (seed 1992, 30 simulated
    seconds), pinned to the values the simulator has always produced:
    any change to event order, lock grants or wake-ups shows here."""

    #: policy -> (n_completed, lock_waits, index_faults, regenerations,
    #: average, worst and p99 response in ms)
    PINNED = {
        IndexPolicy.NONE: (
            1241, 1151, 0, 0,
            600.8149520771148, 2003.1946923730113, 1896.643728350699,
        ),
        IndexPolicy.IN_MEMORY: (
            1241, 358, 0, 0,
            42.01555519595539, 284.6833315949794, 208.35676504010522,
        ),
        IndexPolicy.PAGING: (
            1241, 778, 512, 0,
            685.1260890656176, 2944.887706188701, 2874.2065719865673,
        ),
        IndexPolicy.REGENERATE: (
            1241, 405, 0, 2,
            56.47494910418294, 508.8877061887011, 438.2065719865672,
        ),
    }

    @pytest.mark.parametrize("policy", list(PINNED), ids=lambda p: p.name)
    def test_quick_report_values(self, policy):
        (config,) = [
            c
            for c in table4_configurations(duration_s=30.0, seed=1992)
            if c.policy is policy
        ]
        result = run_tp_experiment(config)
        completed, waits, faults, regenerations, *responses = self.PINNED[
            policy
        ]
        assert (
            result.n_completed,
            result.lock_waits,
            result.index_faults,
            result.regenerations,
        ) == (completed, waits, faults, regenerations)
        assert [
            result.avg_response_ms,
            result.worst_response_ms,
            result.extra["p99_ms"],
        ] == pytest.approx(responses, rel=1e-12)
