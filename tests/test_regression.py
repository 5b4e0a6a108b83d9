"""The bench regression gate: direction-aware diffs and exit codes."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.regression import (
    ComparabilityError,
    MetricDelta,
    check_comparable,
    compare,
    extract_metrics,
    load_payload,
    main,
)

TABLE1 = {
    "benchmark": "table1_primitives",
    "schema_version": 1,
    "meta": {"n_nodes": 1, "seed": 0, "quick": False},
    "unit": "us",
    "rows": [
        {"name": "fault", "measured": 100.0, "paper": 100.0,
         "relative_error": 0.0},
        {"name": "read", "measured": 200.0, "paper": 200.0,
         "relative_error": 0.0},
    ],
}

NUMA = {
    "experiment": "numa_scaleout",
    "schema_version": 1,
    "meta": {"memory_mb": 32, "total_faults": 2048,
             "node_counts": [1, 2], "quick": False},
    "results": [
        {"n_nodes": 1, "throughput_faults_per_s": 1000.0,
         "completion_us": 5000.0},
        {"n_nodes": 2, "throughput_faults_per_s": 2000.0,
         "completion_us": 2500.0},
    ],
}

MICRO = {
    "benchmark": "fault_path_micro",
    "schema_version": 1,
    "meta": {"workload": "figure2", "cost_drives": 5, "quick": False},
    "throughput": {"repeats": 30, "faults": 420, "drive_wall_s": 0.02,
                   "build_wall_s": 0.1, "faults_per_sec": 20000.0},
    "allocations": {"faults": 14, "net_blocks": 90, "net_kib": 40.0,
                    "blocks_per_fault": 6.4, "peak_kib": 70.0},
    "service_cost_us": {"samples": 70, "p50": 379.0, "p99": 18321.0,
                        "mean": 8000.0},
}


SERVE = {
    "experiment": "serve",
    "schema_version": 1,
    "meta": {"memory_mb": 8, "n_nodes": 2, "tenants": [1, 8],
             "duration_us": 60000.0, "seed": 42},
    "results": [
        {"n_tenants": 1, "throughput_per_sim_s": 3900.0,
         "tenant_p99_us_worst": 155.0, "fairness_index": 1.0,
         "admitted_rate": 0.58},
        {"n_tenants": 8, "throughput_per_sim_s": 31300.0,
         "tenant_p99_us_worst": 155.0, "fairness_index": 1.0,
         "admitted_rate": 0.58},
    ],
}


def _write(directory, name, payload):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _scaled_table1(factor):
    payload = json.loads(json.dumps(TABLE1))
    for row in payload["rows"]:
        row["measured"] *= factor
    return payload


class TestDirectionAwareness:
    def test_lower_better_slowdown_is_regression(self):
        deltas = compare(TABLE1, _scaled_table1(1.2), "t")
        assert all(d.direction == "lower" for d in deltas)
        assert all(d.regression == pytest.approx(0.2) for d in deltas)
        assert all(d.status(0.15) == "REGRESSED" for d in deltas)

    def test_lower_better_speedup_is_improvement(self):
        deltas = compare(TABLE1, _scaled_table1(0.5), "t")
        assert all(d.status(0.15) == "improved" for d in deltas)

    def test_higher_better_throughput_drop_is_regression(self):
        current = json.loads(json.dumps(NUMA))
        for row in current["results"]:
            row["throughput_faults_per_s"] *= 0.5
        deltas = compare(NUMA, current, "n")
        by_name = {d.name: d for d in deltas}
        assert (
            by_name["1-node throughput (faults/s)"].status(0.15)
            == "REGRESSED"
        )
        # completion times unchanged: still ok
        assert by_name["1-node completion (us)"].status(0.15) == "ok"

    def test_serve_fairness_drop_is_regression(self):
        current = json.loads(json.dumps(SERVE))
        for row in current["results"]:
            row["fairness_index"] *= 0.7
        deltas = compare(SERVE, current, "s")
        by_name = {d.name: d for d in deltas}
        assert (
            by_name["1-tenant fairness index"].status(0.15) == "REGRESSED"
        )
        # latency and throughput unchanged: still ok at full strength
        assert by_name["1-tenant worst p99 (us)"].status(0.15) == "ok"
        assert (
            by_name["8-tenant throughput (req/sim-s)"].status(0.15) == "ok"
        )

    def test_serve_p99_blowup_is_regression(self):
        current = json.loads(json.dumps(SERVE))
        current["results"][1]["tenant_p99_us_worst"] *= 1.5
        deltas = compare(SERVE, current, "s")
        by_name = {d.name: d for d in deltas}
        assert by_name["8-tenant worst p99 (us)"].status(0.15) == "REGRESSED"

    def test_identical_payloads_all_ok(self):
        for payload in (TABLE1, NUMA, SERVE):
            deltas = compare(payload, json.loads(json.dumps(payload)), "x")
            assert all(d.status(0.15) == "ok" for d in deltas)
            assert all(d.regression == 0.0 for d in deltas)

    def test_within_tolerance_stays_ok(self):
        deltas = compare(TABLE1, _scaled_table1(1.1), "t")
        assert all(d.status(0.15) == "ok" for d in deltas)
        assert all(d.status(0.05) == "REGRESSED" for d in deltas)


class TestComparability:
    def test_schema_version_mismatch_refused(self):
        other = dict(TABLE1, schema_version=2)
        with pytest.raises(ComparabilityError):
            check_comparable(TABLE1, other, "t")

    def test_meta_mismatch_refused(self):
        other = json.loads(json.dumps(TABLE1))
        other["meta"]["seed"] = 7
        with pytest.raises(ComparabilityError):
            compare(TABLE1, other, "t")

    def test_missing_metric_refused(self):
        other = json.loads(json.dumps(TABLE1))
        other["rows"] = other["rows"][:1]
        with pytest.raises(ComparabilityError):
            compare(TABLE1, other, "t")

    def test_headerless_payload_refused(self, tmp_path):
        _write(tmp_path, "old.json", {"benchmark": "table1_primitives"})
        with pytest.raises(ComparabilityError):
            load_payload(str(tmp_path / "old.json"))

    def test_unknown_kind_refused(self):
        with pytest.raises(ComparabilityError):
            extract_metrics(
                {"schema_version": 1, "meta": {}, "benchmark": "???"}, "p"
            )

    def test_delta_fields(self):
        d = MetricDelta("m", "lower", 100.0, 120.0, 0.2)
        assert d.status(0.15) == "REGRESSED"
        assert d.status(0.25) == "ok"


class TestFaultPathMicro:
    def test_wall_clock_gates_loosely_simulated_gates_tightly(self):
        metrics = extract_metrics(MICRO, "m")
        assert metrics["throughput (faults/s)"][1] == "higher"
        assert metrics["throughput (faults/s)"][2] == 5.0
        assert metrics["service cost p50 (us)"] == (379.0, "lower")

    def test_machine_noise_on_throughput_stays_ok(self):
        # a 40% wall-clock dip is machine noise at 5x scale (gate 75%)
        current = json.loads(json.dumps(MICRO))
        current["throughput"]["faults_per_sec"] *= 0.6
        deltas = compare(MICRO, current, "m")
        by_name = {d.name: d for d in deltas}
        assert by_name["throughput (faults/s)"].status(0.15) == "ok"

    def test_large_throughput_collapse_is_regression(self):
        current = json.loads(json.dumps(MICRO))
        current["throughput"]["faults_per_sec"] *= 0.2
        deltas = compare(MICRO, current, "m")
        by_name = {d.name: d for d in deltas}
        assert by_name["throughput (faults/s)"].status(0.15) == "REGRESSED"

    def test_simulated_cost_drift_is_regression_at_full_strength(self):
        current = json.loads(json.dumps(MICRO))
        current["service_cost_us"]["p50"] *= 1.2
        deltas = compare(MICRO, current, "m")
        by_name = {d.name: d for d in deltas}
        assert by_name["service cost p50 (us)"].status(0.15) == "REGRESSED"
        # and 20% is inside the widened allocation gate (2x -> 30%)
        current2 = json.loads(json.dumps(MICRO))
        current2["allocations"]["blocks_per_fault"] *= 1.2
        deltas2 = compare(MICRO, current2, "m")
        by2 = {d.name: d for d in deltas2}
        assert by2["allocations (blocks/fault)"].status(0.15) == "ok"

    def test_allocation_count_ignores_earlier_garbage(self):
        """The gated allocation figures do not depend on when the cyclic
        collector runs or on caches an earlier drive filled."""
        from repro.analysis.micro_fault_path import measure_allocations

        first = measure_allocations()
        garbage = []
        for i in range(20_000):
            node = {"i": i}
            node["self"] = node  # reference cycles only the collector frees
            garbage.append(node)
        del garbage
        assert measure_allocations() == first


class TestCliExitCodes:
    def _dirs(self, tmp_path, current_table1, current_numa=None):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        base.mkdir()
        cur.mkdir()
        _write(base, "BENCH_table1.json", TABLE1)
        _write(base, "BENCH_numa_scaleout.json", NUMA)
        _write(base, "BENCH_fault_path_micro.json", MICRO)
        _write(base, "BENCH_serve.json", SERVE)
        _write(cur, "BENCH_table1.json", current_table1)
        _write(cur, "BENCH_numa_scaleout.json", current_numa or NUMA)
        _write(cur, "BENCH_fault_path_micro.json", MICRO)
        _write(cur, "BENCH_serve.json", SERVE)
        return str(base), str(cur)

    def _run(self, base, cur, tolerance=0.15):
        return main(
            [
                "--baseline-dir", base,
                "--current-dir", cur,
                "--tolerance", str(tolerance),
            ]
        )

    def test_identical_exits_zero(self, tmp_path, capsys):
        base, cur = self._dirs(tmp_path, TABLE1)
        assert self._run(base, cur) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_twenty_percent_slowdown_exits_one(self, tmp_path, capsys):
        base, cur = self._dirs(tmp_path, _scaled_table1(1.2))
        assert self._run(base, cur) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_meta_mismatch_exits_two(self, tmp_path, capsys):
        bad = json.loads(json.dumps(TABLE1))
        bad["meta"]["quick"] = True
        base, cur = self._dirs(tmp_path, bad)
        assert self._run(base, cur) == 2
        assert "meta mismatch" in capsys.readouterr().err

    def test_missing_current_file_exits_two(self, tmp_path):
        base, cur = self._dirs(tmp_path, TABLE1)
        os.remove(os.path.join(cur, "BENCH_numa_scaleout.json"))
        assert self._run(base, cur) == 2


class TestCommittedBaselines:
    BASELINES = (
        "BENCH_table1.json",
        "BENCH_numa_scaleout.json",
        "BENCH_fault_path_micro.json",
        "BENCH_serve.json",
    )

    def test_baselines_carry_the_header(self):
        for name in self.BASELINES:
            path = os.path.join("benchmarks", "baselines", name)
            payload = load_payload(path)
            assert payload["schema_version"] == 1
            assert "meta" in payload

    def test_committed_payloads_match_their_baselines(self):
        # the working-tree BENCH files are regenerated artifacts; they
        # must stay comparable to (and within tolerance of) the baselines
        for name in self.BASELINES:
            baseline = load_payload(
                os.path.join("benchmarks", "baselines", name)
            )
            current = load_payload(name)
            deltas = compare(baseline, current, name)
            assert all(d.status(0.15) != "REGRESSED" for d in deltas)
