"""Tests of the wall-clock benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (about a
minute: every workload is driven several times).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
from tracing import DRIVE, LAYERS, Recorder, _TimedGenerator, targets, traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _repeat(name: str, seed: int, recorder=None, host=None) -> dict:
    rep = run.run_repeat(WORKLOADS[name], seed, recorder, host)
    assert rep["problems"] == [] and rep["failed"] == 0, rep["problems"]
    return rep


@pytest.fixture(scope="module")
def untraced_seed1() -> dict:
    return {name: _repeat(name, 1)["fingerprints"] for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed0_matches_expected(name):
    assert _repeat(name, 0)["fingerprints"] == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed1_is_deterministic_and_differs_from_seed0(name, untraced_seed1):
    # the rerun is probed, as timed repeats are: probes change no output
    with run.HostClock(probing=True) as host:
        again = _repeat(name, 1, host=host)["fingerprints"]
    assert host.probes_ns
    assert again == untraced_seed1[name]
    assert again != EXPECTED[name]


def test_host_clock_leaves_the_probes_out_of_its_laps():
    before = signal.getsignal(signal.SIGALRM)
    with run.HostClock(probing=True) as host:
        host.lap()
        t0 = time.perf_counter_ns()
        _busy(200_000_000)
        wall = time.perf_counter_ns() - t0
        raw, scaled = host.lap()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one probe ran before t0 and one after the end of the busy loop
    inside = host.probes_ns[1:-1]
    assert len(inside) >= 5
    assert abs(raw + sum(inside) - wall) < 0.02 * wall
    factors = [
        (run.PROBE_REFERENCE_NS / p) ** run.PROBE_EXPONENT for p in host.probes_ns[1:]
    ]
    assert min(factors) * raw <= scaled <= max(factors) * raw
    unprobed = run.HostClock()
    _busy(1_000_000)
    raw, scaled = unprobed.lap()
    assert raw >= 1_000_000 and scaled == raw and unprobed.probes_ns == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_has_identical_fingerprints(name, untraced_seed1):
    recorder = Recorder()
    with traced(recorder):
        rep = _repeat(name, 1, recorder)
    assert rep["fingerprints"] == untraced_seed1[name]
    calls = dict(zip(LAYERS, recorder.calls[DRIVE]))
    assert calls["core"] > 0 and calls["hw"] > 0
    if name == "tp":
        # the generator proxies ran: transactions and lock waits are spans
        assert recorder.fn_calls[DRIVE]["debit_credit"] > 0
        assert recorder.fn_calls[DRIVE]["LockManager.acquire"] > 0
        assert calls["sim"] > 0 and calls["dbms"] > 0
    if name == "serve":
        assert calls["serve"] > 0 and calls["spcm"] > 0


def _busy(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


def test_self_times_sum_to_the_root_span():
    rec = Recorder()
    core, hw, sim = LAYERS.index("core"), LAYERS.index("hw"), LAYERS.index("sim")

    def leaf():
        _busy(200_000)

    def inner():
        _busy(100_000)
        rec.call(hw, "leaf", leaf, (), {})
        rec.call(core, "same-layer", _busy, (50_000,), {})

    def proc():
        _busy(50_000)
        yield 1
        rec.call(core, "inner", inner, (), {})
        yield 2

    def root():
        _busy(100_000)
        rec.call(core, "inner", inner, (), {})
        gen = _TimedGenerator(proc(), rec, sim, "proc")
        assert list(gen) == [1, 2]

    rec.phase = DRIVE
    rec.call(core, "root", root, (), {})
    total_self = sum(rec.self_ns[DRIVE])
    assert total_self == rec.root_ns[DRIVE]
    assert all(ns >= 0 for ns in rec.self_ns[DRIVE])
    assert rec.self_ns[DRIVE][hw] >= 400_000
    # nested same-layer calls are one entry into the layer
    assert rec.calls[DRIVE][core] == 2  # root, and inner entered from sim
    assert rec.calls[DRIVE][hw] == 2
    assert rec.calls[DRIVE][sim] == 3  # three resumes of the generator
    spans = [s for s in rec.spans if s is not None]
    assert len(spans) == len(rec.spans)
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append((index, span))
    (root_index, root_span), = by_name["root"]
    assert root_span[5] == -1
    assert all(span[5] == root_index for _, span in by_name["proc"])


def test_every_attribute_is_restored():
    found = targets()
    owners = {id(owner): owner for owner, *_ in found}
    before = {key: dict(vars(owner)) for key, owner in owners.items()}
    replaced = []
    recorder = Recorder()
    with traced(recorder):
        for owner, attr, *_ in found:
            replaced.append(vars(owner)[attr] is not before[id(owner)][attr])
        _repeat("reclaim", 0, recorder)
    assert replaced and all(replaced)
    for key, owner in owners.items():
        after = vars(owner)
        for attr, value in before[key].items():
            assert after.get(attr) is value, f"{owner!r}.{attr} not restored"


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # the harness finds the library itself, from its own checkout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/perf/run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=300,
        check=False,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_benchmark_metric_is_printed_with_its_unit(trace, section):
    proc = _cli("--workload", "reclaim", "--seed", "1", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {tuple(line.split()[1:4:2]) for line in report if len(line.split()) > 3}
    for name, unit in wanted.items():
        assert (name, unit) in printed, name
    assert "fingerprint check PASS" in "\n".join(report)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/perf", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _cli("--workload", "reclaim", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(base, [100.2, 99.8, 100.4, 99.9], 0.05, "higher") == "within bound"
    assert compare.verdict(base, [90.0, 91.0, 89.0, 90.5], 0.05, "higher") == "worse"
    assert compare.verdict(base, [110.0, 111.0, 109.0, 110.5], 0.05, "higher") == "better"
    assert compare.verdict(base, [90.0, 91.0, 89.0, 90.5], 0.05, "lower") == "better"
    noisy = [80.0, 120.0, 95.0, 105.0]
    assert compare.verdict(base, noisy, 0.05, "higher") == "unresolved"
