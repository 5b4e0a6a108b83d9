"""Wall-clock benchmark of the V++ reproduction: four workloads, each in
its own fresh subprocess, with correctness-checked outputs.

Run one workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/perf/run.py --workload reclaim --seed 0 --seconds 25 --trace 0

or all four, printing a table (``--out`` also saves the results)::

    python3 benchmarks/perf/run.py [--seed N] [--trace] [--out results.json]

Each workload gets one untimed warm-up repeat, then timed repeats until
``--seconds`` have passed.  The timed phases are measured by a
:class:`HostClock`: a timer signal runs a fixed pure-Python probe every
:data:`PROBE_INTERVAL_S`, and each slice of host time between two probes
is scaled, by the probe time measured right after it, to a host of the
reference speed (:data:`PROBE_REFERENCE_NS`).  ``ops_per_s`` and
``setup_s`` are the scaled figures; the unscaled ones are printed too.
Every repeat's simulated outputs are
fingerprinted and checked; at seed 0 they must also equal
``expected.json``.  ``--trace 1`` reports the per-layer metrics instead:
the worker measures untraced repeats for half the time and traced
repeats (see ``tracing.py``) for the other half, and writes the first
spans of its last traced repeat to ``out/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from compare import quartiles
from tracing import DRIVE, LAYERS, SETUP, Recorder, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"
SPAN_DIR = HERE / "out"

WORKLOAD_NAMES = ("apps", "reclaim", "tp", "serve")
DEFAULT_SECONDS = 25
#: timed repeats a run makes even when one repeat outlasts --seconds
MIN_REPEATS = 3
#: a run must end within 180 s; this leaves room for the parent
WORKER_TIMEOUT_S = 170

#: loop iterations of one host-speed probe (about 0.2 ms)
PROBE_ITERATIONS = 300
#: the probe's time on the reference host (2 vCPU Xeon, CPython 3.11.7)
#: when no neighbour contends for the core; the gated times are scaled
#: to a host this fast
PROBE_REFERENCE_NS = 160_000
#: host seconds between two probes while a phase is timed; the host's
#: speed holds steady over tens of milliseconds but not over seconds
PROBE_INTERVAL_S = 0.02
#: how the workloads' time follows the probe's: when the probe takes
#: ``k`` times longer, a workload takes about ``k ** 0.85`` times longer
#: (0.8 to 1.0 per workload on the reference host; see README.md)
PROBE_EXPONENT = 0.85

#: name -> (unit, better); printed with ``--trace 0``.  The apps and
#: reclaim op-time percentiles are printed too but not gated: op times
#: are bimodal (cache hits against faults), so the median sits between
#: two modes, and the p99 moves about three times as much as throughput
#: when the host slows down.
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

#: name -> unit; printed with ``--trace 1``.  Seconds only where the
#: layer is busy in every workload's drive (an idle layer reads exactly
#: 0, and tp's set-up touches no layer, so set-up is given as shares);
#: shares of the drive and calls for all seven layers.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in ("core", "hw", "managers")},
    **{f"{layer}.setup_share": "%" for layer in ("core", "hw", "spcm")},
    **{f"{layer}.self_share": "%" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "core.faults_per_op": "ratio",
    "hw.tlb_hit_ratio": "ratio",
    "managers.reclaims_per_fault": "ratio",
    "managers.fast_reclaim_ratio": "ratio",
    "spcm.quota_deferrals_per_op": "ratio",
    "sim.events_per_op": "ratio",
    "dbms.lock_waits_per_txn": "ratio",
    "serve.items_per_batch": "ratio",
    "serve.shed_ratio": "ratio",
    "trace.overhead": "ratio",
}


# ---------------------------------------------------------------------------
# worker: runs one workload in this process
# ---------------------------------------------------------------------------


def _workloads() -> dict:
    """The workloads, imported from this checkout's ``src/``.

    Only workers load the library; the parent never imports it.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    return WORKLOADS


class _Cell:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt) -> None:
        self.key = key
        self.value = value
        self.next = nxt


def _probe_loop(n: int) -> int:
    """Fixed pure-Python work of the kinds the simulator does: small
    objects, attribute reads, dict and list traffic, bytes slices."""
    table: dict[int, _Cell] = {}
    window: list[bytes] = []
    blob = bytes(range(256)) * 16
    head = None
    acc = 0
    for i in range(n):
        head = _Cell(i & 1023, i, head)
        table[head.key] = head
        found = table.get((i * 7) & 1023)
        if found is not None:
            acc += found.value & 0xFF
        window.append(blob[i & 255 : (i & 255) + 64])
        if len(window) > 64:
            acc ^= len(window.pop(0))
    return acc


def host_probe_ns() -> int:
    """Host time of one probe.

    The probe's code is part of the benchmark, not of the program, so
    its time moves only with the host's speed.  The collector is off so
    the heap the workload left behind does not enter the timing.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        _probe_loop(PROBE_ITERATIONS)
        return perf_counter_ns() - t0
    finally:
        if collecting:
            gc.enable()


class HostClock:
    """Times phases of a run in nanoseconds, raw and scaled.

    A shared host's speed swings by up to 2x from one second to the
    next, as neighbours come and go, and how much of a run falls in the
    slow state differs from run to run.  So with ``probing`` a timer
    signal runs the probe every :data:`PROBE_INTERVAL_S`; each slice of
    host time between two probes is multiplied by ``(PROBE_REFERENCE_NS
    / p) ** PROBE_EXPONENT``, with ``p`` the probe time measured right
    after it.  The probes' own time is in no phase.  Without ``probing``
    the scaled time is the raw one.
    """

    def __init__(self, probing: bool = False) -> None:
        self.probing = probing
        #: every probe time measured, for the report
        self.probes_ns: list[int] = []
        self._busy = False
        self._raw = 0
        self._scaled = 0.0
        self._last = perf_counter_ns()

    def __enter__(self) -> "HostClock":
        if self.probing:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self._cut()

    def _cut(self) -> None:
        # the signal handler runs between any two bytecodes of the main
        # code, so a tick that lands inside a cut is dropped
        if self._busy:
            return
        self._busy = True
        try:
            slice_ns = perf_counter_ns() - self._last
            self._raw += slice_ns
            if self.probing:
                probe = host_probe_ns()
                self.probes_ns.append(probe)
                self._scaled += (
                    slice_ns * (PROBE_REFERENCE_NS / probe) ** PROBE_EXPONENT
                )
            else:
                self._scaled += slice_ns
            self._last = perf_counter_ns()
        finally:
            self._busy = False

    def lap(self) -> tuple[int, float]:
        """Raw and scaled ns since the previous lap."""
        self._cut()
        raw, scaled = self._raw, self._scaled
        self._raw, self._scaled = 0, 0.0
        return raw, scaled


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _differing(reference: dict, fp: dict) -> list[str]:
    return sorted(k for k in fp if reference.get(k) != fp[k])


def _sum_count(fingerprints: list[dict], key: str) -> float:
    return sum(fp.get(key, 0) for fp in fingerprints)


class Checker:
    """Compares every repeat's fingerprints with a reference.

    The reference is ``expected.json`` at seed 0; at other seeds it is
    the warm-up repeat, so every repeat of a run must agree.
    """

    def __init__(self, expected: dict | None) -> None:
        self.reference = expected

    def problems(self, fingerprints: dict[str, dict]) -> list[str]:
        if self.reference is None:
            self.reference = fingerprints
            return []
        found = []
        for label, fp in fingerprints.items():
            ref = self.reference.get(label)
            if ref is None:
                found.append(f"{label}: no reference fingerprint")
                continue
            diff = _differing(ref, fp)
            if diff:
                found.append(
                    f"{label}: fingerprint mismatch in {', '.join(diff)}"
                )
        return found


def run_repeat(workload, seed: int, recorder=None, host=None) -> dict:
    """One repeat: set up and drive every unit, then check its outputs.

    ``host`` times the phases (unscaled when not given).
    """
    from repro.errors import ReproError
    from workloads import OpClock

    if host is None:
        host = HostClock()
    setup_ns = drive_ns = raw_setup_ns = raw_drive_ns = 0
    gaps: list[int] = []
    ops = failed = 0
    fingerprints: dict[str, dict] = {}
    unit_prints: list[dict] = []
    problems: list[str] = []
    for unit in workload.units(seed):
        gc.collect()
        clock = OpClock()
        if recorder is not None:
            recorder.clock = clock
            recorder.phase = SETUP
        host.lap()
        state = unit.setup()
        setup = host.lap()
        if recorder is not None:
            recorder.phase = DRIVE
        try:
            unit.drive(state, clock)
        except ReproError as exc:
            problems.append(f"{unit.label}: drive raised {exc!r}")
            clock.failed += max(1, clock.ops)
        drive = host.lap()
        if recorder is not None:
            recorder.phase = None
        raw_setup_ns += setup[0]
        setup_ns += setup[1]
        raw_drive_ns += drive[0]
        drive_ns += drive[1]
        gaps.extend(clock.gaps)
        ops += clock.ops
        failed += clock.failed
        fp, unit_problems = unit.check(state)
        problems.extend(unit_problems)
        unit_prints.append(fp)
        first = fingerprints.setdefault(unit.label, fp)
        diff = _differing(first, fp)
        if diff:
            problems.append(f"{unit.label}: rounds disagree in {diff}")
    gaps.sort()
    return {
        "setup_s": setup_ns / 1e9,
        "drive_s": drive_ns / 1e9,
        "raw_setup_s": raw_setup_ns / 1e9,
        "raw_drive_s": raw_drive_ns / 1e9,
        "ops": ops,
        "failed": failed,
        # op times exist only where the drive ticks each op
        "p50_us": _percentile(gaps, 0.50) / 1e3 if gaps else None,
        "p99_us": _percentile(gaps, 0.99) / 1e3 if gaps else None,
        "fingerprints": fingerprints,
        "unit_prints": unit_prints,
        "problems": problems,
    }


def _timed_repeats(workload, seed, seconds, checker, host, recorder=None):
    """Repeats until ``seconds`` pass (at least :data:`MIN_REPEATS`)."""
    repeats = []
    deadline = perf_counter() + seconds
    while len(repeats) < MIN_REPEATS or perf_counter() < deadline:
        if recorder is not None:
            recorder.reset()
        rep = run_repeat(workload, seed, recorder, host)
        rep["problems"] += checker.problems(rep["fingerprints"])
        if recorder is not None:
            rep["layers"] = recorder.layer_totals()
            rep["root_drive_s"] = recorder.root_ns[DRIVE] / 1e9
            rep["root_setup_s"] = recorder.root_ns[SETUP] / 1e9
            rep["schedule_calls"] = recorder.fn_calls[DRIVE].get(
                "Engine.schedule", 0
            )
        repeats.append(rep)
    return repeats


def _unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric][0]
    if metric in PER_LAYER:
        return PER_LAYER[metric]
    return {
        "op_us_p50": "us",
        "op_us_p99": "us",
        "raw_ops_per_s": "1/s",
        "raw_setup_s": "s",
        "host_probe_us": "us",
        "ops_per_repeat": "count",
        "calls": "count",
        "self_s": "s",
        "setup_self_s": "s",
    }.get(metric.rsplit(".", 1)[-1], "%")


def _layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Every per-layer figure of the traced repeats (medians)."""
    med = statistics.median

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in traced[0]["layers"]:
        out[name] = med([rep["layers"][name] for rep in traced])
    for layer in LAYERS:
        for seconds, total, share in (
            ("self_s", "drive_s", "self_share"),
            ("setup_self_s", "setup_s", "setup_share"),
        ):
            out[f"{layer}.{share}"] = med(
                [
                    100.0 * rep["layers"][f"{layer}.{seconds}"] / rep[total]
                    for rep in traced
                ]
            )
    # counts are simulated outputs: the same in every repeat
    rep = traced[-1]
    prints, ops = rep["unit_prints"], rep["ops"]
    handled = _sum_count(prints, "faults_handled")
    out.update(
        {
            "core.faults_per_op": ratio(_sum_count(prints, "faults"), ops),
            "hw.tlb_hit_ratio": ratio(
                _sum_count(prints, "tlb_hits"), _sum_count(prints, "tlb_lookups")
            ),
            "managers.reclaims_per_fault": ratio(
                _sum_count(prints, "pages_reclaimed"), handled
            ),
            "managers.fast_reclaim_ratio": ratio(
                _sum_count(prints, "fast_reclaims"), handled
            ),
            "spcm.quota_deferrals_per_op": ratio(
                _sum_count(prints, "quota_deferrals"), ops
            ),
            "sim.events_per_op": ratio(rep["schedule_calls"], ops),
            "dbms.lock_waits_per_txn": ratio(
                _sum_count(prints, "lock_waits"),
                _sum_count(prints, "n_completed"),
            ),
            "serve.items_per_batch": ratio(
                _sum_count(prints, "serviced"), _sum_count(prints, "batches")
            ),
            "serve.shed_ratio": ratio(
                _sum_count(prints, "shed"), _sum_count(prints, "submitted")
            ),
            "trace.overhead": med([r["drive_s"] for r in traced])
            / med([r["drive_s"] for r in untraced])
            - 1.0,
        }
    )
    return out


def work(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload here; returns the result the parent prints."""
    workload = _workloads()[name]
    expected = None
    if seed == 0:
        expected = json.loads(EXPECTED.read_text())[name]
    checker = Checker(expected)
    # the traced run compares unscaled drive times, and a probe would
    # land inside some layer's span
    with HostClock(probing=not trace) as host:
        warmup = run_repeat(workload, seed, host=host)
        warmup["problems"] += checker.problems(warmup["fingerprints"])
        # a fixed amount of work in a fresh interpreter: later repeats
        # reuse freed heap, and how much depends on how many fit in
        # --seconds
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        budget = seconds / 2 if trace else seconds
        untraced = _timed_repeats(workload, seed, budget, checker, host)
    everything = [warmup, *untraced]
    result: dict = {"workload": name, "seed": seed, "trace": trace}
    if trace:
        recorder = Recorder()
        with traced(recorder):
            traced_reps = _timed_repeats(
                workload, seed, budget, checker, host, recorder
            )
        SPAN_DIR.mkdir(exist_ok=True)
        recorder.write_spans(SPAN_DIR / f"spans-{name}.jsonl")
        everything += traced_reps
        figures = _layer_metrics(traced_reps, untraced)
        metrics = {k: figures.pop(k) for k in PER_LAYER}
        result["other_figures"] = figures
        last = traced_reps[-1]
        result["outside_spans"] = {
            phase: (last[f"{phase}_s"], last[f"{phase}_s"] - last[f"root_{phase}_s"])
            for phase in ("setup", "drive")
        }
    else:
        samples = {
            "ops_per_s": [r["ops"] / r["drive_s"] for r in untraced],
            "setup_s": [r["setup_s"] for r in untraced],
        }
        if untraced[0]["p50_us"] is not None:
            samples["op_us_p50"] = [r["p50_us"] for r in untraced]
            samples["op_us_p99"] = [r["p99_us"] for r in untraced]
        result["samples"] = {k: quartiles(v) for k, v in samples.items()}
        figures = {k: statistics.median(v) for k, v in samples.items()}
        metrics = {k: figures.pop(k) for k in ("ops_per_s", "setup_s")}
        metrics["peak_rss_mib"] = peak_rss_mib
        med = statistics.median
        figures.update(
            raw_ops_per_s=med(r["ops"] / r["raw_drive_s"] for r in untraced),
            raw_setup_s=med(r["raw_setup_s"] for r in untraced),
            host_probe_us=med(host.probes_ns) / 1e3,
            ops_per_repeat=med(r["ops"] for r in untraced),
        )
        result["other_figures"] = figures
    attempted = failed = 0
    problems = []
    for rep in everything:
        attempted += rep["ops"]
        problems += rep["problems"]
        failed += rep["ops"] if rep["problems"] else rep["failed"]
    result.update(
        repeats=len(untraced),
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        problems=problems[:20],
        fingerprint=warmup["fingerprints"],
    )
    return result


def write_expected() -> None:
    """Record every workload's seed-0 fingerprints in ``expected.json``."""
    expected = {}
    for name in WORKLOAD_NAMES:
        rep = run_repeat(_workloads()[name], 0)
        if rep["problems"] or rep["failed"]:
            raise SystemExit(f"{name}: {rep['problems']}")
        expected[name] = rep["fingerprints"]
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# parent: one fresh subprocess per workload
# ---------------------------------------------------------------------------


def spawn(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh single-threaded interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--worker",
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(int(trace)),
    ]
    proc = subprocess.run(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{name} worker exited with code {proc.returncode}"
        )
    return json.loads(lines[-1])


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def report(result: dict) -> list[str]:
    """Human-readable lines: every metric with its unit."""
    name = result["workload"]
    lines = [
        f"{name}: seed {result['seed']}, {result['repeats']} timed repeats, "
        f"{result['attempted']} ops attempted, {result['failed']} failed "
        f"(error_rate {result['failed'] / result['attempted']:.4f})"
    ]
    samples = result.get("samples", {})

    def figure(metric: str, value: float) -> str:
        line = f"  {name:8} {metric:30} {value:14.6g} {_unit_of(metric)}"
        if metric in samples:
            q1, _, q3 = samples[metric]
            line += f"   (q1 {q1:.6g}, q3 {q3:.6g} over the repeats)"
        return line

    lines += [figure(m, v) for m, v in result["metrics"].items()]
    lines.append(f"  {name:8} (not in BENCHMARK.json:)")
    lines += [figure(m, v) for m, v in result["other_figures"].items()]
    for phase, (total, outside) in result.get("outside_spans", {}).items():
        lines.append(
            f"  {name:8} traced {phase} {total:.3f} s, of which "
            f"{outside:.3f} s outside every span"
        )
    for problem in result["problems"]:
        lines.append(f"  {name:8} FAIL {problem}")
    check = "PASS" if not result["problems"] and not result["failed"] else "FAIL"
    lines.append(f"  {name:8} fingerprint check {check}")
    return lines


def summary_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for result in results:
        for metric, value in result["metrics"].items():
            key = f"{result['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": _unit_of(metric)}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", help="also write the results to this file")
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="record the seed-0 fingerprints in expected.json and exit",
    )
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_expected:
        write_expected()
        return 0
    if args.worker:
        print(json.dumps(work(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    # one workload runs in the mode asked for; all four add the traced
    # runs to the untraced ones when --trace is given
    modes = [bool(args.trace)] if args.workload else [False] + [True] * args.trace
    results = []
    try:
        for name in names:
            for trace in modes:
                result = spawn(name, args.seed, args.seconds, trace)
                print("\n".join(report(result)), flush=True)
                results.append(result)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {
                    "host": host(),
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "results": results,
                },
                indent=1,
            )
            + "\n"
        )
    print(summary_line(results, prefix=args.workload is None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
