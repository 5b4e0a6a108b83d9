"""``python -m repro bench micro``: the fault-path microbenchmark.

The paper's viability argument rests on fault-service primitives being
cheap; this driver keeps the *simulator's* fault path honest the same
way.  It drives the Figure-2 workload through the V++ executor and
measures three things the regression gate can hold on to:

* **throughput** --- wall-clock faults/second over repeated drives of a
  freshly booted system (system boot is excluded from the timer);
* **allocation pressure** --- net tracemalloc blocks and peak traced
  memory across one drive, normalized per fault;
* **service cost** --- the simulated microseconds the cost meter charges
  per fault, reported as p50/p99/mean over every fault in the drive.

Wall-clock throughput is machine-dependent, so the regression gate
(:mod:`repro.analysis.regression`) applies a widened tolerance to it;
the allocation and simulated-cost metrics are deterministic and gate
tightly.  Results are written as ``BENCH_fault_path_micro.json`` with
the standard ``schema_version`` + ``meta`` run-identity header.
"""

from __future__ import annotations

import gc
import json
import time
import tracemalloc

from repro.verify.oracle import apply_vpp_op, build_vpp_system, drive_vpp
from repro.verify.schedule import figure2_schedule

#: drive repetitions for the throughput phase
DEFAULT_REPEATS = 30

#: instrumented drives pooled for the service-cost percentiles
COST_DRIVES = 5

DEFAULT_OUTPUT = "BENCH_fault_path_micro.json"


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    index = round(q * (len(sorted_values) - 1))
    return sorted_values[index]


def measure_throughput(repeats: int = DEFAULT_REPEATS) -> dict:
    """Wall-clock faults/second over ``repeats`` fresh-system drives.

    Boot cost is excluded: each repeat builds the system outside the
    timed region, then times only the drive (the fault path proper).
    """
    schedule = figure2_schedule()
    faults = 0
    drive_s = 0.0
    build_s = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        system, _manager, segments = build_vpp_system(schedule)
        t1 = time.perf_counter()
        drive_vpp(system, schedule, segments)
        t2 = time.perf_counter()
        build_s += t1 - t0
        drive_s += t2 - t1
        faults += system.kernel.stats.faults
    return {
        "repeats": repeats,
        "faults": faults,
        "drive_wall_s": round(drive_s, 4),
        "build_wall_s": round(build_s, 4),
        "faults_per_sec": round(faults / drive_s, 1) if drive_s else 0.0,
    }


def measure_allocations() -> dict:
    """Net tracemalloc blocks / peak traced memory across one drive.

    tracemalloc sees live blocks, so ``net_blocks`` counts what a drive
    *retains* (translations, page contents, per-fault records that
    outlive the fault) and ``peak_kib`` bounds the transient high-water
    mark; both fall when per-fault records stop being allocated.

    The figures must not depend on what ran before in the process: an
    untimed drive first fills lazy caches (``fill_bytes``' lru_cache),
    the cyclic collector is flushed, then held off for the traced drive,
    so a collection of older garbage cannot land inside it, and the
    snapshots' own blocks are left out of the count.
    """
    schedule = figure2_schedule()
    warm_system, _manager, warm_segments = build_vpp_system(schedule)
    drive_vpp(warm_system, schedule, warm_segments)
    system, _manager, segments = build_vpp_system(schedule)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        current0, _ = tracemalloc.get_traced_memory()
        drive_vpp(system, schedule, segments)
        _, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        if gc_was_enabled:
            gc.enable()
    own = [tracemalloc.Filter(False, tracemalloc.__file__)]
    stats = after.filter_traces(own).compare_to(
        before.filter_traces(own), "filename"
    )
    net_blocks = sum(s.count_diff for s in stats)
    net_bytes = sum(s.size_diff for s in stats)
    faults = system.kernel.stats.faults
    return {
        "faults": faults,
        "net_blocks": net_blocks,
        "net_kib": round(net_bytes / 1024.0, 2),
        "blocks_per_fault": round(net_blocks / faults, 2) if faults else 0.0,
        "peak_kib": round(max(peak - current0, 0) / 1024.0, 2),
    }


def measure_service_costs(drives: int = COST_DRIVES) -> dict:
    """Simulated cost-meter microseconds per fault, p50/p99/mean.

    Ops are applied one at a time; each op's meter delta is divided
    over the faults it raised (file ops can fault more than once).
    Purely simulated time: deterministic across machines.
    """
    schedule = figure2_schedule()
    costs: list[float] = []
    for _ in range(drives):
        system, _manager, segments = build_vpp_system(schedule)
        kernel = system.kernel
        for op in schedule.ops:
            before_us = kernel.meter.total_us
            before_faults = kernel.stats.faults
            apply_vpp_op(system, schedule, segments, op)
            raised = kernel.stats.faults - before_faults
            if raised:
                costs.append(
                    (kernel.meter.total_us - before_us) / raised
                )
    costs.sort()
    return {
        "samples": len(costs),
        "p50": round(_percentile(costs, 0.50), 2),
        "p99": round(_percentile(costs, 0.99), 2),
        "mean": round(sum(costs) / len(costs), 2) if costs else 0.0,
    }


def run_micro(repeats: int = DEFAULT_REPEATS, quick: bool = False) -> dict:
    """Run all three phases; returns the JSON-ready report dict."""
    if quick:
        repeats = max(3, repeats // 10)
    return {
        "benchmark": "fault_path_micro",
        # run-identity header: the bench differ refuses to compare
        # reports whose schema_version or meta disagree
        "schema_version": 1,
        "meta": {
            "workload": "figure2",
            "cost_drives": COST_DRIVES,
            "quick": quick,
        },
        "throughput": measure_throughput(repeats),
        "allocations": measure_allocations(),
        "service_cost_us": measure_service_costs(),
    }


def write_report(path: str = DEFAULT_OUTPUT, **kwargs) -> dict:
    """Run the microbenchmark and write the JSON report."""
    report = run_micro(**kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI for ``python -m repro bench micro``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro bench micro",
        description="fault-path microbenchmark over the figure2 workload",
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=DEFAULT_REPEATS,
        help="timed drive repetitions for the throughput phase",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shortened run (marked in meta; not comparable to full runs)",
    )
    args = parser.parse_args(argv)
    report = write_report(
        args.output, repeats=args.repeats, quick=args.quick
    )
    thr = report["throughput"]
    alloc = report["allocations"]
    cost = report["service_cost_us"]
    print(
        f"fault-path micro (figure2, {thr['repeats']} drives):\n"
        f"  throughput   {thr['faults_per_sec']:>12.1f} faults/s "
        f"({thr['faults']} faults in {thr['drive_wall_s']:.3f}s)\n"
        f"  allocations  {alloc['blocks_per_fault']:>12.2f} blocks/fault "
        f"(peak {alloc['peak_kib']:.1f} KiB)\n"
        f"  service cost {cost['p50']:>12.2f} us p50, "
        f"{cost['p99']:.2f} us p99 ({cost['samples']} faults)"
    )
    print(f"wrote {args.output}")
    return 0
