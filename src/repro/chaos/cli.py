"""``python -m repro chaos <scenario>``: run seeded fault schedules.

Examples::

    python -m repro chaos --list
    python -m repro chaos figure2-crash
    python -m repro chaos figure2-hang --seed 7 --schedules 20

Each schedule boots a fresh system, injects the scenario's fault plan
(reseeded per schedule), checks every global invariant after every
injected event, and prints a one-line summary; the exit code is non-zero
if any schedule violated an invariant or had a kernel listener raise.
The kernel contains listener exceptions (they are observability, never
control flow) and only counts them, so this exit code is where a broken
SLO, telemetry or recovery listener shows up.
"""

from __future__ import annotations

import argparse
import sys

from repro.chaos.harness import SCENARIOS, run_schedule
from repro.errors import InvariantViolationError


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``chaos`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Run deterministic fault-injection schedules.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        choices=sorted(SCENARIOS),
        help="which fault schedule to run",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed (default 0)"
    )
    parser.add_argument(
        "--schedules",
        type=int,
        default=10,
        help="number of seeded schedules to run (default 10)",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="shard the SPCM over this many NUMA nodes (arms the "
        "per-shard conservation invariant)",
    )
    parser.add_argument(
        "--recovery",
        action="store_true",
        help="install the warm-restart coordinator (recovery journal + "
        "checkpoints); manager crashes replay state in place and only "
        "torn journals or crash loops fall back to cold failover",
    )
    parser.add_argument(
        "--slo",
        action="store_true",
        help="arm the SLO watchdogs (p99 fault latency, failover time, "
        "frame and market conservation drift) and report their alerts",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="FILE",
        help="sample continuous telemetry during each schedule and write "
        "the last schedule's series (plus any SLO alerts) as JSONL",
    )
    parser.add_argument(
        "--telemetry-interval-us",
        type=float,
        default=500.0,
        help="telemetry sampling interval in simulated us (default 500)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)

    if args.list or args.scenario is None:
        width = max(len(name) for name in SCENARIOS)
        for name in sorted(SCENARIOS):
            print(f"{name.ljust(width)}  {SCENARIOS[name].description}")
        return 0

    interval = (
        args.telemetry_interval_us if args.telemetry_out else None
    )
    failures = 0
    last_result = None
    for i in range(args.schedules):
        seed = args.seed + i
        try:
            result = run_schedule(
                args.scenario,
                seed,
                n_nodes=args.nodes,
                slo=args.slo,
                telemetry_interval_us=interval,
                recovery=args.recovery,
            )
        except InvariantViolationError as exc:
            failures += 1
            print(f"seed {seed:>4}: INVARIANT VIOLATION: {exc}")
            continue
        last_result = result
        if result.listener_errors:
            failures += 1
            print(
                f"seed {seed:>4}: LISTENER ERRORS: "
                f"{result.listener_errors} listener call(s) raised"
            )
        outcome = (
            "completed"
            if result.completed
            else f"stopped ({result.error_type}: {result.error})"
        )
        slo_note = f", {result.n_alerts} SLO alert(s)" if args.slo else ""
        recovery_note = (
            f", {result.warm_restarts} warm restart(s), "
            f"{result.cold_fallbacks} cold fallback(s)"
            if result.recovery_stats
            else ""
        )
        print(
            f"seed {seed:>4}: {outcome}; {result.n_injected} injected "
            f"{dict(sorted(result.injected.items()))}, "
            f"{result.failovers} failover(s), "
            f"{result.fallback_resolutions} fallback resolution(s), "
            f"{result.checks_run} invariant sweep(s)"
            + recovery_note
            + slo_note
        )
    if args.telemetry_out and last_result is not None:
        from repro.obs.telemetry import write_jsonl

        if last_result.telemetry is not None:
            write_jsonl(
                last_result.telemetry,
                args.telemetry_out,
                alerts=last_result.alerts,
            )
            print(
                f"wrote {args.telemetry_out} "
                f"({len(last_result.telemetry.samples())} sample(s), "
                f"{last_result.n_alerts} alert(s))"
            )
    if failures:
        print(
            f"{failures}/{args.schedules} schedule(s) violated invariants "
            "or raised in a listener"
        )
        return 1
    print(f"all {args.schedules} schedule(s) invariant-clean")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
