"""Compare two sets of benchmark results, metric by metric.

    python benchmarks/perf/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Each file is one ``run.py --out`` result.  For every (metric, workload)
pair the script prints each side's median and quartiles over its files
and a verdict against the bound ``BENCHMARK.json`` fixes for the metric:

* ``unresolved`` -- the spread of either side is wider than the bound,
  and not every new run reads better than every base run;
* ``worse`` -- the new median is worse than the base by more than the
  bound;
* ``better`` -- the new median is better by more than the base's own
  spread (or every new run beats every base run);
* ``within bound`` -- otherwise.

Per-layer metrics have no bound and are listed without a verdict.  The
exit code is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    """The comparison rule above, for one (metric, workload) pair."""
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    sign = 1.0 if better == "higher" else -1.0
    # positive when the new side is better
    gain = sign * (nmed - bmed) / bmed
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    spread = max(b3 - b1, n3 - n1) / bmed
    if spread > bound:
        return "better" if all_better else "unresolved"
    if gain < -bound:
        return "worse"
    if all_better or gain * bmed > (b3 - b1):
        return "better"
    return "within bound"


def collect(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """(metric, workload) -> one value per result file."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        payload = json.loads(Path(path).read_text())
        for result in payload["results"]:
            for metric, value in result["metrics"].items():
                values.setdefault((metric, result["workload"]), []).append(value)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = collect(args.base), collect(args.new)
    worse = False
    print(
        f"{'metric':30} {'workload':8} {'base median [q1, q3]':>34} "
        f"{'new median [q1, q3]':>34} {'change':>8}  verdict"
    )
    for key in sorted(base.keys() & new.keys()):
        metric, workload = key
        b1, bmed, b3 = quartiles(base[key])
        n1, nmed, n3 = quartiles(new[key])
        change = (nmed - bmed) / bmed if bmed else 0.0
        if metric in bounds:
            m = bounds[metric]
            result = verdict(base[key], new[key], m["bound"], m["better"])
            result += f" (bound {m['bound']:.0%})"
            worse |= result.startswith("worse")
        else:
            result = "-"
        base_col = f"{bmed:.6g} [{b1:.5g}, {b3:.5g}]"
        new_col = f"{nmed:.6g} [{n1:.5g}, {n3:.5g}]"
        print(
            f"{metric:30} {workload:8} {base_col:>34} {new_col:>34} "
            f"{change:>+8.1%}  {result}"
        )
    for key in sorted(base.keys() ^ new.keys()):
        print(f"{key[0]:30} {key[1]:8} present on one side only")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
