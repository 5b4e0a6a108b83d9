"""A seeded, coverage-guided workload fuzzer over the differential oracle.

``python -m repro verify fuzz`` composes random workload schedules ---
random region layouts, operation mixes, manager kinds, and NUMA node
counts --- and subjects each to two checks:

* the **differential oracle** (:func:`repro.verify.oracle.check_equivalence`):
  V++, ULTRIX, and the retrofit must agree on the contract;
* the **determinism gate** (:func:`repro.verify.determinism.run_twice`)
  through the V++ executor, under a chaos plan seeded from the schedule
  (disk errors; manager faults when the schedule grows a victim).

Coverage guidance is deliberately simple: each run yields a signature
(manager kind, node count, bucketed fault count, whether appends /
file traffic / re-reads occurred); the operation-mix weights grow for
kinds that recently produced unseen signatures, so the stream drifts
toward unexplored behavior instead of resampling one basin.

A failing schedule is **shrunk** before it is reported: greedy
delta-debugging over the op list (halves, then quarters, ... then
single ops), then unused trailing regions are dropped --- always
re-checking that the reduced schedule still fails the same check.  The
minimized schedule is written to the corpus directory as JSON (with the
current ``DIGEST_VERSION``), ready for ``verify replay`` and the tier-1
corpus-replay test.

Everything is derived from one seed: same seed, same schedules, same
verdicts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import ReproError
from repro.sim.rng import RandomSource
from repro.verify.determinism import run_twice
from repro.verify.oracle import check_equivalence
from repro.verify.schedule import (
    ANON,
    FILE,
    MANAGER_KINDS,
    Region,
    WorkloadSchedule,
)

#: op kinds the generator mixes (initial weights; guidance adjusts them)
_OP_KINDS = ("touch_read", "touch_write", "retouch", "file_read", "file_write")
_BASE_WEIGHTS = {kind: 1.0 for kind in _OP_KINDS}

#: node-count choices (None = flat UMA machine)
_NODE_CHOICES = (None, 2, 4)

MAX_REGIONS = 4
MAX_PAGES_PER_REGION = 12
MAX_OPS = 48


def generate_schedule(rng: RandomSource, index: int, weights=None):
    """One random (but fully seed-determined) workload schedule."""
    weights = dict(weights or _BASE_WEIGHTS)
    n_regions = rng.randint(1, MAX_REGIONS)
    regions = []
    for i in range(n_regions):
        kind = FILE if rng.bernoulli(0.35) and i > 0 else ANON
        regions.append(
            Region(
                name=f"fz{i}",
                kind=kind,
                pages=rng.randint(1, MAX_PAGES_PER_REGION),
                initial_k=(rng.randint(0, 3) if rng.bernoulli(0.7) else -1),
            )
        )
    anon = [i for i, r in enumerate(regions) if r.kind == ANON]
    files = [i for i, r in enumerate(regions) if r.kind == FILE]
    ops: list[tuple] = []
    touched: list[tuple[int, int]] = []
    kinds = list(_OP_KINDS)
    kind_weights = [weights[k] for k in kinds]
    for _ in range(rng.randint(4, MAX_OPS)):
        kind = rng.weighted_choice(kinds, kind_weights)
        if kind.startswith("file") and not files:
            kind = "touch_write"
        if kind == "retouch" and not touched:
            kind = "touch_read"
        if kind in ("touch_read", "touch_write"):
            region = rng.choice(anon) if anon else None
            if region is None:
                continue
            page = rng.randint(0, regions[region].pages - 1)
            write = kind == "touch_write"
            ops.append(
                ("touch", region, page, int(write), rng.randint(0, 9))
            )
            touched.append((region, page))
        elif kind == "retouch":
            region, page = rng.choice(touched)
            write = rng.bernoulli(0.5)
            ops.append(
                ("touch", region, page, int(write), rng.randint(0, 9))
            )
        elif kind == "file_read":
            region = rng.choice(files)
            ops.append(("file_read", region, rng.randint(0, regions[region].pages - 1)))
        elif kind == "file_write":
            region = rng.choice(files)
            ops.append(
                ("file_write", region, rng.randint(0, regions[region].pages - 1),
                 rng.randint(0, 9))
            )
    if not ops:
        ops.append(("touch", anon[0] if anon else 0, 0, 1, 1))
    return WorkloadSchedule(
        name=f"fuzz-{index}",
        seed=rng.randint(0, 2**31),
        nodes=rng.choice(_NODE_CHOICES),
        manager=rng.choice(MANAGER_KINDS),
        regions=regions,
        ops=ops,
    ).validate()


# ---------------------------------------------------------------------------
# checks and coverage
# ---------------------------------------------------------------------------


def _check_schedule(schedule: WorkloadSchedule) -> str | None:
    """Run both gates; returns a failure description or None.

    An executor raising a typed :class:`~repro.errors.ReproError` is a
    finding too (the generator is constrained to the supported envelope,
    so a typed failure means the envelope leaks).
    """
    try:
        report = check_equivalence(schedule)
    except ReproError as exc:
        return f"oracle raised {type(exc).__name__}: {exc}"
    if not report.ok:
        return "oracle: " + report.mismatches[0].describe()
    try:
        det = run_twice(schedule, chaos_seed=schedule.seed % 1000)
    except ReproError as exc:
        return f"determinism gate raised {type(exc).__name__}: {exc}"
    if not det.ok:
        return "determinism: " + det.failure
    return None


def _signature(schedule: WorkloadSchedule) -> tuple:
    """The coverage bucket one schedule exercises."""
    kinds = {op[0] for op in schedule.ops}
    rewrites = len(schedule.ops) - len(
        {op[:3] for op in schedule.ops}
    )
    return (
        schedule.manager,
        schedule.nodes,
        "file" in {r.kind for r in schedule.regions},
        "file_write" in kinds,
        "file_read" in kinds,
        min(schedule.anon_pages_touched() // 8, 3),
        min(rewrites // 4, 3),
    )


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------


def shrink_schedule(schedule: WorkloadSchedule, still_fails) -> WorkloadSchedule:
    """Greedy delta-debug: smallest op list (then region list) that still
    fails ``still_fails(schedule) -> bool``."""
    best = schedule
    chunk = max(1, len(best.ops) // 2)
    while chunk >= 1:
        i = 0
        progressed = False
        while i < len(best.ops):
            trial_ops = best.ops[:i] + best.ops[i + chunk:]
            if trial_ops:
                trial = replace(best, ops=list(trial_ops))
                try:
                    trial.validate()
                    failed = still_fails(trial)
                except ReproError:
                    failed = False  # changed the failure; keep the original
                if failed:
                    best = trial
                    progressed = True
                    continue  # same index now names the next chunk
            i += chunk
        if chunk == 1 and not progressed:
            break
        chunk = max(1, chunk // 2) if chunk > 1 else 0
    # drop trailing regions nothing references (indices must not shift:
    # fill patterns are keyed by region index)
    used = {int(op[1]) for op in best.ops}
    keep = max(used) + 1 if used else 1
    if keep < len(best.regions):
        trial = replace(best, regions=best.regions[:keep])
        try:
            trial.validate()
            if still_fails(trial):
                best = trial
        except ReproError:
            pass
    return best


# ---------------------------------------------------------------------------
# the campaign
# ---------------------------------------------------------------------------


@dataclass
class FuzzFailure:
    """One minimized finding."""

    schedule: WorkloadSchedule
    reason: str
    path: str | None = None


@dataclass
class FuzzReport:
    """What one fuzzing campaign did."""

    seed: int
    schedules_run: int = 0
    coverage: set = field(default_factory=set)
    failures: list[FuzzFailure] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        """A human-readable campaign summary with any minimized repros."""
        lines = [
            f"fuzz: seed={self.seed} schedules={self.schedules_run} "
            f"coverage_buckets={len(self.coverage)} "
            f"elapsed={self.elapsed_s:.1f}s"
        ]
        if self.ok:
            lines.append("  PASS: no schedule broke the oracle or the gate")
        else:
            lines.append(f"  FAIL: {len(self.failures)} minimized finding(s)")
            for failure in self.failures:
                where = f" -> {failure.path}" if failure.path else ""
                lines.append(
                    f"    {failure.schedule.name} "
                    f"({len(failure.schedule.ops)} ops): "
                    f"{failure.reason}{where}"
                )
        return "\n".join(lines)


def fuzz(
    n_schedules: int = 50,
    budget_s: float = 60.0,
    seed: int = 0,
    corpus_dir: str | None = None,
) -> FuzzReport:
    """Run a seeded campaign; minimized failures land in ``corpus_dir``.

    Stops at ``n_schedules`` or when ``budget_s`` wall seconds elapse,
    whichever is first (the schedule *stream* is seed-determined either
    way; a budget stop just truncates it).
    """
    rng = RandomSource(seed).substream("fuzz")
    report = FuzzReport(seed=seed)
    weights = dict(_BASE_WEIGHTS)
    started = time.monotonic()
    for index in range(n_schedules):
        if time.monotonic() - started > budget_s:
            break
        schedule = generate_schedule(rng, index, weights)
        report.schedules_run += 1
        sig = _signature(schedule)
        if sig not in report.coverage:
            report.coverage.add(sig)
            # reward the kinds this schedule used: drift toward novelty
            for op in schedule.ops:
                if op[0] == "touch":
                    key = "touch_write" if op[3] else "touch_read"
                else:
                    key = op[0]
                weights[key] = min(weights[key] * 1.05, 8.0)
        else:
            for key in weights:
                weights[key] = max(1.0, weights[key] * 0.97)
        reason = _check_schedule(schedule)
        if reason is None:
            continue
        minimized = shrink_schedule(
            schedule, lambda s: _check_schedule(s) is not None
        )
        failure = FuzzFailure(schedule=minimized, reason=reason)
        if corpus_dir is not None:
            directory = Path(corpus_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{minimized.name}-seed{seed}.json"
            minimized.save(str(path))
            failure.path = str(path)
        report.failures.append(failure)
    report.elapsed_s = time.monotonic() - started
    return report
