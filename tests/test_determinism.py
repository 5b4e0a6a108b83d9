"""The run-twice determinism gate.

Green paths re-run the shipped workloads and demand identical digest
chains; the red path injects real nondeterminism (an allocation policy
consulting the *global* unseeded RNG) and demands the gate catch it and
name the first divergent step.
"""

from __future__ import annotations

import random

import pytest

from repro.chaos.harness import WORKLOADS
from repro.errors import VerificationError
from repro.managers.base import GenericSegmentManager
from repro.verify.cli import main
from repro.verify.determinism import run_twice
from repro.verify.schedule import NAMED_SCHEDULES

pytestmark = pytest.mark.verify


class TestGreenPaths:
    def test_figure2_chaos_workload_is_deterministic(self):
        """The acceptance configuration: figure2, 4 nodes, chaos seed 7."""
        report = run_twice("figure2", nodes=4, chaos_seed=7)
        assert report.ok, report.render()
        a, b = report.runs
        assert a.chain.head == b.chain.head != ""
        assert len(a.chain.steps) == len(b.chain.steps) > 1

    def test_schedule_workload_is_deterministic(self):
        schedule = NAMED_SCHEDULES["table1"]()
        report = run_twice(schedule, nodes=2, chaos_seed=11)
        assert report.ok, report.render()

    def test_render_mentions_pass(self):
        report = run_twice("figure2")
        assert "PASS" in report.render()

    def test_unknown_workload_is_a_verification_error(self):
        with pytest.raises(VerificationError, match="unknown workload"):
            run_twice("no-such-workload")


class _ShuffledSlotManager(GenericSegmentManager):
    """Deliberately broken: allocation order depends on the global RNG."""

    def allocate_slot(self) -> int:
        random.shuffle(self._free_slots)
        return super().allocate_slot()


def _nondeterministic_workload(system, checker) -> int:
    manager = _ShuffledSlotManager(
        system.kernel, system.spcm, "shuffled", initial_frames=32
    )
    segment = system.kernel.create_segment(
        16, name="nd-space", manager=manager
    )
    for vpn in range(16):
        system.kernel.reference(segment, vpn, write=True)
    checker.check_all()
    return 16


class TestInjectedNondeterminism:
    def test_unseeded_rng_in_manager_is_caught(self):
        """Run A advances the global RNG, so run B allocates different
        frames; the gate must report the first step whose pfn differs."""
        random.seed(1234)  # a fixed *starting* point; the bug is that
        # run A's shuffles advance this shared state before run B starts
        report = run_twice(_nondeterministic_workload)
        assert not report.ok
        div = report.divergence
        assert div is not None
        assert div.label_a.startswith("fault:")
        assert div.label_a == div.label_b  # same step, different state
        assert "first divergent step" in div.describe()
        assert str(div.step) in report.render()
        # divergence points into the chain, not past its end
        assert div.step < len(report.runs[0].chain.steps)


def _frame_popping_workload(system, checker) -> int:
    """Deliberately broken: a frame leaves its segment outside
    MigratePages, identically in both runs."""
    kernel = system.kernel
    segment = kernel.create_segment(
        4, name="pop-space", manager=system.default_manager
    )
    kernel.reference(segment, 0, write=True)
    segment.pages.pop(0)
    checker.check_all()
    return 1


class TestInvariantViolations:
    """Two runs that break the same invariant at the same step have
    identical chains, and must still fail the gate."""

    def test_identical_violations_fail_the_gate(self):
        report = run_twice(_frame_popping_workload)
        assert report.divergence is None
        assert [run.error_type for run in report.runs] == [
            "InvariantViolationError"
        ] * 2
        assert not report.ok
        rendered = report.render()
        assert "FAIL" in rendered and "PASS" not in rendered
        assert "[frames]" in rendered

    def test_cli_exits_1_on_a_violation(self, monkeypatch, capsys):
        monkeypatch.setitem(WORKLOADS, "pop-frame", _frame_popping_workload)
        assert main(["determinism", "--workload", "pop-frame"]) == 1
        assert "[frames]" in capsys.readouterr().out

    def test_closing_sweep_catches_an_unchecked_corruption(self):
        def silent(system, checker) -> int:
            segment = system.kernel.create_segment(
                4, name="silent", manager=system.default_manager
            )
            system.kernel.reference(segment, 0, write=True)
            segment.pages.pop(0)
            return 1

        report = run_twice(silent)
        assert [run.error_type for run in report.runs] == [None, None]
        assert not report.ok
        assert "[frames]" in report.failure
