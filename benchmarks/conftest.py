"""Benchmark harness options.

``--trace`` installs a process-global :class:`repro.obs.Tracer` for each
benchmark test; every system booted through :func:`repro.build_system`
picks it up.  At teardown the trace is written as JSONL (one file per
test, named after the test id) under ``--trace-dir`` (default:
``traces/``).

pytest core already defines ``--trace`` (drop into pdb at test start).
For benchmark runs that debugging behavior is never wanted, so this
conftest repurposes the flag: the value is stashed for the tracing
fixture and the pdb hook is disarmed.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.obs.export import write_jsonl
from repro.obs.trace import NULL_TRACER, Tracer, set_global_tracer


def pytest_addoption(parser: pytest.Parser) -> None:
    group = parser.getgroup("repro-obs")
    group.addoption(
        "--trace-dir",
        default="traces",
        help="directory for --trace JSONL dumps (default: traces/)",
    )


def pytest_configure(config: pytest.Config) -> None:
    if config.getoption("trace", default=False):
        config._repro_obs_trace = True  # type: ignore[attr-defined]
        # keep pytest's pdb-on-start behavior out of the way, whichever
        # plugin-configure order we got
        config.option.trace = False
        pdbtrace = config.pluginmanager.get_plugin("pdbtrace")
        if pdbtrace is not None:
            config.pluginmanager.unregister(pdbtrace)


@pytest.fixture(autouse=True)
def _obs_trace(request: pytest.FixtureRequest):
    if not getattr(request.config, "_repro_obs_trace", False):
        yield None
        return
    tracer = Tracer()
    set_global_tracer(tracer)
    try:
        yield tracer
    finally:
        set_global_tracer(NULL_TRACER)
        out_dir = Path(request.config.getoption("--trace-dir"))
        out_dir.mkdir(parents=True, exist_ok=True)
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.nodeid)
        write_jsonl(tracer.spans + tracer.events, out_dir / f"{safe}.jsonl")
