"""Outside-in per-layer spans for the wall-clock benchmark.

:func:`traced` replaces the public entry points of each layer (listed in
:data:`TARGETS`) with timing wrappers at class level, and puts every
original back on exit.  Nothing under ``src/`` changes.  A wrapped call
is one span: its layer, its phase (``setup`` or ``drive``), its host
start and end, the span that called it, and the operation it ran in.
A layer's self time is its spans' durations minus the time their child
spans cover, so the self times of all layers sum exactly to the time
spent inside outermost spans; the rest of a drive is the benchmark's own
loop and unwrapped library code.

Generator functions (the DES processes and lock acquisitions the
engine resumes) return a proxy that times each resume as a span, so a
transaction's work is charged to ``dbms`` and the engine loop around it
to ``sim``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("core", "hw", "managers", "spcm", "sim", "dbms", "serve")
PHASES = ("setup", "drive")
SETUP, DRIVE = 0, 1

#: layer -> ``(module, class or None for module functions, names)``;
#: ``"*"`` names every public function of the class.  Subclasses that
#: override a listed method are wrapped too.
TARGETS = {
    "core": [
        (
            "repro.core.kernel",
            "Kernel",
            (
                "__init__",
                "reference",
                "dispatch_fault",
                "migrate_pages",
                "migrate_pages_batch",
                "modify_page_flags",
            ),
        ),
        ("repro.core.uio", "UIO", ("read", "write")),
        ("repro.core.uio", "FileServer", ("fetch_page", "store_page")),
        ("repro.core.segment", "Segment", ("resolve",)),
    ],
    "hw": [
        ("repro.hw.phys_mem", "PhysicalMemory", ("__init__",)),
        ("repro.hw.phys_mem", "PageFrame", ("read", "write")),
        ("repro.hw.tlb", "TLB", ("lookup", "insert")),
        ("repro.hw.page_table", "GlobalHashPageTable", ("lookup", "insert")),
        ("repro.hw.disk", "Disk", ("read_range", "write_range")),
        ("repro.hw.costs", "CostMeter", ("charge",)),
    ],
    "managers": [
        (
            "repro.managers.base",
            "GenericSegmentManager",
            (
                "handle_fault",
                "allocate_slot",
                "allocate_run",
                "reclaim_pages",
                "select_victims",
                "fill_page",
                "writeback",
            ),
        ),
    ],
    "spcm": [
        (
            "repro.spcm.spcm",
            "SystemPageCacheManager",
            ("__init__", "request_frames", "return_frames"),
        ),
        ("repro.spcm.freelist", "NodeBucketedFreeList", ("take", "append")),
        ("repro.spcm.arbiter", "GlobalArbiter", ("rebalance_drams",)),
    ],
    "sim": [("repro.sim.engine", "Engine", ("run", "schedule", "spawn"))],
    "dbms": [
        ("repro.dbms.locking", "LockManager", ("acquire", "release_all")),
        ("repro.dbms.buffer", "SegmentBackedIndex", ("*",)),
        (
            "repro.dbms.transactions",
            None,
            ("debit_credit", "join_transaction"),
        ),
    ],
    "serve": [
        ("repro.serve.tenants", "ServingSystem", ("submit", "flush")),
        ("repro.serve.admission", "AdmissionController", ("try_admit",)),
        ("repro.serve.scheduler", "BatchScheduler", ("flush",)),
    ],
}

#: spans kept per phase of a repeat for ``spans.jsonl``; the per-layer
#: totals count every span whether or not it is kept
SPAN_CAP = 20_000


class Recorder:
    """Per-layer self time and call counts, plus the first spans."""

    def __init__(self) -> None:
        #: the phase being timed; ``None`` records nothing
        self.phase: int | None = None
        #: the drive's op clock (its op count is each span's op id)
        self.clock = None
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (one repeat per reset)."""
        self.self_ns = [[0] * len(LAYERS) for _ in PHASES]
        self.calls = [[0] * len(LAYERS) for _ in PHASES]
        self.root_ns = [0, 0]
        self.fn_calls: list[dict[str, int]] = [{} for _ in PHASES]
        self.spans: list = []
        self.kept = [0, 0]
        self.origin_ns = perf_counter_ns()
        self._stack: list[list] = []

    def call(self, layer: int, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` as one span of ``layer``."""
        phase = self.phase
        if phase is None:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1] if stack else None
        spans = self.spans
        index = op = -1
        if self.kept[phase] < SPAN_CAP:
            self.kept[phase] += 1
            index = len(spans)
            spans.append(None)
            if self.clock is not None:
                op = self.clock.ops
        frame = [0, layer, index]
        stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            duration = t1 - t0
            self.self_ns[phase][layer] += duration - frame[0]
            if parent is None:
                self.root_ns[phase] += duration
            else:
                parent[0] += duration
            if parent is None or parent[1] != layer:
                self.calls[phase][layer] += 1
            counts = self.fn_calls[phase]
            counts[name] = counts.get(name, 0) + 1
            if index >= 0:
                spans[index] = (
                    name,
                    layer,
                    phase,
                    t0 - self.origin_ns,
                    t1 - self.origin_ns,
                    parent[2] if parent is not None else -1,
                    op,
                )

    def layer_totals(self) -> dict:
        """Per-layer seconds and calls of the current repeat."""
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_ns[DRIVE][i] / 1e9
            out[f"{layer}.setup_self_s"] = self.self_ns[SETUP][i] / 1e9
            out[f"{layer}.calls"] = self.calls[DRIVE][i]
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines; returns how many.

        ``op`` is the number of operations the drive had completed when
        the span began; ``parent`` is the id of the calling span, or -1.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                name, layer, phase, start, end, parent, op = span
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "layer": LAYERS[layer],
                            "phase": PHASES[phase],
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)


class _TimedGenerator:
    """A generator proxy whose every resume is one span."""

    __slots__ = ("_gen", "_recorder", "_layer", "_name")

    def __init__(self, gen, recorder: Recorder, layer: int, name: str) -> None:
        self._gen = gen
        self._recorder = recorder
        self._layer = layer
        self._name = name

    @property
    def __name__(self) -> str:
        return self._gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._recorder.call(
            self._layer, self._name, self._gen.send, (value,), {}
        )

    def throw(self, *args):
        return self._recorder.call(
            self._layer, self._name, self._gen.throw, args, {}
        )

    def close(self) -> None:
        self._gen.close()


def _wrap(fn, recorder: Recorder, layer: int, name: str):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def start(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if recorder.phase is None:
                return gen
            return _TimedGenerator(gen, recorder, layer, name)

        return start

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(layer, name, fn, args, kwargs)

    return wrapper


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(s for s in _subclasses(sub) if s not in found)
    return found


def targets() -> list[tuple[object, str, int, str]]:
    """``(owner, attribute, layer index, span name)`` for every callable
    the traced run replaces."""
    # every manager subclass must exist before overrides are looked up
    managers = importlib.import_module("repro.managers")
    for info in pkgutil.iter_modules(managers.__path__):
        importlib.import_module(f"repro.managers.{info.name}")
    found = []
    for layer, entries in TARGETS.items():
        index = LAYERS.index(layer)
        for module_name, class_name, names in entries:
            module = importlib.import_module(module_name)
            if class_name is None:
                for attr in names:
                    fn = getattr(module, attr)
                    # from-imports bind the function in other modules too
                    for mod_name, mod in sorted(sys.modules.items()):
                        if (
                            mod_name.split(".")[0] == "repro"
                            and getattr(mod, attr, None) is fn
                        ):
                            found.append((mod, attr, index, attr))
                continue
            for owner in _subclasses(getattr(module, class_name)):
                attrs = names
                if names == ("*",):
                    attrs = tuple(
                        attr
                        for attr, value in vars(owner).items()
                        if not attr.startswith("_") and inspect.isfunction(value)
                    )
                for attr in attrs:
                    if inspect.isfunction(vars(owner).get(attr)):
                        found.append(
                            (owner, attr, index, f"{owner.__name__}.{attr}")
                        )
    return found


@contextmanager
def traced(recorder: Recorder):
    """Wrap every target for the duration of the ``with`` block."""
    originals = []
    try:
        for owner, attr, layer, name in targets():
            fn = vars(owner)[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, _wrap(fn, recorder, layer, name))
        yield recorder
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
