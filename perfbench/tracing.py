"""Spans around the program's layers, installed from outside.

``Tracer.install`` replaces public callables of each layer with
wrappers that record a span (name, layer, start, end, parent) in
memory; ``Tracer.remove`` puts the originals back, so untraced runs
execute the unmodified program.  ``Counter.inc`` is only counted:
it runs millions of times per iteration, too often for a span each.
"""

from __future__ import annotations

import importlib
import json
import pickle
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (layer, module, class or None for a module function, attribute)
SPAN_TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("scenarios.run", "repro.scenarios.run", None, "run_on_des"),
    ("scenarios.run", "repro.scenarios.run", None, "run_on_job"),
    ("scenarios.run", "repro.scenarios.run", None, "run_on_perfmodel"),
    ("job.executor", "repro.job.executor", "JobAdaptationRunner", "step_period"),
    ("des.adaptation", "repro.des.adaptation", "DesAdaptationRunner", "run"),
    ("des.adaptation", "repro.des.adaptation", "DesAdaptationRunner", "step_period"),
    ("des.adaptation", "repro.des.adaptation", "DesAdaptationRunner", "measure"),
    ("des.engine", "repro.des.engine", "DesEngine", "run"),
    ("bench.cache", "repro.bench.cache", None, "lookup"),
    ("bench.cache", "repro.bench.cache", None, "store"),
    ("bench.cache", "repro.bench.cache", None, "graph_fingerprint"),
    ("bench.cache", "repro.bench.cache", None, "config_fingerprint"),
    ("bench.cache", "repro.bench.cache", None, "machine_fingerprint"),
    ("core.coordinator", "repro.core.coordinator", "MultiLevelCoordinator", "step"),
    ("perfmodel", "repro.perfmodel.throughput", "PerformanceModel", "sink_throughput"),
    ("perfmodel", "repro.perfmodel.throughput", "PerformanceModel", "estimate"),
    ("perfmodel", "repro.perfmodel.throughput", "PerformanceModel", "decomposition"),
    ("runtime.executor", "repro.runtime.executor", "AdaptationExecutor", "run"),
)

# The worker pool runs its PEs outside the parent's wrappers, so the
# pool is traced in a run of its own with only these (cheap) spans.
POOL_TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("scenarios.run", "repro.scenarios.run", None, "run_on_des"),
    ("scenarios.run", "repro.scenarios.run", None, "run_on_job"),
    ("job.executor", "repro.job.executor", "JobAdaptationRunner", "step_period"),
    ("runtime.pool", "repro.job.parallel", "JobWorkerSession", "__init__"),
    ("runtime.pool", "repro.job.parallel", "JobWorkerSession", "begin"),
    ("runtime.pool", "repro.job.parallel", "JobWorkerSession", "submit_step"),
    ("runtime.pool", "repro.job.parallel", "JobWorkerSession", "collect_step"),
    ("runtime.pool", "repro.job.parallel", "JobWorkerSession", "finish"),
    ("runtime.pool", "repro.job.parallel", "JobWorkerSession", "close"),
)

LAYERS = (
    "scenarios.run",
    "job.executor",
    "runtime.pool",
    "des.adaptation",
    "des.engine",
    "bench.cache",
    "core.coordinator",
    "perfmodel",
    "runtime.executor",
)


def _engine_before(args):
    return args[0].sim.events_processed


def _engine_after(args, result, before):
    events = args[0].sim.events_processed - before
    return (events, result.sink_tuples, result.deadlocked)


def _report_bytes(args, result, _before):
    return len(pickle.dumps(result))


# (class, attribute) -> (before, after) hooks whose output is kept on
# the span; they run outside the span's timed interval.
HOOKS: Dict[Tuple[Optional[str], str], Tuple[Optional[Callable], Callable]] = {
    ("DesEngine", "run"): (_engine_before, _engine_after),
    ("JobWorkerSession", "collect_step"): (None, _report_bytes),
}


class Patches:
    """Attribute replacements that can be undone, last in first out."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _resolve(module: str, cls: Optional[str]):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """In-memory span recorder.

    A span is ``[name, layer, start, end, parent, data]`` with ``parent``
    the index of the enclosing span (-1 at the root).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counter_incs = 0
        self._stack: List[int] = []
        self._patches = Patches()

    def _wrap(self, layer: str, name: str, fn: Callable, hooks) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        before, after = hooks if hooks else (None, None)

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                span[2] = start
                stack.pop()
            if after:
                span[5] = after(args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets: Sequence[Tuple[str, str, Optional[str], str]],
                count_incs: bool = True) -> None:
        for layer, module, cls, attr in targets:
            owner = _resolve(module, cls)
            name = f"{cls}.{attr}" if cls else f"{module.rsplit('.', 1)[-1]}.{attr}"
            hooks = HOOKS.get((cls, attr))
            self._patches.replace(
                owner, attr,
                lambda fn, layer=layer, name=name, hooks=hooks: self._wrap(
                    layer, name, fn, hooks
                ),
            )
        if count_incs:
            from repro.obs.registry import Counter

            def make_inc(fn):
                def inc(counter, amount=1.0):
                    self.counter_incs += 1
                    return fn(counter, amount)

                return inc

            self._patches.replace(Counter, "inc", make_inc)

    def remove(self) -> None:
        self._patches.undo()

    # ------------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def data(self, name: str) -> List[object]:
        return [s[5] for s in self.spans if s[0] == name]

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        out: Dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[1]] += (s[3] - s[2]) - child[i]
        return dict(out)

    def root_time(self) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[4] < 0)

    def write(self, path) -> None:
        """Write spans as JSON lines: name, layer, start, end, parent."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[0], "layer": s[1], "start": s[2],
                    "end": s[3], "parent": s[4],
                }) + "\n")


class DeadlockWatch:
    """Flags engine runs that wedged, for runs traced or not."""

    def __init__(self) -> None:
        self.deadlocks = 0
        self._patches = Patches()

    def install(self) -> None:
        from repro.des.engine import DesEngine

        def make(fn):
            def run(engine, *args, **kwargs):
                result = fn(engine, *args, **kwargs)
                if result.deadlocked:
                    self.deadlocks += 1
                return result

            return run

        self._patches.replace(DesEngine, "run", make)

    def remove(self) -> None:
        self._patches.undo()
