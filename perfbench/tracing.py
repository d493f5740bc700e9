"""In-memory span tracer that patches the program's layer entry points.

Nothing in ``src/`` knows about this module.  :func:`instrument` replaces
each public entry point listed in :data:`ENTRY_POINTS` with a wrapper,
on the object each caller looks the name up on (a class for methods, the
calling module for imported functions), so the program runs unchanged
apart from a ``perf_counter`` pair around every call.

A span records its name, start, end and the span that was open when it
began (its parent).  A layer's self time is the span's duration minus
the part covered by its child spans; the layer is the first dotted
component of the span name (``sim.engine.observe`` belongs to ``sim``).
Spans stay in memory and are summarized when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable

#: Layers of the program, in dependency order (see ``src/repro``).
LAYERS = (
    "workload", "sim", "core", "baselines", "experiments", "sweeps", "service",
)

#: (module, attribute path, span name).  The attribute path is looked up
#: in the module; ``Class.method`` patches the class, a bare name patches
#: the module global that callers in that module resolve.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.sweeps.batched", "rate_schedule", "workload.rate_schedule"),
    ("repro.service.drivers", "rate_schedule", "workload.rate_schedule"),
    ("repro.sim.engine", "AnalyticalEngine.observe", "sim.engine.observe"),
    ("repro.sim.batched", "BatchedAnalyticalEngine.observe",
     "sim.batched.observe"),
    ("repro.sim.des.engine", "DESEngine.observe", "sim.des.observe"),
    ("repro.core.controller", "PEMAController.decide", "core.decide.pema"),
    ("repro.core.manager", "WorkloadAwarePEMA.decide",
     "core.decide.workload_aware_pema"),
    ("repro.baselines.rule", "RuleBasedAutoscaler.decide", "core.decide.rule"),
    ("repro.baselines.pid", "PIDController.decide", "core.decide.pid"),
    ("repro.baselines.brownout", "BrownoutController.decide",
     "core.decide.brownout"),
    ("repro.baselines.optm_batch", "OptimumAllocator.decide",
     "core.decide.optimum"),
    ("repro.baselines.static", "StaticAllocator.decide", "core.decide.static"),
    ("repro.core.batch", "PEMABatch.step", "core.batch.step"),
    ("repro.baselines.rule", "RuleBatch.step", "baselines.rule.batch_step"),
    ("repro.baselines.optm_batch", "OptimumBatch.find_many",
     "baselines.optm.solve"),
    ("repro.experiments.runner", "build_unit", "experiments.build_unit"),
    ("repro.service.guardian", "build_unit", "experiments.build_unit"),
    ("repro.experiments.runner", "loop_result_to_dict", "experiments.payload"),
    ("repro.service.guardian", "loop_result_to_dict", "experiments.payload"),
    ("repro.experiments.artifact", "ExperimentArtifact.from_payloads",
     "experiments.artifact"),
    ("repro.sweeps.scheduler", "_run_unit_worker", "experiments.run_unit"),
    ("repro.sweeps.distributed", "_run_unit_worker", "experiments.run_unit"),
    ("repro.sweeps.batched", "_run_units_batched", "sweeps.batched.group"),
    ("repro.sweeps.store", "JsonDirectoryStore.put_raw", "sweeps.store.put"),
    ("repro.sweeps.store", "JsonDirectoryStore.get_raw", "sweeps.store.get"),
    ("repro.sweeps.distributed", "merge_grid", "sweeps.distributed.merge"),
    ("repro.service.guardian", "Guardian.tick", "service.tick"),
    ("repro.service.rescaler", "Rescaler.observe", "service.observe"),
    ("repro.service.state", "ServiceStateStore.record_decision",
     "service.record"),
)


def _batch_cells(args, kwargs, result) -> float:
    return float(len(args[1]))  # (self, alloc (B, S), ...)


def _optm_requests(args, kwargs, result) -> float:
    return float(len(args[1]))  # (self, requests)


def _put_bytes(args, kwargs, result) -> float:
    return float(result.stat().st_size)  # put_raw returns the entry path


def _get_hit(args, kwargs, result) -> float:
    return 0.0 if result is None else 1.0


#: Span name -> (args, kwargs, result) -> work units the span did: cells
#: per batched observe, requests per OPTM solve, bytes written, store hits.
COUNTERS: dict[str, Callable[..., float]] = {
    "sim.batched.observe": _batch_cells,
    "baselines.optm.solve": _optm_requests,
    "sweeps.store.put": _put_bytes,
    "sweeps.store.get": _get_hit,
}


class Tracer:
    """Spans kept in memory: ``[id, parent, name, start, end, count]``."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = []
        self.enabled = False

    def reset(self) -> None:
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = self._begin(name)
        try:
            yield record
        finally:
            self._end(record)

    def _begin(self, name: str) -> list[Any]:
        parent = self._open[-1] if self._open else -1
        record = [len(self.spans), parent, name, perf_counter(), 0.0, 0.0]
        self.spans.append(record)
        self._open.append(record[0])
        return record

    def _end(self, record: list[Any]) -> None:
        record[4] = perf_counter()
        # Unwind to this span even if a child was left open by an
        # exception that escaped its wrapper's frame.
        while self._open and self._open.pop() != record[0]:
            pass

    def wrap(self, fn: Callable, name: str) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            record = self._begin(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record[5] = counter(args, kwargs, result)
                return result
            finally:
                self._end(record)

        traced.__wrapped_by_perfbench__ = True
        return traced

    # -- summaries -------------------------------------------------------------
    def summary(self, start: float, end: float) -> dict[str, Any]:
        """Per-name totals and per-layer self time of spans in a window.

        Only spans that began inside ``[start, end]`` count.  Returns
        ``names`` (name -> calls/total_s/self_s/count/outer_s) and
        ``layers`` (layer -> self_s); ``outer_s`` is the time of spans
        with no ancestor of the same entry point (every ``core.decide.*``
        counts as one), so nested calls (a manager deciding through its
        range controllers) are not counted twice.
        """
        window = [s for s in self.spans if start <= s[3] <= end and s[4] > 0]
        by_id = {s[0]: s for s in window}
        child_time: dict[int, float] = defaultdict(float)
        for s in window:
            if s[1] in by_id:
                child_time[s[1]] += s[4] - s[3]
        names: dict[str, dict[str, float]] = {}
        layers = {layer: 0.0 for layer in LAYERS}
        for s in window:
            duration = s[4] - s[3]
            self_s = duration - child_time[s[0]]
            row = names.setdefault(
                s[2],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0,
                 "outer_calls": 0, "outer_s": 0.0},
            )
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += self_s
            row["count"] += s[5]
            if not _has_ancestor_family(s, by_id):
                row["outer_calls"] += 1
                row["outer_s"] += duration
            layer = s[2].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return {"names": names, "layers": layers}


def _family(name: str) -> str:
    return "core.decide" if name.startswith("core.decide.") else name


def _has_ancestor_family(span, by_id) -> bool:
    family = _family(span[2])
    parent = by_id.get(span[1])
    while parent is not None:
        if _family(parent[2]) == family:
            return True
        parent = by_id.get(parent[1])
    return False


def merge_summaries(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Add up summaries taken in separate processes (fleet workers)."""
    names: dict[str, dict[str, float]] = {}
    layers: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for part in parts:
        for name, row in part["names"].items():
            into = names.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
        for layer, value in part["layers"].items():
            layers[layer] = layers.get(layer, 0.0) + value
    return {"names": names, "layers": layers}


TRACER = Tracer()


def instrument(tracer: Tracer = TRACER) -> Tracer:
    """Patch every entry point in :data:`ENTRY_POINTS` (idempotent)."""
    for module_name, attr_path, name in ENTRY_POINTS:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        if getattr(getattr(raw, "__func__", raw),
                   "__wrapped_by_perfbench__", False):
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name)))
        else:
            setattr(owner, attr, tracer.wrap(raw, name))
    tracer.enabled = True
    return tracer
