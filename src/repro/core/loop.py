"""The control step, and the control loop that drives it one cell at a time.

Discrete-time execution matching the paper's deployment: the allocation
chosen at the start of interval *t* serves the whole interval; at the end
of the interval the autoscaler sees the metrics and chooses the allocation
for *t+1* (2-minute intervals in the paper's runs).

:func:`control_step` is the only implementation of one interval: hooks →
observe → record → decide → trace, over ``(B, S)`` allocation rows of
``B`` cells.  Three drivers feed it:

* :class:`ControlLoop` (offline runs, the scalar sweep worker) at B=1;
* the streaming service's :class:`~repro.service.guardian.Guardian`, one
  tick per call, also at B=1;
* the batched sweep runner (:mod:`repro.sweeps.batched`) at B=N.

Decisions come from a :class:`Bank`.  Vectorized banks
(:class:`~repro.core.batch.PEMABatch`,
:class:`~repro.baselines.rule.RuleBatch`, the sweep runner's OPTM and
static banks) decide every cell with array math;
:class:`ManagerBank` wraps per-cell scalar :class:`Autoscaler` objects and
is what the B=1 drivers use for any autoscaler.  A batch that mixes
controller kinds steps one bank per kind behind the sweep runner's
routing bank, so all its cells still share one engine call.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.obs.decision import capture_decision_info
from repro.obs.trace import Tracer
from repro.sim.batched import BatchObservation
from repro.sim.engine import AnalyticalEngine
from repro.sim.environment import Environment
from repro.sim.types import Allocation, IntervalMetrics
from repro.workload.trace import WorkloadTrace

__all__ = [
    "Autoscaler",
    "Bank",
    "ControlLoop",
    "EnvironmentAdapter",
    "LoopRecord",
    "LoopResult",
    "ManagerBank",
    "StepHistory",
    "control_step",
    "loop_record_to_dict",
    "loop_result_from_dict",
    "loop_result_to_dict",
]


@runtime_checkable
class Autoscaler(Protocol):
    """Anything that turns interval metrics into the next allocation."""

    @property
    def allocation(self) -> Allocation: ...

    def decide(self, metrics: IntervalMetrics) -> Allocation: ...


class Bank(Protocol):
    """``B`` decision-makers advanced together, one control step per call.

    ``allocation`` is the ``(B, S)`` allocation serving the current
    interval, ``slo`` the ``(B,)`` SLO in force (live: a ``set_slo`` hook
    shows up in the next record).  ``step`` consumes the interval's
    observation and returns the next allocation.  ``decision_info`` maps
    each cell enabled by ``enable_decision_trace`` to its per-step decision
    records, and ``cell(i)`` is the object hooks and
    ``capture_manager_state`` see as cell ``i``'s autoscaler.
    """

    allocation: np.ndarray
    decision_info: dict[int, list]

    @property
    def slo(self) -> np.ndarray: ...

    def step(self, obs: BatchObservation) -> np.ndarray: ...

    def cell(self, index: int) -> Any: ...

    def enable_decision_trace(self, cells: Sequence[int]) -> None: ...


class ManagerBank:
    """Bank of scalar autoscalers, one per cell.

    The dynamic-range manager's decision logic is a per-cell state
    machine over a growing range tree — not array math — and PID,
    brownout and any custom :class:`Autoscaler` are small per-cell
    feedback laws, so this bank keeps one scalar controller per cell and
    hands each the exact :class:`~repro.sim.types.IntervalMetrics` the
    scalar engine returns for its row.  Every controller therefore
    consumes the same floats and the same private RNG stream as in a
    scalar run.

    ``slos[i]`` is cell ``i``'s fixed SLO, or None to read the
    controller's own (mutable) ``.slo`` live.
    """

    def __init__(
        self,
        managers: Sequence[Any],
        names: tuple[str, ...],
        slos: Sequence[float | None],
    ) -> None:
        self._managers = list(managers)
        self._names = names
        self._slos = list(slos)
        self.allocation = np.stack(
            [m.allocation.as_array(names) for m in self._managers]
        )
        self._trace_cells: set[int] = set()
        self.decision_info: dict[int, list] = {}

    @property
    def slo(self) -> np.ndarray:
        return np.array(
            [
                float(m.slo) if fixed is None else fixed
                for m, fixed in zip(self._managers, self._slos)
            ]
        )

    def cell(self, index: int) -> Any:
        return self._managers[index]

    def enable_decision_trace(self, cells: Sequence[int]) -> None:
        for cell in cells:
            self._trace_cells.add(int(cell))
            self.decision_info.setdefault(int(cell), [])

    def step(self, obs: BatchObservation) -> np.ndarray:
        rows = []
        for i, manager in enumerate(self._managers):
            decided = manager.decide(obs.interval_metrics(i, self._names))
            rows.append(decided.as_array(self._names))
            if i in self._trace_cells:
                self.decision_info[i].append(capture_decision_info(manager))
        self.allocation = np.stack(rows)
        return self.allocation


class EnvironmentAdapter:
    """A scalar :class:`Environment` presented as a one-cell batched engine.

    The discrete-event engine and custom environments enter
    :func:`control_step` through this adapter.  Their own
    :class:`IntervalMetrics` ride along in the observation, so scalar
    controllers receive them unchanged.
    """

    def __init__(self, environment: Environment) -> None:
        self.environment = environment
        self._names = environment.app.service_names

    def observe(
        self, alloc: np.ndarray, rates: np.ndarray, intervals: np.ndarray
    ) -> BatchObservation:
        metrics = self.environment.observe(
            Allocation.from_row(self._names, alloc[0]),
            float(rates[0]),
            float(intervals[0]),
        )
        return BatchObservation.from_metrics(metrics, self._names)


@dataclass(frozen=True)
class LoopRecord:
    """One interval of a run."""

    step: int
    time: float
    workload: float
    response: float
    total_cpu: float
    violated: bool
    slo: float
    allocation: Allocation


class StepHistory:
    """What :func:`control_step` recorded: one row of ``B`` cells per step.

    Every driver reads its records, payloads and decision traces from
    here, so the scalar, streamed and batched encodings are one code path.
    """

    def __init__(self, names: tuple[str, ...], intervals: np.ndarray) -> None:
        self.names = names
        self.intervals = intervals
        self._rows: list[tuple[np.ndarray, ...]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def record(
        self,
        rates: np.ndarray,
        response: np.ndarray,
        allocation: np.ndarray,
        slo: np.ndarray,
    ) -> None:
        self._rows.append(
            (
                rates,
                response,
                allocation.sum(axis=1),
                np.array(slo),
                response > slo,
                allocation.copy(),
            )
        )

    def _columns(self, start: int = 0) -> list[list]:
        """Each field as ``[cell][step]`` Python values, from ``start`` on."""
        return [
            np.stack(field, axis=1).tolist()
            for field in zip(*self._rows[start:])
        ]

    def loop_records(self, cell: int, start: int = 0) -> list[LoopRecord]:
        """Cell ``cell``'s records from step ``start`` on."""
        interval = float(self.intervals[cell])
        columns = zip(
            range(start, len(self)),
            *(field[cell] for field in self._columns(start)),
        )
        return [
            LoopRecord(
                step=step,
                time=step * interval,
                workload=workload,
                response=response,
                total_cpu=total,
                violated=violated,
                slo=slo,
                allocation=Allocation.from_row(self.names, row),
            )
            for step, workload, response, total, slo, violated, row in columns
        ]

    def payloads(
        self, bank: Bank, captures: Sequence[Sequence[str]]
    ) -> list[dict[str, Any]]:
        """Every cell's ``loop_result_to_dict``-shaped payload.

        ``captures[i]`` is cell ``i``'s capture channels; ``decision_trace``
        adds the cell's :meth:`decision_trace`.  Records are assembled
        straight from the columns, in the dict shape and key order of
        :func:`loop_record_to_dict`.
        """
        columns = self._columns()
        work, resp, total, slo, violated, alloc = columns
        payloads = []
        for i, capture in enumerate(captures):
            interval = self.intervals[i]
            payload: dict[str, Any] = {
                "records": [
                    {
                        "step": step,
                        "time": float(step * interval),
                        "workload": work[i][step],
                        "response": resp[i][step],
                        "total_cpu": total[i][step],
                        "violated": violated[i][step],
                        "slo": slo[i][step],
                        "allocation": [
                            list(pair) for pair in zip(self.names, alloc[i][step])
                        ],
                    }
                    for step in range(len(self))
                ]
            }
            if "decision_trace" in capture:
                payload["decision_trace"] = self.decision_trace(i, bank, columns)
            payloads.append(payload)
        return payloads

    def decision_trace(
        self, cell: int, bank: Bank, columns: list[list] | None = None
    ) -> list[dict[str, Any]]:
        """Cell ``cell``'s ``decision_trace`` channel: one record per step.

        The :func:`repro.obs.decision.decision_record` shape, built inline
        from plain Python columns (the per-record coercion layer would
        only cost time on the obs gate's timed path).  ``next_total_cpu``
        is the next step's recorded total; for the last step, the bank's
        post-decision allocation total.
        """
        if not self._rows:
            return []
        work, resp, total, slo, violated, _ = columns or self._columns()
        totals = total[cell]
        next_total = totals[1:] + [float(bank.allocation.sum(axis=1)[cell])]
        infos = bank.decision_info.get(cell)
        return [
            {
                "step": step,
                "workload": work[cell][step],
                "response": resp[cell][step],
                "slo": slo[cell][step],
                "violated": violated[cell][step],
                "total_cpu": totals[step],
                "next_total_cpu": next_total[step],
                "decision": infos[step] if infos is not None else None,
            }
            for step in range(len(totals))
        ]


def control_step(
    step: int,
    engine: Any,
    bank: Bank,
    rates: np.ndarray,
    intervals: np.ndarray,
    history: StepHistory,
    hooks: Sequence[tuple[Callable[[int, Any], None], Any]] = (),
) -> None:
    """One control interval for every cell.

    Hooks run first (``hook(step, view)`` for each ``(hook, view)`` pair;
    a view exposes ``.environment`` and ``.autoscaler``), then the engine
    observes the current allocation under ``rates``, the history records
    the interval against the bank's live SLO, and the bank decides —
    appending decision info for its traced cells.  ``engine`` is a
    :class:`~repro.sim.batched.BatchedAnalyticalEngine` or an
    :class:`EnvironmentAdapter`.
    """
    for hook, view in hooks:
        hook(step, view)
    allocation = bank.allocation
    obs = engine.observe(allocation, rates, intervals)
    history.record(rates, obs.latency_p95, allocation, bank.slo)
    bank.step(obs)


@dataclass
class LoopResult:
    """Full run history plus the summary statistics the paper reports."""

    records: list[LoopRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    # -- series (aligned arrays for figures) ------------------------------------
    @property
    def steps(self) -> np.ndarray:
        return np.asarray([r.step for r in self.records])

    @property
    def times(self) -> np.ndarray:
        return np.asarray([r.time for r in self.records])

    @property
    def workloads(self) -> np.ndarray:
        return np.asarray([r.workload for r in self.records])

    @property
    def responses(self) -> np.ndarray:
        return np.asarray([r.response for r in self.records])

    @property
    def total_cpu(self) -> np.ndarray:
        return np.asarray([r.total_cpu for r in self.records])

    # -- summaries --------------------------------------------------------------
    def violation_count(self) -> int:
        return sum(r.violated for r in self.records)

    def violation_rate(self) -> float:
        if not self.records:
            return 0.0
        return self.violation_count() / len(self.records)

    def final_allocation(self) -> Allocation:
        if not self.records:
            raise LookupError("empty run")
        return self.records[-1].allocation

    def best_satisfying_total(self) -> float:
        """Minimum total CPU over intervals that satisfied the SLO."""
        totals = [r.total_cpu for r in self.records if not r.violated]
        if not totals:
            raise LookupError("no SLO-satisfying interval in the run")
        return min(totals)

    def settled_total(self, tail: int = 5) -> float:
        """Mean total CPU over the last ``tail`` SLO-satisfying intervals."""
        totals = [r.total_cpu for r in self.records if not r.violated][-tail:]
        if not totals:
            raise LookupError("no SLO-satisfying interval in the run")
        return float(np.mean(totals))


def loop_record_to_dict(rec: LoopRecord) -> dict[str, Any]:
    """One interval record in the canonical JSON encoding.

    Allocations are encoded as ``[name, cpu]`` pairs rather than an
    object: JSON writers that sort keys would otherwise reorder the
    services, and summation order matters to the last ulp of
    ``Allocation.total()``.  The streaming service's per-tick decision
    feed uses exactly this encoding, and :meth:`StepHistory.payloads`
    assembles the same shape from its columns, so streamed, offline and
    batched histories compare byte-for-byte.
    """
    return {
        "step": rec.step,
        "time": rec.time,
        "workload": rec.workload,
        "response": rec.response,
        "total_cpu": rec.total_cpu,
        "violated": bool(rec.violated),
        "slo": rec.slo,
        "allocation": [
            [name, rec.allocation[name]] for name in rec.allocation.names
        ],
    }


def loop_result_to_dict(result: LoopResult) -> dict[str, Any]:
    """A JSON-serializable run history (lossless; see the inverse below)."""
    return {"records": [loop_record_to_dict(rec) for rec in result.records]}


def loop_result_from_dict(data: dict[str, Any]) -> LoopResult:
    """Rebuild a :class:`LoopResult` from :func:`loop_result_to_dict` output."""
    return LoopResult(
        [
            LoopRecord(
                step=int(rec["step"]),
                time=float(rec["time"]),
                workload=float(rec["workload"]),
                response=float(rec["response"]),
                total_cpu=float(rec["total_cpu"]),
                violated=bool(rec["violated"]),
                slo=float(rec["slo"]),
                allocation=Allocation(
                    [(name, float(cpu)) for name, cpu in rec["allocation"]]
                ),
            )
            for rec in data["records"]
        ]
    )


class ControlLoop:
    """Drives one autoscaler against one environment and workload trace.

    A B=1 driver of :func:`control_step`: the autoscaler sits in a
    one-cell :class:`ManagerBank`; the analytical engine is observed
    through its one-cell batched engine, any other environment through
    an :class:`EnvironmentAdapter`.  :meth:`reset` plus :meth:`step` run
    the loop one interval at a time (the streaming service's tick path);
    :meth:`run` runs a whole horizon.
    """

    def __init__(
        self,
        environment: Environment,
        autoscaler: Autoscaler,
        workload: WorkloadTrace,
        *,
        interval: float = 120.0,
        slo: float | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.environment = environment
        self.autoscaler = autoscaler
        self.workload = workload
        self.interval = interval
        explicit = slo if slo is not None else getattr(autoscaler, "slo", None)
        if explicit is None:
            raise ValueError("pass slo= when the autoscaler has no .slo")
        # None: live — tracks the autoscaler's own (dynamic) SLO.
        self._fixed_slo = (
            None if slo is None and hasattr(autoscaler, "slo") else float(explicit)
        )
        # Only the exact facade is observed through its batched engine: a
        # subclass (the reference oracle, say) may override ``observe``.
        self._engine = (
            environment.batch
            if type(environment) is AnalyticalEngine
            else EnvironmentAdapter(environment)
        )
        self._intervals = np.array([interval], dtype=np.float64)
        self.reset()

    def current_slo(self) -> float:
        """The SLO in force right now.

        Live when the autoscaler carries its own (mutable) SLO — dynamic
        SLO hooks show up immediately — fixed otherwise.
        """
        if self._fixed_slo is None:
            return float(self.autoscaler.slo)
        return self._fixed_slo

    def reset(self, *, decision_trace: bool = False) -> None:
        """Start a run from the autoscaler's current allocation."""
        self.bank = ManagerBank(
            [self.autoscaler],
            self.environment.app.service_names,
            [self._fixed_slo],
        )
        if decision_trace:
            self.bank.enable_decision_trace([0])
        self.history = StepHistory(
            self.environment.app.service_names, self._intervals
        )

    def step(
        self,
        step: int,
        rps: float,
        on_step: Callable[[int, "ControlLoop"], None] | None = None,
    ) -> None:
        """Run interval ``step`` at ``rps``, continuing the current run."""
        control_step(
            step,
            self._engine,
            self.bank,
            np.array([rps], dtype=np.float64),
            self._intervals,
            self.history,
            ((on_step, self),) if on_step is not None else (),
        )

    def run(
        self,
        n_steps: int,
        on_step: Callable[[int, "ControlLoop"], None] | None = None,
        *,
        decision_log: list | None = None,
        tracer: "Tracer | None" = None,
    ) -> LoopResult:
        """Execute ``n_steps`` control intervals.

        ``on_step(step_index, loop)`` runs before each interval — the hook
        used by the adaptability experiments to change CPU frequency
        (Fig. 19) or the SLO (Fig. 20) mid-run.

        ``decision_log`` collects one deterministic
        :func:`repro.obs.decision.decision_record`-shaped record per
        interval (the ``decision_trace`` capture channel); ``tracer``
        additionally times the run as a span and mirrors each record as
        an event.  Both default off.
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        traced = decision_log is not None or tracer is not None
        self.reset(decision_trace=traced)
        span = (
            tracer.span("control_loop.run", steps=n_steps)
            if tracer is not None
            else nullcontext()
        )
        with span:
            for step in range(n_steps):
                self.step(step, self.workload.rate(step * self.interval), on_step)
            if traced:
                records = self.history.decision_trace(0, self.bank)
                if decision_log is not None:
                    decision_log.extend(records)
                if tracer is not None:
                    for record in records:
                        tracer.event("decision", **record)
        return LoopResult(records=self.history.loop_records(0))
