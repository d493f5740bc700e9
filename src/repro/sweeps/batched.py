"""Vectorized batched evaluation of compatible sweep units.

The scheduler's ``batch=True`` path partitions each chunk of pending
(spec, repeat) units into *compatible groups* — same application, same
horizon, same engine noise model, analytical engine — and hands every
group to :func:`run_units_batched`, which drives the shared
:func:`~repro.core.loop.control_step` over the whole group as one stack
of arrays: one :class:`~repro.sim.batched.BatchedAnalyticalEngine`
observation per interval for every cell, whatever its controller kind,
instead of one scalar loop per cell.  Each controller kind decides
through its own bank; a routing bank hands each kind's bank its rows of
the shared observation, so the kinds of one app share one engine call.

Byte-identity: every per-cell float operation and random draw is
replicated in the scalar order (see the bit-exactness notes in
:mod:`repro.sim.batched` and :mod:`repro.core.batch`), so the payload
dicts returned here are exactly what
``repro.experiments.runner._run_unit_worker`` returns for the same unit —
the same JSON bytes land in the sweep store either way.

Cells that :func:`batch_key` cannot place in a group (DES engine,
non-noise engine params, unknown autoscalers/hooks) run through the
scalar worker unchanged — a fallback, never an error.  Every batched
cell's controller is built by the scalar path's own
:func:`~repro.experiments.runner.build_autoscaler`, so invalid params
raise the same error in either mode.  Each fallback carries a
machine-readable reason slug (:func:`batch_fallback_reason`), which the
scheduler tallies into ``SweepReport.fallbacks`` so batch coverage is
visible instead of silently degrading.
"""

from __future__ import annotations

import gc
from types import SimpleNamespace
from typing import Any, Hashable, Iterable, Sequence

import numpy as np

from repro.apps import build_app
from repro.baselines.rule import RuleBatch
from repro.core.batch import PEMABatch
from repro.core.loop import Bank, ManagerBank, StepHistory, control_step
from repro.core.rhdb import RHDB_MAX_RECORDS
from repro.experiments.registry import HOOKS, WORKLOADS
from repro.experiments.runner import build_autoscaler, capture_manager_state
from repro.experiments.spec import ExperimentSpec
from repro.faults import ENGINE_FAULT_KINDS, STREAM_FAULT_KINDS
from repro.sim.batched import BatchObservation, BatchedAnalyticalEngine
from repro.sim.noise import NoiseModel
from repro.sim.types import Allocation
from repro.workload.replay import rate_schedule

__all__ = [
    "BATCHABLE_AUTOSCALERS",
    "batch_key",
    "batch_fallback_reason",
    "batch_from_env",
    "classify_unit",
    "run_units_batched",
]


def batch_from_env(default: bool = False) -> bool:
    """The ``REPRO_SWEEP_BATCH`` default: ``1/true/yes/on`` enable it."""
    import os

    value = os.environ.get("REPRO_SWEEP_BATCH")
    if value is None:
        return default
    return value.strip().lower() in ("1", "true", "yes", "on")

#: Autoscaler kinds a batch group can hold, in any mix: the group's cells
#: share one engine call per interval, and each kind decides through its
#: own bank.  ``pema``/``rule`` decide through fully vectorized banks;
#: ``optimum``, ``workload_aware_pema``, ``pid``, and ``brownout`` decide
#: per cell inside their banks.
BATCHABLE_AUTOSCALERS = (
    "pema", "rule", "static", "optimum", "workload_aware_pema",
    "pid", "brownout",
)

#: Hook kinds a batched cell can run: each is the registry closure the
#: scalar loop runs, called with a view of the cell's engine row and bank
#: cell.  Stream faults are delivery disturbances, offline no-ops.
_BATCHABLE_HOOKS = (
    ("set_slo", "set_cpu_speed") + ENGINE_FAULT_KINDS + STREAM_FAULT_KINDS
)

#: Autoscaler kinds whose controller has ``set_slo`` (the PEMA bank cell
#: and the PID controller); a ``set_slo`` hook on any other kind fails in
#: the scalar path, so those cells fall back to it.
_SET_SLO_KINDS = ("pema", "pid")


def classify_unit(
    spec: ExperimentSpec,
) -> tuple[tuple[Hashable, ...] | None, str | None]:
    """``(batch key, None)`` for batchable specs, ``(None, reason)`` else.

    Units sharing a key can be stacked into one batch: same app (service
    set and calibration), same horizon (one time loop), and same engine
    noise model (one vectorized observation).  Everything else — the
    autoscaler kind (each kind gets its own bank behind one routing
    bank), workload level and kind, α/β and other autoscaler params, CPU
    speed and SLO hooks, interval, SLO, headroom, seeds — varies freely
    *within* a batch.

    The reason is a stable machine-readable slug (``engine:des``,
    ``autoscaler:fast_pema``, ``hook:my_hook``, ``pema_horizon``,
    ``engine_params``, ``engine_params:noise``, ``set_slo_unsupported``)
    — the scheduler tallies these into ``SweepReport.fallbacks`` and the
    CLI prints them, so nobody mistakes a mostly-scalar "batched" sweep
    for a vectorized one.

    Autoscaler and hook params are not inspected here: the batch runner
    builds every cell through the same registry factories as the scalar
    path, so an invalid param raises the same error in either mode.
    """
    if spec.engine.kind != "analytical":
        return None, f"engine:{spec.engine.kind}"
    noise_model: NoiseModel | None = None
    if spec.engine.params:
        engine_params = dict(spec.engine.params)
        noise = engine_params.pop("noise", None)
        if engine_params:
            # latency_params/cfs overrides stay scalar: they change the
            # closed-form kernel itself, not just the noise stream.
            return None, "engine_params"
        if noise is not None:
            try:
                noise_model = NoiseModel(**noise)
            except (TypeError, ValueError):
                return None, "engine_params:noise"
    kind = spec.autoscaler.kind
    if kind not in BATCHABLE_AUTOSCALERS:
        return None, f"autoscaler:{kind}"
    # PEMABatch keeps the full history; past the scalar RHDb's trim point
    # the two would diverge.
    if kind == "pema" and spec.n_steps > RHDB_MAX_RECORDS:
        return None, "pema_horizon"
    for hook in spec.hooks:
        if hook.kind not in _BATCHABLE_HOOKS:
            return None, f"hook:{hook.kind}"
        if hook.kind == "set_slo" and kind not in _SET_SLO_KINDS:
            return None, "set_slo_unsupported"
    return (spec.app, spec.n_steps, noise_model), None


def batch_key(spec: ExperimentSpec) -> tuple[Hashable, ...] | None:
    """The compatibility-group key of ``spec``, or None if un-batchable.

    The key/reason split lives in :func:`classify_unit`; this is the
    key-only view the batch runner and older call sites use.
    """
    return classify_unit(spec)[0]


def batch_fallback_reason(spec: ExperimentSpec) -> str | None:
    """Why ``spec`` runs scalar under ``batch=True`` (None: it batches)."""
    return classify_unit(spec)[1]


class _StaticBank:
    """Cells whose allocation is pinned for the whole run."""

    def __init__(
        self, allocators: Sequence[Any], slos: Sequence[float]
    ) -> None:
        # The allocation is pinned at build time (the start, or a
        # bottleneck_rps/scale model allocation) and never changes.
        names = allocators[0].allocation.names
        self.allocation = np.stack(
            [a.allocation.as_array(names) for a in allocators]
        )
        self.slo = np.asarray(slos, dtype=np.float64)
        self.decision_info: dict[int, list] = {}

    def cell(self, index: int) -> None:
        return None

    def enable_decision_trace(self, cells: Sequence[int]) -> None:
        """Static cells make no decisions: their records carry None."""

    def step(self, obs: BatchObservation) -> np.ndarray:
        return self.allocation


class _OptimumBank:
    """Vectorized :class:`~repro.baselines.OptimumAllocator` bank.

    Each cell pins the cached noiseless optimum for its observed
    workload, re-solving only when the workload changes.  All cells'
    pending solves go through one ``optimum_results`` call per step —
    cache/store read-through plus a single lockstep
    :class:`~repro.baselines.OptimumBatch` frontier drive for the misses
    — so a sweep's OPTM column warms exactly the entries the scalar
    allocator would.
    """

    def __init__(
        self, app, allocators: Sequence[Any], slos: Sequence[float]
    ) -> None:
        self._app = app
        self._restarts = [a.restarts for a in allocators]
        self.allocation = np.stack(
            [a.allocation.as_array(app.service_names) for a in allocators]
        )
        self.slo = np.asarray(slos, dtype=np.float64)
        self.decision_info: dict[int, list] = {}
        self._workloads: list[float | None] = [None] * len(self._restarts)

    def cell(self, index: int) -> None:
        return None

    def enable_decision_trace(self, cells: Sequence[int]) -> None:
        """OPTM has no decision hook: its trace records carry None."""

    def step(self, obs: BatchObservation) -> np.ndarray:
        workloads = obs.workload_rps
        pending = [
            i
            for i, w in enumerate(workloads)
            if self._workloads[i] is None or float(w) != self._workloads[i]
        ]
        if pending:
            from repro.experiments.runner import optimum_results

            payloads = optimum_results(
                self._app.name,
                [(float(workloads[i]), self._restarts[i]) for i in pending],
            )
            allocation = self.allocation.copy()
            for i, payload in zip(pending, payloads):
                values = dict(payload["allocation"])
                allocation[i] = [
                    values[name] for name in self._app.service_names
                ]
                self._workloads[i] = float(workloads[i])
            self.allocation = allocation
        return self.allocation


class _KindRouter:
    """One bank over a batch group, whatever controller kinds it mixes.

    Holds the group's ``(B, S)`` allocation and live ``(B,)`` SLO; each
    step hands every kind's bank its rows of the shared observation and
    scatters the decided rows back.  Per-cell calls (``cell``, decision
    tracing) are mapped to the owning bank's local index.
    """

    def __init__(
        self, banks: Sequence[Bank], rows: Iterable[Sequence[int]]
    ) -> None:
        self._banks = [
            (bank, np.asarray(cells, dtype=np.intp))
            for bank, cells in zip(banks, rows)
        ]
        self._owner = {
            int(cell): (bank, local)
            for bank, cells in self._banks
            for local, cell in enumerate(cells)
        }
        self.allocation = np.empty(
            (len(self._owner), banks[0].allocation.shape[1])
        )
        for bank, cells in self._banks:
            self.allocation[cells] = bank.allocation

    @property
    def slo(self) -> np.ndarray:
        slo = np.empty(len(self._owner))
        for bank, cells in self._banks:
            slo[cells] = bank.slo
        return slo

    @property
    def decision_info(self) -> dict[int, list]:
        return {
            int(cells[local]): info
            for bank, cells in self._banks
            for local, info in bank.decision_info.items()
        }

    def cell(self, index: int) -> Any:
        bank, local = self._owner[index]
        return bank.cell(local)

    def enable_decision_trace(self, cells: Sequence[int]) -> None:
        wanted = set(cells)
        for bank, rows in self._banks:
            bank.enable_decision_trace(
                [local for local, cell in enumerate(rows) if cell in wanted]
            )

    def step(self, obs: BatchObservation) -> np.ndarray:
        allocation = np.empty_like(self.allocation)
        for bank, cells in self._banks:
            allocation[cells] = bank.step(obs.rows(cells))
        self.allocation = allocation
        return allocation


def run_units_batched(
    units: Sequence[tuple[ExperimentSpec, int]],
) -> list[dict[str, Any]]:
    """Run one compatible group of (spec, repeat) units as a single batch.

    Returns one ``loop_result_to_dict``-shaped payload per unit, in
    input order, byte-identical to the scalar worker's payloads.

    The cyclic garbage collector is paused for the duration: a batch run
    allocates tens of thousands of record/trace dicts, all acyclic trees
    freed by refcounting, and letting generational GC rescan them mid-run
    costs more than the whole decision-trace channel (it dominated the
    obs gate's measured tracing overhead before this pause).
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _run_units_batched(units)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_units_batched(
    units: Sequence[tuple[ExperimentSpec, int]],
) -> list[dict[str, Any]]:
    if not units:
        return []
    specs = [spec for spec, _ in units]
    key = batch_key(specs[0])
    if key is None or any(batch_key(s) != key for s in specs[1:]):
        raise ValueError("units do not form one compatible batch group")
    app_name, n_steps, noise_model = key
    app = build_app(app_name)
    names = app.service_names
    n_cells = len(units)

    for spec in specs:
        spec.validate()
    seeds = [spec.seed + repeat for spec, repeat in units]
    engine_seeds = [
        seed + spec.engine.seed_offset for seed, spec in zip(seeds, specs)
    ]
    traces = [
        WORKLOADS.build(s.workload.kind, **s.workload.params) for s in specs
    ]
    intervals = np.asarray([s.interval for s in specs], dtype=np.float64)
    start = app.generous_allocations(
        [trace.rate(0.0) for trace in traces], [s.headroom for s in specs]
    )
    # ``noise_model`` is shared by construction: it is part of the batch
    # key, and ``None`` means every cell uses the engine default — the
    # same resolution the scalar engine factory performs.
    engine = BatchedAnalyticalEngine(app, engine_seeds, noise=noise_model)
    autoscalers, slos = zip(
        *(
            build_autoscaler(
                spec, seed, app, Allocation.from_array(names, row),
                engine.cell(i),
            )
            for i, (spec, seed, row) in enumerate(zip(specs, seeds, start))
        )
    )
    # One bank per controller kind (first-appearance order), each over
    # its own cells; the router hands each bank its rows.
    kinds: dict[str, list[int]] = {}
    for i, spec in enumerate(specs):
        kinds.setdefault(spec.autoscaler.kind, []).append(i)
    banks = [
        _build_bank(
            kind, app, [autoscalers[i] for i in rows], [slos[i] for i in rows]
        )
        for kind, rows in kinds.items()
    ]
    bank = _KindRouter(banks, kinds.values())

    # Decision tracing: cells whose spec requested the channel record one
    # info dict per step from their bank (banks whose autoscalers have no
    # last_decision hook record None, as scalar).
    bank.enable_decision_trace(
        [i for i, s in enumerate(specs) if "decision_trace" in s.capture]
    )

    # Every spec hook is the registry closure the scalar loop runs, called
    # with a view of its cell: the engine row through the scalar setter
    # API, and the bank cell as the autoscaler.
    hooks = []
    for i, spec in enumerate(specs):
        view = SimpleNamespace(environment=engine.cell(i), autoscaler=bank.cell(i))
        for hook in spec.hooks:
            hooks.append((HOOKS.build(hook.kind, **hook.params), view))

    # Pre-evaluate every cell's whole rate series in one vectorized
    # ``rate_batch`` call (bit-identical to the per-step scalar calls —
    # the :func:`~repro.workload.trace.batch_rates` contract), so a
    # 36-hour replay costs one trace evaluation per cell, not one Python
    # call per control interval.
    rates_all = np.stack(
        [
            rate_schedule(traces[i], intervals[i], n_steps)
            for i in range(n_cells)
        ],
        axis=1,
    )
    history = StepHistory(names, intervals)
    for step in range(n_steps):
        control_step(
            step, engine, bank, rates_all[step], intervals, history, hooks
        )

    payloads = history.payloads(bank, [spec.capture for spec in specs])
    for i, (spec, payload) in enumerate(zip(specs, payloads)):
        # The manager-state artifact channel, mirroring the scalar
        # worker: key present exactly when the spec requested it.
        if "manager_state" in spec.capture:
            payload["manager_state"] = capture_manager_state(bank.cell(i))
    return payloads


def _build_bank(kind, app, autoscalers, slos) -> Bank:
    """The decision bank for one batch group, stacked from its scalar cells."""
    if kind == "pema":
        return PEMABatch(autoscalers)
    if kind == "rule":
        return RuleBatch(autoscalers, slos)
    if kind == "optimum":
        return _OptimumBank(app, autoscalers, slos)
    if kind == "static":
        return _StaticBank(autoscalers, slos)
    # Controllers with their own ``.slo`` drive the records live, like
    # the scalar loop (so PID's ``set_slo`` hook shows up).
    return ManagerBank(
        autoscalers,
        app.service_names,
        [None if hasattr(m, "slo") else s for m, s in zip(autoscalers, slos)],
    )


def _run_batch_worker(units_data: Sequence[Sequence[Any]]) -> list[dict]:
    """Module-level worker: plain-data in/out so it pickles anywhere."""
    return run_units_batched(
        [
            (ExperimentSpec.from_dict(spec_data), int(repeat))
            for spec_data, repeat in units_data
        ]
    )
