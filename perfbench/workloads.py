"""The four benchmark workloads and one measured pass of each.

Run as a script, this module is one fresh interpreter doing one thing:

    python3 perfbench/workloads.py --mode setup --workload NAME --seed N \
        --workdir DIR
    python3 perfbench/workloads.py --mode pass --workload NAME --seed N \
        --workdir DIR [--trace]

``setup`` times ``import repro`` plus building the workload's inputs and
exits.  ``pass`` does the same, then runs the workload once (cold into a
fresh store under ``DIR``, then warm) and prints one JSON line.  Every
timed run is its own interpreter because several pieces of state are
global to a process (the OPTM LRU, the ``repro.obs`` default registry,
the GC generations): a second run in the same process would skip work
the first one did.

The workload seed reaches the program only through the generated specs:
each spec's ``seed`` is shifted by ``SEED_STRIDE * (seed % SEED_SPACE)``.
The seed space is finite so that every seed's outputs can be checked
against digests committed in ``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
GRIDS = Path("benchmarks/grids")
DIGESTS = HERE / "digests.json"

WORKLOADS = ("replay_batched", "figures_scalar", "service_stream", "dist_fleet")

SEED_SPACE = 16
SEED_STRIDE = 1009

#: Warm re-runs per pass; ``warm_s`` is their median.
WARM_REPEATS = 3

#: replay_batched: the shipped 36-hour replay, one seed, three
#: controllers, so PEMABatch and RuleBatch run beside the manager bank.
REPLAY_SEEDS = [41]
CONTROLLER_AXIS = {
    "name": "controller",
    "values": [
        {"label": "workload_aware_pema"},
        {"label": "pema", "autoscaler": {"kind": "pema"}},
        {"label": "rule", "autoscaler": {"kind": "rule"}},
    ],
}

#: service_stream: closed-loop saturation over the replay grid's nine
#: (app, controller) guardians, then an open loop over two guardians per
#: app, one sample per guardian due every ``ROUND_PERIOD_S``.
SATURATION_STEPS = 400
OPEN_LOOP_ROUNDS = 500
ROUND_PERIOD_S = 0.012
OPEN_LOOP_GUARDIANS = (
    ("sockshop", "workload_aware_pema"),
    ("sockshop", "pema"),
    ("trainticket", "pema"),
    ("trainticket", "rule"),
    ("hotelreservation", "workload_aware_pema"),
    ("hotelreservation", "rule"),
)

#: dist_fleet: ci_dist_smoke's 16 PEMA units, with longer cells so each
#: task outweighs process start and claim traffic.
FLEET_STEPS = 400
FLEET_WORKERS = 2


def seed_index(seed: int) -> int:
    return seed % SEED_SPACE


def sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def settle() -> None:
    """Start a timed region with no garbage pending from earlier work.

    Without this, whether a full collection of the previous phase's
    objects lands inside a timed region depends on the seed's exact
    allocation count, which adds tens of percent of run-to-run spread to
    sub-second regions.
    """
    gc.collect()


def clocks() -> tuple[float, float]:
    """(wall, CPU) readings; CPU is this process's user + system time."""
    return perf_counter(), time.process_time()


def since(start: tuple[float, float]) -> tuple[float, float]:
    """(wall, CPU) seconds elapsed since ``start = clocks()``."""
    wall, cpu = clocks()
    return wall - start[0], cpu - start[1]


#: CPU seconds :func:`_kernel` takes on the reference host; timings are
#: reported at this speed (see :func:`calibrate`).
KERNEL_REF_S = 0.020


def _kernel() -> float:
    """A fixed mix of interpreter and small-array work, about 20 ms.

    It uses nothing from ``repro``, so a change to the program leaves its
    time alone; only the host's speed moves it.
    """
    import numpy as np

    state: dict[int, float] = {}
    acc, x = 0.0, 0.5
    for i in range(60000):
        x = 3.9 * x * (1.0 - x)
        state[i & 63] = state.get(i & 63, 0.0) + x
        acc += x if x > 0.5 else -x
    arr = np.linspace(0.0, 1.0, 32)
    for _ in range(6000):
        arr = np.minimum(arr * 1.01 + 0.001, 1.0)
        acc += float(arr.sum())
    return acc + sum(state.values())


def calibrate() -> float:
    """CPU seconds of :func:`_kernel` now: the median of five runs.

    The reference host is a share of a larger machine whose per-core
    speed drifts by tens of percent over minutes, as other tenants load
    its caches and cores; CPU time drifts with it.  Timing this kernel
    right before and after a region and scaling the region's CPU time
    by ``KERNEL_REF_S / kernel`` reports it at a fixed host speed.
    """
    times = []
    for _ in range(5):
        start = time.process_time()
        _kernel()
        times.append(time.process_time() - start)
    return sorted(times)[2]


def _children_cpu() -> float:
    """CPU seconds of the children that have ended and been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- inputs ---------------------------------------------------------------------
def _reseed(cells, k: int):
    from repro.experiments import ExperimentSpec

    if k == 0:
        return list(cells)
    out = []
    for cell in cells:
        data = cell.spec.to_dict()
        data["seed"] = int(data["seed"]) + SEED_STRIDE * k
        out.append(replace(cell, spec=ExperimentSpec.from_dict(data)))
    return out


def replay_grid(n_steps: int | None = None):
    """replay_diurnal.json with one seed and the controller axis."""
    from repro.sweeps import SweepGrid

    data = json.loads((GRIDS / "replay_diurnal.json").read_text())
    for axis in data["axes"]:
        if axis["name"] == "seed":
            axis["values"] = list(REPLAY_SEEDS)
    data["axes"].append(CONTROLLER_AXIS)
    if n_steps is not None:
        data["base"]["n_steps"] = n_steps
        data["name"] = f"{data['name']}_{n_steps}"
    return SweepGrid.from_dict(data)


def figure_grids():
    from repro.sweeps import SweepGrid

    paths = sorted(
        p for p in GRIDS.glob("*.json")
        if p.name.startswith(("fig", "robustness_"))
    )
    return [SweepGrid.read(p) for p in paths] + [
        SweepGrid.read(HERE / "grids" / "des_cells.json")
    ]


def fleet_grid():
    from repro.sweeps import SweepGrid

    data = json.loads((GRIDS / "ci_dist_smoke.json").read_text())
    data["base"]["n_steps"] = FLEET_STEPS
    data["name"] = "perfbench_fleet"
    return SweepGrid.from_dict(data)


@dataclass
class Inputs:
    """Everything a pass needs, built during set-up."""

    grids: list = field(default_factory=list)  # [(grid, cells)]
    saturation: Any = None  # service: Orchestrator under saturation
    open_loop: Any = None  # service: Orchestrator for the open loop
    store: Any = None  # service: the store the saturation run flushes to


def build_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    k = seed_index(seed)
    if workload == "replay_batched":
        grid = replay_grid()
        return Inputs(grids=[(grid, _reseed(grid.cells(), k))])
    if workload == "figures_scalar":
        return Inputs(
            grids=[(g, _reseed(g.cells(), k)) for g in figure_grids()]
        )
    if workload == "dist_fleet":
        grid = fleet_grid()
        return Inputs(grids=[(grid, _reseed(grid.cells(), k))])
    if workload == "service_stream":
        return _service_inputs(k, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _service_inputs(k: int, workdir: Path) -> Inputs:
    from repro.service import Orchestrator, ServiceStateStore
    from repro.sweeps import SweepStore

    sat_grid = replay_grid(SATURATION_STEPS)
    sat_cells = _reseed(sat_grid.cells(), k)
    store = SweepStore(workdir / "service-store")
    saturation = Orchestrator(store=ServiceStateStore(store))
    for cell in sat_cells:
        saturation.register(cell.spec)
    open_loop = Orchestrator(store=landing_store())
    by_pair = {
        (c.spec.app, c.spec.autoscaler.kind): c.spec
        for c in _reseed(replay_grid(OPEN_LOOP_ROUNDS).cells(), k)
    }
    for app, kind in OPEN_LOOP_GUARDIANS:
        open_loop.register(by_pair[(app, kind)], app_id=f"ol-{app}-{kind}")
    return Inputs(
        grids=[(sat_grid, sat_cells)],
        saturation=saturation,
        open_loop=open_loop,
        store=store,
    )


def landing_store():
    """A service state store that notes when each step's decision lands.

    The open loop's round latency runs from a round's due time to the
    moment the last of its decisions is recorded.
    """
    from repro.service import ServiceStateStore

    class LandingStore(ServiceStateStore):
        def __init__(self) -> None:
            super().__init__()
            self.landed: dict[int, list[float]] = {}

        def record_decision(self, guardian, decision) -> None:
            super().record_decision(guardian, decision)
            self.landed.setdefault(decision.step, []).append(perf_counter())

    return LandingStore()


def total_steps(cells) -> int:
    return sum(c.spec.n_steps * c.spec.repeats for c in cells)


# -- output checks ----------------------------------------------------------------
def store_digests(store, cells) -> tuple[dict[str, str], dict[str, str]]:
    """(unit entry digests, other entry digests), keyed by entry name."""
    from repro.sweeps import SweepStore

    unit_paths = {
        store.path_for(SweepStore.unit_key(c.spec, r))
        for c in cells
        for r in range(c.spec.repeats)
    }
    units: dict[str, str] = {}
    others: dict[str, str] = {}
    for path in store.entry_paths():
        target = units if path in unit_paths else others
        target[path.stem[:16]] = sha(path.read_bytes())[:16]
    for path in unit_paths:
        units.setdefault(path.stem[:16], "missing")
    return units, others


class Checker:
    """Compares one pass's outputs with the committed digests."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.failed = 0
        self.problems: list[str] = []
        self.observed: dict[str, dict[str, str]] = {}

    def check_map(self, section: str, got: dict[str, str],
                  weights: dict[str, int] | None = None,
                  default: int = 1) -> None:
        """Compare a name -> digest map with the committed one.

        Each differing or missing name fails ``weights[name]`` operations
        (``default`` when unlisted) and is recorded as a problem.
        """
        self.observed.setdefault(section, {}).update(got)
        want = None if self.expected is None else self.expected.get(section)
        if want is None:
            self.problems.append(f"no committed digests for {section}")
            return
        weights = weights or {}
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                self.failed += weights.get(name, default)
                state = "missing" if name not in got else "differs"
                self.problems.append(f"{section}: {name} {state}")

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def load_expected(workload: str, seed: int) -> dict | None:
    try:
        table = json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return None
    if table.get("seed_space") != SEED_SPACE:
        return None
    return table["workloads"].get(workload, {}).get(str(seed_index(seed)))


# -- passes ---------------------------------------------------------------------
def _span(name: str):
    from tracing import TRACER

    return TRACER.span(name)


def run_sweeps(grids, store, *, batch: bool):
    """Run every grid into ``store``; ((wall, CPU) s, summaries, reports)."""
    from repro.sweeps import grid_summary_json, run_grid

    summaries: dict[str, str] = {}
    reports = []
    settle()
    started = clocks()
    for grid, cells in grids:
        with _span("sweeps.run_grid"):
            run = run_grid(grid, store=store, cells=cells, batch=batch)
        with _span("sweeps.aggregate.summary"):
            summaries[grid.name] = grid_summary_json(run)
        reports.append(run.report)
    return since(started), summaries, reports


def _warm(grids, store, *, batch: bool, checker: Checker):
    """((wall, CPU) seconds of each warm re-run, kernel times around them).

    Re-run ``i`` lies between kernel times ``i`` and ``i + 1``.
    """
    times = []
    kernels = [calibrate()]
    for _ in range(WARM_REPEATS):
        seconds, summaries, reports = run_sweeps(grids, store, batch=batch)
        kernels.append(calibrate())
        times.append(seconds)
        checker.check_map(
            "summaries",
            {name: sha(text)[:16] for name, text in summaries.items()},
            _grid_units(grids),
        )
        checker.require(
            all(r.computed == 0 for r in reports),
            "warm re-run computed units",
        )
    return times, kernels


def _grid_units(grids) -> dict[str, int]:
    return {g.name: sum(c.spec.repeats for c in cells) for g, cells in grids}


def sweep_pass(workload: str, inputs: Inputs, workdir: Path,
               checker: Checker, marks: dict) -> dict[str, Any]:
    from repro.experiments import optimum_cache_info
    from repro.sweeps import SweepStore

    batch = workload == "replay_batched"
    store = SweepStore(workdir / "store")
    cells = [c for _, grid_cells in inputs.grids for c in grid_cells]
    optm_before = optimum_cache_info()
    kernels = [calibrate()]
    marks["cold_start"] = perf_counter()
    (cold_s, cold_cpu_s), summaries, reports = run_sweeps(
        inputs.grids, store, batch=batch)
    marks["cold_end"] = perf_counter()
    kernels.append(calibrate())
    optm_after = optimum_cache_info()
    units, others = store_digests(store, cells)
    store_bytes = sum(p.stat().st_size for p in store.entry_paths())
    checker.check_map("units", units)
    checker.check_map("others", others, default=0)
    checker.check_map(
        "summaries",
        {name: sha(text)[:16] for name, text in summaries.items()},
        _grid_units(inputs.grids),
    )
    n_units = sum(r.units for r in reports)
    fallbacks: dict[str, int] = {}
    for r in reports:
        for reason, count in r.fallbacks.items():
            fallbacks[reason] = fallbacks.get(reason, 0) + count
    if batch:
        checker.require(
            sum(r.batched_units for r in reports) == n_units,
            "replay_batched: not every unit ran batched",
        )
        checker.require(fallbacks == {}, f"scalar fallbacks: {fallbacks}")
    marks["warm_start"] = perf_counter()
    warm, warm_kernels = _warm(inputs.grids, store, batch=batch,
                               checker=checker)
    marks["warm_end"] = perf_counter()
    phases = {key: 0.0 for key in ("plan", "load", "run", "persist",
                                   "aggregate")}
    for r in reports:
        for key, value in r.profile.get("phases", {}).items():
            phases[key] = phases.get(key, 0.0) + value
    return {
        "attempted": n_units,
        "cold_s": cold_s,
        "cold_cpu_s": cold_cpu_s,
        "cold_steps": total_steps(cells),
        "warm_s": [wall for wall, _ in warm],
        "warm_cpu_s": [cpu for _, cpu in warm],
        "kernels": {"cold": kernels, "warm": warm_kernels},
        "store_bytes": store_bytes,
        "peak_rss_mb": peak_rss_mb(),
        "layers": {
            "phases": phases,
            "fallback_units": sum(fallbacks.values()),
            "optm": {key: optm_after[key] - optm_before[key]
                     for key in ("hits", "misses", "store_hits", "solved")},
        },
    }


def fleet_pass(inputs: Inputs, workdir: Path, checker: Checker,
               marks: dict) -> dict[str, Any]:
    from repro.sweeps import SweepStore, grid_summary_json, run_distributed

    grid, cells = inputs.grids[0]
    n_units = sum(c.spec.repeats for c in cells)
    timings: dict[int, float] = {}
    cpu_timings: dict[int, float] = {}
    starts: dict[int, float] = {}
    reports_by_workers: dict[int, list] = {}
    store = None
    for workers in (1, FLEET_WORKERS):
        store = SweepStore(workdir / f"fleet-{workers}")
        if workers == FLEET_WORKERS:
            kernels = [calibrate()]
            marks["cold_start"] = perf_counter()
        FLEET_TRACE["run"] = f"{workers}w"
        settle()
        starts[workers] = time.time()
        started = clocks()
        children = _children_cpu()
        run, reports = run_distributed(
            grid, store, workers=workers, cells=cells
        )
        with _span("sweeps.aggregate.summary"):
            summary = grid_summary_json(run)
        timings[workers], cpu = since(started)
        cpu_timings[workers] = cpu + _children_cpu() - children
        if workers == FLEET_WORKERS:
            marks["cold_end"] = perf_counter()
            kernels.append(calibrate())
        reports_by_workers[workers] = reports
        units, _ = store_digests(store, cells)
        checker.check_map("units", units)
        checker.check_map(
            "summaries", {grid.name: sha(summary)[:16]}, {grid.name: n_units}
        )
        workers_ok = [r for r in reports if "worker" in r]
        checker.require(
            len(workers_ok) == workers and len(workers_ok) == len(reports),
            f"{workers}-worker fleet: a worker failed: {reports}",
        )
        computed = sum(r["units_computed"] for r in workers_ok)
        checker.require(
            sum(r["tasks_stolen"] for r in workers_ok) == 0,
            f"{workers}-worker fleet stole a lease",
        )
        checker.require(
            computed == n_units,
            f"{workers}-worker fleet computed {computed} units for "
            f"{n_units} (useful ratio != 1)",
        )
    store_bytes = sum(p.stat().st_size for p in store.entry_paths())
    marks["warm_start"] = perf_counter()
    FLEET_TRACE["run"] = "warm"
    warm = []
    warm_kernels = [calibrate()]
    for _ in range(WARM_REPEATS):
        settle()
        started = clocks()
        children = _children_cpu()
        run, _ = run_distributed(
            grid, store, workers=FLEET_WORKERS, cells=cells
        )
        with _span("sweeps.aggregate.summary"):
            summary = grid_summary_json(run)
        wall, cpu = since(started)
        warm.append((wall, cpu + _children_cpu() - children))
        warm_kernels.append(calibrate())
        checker.check_map(
            "summaries", {grid.name: sha(summary)[:16]}, {grid.name: n_units}
        )
    marks["warm_end"] = perf_counter()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    fleet = [r for r in reports_by_workers[FLEET_WORKERS] if "worker" in r]
    return {
        "attempted": 2 * n_units,
        "cold_s": timings[FLEET_WORKERS],
        "cold_cpu_s": cpu_timings[FLEET_WORKERS],
        "cold_steps": total_steps(cells),
        "warm_s": [wall for wall, _ in warm],
        "warm_cpu_s": [cpu for _, cpu in warm],
        "kernels": {"cold": kernels, "warm": warm_kernels},
        "store_bytes": store_bytes,
        # Upper bound: the pass process plus every worker at the size of
        # the largest one (getrusage reports only the largest child).
        "peak_rss_mb": peak_rss_mb() + FLEET_WORKERS * usage,
        "scaling_eff": timings[1] / (FLEET_WORKERS * timings[FLEET_WORKERS]),
        "one_worker_s": timings[1],
        "layers": {
            "fleet": fleet,
            "fleet_wall_s": timings[FLEET_WORKERS],
            "fleet_started": starts[FLEET_WORKERS],
            "n_units": n_units,
        },
    }


def service_pass(inputs: Inputs, checker: Checker, marks: dict,
                 queue_waits: list | None) -> dict[str, Any]:
    result: dict[str, Any] = {}

    async def main() -> None:
        from repro.service import LOAD_DRIVERS, MetricSample

        sat = inputs.saturation
        await sat.start()
        result["kernels"] = [calibrate()]
        settle()
        started = clocks()
        marks["cold_start"] = started[0]
        ticks = await sat.drive()
        result["saturation_s"], result["saturation_cpu_s"] = since(started)
        result["kernels"].append(calibrate())
        result["saturation_ticks"] = ticks
        await sat.shutdown()

        ol = inputs.open_loop
        driver = LOAD_DRIVERS.build("replay")
        rates = {
            app_id: [float(x) for x in driver.rates(g, OPEN_LOOP_ROUNDS)]
            for app_id, g in ol.guardians.items()
        }
        await ol.start()
        settle()
        due: list[float] = []
        late: list[float] = []
        first = perf_counter() + ROUND_PERIOD_S
        for r in range(OPEN_LOOP_ROUNDS):
            when = first + r * ROUND_PERIOD_S
            delay = when - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(perf_counter() - when)
            due.append(when)
            for app_id, app_rates in rates.items():
                await ol.submit(
                    MetricSample(app=app_id, rps=app_rates[r], step=r)
                )
        await ol.join()
        marks["cold_end"] = perf_counter()
        await ol.shutdown()
        landed = ol.store.landed
        result["round_ms"] = [
            (max(landed[r]) - due[r]) * 1000.0
            for r in range(OPEN_LOOP_ROUNDS)
            if len(landed.get(r, ())) == len(rates)
        ]
        result["late_ms"] = [x * 1000.0 for x in late]

    asyncio.run(main())
    sat, ol = inputs.saturation, inputs.open_loop
    guardians = {**sat.guardians, **ol.guardians}
    ticks = {app_id: g.spec.n_steps for app_id, g in guardians.items()}
    checker.check_map(
        "guardians",
        {
            app_id: sha(json.dumps(g.result_payload(), sort_keys=True))[:16]
            for app_id, g in guardians.items()
        },
        ticks,
    )
    poisoned = [a for a, g in guardians.items() if g.error is not None]
    checker.require(not poisoned, f"poisoned guardians: {poisoned}")
    checker.require(
        len(result["round_ms"]) == OPEN_LOOP_ROUNDS,
        "open loop: some rounds never completed",
    )
    store = inputs.store
    store_bytes = sum(p.stat().st_size for p in store.entry_paths())
    marks["warm_start"] = perf_counter()
    warm, warm_kernels = _warm(inputs.grids, store, batch=False,
                               checker=checker)
    marks["warm_end"] = perf_counter()
    return {
        "attempted": sum(ticks.values()),
        "cold_s": result["saturation_s"],
        "cold_cpu_s": result["saturation_cpu_s"],
        "cold_steps": result["saturation_ticks"],
        "warm_s": [wall for wall, _ in warm],
        "warm_cpu_s": [cpu for _, cpu in warm],
        "kernels": {"cold": result["kernels"], "warm": warm_kernels},
        "store_bytes": store_bytes,
        "peak_rss_mb": peak_rss_mb(),
        "round_ms": result["round_ms"],
        "late_ms": result["late_ms"],
        "layers": {
            "poisoned": len(poisoned),
            "restarts": sum(g.restarts for g in guardians.values()),
            "queue_wait_ms": queue_waits or [],
        },
    }


# -- tracing hooks that need workload knowledge --------------------------------
def _instrument_service_queue(waits: list) -> None:
    """Time each sample from submit to the start of its tick."""
    from repro.service import Guardian, Orchestrator

    submitted: dict[tuple[str, int], float] = {}
    submit = Orchestrator.submit
    tick = Guardian.tick

    async def timed_submit(self, sample):
        submitted[(sample.app, sample.step)] = perf_counter()
        await submit(self, sample)

    def timed_tick(self, sample):
        t = submitted.pop((sample.app, sample.step), None)
        if t is not None:
            waits.append((perf_counter() - t) * 1000.0)
        return tick(self, sample)

    Orchestrator.submit = timed_submit
    Guardian.tick = timed_tick


#: Which fleet run the forked workers belong to (set before each start).
FLEET_TRACE: dict[str, str] = {"run": ""}


def _instrument_fleet_workers(trace_dir: Path) -> None:
    """Fleet workers are forked children: trace each and save its spans.

    ``run_distributed`` starts ``_worker_entry``, which calls the
    module-level ``run_worker``; this benchmark-owned entry replaces that
    name, resets the inherited tracer, calls the public ``run_worker``
    and writes the worker's span summary next to the store.
    """
    import repro.sweeps.distributed as distributed
    from tracing import TRACER

    public_run_worker = distributed.run_worker

    def bench_worker(*args, **kwargs):
        entered = time.time()
        TRACER.reset()
        start = perf_counter()
        report = public_run_worker(*args, **kwargs)
        end = perf_counter()
        out = trace_dir / f"{FLEET_TRACE['run']}-{os.getpid()}.json"
        out.write_text(json.dumps({
            "entered": entered,
            "seconds": end - start,
            "summary": TRACER.summary(start, end),
        }))
        return report

    distributed.run_worker = bench_worker


# -- entry point ----------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    started = clocks()
    import repro  # noqa: F401  (the timed import)

    import_s, import_cpu_s = since(started)
    args.workdir.mkdir(parents=True, exist_ok=True)
    trace = args.trace and args.mode == "pass"
    queue_waits: list | None = None
    trace_dir = args.workdir / "worker-traces"
    if trace:
        from tracing import TRACER, instrument

        instrument()
        if args.workload == "service_stream":
            queue_waits = []
            _instrument_service_queue(queue_waits)
        if args.workload == "dist_fleet":
            trace_dir.mkdir(parents=True, exist_ok=True)
            _instrument_fleet_workers(trace_dir)
    built = clocks()
    inputs = build_inputs(args.workload, args.seed, args.workdir)
    build_s, build_cpu_s = since(built)
    built, build_end = built[0], built[0] + build_s
    out: dict[str, Any] = {
        "import_s": import_s, "import_cpu_s": import_cpu_s,
        "build_s": build_s, "build_cpu_s": build_cpu_s,
        "setup_kernel": calibrate(),
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    checker = Checker(load_expected(args.workload, args.seed))
    marks: dict[str, float] = {}
    if args.workload == "service_stream":
        measured = service_pass(inputs, checker, marks, queue_waits)
    elif args.workload == "dist_fleet":
        measured = fleet_pass(inputs, args.workdir, checker, marks)
    else:
        measured = sweep_pass(
            args.workload, inputs, args.workdir, checker, marks
        )
    out.update(measured)
    out["failed"] = min(checker.failed, out["attempted"])
    out["problems"] = checker.problems
    out["observed"] = checker.observed
    out["marks"] = marks
    if trace:
        out["trace"] = {
            "setup": TRACER.summary(built, build_end),
            "cold": TRACER.summary(marks["cold_start"], marks["cold_end"]),
            "warm": TRACER.summary(marks["warm_start"], marks["warm_end"]),
        }
        if args.workload == "dist_fleet":
            out["trace"]["workers"] = [
                json.loads(p.read_text())
                for p in sorted(trace_dir.glob(f"{FLEET_WORKERS}w-*.json"))
            ]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
