"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``apps``
    List the registered prototype applications.
``run``
    Run PEMA against a simulated deployment and print the trajectory.
``optimum``
    Find the OPTM allocation for an app/workload (paper §4.2 definition).
``compare``
    PEMA vs OPTM vs RULE at one operating point (a Fig. 15 cell).
``experiment``
    Run declarative :class:`~repro.experiments.ExperimentSpec` JSON files
    (a single file, a directory, or a glob) — the spec-driven entry point
    to every scenario.
``sweep``
    Expand a :class:`~repro.sweeps.SweepGrid` JSON file and run every
    cell through the resumable, content-addressed sweep scheduler.
``serve``
    Run the always-on control plane (:mod:`repro.service`): register
    apps from spec files, stream a load driver through their
    autoscalers, expose decisions and manager state over HTTP, and
    flush state on graceful shutdown.
``trace``
    Filter and pretty-print ``decision_trace`` records — the per-step
    causal record of every autoscaler decision — from an artifact or
    unit-payload JSON file, or straight from a sweep/state store.
``registry``
    List every registered experiment kind (engines, autoscalers,
    workload traces, hooks, load drivers, state-store backends) with
    its one-line description — the discoverability surface behind the
    spec files.

``run``, ``compare``, ``experiment`` and ``sweep`` all execute through
the shared experiment runner, so the same spec reproduces the same
numbers from any entry point.
"""

from __future__ import annotations

import argparse
import glob as _glob
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.apps import app_names, build_app
from repro.baselines import OptimumSearch
from repro.core import FastReactionLoop
from repro.experiments import (
    AutoscalerSpec,
    ExperimentSpec,
    WorkloadSpec,
    build_unit,
    run_comparison,
    run_experiment,
    run_unit,
)
from repro.sim import AnalyticalEngine

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PEMA (HPDC '22) reproduction: practical efficient "
        "microservice autoscaling with QoS assurance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the prototype applications")

    desc = sub.add_parser("describe", help="show one application's topology")
    desc.add_argument("--app", default="sockshop", choices=app_names())
    desc.add_argument("--plan", default=None,
                      help="also show one request class's execution plan")

    run = sub.add_parser("run", help="run PEMA on a simulated deployment")
    _common_args(run)
    run.add_argument("--iterations", type=int, default=70)
    run.add_argument("--alpha", type=float, default=0.5)
    run.add_argument("--beta", type=float, default=0.3)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--every", type=int, default=5,
                     help="print every Nth interval")
    run.add_argument("--fast", action="store_true",
                     help="enable sub-interval violation mitigation (§6)")

    opt = sub.add_parser("optimum", help="search the OPTM allocation")
    _common_args(opt)
    opt.add_argument("--restarts", type=int, default=2)
    opt.add_argument("--deep", action="store_true",
                     help="enable pairwise redistribution beyond the "
                     "paper's single-coordinate definition")

    cmp_ = sub.add_parser("compare", help="PEMA vs OPTM vs RULE")
    _common_args(cmp_)
    cmp_.add_argument("--iterations", type=int, default=60)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--repeats", type=int, default=1,
                      help="PEMA seeds to average (Fig. 15 uses 3)")

    exp = sub.add_parser(
        "experiment", help="run declarative experiment specs (JSON files)"
    )
    exp.add_argument("--spec", required=True,
                     help="an ExperimentSpec JSON file, a directory of "
                     "them, or a glob pattern")
    exp.add_argument("--parallel", type=int, default=1,
                     help="worker processes for multi-seed specs")
    exp.add_argument("--out", default=None,
                     help="write the full artifact (spec + histories + "
                     "summary) to this JSON file (a directory when "
                     "--spec matches several files)")
    exp.add_argument("--compare", action="store_true",
                     help="also report the OPTM and RULE baselines "
                     "(a Fig. 15 cell)")

    swp = sub.add_parser(
        "sweep", help="run a sweep grid through the resumable scheduler"
    )
    swp.add_argument("--grid", required=True,
                     help="path to a SweepGrid JSON file")
    swp.add_argument("--parallel", type=int, default=1,
                     help="worker processes for the cell fan-out")
    swp.add_argument("--cache", default=None,
                     help="content-addressed result cache directory")
    swp.add_argument("--resume", action="store_true",
                     help="reuse completed cells already in --cache "
                     "(without it the sweep recomputes everything and "
                     "refreshes the cache)")
    swp.add_argument("--chunk-size", type=int, default=None,
                     help="units scheduled between persistence points "
                     "(default: 4x --parallel, 256x with --batch)")
    swp.add_argument("--batch", action=argparse.BooleanOptionalAction,
                     default=None,
                     help="evaluate compatible cells as vectorized NumPy "
                     "batches (byte-identical results; un-batchable cells "
                     "fall back to the scalar path and the fallback "
                     "reasons are reported; default: the "
                     "REPRO_SWEEP_BATCH environment variable)")
    swp.add_argument("--worker", action="store_true",
                     help="run as a distributed pull worker: claim task "
                     "chunks from the shared --cache directory (lease "
                     "files with heartbeat renewal), compute and persist "
                     "their units, and exit when the whole grid is done; "
                     "start N of these — processes or hosts sharing the "
                     "directory — to fan one sweep out")
    swp.add_argument("--coordinator", action="store_true",
                     help="wait until every unit of the grid is persisted "
                     "in --cache (computing nothing), then merge and "
                     "print the report — byte-identical to a serial run")
    swp.add_argument("--workers", type=int, default=0,
                     help="with --coordinator: also spawn this many local "
                     "worker processes before merging (a one-command "
                     "single-machine distributed run)")
    swp.add_argument("--worker-id", default=None,
                     help="this worker's id in lease files and reports "
                     "(default: <hostname>-<pid>)")
    swp.add_argument("--lease-ttl", type=float, default=None,
                     help="seconds before an unrenewed task lease counts "
                     "as stale and may be reclaimed by another worker "
                     "(default 30; must exceed the longest single unit "
                     "or batched group compute)")
    swp.add_argument("--wait-timeout", type=float, default=None,
                     help="with --coordinator: give up after this many "
                     "seconds with units still missing")
    swp.add_argument("--out", default=None,
                     help="write the aggregate summary (per-cell metrics) "
                     "to this JSON file")
    swp.add_argument("--report", default=None,
                     help="write the execution report (units, cache hits, "
                     "throughput) to this JSON file")
    swp.add_argument("--metrics-out", default=None,
                     help="write the process telemetry registry "
                     "(Prometheus text exposition) to this file after "
                     "the sweep")
    swp.add_argument("--profile", action="store_true",
                     help="print the per-phase wall-clock profile and "
                     "per-cell latency percentiles after the sweep")

    trc = sub.add_parser(
        "trace",
        help="filter and pretty-print captured decision traces",
    )
    src = trc.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="infile", default=None,
                     help="an artifact JSON, a unit-payload JSON, or a "
                     "tracer JSONL file holding the decision trace")
    src.add_argument("--store", default=None,
                     help="read the trace from this sweep/state store "
                     "directory instead of a file (needs --spec)")
    trc.add_argument("--spec", default=None,
                     help="with --store: the ExperimentSpec JSON file "
                     "whose unit entry holds the trace")
    trc.add_argument("--repeat", type=int, default=0,
                     help="repeat index to read (default 0)")
    trc.add_argument("--action", default=None,
                     help="only steps whose decision action matches "
                     "(e.g. reduce, explore, rollback, hold)")
    trc.add_argument("--violations", action="store_true",
                     help="only steps where the SLO was violated")
    trc.add_argument("--steps", default=None, metavar="A:B",
                     help="half-open step range to show (e.g. 10:20, "
                     "':50', '100:')")
    trc.add_argument("--jsonl", action="store_true",
                     help="emit matching records as JSON lines instead "
                     "of the table")

    srv = sub.add_parser(
        "serve", help="run the always-on autoscaling control plane"
    )
    srv.add_argument("--spec", required=True,
                     help="ExperimentSpec JSON file(s) to register as "
                     "apps: a file, a directory, or a glob")
    srv.add_argument("--steps", type=int, default=None,
                     help="ticks to stream per app (default: each "
                     "spec's full horizon)")
    srv.add_argument("--driver", default="replay",
                     help="load-driver kind (see: repro registry "
                     "--kind drivers)")
    srv.add_argument("--rps", type=float, default=None,
                     help="fixed offered load — shorthand for "
                     "--driver constant with this rate")
    srv.add_argument("--tick", type=float, default=0.0,
                     help="wall-clock seconds between interval rounds "
                     "(0 streams as fast as backpressure allows)")
    srv.add_argument("--queue-size", type=int, default=64,
                     help="per-app metric queue bound (the "
                     "backpressure boundary)")
    srv.add_argument("--store", default="memory",
                     help="state-store backend kind (see: repro "
                     "registry --kind state-stores)")
    srv.add_argument("--state-dir", default=None,
                     help="root for the directory backend (implies "
                     "--store directory; shares keys with the sweep "
                     "cache)")
    srv.add_argument("--snapshot-every", type=int, default=0,
                     help="persist a manager-state snapshot every N "
                     "ticks (0: only at shutdown)")
    srv.add_argument("--port", type=int, default=8422,
                     help="HTTP API port (0 picks an ephemeral port)")
    srv.add_argument("--no-http", action="store_true",
                     help="run without the HTTP API")
    srv.add_argument("--hold", action="store_true",
                     help="keep serving after the drive until "
                     "POST /shutdown or Ctrl-C")
    srv.add_argument("--out", default=None,
                     help="write the service run summary (status rows "
                     "+ flush report) to this JSON file")

    reg = sub.add_parser(
        "registry",
        help="list the registered experiment kinds and their descriptions",
    )
    reg.add_argument("--kind", default=None,
                     choices=["engines", "autoscalers", "workloads", "hooks",
                              "faults", "drivers", "state-stores"],
                     help="restrict the listing to one registry")
    reg.add_argument("--json", action="store_true",
                     help="emit the listing as JSON instead of a table")
    return parser


def _common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--app", default="sockshop", choices=app_names())
    sub.add_argument("--workload", type=float, default=None,
                     help="requests per second (default: the app's "
                     "reference workload)")


def _cmd_apps() -> int:
    print(f"{'app':20s} {'services':>8s} {'SLO_ms':>7s} {'ref_rps':>8s}")
    for name in app_names():
        app = build_app(name)
        print(f"{name:20s} {app.n_services:8d} {app.slo * 1000:7.0f} "
              f"{app.reference_workload:8.0f}")
    return 0


def _run_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The PEMA spec described by ``run``/``compare`` arguments."""
    app = build_app(args.app)
    workload = args.workload or app.reference_workload
    return ExperimentSpec(
        app=args.app,
        workload=WorkloadSpec.constant(workload),
        n_steps=args.iterations,
        autoscaler=AutoscalerSpec(
            "pema",
            {"alpha": getattr(args, "alpha", 0.5),
             "beta": getattr(args, "beta", 0.3)},
        ),
        seed=args.seed,
        repeats=getattr(args, "repeats", 1),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _run_spec(args)
    app = build_app(args.app)
    if args.fast:
        unit = build_unit(spec)
        loop = FastReactionLoop(unit.engine, unit.autoscaler, unit.trace,
                                interval=spec.interval)
        result = loop.run(spec.n_steps)
    else:
        unit = run_unit(spec)
        result = unit.result
    workload = spec.workload.params["rps"]
    print(f"# {args.app} @ {workload:.0f} rps, SLO {app.slo * 1000:.0f} ms, "
          f"alpha={args.alpha} beta={args.beta}"
          + (" (fast monitor)" if args.fast else ""))
    print("iter  total_cpu  p95_ms  violated")
    for record in result.records[:: max(args.every, 1)]:
        print(f"{record.step:4d}  {record.total_cpu:9.2f}  "
              f"{record.response * 1000:6.0f}  "
              f"{'x' if record.violated else ''}")
    print(f"\nsettled total CPU : {result.settled_total():.2f}")
    print(f"violations        : {result.violation_count()}"
          f"/{len(result)} intervals")
    if args.fast:
        print(f"violation exposure: {result.violation_exposure() * 100:.1f}% "
              f"of wall-clock time ({result.mitigations} fast mitigations)")
    return 0


def _cmd_optimum(args: argparse.Namespace) -> int:
    app = build_app(args.app)
    workload = args.workload or app.reference_workload
    engine = AnalyticalEngine(app)
    search = OptimumSearch(engine, restarts=args.restarts, deep=args.deep)
    result = search.find(workload)
    print(f"# OPTM for {args.app} @ {workload:.0f} rps "
          f"({result.evaluations} evaluations)")
    for name in app.service_names:
        print(f"  {name:20s} {result.allocation[name]:6.2f}")
    print(f"total CPU : {result.total_cpu:.2f}")
    print(f"latency   : {result.latency * 1000:.1f} ms "
          f"(SLO {app.slo * 1000:.0f} ms)")
    return 0


def _print_comparison(cell: dict[str, float], app_name: str) -> None:
    print(f"# {app_name} @ {cell['workload_rps']:.0f} rps")
    print(f"OPTM : {cell['optm_total']:7.2f} CPU")
    print(f"PEMA : {cell['pema_total']:7.2f} CPU  "
          f"({cell['pema_over_optm']:.2f}x optimum)")
    print(f"RULE : {cell['rule_total']:7.2f} CPU  "
          f"(PEMA saves {cell['pema_savings_vs_rule'] * 100:.0f}%)")


def _cmd_compare(args: argparse.Namespace) -> int:
    _print_comparison(run_comparison(_run_spec(args)), args.app)
    return 0


def _error(reason: object) -> int:
    print(f"error: {reason}", file=sys.stderr)
    return 2


def _reason(exc: BaseException) -> object:
    """An exception's message; KeyError's str() wraps it in quotes."""
    return exc.args[0] if isinstance(exc, KeyError) and exc.args else exc


def _spec_paths(pattern: str) -> list[Path]:
    """Expand ``--spec``: a file, a directory of specs, or a glob."""
    path = Path(pattern)
    if path.is_dir():
        return sorted(path.glob("*.json"))
    if any(ch in pattern for ch in "*?["):
        return [
            Path(match)
            for match in sorted(_glob.glob(pattern, recursive=True))
        ]
    return [path]


def _load_specs(pattern: str) -> list[tuple[Path, ExperimentSpec]] | int:
    """Read and validate every ``--spec`` file (an exit code on error)."""
    paths = _spec_paths(pattern)
    if not paths:
        return _error(f"no spec files match {pattern!r}")
    loaded: list[tuple[Path, ExperimentSpec]] = []
    for path in paths:
        try:
            spec = ExperimentSpec.from_json(path.read_text())
            spec.validate()
        except (OSError, TypeError, ValueError, KeyError) as exc:
            return _error(f"{path}: {_reason(exc)}")
        loaded.append((path, spec))
    return loaded


def _run_one_experiment(
    spec: ExperimentSpec, args: argparse.Namespace, out: Path | None
) -> int:
    try:
        artifact = run_experiment(spec, parallel=max(args.parallel, 1))
        summary = artifact.summary()
        print(f"# experiment {spec.name or '<unnamed>'}: {spec.app} x "
              f"{spec.workload.kind} x {spec.autoscaler.kind} "
              f"({spec.engine.kind} engine, {spec.repeats} seed(s))")
        print(json.dumps(summary, indent=2, sort_keys=True))
        if args.compare:
            _print_comparison(
                run_comparison(spec, pema_artifact=artifact), spec.app
            )
    except LookupError as exc:
        # E.g. a run with no SLO-satisfying interval has no settled total.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if out is not None:
        path = artifact.write(out)
        print(f"artifact written to {path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    loaded = _load_specs(args.spec)
    if isinstance(loaded, int):
        return loaded
    if args.compare:
        for path, spec in loaded:
            if spec.autoscaler.kind != "pema":
                return _error(f"{path}: --compare needs a pema spec")
    # With several specs, --out names a directory of per-spec artifacts.
    out_dir: Path | None = None
    if args.out and (len(loaded) > 1 or Path(args.out).is_dir()):
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            return _error(
                f"--out {args.out!r} must be a directory when --spec "
                f"matches several files"
            )
    status = 0
    used_names: dict[str, int] = {}
    for path, spec in loaded:
        out: Path | None = None
        if args.out:
            if out_dir is not None:
                # Same-stem specs from different directories must not
                # clobber each other's artifacts.
                stem = path.stem
                n = used_names[stem] = used_names.get(stem, 0) + 1
                name = stem if n == 1 else f"{stem}-{n}"
                out = out_dir / f"{name}.artifact.json"
            else:
                out = Path(args.out)
        status = max(status, _run_one_experiment(spec, args, out))
    return status


def _sweep_worker(args: argparse.Namespace, cells, store, batch: bool,
                  lease_ttl: float) -> int:
    """``repro sweep --worker``: one pull worker over the shared store."""
    from repro.sweeps.distributed import run_worker

    if args.out:
        return _error("--out needs the merged run: use --coordinator "
                      "(workers only compute and persist units)")

    def on_task(stage, task) -> None:
        if stage != "unit":
            print(f"[{stage}] {task.task_id} ({len(task.units)} units)",
                  flush=True)

    report = run_worker(
        [cell.spec for cell in cells],
        store,
        worker_id=args.worker_id,
        lease_ttl=lease_ttl,
        chunk_size=args.chunk_size,
        batch=batch,
        on_task=on_task,
    )
    print(f"worker {report.worker}: {report.tasks_claimed} task(s) claimed "
          f"({report.tasks_stolen} stolen), {report.units_computed} "
          f"computed, {report.units_cached} cached, {report.heartbeats} "
          f"heartbeat(s) in {report.seconds:.2f}s")
    if report.fallbacks:
        reasons = ", ".join(
            f"{reason} x{count}"
            for reason, count in sorted(report.fallbacks.items())
        )
        print(f"batch fallbacks: {reasons}")
    if args.metrics_out:
        from repro.obs import default_registry

        Path(args.metrics_out).write_text(default_registry().render())
        print(f"metrics written to {args.metrics_out}")
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"report written to {args.report}")
    return 0


def _sweep_coordinate(args: argparse.Namespace, grid, cells, store,
                      batch: bool, lease_ttl: float):
    """``repro sweep --coordinator``: spawn/await workers, then merge."""
    from repro.sweeps.distributed import run_distributed, wait_for_grid

    if args.workers:
        run, reports = run_distributed(
            grid,
            store,
            workers=args.workers,
            batch=batch,
            lease_ttl=lease_ttl,
            chunk_size=args.chunk_size,
            cells=cells,
        )
        for rep in reports:
            if "worker" not in rep:
                continue
            print(f"[worker {rep['worker']}] {rep['tasks_claimed']} task(s) "
                  f"claimed ({rep['tasks_stolen']} stolen), "
                  f"{rep['units_computed']} computed, "
                  f"{rep['units_cached']} cached in {rep['seconds']:.2f}s",
                  flush=True)
        return run

    last = [-1]

    def wait_progress(present: int, total: int) -> None:
        if present != last[0]:
            last[0] = present
            print(f"[coordinator] {present}/{total} units present",
                  flush=True)

    return wait_for_grid(
        grid,
        store,
        timeout=args.wait_timeout,
        cells=cells,
        on_progress=wait_progress,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweeps import (
        DEFAULT_LEASE_TTL,
        SweepGrid,
        SweepStore,
        cells_table,
        grid_summary_json,
        run_grid,
    )
    from repro.sweeps.batched import batch_from_env as env_batch_default

    try:
        grid = SweepGrid.read(args.grid)
        cells = grid.cells()  # expand once: validation, counting, the run
        for cell in cells:
            cell.spec.validate()
    except (OSError, TypeError, ValueError, KeyError) as exc:
        return _error(_reason(exc))
    if args.resume and not args.cache:
        return _error("--resume needs --cache")
    if args.parallel < 1:
        return _error("--parallel must be >= 1")
    if args.chunk_size is not None and args.chunk_size < 1:
        return _error("--chunk-size must be >= 1")
    if args.worker and args.coordinator:
        return _error("--worker and --coordinator are mutually exclusive")
    if (args.worker or args.coordinator) and not args.cache:
        return _error("--worker/--coordinator need --cache (the shared "
                      "store is the work queue)")
    if args.workers and not args.coordinator:
        return _error("--workers needs --coordinator")
    if args.workers < 0:
        return _error("--workers must be >= 0")
    if args.lease_ttl is not None and args.lease_ttl <= 0:
        return _error("--lease-ttl must be > 0")
    lease_ttl = (
        args.lease_ttl if args.lease_ttl is not None else DEFAULT_LEASE_TTL
    )
    store = SweepStore(args.cache) if args.cache else None
    batch = args.batch if args.batch is not None else env_batch_default()
    units = sum(cell.spec.repeats for cell in cells)
    print(f"# sweep {grid.name}: {len(cells)} cells, {units} units"
          + (", batched" if batch else "")
          + (f", cache {store.root}" if store is not None else ""))

    if args.worker:
        return _sweep_worker(args, cells, store, batch, lease_ttl)

    from repro.experiments import optimum_cache_info

    optimum_start = optimum_cache_info()

    def optimum_delta() -> dict:
        now = optimum_cache_info()
        return {k: now[k] - optimum_start[k]
                for k in ("hits", "misses", "store_hits", "solved")}

    def progress(p) -> None:
        optm = optimum_delta()
        optm_note = (
            f", optm {optm['solved']} solved/"
            f"{optm['hits'] + optm['store_hits']} cached"
            if any(optm.values()) else ""
        )
        fallback_note = (
            ", fallbacks " + " ".join(
                f"{reason}:{count}"
                for reason, count in sorted(p.fallbacks.items())
            )
            if p.fallbacks else ""
        )
        print(f"[chunk {p.chunk}/{p.n_chunks}] {p.completed}/{p.total} "
              f"units done ({p.cached} cached, {p.computed} computed, "
              f"{p.cells_completed}/{p.cells_total} cells{optm_note}"
              f"{fallback_note})",
              flush=True)

    try:
        if args.coordinator:
            run = _sweep_coordinate(
                args, grid, cells, store, batch, lease_ttl
            )
        else:
            run = run_grid(
                grid,
                store=store,
                reuse=args.resume,
                parallel=args.parallel,
                chunk_size=args.chunk_size,
                batch=batch,
                on_progress=progress,
                cells=cells,
            )
        print()
        print(cells_table(run))
        summary_json = grid_summary_json(run)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = run.report
    split = (
        f" ({report.batched_units} batched, {report.scalar_units} scalar)"
        if batch else ""
    )
    print(f"\n{report.units} units: {report.cache_hits} cached, "
          f"{report.computed} computed{split} in {report.chunks} chunk(s), "
          f"{report.seconds:.2f}s ({report.units_per_sec:.2f} units/s)")
    if report.fallbacks:
        reasons = ", ".join(
            f"{reason} x{count}"
            for reason, count in report.fallbacks.items()
        )
        print(f"batch fallbacks: {reasons}")
    if report.replay_units or report.manager_states:
        print(f"replay: {report.replay_units} trace-replay unit(s), "
              f"{report.manager_states} manager-state payload(s) captured")
    if any(report.optimum.values()):
        optm = report.optimum
        print(f"optimum searches: {optm['solved']} solved, "
              f"{optm['hits']} cache hits, {optm['store_hits']} "
              f"store-backed, {optm['misses']} misses")
    if args.profile and report.profile:
        phases = report.profile.get("phases", {})
        cell = report.profile.get("cell_seconds", {})
        phase_note = " ".join(
            f"{name}={phases[name]:.3f}s"
            for name in ("plan", "load", "run", "persist", "aggregate")
            if name in phases
        )
        print(f"profile: {phase_note}")
        print(f"worker time: {report.profile.get('batched_seconds', 0.0):.3f}s"
              f" batched, {report.profile.get('scalar_seconds', 0.0):.3f}s "
              f"scalar")
        if cell.get("count"):
            print(f"per-cell latency: p50 {cell['p50'] * 1000:.1f} ms, "
                  f"p95 {cell['p95'] * 1000:.1f} ms "
                  f"({cell['count']} computed cells)")
    if args.metrics_out:
        from repro.obs import default_registry

        Path(args.metrics_out).write_text(default_registry().render())
        print(f"metrics written to {args.metrics_out}")
    if args.out:
        Path(args.out).write_text(summary_json + "\n")
        print(f"aggregate written to {args.out}")
    if args.report:
        payload = report.to_dict()
        if store is not None:
            payload["store"] = store.stats.to_dict()
        Path(args.report).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"report written to {args.report}")
    return 0


def _load_service_specs(
    pattern: str,
) -> list[tuple[str, ExperimentSpec]] | int:
    """``serve --spec`` expansion: validated (app_id, spec) pairs.

    App ids come from the spec's name (or the file stem for unnamed
    specs); same-id collisions get ``-2``/``-3`` suffixes so every
    matched file registers.
    """
    loaded = _load_specs(pattern)
    if isinstance(loaded, int):
        return loaded
    apps: list[tuple[str, ExperimentSpec]] = []
    used: dict[str, int] = {}
    for path, spec in loaded:
        base = spec.name or path.stem
        n = used[base] = used.get(base, 0) + 1
        apps.append((base if n == 1 else f"{base}-{n}", spec))
    return apps


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        LOAD_DRIVERS,
        STATE_STORES,
        ServiceError,
        ServiceRuntime,
        ServiceStateStore,
    )

    apps = _load_service_specs(args.spec)
    if isinstance(apps, int):
        return apps
    if args.queue_size < 1:
        return _error("--queue-size must be >= 1")
    if args.snapshot_every < 0:
        return _error("--snapshot-every must be >= 0")
    try:
        if args.rps is not None:
            driver = LOAD_DRIVERS.build("constant", rps=args.rps)
        else:
            driver = LOAD_DRIVERS.build(args.driver)
        store_kind = "directory" if args.state_dir else args.store
        if store_kind == "directory":
            if not args.state_dir:
                return _error("--store directory needs --state-dir")
            backend = STATE_STORES.build("directory", root=args.state_dir)
        else:
            backend = STATE_STORES.build(store_kind)
    except (KeyError, TypeError, ValueError) as exc:
        return _error(_reason(exc))

    runtime = ServiceRuntime(
        store=ServiceStateStore(backend, snapshot_every=args.snapshot_every),
        queue_size=args.queue_size,
        http=not args.no_http,
        port=args.port,
    )
    try:
        runtime.start()
    except OSError as exc:  # e.g. port already bound
        return _error(exc)
    try:
        for app_id, spec in apps:
            runtime.register(spec, app_id=app_id)
        print(f"# repro.service: {len(apps)} app(s)"
              + (f", listening on {runtime.url}" if runtime.url else ""))
        try:
            submitted = runtime.drive(
                args.steps, driver=driver, tick=args.tick
            )
            print(f"streamed {submitted} tick(s)")
            if args.hold:
                print("holding: POST /shutdown (or Ctrl-C) to stop")
                runtime.wait_shutdown_requested()
        except KeyboardInterrupt:
            print("\ninterrupted: draining and flushing state")
    except ServiceError as exc:
        runtime.shutdown()
        return _error(exc)
    status = runtime.status()
    flush = runtime.shutdown()
    print(f"\n{'app':24s} {'status':>8s} {'steps':>6s} {'done':>5s} "
          f"{'viol':>5s} {'unit':>5s} {'rst':>3s} {'p50ms':>7s} "
          f"{'p95ms':>7s} {'qpeak':>5s}  error")
    for row in status["apps"]:
        entry = flush.get(row["app"], {})
        p50 = row.get("tick_p50_ms")
        p95 = row.get("tick_p95_ms")
        print(f"{row['app']:24s} {row.get('status', 'ok'):>8s} "
              f"{row['steps_done']:6d} "
              f"{'yes' if row['complete'] else 'no':>5s} "
              f"{row['violations']:5d} "
              f"{'yes' if entry.get('unit_entry') else 'no':>5s} "
              f"{row.get('restarts', 0):3d} "
              f"{'-' if p50 is None else format(p50, '.2f'):>7s} "
              f"{'-' if p95 is None else format(p95, '.2f'):>7s} "
              f"{row.get('queue_peak', 0):5d}  "
              f"{row['error'] or ''}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"status": status, "flush": flush}, indent=2, sort_keys=True,
        ) + "\n")
        print(f"summary written to {args.out}")
    return 1 if any(row["error"] for row in status["apps"]) else 0


def _parse_step_range(raw: str | None) -> tuple[int | None, int | None]:
    """``--steps A:B`` as a half-open range; either side may be empty."""
    if raw is None:
        return None, None
    lo_s, sep, hi_s = raw.partition(":")
    if not sep:
        raise ValueError(f"--steps must look like A:B, got {raw!r}")
    try:
        lo = int(lo_s) if lo_s else None
        hi = int(hi_s) if hi_s else None
    except ValueError:
        raise ValueError(f"--steps bounds must be integers: {raw!r}") from None
    return lo, hi


def _load_trace_records(args: argparse.Namespace) -> list[dict]:
    """Resolve the ``trace`` command's source into decision records.

    Accepts, in order of detection: an ExperimentArtifact JSON (the
    ``decision_traces`` channel, picked by ``--repeat``), a raw unit
    payload (``decision_trace``), a bare JSON list of records, or a
    tracer JSONL file (one record per line; ``decision`` events are
    unwrapped, other span/event records pass through).
    """
    if args.store is not None:
        if not args.spec:
            raise ValueError("--store needs --spec to name the unit")
        from repro.sweeps import SweepStore

        spec = ExperimentSpec.from_json(Path(args.spec).read_text())
        payload = SweepStore(args.store).get_result(spec, args.repeat)
        if payload is None:
            raise LookupError(
                f"no unit entry for {args.spec} repeat {args.repeat} "
                f"in {args.store}"
            )
        trace = payload.get("decision_trace")
        if trace is None:
            raise LookupError(
                "unit entry has no decision_trace — was the spec run "
                'with "capture": ["decision_trace"]?'
            )
        return list(trace)

    path = Path(args.infile)
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        from repro.obs.trace import read_jsonl

        records = read_jsonl(path)
        return [
            rec["data"]
            if rec.get("type") == "event" and rec.get("name") == "decision"
            else rec
            for rec in records
        ]
    if isinstance(data, list):
        return list(data)
    if isinstance(data, dict):
        if "decision_traces" in data:
            traces = data["decision_traces"]
            if not 0 <= args.repeat < len(traces):
                raise LookupError(
                    f"artifact holds {len(traces)} trace(s), "
                    f"--repeat {args.repeat} is out of range"
                )
            trace = traces[args.repeat]
            if trace is None:
                raise LookupError(f"repeat {args.repeat} captured no trace")
            return list(trace)
        if "decision_trace" in data:
            return list(data["decision_trace"])
    raise LookupError(
        f"{path}: no decision trace found (expected an artifact with "
        f"decision_traces, a unit payload with decision_trace, a JSON "
        f"list of records, or tracer JSONL)"
    )


def _trace_action(record: dict) -> str:
    """The decision's action slug ('' when the unit captured none)."""
    decision = record.get("decision")
    if not isinstance(decision, dict):
        return ""
    inner = decision.get("pema")
    if isinstance(inner, dict) and "action" in inner:
        return str(inner["action"])
    return str(decision.get("action", ""))


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        lo, hi = _parse_step_range(args.steps)
        records = _load_trace_records(args)
    except (OSError, ValueError, LookupError, KeyError, TypeError) as exc:
        return _error(_reason(exc))
    selected = []
    for record in records:
        step = record.get("step")
        if lo is not None and (step is None or step < lo):
            continue
        if hi is not None and (step is None or step >= hi):
            continue
        if args.violations and not record.get("violated"):
            continue
        if args.action and _trace_action(record) != args.action:
            continue
        selected.append(record)
    if args.jsonl:
        for record in selected:
            print(json.dumps(record, sort_keys=True))
        return 0
    print(f"# {len(selected)}/{len(records)} decision record(s)")
    print(f"{'step':>5s} {'rps':>8s} {'p95_ms':>7s} {'slo_ms':>7s} "
          f"{'viol':>4s} {'cpu':>8s} {'next':>8s}  action")
    for record in selected:
        if "workload" not in record:
            # A non-decision tracer record (span/other event): show raw.
            print(json.dumps(record, sort_keys=True))
            continue
        action = _trace_action(record)
        decision = record.get("decision") or {}
        inner = decision.get("pema") if isinstance(decision, dict) else None
        detail = inner if isinstance(inner, dict) else decision
        notes = []
        if isinstance(detail, dict):
            if detail.get("targets"):
                notes.append("targets=" + ",".join(detail["targets"]))
            if detail.get("delta"):
                notes.append(f"delta={detail['delta']:.3f}")
        if isinstance(decision, dict) and decision.get("phase"):
            notes.append(f"phase={decision['phase']}")
        print(f"{record['step']:5d} {record['workload']:8.1f} "
              f"{record['response'] * 1000:7.1f} {record['slo'] * 1000:7.1f} "
              f"{'x' if record['violated'] else '':>4s} "
              f"{record['total_cpu']:8.2f} {record['next_total_cpu']:8.2f}  "
              f"{action or '-'}"
              + (f" ({' '.join(notes)})" if notes else ""))
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    from repro.experiments import AUTOSCALERS, ENGINES, HOOKS, WORKLOADS
    from repro.faults import FAULTS
    from repro.service import LOAD_DRIVERS, STATE_STORES

    registries = {
        "engines": ENGINES,
        "autoscalers": AUTOSCALERS,
        "workloads": WORKLOADS,
        "hooks": HOOKS,
        "faults": FAULTS,
        "drivers": LOAD_DRIVERS,
        "state-stores": STATE_STORES,
    }
    if args.kind is not None:
        registries = {args.kind: registries[args.kind]}
    if args.json:
        print(json.dumps(
            {
                group: dict(registry.entries())
                for group, registry in registries.items()
            },
            indent=2, sort_keys=True,
        ))
        return 0
    for i, (group, registry) in enumerate(registries.items()):
        if i:
            print()
        print(f"{group} ({registry.label}):")
        for name, description in registry.entries():
            print(f"  {name:22s} {description}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.apps.describe import describe_app, describe_plan

    app = build_app(args.app)
    print(describe_app(app))
    if args.plan is not None:
        print()
        print(describe_plan(app, args.plan))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "apps":
        return _cmd_apps()
    if args.command == "describe":
        return _cmd_describe(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "optimum":
        return _cmd_optimum(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "registry":
        return _cmd_registry(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
