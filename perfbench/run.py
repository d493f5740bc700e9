"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload replay_batched --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (plus the tracing overhead against an untraced
pass).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable table and the host fingerprint.  ``--out FILE``
also writes the whole result set, host included, for
``perfbench/compare.py``.

Every timed pass runs in a fresh interpreter (``perfbench/workloads.py``)
against a fresh store directory under ``.perfbench_tmp/``, which is
removed on exit.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS, merge_summaries  # noqa: E402
from workloads import KERNEL_REF_S, WORKLOADS  # noqa: E402

#: Timed passes per run: at least this many, more while ``--seconds``
#: has not elapsed.
MIN_PASSES = 2
#: Set-up samples per run (each pass contributes one).
SETUP_SAMPLES = 3
#: Seconds one child interpreter may take before the run is abandoned.
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "cold_steps_per_s": "1/s",
    "warm_s": "s",
    "store_mb": "MB",
    "peak_rss_mb": "MB",
}

DECIDE_FAMILIES = ("pema", "workload_aware_pema", "rule", "pid", "brownout")


class BenchError(RuntimeError):
    pass


# -- host -------------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _filesystem(path: Path) -> str:
    """The type of the mount that holds ``path`` (longest mount prefix)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        point = parts[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, kind = point, parts[2]
    return kind


def host_fingerprint(workdir: Path) -> dict[str, Any]:
    env = {**os.environ, "PYTHONPATH": "src"}
    versions = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy;"
         "print(json.dumps([numpy.__version__, scipy.__version__]))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    numpy_v, scipy_v = (
        json.loads(versions.stdout) if versions.returncode == 0
        else ["unknown", "unknown"]
    )
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_v,
        "scipy": scipy_v,
        "store_fs": _filesystem(workdir),
    }


# -- children ---------------------------------------------------------------------
def child(mode: str, workload: str, seed: int, workdir: Path,
          trace: bool = False) -> dict[str, Any]:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} timed out") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} pass of {workload} exited {proc.returncode}:\n"
            f"{proc.stderr[-4000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} pass of {workload} printed nothing")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- one workload -------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tmp: Path) -> dict[str, Any]:
    counter = itertools.count()

    def workdir() -> Path:
        return tmp / f"{workload}-{next(counter)}"

    passes: list[dict[str, Any]] = []
    setups: list[dict[str, Any]] = []
    traced: dict[str, Any] | None = None
    started = time.monotonic()
    if trace:
        passes.append(child("pass", workload, seed, workdir()))
        traced = child("pass", workload, seed, workdir(), trace=True)
    else:
        while (len(passes) < MIN_PASSES
               or time.monotonic() - started < seconds):
            if passes:
                # Set-up samples alternate with passes so that a slow
                # spell of the host does not fall on all of them at once.
                setups.append(child("setup", workload, seed, workdir()))
            passes.append(child("pass", workload, seed, workdir()))
    setups += passes
    while len(setups) < SETUP_SAMPLES:
        setups.append(child("setup", workload, seed, workdir()))

    every = passes + ([traced] if traced else [])
    problems = sorted({msg for p in every for msg in p["problems"]})
    if traced is not None and traced["observed"] != passes[0]["observed"]:
        problems.append("traced pass produced different output digests")
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(every),
        "correct": not problems,
        "problems": problems,
        "attempted": sum(p["attempted"] for p in every),
        "failed": sum(p["failed"] for p in every),
        "end_to_end": end_to_end(passes, setups),
        "extra": extra_metrics(workload, passes),
    }
    if traced is not None:
        result["per_layer"] = per_layer(workload, traced, passes[0], setups)
    return result


def at_ref(cpu_s: float, *kernels: float) -> float:
    """CPU seconds scaled to the reference host speed.

    ``kernels`` are the calibration kernel's CPU times taken right
    around the region (``workloads.calibrate``).
    """
    return cpu_s * KERNEL_REF_S / statistics.mean(kernels)


def setup_at_ref(s) -> float:
    return at_ref(s["import_cpu_s"] + s["build_cpu_s"], s["setup_kernel"])


def cold_at_ref(p) -> float:
    return at_ref(p["cold_cpu_s"], *p["kernels"]["cold"])


def warm_at_ref(p) -> float:
    """Median warm re-run; re-run ``i`` lies between kernels i and i+1."""
    k = p["kernels"]["warm"]
    return median([at_ref(cpu, k[i], k[i + 1])
                   for i, cpu in enumerate(p["warm_cpu_s"])])


def end_to_end(passes, setups) -> dict[str, float]:
    """The gated metrics.  Timings are CPU seconds at reference speed.

    The reference host is a few vCPUs of a shared machine.  Wall time
    there measures how much of the machine other tenants take (it
    doubled under contention), so every timing is the pass process's
    CPU time, which leaves out time the process waited for a core.
    The per-core speed also drifts, by tens of percent over minutes, so
    each timing is scaled by a calibration kernel timed beside it
    (``at_ref``).  Every timed region is single-threaded and does no
    blocking I/O beyond the page cache; the table prints the raw CPU and
    wall-clock figures beside.
    """
    return {
        "setup_s": median([setup_at_ref(s) for s in setups]),
        "cold_steps_per_s": median(
            [p["cold_steps"] / cold_at_ref(p) for p in passes]),
        "warm_s": median([warm_at_ref(p) for p in passes]),
        "store_mb": median([p["store_bytes"] / 1e6 for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }


def extra_metrics(workload: str, passes) -> dict[str, tuple[float, str]]:
    """Workload-specific figures printed beside the end-to-end table."""
    out: dict[str, tuple[float, str]] = {
        "cold_cpu_s": (median([p["cold_cpu_s"] for p in passes]), "s"),
        "cold_wall_s": (median([p["cold_s"] for p in passes]), "s"),
        "cold_wall_steps_per_s": (median(
            [p["cold_steps"] / p["cold_s"] for p in passes]), "1/s"),
        "warm_cpu_s": (median([median(p["warm_cpu_s"]) for p in passes]),
                       "s"),
        "warm_wall_s": (median([median(p["warm_s"]) for p in passes]), "s"),
        "kernel_ms": (1000.0 * median(
            [k for p in passes for k in p["kernels"]["cold"]]), "ms"),
    }
    if workload == "service_stream":
        rounds = [x for p in passes for x in p["round_ms"]]
        late = [x for p in passes for x in p["late_ms"]]
        out.update({
            "ticks_per_s": (median(
                [p["cold_steps"] / p["cold_s"] for p in passes]), "1/s"),
            "round_p50_ms": (percentile(rounds, 50), "ms"),
            "round_p99_ms": (percentile(rounds, 99), "ms"),
            "round_samples": (float(len(rounds)), "count"),
            "late_p99_ms": (percentile(late, 99), "ms"),
        })
    if workload == "dist_fleet":
        out["scaling_eff"] = (
            median([p["scaling_eff"] for p in passes]), "ratio")
        out["one_worker_s"] = (
            median([p["one_worker_s"] for p in passes]), "s")
    return out


def per_layer(workload: str, traced, plain, setups) -> dict[str, float]:
    cold = traced["trace"]["cold"]
    warm = traced["trace"]["warm"]
    layers = traced["layers"]
    workers = traced["trace"].get("workers", [])
    # Fleet workers are separate processes; their spans join the parent's.
    merged = merge_summaries([cold] + [w["summary"] for w in workers])
    names = merged["names"]

    def get(name: str, key: str, table=names) -> float:
        return float(table.get(name, {}).get(key, 0.0))

    m: dict[str, float] = {
        "setup.import_s": median(
            [at_ref(s["import_cpu_s"], s["setup_kernel"]) for s in setups]),
        "setup.build_s": median(
            [at_ref(s["build_cpu_s"], s["setup_kernel"]) for s in setups]),
    }
    for name, prefix in (
        ("workload.rate_schedule", "workload.rate_schedule"),
        ("sim.engine.observe", "sim.engine.observe"),
        ("sim.batched.observe", "sim.batched.observe"),
        ("sim.des.observe", "sim.des.observe"),
        ("experiments.build_unit", "experiments.build_unit"),
        ("service.tick", "service.tick"),
    ):
        m[f"{prefix}_calls"] = get(name, "calls")
        m[f"{prefix}_s"] = get(name, "total_s")
    if workload == "service_stream":
        setup_names = traced["trace"]["setup"]["names"]
        m["experiments.build_unit_calls"] += get(
            "experiments.build_unit", "calls", setup_names)
        m["experiments.build_unit_s"] += get(
            "experiments.build_unit", "total_s", setup_names)
    calls = get("sim.batched.observe", "calls")
    m["sim.batched.cells_per_call"] = (
        get("sim.batched.observe", "count") / calls if calls else 0.0)
    m["core.decide_calls"] = 0.0
    m["core.decide_s"] = 0.0
    for name, row in names.items():
        if name.startswith("core.decide."):
            m["core.decide_calls"] += row["outer_calls"]
            m["core.decide_s"] += row["outer_s"]
    for family in DECIDE_FAMILIES:
        m[f"core.decide.{family}_calls"] = get(
            f"core.decide.{family}", "outer_calls")
        m[f"core.decide.{family}_s"] = get(f"core.decide.{family}", "outer_s")
    m["core.batch.step_s"] = get("core.batch.step", "total_s")
    m["baselines.rule.batch_step_s"] = get(
        "baselines.rule.batch_step", "total_s")
    m["baselines.optm.solves"] = get("baselines.optm.solve", "count")
    m["baselines.optm.solve_s"] = get("baselines.optm.solve", "total_s")
    optm = layers.get("optm", {})
    lookups = optm.get("hits", 0) + optm.get("misses", 0)
    m["baselines.optm.cache_hit_ratio"] = (
        optm.get("hits", 0) / lookups if lookups else 0.0)
    m["experiments.run_unit_s"] = get("experiments.run_unit", "total_s")
    m["experiments.payload_s"] = get("experiments.payload", "total_s")
    m["experiments.artifact_s"] = get("experiments.artifact", "total_s")
    m["sweeps.batched.groups"] = get("sweeps.batched.group", "calls")
    m["sweeps.batched.group_s"] = get("sweeps.batched.group", "total_s")
    m["sweeps.batched.self_s"] = get("sweeps.batched.group", "self_s")
    m["sweeps.batched.fallback_units"] = float(layers.get("fallback_units", 0))
    m["sweeps.store.puts"] = get("sweeps.store.put", "calls")
    m["sweeps.store.put_s"] = get("sweeps.store.put", "total_s")
    m["sweeps.store.put_bytes"] = get("sweeps.store.put", "count")
    gets = get("sweeps.store.get", "calls")
    m["sweeps.store.gets"] = gets
    m["sweeps.store.get_s"] = get("sweeps.store.get", "total_s")
    m["sweeps.store.hit_ratio"] = (
        get("sweeps.store.get", "count") / gets if gets else 0.0)
    m["sweeps.aggregate.summary_s"] = get("sweeps.aggregate.summary", "total_s")
    for phase in ("plan", "load", "run", "persist", "aggregate"):
        m[f"sweeps.scheduler.phase_{phase}_s"] = float(
            layers.get("phases", {}).get(phase, 0.0))
    m.update(_fleet_layers(workload, traced, plain, names, workers))
    m.update(_service_layers(workload, traced, plain, names))
    cold_wall = traced["marks"]["cold_end"] - traced["marks"]["cold_start"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = float(merged["layers"].get(layer, 0.0))
    # Only the parent's spans lie on its wall clock; fleet workers run
    # beside it, so their time is reported as busy/idle instead.
    m["unattributed_s"] = cold_wall - sum(cold["layers"].values())
    warm_wall = traced["marks"]["warm_end"] - traced["marks"]["warm_start"]
    wn = warm["names"]
    m["warm.unattributed_s"] = warm_wall - sum(warm["layers"].values())
    m["warm.store.gets"] = get("sweeps.store.get", "calls", wn)
    m["warm.store.get_s"] = get("sweeps.store.get", "total_s", wn)
    m["warm.artifact_s"] = get("experiments.artifact", "total_s", wn)
    m["warm.aggregate.summary_s"] = get(
        "sweeps.aggregate.summary", "total_s", wn)
    # CPU seconds at reference speed, like the end-to-end timings.
    # Signed on purpose: a traced pass that beats the plain one shows
    # that the overhead is below the run-to-run noise.
    m["trace.cold_s"] = cold_at_ref(traced)
    m["trace.untraced_cold_s"] = cold_at_ref(plain)
    m["trace.overhead_s"] = m["trace.cold_s"] - m["trace.untraced_cold_s"]
    m["trace.overhead_pct"] = (
        100.0 * m["trace.overhead_s"] / m["trace.untraced_cold_s"])
    return m


def _fleet_layers(workload, traced, plain, names, workers) -> dict:
    keys = ("claims", "steals", "waits", "heartbeats", "units_computed",
            "useful_ratio", "worker_busy_s", "idle_s", "spawn_s", "merge_s",
            "scaling_eff")
    m = {f"sweeps.distributed.{k}": 0.0 for k in keys}
    if workload != "dist_fleet":
        return m
    fleet = traced["layers"]["fleet"]
    computed = sum(r["units_computed"] for r in fleet)
    busy = sum(sum(w["summary"]["layers"].values()) for w in workers)
    m.update({
        "sweeps.distributed.claims": sum(r["tasks_claimed"] for r in fleet),
        "sweeps.distributed.steals": sum(r["tasks_stolen"] for r in fleet),
        "sweeps.distributed.waits": sum(r["waits"] for r in fleet),
        "sweeps.distributed.heartbeats": sum(r["heartbeats"] for r in fleet),
        "sweeps.distributed.units_computed": computed,
        "sweeps.distributed.useful_ratio": (
            traced["layers"]["n_units"] / computed if computed else 0.0),
        "sweeps.distributed.worker_busy_s": busy,
        "sweeps.distributed.idle_s": sum(w["seconds"] for w in workers) - busy,
        "sweeps.distributed.spawn_s": (
            min(w["entered"] for w in workers)
            - traced["layers"]["fleet_started"]) if workers else 0.0,
        "sweeps.distributed.merge_s": float(
            names.get("sweeps.distributed.merge", {}).get("total_s", 0.0)),
        "sweeps.distributed.scaling_eff": plain["scaling_eff"],
    })
    return {k: float(v) for k, v in m.items()}


def _service_layers(workload, traced, plain, names) -> dict:
    keys = ("service.observe_s", "service.record_s",
            "service.queue_wait_p50_ms", "service.queue_wait_p99_ms",
            "service.poisoned", "service.restarts", "service.ticks_per_s",
            "service.round_p50_ms", "service.round_p99_ms",
            "loadgen.late_p99_ms", "loadgen.late_max_ms")
    m = dict.fromkeys(keys, 0.0)
    if workload != "service_stream":
        return m
    waits = traced["layers"]["queue_wait_ms"]
    m.update({
        "service.observe_s": float(
            names.get("service.observe", {}).get("total_s", 0.0)),
        "service.record_s": float(
            names.get("service.record", {}).get("total_s", 0.0)),
        "service.queue_wait_p50_ms": percentile(waits, 50),
        "service.queue_wait_p99_ms": percentile(waits, 99),
        "service.poisoned": float(traced["layers"]["poisoned"]),
        "service.restarts": float(traced["layers"]["restarts"]),
        "service.ticks_per_s": plain["cold_steps"] / plain["cold_s"],
        "service.round_p50_ms": percentile(plain["round_ms"], 50),
        "service.round_p99_ms": percentile(plain["round_ms"], 99),
        "loadgen.late_p99_ms": percentile(plain["late_ms"], 99),
        "loadgen.late_max_ms": max(plain["late_ms"], default=0.0),
    })
    return m


# -- reporting ---------------------------------------------------------------------
def metric_block(result: dict[str, Any]) -> dict[str, dict[str, Any]]:
    if result["trace"]:
        return {name: {"value": value, "unit": layer_unit(name)}
                for name, value in result["per_layer"].items()}
    return {name: {"value": value, "unit": END_TO_END[name]}
            for name, value in result["end_to_end"].items()}


def layer_unit(name: str) -> str:
    """A per-layer metric's unit, from its name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_pct", "%"), ("ratio", "ratio"), ("_eff", "ratio"),
                         ("cells_per_call", "ratio"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def print_table(result: dict[str, Any]) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} passes={result['passes']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for problem in result["problems"]:
        print(f"   problem: {problem}")
    for name, metric in metric_block(result).items():
        print(f"   {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    if not result["trace"]:
        for name, (value, unit) in result["extra"].items():
            print(f"   ({name:<38} {value:>14.6g} {unit})")


def preflight() -> None:
    needed = [Path("src/repro/__init__.py"),
              Path("benchmarks/grids/replay_diurnal.json"),
              HERE / "digests.json"]
    missing = [str(p) for p in needed if not p.exists()]
    if missing:
        raise BenchError(
            "run from the root of a repro checkout; missing: "
            + ", ".join(missing)
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result set here")
    args = parser.parse_args(argv)
    tmp = Path(".perfbench_tmp") / f"run-{os.getpid()}-{time.time_ns()}"
    try:
        preflight()
        tmp.mkdir(parents=True)
        host = host_fingerprint(tmp)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [
            run_workload(name, args.seed, args.seconds, bool(args.trace), tmp)
            for name in names
        ]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(f"host: {json.dumps(host, sort_keys=True)}")
    for result in results:
        print_table(result)
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"host": host, "results": results}, indent=2, sort_keys=True))
    if len(results) == 1:
        metrics = metric_block(results[0])
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in metric_block(r).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
