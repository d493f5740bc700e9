"""CI gate: the telemetry subsystem must be observable and near-free.

Runs the CI smoke grid through the sweep scheduler twice — once plain,
once with the ``decision_trace`` capture channel on — and enforces the
observability guarantees the PR-level contract depends on:

* **overhead** — tracing + metrics must cost at most ``--max-overhead``
  percent of the plain run's CPU time.  The signed estimate (median
  over ``--repeats`` plain/traced/plain rounds) is published next to the
  plain-vs-plain noise floor measured in the same rounds, and the gate
  also fails when that floor is too coarse to resolve the bound;
* **parity** — a traced unit payload minus its ``decision_trace`` key
  must be byte-identical (canonical JSON) to the untraced payload, and
  the trace must hold exactly one record per control interval;
* **completeness** — after a sweep plus a short service drive, every
  metric registered in the process registry must appear in the
  ``GET /metrics`` Prometheus exposition, and a required core set
  (guardian tick latency, queue depth, rescaler actions, store and
  OPTM cache counters, sweep instruments) must exist at all.

Writes a ``BENCH_obs.json`` artifact with the measured numbers either
way, and exits non-zero when a gate fails.

Usage::

    PYTHONPATH=src python benchmarks/obs_gate.py --out BENCH_obs.json
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import urllib.request
from pathlib import Path
from time import process_time

import numpy as np

from repro.experiments.runner import _run_unit_worker
from repro.experiments.spec import ExperimentSpec
from repro.obs import default_registry
from repro.service import service_session
from repro.sweeps import SweepGrid, run_sweep_cached

#: Metric families the PR contract promises on ``/metrics`` — each must
#: be registered once the sweep + service paths have both run.
REQUIRED_METRICS = (
    "repro_guardian_tick_seconds",
    "repro_guardian_queue_depth_peak",
    "repro_rescaler_applies_total",
    "repro_rescaler_scale_ups_total",
    "repro_rescaler_scale_downs_total",
    "repro_rescaler_cpu_moved_total",
    "repro_store_hits_total",
    "repro_store_misses_total",
    "repro_store_writes_total",
    "repro_store_corrupt_total",
    "repro_optimum_cache_size",
    "repro_optimum_cache_hits",
    "repro_optimum_cache_misses",
    "repro_sweep_chunk_seconds",
    "repro_sweep_cell_seconds",
    "repro_sweep_batch_group_size",
    "repro_sweep_fallback_total",
)


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def gate_specs(grid_path: str, n_steps: int) -> list[ExperimentSpec]:
    """The smoke grid's cells, stretched to a timeable horizon."""
    grid = SweepGrid.read(grid_path)
    specs = []
    for cell in grid.cells():
        data = cell.spec.to_dict()
        data["n_steps"] = n_steps
        specs.append(ExperimentSpec.from_dict(data))
    return specs


def with_trace(spec: ExperimentSpec) -> ExperimentSpec:
    data = spec.to_dict()
    data["capture"] = sorted({*data.get("capture", []), "decision_trace"})
    return ExperimentSpec.from_dict(data)


def timed_overhead(
    plain, traced, *, batch: bool, repeats: int
) -> dict[str, float]:
    """Signed tracing overhead and the noise floor it is resolved against.

    One untimed warmup pass per mode, then ``repeats`` rounds of
    plain → traced → plain, each run timed in process CPU seconds (the
    sweep runs in this process; CPU time leaves out time the host gave
    to other tenants) after a full garbage collection.  Each round
    yields one overhead sample — the traced run minus the mean of the
    two plain runs around it, which cancels linear machine drift — and
    one plain-vs-plain sample: the second plain run minus the first.

    The overhead estimate is the median overhead sample; the noise floor
    is the same estimator applied to the plain-vs-plain samples (what
    the gate reads when tracing costs nothing), as an absolute value.
    Both are percentages of the median plain run, and neither is
    clamped: a traced run that beats the plain one reports a negative
    overhead.
    """
    for specs in (plain, traced):
        run_sweep_cached(specs, batch=batch)

    def timed(specs) -> float:
        gc.collect()
        start = process_time()
        run_sweep_cached(specs, batch=batch)
        return process_time() - start

    plains, overheads, nulls = [], [], []
    for _ in range(repeats):
        before, traced_s, after = timed(plain), timed(traced), timed(plain)
        plains += [before, after]
        overheads.append(traced_s - (before + after) / 2.0)
        nulls.append(after - before)
    plain_s = float(np.median(plains))
    overhead_s = float(np.median(overheads))
    return {
        "plain_seconds": plain_s,
        "traced_seconds": plain_s + overhead_s,
        "overhead_pct": 100.0 * overhead_s / plain_s,
        "noise_floor_pct": 100.0 * abs(float(np.median(nulls))) / plain_s,
    }


def http_get_text(url: str) -> tuple[str, str]:
    with urllib.request.urlopen(url, timeout=30) as response:
        return (
            response.read().decode("utf-8"),
            response.headers.get("Content-Type", ""),
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", default="benchmarks/grids/ci_smoke.json")
    parser.add_argument("--out", default="BENCH_obs.json")
    parser.add_argument("--steps", type=int, default=50,
                        help="control intervals per cell for the timing "
                        "runs (the smoke grid's own horizon is too short "
                        "to time)")
    parser.add_argument("--max-overhead", type=float, default=5.0,
                        help="max tracing overhead, percent of the "
                        "plain run")
    parser.add_argument("--repeats", type=int, default=120,
                        help="timed plain/traced/plain rounds (run-to-run "
                        "noise is a per-run factor, so many short rounds "
                        "resolve the bound better than a few long ones)")
    parser.add_argument("--batch", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="time the batched scheduler path (default) "
                        "or the scalar one")
    args = parser.parse_args(argv)

    failures: list[str] = []
    plain = gate_specs(args.grid, args.steps)
    traced = [with_trace(spec) for spec in plain]
    units = sum(spec.repeats for spec in plain)

    # -- parity: trace is additive, byte-exactly ------------------------------
    for spec, traced_spec in zip(plain, traced):
        base_payload = _run_unit_worker(spec.to_dict(), 0)
        traced_payload = _run_unit_worker(traced_spec.to_dict(), 0)
        trace = traced_payload.pop("decision_trace", None)
        if trace is None:
            failures.append(f"{spec_label(spec)}: no decision_trace captured")
        elif len(trace) != spec.n_steps:
            failures.append(
                f"{spec_label(spec)}: trace has {len(trace)} records, "
                f"expected {spec.n_steps}"
            )
        if dumps(traced_payload) != dumps(base_payload):
            failures.append(
                f"{spec_label(spec)}: traced payload minus the trace "
                f"differs from the plain payload"
            )

    # -- overhead: tracing + metrics vs plain ---------------------------------
    repeats = max(args.repeats, 1)
    timing = timed_overhead(plain, traced, batch=args.batch, repeats=repeats)
    overhead_pct = timing["overhead_pct"]
    if overhead_pct > args.max_overhead:
        failures.append(
            f"tracing overhead {overhead_pct:.2f}% > allowed "
            f"{args.max_overhead:.2f}% ({timing['traced_seconds']:.3f}s vs "
            f"{timing['plain_seconds']:.3f}s)"
        )
    if timing["noise_floor_pct"] >= args.max_overhead:
        failures.append(
            f"plain-vs-plain noise floor {timing['noise_floor_pct']:.2f}% "
            f"cannot resolve the {args.max_overhead:.2f}% bound"
        )

    # -- completeness: everything registered is scraped -----------------------
    registry = default_registry()
    missing_required = [
        name for name in REQUIRED_METRICS if name not in registry
    ]
    # The OPTM gauges are registered lazily by a render-time collector;
    # only flag them if a render still doesn't produce them.
    if missing_required:
        registry.render()
        missing_required = [
            name for name in REQUIRED_METRICS if name not in registry
        ]
    for name in missing_required:
        failures.append(f"required metric {name} is not registered")

    service_spec = ExperimentSpec.from_dict({
        "name": "obs-gate-svc",
        "app": "sockshop",
        "workload": {"kind": "constant", "params": {"rps": 600.0}},
        "n_steps": 15,
        "seed": 5,
    })
    with service_session([service_spec], http=True) as runtime:
        runtime.drive()
        text, content_type = http_get_text(runtime.url + "/metrics")
    if "version=0.0.4" not in content_type:
        failures.append(
            f"/metrics content type {content_type!r} is not the "
            f"Prometheus 0.0.4 text exposition"
        )
    scraped_names = registry.names()
    missing_scraped = [
        name for name in scraped_names if f"# TYPE {name} " not in text
    ]
    for name in missing_scraped:
        failures.append(f"registered metric {name} missing from /metrics")

    bench = {
        "grid": "ci_smoke",
        "units": units,
        "steps_per_cell": args.steps,
        "batch": bool(args.batch),
        "timing_repeats": repeats,
        **timing,
        "max_overhead_pct": args.max_overhead,
        "registered_metrics": len(scraped_names),
        "scraped_metrics": len(scraped_names) - len(missing_scraped),
        "required_missing": missing_required,
        "passed": not failures,
        "failures": failures,
    }
    Path(args.out).write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(json.dumps(bench, indent=2, sort_keys=True))
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"obs gate passed: {overhead_pct:+.2f}% tracing overhead "
          f"(noise floor {timing['noise_floor_pct']:.2f}%), "
          f"{len(scraped_names)} metrics scraped")
    return 0


def spec_label(spec: ExperimentSpec) -> str:
    return spec.name or f"{spec.app}@{spec.workload.params.get('rps', '?')}"


if __name__ == "__main__":
    sys.exit(main())
