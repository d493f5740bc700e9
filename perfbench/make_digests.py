"""Regenerate ``perfbench/digests.json`` from reference executors.

Usage (from the root of a checkout)::

    PYTHONPATH=src python3 perfbench/make_digests.py [--workload NAME ...]
        [--seeds 0-15]

Each workload's expected outputs come from a different executor than the
one the benchmark measures, so a digest match is also an equivalence
check:

* ``replay_batched`` (measured batched) — the scalar serial scheduler;
* ``figures_scalar`` (measured scalar) — the batched scheduler;
* ``dist_fleet`` (measured on a worker fleet) — the scalar serial
  scheduler;
* ``service_stream`` (measured streamed) — offline unit runs of the same
  specs, whose payloads the guardians must reproduce byte for byte.

Only run this when the program's outputs are meant to change; a digest
that moves otherwise is a defect, not a reason to regenerate.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as w  # noqa: E402


def sweep_reference(grids, workdir: Path, *, batch: bool) -> dict:
    from repro.sweeps import SweepStore

    store = SweepStore(workdir / "store")
    _, summaries, _ = w.run_sweeps(grids, store, batch=batch)
    cells = [c for _, grid_cells in grids for c in grid_cells]
    units, others = w.store_digests(store, cells)
    return {
        "units": units,
        "others": others,
        "summaries": {n: w.sha(t)[:16] for n, t in summaries.items()},
    }


def service_reference(inputs, workdir: Path) -> dict:
    from repro.sweeps import SweepStore, run_sweep_cached

    store = SweepStore(workdir / "offline")
    guardians = {}
    orchestrators = (inputs.saturation, inputs.open_loop)
    specs = [(app_id, g.spec) for o in orchestrators
             for app_id, g in o.guardians.items()]
    run_sweep_cached([spec for _, spec in specs], store=store)
    for app_id, spec in specs:
        payload = store.get_result(spec, 0)
        guardians[app_id] = w.sha(json.dumps(payload, sort_keys=True))[:16]
    sat_grid, sat_cells = inputs.grids[0]
    _, summaries, _ = w.run_sweeps([(sat_grid, sat_cells)], store,
                                   batch=False)
    return {
        "guardians": guardians,
        "summaries": {n: w.sha(t)[:16] for n, t in summaries.items()},
    }


def reference(workload: str, seed: int) -> dict:
    tmp_root = Path(".perfbench_tmp")
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="digests-", dir=tmp_root))
    try:
        inputs = w.build_inputs(workload, seed, workdir)
        if workload == "service_stream":
            return service_reference(inputs, workdir)
        batch = workload == "figures_scalar"
        return sweep_reference(inputs.grids, workdir, batch=batch)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fresh_reference(workload: str, seed: int) -> dict:
    """``reference`` in a fresh interpreter.

    The OPTM LRU is global to a process: a second reference in the same
    process would find the first one's optima cached and write no OPTM
    entries to its store, unlike the benchmark's fresh passes.
    """
    proc = subprocess.run(
        [sys.executable, __file__, "--one", workload, str(seed)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=w.WORKLOADS)
    parser.add_argument("--seeds", default=f"0-{w.SEED_SPACE - 1}")
    parser.add_argument("--one", nargs=2, metavar=("WORKLOAD", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(reference(args.one[0], int(args.one[1]))))
        return 0
    try:
        table = json.loads(w.DIGESTS.read_text())
    except FileNotFoundError:
        table = {}
    if table.get("seed_space") != w.SEED_SPACE:
        table = {"seed_space": w.SEED_SPACE, "workloads": {}}
    for workload in args.workload or w.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            digests = fresh_reference(workload, seed)
            table["workloads"].setdefault(workload, {})[
                str(w.seed_index(seed))] = digests
            w.DIGESTS.write_text(
                json.dumps(table, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: {sum(map(len, digests.values()))}"
                  " digests", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
