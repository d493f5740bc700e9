"""Compare two sets of benchmark results taken on the same host.

Usage (from the root of a checkout)::

    python3 perfbench/compare.py --base a1.json a2.json ... \
        --new b1.json b2.json ...

Each file is what ``perfbench/run.py --out FILE`` wrote.  The tool
refuses (exit code 2) when the files do not all carry the same host
fingerprint: numbers from different machines are not comparable.  For
every workload and end-to-end metric it prints each side's median and
quartiles and flags a median that is worse than the base by more than
the metric's bound in ``BENCHMARK.json``, or whose base spread is wider
than the bound (``unresolved``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(paths: list[Path]) -> tuple[list[dict], dict]:
    """(host of each file, workload -> metric -> values)."""
    hosts = []
    values: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        data = json.loads(path.read_text())
        hosts.append(data["host"])
        for result in data["results"]:
            if result["trace"]:
                continue
            table = values.setdefault(result["workload"], {})
            for name, value in result["end_to_end"].items():
                table.setdefault(name, []).append(value)
    return hosts, values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    parser.add_argument("--benchmark", type=Path,
                        default=Path("BENCHMARK.json"))
    args = parser.parse_args(argv)
    base_hosts, base = load(args.base)
    new_hosts, new = load(args.new)
    hosts = base_hosts + new_hosts
    if any(host != hosts[0] for host in hosts):
        print("refusing to compare results from different hosts:",
              file=sys.stderr)
        for path, host in zip(args.base + args.new, hosts):
            print(f"  {path}: {json.dumps(host, sort_keys=True)}",
                  file=sys.stderr)
        return 2
    spec = json.loads(args.benchmark.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}")
        for name, meta in metrics.items():
            if name not in base[workload] or name not in new[workload]:
                continue
            b1, bm, b3 = quartiles(base[workload][name])
            n1, nm, n3 = quartiles(new[workload][name])
            sign = 1.0 if meta["better"] == "lower" else -1.0
            worse = sign * (nm - bm) / bm if bm else 0.0
            verdict = "ok"
            if (b3 - b1) / bm > meta["bound"]:
                verdict = "unresolved"
            elif worse > meta["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            print(f"   {name:<18} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"new {nm:.6g} [{n1:.6g}, {n3:.6g}]  "
                  f"{100 * -worse:+.1f}% better  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
