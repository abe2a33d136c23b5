"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads figures,cli_queries,large_n]
        [--seeds 1-10] [--trace 0] [--save PATH]

Runs one seed at a time, as BENCHMARK.json's command with its
run_seconds, from the repository root. For each workload and metric it
prints the median and the quartile spread, (Q3 - Q1) / median with
quartiles from ``statistics.quantiles(values, n=4)``, next to the
metric's bound. ``--save`` keeps every run's summary and the spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", type=seeds)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    ap.add_argument("--save", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            summary = json.loads(proc.stdout.strip().splitlines()[-1])
            results = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{args.trace}.json")
            with open(results, encoding="utf-8") as fh:
                full = json.load(fh)
            summary.update({key: full[key] for key in ("seed", "detail", "rounds", "environment")})
            runs.setdefault(workload, []).append(summary)
            print(workload, seed, json.dumps(summary["metrics"]), flush=True)

    table = {}
    for workload, items in runs.items():
        print(f"\n{workload}: {len(items)} runs, failed {sum(r['failed'] for r in items)}"
              f" of {sum(r['attempted'] for r in items)}")
        series = {name: [r["metrics"][name]["value"] for r in items] for name in items[0]["metrics"]}
        series.update({name: [r["detail"][name][0] for r in items] for name in items[0]["detail"]})
        for name, values in series.items():
            med, rel = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if rel < bound / 3 else "WIDE")
            table.setdefault(workload, {})[name] = {"median": med, "spread": rel, "values": values}
            print(f"  {name:36s} median {med:12.6g} spread {rel:7.4f}"
                  + ("" if bound is None else f" bound {bound} {flag}"))
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs, "spread": table}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
