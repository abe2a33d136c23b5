"""vodgame benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload {figures,cli_queries,large_n}
        --seed N --seconds S --trace {0,1} [--quick]

Run from the repository root; the program is imported from ``src``.
With ``--trace 0`` the run times the workload untraced and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced rounds and reports the per-layer metrics and the tracing
overhead. Every operation's output is checked against reference.json.
The full results, with the machine description, go to
``perfbench/out/<workload>-seed<N>-trace<T>.json``; the last line of
standard output is the summary the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import HERE, PROBE, ROOT, SRC, WORKLOADS, child_env

OUT = os.path.join(HERE, "out")
SETUPS = 3  # fresh interpreters per run; set-up time is their median
PROBES = 3  # bare-interpreter and import-time probes per traced run
IMPORT_NAMES = {
    "cli.import_s": "vodgame.cli",
    "equilibrium.import_s": "vodgame.equilibrium",
    "numerics.import_s": "vodgame.numerics",
    "numerics.import_scipy_special_s": "scipy.special",
}

def environment() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        status = subprocess.run(git + ["status", "--porcelain", "--", "src"], capture_output=True, text=True)
        dirty = bool(status.stdout.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "git_dirty_src": dirty,
        "VOD_THREADS": os.environ.get("VOD_THREADS"),
    }


class Tally:
    """Operations attempted and failed, with the first few errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: max(0, 20 - len(self.errors))])


def timed_process(cmd: list[str], tally: Tally) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120)
    elapsed = time.perf_counter() - t0
    tally.add([] if proc.returncode == 0 else [f"{cmd[1:]}: exit {proc.returncode}: {proc.stderr[-300:]}"])
    return elapsed, proc


def measure_setup(workload: str, count: int, scratch: str, tally: Tally) -> float:
    os.makedirs(scratch, exist_ok=True)
    cmd = [sys.executable, PROBE, "setup", workload, scratch]
    return statistics.median(timed_process(cmd, tally)[0] for _ in range(count))


def import_times(count: int, tally: Tally) -> dict[str, float]:
    """Medians of ``-X importtime`` cumulative times, in seconds."""
    samples = {key: [] for key in IMPORT_NAMES}
    cmd = [sys.executable, "-X", "importtime", "-c", "import vodgame.cli"]
    for _ in range(count):
        _, proc = timed_process(cmd, tally)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        for key, module in IMPORT_NAMES.items():
            samples[key].append(cumulative.get(module, 0.0))
    return {key: statistics.median(vals) for key, vals in samples.items()}


def run_op(op, tally: Tally, latencies: dict, written: list) -> float:
    kind, run, check = op
    t0 = time.perf_counter()
    try:
        result = run()
    except Exception as exc:  # a failed operation is counted, not fatal
        elapsed = time.perf_counter() - t0
        tally.add([f"{kind}: {type(exc).__name__}: {exc}"])
        return elapsed
    elapsed = time.perf_counter() - t0
    errors, nbytes = check(result)
    tally.add(errors)
    latencies.setdefault(kind, []).append(elapsed)
    written.append(nbytes)
    return elapsed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="one set-up and the smallest rounds, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vodgame", "__init__.py")):
        print(f"error: no vodgame sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ["VOD_THREADS"] = "1"
    sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        return bench(args, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, reference: dict, work: str) -> int:
    import tracer

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    tally = Tally()
    rng = np.random.default_rng(args.seed)
    traced = bool(args.trace)

    setup_s = measure_setup(args.workload, 1 if args.quick else SETUPS, os.path.join(work, "setup"), tally)
    workload = WORKLOADS[args.workload](reference, work, args.quick)
    layers = {}
    if traced:
        probes = 1 if args.quick else PROBES
        layers["process.start_s"] = statistics.median(
            timed_process([sys.executable, "-c", "pass"], tally)[0] for _ in range(probes)
        )
        layers.update(import_times(probes, tally))

    for op in workload.warm_up(rng):
        run_op(op, tally, {}, [])

    spy = tracer.Tracer()
    latencies: dict[str, list[float]] = {}
    round_times = {False: [], True: []}
    written: list[int] = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < (2 if traced else 1) or time.perf_counter() < deadline:
        tracing = traced and index % 2 == 1
        if not workload.in_process:
            workload.traced = tracing
        elif tracing:
            spy.install()
        total = 0.0
        try:
            for op in workload.round(rng):
                spy.op_id += 1
                total += run_op(op, tally, latencies if not tracing else {}, written if tracing else [])
        finally:
            spy.uninstall()
        round_times[tracing].append(total)
        index += 1

    if traced:
        if workload.in_process:
            spans = spy.arrays()
        else:
            spans = tracer.concat([tracer.load(p) for p in workload.spans])
        rounds = len(round_times[True])
        layers.update(tracer.layer_metrics(spans, rounds))
        layers["cli.bytes_out"] = float(np.mean(written)) if written and any(written) else 0.0
        untraced = statistics.median(round_times[False])
        layers["trace.overhead_pct"] = (statistics.median(round_times[True]) - untraced) / untraced * 100.0
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.npz"), spans)
        metrics = layers
    else:
        medians = {kind: statistics.median(latencies[kind]) for kind in workload.kinds}
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        metrics = {
            "setup_s": setup_s,
            "round_s": sum(medians.values()),
            "op_geomean_s": math.exp(sum(math.log(v) for v in medians.values()) / len(medians)),
            "peak_rss_mb": usage / 1024.0,
        }

    detail = workload_detail(workload, latencies) if not traced else {}
    summary = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    results = dict(
        summary,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        quick=args.quick,
        failed_frac=tally.failed / tally.attempted,
        rounds={"untraced": len(round_times[False]), "traced": len(round_times[True])},
        detail=detail,
        latencies=latencies,
        errors=tally.errors,
        environment=environment(),
    )
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(results, fh, indent=2)
    for error in tally.errors:
        print(f"FAILED {error}", file=sys.stderr)
    for name, (value, unit) in {**detail, **{k: (v, units[k]) for k, v in metrics.items()}}.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps(summary))
    return 0


def workload_detail(workload, latencies: dict) -> dict:
    """The issue-level figures of each workload, by name with unit."""
    med = {kind: statistics.median(v) for kind, v in latencies.items()}
    out = {f"{kind}_samples": (len(v), "count") for kind, v in latencies.items()}
    if workload.name == "figures":
        out.update({f"{fig}_s": (med[fig], "s") for fig in workload.kinds})
    elif workload.name == "cli_queries":
        every = [t for v in latencies.values() for t in v]
        out["query_p50_s"] = (statistics.median(every), "s")
        out.update({f"query_{kind}_s": (med[kind], "s") for kind in workload.kinds})
    else:
        out["large_n_truth_eval_ms"] = (med["truth_eval"] * 1e3, "ms")
        out["large_n_fake_eval_ms"] = (med["fake_eval"] * 1e3, "ms")
        out["large_n_equilibria_s"] = (med["equilibria"], "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
