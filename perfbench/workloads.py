"""The three benchmark workloads: their inputs, operations and checks.

Every workload is a closed loop with one caller. A round runs each of
the workload's operation kinds in an order drawn from the seed; a run
repeats rounds until its time is up, so every kind is sampled equally.
Outputs are checked against reference.json, recorded from the seed
commit with ``python3 perfbench/reference.py``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "probe.py")

ROOT_TOL = 1e-6  # the test suite's tolerance on roots
PAYOFF_TOL = 1e-12  # the test suite's tolerance on payoffs
GRID_TOL = 1e-15  # x grid points
RATIO_TOL = 0.005  # fig3's max-net ratios, printed with three decimals
Z_LIMIT = 5.0  # simulate's own pass limit

FIGURES = ("fig1", "fig2", "fig3")

QUERY_KINDS = ("equilibria", "equilibria_fake", "curve", "sweep", "simulate")
CURVE_RANGES = (
    (0.0, 1.0), (0.0, 0.2), (0.02, 0.12), (0.05, 0.5),
    (0.1, 0.9), (0.0, 0.05), (0.3, 1.0), (0.04, 0.11),
)
# simulate's z-scores need a nonzero standard error: x well inside the
# mixed region, where both payoffs still vary from trial to trial
SIM_XS = (0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.12)
SIM_TRIALS = 1_000_000

# large_n: payoffs at n = 10^6 and an equilibrium search at n = 10^4.
# 32 distinct x in a cycle keep every truth call missing pmf_row's
# 16-entry cache; the fake side reuses one p*, so its row always hits.
# All x sit above k/n: below it the tail is summed over the heavy side,
# which costs three times as much, and a seed-dependent mix of the two
# regimes would move the median with the seed.
LARGE_N = 1_000_000
TRUTH_XS = tuple(float(f"{8e-6 * 10 ** (i / 31):.6g}") for i in range(32))
CACHE_ROWS = 16  # pmf_row's cache size: the warm-up fills it
FAKE_PSTAR = 5e-6
FAKE_XS = tuple(round(0.05 + 0.9 * i / 31, 6) for i in range(32))
EVALS_PER_ROUND = 4
SEARCH = dict(n_regular=10_000, threshold=60, shared_reward=500.0)
QUICK_SEARCH_GRID = 256

CSV_TOLERANCES = {
    "x,volunteer_avg,defector_avg,net": (GRID_TOL, PAYOFF_TOL, PAYOFF_TOL, PAYOFF_TOL),
    "swept_name,swept_value,x,net": (None, PAYOFF_TOL, GRID_TOL, PAYOFF_TOL),
    "swept_value,regime,unstable_x,stable_x": (PAYOFF_TOL, None, ROOT_TOL, ROOT_TOL),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["VOD_THREADS"] = "1"
    return env


# ------------------------------------------------------------ checks


def _near(got: str, want: str, tol) -> bool:
    if tol is None or (got == "" and want == ""):
        return got == want
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return abs(a - b) <= tol


def compare_csv(label: str, text: str, ref_text: str) -> list[str]:
    """Compare a CSV against its reference, column by column."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        return [f"{label}: unparsable CSV ({exc})"]
    ref = list(csv.reader(io.StringIO(ref_text)))
    if not rows or rows[0] != ref[0]:
        return [f"{label}: header {rows[:1]} != {ref[0]}"]
    if len(rows) != len(ref):
        return [f"{label}: {len(rows) - 1} rows, want {len(ref) - 1}"]
    tols = CSV_TOLERANCES[",".join(ref[0])]
    for i, (row, want) in enumerate(zip(rows[1:], ref[1:]), start=1):
        if len(row) != len(want) or not all(_near(g, w, t) for g, w, t in zip(row, want, tols)):
            return [f"{label}: row {i} {row} != {want}"]
    return []


def report_facts(text: str) -> dict:
    """The PASS/FAIL pattern and the printed ratios of a figure report."""
    checks = re.findall(r"^check (.*?): (PASS|FAIL)", text, flags=re.M)
    ratios = re.findall(r"^(max-net ratio .*): ([0-9.]+|inf)$", text, flags=re.M)
    return {"checks": [list(c) for c in checks], "ratios": {k: float(v) for k, v in ratios}}


def compare_report(label: str, text: str, ref_text: str) -> list[str]:
    got, want = report_facts(text), report_facts(ref_text)
    errors = []
    if got["checks"] != want["checks"]:
        errors.append(f"{label}: check pattern {got['checks']} != {want['checks']}")
    if got["ratios"].keys() != want["ratios"].keys() or any(
        abs(got["ratios"][k] - v) > RATIO_TOL for k, v in want["ratios"].items()
    ):
        errors.append(f"{label}: ratios {got['ratios']} != {want['ratios']}")
    return errors


def compare_files(label: str, files: dict[str, str], ref: dict[str, str]) -> list[str]:
    if sorted(files) != sorted(ref):
        return [f"{label}: files {sorted(files)} != {sorted(ref)}"]
    errors = []
    for name, want in ref.items():
        if name.endswith(".csv"):
            errors += compare_csv(f"{label}/{name}", files[name], want)
        else:
            errors += compare_report(f"{label}/{name}", files[name], want)
    return errors


def compare_equilibria(label: str, stdout: str, ref: dict) -> list[str]:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"{label}: unparsable JSON ({exc})"]
    got = [(e["stability"], e["x"]) for e in doc.get("equilibria", [])]
    want = [(e["stability"], e["x"]) for e in ref["equilibria"]]
    if doc.get("regime") != ref["regime"] or len(got) != len(want):
        return [f"{label}: {doc.get('regime')} {got} != {ref['regime']} {want}"]
    if any(gs != ws or abs(gx - wx) > ROOT_TOL for (gs, gx), (ws, wx) in zip(got, want)):
        return [f"{label}: roots {got} != {want}"]
    return []


def compare_simulate(label: str, stdout: str, x: float, seed: int, ref: dict) -> list[str]:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"{label}: unparsable JSON ({exc})"]
    errors = []
    if (doc.get("point"), doc.get("trials"), doc.get("seed")) != (x, SIM_TRIALS, seed):
        errors.append(f"{label}: echoed inputs {doc.get('point'), doc.get('trials'), doc.get('seed')}")
    for key in ("analytic_v", "analytic_d"):
        if not abs(doc.get(key, math.inf) - ref[key]) <= PAYOFF_TOL:
            errors.append(f"{label}: {key} {doc.get(key)} != {ref[key]}")
    for key in ("z_v", "z_d"):
        if not abs(doc.get(key, math.inf)) <= Z_LIMIT:
            errors.append(f"{label}: |{key}| = {doc.get(key)} above {Z_LIMIT}")
    return errors


def read_dir(path: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), encoding="utf-8", newline="") as fh:
            out[name] = fh.read()
    return out


def clear_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


# ------------------------------------------------------------ operations
#
# An operation is (kind, run, check): run() does the timed work and
# returns its raw output; check(output) returns a list of errors and the
# bytes the CLI wrote, outside the timed region.


class Figures:
    """In-process ``reproduce figN`` through ``vodgame.cli.main``."""

    name = "figures"
    kinds = FIGURES
    in_process = True

    def __init__(self, ref: dict, work_dir: str, quick: bool) -> None:
        from vodgame import cli

        self.cli = cli
        self.ref = ref["figures"]
        self.dir = os.path.join(work_dir, "figure")
        self.quick = quick
        clear_dir(self.dir)

    def op(self, fig: str):
        def run():
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = self.cli.main(["reproduce", fig, "--out", self.dir])
            return rc, buf.getvalue()

        def check(result):
            rc, stdout = result
            files = read_dir(self.dir)
            clear_dir(self.dir)
            errors = [] if rc == 0 else [f"{fig}: exit code {rc}"]
            errors += compare_files(fig, files, self.ref[fig])
            return errors, len(stdout) + sum(len(t.encode()) for t in files.values())

        return fig, run, check

    def warm_up(self, rng):
        return [self.op(fig) for fig in (FIGURES[:1] if self.quick else FIGURES)]

    def round(self, rng):
        return [self.op(FIGURES[i]) for i in rng.permutation(len(FIGURES))]


class CliQueries:
    """One fresh ``python -m vodgame.cli`` process per query."""

    name = "cli_queries"
    kinds = QUERY_KINDS
    in_process = False

    def __init__(self, ref: dict, work_dir: str, quick: bool) -> None:
        self.ref = ref["cli_queries"]
        self.dir = os.path.join(work_dir, "query")
        self.span_dir = os.path.join(work_dir, "spans")
        clear_dir(self.dir)
        self.traced = False
        self.spans: list[str] = []
        self.count = 0

    def argv(self, kind: str, rng) -> tuple[list[str], dict]:
        out = os.path.join(self.dir, "out.csv")
        if kind == "equilibria":
            return ["equilibria"], {}
        if kind == "equilibria_fake":
            return ["equilibria", "--model", "fake"], {}
        if kind == "curve":
            i = int(rng.integers(len(CURVE_RANGES)))
            lo, hi = CURVE_RANGES[i]
            return ["curve", "--xmin", repr(lo), "--xmax", repr(hi), "--out", out], {"range": i}
        if kind == "sweep":
            return ["sweep", "--param", "sigma", "--values", "5,6,7,8", "--out", out], {}
        i = int(rng.integers(len(SIM_XS)))
        seed = int(rng.integers(1 << 31))
        return (
            ["simulate", "--trials", str(SIM_TRIALS), "--x", repr(SIM_XS[i]), "--seed", str(seed)],
            {"x": i, "seed": seed},
        )

    def op(self, kind: str, rng):
        args, picked = self.argv(kind, rng)
        self.count += 1
        if self.traced:
            os.makedirs(self.span_dir, exist_ok=True)
            spans = os.path.join(self.span_dir, f"{self.count}.npz")
            self.spans.append(spans)
            cmd = [sys.executable, PROBE, "cli", spans, str(self.count), *args]
        else:
            cmd = [sys.executable, "-m", "vodgame.cli", *args]

        def run():
            return subprocess.run(
                cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120
            )

        def check(proc):
            label = f"{kind} {' '.join(args[1:])}".strip()
            files = read_dir(self.dir)
            clear_dir(self.dir)
            written = len(proc.stdout.encode()) + sum(len(t.encode()) for t in files.values())
            if proc.returncode != 0:
                return [f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"], written
            if kind in ("equilibria", "equilibria_fake"):
                return compare_equilibria(label, proc.stdout, self.ref[kind]), written
            if kind == "curve":
                want = {"out.csv": self.ref["curve"][picked["range"]]}
                return compare_files(label, files, want), written
            if kind == "sweep":
                return compare_files(label, files, self.ref["sweep"]), written
            x = SIM_XS[picked["x"]]
            return compare_simulate(label, proc.stdout, x, picked["seed"], self.ref["simulate"][picked["x"]]), written

        return kind, run, check

    def warm_up(self, rng):
        return []

    def round(self, rng):
        return [self.op(QUERY_KINDS[i], rng) for i in rng.permutation(len(QUERY_KINDS))]


class LargeN:
    """In-process payoffs at n = 10^6 and a search at n = 10^4."""

    name = "large_n"
    kinds = ("truth_eval", "fake_eval", "equilibria")
    in_process = True

    def __init__(self, ref: dict, work_dir: str, quick: bool) -> None:
        import vodgame

        self.v = vodgame
        self.ref = ref["large_n"]
        self.truth = vodgame.TruthGameParams(n_regular=LARGE_N)
        self.fake = vodgame.FakeGameParams()
        self.search = vodgame.TruthGameParams(**SEARCH)
        self.quick = quick
        self.grid = (QUICK_SEARCH_GRID,) if quick else ()
        self.evals = 1 if quick else EVALS_PER_ROUND
        self.truth_order = None
        self.fake_order = None
        self.calls = 0

    def payoff_op(self, kind: str, i: int):
        if kind == "truth_eval":
            x, want = TRUTH_XS[i], self.ref["truth"][i]
            run = lambda: self.v.net_payoff_regular(x, self.truth)  # noqa: E731
        else:
            x, want = FAKE_XS[i], self.ref["fake"][i]
            run = lambda: self.v.expected_net_payoff_fake(x, FAKE_PSTAR, LARGE_N, self.fake)  # noqa: E731

        def check(value):
            return ([] if abs(value - want) <= PAYOFF_TOL else [f"{kind} x={x}: {value!r} != {want!r}"]), 0

        return kind, run, check

    def search_op(self):
        def run():
            return self.v.find_equilibria(
                lambda x: self.v.net_payoff_regular(x, self.search), *self.grid
            )

        def check(report):
            got = {
                "regime": report.regime,
                "equilibria": [{"x": e.x, "stability": e.stability} for e in report.equilibria],
            }
            return compare_equilibria("equilibria n=10^4", json.dumps(got), self.ref["search"]), 0

        return "equilibria", run, check

    def _next(self, rng):
        if self.truth_order is None:
            self.truth_order = rng.permutation(len(TRUTH_XS))
            self.fake_order = rng.permutation(len(FAKE_XS))
        i = self.calls
        self.calls += 1
        return (
            int(self.truth_order[i % len(TRUTH_XS)]),
            int(self.fake_order[i % len(FAKE_XS)]),
        )

    def warm_up(self, rng):
        picks = [self._next(rng) for _ in range(1 if self.quick else CACHE_ROWS)]
        return [self.payoff_op("truth_eval", t) for t, _ in picks] + [self.payoff_op("fake_eval", picks[0][1])]

    def round(self, rng):
        ops = []
        for _ in range(self.evals):
            t, f = self._next(rng)
            ops += [self.payoff_op("truth_eval", t), self.payoff_op("fake_eval", f)]
        ops.append(self.search_op())
        return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {w.name: w for w in (Figures, CliQueries, LargeN)}


def setup_operation(workload: str, scratch: str) -> None:
    """The warm-up that ends set-up in a fresh interpreter.

    figures: one ``reproduce fig1``; cli_queries: one ``equilibria``;
    large_n: one payoff of each side at n = 10^6, which builds the
    n = 10^6 rows the run then reuses.
    """
    import vodgame
    from vodgame import cli

    if workload == "figures":
        with redirect_stdout(io.StringIO()):
            rc = cli.main(["reproduce", "fig1", "--out", scratch])
    elif workload == "cli_queries":
        with redirect_stdout(io.StringIO()):
            rc = cli.main(["equilibria"])
    else:
        vodgame.net_payoff_regular(TRUTH_XS[0], vodgame.TruthGameParams(n_regular=LARGE_N))
        vodgame.expected_net_payoff_fake(FAKE_XS[0], FAKE_PSTAR, LARGE_N, vodgame.FakeGameParams())
        rc = 0
    if rc != 0:
        raise RuntimeError(f"set-up operation exited with {rc}")
