"""Record the reference outputs the benchmark checks against.

    python3 perfbench/reference.py

Runs every operation of every workload once, in-process, at the
checked-out commit and writes perfbench/reference.json. Re-record only
when an output is meant to change; the benchmark treats any difference
beyond the test suite's tolerances as a failed operation.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout

from workloads import (
    CURVE_RANGES,
    FAKE_PSTAR,
    FAKE_XS,
    FIGURES,
    HERE,
    LARGE_N,
    ROOT,
    SEARCH,
    SIM_XS,
    SRC,
    TRUTH_XS,
    read_dir,
)


def cli_run(args: list[str]) -> str:
    from vodgame import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(args)
    if rc != 0:
        raise RuntimeError(f"{args}: exit code {rc}")
    return buf.getvalue()


def cli_files(args: list[str]) -> dict[str, str]:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = os.path.join(tmp, "out")
        cli_run([*args, "--out", out if args[0] == "reproduce" else out + ".csv"])
        return read_dir(out) if args[0] == "reproduce" else read_dir(tmp)


def equilibria(args: list[str]) -> dict:
    doc = json.loads(cli_run(args))
    return {
        "regime": doc["regime"],
        "equilibria": [{"x": e["x"], "stability": e["stability"]} for e in doc["equilibria"]],
    }


def record() -> dict:
    import vodgame

    def simulate(x: float) -> dict:
        params = vodgame.TruthGameParams()
        return {
            "analytic_v": vodgame.avg_payoff_volunteer(x, params),
            "analytic_d": vodgame.avg_payoff_defector(x, params),
        }

    truth = vodgame.TruthGameParams(n_regular=LARGE_N)
    fake = vodgame.FakeGameParams()
    search = vodgame.TruthGameParams(**SEARCH)
    report = vodgame.find_equilibria(lambda x: vodgame.net_payoff_regular(x, search))
    commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    return {
        "commit": commit,
        "figures": {fig: cli_files(["reproduce", fig]) for fig in FIGURES},
        "cli_queries": {
            "equilibria": equilibria(["equilibria"]),
            "equilibria_fake": equilibria(["equilibria", "--model", "fake"]),
            "curve": [
                cli_files(["curve", "--xmin", repr(lo), "--xmax", repr(hi)])["out.csv"]
                for lo, hi in CURVE_RANGES
            ],
            "sweep": cli_files(["sweep", "--param", "sigma", "--values", "5,6,7,8"]),
            "simulate": [simulate(x) for x in SIM_XS],
        },
        "large_n": {
            "truth": [vodgame.net_payoff_regular(x, truth) for x in TRUTH_XS],
            "fake": [vodgame.expected_net_payoff_fake(x, FAKE_PSTAR, LARGE_N, fake) for x in FAKE_XS],
            "search": {
                "regime": report.regime,
                "equilibria": [{"x": e.x, "stability": e.stability} for e in report.equilibria],
            },
        },
    }


if __name__ == "__main__":
    os.environ["VOD_THREADS"] = "1"
    sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
