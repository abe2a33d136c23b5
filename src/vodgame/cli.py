"""Command-line interface: curve, equilibria, sweep, simulate, reproduce.

All outputs are deterministic. CSV floats carry 17 significant digits
so every value round-trips bit for bit; files are UTF-8 with LF line
endings. Exit codes: 0 success, 1 failed self-check, 2 invalid
parameters the run reads, 3 unwritable output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import get_args, get_type_hints

import numpy as np

from .equilibrium import (
    DEGENERATE,
    STABLE,
    UNSTABLE,
    _roots_summary,
    _search,
    sample_curve,
    stable_equilibrium,
)
from .fake import FakeGameParams, TailMode, _net as _fake_net, expected_fake_payoffs
from .numerics import mix
from .oracle import simulate_fake, simulate_truth
from .truth import TruthGameParams, _net as _truth_net, payoff_pair_regular

CURVE_HEADER = "x,volunteer_avg,defector_avg,net"
SWEEP_HEADER = "swept_name,swept_value,x,net"
SUMMARY_HEADER = "swept_value,regime,unstable_x,stable_x"


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation; flag > config file > these defaults."""

    model: str = "truth"
    n: int = TruthGameParams.n_regular
    f: int = FakeGameParams.n_fake
    k: int = TruthGameParams.threshold
    c: float = TruthGameParams.cost_volunteer
    alpha: float = TruthGameParams.cost_failure
    cf: float = FakeGameParams.cost_volunteer_fake
    sigma: float = TruthGameParams.shared_reward
    pstar: float | None = None
    x: float = 0.09
    xf: float = 0.5
    xmin: float = 0.0
    xmax: float = 1.0
    points: int = 101
    grid: int = 2048
    tol: float = 1e-10
    tail: str = "full"
    strict_dominance: bool = FakeGameParams.strict_dominance
    trials: int = 1_000_000
    seed: int = 0
    allow_nonstandard: bool = TruthGameParams.allow_nonstandard


# each field's kind from its annotation; pstar's float | None is a float
_KIND = {
    name: next(t for t in (*get_args(hint), hint) if t in (bool, int, float, str))
    for name, hint in get_type_hints(RunConfig).items()
}

# every common flag, field or not, with its --help text in --help order
_FLAGS = {
    "model": "which game to evaluate (default truth)",
    "n": "number of regular agents",
    "f": "number of fake-side agents",
    "k": "validation success threshold",
    "c": "volunteering cost, regular side",
    "alpha": "failure cost, both sides",
    "cf": "volunteering cost, fake side",
    "sigma": "shared reward pot",
    "pstar": "regular volunteering probability seen by the fake side "
             "(default: the validation game's stable equilibrium)",
    "x": "regular volunteering probability for simulate",
    "xf": "fake volunteering probability for simulate",
    "xmin": "curve range lower end",
    "xmax": "curve range upper end",
    "points": "curve sample count",
    "grid": "equilibrium scan grid size",
    "tol": "root refinement tolerance",
    "tail": "turnout averaging mode for the fake side",
    "strict_dominance": "fake push wins only with strictly more volunteers",
    "trials": "Monte Carlo trial count",
    "seed": "Monte Carlo seed",
    "config": "JSON file with RunConfig fields",
    "out": "output path ('-' for stdout)",
    "allow_nonstandard": "accept parameter orderings that break the dilemma structure",
}

_CHOICES = {"model": ("truth", "fake"), "tail": tuple(m.value for m in TailMode)}

# kind -> (what a config-file value of that kind must be, its check)
_CONFIG_VALUE = {
    bool: ("a boolean", lambda v: type(v) is bool),
    int: ("an integer", lambda v: type(v) is int or type(v) is float and v.is_integer()),
    float: ("a number", lambda v: type(v) in (int, float)),
    str: ("a string", lambda v: type(v) is str),
}


# the RunConfig fields each game reads
_GAME_READS = {
    "truth": {"n", "k", "c", "alpha", "sigma", "allow_nonstandard"},
    "fake": {"n", "f", "cf", "alpha", "pstar", "tail", "strict_dominance"},
}
# what each command reads beside its model's game; "out" is the --out flag
_COMMAND_READS = {
    "curve": {"model", "xmin", "xmax", "points", "out"},
    "equilibria": {"model", "grid", "tol"},
    "sweep": {"model", "xmin", "xmax", "points", "grid", "tol", "out"},
    "simulate": {"model", "trials", "seed"},
}


def reads(command: str, cfg: RunConfig) -> set:
    """The settings a run of command on cfg reads, and so the only ones
    it checks: RunConfig fields and "out". A sweep's cfg already holds
    its swept field."""
    if command == "reproduce":
        return {"grid", "tol", "out"}  # each figure fixes its model settings
    used = _GAME_READS[cfg.model] | _COMMAND_READS[command]
    if cfg.model == "fake" and cfg.pstar is None:
        # p* is the validation game's stable equilibrium, found by a search
        used |= _GAME_READS["truth"] | {"grid", "tol"}
    if command == "simulate":
        # the Monte Carlo run checks the full turnout average at x or xf
        used = used - {"tail"} | {"x" if cfg.model == "truth" else "xf"}
    return used


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    out: dict = {}
    for key, value in raw.items():
        if key not in _KIND:
            raise ValueError(f"unknown config key {key!r}")
        what, accepts = _CONFIG_VALUE[_KIND[key]]
        if not accepts(value):
            raise ValueError(f"config key {key!r} must be {what}")
        choices = _CHOICES.get(key)
        if choices and value not in choices:  # as argparse checks a flag's
            raise ValueError(f"config key {key!r} must be {' or '.join(map(repr, choices))}")
        out[key] = _KIND[key](value)
    return out


def _build_config(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    """The run's RunConfig, and where its settings came from:
    {"flag": {field: value}, "config": {field: value}}; a flag beats
    the config file, which beats RunConfig's defaults. The library call
    that reads a setting checks it (see reads)."""
    given = {
        "flag": {name: getattr(args, name) for name in _KIND if getattr(args, name) is not None},
        "config": _load_config_file(args.config) if args.config else {},
    }
    return replace(RunConfig(), **{**given["config"], **given["flag"]}), given


def _truth_params(cfg: RunConfig) -> TruthGameParams:
    return TruthGameParams(n_regular=cfg.n, threshold=cfg.k, cost_volunteer=cfg.c,
                           cost_failure=cfg.alpha, shared_reward=cfg.sigma,
                           allow_nonstandard=cfg.allow_nonstandard)


@dataclass(frozen=True)
class _Model:
    """A run's model, bound to its game: its PayoffPair at x, a float or an
    array; net(), its net as mix's (gains, degree); the point simulate
    checks; and simulate(trials=, seed=), the Monte Carlo run's SimResult there."""

    pair: object
    net: object
    point: float
    simulate: object


def _model_fns(cfg: RunConfig) -> _Model:
    """cfg's model. The fake model's p* is --pstar, else the validation
    game's stable equilibrium, derived once, here."""
    if cfg.model == "truth":
        params = _truth_params(cfg)
        return _Model(partial(payoff_pair_regular, params=params),
                      partial(_truth_net, params),
                      cfg.x, partial(simulate_truth, params, cfg.x))
    params = FakeGameParams(n_fake=cfg.f, cost_volunteer_fake=cfg.cf, cost_failure=cfg.alpha,
                            strict_dominance=cfg.strict_dominance)
    p_star = cfg.pstar
    if p_star is None:
        p_star = stable_equilibrium(_truth_params(cfg), cfg.grid, cfg.tol)
        if p_star is None:
            raise ValueError("the validation game has no stable equilibrium to derive "
                             "pstar from; pass --pstar explicitly")
    game = {"p_star": p_star, "n_regular": cfg.n, "params": params}
    tail = TailMode(cfg.tail)
    return _Model(partial(expected_fake_payoffs, **game, tail=tail),
                  partial(_fake_net, **game, tail=tail),
                  cfg.xf, partial(simulate_fake, **game, x_f=cfg.xf))


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv(header: str, lines) -> str:
    return "\n".join((header, *lines)) + "\n"


# ---------------------------------------------------------------- commands


def cmd_curve(cfg: RunConfig, out: str | None) -> int:
    xs, pair = sample_curve(_model_fns(cfg).pair, (cfg.xmin, cfg.xmax), cfg.points)
    columns = [c.tolist() for c in (xs, pair.volunteer_avg, pair.defector_avg, pair.net)]
    rows = ["%.17g,%.17g,%.17g,%.17g" % row for row in zip(*columns)]  # _fmt, one row at a time
    _write_text(out, _csv(CURVE_HEADER, rows))
    return 0


def cmd_equilibria(cfg: RunConfig) -> int:
    (report,) = _search(partial(mix, *_model_fns(cfg).net()), 1, cfg.grid, cfg.tol)
    roots = [{"x": e.x, "slope": e.slope, "stability": e.stability} for e in report.equilibria]
    print(json.dumps({"regime": report.regime, "equilibria": roots}, indent=2))
    return 0


def run_sweep(base: RunConfig, name: str, values: tuple):
    """Sample the net and find the equilibria of base with the field
    name set to each of values in turn: a list of (value, (xs, net),
    RegimeReport) in the order of values, (xs, net) as sample_curve
    returns it. The curve samples the same net function the search scans.
    The nets of one degree, all but across n in the truth model or f in
    the fake one, are mixed as one batch: one curve and one search each."""
    return _sweep([replace(base, **{name: value}) for value in values], name)


def _sweep(cfgs: list, name: str) -> list:
    # run_sweep's list for configs that share their curve and search settings
    nets = [_model_fns(cfg).net() for cfg in cfgs]
    results = {}
    for degree in {degree for _, degree in nets}:
        group = [i for i, net in enumerate(nets) if net[1] == degree]
        batch = partial(mix, lambda m: np.concatenate([nets[i][0](m) for i in group]), degree)
        xs, curves = sample_curve(batch, (cfgs[0].xmin, cfgs[0].xmax), cfgs[0].points)
        for i, curve, report in zip(group, curves, _search(batch, len(group), cfgs[0].grid, cfgs[0].tol)):
            results[i] = (getattr(cfgs[i], name), (xs, curve), report)
    return [results[i] for i in range(len(cfgs))]


def _sweep_csvs(swept_name: str, results) -> tuple[str, str]:
    """The long CSV and the summary CSV of run_sweep's results."""
    long_rows = []
    summary_rows = []
    for value, (xs, net), report in results:
        value_str = _fmt(float(value))
        row = f"{swept_name},{value_str},%.17g,%.17g"  # a field name and a number: no %
        long_rows += [row % pair for pair in zip(xs.tolist(), net.tolist())]
        roots = ("" if x is None else _fmt(x) for x in _roots_summary(report))
        summary_rows.append(",".join((value_str, report.regime, *roots)))
    return _csv(SWEEP_HEADER, long_rows), _csv(SUMMARY_HEADER, summary_rows)


def _summary_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return root + "_summary" + (ext if ext else ".csv")


def _sweep_values(cfg: RunConfig, param: str, raw_values: str, out: str | None) -> tuple:
    """The values --values gives param, each of param's type. param must
    be an int or float model field that the sweep reads with param set;
    any value will do, as a set pstar is all that changes what it reads."""
    if not out or out == "-":
        raise ValueError("sweep writes two files; pass --out PATH for the long CSV")
    allowed = [name for name, kind in _KIND.items()
               if kind in (int, float) and name not in _COMMAND_READS["sweep"]
               and name in reads("sweep", replace(cfg, **{name: kind(0)}))]
    if param not in allowed:
        raise ValueError(f"cannot sweep {param!r} in the {cfg.model} model; "
                         f"choose one of {', '.join(allowed)}")
    items = [piece.strip() for piece in raw_values.split(",") if piece.strip()]
    if not items:
        raise ValueError("--values must hold at least one number")
    return tuple(_KIND[param](piece) for piece in items)


def cmd_sweep(cfg: RunConfig, param: str, values: tuple, out: str) -> int:
    long_csv, summary_csv = _sweep_csvs(param, run_sweep(cfg, param, values))
    _write_text(out, long_csv)
    _write_text(_summary_path(out), summary_csv)
    return 0


def _z_score(hat: float, reference: float, se: float) -> float:
    diff = hat - reference
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / se


def cmd_simulate(cfg: RunConfig) -> int:
    # the Monte Carlo run draws every turnout, so it checks the full average
    model = _model_fns(replace(cfg, tail="full"))
    pair = model.pair(model.point)
    sim = model.simulate(trials=cfg.trials, seed=cfg.seed)
    analytic_v, analytic_d = pair.volunteer_avg, pair.defector_avg
    z_v = _z_score(sim.volunteer_avg_hat, analytic_v, sim.volunteer_se)
    z_d = _z_score(sim.defector_avg_hat, analytic_d, sim.defector_se)
    payload = {
        "model": cfg.model,
        "point": model.point,
        "trials": sim.trials,
        "seed": sim.seed,
        "volunteer_avg": sim.volunteer_avg_hat,
        "defector_avg": sim.defector_avg_hat,
        "se_v": sim.volunteer_se,
        "se_d": sim.defector_se,
        "analytic_v": analytic_v,
        "analytic_d": analytic_d,
        "z_v": z_v,
        "z_d": z_d,
    }
    print(json.dumps(payload, indent=2))
    return 1 if max(abs(z_v), abs(z_d)) > 5.0 else 0


# ------------------------------------------------------------- reproduce

_REPRO_POINTS = 201


def _fmt6(v: float | None) -> str:
    return "none" if v is None else f"{v:.6f}"


def _check_line(label: str, ok: bool, detail: str = "") -> str:
    status = "PASS" if ok else "FAIL"
    return f"check {label}: {status}" + (f" ({detail})" if detail else "")


def _monotone_check(label: str, values: list, decreasing: bool = False) -> str:
    """The check line that values are all found and strictly rise (or fall)."""
    steps = zip(values, values[1:])
    ok = None not in values and all(b < a if decreasing else a < b for a, b in steps)
    found = [_fmt6(v) for v in values if v is not None]
    return _check_line(label, ok, (" > " if decreasing else " < ").join(found))


def _fig1_lines(cfg: RunConfig, results) -> list[str]:
    lines = []
    pair_ok = True
    stables = []
    for value, _, report in results:
        unstable, stable = _roots_summary(report)
        interior = [e.stability for e in report.equilibria if e.stability != DEGENERATE]
        pair_ok = pair_ok and interior == [UNSTABLE, STABLE]
        stables.append(stable)
        lines.append(f"sigma={value:g}: unstable x={_fmt6(unstable)}, stable x={_fmt6(stable)}")
    return lines + [
        "",
        _check_line("two interior equilibria at every reward, smaller unstable", pair_ok),
        _monotone_check("stable equilibrium strictly increasing in the reward", stables),
    ]


def _fig2_lines(cfg: RunConfig, results) -> list[str]:
    lines = []
    unstables = {}
    stables = {}
    for value, _, report in results:
        unstable, stable = _roots_summary(report)
        if stable is None:
            at, peak = report.peak
            lines.append(
                f"k={value}: no interior equilibrium "
                f"(regime {report.regime}, net peaks at {_fmt6(peak)} near x={_fmt6(at)})"
            )
        else:
            unstables[value] = unstable
            stables[value] = stable
            lines.append(f"k={value}: unstable x={_fmt6(unstable)}, stable x={_fmt6(stable)}")
    spread_u = max(unstables.values()) - min(unstables.values()) if unstables else 0.0
    spread_s = max(stables.values()) - min(stables.values()) if stables else 0.0
    lines += [
        "",
        _check_line(
            "stable equilibrium inside [0.07, 0.11] at every threshold that has one",
            bool(stables) and all(0.07 <= s <= 0.11 for s in stables.values()),
            ", ".join(f"k={k}: {_fmt6(s)}" for k, s in sorted(stables.items())),
        ),
        _check_line(
            "unstable equilibrium moves more across thresholds than the stable one",
            spread_u > spread_s,
            f"spread {_fmt6(spread_u)} vs {_fmt6(spread_s)}",
        ),
    ]
    missing = [value for value, _, _ in results if value not in stables]
    if missing:
        lines.append(
            "note: no interior equilibrium at "
            + ", ".join(f"k={value}" for value in missing)
            + "; the reward cannot sustain volunteering there"
        )
    return lines


def _fig3_lines(cfg: RunConfig, results) -> list[str]:
    lines = [f"[{cfg.tail}]"]
    maxima = []
    crossings = []
    for p_star, _, report in results:
        at, peak = report.peak
        maxima.append(peak)
        crossings.append(report.equilibria[0].x if report.equilibria else None)
        lines.append(
            f"pstar={p_star:g}: max net {_fmt6(peak)} at x_f={_fmt6(at)}, "
            "first crossing "
            + (f"x_f={_fmt6(crossings[-1])}" if crossings[-1] is not None else "none")
        )
    ratio = maxima[0] / maxima[-1] if maxima[-1] != 0.0 else math.inf
    return lines + [
        _monotone_check(
            f"max net strictly decreasing in pstar [{cfg.tail}]", maxima, decreasing=True
        ),
        _monotone_check(f"first crossing strictly increasing in pstar [{cfg.tail}]", crossings),
        f"max-net ratio pstar=0.04 over pstar=0.10 [{cfg.tail}]: {ratio:.3f}",
        "",
    ]


# figure -> (title lines, swept field, swept values, report lines of one
# sweep, the sweeps as file prefix -> RunConfig overrides)
_FIGURES = {
    "fig1": (
        (
            "validation game, net payoff of volunteering across the shared reward",
            "n=100, threshold=6, cost_volunteer=0.5, cost_failure=0.9, sigma in {5, 6, 7, 8}",
        ),
        "sigma",
        (5.0, 6.0, 7.0, 8.0),
        _fig1_lines,
        {"fig1": {}},
    ),
    "fig2": (
        (
            "validation game, net payoff of volunteering across the success threshold",
            "n=100, cost_volunteer=0.5, cost_failure=0.9, shared_reward=5, k in {5, 6, 7, 8}",
        ),
        "k",
        (5, 6, 7, 8),
        _fig2_lines,
        {"fig2": {}},
    ),
    "fig3": (
        (
            "dissemination game, expected net payoff of pushing a fake item",
            "n=100, n_fake=8, cost_volunteer_fake=0.1, cost_failure=0.9, "
            "pstar in {0.04, 0.06, 0.08, 0.10}, both turnout-averaging modes",
        ),
        "pstar",
        (0.04, 0.06, 0.08, 0.10),
        _fig3_lines,
        {f"fig3_{tail}": {"model": "fake", "tail": tail} for tail in ("full", "truncated")},
    ),
}


def cmd_reproduce(figure: str, out_dir: str | None, grid: int, tol: float) -> int:
    if not out_dir:
        raise ValueError("reproduce writes several files; pass --out DIRECTORY")
    title, name, values, report_lines, sweeps = _FIGURES[figure]
    base = RunConfig(points=_REPRO_POINTS, grid=grid, tol=tol)
    cfgs = [replace(base, **overrides) for overrides in sweeps.values()]
    found = _sweep([replace(cfg, **{name: v}) for cfg in cfgs for v in values], name)
    files = {}
    lines = [*title, ""]
    for j, (prefix, cfg) in enumerate(zip(sweeps, cfgs)):  # all the sweeps were one batch
        results = found[j * len(values) : (j + 1) * len(values)]
        files[f"{prefix}_curves.csv"], files[f"{prefix}_summary.csv"] = _sweep_csvs(name, results)
        lines += report_lines(cfg, results)
    files[f"{figure}_report.txt"] = "\n".join(lines) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    for file_name, content in sorted(files.items()):
        _write_text(os.path.join(out_dir, file_name), content)
    return 0


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for name, help_text in _FLAGS.items():
        flag = "--" + name.replace("_", "-")
        if _KIND.get(name) is bool:
            common.add_argument(flag, action="store_const", const=True, help=help_text)
        else:
            common.add_argument(flag, type=_KIND.get(name), choices=_CHOICES.get(name),
                                help=help_text)
    parser = argparse.ArgumentParser(
        prog="vodgame",
        description="Mixed equilibria of the news-validation volunteering game "
                    "and the fake-news dissemination game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("curve", parents=[common], help="sample average payoffs and net over a range")
    sub.add_parser("equilibria", parents=[common], help="locate and classify mixed equilibria")
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="repeat curve and equilibria over a parameter")
    p_sweep.add_argument("--param", required=True, help="parameter to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    sub.add_parser("simulate", parents=[common], help="Monte Carlo self-check against the formulas")
    p_rep = sub.add_parser("reproduce", parents=[common],
                           help="rebuild a reference figure's data and checks")
    p_rep.add_argument("figure", choices=["fig1", "fig2", "fig3"])
    return parser


def _warn_ignored(command: str, given: dict, used: set) -> None:
    """Name on one stderr line each setting that a flag or the config
    file gave and the run does not read: flags with their "--", in
    RunConfig order with --out last, then config keys without."""
    flags = ["--" + name.replace("_", "-") for name in (*_KIND, "out")
             if name in given["flag"] and name not in used]
    keys = [name for name in _KIND if name in given["config"] and name not in used]
    parts = [", ".join(flags)] if flags else []
    if keys:
        parts.append("config keys " + ", ".join(keys))
    if parts:
        print(f"warning: {command} ignores {' and '.join(parts)}", file=sys.stderr)


_parser = None  # build_parser()'s, built by the first main() call; parses keep no state


def main(argv: list[str] | None = None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        cfg, given = _build_config(args)
        if args.out is not None:
            given["flag"]["out"] = args.out
        swept = {}
        if args.command == "sweep":
            values = _sweep_values(cfg, args.param, args.values, args.out)
            swept = {args.param: values[0]}  # --values decides it
        cfg = replace(cfg, **swept)
        _warn_ignored(args.command, given, reads(args.command, cfg) - set(swept))
        if args.command == "curve":
            return cmd_curve(cfg, args.out)
        if args.command == "equilibria":
            return cmd_equilibria(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.param, values, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_reproduce(args.figure, args.out, cfg.grid, cfg.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
