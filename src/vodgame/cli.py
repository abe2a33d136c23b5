"""Command-line interface: curve, equilibria, sweep, simulate, reproduce.

All outputs are deterministic. CSV floats carry 17 significant digits
so every value round-trips bit for bit; files are UTF-8 with LF line
endings. Exit codes: 0 success, 1 failed self-check, 2 invalid
parameters, 3 unwritable output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .equilibrium import (
    DEGENERATE,
    STABLE,
    UNSTABLE,
    RegimeReport,
    find_equilibria,
    sample_curve,
    stable_equilibrium,
)
from .fake import FakeGameParams, TailMode, expected_fake_payoffs, expected_net_payoff_fake
from .numerics import require_probability
from .oracle import simulate_fake, simulate_truth
from .truth import TruthGameParams, payoff_pair_regular

CURVE_HEADER = "x,volunteer_avg,defector_avg,net"
SWEEP_HEADER = "swept_name,swept_value,x,net"
SUMMARY_HEADER = "swept_value,regime,unstable_x,stable_x"

TRUTH_SWEEPABLE = ("n", "k", "c", "alpha", "sigma")
FAKE_SWEEPABLE = ("f", "cf", "alpha", "pstar")

_INT_FIELDS = {"n", "f", "k", "points", "grid", "trials", "seed"}
_FLOAT_FIELDS = {"c", "alpha", "cf", "sigma", "pstar", "x", "xf", "xmin", "xmax", "tol"}
_STR_FIELDS = {"model", "tail"}
_BOOL_FIELDS = {"strict_dominance", "allow_nonstandard"}


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation; flag > config file > these defaults."""

    model: str = "truth"
    n: int = 100
    f: int = 8
    k: int = 6
    c: float = 0.5
    alpha: float = 0.9
    cf: float = 0.1
    sigma: float = 5.0
    pstar: float | None = None
    x: float = 0.09
    xf: float = 0.5
    xmin: float = 0.0
    xmax: float = 1.0
    points: int = 101
    grid: int = 2048
    tol: float = 1e-10
    tail: str = "full"
    strict_dominance: bool = False
    trials: int = 1_000_000
    seed: int = 0
    allow_nonstandard: bool = False


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
    known = {f.name for f in fields(RunConfig)}
    out: dict = {}
    for key, value in raw.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        if key in _BOOL_FIELDS:
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be a boolean")
            out[key] = value
        elif key in _INT_FIELDS:
            if not (type(value) is int or type(value) is float and value.is_integer()):
                raise ValueError(f"config key {key!r} must be an integer")
            out[key] = int(value)
        elif key in _FLOAT_FIELDS:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"config key {key!r} must be a number")
            out[key] = float(value)
        elif key in _STR_FIELDS:
            if not isinstance(value, str):
                raise ValueError(f"config key {key!r} must be a string")
            out[key] = value
    return out


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    config_path = getattr(args, "config", None)
    if config_path:
        cfg = replace(cfg, **_load_config_file(config_path))
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    if overrides:
        cfg = replace(cfg, **overrides)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if cfg.model not in ("truth", "fake"):
        raise ValueError("model must be 'truth' or 'fake'")
    if cfg.tail not in ("truncated", "full"):
        raise ValueError("tail must be 'truncated' or 'full'")
    if cfg.points < 2:
        raise ValueError("points must be >= 2")
    if cfg.grid < 2:
        raise ValueError("grid must be >= 2")
    if not 0.0 < cfg.tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    if cfg.seed < 0:
        raise ValueError("seed must be >= 0")
    if not cfg.xmin < cfg.xmax:
        raise ValueError("need xmin < xmax")
    require_probability(cfg.xmin, "xmin")
    require_probability(cfg.xmax, "xmax")


def _truth_params(cfg: RunConfig) -> TruthGameParams:
    return TruthGameParams(
        n_regular=cfg.n,
        threshold=cfg.k,
        cost_volunteer=cfg.c,
        cost_failure=cfg.alpha,
        shared_reward=cfg.sigma,
        allow_nonstandard=cfg.allow_nonstandard,
    )


def _fake_params(cfg: RunConfig) -> FakeGameParams:
    return FakeGameParams(
        n_fake=cfg.f,
        cost_volunteer_fake=cfg.cf,
        cost_failure=cfg.alpha,
        strict_dominance=cfg.strict_dominance,
    )


def _resolve_pstar(cfg: RunConfig) -> float:
    """Explicit --pstar, else the validation game's stable equilibrium."""
    if cfg.pstar is not None:
        return require_probability(cfg.pstar, "pstar")
    derived = stable_equilibrium(_truth_params(cfg), cfg.grid, cfg.tol)
    if derived is None:
        raise ValueError(
            "the validation game has no stable equilibrium to derive pstar "
            "from; pass --pstar explicitly"
        )
    return derived


def _pair_fn(cfg: RunConfig):
    if cfg.model == "truth":
        params = _truth_params(cfg)
        return lambda x: payoff_pair_regular(x, params)
    params = _fake_params(cfg)
    p_star = _resolve_pstar(cfg)
    tail = TailMode(cfg.tail)
    n = cfg.n
    return lambda x: expected_fake_payoffs(x, p_star, n, params, tail)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- commands


def cmd_curve(cfg: RunConfig, out: str | None) -> int:
    sample = sample_curve(_pair_fn(cfg), (cfg.xmin, cfg.xmax), cfg.points)
    rows = [
        (_fmt(x), _fmt(v), _fmt(d), _fmt(nv))
        for x, v, d, nv in zip(sample.xs, sample.volunteer_avg, sample.defector_avg, sample.net)
    ]
    _write_text(out, _csv(CURVE_HEADER, rows))
    return 0


def cmd_equilibria(cfg: RunConfig) -> int:
    pair = _pair_fn(cfg)
    report = find_equilibria(lambda x: pair(x).net, cfg.grid, cfg.tol)
    payload = {
        "regime": report.regime,
        "equilibria": [
            {"x": e.x, "slope": e.slope, "stability": e.stability}
            for e in report.equilibria
        ],
    }
    print(json.dumps(payload, indent=2))
    return 0


def _roots_summary(report: RegimeReport) -> tuple[float | None, float | None]:
    unstable = next((e.x for e in report.equilibria if e.stability == UNSTABLE), None)
    stable = max((e.x for e in report.equilibria if e.stability == STABLE), default=None)
    return unstable, stable


def _parse_sweep_values(param: str, raw: str) -> tuple:
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        raise ValueError("--values must hold at least one number")
    if param in ("n", "k", "f"):
        return tuple(int(piece) for piece in items)
    return tuple(float(piece) for piece in items)


def run_sweep(base: RunConfig, name: str, values: tuple):
    """Evaluate the curve and the equilibria of base with the field
    name set to each of values in turn.

    Returns a list of (value, CurveSample, RegimeReport) in the order
    of values.
    """
    results = []
    for value in values:
        cfg = replace(base, **{name: value})
        pair = _pair_fn(cfg)
        sample = sample_curve(pair, (cfg.xmin, cfg.xmax), cfg.points)
        report = find_equilibria(lambda x: pair(x).net, cfg.grid, cfg.tol)
        results.append((value, sample, report))
    return results


def _sweep_csvs(swept_name: str, results) -> tuple[str, str]:
    """The long CSV and the summary CSV of run_sweep's results."""
    long_rows = []
    summary_rows = []
    for value, sample, report in results:
        value_str = _fmt(float(value))
        for x, nv in zip(sample.xs, sample.net):
            long_rows.append((swept_name, value_str, _fmt(x), _fmt(nv)))
        unstable, stable = _roots_summary(report)
        summary_rows.append(
            (
                value_str,
                report.regime,
                "" if unstable is None else _fmt(unstable),
                "" if stable is None else _fmt(stable),
            )
        )
    return _csv(SWEEP_HEADER, long_rows), _csv(SUMMARY_HEADER, summary_rows)


def _summary_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return root + "_summary" + (ext if ext else ".csv")


def cmd_sweep(cfg: RunConfig, param: str, raw_values: str, out: str | None) -> int:
    if not out or out == "-":
        raise ValueError("sweep writes two files; pass --out PATH for the long CSV")
    allowed = TRUTH_SWEEPABLE if cfg.model == "truth" else FAKE_SWEEPABLE
    if param not in allowed:
        raise ValueError(
            f"cannot sweep {param!r} in the {cfg.model} model; "
            f"choose one of {', '.join(allowed)}"
        )
    results = run_sweep(cfg, param, _parse_sweep_values(param, raw_values))
    long_csv, summary_csv = _sweep_csvs(param, results)
    _write_text(out, long_csv)
    _write_text(_summary_path(out), summary_csv)
    return 0


def _z_score(hat: float, reference: float, se: float) -> float:
    diff = hat - reference
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / se


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.model == "truth":
        params = _truth_params(cfg)
        point = cfg.x
        pair = payoff_pair_regular(point, params)
        sim = simulate_truth(params, point, cfg.trials, cfg.seed)
    else:
        params = _fake_params(cfg)
        p_star = _resolve_pstar(cfg)
        point = cfg.xf
        pair = expected_fake_payoffs(point, p_star, cfg.n, params, TailMode.FULL)
        sim = simulate_fake(p_star, cfg.n, params, point, cfg.trials, cfg.seed)
    analytic_v, analytic_d = pair.volunteer_avg, pair.defector_avg
    z_v = _z_score(sim.volunteer_avg_hat, analytic_v, sim.volunteer_se)
    z_d = _z_score(sim.defector_avg_hat, analytic_d, sim.defector_se)
    payload = {
        "model": cfg.model,
        "point": point,
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
    for value, sample, report in results:
        unstable, stable = _roots_summary(report)
        if stable is None:
            peak = max(sample.net)
            at = sample.xs[sample.net.index(peak)]
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
    xs = np.linspace(0.0, 1.0, 4097)  # where the max net is looked up
    params = _fake_params(cfg)
    lines = [f"[{cfg.tail}]"]
    maxima = []
    crossings = []
    for p_star, _, report in results:
        nets = expected_net_payoff_fake(xs, p_star, cfg.n, params, TailMode(cfg.tail))
        best = int(np.argmax(nets))
        maxima.append(float(nets[best]))
        crossings.append(report.equilibria[0].x if report.equilibria else None)
        lines.append(
            f"pstar={p_star:g}: max net {_fmt6(maxima[-1])} at x_f={_fmt6(xs[best])}, "
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
    files = {}
    lines = [*title, ""]
    for prefix, overrides in sweeps.items():
        cfg = replace(base, **overrides)
        results = run_sweep(cfg, name, values)
        files[f"{prefix}_curves.csv"], files[f"{prefix}_summary.csv"] = _sweep_csvs(name, results)
        lines += report_lines(cfg, results)
    files[f"{figure}_report.txt"] = "\n".join(lines) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    for file_name, content in sorted(files.items()):
        _write_text(os.path.join(out_dir, file_name), content)
    return 0


# ------------------------------------------------------------------ main


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=["truth", "fake"], default=None,
                        help="which game to evaluate (default truth)")
    parser.add_argument("--n", type=int, default=None, help="number of regular agents")
    parser.add_argument("--f", type=int, default=None, help="number of fake-side agents")
    parser.add_argument("--k", type=int, default=None, help="validation success threshold")
    parser.add_argument("--c", type=float, default=None, help="volunteering cost, regular side")
    parser.add_argument("--alpha", type=float, default=None, help="failure cost, both sides")
    parser.add_argument("--cf", type=float, default=None, help="volunteering cost, fake side")
    parser.add_argument("--sigma", type=float, default=None, help="shared reward pot")
    parser.add_argument("--pstar", type=float, default=None,
                        help="regular volunteering probability seen by the fake side "
                             "(default: the validation game's stable equilibrium)")
    parser.add_argument("--x", type=float, default=None,
                        help="regular volunteering probability for simulate")
    parser.add_argument("--xf", type=float, default=None,
                        help="fake volunteering probability for simulate")
    parser.add_argument("--xmin", type=float, default=None, help="curve range lower end")
    parser.add_argument("--xmax", type=float, default=None, help="curve range upper end")
    parser.add_argument("--points", type=int, default=None, help="curve sample count")
    parser.add_argument("--grid", type=int, default=None, help="equilibrium scan grid size")
    parser.add_argument("--tol", type=float, default=None, help="root refinement tolerance")
    parser.add_argument("--tail", choices=["truncated", "full"], default=None,
                        help="turnout averaging mode for the fake side")
    parser.add_argument("--strict-dominance", dest="strict_dominance",
                        action="store_const", const=True, default=None,
                        help="fake push wins only with strictly more volunteers")
    parser.add_argument("--trials", type=int, default=None, help="Monte Carlo trial count")
    parser.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")
    parser.add_argument("--config", default=None, help="JSON file with RunConfig fields")
    parser.add_argument("--out", default=None, help="output path ('-' for stdout)")
    parser.add_argument("--allow-nonstandard", dest="allow_nonstandard",
                        action="store_const", const=True, default=None,
                        help="accept parameter orderings that break the dilemma structure")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vodgame",
        description="Mixed equilibria of the news-validation volunteering game "
                    "and the fake-news dissemination game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="sample average payoffs and net over a range")
    _add_common_flags(p_curve)

    p_eq = sub.add_parser("equilibria", help="locate and classify mixed equilibria")
    _add_common_flags(p_eq)

    p_sweep = sub.add_parser("sweep", help="repeat curve and equilibria over a parameter")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, help="parameter to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")

    p_sim = sub.add_parser("simulate", help="Monte Carlo self-check against the formulas")
    _add_common_flags(p_sim)

    p_rep = sub.add_parser("reproduce", help="rebuild a reference figure's data and checks")
    _add_common_flags(p_rep)
    p_rep.add_argument("figure", choices=["fig1", "fig2", "fig3"])

    return parser


def _warn_ignored_flags(args: argparse.Namespace) -> None:
    # reproduce fixes every model parameter of its figure; only the scan
    # settings --grid and --tol (and --out, --config) reach it
    ignored = [
        "--" + f.name.replace("_", "-")
        for f in fields(RunConfig)
        if f.name not in ("grid", "tol") and getattr(args, f.name) is not None
    ]
    if ignored:
        print(
            f"warning: reproduce {args.figure} uses its own model parameters; "
            f"ignoring {', '.join(ignored)}",
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "curve":
            return cmd_curve(cfg, args.out)
        if args.command == "equilibria":
            return cmd_equilibria(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.param, args.values, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "reproduce":
            _warn_ignored_flags(args)
            return cmd_reproduce(args.figure, args.out, cfg.grid, cfg.tol)
        raise ValueError(f"unknown command {args.command!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
