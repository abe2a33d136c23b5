"""End-to-end checks of the command-line surface: output formats,
config precedence, exit codes, and determinism across runs."""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from vodgame.cli import (
    CURVE_HEADER,
    SUMMARY_HEADER,
    SWEEP_HEADER,
    RunConfig,
    _build_config,
    _load_config_file,
    _sweep_values,
    build_parser,
    main,
    reads,
)
from vodgame.equilibrium import find_equilibria
from vodgame.fake import FakeGameParams, TailMode, expected_net_payoff_fake
from vodgame.truth import TruthGameParams, net_payoff_regular, payoff_pair_regular


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------- curve


def test_curve_writes_expected_csv(tmp_path):
    out = tmp_path / "curve.csv"
    assert run_cli("curve", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == CURVE_HEADER
    assert len(rows) == 101
    first = rows[0]
    assert float(first[0]) == 0.0
    assert float(first[3]) == -0.5


def test_curve_round_trips_bit_for_bit(tmp_path):
    """Parsing the CSV and re-evaluating the model at each x must give
    back exactly the serialized numbers."""
    out = tmp_path / "curve.csv"
    assert run_cli("curve", "--points", "51", "--out", str(out)) == 0
    _, rows = read_rows(out)
    params = TruthGameParams()
    for x_s, v_s, d_s, n_s in rows:
        pair = payoff_pair_regular(float(x_s), params)
        assert f"{pair.volunteer_avg:.17g}" == v_s
        assert f"{pair.defector_avg:.17g}" == d_s
        assert f"{pair.net:.17g}" == n_s


def test_curve_to_stdout(capsys):
    assert run_cli("curve", "--points", "3", "--out", "-") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CURVE_HEADER
    assert len(lines) == 4


def test_curve_low_reward_never_positive(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli("curve", "--sigma", "3", "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert all(float(r[3]) < 0.0 for r in rows)


def test_curve_fake_model_has_profitable_region(tmp_path):
    out = tmp_path / "f.csv"
    code = run_cli(
        "curve", "--model", "fake", "--pstar", "0.04", "--tail", "full",
        "--out", str(out),
    )
    assert code == 0
    _, rows = read_rows(out)
    nets = [float(r[3]) for r in rows]
    assert max(nets) > 0.0
    assert nets[0] < 0.0


def test_curve_custom_range_and_points(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli("curve", "--xmin", "0.2", "--xmax", "0.6", "--points", "5",
                   "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert [float(r[0]) for r in rows] == [0.2, 0.3, 0.4, 0.5, 0.6]


# ---------------------------------------------------------------- equilibria


def equilibria_json(capsys, *argv):
    assert run_cli("equilibria", *argv) == 0
    return json.loads(capsys.readouterr().out)


def test_equilibria_baseline_json(capsys):
    doc = equilibria_json(capsys)
    assert doc["regime"] == "mixed"
    eqs = doc["equilibria"]
    assert len(eqs) == 2
    assert eqs[0]["stability"] == "unstable"
    assert eqs[1]["stability"] == "stable"
    assert abs(eqs[1]["x"] - 0.09) <= 0.02
    assert eqs[0]["x"] < eqs[1]["x"]
    assert set(eqs[0]) == {"x", "slope", "stability"}


def test_equilibria_classic_limit(capsys):
    doc = equilibria_json(capsys, "--sigma", "0", "--k", "1")
    assert len(doc["equilibria"]) == 1
    want = 1.0 - (0.5 / 0.9) ** (1.0 / 99.0)
    assert doc["equilibria"][0]["x"] == pytest.approx(want, abs=1e-6)


def test_equilibria_large_quorum_empty(capsys):
    doc = equilibria_json(capsys, "--k", "9")
    assert doc["regime"] == "dominant_defect"
    assert doc["equilibria"] == []


def test_equilibria_root_of_a_tiny_net_is_unstable(capsys):
    """Under truncated averaging at sigma 40 the fake net stays below
    ~1e-54, so its root's slope is 1.48e-54: against the net's own scale
    that is a transversal root, not a degenerate one."""
    doc = equilibria_json(capsys, "--model", "fake", "--tail", "truncated", "--sigma", "40")
    assert doc["regime"] == "mixed"
    (eq,) = doc["equilibria"]
    assert eq["x"] == 0.7270139766048092
    assert eq["slope"] == pytest.approx(1.48e-54, rel=0.01)
    assert eq["stability"] == "unstable"


# ---------------------------------------------------------------- sweep


def test_sweep_reward_summary_increasing(tmp_path):
    out = tmp_path / "s.csv"
    code = run_cli("sweep", "--param", "sigma", "--values", "5,6,7,8",
                   "--out", str(out))
    assert code == 0
    header, rows = read_rows(out)
    assert header == SWEEP_HEADER
    assert len(rows) == 4 * 101
    assert rows[0][0] == "sigma"

    sheader, srows = read_rows(tmp_path / "s_summary.csv")
    assert sheader == SUMMARY_HEADER
    stable = [float(r[3]) for r in srows]
    assert all(a < b for a, b in zip(stable, stable[1:]))
    assert all(r[1] == "mixed" for r in srows)


def test_sweep_threshold_summary(tmp_path):
    out = tmp_path / "k.csv"
    assert run_cli("sweep", "--param", "k", "--values", "5,6,7,8",
                   "--out", str(out)) == 0
    _, srows = read_rows(tmp_path / "k_summary.csv")
    by_value = {r[0]: r for r in srows}
    assert by_value["8"][1] == "dominant_defect"
    assert by_value["8"][3] == ""  # no stable root to report
    present = [float(r[3]) for r in srows if r[3]]
    assert len(present) == 3
    assert max(present) - min(present) <= 0.02


def test_sweep_fake_maxima_decrease_with_turnout(tmp_path):
    out = tmp_path / "p.csv"
    code = run_cli("sweep", "--model", "fake", "--param", "pstar",
                   "--values", "0.04,0.06,0.08,0.10", "--out", str(out))
    assert code == 0
    _, rows = read_rows(out)
    maxima = {}
    for _, value, _, net in rows:
        v = float(net)
        maxima[value] = max(maxima.get(value, -1e18), v)
    ordered = [maxima[key] for key in sorted(maxima, key=float)]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))


def test_sweep_summary_keeps_the_root_of_a_tiny_net(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ("sweep", "--model", "fake", "--tail", "truncated", "--param", "sigma",
            "--values", "12,40", "--out", str(out))
    assert run_cli(*argv) == 0
    summary = (tmp_path / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[2] == "40,mixed,0.72701397660480915,"


def _truth_net(xs, sigma, tail):
    return net_payoff_regular(xs, TruthGameParams(shared_reward=sigma))


def _fake_net(xs, p_star, tail):
    return expected_net_payoff_fake(xs, p_star, 100, FakeGameParams(), TailMode(tail))


@pytest.mark.parametrize("argv,files,net", [
    (("sweep", "--param", "sigma", "--values", "5,6,7,8", "--out", "s.csv"),
     {"s.csv": None}, _truth_net),
    (("sweep", "--model", "fake", "--param", "pstar", "--values", "0.04,0.10", "--out", "p.csv"),
     {"p.csv": "full"}, _fake_net),
    (("reproduce", "fig3", "--out", "."),
     {"fig3_full_curves.csv": "full", "fig3_truncated_curves.csv": "truncated"}, _fake_net),
], ids=["sigma", "pstar", "fig3"])
def test_long_csv_nets_are_the_searched_net_bit_for_bit(tmp_path, monkeypatch, argv, files, net):
    """Every net cell of a sweep's or a figure's long CSV is the net
    function its search scans, at the cell's x and swept value, to all
    17 digits."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 0
    for name, tail in files.items():
        _, rows = read_rows(tmp_path / name)
        cells = {}
        for _, value, x, cell in rows:
            cells.setdefault(value, []).append((float(x), cell))
        assert rows
        for value, column in cells.items():
            want = net(np.array([x for x, _ in column]), float(value), tail)
            assert [cell for _, cell in column] == [f"{y:.17g}" for y in want.tolist()], value


def test_sweep_requires_out_path(capsys):
    assert run_cli("sweep", "--param", "sigma", "--values", "5,6") == 2
    assert "out" in capsys.readouterr().err


def test_sweep_rejects_foreign_parameter(tmp_path, capsys):
    """With --pstar given the fake model never reads sigma, so it cannot
    be swept; the error names the fields that can."""
    code = run_cli("sweep", "--model", "fake", "--pstar", "0.06", "--param", "sigma",
                   "--values", "5", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: cannot sweep 'sigma' in the fake model; "
                   "choose one of n, f, alpha, cf, pstar\n")


@pytest.mark.parametrize("param,values", [("n", "100,120"), ("sigma", "5,5.5")])
def test_fake_sweep_varies_the_settings_pstar_comes_from(tmp_path, param, values):
    """Without --pstar the fake model reads the validation game's settings
    through p*, so they can be swept: under full averaging the push is
    mixed at sigma = 5 and dominated from sigma = 5.5 on."""
    out = tmp_path / "s.csv"
    argv = ("sweep", "--model", "fake", "--param", param, "--values", values)
    assert run_cli(*argv, "--out", str(out)) == 0
    _, rows = read_rows(tmp_path / "s_summary.csv")
    assert [row[0] for row in rows] == values.split(",")
    if param == "sigma":
        assert [row[1] for row in rows] == ["mixed", "dominant_defect"]


def test_sweep_rejects_empty_values(tmp_path):
    assert run_cli("sweep", "--param", "sigma", "--values", " , ",
                   "--out", str(tmp_path / "x.csv")) == 2


# a fake model that derives p* reads every model field
@pytest.mark.parametrize("param", ["n", "f", "k", "c", "alpha", "cf", "sigma", "pstar"])
def test_sweep_values_take_their_fields_type(param):
    cfg = RunConfig(model="fake")
    values = _sweep_values(cfg, param, "3, 4,", "s.csv")
    counts = param in ("n", "k", "f")
    assert values == (3, 4)
    assert all(type(v) is (int if counts else float) for v in values)
    if counts:
        with pytest.raises(ValueError):
            _sweep_values(cfg, param, "3.5", "s.csv")


# ---------------------------------------------------------------- simulate


def test_simulate_degenerate_point_is_exact(capsys):
    assert run_cli("simulate", "--x", "1", "--trials", "1000") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["se_v"] == 0.0 and doc["se_d"] == 0.0
    assert doc["volunteer_avg"] == doc["analytic_v"]
    assert doc["defector_avg"] == doc["analytic_d"]
    assert doc["z_v"] == 0.0 and doc["z_d"] == 0.0


def test_simulate_reports_documented_fields(capsys):
    assert run_cli("simulate", "--trials", "20000", "--seed", "42") == 0
    doc = json.loads(capsys.readouterr().out)
    required = {
        "volunteer_avg", "defector_avg", "se_v", "se_d",
        "analytic_v", "analytic_d", "z_v", "z_d",
    }
    assert required <= set(doc)
    assert abs(doc["z_v"]) <= 5.0 and abs(doc["z_d"]) <= 5.0
    assert doc["trials"] == 20000 and doc["seed"] == 42


def test_simulate_fake_no_turnout_exact(capsys):
    code = run_cli("simulate", "--model", "fake", "--pstar", "0",
                   "--trials", "1000")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["volunteer_avg"] - doc["defector_avg"] == pytest.approx(-0.1, abs=1e-15)
    assert doc["se_v"] == 0.0


def test_simulate_fake_derives_turnout_from_equilibrium(capsys):
    # no --pstar: the stable root of the validation game is used
    code = run_cli("simulate", "--model", "fake", "--trials", "20000",
                   "--seed", "42")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["z_v"]) <= 5.0


@pytest.mark.parametrize(
    "model,name,value",
    [
        ("fake", "tail", "truncated"),
        ("truth", "strict_dominance", True),
        ("fake", "x", 0.3),
        ("fake", "k", 9),
        ("fake", "grid", 300),
        ("truth", "f", 3),
        ("truth", "cf", 0.2),
        ("truth", "pstar", 0.06),
        ("truth", "xf", 0.3),
        ("truth", "tail", "truncated"),
        ("truth", "grid", 300),
    ],
)
def test_simulate_names_the_settings_it_ignores(tmp_path, capsys, model, name, value):
    """A setting simulate never reads for its model is named on one stderr
    line, as a flag with its "--" and as a config key without; stdout
    and the exit code stay those of a plain run. The fake model's plain
    run passes --pstar, so it reads none of the validation game's
    settings and no search setting."""
    base = ("simulate", "--model", model, "--trials", "2000", "--seed", "7")
    if model == "fake":
        base += ("--pstar", "0.06")
    assert run_cli(*base) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    flag = "--" + name.replace("_", "-")
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({name: value}), encoding="utf-8")
    flag_argv = (flag,) if value is True else (flag, str(value))
    for extra, named in ((flag_argv, flag), (("--config", str(cfgfile)), "config keys " + name)):
        assert run_cli(*base, *extra) == 0
        captured = capsys.readouterr()
        assert captured.out == plain.out
        assert captured.err == f"warning: simulate ignores {named}\n"


_SIGMA_SWEEP = ("--param", "sigma", "--values", "5,6")
_SEARCH_IGNORED = [
    (command, extra, {name: value})
    for command, extra in (("curve", ()), ("equilibria", ()), ("sweep", _SIGMA_SWEEP))
    for name, value in (("x", 0.3), ("xf", 0.2), ("trials", 5), ("seed", 3))
] + [
    ("sweep", _SIGMA_SWEEP, {"sigma": 9.0}),
    ("equilibria", (), {"f": 3, "cf": 0.2, "tail": "truncated"}),
    ("equilibria", ("--model", "fake", "--pstar", "0.06"), {"k": 9, "sigma": 7.0}),
    ("equilibria", (), {"xmin": 0.2, "points": 7}),
    ("curve", (), {"grid": 300, "tol": 1e-3}),
    ("sweep", ("--model", "fake", "--param", "pstar", "--values", "0.06"), {"k": 9}),
]


@pytest.mark.parametrize(
    "command,extra,settings", _SEARCH_IGNORED,
    ids=[command + "".join(f"-{name}-{value}" for name, value in settings.items())
         for command, _, settings in _SEARCH_IGNORED],
)
def test_search_commands_name_the_settings_they_ignore(tmp_path, capsys, command, extra, settings):
    """curve, equilibria and sweep run no simulation, equilibria samples
    no curve, curve runs no search, the truth model has no fake side, a
    given --pstar leaves the validation game unread, and sweep takes its
    swept field from --values. The settings a run never reads are named
    on one stderr line, as flags and as config keys; stdout, the files
    written and the exit code stay those of a plain run."""
    out = tmp_path / "sweep.csv"
    files = (out, tmp_path / "sweep_summary.csv")
    base = (command, *extra) + (("--out", str(out)) if command == "sweep" else ())
    assert run_cli(*base) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    written = [path.read_bytes() for path in files if path.exists()]
    assert len(written) == (2 if command == "sweep" else 0)
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(settings), encoding="utf-8")
    flags = [(f"--{name}", str(value)) for name, value in settings.items()]
    for argv, named in (
        ([text for flag in flags for text in flag], ", ".join(flag for flag, _ in flags)),
        (("--config", str(cfgfile)), "config keys " + ", ".join(settings)),
    ):
        assert run_cli(*base, *argv) == 0
        captured = capsys.readouterr()
        assert captured.out == plain.out
        assert captured.err == f"warning: {command} ignores {named}\n"
        assert [path.read_bytes() for path in files if path.exists()] == written


@pytest.mark.parametrize("command", ["equilibria", "simulate"])
def test_json_commands_name_the_out_they_ignore(tmp_path, capsys, command):
    """equilibria and simulate print their JSON to stdout: --out is named
    on the warning line and no file is written."""
    base = (command, "--trials", "200") if command == "simulate" else (command,)
    assert run_cli(*base) == 0
    plain = capsys.readouterr()
    target = tmp_path / "result.json"
    assert run_cli(*base, "--out", str(target)) == 0
    captured = capsys.readouterr()
    assert plain.err == ""
    assert captured.out == plain.out
    assert captured.err == f"warning: {command} ignores --out\n"
    assert not target.exists()


# a flag value for every setting, unlike the default and the base runs below
_OTHER_VALUES = {
    "n": "50", "f": "4", "k": "5", "c": "0.4", "alpha": "0.8", "cf": "0.2", "sigma": "6",
    "pstar": "0.05", "x": "0.1", "xf": "0.3", "xmin": "0.1", "xmax": "0.8", "points": "11",
    "grid": "65", "tol": "1e-9", "tail": "truncated", "strict_dominance": None,
    "trials": "10", "seed": "1", "allow_nonstandard": None,
}
# and one that a run reading the setting rejects, where the flag can take one
_INVALID_VALUES = dict(
    _OTHER_VALUES, n="1", f="0", k="0", c="-0.4", alpha="-0.8", cf="-0.2", sigma="-6",
    pstar="1.5", x="1.5", xf="1.5", xmin="0.9", xmax="0.1", points="1", grid="1", tol="0",
    trials="0", seed="-1",
)
_READS_BASES = {
    "curve": (),
    "equilibria": (),
    "sweep": ("--param", "alpha", "--values", "0.85"),
    "simulate": (),
    "reproduce": ("fig1",),
}


@pytest.mark.parametrize("pstar", [None, "0.06"])
@pytest.mark.parametrize("model", ["truth", "fake"])
@pytest.mark.parametrize("command", sorted(_READS_BASES))
def test_settings_outside_reads_change_no_output(tmp_path, capsys, command, model, pstar):
    """Every setting outside reads(command, cfg), all given at once as
    flags, leaves the exit code, stdout and the files written as a plain
    run left them, and the warning names each of them: with valid values,
    and with values that a run reading them rejects, as a run checks only
    what it reads."""
    base = [command, *_READS_BASES[command], "--model", model,
            "--grid", "64", "--points", "5", "--trials", "200"]
    base += [] if pstar is None else ["--pstar", pstar]
    cfg, _ = _build_config(build_parser().parse_args(base))
    if command == "sweep":
        cfg = replace(cfg, alpha=0.85)
    settings = [f.name for f in fields(RunConfig)] + ["out"]
    outside = [name for name in settings if name not in reads(command, cfg)]
    if command == "sweep":
        outside.append("alpha")  # --values decides it
    flags = ["--" + name.replace("_", "-") for name in outside]
    runs = {}
    for run, table in (("plain", None), ("other", _OTHER_VALUES), ("invalid", _INVALID_VALUES)):
        values = dict(table or {}, model="truth" if model == "fake" else "fake",
                      out=str(tmp_path / "ignored.json"))
        argv = base + ([] if table is None else
                       [text for flag, name in zip(flags, outside) for text in (flag, values[name])
                        if text])
        folder = tmp_path / run
        folder.mkdir()
        if "out" not in outside:
            argv = argv + ["--out", str(folder if command == "reproduce" else folder / "o.csv")]
        code = run_cli(*argv)
        captured = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in folder.iterdir()}
        runs[run] = (code, captured.out, files), set(re.findall(r"--[a-z-]+", captured.err))
    assert runs["plain"][0][0] == 0
    for run in ("other", "invalid"):
        assert runs[run][0] == runs["plain"][0], run
        assert set(flags) <= runs[run][1], run
    assert not (tmp_path / "ignored.json").exists()


def test_fake_sweep_derives_pstar_once_per_value(tmp_path, monkeypatch):
    """Without --pstar each swept value runs the validation game's search
    once, for its curve and its equilibria together."""
    import vodgame.cli

    calls = []

    def counted(*args, real=vodgame.cli.stable_equilibrium):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vodgame.cli, "stable_equilibrium", counted)
    out = tmp_path / "sweep.csv"
    argv = ("sweep", "--model", "fake", "--param", "cf", "--values", "0.05,0.1,0.2")
    assert run_cli(*argv, "--out", str(out)) == 0
    assert len(calls) == 3


def test_simulate_fake_needs_pstar_when_no_equilibrium(capsys):
    code = run_cli("simulate", "--model", "fake", "--sigma", "3",
                   "--trials", "1000")
    assert code == 2
    assert "pstar" in capsys.readouterr().err


# ---------------------------------------------------------------- reproduce


def test_reproduce_requires_directory(capsys):
    assert run_cli("reproduce", "fig1") == 2


def test_reproduce_threshold_family_reports_the_gap(tmp_path):
    out = tmp_path / "fig2"
    assert run_cli("reproduce", "fig2", "--out", str(out)) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["fig2_curves.csv", "fig2_report.txt", "fig2_summary.csv"]
    report = (out / "fig2_report.txt").read_text(encoding="utf-8")
    assert "k=8: no interior equilibrium" in report
    assert "check stable equilibrium inside [0.07, 0.11]" in report
    assert "PASS" in report


def test_reproduce_names_the_model_flags_it_ignores(tmp_path, capsys):
    """reproduce fixes its figure's model parameters: model flags given on
    the command line are named on one stderr line and change no byte of
    the output; --grid and --tol are used, so they are not named."""
    plain, flagged = tmp_path / "plain", tmp_path / "flagged"
    assert run_cli("reproduce", "fig1", "--out", str(plain)) == 0
    assert capsys.readouterr().err == ""
    argv = ("reproduce", "fig1", "--n", "50", "--sigma", "9", "--grid", "2048", "--tol", "1e-10")
    assert run_cli(*argv, "--out", str(flagged)) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert re.findall(r"--[a-z-]+", line) == ["--n", "--sigma"]
    assert sorted(os.listdir(flagged)) == sorted(os.listdir(plain))
    for name in os.listdir(plain):
        assert (flagged / name).read_bytes() == (plain / name).read_bytes(), name


def test_reproduce_names_the_config_keys_it_ignores(tmp_path, capsys):
    """Model keys from --config are named on the same single warning
    line as model flags, without "--"; grid and tol are used and change
    no byte of the output."""
    cfgfile = tmp_path / "run.json"
    settings = {"sigma": 9, "tol": 1e-10, "n": 50, "grid": 2048}
    cfgfile.write_text(json.dumps(settings), encoding="utf-8")
    plain, configured = tmp_path / "plain", tmp_path / "configured"
    assert run_cli("reproduce", "fig1", "--out", str(plain)) == 0
    capsys.readouterr()
    argv = ("reproduce", "fig1", "--config", str(cfgfile), "--k", "5")
    assert run_cli(*argv, "--out", str(configured)) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == "warning: reproduce ignores --k and config keys n, sigma"
    assert sorted(os.listdir(configured)) == sorted(os.listdir(plain))
    for name in os.listdir(plain):
        assert (configured / name).read_bytes() == (plain / name).read_bytes(), name


def reproduce_report(tmp_path, figure, *flags):
    out = tmp_path / figure
    assert run_cli("reproduce", figure, "--out", str(out), *flags) == 0
    return (out / f"{figure}_report.txt").read_text(encoding="utf-8").splitlines()


def check_lines(report):
    return [line for line in report if line.startswith("check ")]


@pytest.mark.parametrize(
    "figure,checks",
    [
        (
            "fig1",
            [
                "two interior equilibria at every reward, smaller unstable: PASS",
                "stable equilibrium strictly increasing in the reward: PASS",
            ],
        ),
        (
            "fig2",
            [
                "stable equilibrium inside [0.07, 0.11] at every threshold that has one: PASS",
                "unstable equilibrium moves more across thresholds than the stable one: PASS",
            ],
        ),
        (
            "fig3",
            [
                "max net strictly decreasing in pstar [full]: PASS",
                "first crossing strictly increasing in pstar [full]: PASS",
                "max net strictly decreasing in pstar [truncated]: FAIL",
                "first crossing strictly increasing in pstar [truncated]: PASS",
            ],
        ),
    ],
)
def test_reproduce_reports_pin_their_checks(tmp_path, figure, checks):
    """Each report's check lines, in order, with their verdicts at the
    defaults; fig3 also keeps its two max-net ratios."""
    report = reproduce_report(tmp_path, figure)
    got = [line.split(" (")[0] for line in check_lines(report)]
    assert got == [f"check {check}" for check in checks]
    if figure == "fig3":
        assert "max-net ratio pstar=0.04 over pstar=0.10 [full]: 16.182" in report
        assert "max-net ratio pstar=0.04 over pstar=0.10 [truncated]: 0.785" in report


def test_reproduce_fig3_reads_max_net_off_the_search(tmp_path, monkeypatch):
    """Each p*'s max net and its x_f are the peak of that sweep's search.
    Both modes' 8 p* nets are mixed together in every kernel call: 8
    search calls and one for the 201-point curve. None of them is on a
    separate fine grid, and the pair is never evaluated."""
    import vodgame.cli
    from test_equilibrium import mix_calls

    def pair(*args, **game):
        raise AssertionError("reproduce fig3 evaluated the pair")

    monkeypatch.setattr(vodgame.cli, "expected_fake_payoffs", pair)
    calls = mix_calls(monkeypatch)
    report = reproduce_report(tmp_path, "fig3")
    assert len(calls) == 9
    assert {count for count, _ in calls} == {8}
    sizes = [size for _, size in calls]
    assert sizes.count(201) == 1
    assert 4097 not in sizes
    for tail in TailMode:
        for p_star in (0.04, 0.06, 0.08, 0.10):
            at, peak = find_equilibria(
                lambda x: expected_net_payoff_fake(x, p_star, 100, FakeGameParams(), tail)
            ).peak
            start = f"pstar={p_star:g}: max net {peak:.6f} at x_f={at:.6f}, "
            assert sum(line.startswith(start) for line in report) == 1, (tail, start)


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_reproduce_searches_each_figure_as_one_batch(tmp_path, monkeypatch, figure):
    """A figure's sweep is one batch: 9 kernel calls, each mixing all 4
    of its nets (fig3's 9 calls of 8 are pinned above)."""
    from test_equilibrium import mix_calls

    calls = mix_calls(monkeypatch)
    reproduce_report(tmp_path, figure)
    assert [count for count, _ in calls] == [4] * 9


@pytest.mark.parametrize("grid", [2048, 8])
def test_reproduce_fig3_modes_match_each_mode_swept_alone(tmp_path, grid):
    """fig3 searches both modes in one batch; each mode's two CSVs are
    byte for byte those of run_sweep on that mode alone."""
    from vodgame.cli import _sweep_csvs, run_sweep

    out = tmp_path / "fig3"
    assert run_cli("reproduce", "fig3", "--grid", str(grid), "--out", str(out)) == 0
    for tail in TailMode:
        cfg = RunConfig(model="fake", tail=tail.value, points=201, grid=grid)
        alone = _sweep_csvs("pstar", run_sweep(cfg, "pstar", (0.04, 0.06, 0.08, 0.10)))
        for kind, text in zip(("curves", "summary"), alone):
            assert (out / f"fig3_{tail.value}_{kind}.csv").read_bytes() == text.encode(), (tail, kind)


def test_reproduce_reports_missing_roots(tmp_path):
    """Grids too coarse to see a sign change leave the roots missing,
    and the reports say so instead of failing."""
    fig1 = reproduce_report(tmp_path, "fig1", "--grid", "8")
    assert "sigma=5: unstable x=none, stable x=none" in fig1
    assert all(": FAIL" in line for line in check_lines(fig1))
    fig2 = reproduce_report(tmp_path, "fig2", "--grid", "3")
    assert [line.split(":")[0] for line in fig2 if "no interior equilibrium (" in line] == [
        "k=5", "k=6", "k=7", "k=8"
    ]
    assert fig2[-1] == (
        "note: no interior equilibrium at k=5, k=6, k=7, k=8; "
        "the reward cannot sustain volunteering there"
    )


# ---------------------------------------------------------------- config


def test_config_file_is_honored(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"sigma": 7}), encoding="utf-8")
    doc = equilibria_json(capsys, "--config", str(cfgfile))
    with_flag = equilibria_json(capsys, "--sigma", "7")
    assert doc == with_flag


def test_flag_beats_config_beats_default(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"sigma": 7}), encoding="utf-8")
    flag_wins = equilibria_json(capsys, "--config", str(cfgfile), "--sigma", "5")
    default = equilibria_json(capsys)
    assert flag_wins == default
    assert RunConfig().sigma == 5.0


CONFIG_FILES = [
    # (file content, what the error says, or None where it is accepted)
    ('{"sigma": "7"}', "config key 'sigma' must be a number"),
    ('{"mystery": 1}', "unknown config key 'mystery'"),
    ('{"strict_dominance": 1}', "config key 'strict_dominance' must be a boolean"),
    ('[1, 2]', "config file must hold a JSON object"),
    ('{"sigma": 7', "is not valid JSON"),
    ('{"n": Infinity}', "config key 'n' must be an integer"),
    ('{"tol": NaN}', "tol must be positive and finite"),
    ('{"model": 3}', "config key 'model' must be a string"),
    ('{"trials": 1.5}', "config key 'trials' must be an integer"),
    ('{"sigma": true}', "config key 'sigma' must be a number"),
    ('{"pstar": null}', "config key 'pstar' must be a number"),
    ('{"model": "fiction"}', "config key 'model' must be 'truth' or 'fake'"),
    ('{"tail": "half"}', "config key 'tail' must be 'truncated' or 'full'"),
    ('{"trials": 5.0}', None),
]


@pytest.mark.parametrize("payload,error", CONFIG_FILES, ids=[p for p, _ in CONFIG_FILES])
def test_config_file_validation(tmp_path, capsys, payload, error):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(payload, encoding="utf-8")
    code = run_cli("equilibria", "--config", str(cfgfile))
    err = capsys.readouterr().err
    if error is None:  # equilibria runs no simulation and names the key it ignores
        assert code == 0
        assert err == "warning: equilibria ignores config keys trials\n"
        (value,) = _load_config_file(str(cfgfile)).values()
        assert value == 5 and type(value) is int
    else:
        assert code == 2
        assert err.startswith("error: ") and error in err


# a flag's text and a different config-file value for every RunConfig field
FIELD_VALUES = {
    "model": ("fake", "truth"),
    "n": ("50", 60),
    "f": ("4", 5),
    "k": ("5", 7),
    "c": ("0.4", 0.3),
    "alpha": ("0.8", 0.7),
    "cf": ("0.2", 0.3),
    "sigma": ("6", 7),
    "pstar": ("0.05", 0.06),
    "x": ("0.1", 0.2),
    "xf": ("0.3", 0.4),
    "xmin": ("0.1", 0.2),
    "xmax": ("0.8", 0.9),
    "points": ("11", 12),
    "grid": ("64", 65),
    "tol": ("1e-9", 1e-8),
    "tail": ("truncated", "full"),
    "strict_dominance": (None, False),
    "trials": ("10", 20),
    "seed": ("1", 2),
    "allow_nonstandard": (None, False),
}
COMMANDS = {
    "curve": (),
    "equilibria": (),
    "sweep": ("--param", "sigma", "--values", "5"),
    "simulate": (),
    "reproduce": ("fig1",),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
def test_every_field_is_a_flag_of_every_command(tmp_path, command, field):
    """Each RunConfig field's flag parses to a value of the field's type
    (a boolean's flag takes no value and sets it) and beats the field's
    config-file key."""
    text, from_file = FIELD_VALUES[field.name]
    flag = ["--" + field.name.replace("_", "-")] + ([] if text is None else [text])
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({field.name: from_file}), encoding="utf-8")
    argv = [command, *COMMANDS[command], *flag, "--config", str(cfgfile)]
    cfg, given = _build_config(build_parser().parse_args(argv))
    value = getattr(cfg, field.name)
    assert type(value).__name__ == field.type.split(" | ")[0]  # pstar: "float | None"
    want = True if text is None else type(value)(text)
    assert value == want != from_file
    assert given["flag"] == {field.name: want}
    assert given["config"] == {field.name: from_file}


def test_readme_parameter_table_lists_every_field():
    """README's "Parameters and defaults" table names each RunConfig
    field's flag, and names no other flag."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Parameters and defaults")[1].split("\n\n")[1]
    rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    flags = {flag for row in rows for flag in re.findall(r"--([a-z-]+)", row)}
    assert flags == {f.name.replace("_", "-") for f in fields(RunConfig)}


def test_config_file_missing(tmp_path):
    assert run_cli("equilibria", "--config", str(tmp_path / "nope.json")) == 2


# ---------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ("curve", "--k", "200"),            # threshold above population
        ("curve", "--c", "0.9"),            # volunteering dearer than failing
        ("equilibria", "--tol", "0"),       # nonpositive tolerance
        ("curve", "--points", "1"),
        ("curve", "--xmin", "0.5", "--xmax", "0.2"),
        ("equilibria", "--model", "fake", "--pstar", "1.5"),
        ("simulate", "--trials", "0"),
        ("curve", "--c", "nan"),            # non-finite cost
        ("equilibria", "--sigma", "inf"),   # non-finite reward
        ("equilibria", "--tol", "nan"),     # non-finite tolerance
        ("equilibria", "--tol", "inf"),
        ("simulate", "--seed", "-1"),
        ("equilibria", "--grid", "1"),
        ("curve", "--xmin", "-0.1"),
        ("reproduce", "fig1", "--tol", "0"),
        ("equilibria", "--n", str(2**53 + 1)),  # player counts past float64's exact integers
        ("equilibria", "--model", "fake", "--f", str(10**20)),
        ("equilibria", "--model", "fake", "--pstar", "0.06", "--n", str(10**20)),  # the turnout's
    ],
)
def test_invalid_parameters_exit_two(argv, tmp_path, capsys):
    """A run rejects each invalid setting it reads, on an error line."""
    assert run_cli(*argv, "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


def test_negative_seed_error_names_seed(tmp_path, capsys):
    cfgfile = tmp_path / "seed.json"
    cfgfile.write_text('{"seed": -1}', encoding="utf-8")
    for argv in (("--seed", "-1"), ("--config", str(cfgfile))):
        assert run_cli("simulate", *argv) == 2
        assert "seed" in capsys.readouterr().err


def test_fake_simulate_error_names_xf(capsys):
    argv = ("simulate", "--model", "fake", "--pstar", "0.06", "--xf", "1.5", "--trials", "100")
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: x_f must lie in [0, 1], got 1.5"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("equilibria", "--n", "1"), "n_regular must be at least 2"),
        (("equilibria", "--n", "1", "--c", "nan"), "n_regular must be at least 2"),
        (("equilibria", "--model", "fake", "--f", "0"), "n_fake must be at least 1"),
        (("equilibria", "--model", "fake", "--pstar", "0.06", "--n", "0"),
         "n_regular must be at least 1"),
        (("simulate", "--trials", "0"), "trials must be at least 1"),
        (("simulate", "--trials", "0", "--seed", "-1"), "trials must be at least 1"),
    ],
)
def test_count_floor_errors_exit_two(argv, message, capsys):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_unwritable_output_exits_three(tmp_path):
    target = tmp_path / "no_such_dir" / "curve.csv"
    assert run_cli("curve", "--out", str(target)) == 3


def test_reproduce_unwritable_directory_exits_three(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x", encoding="utf-8")
    assert run_cli("reproduce", "fig1", "--out", str(blocker / "sub")) == 3


def test_nonstandard_costs_need_explicit_opt_in(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run_cli("curve", "--c", "0.9", "--alpha", "0.5", "--out", str(out)) == 2
    capsys.readouterr()
    assert run_cli("curve", "--c", "0.9", "--alpha", "0.5",
                   "--allow-nonstandard", "--out", str(out)) == 0


def _help(parse, argv, capsys) -> str:
    with pytest.raises(SystemExit) as done:
        parse([*argv, "--help"])
    assert done.value.code == 0
    return capsys.readouterr().out


def test_main_parser_leaks_nothing_between_calls(monkeypatch, capsys):
    """main builds its parser once per process and reuses it. A flag of
    one run is not seen by the next: without --pstar the fake model
    derives p* again. A usage error after a run that succeeded still
    exits 2, and every --help is byte for byte a fresh parser's."""
    import vodgame.cli

    derived = []

    def counted(*args, real=vodgame.cli.stable_equilibrium):
        derived.append(args)
        return real(*args)

    monkeypatch.setattr(vodgame.cli, "stable_equilibrium", counted)
    assert run_cli("equilibria", "--model", "fake", "--pstar", "0.06") == 0
    parser = vodgame.cli._parser
    assert derived == []
    assert run_cli("equilibria", "--model", "fake") == 0
    assert len(derived) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as done:
        run_cli("equilibria", "--no-such-flag")
    assert done.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    for argv in ([], ["curve"], ["equilibria"], ["sweep"], ["simulate"], ["reproduce"]):
        fresh = _help(build_parser().parse_args, argv, capsys)
        assert _help(main, argv, capsys) == fresh, argv
    assert _help(main, [], capsys) == build_parser().format_help()
    assert vodgame.cli._parser is parser


# ---------------------------------------------------------------- determinism


def test_sweep_output_is_identical_across_runs(tmp_path):
    outputs = {}
    for run in ("first", "second"):
        out = tmp_path / f"{run}.csv"
        assert run_cli("sweep", "--param", "sigma", "--values", "5,6,7,8",
                       "--out", str(out)) == 0
        outputs[run] = (
            out.read_bytes(),
            (tmp_path / f"{run}_summary.csv").read_bytes(),
        )
    assert outputs["first"] == outputs["second"]


# ---------------------------------------------------------------- entry point


def test_installed_entry_point_smoke():
    exe = shutil.which("vodgame")
    assert exe, "console script not on PATH; install with: pip install -e ."
    proc = subprocess.run(
        [exe, "curve", "--points", "3", "--out", "-"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == CURVE_HEADER


def test_cli_runs_without_scipy():
    """The CLI neither needs nor loads scipy: with it blocked, the import
    and an equilibria query succeed and no scipy module gets loaded."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import vodgame.cli\n"
        "assert vodgame.cli.main(['equilibria']) == 0\n"
        "loaded = [k for k, v in sys.modules.items() if k.startswith('scipy') and v is not None]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)
