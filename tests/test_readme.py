"""README's CLI and Library examples run and do what their comments say."""

import contextlib
import csv
import io
import json
import re
import shlex
from pathlib import Path

from vodgame.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_what_its_comments_say():
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert len(re.findall(r"^```python$", text, re.M)) == 1  # the only Python block
    (block,) = re.findall(r"^```python\n(.*?)^```$", library, re.S | re.M)
    # each print line's comment starts with the value it prints
    want = [
        line.split("#", 1)[1].split()[0].rstrip(",").strip('"')
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
    assert want == ["mixed", "0.10034913702539894", "0.89296875"]


def cli_lines():
    # each `vodgame ...` line of the CLI block, without its comment
    cli = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    (block,) = re.findall(r"^```sh\n(.*?)^```$", cli.split("\n## ", 1)[0], re.S | re.M)
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("vodgame ")]


def test_cli_block_runs_and_does_what_its_comments_say(tmp_path, monkeypatch, capsys):
    """Every command of the CLI block exits 0 from a fresh directory.
    The classic limit has one stable root, k = 9 none at all, and the
    fake side's sweep over sigma is mixed, then dominated."""
    monkeypatch.chdir(tmp_path)
    lines = cli_lines()
    assert len(lines) == 13
    out = {}
    for argv in lines:
        assert main(argv[1:]) == 0, shlex.join(argv)
        out[shlex.join(argv[1:])] = capsys.readouterr().out
    classic = json.loads(out["equilibria --sigma 0 --k 1"])
    assert [e["stability"] for e in classic["equilibria"]] == ["stable"]
    assert json.loads(out["equilibria --k 9"]) == {"regime": "dominant_defect", "equilibria": []}
    with open(tmp_path / "s_summary.csv", encoding="utf-8") as fh:
        assert [row["regime"] for row in csv.DictReader(fh)] == ["mixed", "dominant_defect"]
