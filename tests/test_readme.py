"""README's Library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
