"""The README's Python quick start runs and prints what its comments claim."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_quick_start_runs_as_documented(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # each print line's comment gives the start of its output, up to "..."
    claims = [
        line.split("#", 1)[1].strip().split("...")[0]
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert claims and len(printed) == len(claims)
    for out, claim in zip(printed, claims):
        assert out.startswith(claim), (out, claim)
