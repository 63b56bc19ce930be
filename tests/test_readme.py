"""The README's samples run and print what the README shows."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from diracbound.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# each CLI sample: the "$ diracbound ..." line and the output shown below it
CLI_SAMPLES = re.findall(r"^\$ diracbound (.*)\n([\s\S]*?)^```", README.read_text(), re.M)


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


def test_cli_samples_found():
    assert [argv.split()[0] for argv, _ in CLI_SAMPLES] == [
        "table1", "bound", "solve", "compare"
    ]


@pytest.mark.parametrize("argv,shown", CLI_SAMPLES, ids=[a for a, _ in CLI_SAMPLES])
def test_cli_sample_runs_as_documented(capsys, argv, shown):
    assert main(shlex.split(argv)) == 0
    assert capsys.readouterr().out.splitlines() == shown.splitlines()
