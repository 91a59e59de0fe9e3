"""The README's examples run as written: every CLI line and the library tour."""

import re
import shlex
from pathlib import Path

import pytest

from ginisafe import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

CLI_LINES = [
    line
    for block in re.findall(r"```bash\n(.*?)```", README, re.DOTALL)
    for line in block.splitlines()
    if line.startswith("ginisafe ")
]
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.DOTALL)


def test_the_readme_has_examples():
    assert len(CLI_LINES) >= 15
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_exits_zero(capsys, line):
    argv = shlex.split(line, comments=True)[1:]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    assert captured.out.startswith("{")


@pytest.mark.parametrize("block", PYTHON_BLOCKS)
def test_python_example_runs(block):
    exec(compile(block, "README.md", "exec"), {})
