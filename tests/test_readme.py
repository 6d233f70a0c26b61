"""The README's examples run as written and print what it shows."""

import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from hpnarm.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"python-{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


def test_fk_example_prints_the_lines_shown():
    example = re.search(r"^```\n(hpnarm fk .*?)\n(.*?)^```", README, re.M | re.S)
    command, shown = example.group(1), example.group(2).splitlines()
    result = CliRunner().invoke(main, command.split()[1:])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == shown
