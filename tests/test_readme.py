"""The README's examples run as written: the quickstart block and every command line."""

import re
import shlex
from pathlib import Path

import pytest

from gibbs_stein.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str) -> str:
    """The first fenced block under the `## heading` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


COMMANDS = [line for line in _block("Command line").splitlines() if line.startswith("gibbs-stein ")]


def test_library_quickstart_runs():
    exec(compile(_block("Library quickstart"), "README.md", "exec"), {})


def test_readme_lists_each_subcommand_once():
    assert [shlex.split(line)[1] for line in COMMANDS] == [
        "solve", "bounds", "compare", "lattice", "poisson-sum", "verify"]


@pytest.mark.parametrize("line", COMMANDS, ids=lambda line: line.split()[1])
def test_command_line_example_exits_zero(line, capsys):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out
