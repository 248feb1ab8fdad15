"""README's examples run as written.

Every ``gspec ...`` line of the "Command line" block exits 0 through
``cli.main``, and the fenced snippet under "Library" runs without error.
"""

import re
import shlex
from pathlib import Path

import pytest

from gspec.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str = "") -> str:
    """The first fenced block of the given language after a ``##`` heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```$", section, re.M | re.S).group(1)


COMMAND_BLOCK = fenced_block("Command line").splitlines()
COMMANDS = [line for line in COMMAND_BLOCK if line.startswith("gspec ")]


def test_every_command_is_collected():
    assert COMMANDS and len(COMMANDS) == len(COMMAND_BLOCK)


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_example(line, capsys):
    code = main(shlex.split(line)[1:])
    err = capsys.readouterr().err
    assert code == 0, err


def test_library_example():
    exec(compile(fenced_block("Library", "python"), "README.md", "exec"), {})
