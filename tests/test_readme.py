"""Every command line in the README's "Command line" block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from qsharm.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_lines():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    return [line.split("#")[0].strip() for line in block.splitlines() if line.strip()]


def test_block_is_found():
    assert len(command_lines()) >= 8


@pytest.mark.parametrize("line", command_lines())
def test_command_exits_zero(line, tmp_path, monkeypatch, capsys):
    argv = shlex.split(line)
    assert argv[0] == "qsharm"
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0, capsys.readouterr().err
