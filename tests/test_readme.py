"""The README's code blocks run: the "Library" Python block and every "Command line" line."""

import re
import shlex
from pathlib import Path

import pytest

import qsharm
from qsharm.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading, lang):
    text = README.read_text(encoding="utf-8")
    return re.search(rf"## {heading}\n\n```{lang}\n(.*?)```", text, re.S).group(1)


def command_lines():
    block = code_block("Command line", "sh")
    return [line.split("#")[0].strip() for line in block.splitlines() if line.strip()]


def test_library_block_runs():
    exec(compile(code_block("Library", "python"), "README.md", "exec"), {})


def test_library_imports_are_the_package_surface():
    block = code_block("Library", "python")
    imported = re.search(r"^from qsharm import (.+)$", block, re.M).group(1)
    assert {name.strip() for name in imported.split(",")} <= set(qsharm.__all__)
    for name in qsharm.__all__:
        assert getattr(qsharm, name) is not None
    assert callable(qsharm.run_suite)  # the benchmark calls qsharm.run_suite


def test_block_is_found():
    assert len(command_lines()) >= 8


@pytest.mark.parametrize("line", command_lines())
def test_command_exits_zero(line, tmp_path, monkeypatch, capsys):
    argv = shlex.split(line)
    assert argv[0] == "qsharm"
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0, capsys.readouterr().err
