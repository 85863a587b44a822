"""Every ```python block of the README runs as written, and every rfloc
command in its ```sh blocks parses."""

import re
import shlex
from pathlib import Path

import pytest

from rfloc.cli import build_parser, resolve_options

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [
    line.strip()
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.strip().startswith("rfloc ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_rfloc_commands():
    assert {shlex.split(c)[1] for c in COMMANDS} == {
        "simulate", "split", "benchmark", "select-band", "pca", "ingest-rtlpower"
    }


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_rfloc_command_parses(command):
    # parse and resolve every option without running the command
    args = build_parser().parse_args(shlex.split(command, comments=True)[1:])
    resolve_options(args)
