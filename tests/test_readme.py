"""The README's Python examples and equivkit commands run as written."""

import pathlib
import re
import shlex

import pytest

from equivkit.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, flags=re.S)
COMMANDS = [
    line
    for block in re.findall(r"```sh\n(.*?)```", TEXT, flags=re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("equivkit ")
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # in order, in one directory: a later command may read an earlier one's file
    assert len(COMMANDS) >= 9
    monkeypatch.chdir(tmp_path)
    for line in COMMANDS:
        code = main(shlex.split(line)[1:])
        assert code == 0, (line, capsys.readouterr().err)
