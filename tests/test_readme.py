"""The README's library example runs as written, and its quick start
prints what the CLI prints."""

import pathlib
import re

from psis.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out == "True ()\n"


def test_quick_start_synthesize_output(tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    (config,) = re.findall(r"```json\n(.*?)```", text, re.S)
    command = "$ psis synthesize --config pendulum.config.json\n"
    (printed,) = re.findall(re.escape(command) + r"(.*?)```", text, re.S)
    path = tmp_path / "pendulum.config.json"
    path.write_text(config, encoding="utf-8")
    assert main(["synthesize", "--config", str(path)]) == 0
    assert capsys.readouterr().out == printed
