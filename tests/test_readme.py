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


def quick_start(tmp_path, command):
    """README's quick-start config written to tmp_path, and the block README
    quotes under `$ psis <command> --config pendulum.config.json`."""
    text = README.read_text(encoding="utf-8")
    (config,) = re.findall(r"```json\n(.*?)```", text, re.S)
    prompt = f"$ psis {command} --config pendulum.config.json\n"
    (printed,) = re.findall(re.escape(prompt) + r"(.*?)```", text, re.S)
    path = tmp_path / "pendulum.config.json"
    path.write_text(config, encoding="utf-8")
    return str(path), printed


def test_quick_start_synthesize_output(tmp_path, capsys):
    path, printed = quick_start(tmp_path, "synthesize")
    assert main(["synthesize", "--config", path]) == 0
    assert capsys.readouterr().out == printed


def test_quick_start_verify_output(tmp_path, capsys):
    # wall time and the report's location differ from run to run
    def stable(text):
        return [line for line in text.splitlines()
                if not line.startswith(("wall time:", "wrote:"))]

    path, printed = quick_start(tmp_path, "verify")
    assert main(["verify", "--config", path]) == 0
    assert stable(capsys.readouterr().out) == stable(printed)
