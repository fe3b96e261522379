"""The README's library example runs as written, its quick start prints
what the CLI prints, and its CLI section names the flags the parser takes."""

import argparse
import pathlib
import re

from psis.cli import _build_parser, main

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


def parser_flags():
    """{subcommand: {flag: required?}} as the CLI's parser registers them."""
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {opt: action.required for action in sp._actions
               for opt in action.option_strings if opt != "--help" and opt.startswith("--")}
        for name, sp in sub.choices.items()
    }


def test_cli_section_matches_the_parser():
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    section = section.split("Exit codes:", 1)[0]
    expected = parser_flags()

    # synopsis: one line per group of subcommands; a bracketed flag is optional
    (synopsis,) = re.findall(r"```\n(.*?)```", section, re.S)
    documented = {}
    for line in synopsis.splitlines():
        match = re.fullmatch(r"psis (\{[^}]*\}|\S+) (.*)", line)
        assert match, f"synopsis line does not start with psis <command>: {line!r}"
        commands, flags = match.groups()
        for command in re.findall(r"[a-z]+", commands):
            assert command not in documented
            documented[command] = {
                flag: not bracket
                for bracket, flag in re.findall(r"(\[?)(--[a-z-]+)", flags)
            }
    assert documented == expected

    # flag list: one bullet per flag, naming the subcommands that take it
    # unless every subcommand does
    bullets = re.findall(r"^- `(--[a-z-]+)`(.*?)(?=^- |\Z)", section, re.M | re.S)
    listed = {flag: set(re.findall(r"`([a-z]+)`", body)) & set(expected) or set(expected)
              for flag, body in bullets}
    assert len(listed) == len(bullets)
    takes = {}
    for command, flags in expected.items():
        for flag in flags:
            takes.setdefault(flag, set()).add(command)
    assert listed == takes
