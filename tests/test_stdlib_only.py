"""psis runs on the standard library alone: importing it pulls in no numpy,
and the CLI commands work in an interpreter where numpy cannot be imported.

Each check runs in a fresh interpreter, because the test process itself may
already have numpy loaded by some other package."""

import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run_fresh(code, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def readme_pendulum_config():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return json.loads(blocks[0])


def test_import_leaves_numpy_out(tmp_path):
    out = run_fresh(
        "import sys, psis, psis.cli; print('numpy' in sys.modules)", tmp_path
    )
    assert out == "False\n"


def test_commands_run_with_numpy_blocked(tmp_path):
    (tmp_path / "pendulum.config.json").write_text(json.dumps(readme_pendulum_config()))
    code = (
        "import sys, json\n"
        "sys.modules['numpy'] = None  # any import of numpy now raises\n"
        "from psis.cli import main\n"
        "codes = {}\n"
        "for cmd in ('synthesize', 'simulate', 'verify'):\n"
        "    codes[cmd] = main([cmd, '--config', 'pendulum.config.json'])\n"
        "print(json.dumps(codes))\n"
    )
    codes = json.loads(run_fresh(code, tmp_path).splitlines()[-1])
    assert codes["synthesize"] == 0
    assert codes["simulate"] == 0
    assert codes["verify"] in (0, 4)
    names = {p.name for p in tmp_path.iterdir()}
    assert {"pendulum.csv", "pendulum.svg", "pendulum.json"} <= names
