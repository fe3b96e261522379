"""Harness self-test: the checks must bite.

    python3 perfbench/selftest.py

Runs every workload that simulates once through worker.py with
sim.open_loop set, which forces the input to zero.  An uncontrolled chain
never settles, so each run must finish with exit code 0 and count failed
operations instead of stopping: the CLI's verify exits 4, the audits fail
their checks, and the clamp sweep raises inside psis (a sweep over runs
that never settle).  The traced variant of the clamp sweep shows that the
tracer survives those exceptions.  Exit code 0 when every case behaved.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402

CASES = (
    ("pendulum_cli", 0),
    ("clamp_sweep", 0),
    ("clamp_sweep", 1),
    ("tan4_clocks", 0),
)


def open_loop_run(workload: str, trace: int, workdir: str) -> dict:
    inputs = workloads.with_open_loop(workloads.make_inputs(workload, 0))
    inputs_path = os.path.join(workdir, "inputs.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    out_path = os.path.join(workdir, "result.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--inputs", inputs_path,
         "--workdir", workdir, "--seconds", "0", "--trace", str(trace),
         "--out", out_path],
        env=run.child_env(), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: worker exited {proc.returncode}\n{proc.stderr}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    os.makedirs(run.RUNS_DIR, exist_ok=True)
    bad = []
    for workload, trace in CASES:
        workdir = tempfile.mkdtemp(prefix=f"selftest-{workload}-", dir=run.RUNS_DIR)
        try:
            result = open_loop_run(workload, trace, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ok = result["failed"] >= 1
        first = result["failures"][0] if result["failures"] else "none"
        print(f"{workload} trace={trace}: {result['failed']}/{result['attempted']} "
              f"failed, first: {first} -> {'ok' if ok else 'CHECKS DID NOT BITE'}")
        if not ok:
            bad.append(workload)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
