"""psis benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; psis is imported from ./src, never
from an installed copy.  The seed generates the inputs (see workloads.py).
The passes run in one child process (worker.py), after the set-up cost has
been timed in fresh interpreters.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones, measured on a separate
traced run; its spans are written to .perfbench_runs/.

Exit code 0 whenever a result is printed, also when operations failed (they
are counted in `failed`); 2 when the checkout has no psis sources or the
worker cannot produce a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

# Fresh interpreters timed for setup_s, this many before the passes and as
# many after them, so the median spans the run; one untimed start first
# fills the bytecode caches.
SETUP_REPEATS = 4
# The whole run must end within this many seconds.
RUN_BUDGET_S = 170.0

# Metric names and units: the workloads' JSON line reports exactly these.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCH = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}


def child_env() -> dict:
    """The caller's environment, minus PSIS_THREADS: the default pool is measured."""
    return {k: v for k, v in os.environ.items() if k != "PSIS_THREADS"}


def cpu_ticks() -> list[int] | None:
    """Machine-wide CPU time counters (user ... steal), or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests during the run."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def environment(numpy_version: str, sweep_threads: int) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "PSIS_THREADS": None,
        "sweep_threads": sweep_threads,
        "load": "one process, passes run one after another",
    }


def children_cpu_s() -> float:
    """CPU seconds of the children this process has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def time_setup(inputs_path: str, workdir: str, deadline: float, repeats: int) -> list[float]:
    """CPU times of fresh interpreters that import psis and build the inputs.

    They run one at a time, so the growth of this process's children's CPU
    time across one of them is that interpreter's own.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--setup",
           "--inputs", inputs_path, "--workdir", workdir]
    times = []
    for _ in range(repeats):
        started = children_cpu_s()
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        times.append(children_cpu_s() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="psis benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S
    ticks = cpu_ticks()

    if not os.path.isfile(os.path.join(ROOT, "src", "psis", "__init__.py")):
        print(f"no psis sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed)
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh, indent=1)
        time_setup(inputs_path, workdir, deadline, 1)
        setup_repeats = 0 if args.trace else SETUP_REPEATS
        setup_times = time_setup(inputs_path, workdir, deadline, setup_repeats)
        out_path = os.path.join(workdir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--inputs", inputs_path, "--workdir", workdir,
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", out_path]
        if args.trace:
            cmd += ["--trace-file", os.path.join(
                RUNS_DIR, f"trace-{args.workload}-seed{args.seed}.json")]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            print(proc.stdout[-2000:] + proc.stderr[-4000:], file=sys.stderr)
            print(f"worker exited with code {proc.returncode}", file=sys.stderr)
            return 2
        with open(out_path, encoding="utf-8") as fh:
            result = json.load(fh)
        setup_times += time_setup(inputs_path, workdir, deadline, setup_repeats)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(result["numpy"], result["sweep_threads"])
    env["host_steal_share"] = steal_share(ticks, cpu_ticks())
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"seconds: {args.seconds:g}  trace: {args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"passes: {len(result['cpus'])} untraced"
          + (f", {len(result['traced_cpus'])} traced" if args.trace else "")
          + f", in {result['measured_s']:.1f} s")
    print("pass CPU (s): " + " ".join(f"{c:.4f}" for c in result["cpus"]))
    print("pass wall (s): " + " ".join(f"{w:.4f}" for w in result["walls"]))
    if setup_times:
        print("setup CPU (s): " + " ".join(f"{c:.4f}" for c in setup_times))
    if args.trace:
        values, units = result["per_layer"], PER_LAYER_UNITS
    else:
        values = {
            "cpu_s": statistics.median(result["cpus"]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"failed_share: {failed / attempted if attempted else 1.0:.6g} "
          f"({failed}/{attempted} operations)")
    for line in result["failures"]:
        print(f"failure: {line}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
