"""Child process of the benchmark: runs one workload's passes.

    python3 perfbench/worker.py --setup --inputs FILE --workdir DIR
    python3 perfbench/worker.py --inputs FILE --workdir DIR --seconds S \
        --trace 0|1 --out RESULT.json [--trace-file SPANS.json]

With --setup it imports psis, builds the inputs and exits; run.py times
that as the set-up cost.  Otherwise it runs passes until --seconds have
elapsed (at least one) and writes the CPU and wall times of every pass,
operation counts, peak RSS and, with --trace 1, the per-layer metrics to
RESULT.json.

With --trace 1 each cycle runs an untraced pass and then a traced one, so
the tracing overhead is measured on interleaved passes.  For pendulum_cli
the cycle also runs the three commands in fresh interpreters (the cli.*
timings); its untraced and traced passes call psis.cli.main in process,
which is where spans can be recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import psis  # noqa: E402
import psis.simulation  # noqa: E402
import psis.synthesis  # noqa: E402
from psis import symdiff as sd  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# u-evaluation timing: repeat the point loop until this long, best of rounds.
_U_EVAL_MIN_S = 0.02
_U_EVAL_ROUNDS = 3


def _time_calls(fn, points) -> float:
    """Seconds per call of fn over the points, best of a few rounds."""
    best = float("inf")
    for _ in range(_U_EVAL_ROUNDS):
        calls = 0
        started = time.perf_counter()
        while True:
            for x, t in points:
                fn(x, t)
            calls += len(points)
            elapsed = time.perf_counter() - started
            if elapsed >= _U_EVAL_MIN_S:
                break
        best = min(best, elapsed / calls)
    return best


def _u_eval_runs(spans):
    """(seconds per compiled_u call, rhs evaluations) per controlled run,
    timed at the run's own pre-instant sample points, in the
    setpoint-shifted coordinates simulate integrates in."""
    runs = []
    for s in spans:
        if s.name != "simulation.simulate" or s.result is None:
            continue
        _, controller, cfg = s.args[:3]
        if cfg.open_loop:
            continue
        twin = psis.synthesis.zero_setpoint_twin(controller)
        c = controller.config.c
        points = [((s_.x[0] - c,) + tuple(s_.x[1:]), s_.t)
                  for s_ in s.result.samples if s_.z is not None]
        runs.append((_time_calls(twin.compiled_u, points), s.result.meta["rhs_evals"]))
    return runs


def layer_metrics(tracer, run_id, outcome) -> dict:
    """Per-layer figures of one traced pass, from its spans."""
    spans = tracer.of_run(run_id)
    own = tracing.self_times(spans)

    def self_s(name):
        return sum((own[s.span_id] for s in spans if s.name == name), 0.0)

    def results(name):
        return [s.result for s in spans if s.name == name and s.result is not None]

    trajs = results("simulation.simulate")
    accepted = sum(t.meta["steps_accepted"] for t in trajs)
    rejected = sum(t.meta["steps_rejected"] for t in trajs)
    rhs_evals = sum(t.meta["rhs_evals"] for t in trajs)
    simulate_s = self_s("simulation.simulate")

    u_runs = _u_eval_runs(spans)
    u_calls_s = sum(per_call for per_call, _ in u_runs) / len(u_runs) if u_runs else 0.0
    u_time_in_sim = sum(per_call * evals for per_call, evals in u_runs)

    sweeps = {s.span_id: s for s in spans if s.name == "verification.sweep"}
    in_sweeps = sum(s.end - s.start for s in spans
                    if s.name == "simulation.simulate" and s.parent in sweeps)
    sweep_wall = sum(s.end - s.start for s in sweeps.values())

    def written_bytes(name):
        return sum(os.path.getsize(s.args[0]) for s in spans
                   if s.name == name and os.path.exists(s.args[0]))

    acc = outcome.accuracy
    return {
        "experiment.load_config_s": self_s("experiment.load_config"),
        "synthesis.synthesize_s": self_s("synthesis.synthesize"),
        "synthesis.u_nodes": sum(sd.node_count(c.u_expr)
                                 for c in results("synthesis.synthesize")),
        "symdiff.compile_s": self_s("symdiff.compile"),
        "symdiff.compiled_lines": sum(fn.__psis_source__.count("\n")
                                      for fn in results("symdiff.compile")),
        "symdiff.u_eval_us": u_calls_s * 1e6,
        "simulation.simulate_s": simulate_s,
        "simulation.steps_accepted": accepted,
        "simulation.steps_rejected": rejected,
        "simulation.rhs_evals": rhs_evals,
        "simulation.samples": sum(len(t.samples) for t in trajs),
        "simulation.accept_ratio": accepted / (accepted + rejected) if trajs else 0.0,
        "simulation.rhs_us": simulate_s / rhs_evals * 1e6 if rhs_evals else 0.0,
        "simulation.u_share": u_time_in_sim / simulate_s if simulate_s else 0.0,
        "verification.settling_s": self_s("verification.settling"),
        "verification.lyapunov_s": self_s("verification.lyapunov"),
        "verification.vanishing_s": self_s("verification.vanishing"),
        "verification.sweep_s": self_s("verification.sweep"),
        "verification.audited_samples": sum(
            a.n_audited for a in results("verification.lyapunov")),
        "verification.sweep_overlap": in_sweeps / sweep_wall if sweep_wall else 0.0,
        "verification.vanish_fail_runs": outcome.vanish_fail_runs,
        "output.csv_s": self_s("output.csv"),
        "output.svg_s": self_s("output.svg"),
        "output.report_s": self_s("output.report"),
        "output.csv_bytes": written_bytes("output.csv"),
        "output.svg_bytes": written_bytes("output.svg"),
        "settle_err_s": acc.get("settle_err_s", 0.0),
        "lyap_residual": acc.get("lyap_residual", 0.0),
        "clock_gap": acc.get("clock_gap", 0.0),
    }


def cpu_seconds() -> float:
    """CPU time of this process, all its threads, and the children it has
    waited for (the CLI commands).  Unlike wall time it leaves out waiting
    for a CPU, including the time the hypervisor gave to other guests."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def run_pass(wl, totals, in_process, tracer=None, run_id=""):
    """(wall seconds, CPU seconds, outcome) of one pass."""
    outcome = workloads.PassOutcome()
    started, cpu_started = time.perf_counter(), cpu_seconds()
    if tracer is None:
        wl.run(outcome, in_process)
    else:
        with tracer.installed(run_id):
            wl.run(outcome, in_process)
    wall = time.perf_counter() - started
    cpu = cpu_seconds() - cpu_started
    totals["attempted"] += outcome.attempted
    totals["failures"].extend(outcome.failures)
    return wall, cpu, outcome


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(wl, seconds: float, trace: bool, trace_file: str | None) -> dict:
    pendulum = isinstance(wl, workloads.PendulumCli)
    totals = {"attempted": 0, "failures": []}
    walls, cpus, traced_cpus, layers, commands = [], [], [], [], []
    tracer = tracing.Tracer() if trace else None
    wl.warm_up()
    started = time.perf_counter()
    deadline = started + seconds
    cycles = []
    # Passes run until --seconds have elapsed, give or take half a cycle:
    # a cycle that would end more than half its length past the deadline
    # is not started, so long passes do not stretch the run.
    while not cycles or time.perf_counter() + statistics.median(cycles) / 2 < deadline:
        cycle_started = time.perf_counter()
        if not trace:
            wall, cpu, _ = run_pass(wl, totals, in_process=False)
            walls.append(wall)
            cpus.append(cpu)
        else:
            if pendulum:
                commands.append(run_pass(wl, totals, in_process=False)[2].commands_s)
            wall, cpu, _ = run_pass(wl, totals, in_process=True)
            walls.append(wall)
            cpus.append(cpu)
            run_id = f"pass{len(cycles)}"
            _, cpu, outcome = run_pass(wl, totals, True, tracer, run_id)
            traced_cpus.append(cpu)
            layers.append(layer_metrics(tracer, run_id, outcome))
            for s in tracer.of_run(run_id):
                s.args = s.result = None  # drop trajectories and controllers
        cycles.append(time.perf_counter() - cycle_started)

    result = {
        "walls": walls,
        "cpus": cpus,
        "measured_s": time.perf_counter() - started,
        "attempted": totals["attempted"],
        "failed": len(totals["failures"]),
        "failures": totals["failures"][:20],
        "peak_rss_mb": peak_rss_mb(),
        "numpy": __import__("numpy").__version__,
        "sweep_threads": psis.verification.thread_count(4),
    }
    if trace:
        per_layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        for cmd in workloads.PendulumCli.COMMANDS:
            per_layer[f"cli.{cmd}_s"] = (
                statistics.median(c[cmd] for c in commands) if commands else 0.0)
        per_layer["trace.overhead_s"] = (
            statistics.median(traced_cpus) - statistics.median(cpus))
        result["traced_cpus"] = traced_cpus
        result["per_layer"] = per_layer
        if trace_file:
            with open(trace_file, "w", encoding="utf-8") as fh:
                json.dump({"spans": [s.to_json() for s in tracer.spans],
                           "per_pass": layers}, fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    if not os.path.abspath(psis.__file__).startswith(SRC + os.sep):
        print(f"psis imported from {psis.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    wl = workloads.build(inputs, args.workdir)
    if args.setup:
        return 0
    result = measure(wl, args.seconds, bool(args.trace), args.trace_file)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
