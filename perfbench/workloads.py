"""The benchmark's workloads: seeded inputs, one pass of fixed work, checks.

Inputs are psis experiment configurations (the JSON format `psis` reads),
generated from the seed alone; the program sees only those.  The seed
jitters initial conditions and stage exponents, each stage exponent staying
above its floor, and never changes the shape of an expression: kernels,
orders, scales and step settings are fixed per workload.  Seed 0 gives the
unjittered configurations.

A pass runs a fixed list of operations.  An operation fails when it raises,
exits with an unexpected code, or fails its correctness check; a failure is
counted and the pass goes on.

psis is imported inside the methods: run.py generates the inputs with this
module before any interpreter has imported psis.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

WORKLOADS = ("pendulum_cli", "clamp_sweep", "tan4_clocks")

# Relative jitter applied by nonzero seeds.
_X0_JITTER = 0.02
_ETA_JITTER = 0.02

# Acceptance bounds of the paper's criteria 4 and 5 (clamp runs).
_RESIDUAL_BOUND = 1e-4

# Starts the `psis` entry point the way the installed script does.
CLI_BOOT = "import sys; from psis.cli import main; sys.exit(main())"


def _chain_config(run_id, kind, n, etas, x0, *, sample_dt=None, scales=None):
    cfg = {
        "run_id": run_id,
        "plant": {"type": "chain", "n": n},
        "synthesis": {
            "c": 0.0,
            "T_p": 1.0,
            "stages": [{"kind": kind, "eta": e} for e in etas],
        },
        "sim": {"x0": list(x0), "t_end": 1.2},
        "verify": {"tol_abs": 1e-4, "tol_rel": 1e-6},
        "output": {"csv": None, "svg": None, "report": None},
    }
    if sample_dt is not None:
        cfg["sim"]["sample_dt"] = sample_dt
    if scales is not None:
        cfg["verify"]["scales"] = list(scales)
    return cfg


def _jitter(rng, seed, x0, etas):
    if seed == 0:
        return list(x0), list(etas)
    size = math.hypot(*x0)
    x0 = [v + _X0_JITTER * size * rng.uniform(-1.0, 1.0) for v in x0]
    etas = [e * (1.0 + _ETA_JITTER * rng.uniform(-1.0, 1.0)) for e in etas]
    return x0, etas


def _ladder(n):
    """Stage exponents (n + 1, ..., 2): one above every stage floor."""
    return [float(n + 2 - i) for i in range(1, n + 1)]


def make_inputs(workload: str, seed: int) -> dict:
    """Every input of one run, as JSON-ready data; same seed, same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "pendulum_cli":
        x0, etas = _jitter(rng, seed, [0.09, 0.1], [3.0, 2.0])
        return {"workload": workload, "configs": [{
            "run_id": "pendulum",
            "plant": {"type": "pendulum"},
            "synthesis": {
                "c": 0.15,
                "T_p": 0.5,
                "stages": [{"kind": "linear", "eta": e} for e in etas],
            },
            "sim": {"x0": x0},
            "verify": {"tol_abs": 1e-4},
        }]}
    if workload == "clamp_sweep":
        configs = []
        for n in (2, 3):
            x0, etas = _jitter(rng, seed, [1.0] + [0.0] * (n - 1), _ladder(n))
            configs.append(_chain_config(
                f"clamp{n}", "linear", n, etas, x0,
                sample_dt=2.5e-4, scales=[0.1, 1.0, 10.0, 100.0]))
        return {"workload": workload, "configs": configs}
    if workload == "tan4_clocks":
        x0, etas = _jitter(rng, seed, [1.0, 0.0, 0.0, 0.0], _ladder(4))
        return {"workload": workload,
                "configs": [_chain_config("tan4", "tan", 4, etas, x0)],
                "modes": ["direct", "tau"]}
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def with_open_loop(inputs: dict) -> dict:
    """The same inputs with the input forced to zero: every check must bite."""
    inputs = json.loads(json.dumps(inputs))
    for cfg in inputs["configs"]:
        cfg["sim"]["open_loop"] = True
    return inputs


# ---------------------------------------------------------------------------
# one pass


@dataclass
class PassOutcome:
    """What one pass did: operations attempted and failed, and accuracy
    figures."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)
    vanish_fail_runs: int = 0
    commands_s: dict = field(default_factory=dict)

    def op(self, label: str, fn) -> object:
        """Run one operation; its exceptions and failed checks are counted."""
        self.attempted += 1
        try:
            return fn()
        except CheckFailed as exc:
            self.failures.append(f"{label}: {exc}")
        except Exception as exc:  # the harness keeps running and counts it
            last = traceback.extract_tb(exc.__traceback__)[-1]
            self.failures.append(
                f"{label}: {type(exc).__name__}: {exc} "
                f"({os.path.basename(last.filename)}:{last.lineno})")
        return None

    def worst(self, key: str, value: float) -> None:
        self.accuracy[key] = max(self.accuracy.get(key, 0.0), value)


class CheckFailed(Exception):
    pass


def check(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


class Workload:
    """Base: holds the validated specs; subclasses define the pass."""

    def __init__(self, inputs: dict, workdir: str):
        from psis.experiment import build_spec

        self.inputs = inputs
        self.workdir = workdir
        self.specs = [build_spec(c, base_dir=workdir) for c in inputs["configs"]]

    def warm_up(self) -> None:
        """Untimed work needed before the first timed pass."""

    def run(self, out: PassOutcome, in_process: bool) -> None:
        raise NotImplementedError


class PendulumCli(Workload):
    """`psis synthesize | simulate --no-timestamp | verify` on the paper's
    pendulum.  Each command runs in a fresh interpreter, or in process
    through psis.cli.main for the traced pass."""

    COMMANDS = ("synthesize", "simulate", "verify")
    # verify exits 4 on a fail verdict; see _check_verify for when that is
    # a recorded verdict rather than a failed operation
    EXIT_CODES = {"synthesize": (0,), "simulate": (0,), "verify": (0, 4)}

    def __init__(self, inputs: dict, workdir: str):
        super().__init__(inputs, workdir)
        self.config_path = os.path.join(workdir, "pendulum.config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(inputs["configs"][0], fh, indent=2)
        self.spec = self.specs[0]
        self.T_p = self.spec.synthesis.T_p
        self.reference: dict[str, bytes] | None = None
        self._outputs: dict[str, bytes] = {}
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["psis"].__file__)))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def warm_up(self) -> None:
        scratch = PassOutcome()
        self.run(scratch, in_process=False)
        self.reference = self._outputs

    def _command(self, cmd: str, in_process: bool) -> tuple[int, str]:
        argv = [cmd, "--config", self.config_path, "--no-timestamp"]
        if in_process:
            import psis.cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = psis.cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_BOOT, *argv], env=self.env,
            capture_output=True, text=True, timeout=60, cwd=self.workdir,
        )
        return proc.returncode, proc.stdout + proc.stderr

    def _read(self, path: str) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    def _check_verify(self, out: PassOutcome, code: int, report: dict) -> None:
        """Settling, decay and tolerance clauses must pass.  The input-
        vanishing clause is recorded as measured, as on the other
        workloads: |u| at the standoff is a difference of terms scaled by
        1/(T_p - t)^2, and nearby inputs land on either side of its
        10 * tol limit.  A fail verdict with exit 4 is accepted only when
        that clause alone explains it."""
        cv = report["control_vanishing"]
        vanishes = cv["post_all_zero"] and cv["last_pre_abs_u"] <= 10.0 * report["tolerance"]
        out.vanish_fail_runs += not vanishes
        check(report["settling"]["two_sided"], "settling not two sided")
        out.worst("settle_err_s", abs(report["settling"]["t_settle"] - self.T_p))
        out.worst("lyap_residual", report["lyapunov"]["worst_residual"])
        check(report["lyapunov"]["violations"] == 0,
              f"{report['lyapunov']['violations']} envelope violations")
        check(not report["diagnostics"], "; ".join(report["diagnostics"]))
        want = ("pass", 0) if vanishes else ("fail", 4)
        check((report["verdict"], code) == want,
              f"verdict {report['verdict']} with exit {code}, clauses say {want}")

    def run(self, out: PassOutcome, in_process: bool) -> None:
        paths = self.spec.output
        self._outputs = {}

        def command(cmd: str) -> None:
            started = time.perf_counter()
            code, text = self._command(cmd, in_process)
            out.commands_s[cmd] = time.perf_counter() - started
            check(code in self.EXIT_CODES[cmd], f"exit code {code}: "
                  + " | ".join(text.strip().splitlines()[-2:]))
            if cmd == "synthesize":
                self._outputs["describe"] = text.encode()
            elif cmd == "simulate":
                self._outputs["csv"] = self._read(paths.csv)
                self._outputs["simulate_report"] = self._read(paths.report)
            else:
                self._outputs["verify_report"] = self._read(paths.report)
                self._check_verify(out, code, json.loads(self._outputs["verify_report"]))
            if self.reference is not None:
                for key, data in self._outputs.items():
                    if key in self.reference:
                        check(data == self.reference[key],
                              f"{key} differs from the first run's bytes")

        for cmd in self.COMMANDS:
            out.op(f"psis {cmd}", lambda: command(cmd))


class ClampSweep(Workload):
    """Criteria 4 and 5: linear chains n=2, 3 swept over four scales, then
    the decay and input-vanishing audits on every row."""

    def run(self, out: PassOutcome, in_process: bool) -> None:
        import psis.synthesis
        import psis.verification as ver

        for spec in self.specs:
            n = spec.synthesis.n
            vp = spec.verify

            def sweep():
                controller = psis.synthesis.synthesize(spec.synthesis)
                report = ver.sweep_initial_conditions(
                    spec.plant, controller, spec.sim, vp.scales,
                    tol_abs=vp.tol_abs, tol_rel=vp.tol_rel,
                    window_factor=vp.window_factor, spread_bound=vp.spread_bound,
                    keep_trajectories=True,
                )
                if report.spread is not None:
                    out.worst("settle_err_s", report.spread)
                check(report.verdict == "pass", f"sweep verdict {report.verdict}")
                return report

            report = out.op(f"sweep n={n}", sweep)
            for i, scale in enumerate(vp.scales):
                row = report.rows[i] if report is not None else None

                def audit(row=row):
                    check(row is not None and row.traj is not None,
                          "no trajectory" if row is None else f"run error {row.error}")
                    la = ver.lyapunov_audit(row.traj, vp.slack_abs, vp.slack_rel)
                    cv = ver.control_vanishing_check(row.traj, row.tol)
                    out.vanish_fail_runs += not cv.vanishes
                    out.worst("lyap_residual", la.max_equality_residual)
                    check(not la.violations, f"{len(la.violations)} envelope violations")
                    check(la.max_equality_residual <= _RESIDUAL_BOUND,
                          f"residual {la.max_equality_residual:.3e} > {_RESIDUAL_BOUND}")

                out.op(f"audit n={n} scale={scale:g}", audit)


class Tan4Clocks(Workload):
    """tan n=4 simulated and audited on the direct and the tau clock; the
    clocks must agree at shared sample times within the settling tolerance."""

    def run(self, out: PassOutcome, in_process: bool) -> None:
        import psis.simulation
        import psis.synthesis
        import psis.verification as ver

        spec = self.specs[0]
        vp = spec.verify
        tol = ver.run_tolerance(vp.tol_abs, vp.tol_rel, spec.sim.x0)
        controller = out.op("synthesize", lambda: psis.synthesis.synthesize(spec.synthesis))
        trajs = {}
        for mode in self.inputs["modes"]:
            def one(mode=mode):
                check(controller is not None, "synthesis failed")
                traj = psis.simulation.simulate(
                    spec.plant, controller, replace(spec.sim, mode=mode))
                ev = ver.settling_instant(traj, tol, vp.window_factor)
                la = ver.lyapunov_audit(traj, vp.slack_abs, vp.slack_rel)
                cv = ver.control_vanishing_check(traj, tol)
                out.vanish_fail_runs += not cv.vanishes
                out.worst("lyap_residual", la.max_equality_residual)
                if ev.t_settle is not None:
                    out.worst("settle_err_s", abs(ev.t_settle - spec.synthesis.T_p))
                trajs[mode] = traj
                check(ev.two_sided, f"{mode}: settling not two sided")
                check(not la.violations, f"{mode}: {len(la.violations)} envelope violations")

            out.op(f"simulate {mode}", one)

        def gap():
            check(len(trajs) == 2, "a clock run failed")
            other = {s.t: s for s in trajs["tau"].samples}
            shared = [(s, other[s.t]) for s in trajs["direct"].samples if s.t in other]
            worst = max(max(abs(a - b) for a, b in zip(s.x, o.x)) for s, o in shared)
            out.worst("clock_gap", worst)
            check(worst <= tol, f"clock gap {worst:.3e} > settling tolerance {tol:.3e}")

        out.op("clock gap", gap)


CLASSES = {
    "pendulum_cli": PendulumCli,
    "clamp_sweep": ClampSweep,
    "tan4_clocks": Tan4Clocks,
}


def build(inputs: dict, workdir: str) -> Workload:
    return CLASSES[inputs["workload"]](inputs, workdir)
