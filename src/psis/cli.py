"""Command line driver.

Subcommands share one JSON configuration file (see experiment.py):

    psis synthesize --config run.json [--no-timestamp]
    psis simulate   --config run.json [--no-clobber] [--no-timestamp]
    psis verify     --config run.json [--no-clobber] [--no-timestamp]
    psis sweep      --config run.json [--scales 0.1,1,10] [--no-clobber]

Exit codes: 0 success / verification passed, 2 configuration problem,
3 numerical failure (a partial trajectory CSV is kept when possible),
4 verification failed.  All file outputs are deterministic; wall time is
printed to stdout but never written into a report.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields, replace

from . import output as out
from .errors import (
    AuditError,
    ConfigurationError,
    DomainError,
    EvaluationError,
    IntegrationError,
    StructureError,
)
from .experiment import ExperimentSpec, effective_config, load_config, plain
from .simulation import simulate
from .synthesis import describe, synthesize
from .verification import (
    VERIFY_CLAUSES,
    SettlingEvidence,
    judge,
    mixed_kernels,
    sweep_report,
    sweep_rows,
)
# not called here: perfbench/tracing.py wraps these names on psis.cli (ROADMAP item 7)
from .verification import control_vanishing_check, lyapunov_audit, settling_instant
from .verification import sweep_initial_conditions


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psis",
        description="Prescribed-instant stabilization: synthesis, simulation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synthesize", "build the controller and print its expressions"),
        ("simulate", "run the closed loop and write CSV, SVG, and report"),
        ("verify", "simulate plus settling, decay, and input audits"),
        ("sweep", "settling audit across scaled initial conditions"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="JSON configuration file")
        if name == "sweep":
            sp.add_argument(
                "--scales", default=None,
                help="comma-separated scale factors overriding verify.scales",
            )
        # a flag is registered only where it acts, except that synthesize
        # and verify, which write no SVG, keep --no-timestamp: the
        # benchmark's pendulum workload passes it to every command
        if name != "synthesize":
            sp.add_argument(
                "--no-clobber", action="store_true",
                help="refuse to overwrite existing output files",
            )
        if name != "sweep":
            sp.add_argument(
                "--no-timestamp", action="store_true",
                help="omit the timestamp comment from SVG output",
            )
    return parser


def _parse_scales(text: str) -> list[float]:
    try:
        scales = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"--scales must be comma-separated numbers, got {text!r}")
    if not scales:
        raise ConfigurationError("--scales parsed to an empty list")
    for i, v in enumerate(scales):
        if not math.isfinite(v):
            raise ConfigurationError(f"--scales[{i}] must be finite, got {v!r}")
    return scales


def _integrator_block(meta: dict) -> dict:
    """The integrator counters a report carries."""
    return {
        "steps_accepted": meta["steps_accepted"],
        "steps_rejected": meta["steps_rejected"],
        "rhs_evals": meta["rhs_evals"],
    }


def _report(spec: ExperimentSpec, command: str, **body) -> dict:
    """A report: the command, the run id and the effective config, then body."""
    return {"command": command, "run_id": spec.run_id,
            "config": effective_config(spec), **body}


def _timed(fn, *args, **kwargs):
    """fn's result and the wall time of the call, in seconds."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def _cmd_synthesize(spec: ExperimentSpec, args: argparse.Namespace) -> int:
    controller = synthesize(spec.synthesis)
    print(describe(controller))
    return 0


def _cmd_simulate(spec: ExperimentSpec, args: argparse.Namespace) -> int:
    paths = spec.output
    out.check_outputs([paths.csv, paths.svg, paths.report], args.config, args.no_clobber)
    controller = synthesize(spec.synthesis)
    traj, wall = _timed(simulate, spec.plant, controller, spec.sim)

    written = []
    if paths.csv:
        out.write_csv(paths.csv, traj)
        written.append(paths.csv)
    if paths.svg:
        out.write_svg(paths.svg, traj, spec.run_id,
                      include_timestamp=not args.no_timestamp)
        written.append(paths.svg)
    if paths.report:
        out.write_report(paths.report, _report(
            spec, "simulate", integrator=_integrator_block(traj.meta),
            n_samples=len(traj.t), files={"csv": paths.csv, "svg": paths.svg}))
        written.append(paths.report)

    print(f"samples: {len(traj.t)}")
    print(f"steps: {traj.meta['steps_accepted']} accepted, "
          f"{traj.meta['steps_rejected']} rejected")
    print(f"wall time: {wall:.3f} s")
    for p in written:
        print(f"wrote: {p}")
    return 0


def _cmd_verify(spec: ExperimentSpec, args: argparse.Namespace) -> int:
    problem = mixed_kernels([s.kind.value for s in spec.synthesis.stages])
    if problem is not None:
        raise ConfigurationError(problem)
    paths = spec.output
    out.check_outputs([paths.report], args.config, args.no_clobber)
    controller = synthesize(spec.synthesis)
    traj, wall = _timed(simulate, spec.plant, controller, spec.sim)

    judged = judge(traj, spec.sim, VERIFY_CLAUSES, spec.verify)
    evidence, audit, vanishing = judged.settling, judged.lyapunov, judged.vanishing

    if paths.report:
        out.write_report(paths.report, _report(
            spec, "verify", integrator=_integrator_block(traj.meta), tolerance=evidence.tol,
            settling=plain(evidence, skip={"tol"}),
            lyapunov={
                "n_audited": audit.n_audited,
                "n_skipped": audit.n_skipped,
                "violations": len(audit.violations),
                "worst_residual": audit.max_equality_residual,
            },
            control_vanishing=plain(vanishing, skip={"window_start", "vanishes"}),
            diagnostics=judged.diagnostics, verdict=judged.verdict))

    print(f"tolerance: {evidence.tol:.6e}")
    print(f"settling: two_sided={evidence.two_sided} t_settle={evidence.t_settle} "
          f"floor={evidence.pre_window_floor:.6e} "
          f"standoff_norm={evidence.norm_at_standoff:.6e}")
    print(f"lyapunov: violations={len(audit.violations)} "
          f"max_residual={audit.max_equality_residual:.6e} "
          f"audited={audit.n_audited} skipped={audit.n_skipped}")
    print(f"control: standoff_abs_u={vanishing.last_pre_abs_u:.6e} "
          f"post_zero={vanishing.post_all_zero}")
    for d in judged.diagnostics:
        print(f"diagnostic: {d}")
    print(f"wall time: {wall:.3f} s")
    if paths.report:
        print(f"wrote: {paths.report}")
    print(f"verdict: {judged.verdict}")
    return 0 if judged.verdict in ("pass", "degenerate") else 4


# the settling fields a sweep row carries: tol is the row's own, and
# window_end is the same on every row
_ROW_SETTLING = [
    f.name for f in fields(SettlingEvidence) if f.name not in ("tol", "window_end")
]


def _scale_label(scale: float) -> str:
    """The scale's :g text, or its repr where :g would merge it with another."""
    text = f"{scale:g}"
    return text if float(text) == scale else repr(scale)


def _sweep_paths(csv_path: str, scales: list[float]) -> tuple[str, list[str]]:
    if "." in csv_path.rsplit("/", 1)[-1]:
        stem, dot, ext = csv_path.rpartition(".")
        ext = dot + ext
    else:
        stem, ext = csv_path, ""
    summary = f"{stem}.sweep{ext}"
    per_run = [f"{stem}.scale_{_scale_label(s)}{ext}" for s in scales]
    return summary, per_run


def _cmd_sweep(spec: ExperimentSpec, args: argparse.Namespace) -> int:
    if spec.output.csv is None:
        raise ConfigurationError("sweep needs output.csv to derive its file names")
    scales = _parse_scales(args.scales) if args.scales else list(spec.verify.scales)
    summary_path, per_run_paths = _sweep_paths(spec.output.csv, scales)
    out.check_outputs([summary_path, spec.output.report, *per_run_paths],
                      args.config, args.no_clobber)
    controller = synthesize(spec.synthesis)
    started = time.perf_counter()
    rows, rows_payload, written = [], [], []
    for row in sweep_rows(spec.plant, controller, spec.sim, scales, spec.verify):
        ev = row.evidence
        if row.traj is not None:
            path = per_run_paths[len(rows)]
            out.write_csv(path, row.traj)
            written.append(path)
        rows_payload.append({
            "scale": row.scale,
            "tol": row.tol,
            **{k: None if ev is None else getattr(ev, k) for k in _ROW_SETTLING},
            "error": row.error,
            "integrator": None if row.traj is None else _integrator_block(row.traj.meta),
        })
        rows.append(replace(row, traj=None))
        del row  # the next run starts at the loop's next step: hold no trajectory into it
    report = sweep_report(rows, spec.sim.T_p, spec.verify.spread_bound)
    wall = time.perf_counter() - started
    out.write_sweep_csv(summary_path, report)
    written.append(summary_path)

    if spec.output.report:
        out.write_report(spec.output.report, _report(
            spec, "sweep", scales=scales, rows=rows_payload, spread=report.spread,
            spread_bound=report.spread_bound, verdict=report.verdict))
        written.append(spec.output.report)

    for row in report.rows:
        ev = row.evidence
        if ev is None:
            print(f"scale {_scale_label(row.scale)}: {row.state} {row.error}")
        else:
            print(f"scale {_scale_label(row.scale)}: {row.state} t_settle={ev.t_settle} "
                  f"floor={ev.pre_window_floor:.3e} "
                  f"standoff={ev.norm_at_standoff:.3e}")
    if report.spread is not None:
        print(f"spread: {report.spread:.6e} (bound "
              f"{report.spread_bound * spec.synthesis.T_p:.6e})")
    print(f"wall time: {wall:.3f} s")
    for p in written:
        print(f"wrote: {p}")
    print(f"verdict: {report.verdict}")
    return 0 if report.verdict == "pass" else 4


_HANDLERS = {
    "synthesize": _cmd_synthesize,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    spec: ExperimentSpec | None = None
    try:
        spec = load_config(args.config)
        return _HANDLERS[args.command](spec, args)
    except (ConfigurationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration failed at t={exc.t:.9g}: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial", None)
        if partial is not None and partial.t and spec is not None \
                and spec.output.csv is not None:
            partial_path = spec.output.csv + ".partial"
            try:
                out.write_csv(partial_path, partial)
            except ConfigurationError as write_exc:
                print(f"partial trajectory not written: {write_exc}", file=sys.stderr)
            else:
                print(f"partial trajectory written to {partial_path}", file=sys.stderr)
        return 3
    except (EvaluationError, StructureError, AuditError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
