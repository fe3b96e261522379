"""Numerical audits of prescribed-instant behavior.

A single simulated run is judged on three kinds of evidence:

  * settling_instant: the stage-error norm must stay above tolerance until
    late in the run and be inside tolerance at the standoff.  Both sides
    matter; settling early would be just as much of a miss as settling late,
    because the design pins the settling instant itself, not an upper bound
    on it.
  * lyapunov_audit: along the trajectory, the recorded decay rate dV of
    V = sum z_i^2 must sit inside a two-sided envelope obtained from the
    mean-value concavity bound applied to the rate kernels.  The envelope is
    rebuilt sample by sample from the recorded z and V, in one loop over
    the columns that is generated and compiled once per kernel kind and
    number of stages, with z unpacked into locals and the kernel inlined,
    the way simulation generates the recorder.  The same loop compares the
    recorded dV with a finite-difference slope of the recorded V, from the
    row before and the row after, which it carries in locals.
  * control_vanishing_check: the input must die out as t approaches T_p and
    be exactly zero afterwards, confirming the law spends its effort early
    rather than diverging into the singular gain.

The audits read the pre-instant rows of the trajectory's columns in place;
the times are sorted, so the settling and vanishing windows are found by
bisection.  Every float operation keeps its operands and order, so the
results are the same bits as a loop over the samples
(tests/test_audit_oracle.py keeps those loops as oracles).

The audits' parameters come from experiment.VerifyParams, which writes
their defaults and rules once: each keyword here that is named like one of
its fields defaults to that field, each entry point checks its keywords by
building one, and VerifyParams.window_end refuses a settling window that
reaches the standoff, which no run could pass.

judge turns a run's audits into its verdict by one rule: a start inside
tolerance is degenerate, and otherwise the run passes only when every
clause that gates it holds.  It takes a whole VerifyParams and computes
the run's tolerance from it.  Two tables name the clauses: VERIFY_CLAUSES
gates psis verify (a tolerance the integrator resolves, two-sided
settling, Lyapunov decay and input vanishing), and ROW_CLAUSES gates each
sweep row (two-sided settling).  judge always runs the settling audit and
runs any other only when its clause is named, so a sweep row costs no
more audit work than settling, and a new clause touches only this module.

sweep_initial_conditions repeats the settling audit across scaled initial
conditions, which is the operational meaning of "for every initial
condition" on a desk-sized budget.  Its runs are pure-Python integrations,
so it runs them one after another on the calling thread.
"""

from __future__ import annotations

import functools
import math
import string
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from . import symdiff as sd
from .errors import AuditError, ConfigurationError, DomainError, IntegrationError
from .experiment import VerifyParams
from .rcdf import KERNELS, RcdfKind, kernel_function, kernel_source, zeta
from .simulation import TERMINAL_WINDOW_START, PlantModel, SimConfig, Trajectory, simulate
from .synthesis import Controller


# ---------------------------------------------------------------------------
# settling


def _pre_instant_rows(traj: Trajectory) -> int:
    """How many rows of traj carry stage errors: its first ones, before T_p.
    The audits read those rows of the columns in place."""
    n_pre = len(traj.z)
    if not n_pre:
        raise AuditError("trajectory has no samples before the prescribed instant")
    return n_pre


@dataclass(frozen=True)
class SettlingEvidence:
    """Where the stage-error norm entered (and stayed inside) tolerance.

    t_settle is the earliest sampled time from which the norm never leaves
    the tolerance ball again, None if the run never settles.  The two_sided
    verdict demands late capture (the norm stays above tolerance through the
    pre-window) as well as capture at the standoff.
    """

    t_settle: float | None
    tol: float
    window_end: float         # end of the must-still-be-large window
    pre_window_floor: float   # min norm over [0, window_end]
    norm_at_standoff: float
    degenerate: bool          # started inside tolerance; nothing to certify
    two_sided: bool


def _check_tolerance(tol: float) -> None:
    """Refuse a settling tolerance that no audit can judge against."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigurationError(f"tolerance must be finite and positive, got {tol!r}")


def settling_instant(
    traj: Trajectory, tol: float, window_factor: float = VerifyParams.window_factor
) -> SettlingEvidence:
    """Audit one trajectory's stage-error norm against a tolerance ball.

    A window_factor that VerifyParams refuses is a ConfigurationError, and
    so is a settling window that reaches the trajectory's standoff (see
    VerifyParams.window_end).
    """
    _check_tolerance(tol)
    params = VerifyParams(window_factor=window_factor)
    T_p = traj.meta["T_p"]
    t_standoff = traj.meta["t_standoff"]
    n_pre = _pre_instant_rows(traj)
    t = traj.t
    if abs(t[n_pre - 1] - t_standoff) > 1e-12 * T_p:
        raise AuditError("trajectory is missing its sample at the standoff")
    norms = list(map(math.sqrt, traj.V))

    window_end = params.window_end(T_p, t_standoff)
    # the times are sorted: the rows with t <= window_end come first
    in_window = norms[:bisect_right(t, window_end, 0, n_pre)]
    if not in_window:
        raise AuditError("no samples inside the pre-instant window")
    pre_floor = min(in_window)
    if any(map(math.isnan, in_window)):
        pre_floor = math.nan  # an unresolved sample must block certification

    if not norms[-1] <= tol:
        t_settle = None
    else:
        # earliest index from which the norm stays inside through the standoff
        idx = len(norms) - 1
        while idx > 0 and norms[idx - 1] <= tol:
            idx -= 1
        t_settle = float(t[idx])

    degenerate = norms[0] <= tol
    two_sided = (
        not degenerate
        and t_settle is not None
        and t_settle > window_end
        and pre_floor > tol
        and norms[-1] <= tol
    )
    return SettlingEvidence(
        t_settle=t_settle,
        tol=tol,
        window_end=window_end,
        pre_window_floor=float(pre_floor),
        norm_at_standoff=float(norms[-1]),
        degenerate=degenerate,
        two_sided=two_sided,
    )


# ---------------------------------------------------------------------------
# Lyapunov decay


def lyapunov_bounds(
    z: Sequence[float],
    etas: Sequence[float],
    kind: RcdfKind,
    T_p: float,
    t: float,
) -> tuple[float, float, float]:
    """(dV, lower, upper) for the decay of V = sum z_i^2 at one instant.

    dV is the exact analytic rate.  The envelope comes from concavity of
    x * zeta(x): averaging the per-stage decay terms against the smallest
    and the summed exponents gives

        -2 (sum eta) sqrt(V) zeta(sqrt(V)) / (T_p - t)
            <= dV <=
        -2 n (min eta) (|z|_1 / n) zeta(|z|_1 / n) / (T_p - t).

    The upper form needs x*zeta(x) convex over the |z_i|: everywhere for the
    tan and linear kernels, on [0, 2] only for logexp (its convex_bound).
    The envelope is the generated code that lyapunov_audit runs on every
    sample (see _audit_source).
    """
    n = len(z)
    if n == 0 or len(etas) != n:
        raise ConfigurationError("z and etas must be equal-length, nonempty vectors")
    if not (0.0 <= t < T_p):
        raise DomainError(f"t must lie in [0, T_p={T_p}), got {t!r}")
    gap = T_p - t
    # explicit left-to-right sums in the simulator's order: sum() compensates
    # float sums from Python 3.12 on, which would move the last bits
    decay = v_sum = 0.0
    for e, v in zip(etas, z):
        decay += e * v * zeta(kind, v)
        v_sum += v * v
    envelope = _audit_program(kind, n)["envelope"]
    lower, upper = envelope(z, v_sum, gap, *_envelope_coefficients(etas))
    return -2.0 / gap * decay, lower, upper


def _envelope_coefficients(etas: Sequence[float]) -> tuple[float, float]:
    """(lower_coef, upper_coef) = (-2 sum eta, -2 n min eta) of the envelope
    for stages with these exponents; the sum runs left to right from 0.0."""
    eta_sum = 0.0
    for e in etas:
        eta_sum += e
    return -2.0 * eta_sum, -2.0 * len(etas) * min(etas)


@dataclass(frozen=True)
class BoundViolation:
    t: float
    side: str      # "lower", "upper", or "nonfinite" (V or dV overflowed)
    dV: float
    bound: float   # nan for a nonfinite sample, which has no envelope


@dataclass(frozen=True)
class LyapunovAudit:
    n_audited: int
    n_skipped: int            # samples with V below the audit floor
    violations: tuple[BoundViolation, ...]
    max_equality_residual: float       # |stencil slope - analytic dV|, normalized
    residual_window: tuple[float, float]
    passes: bool


_V_FLOOR = 1e-20


# The envelope of lyapunov_bounds and the pass of lyapunov_audit over the
# columns, as a template: $-names are filled in per (kernel kind, n) by
# _audit_source.  $envelope is the envelope, written once; it reads the
# stage errors z1..zn, V and gap = T_p - t and sets lower and upper.
_AUDIT_TEMPLATE = string.Template('''\
def envelope(z, V, gap, lower_coef, upper_coef):
    $z = z
$envelope
    return lower, upper

def envelope_pass(t_col, z_col, V_col, dV_col, T_p, lower_coef, upper_coef,
                  slack_abs, slack_rel, lo_t, hi_t):
    violations = []
    add = violations.append
    skipped = 0
    max_residual = 0.0
    # (t0, V0) and (t1, V1, dV1) are the two rows before this one; t0 is
    # None until the previous row has a row before it
    t0 = t1 = V1 = dV1 = None
    for t, ($z), V, dV in zip(t_col, z_col, V_col, dV_col):
        # the previous row now has a row on each side: its stencil residual
        # counts if lo_t <= t1 <= hi_t
        if t0 is not None and lo_t <= t1 <= hi_t and not V1 < $floor:
            h1 = t1 - t0
            h2 = t - t1
            if h1 != 0.0 and h2 != 0.0:
                h12 = h1 + h2
                slope = (
                    -V0 * h2 / (h1 * h12)
                    + V1 * (h2 - h1) / (h1 * h2)
                    + V * h1 / (h2 * h12)
                )
                # max(1.0, d) and max(max_residual, residual) spelt out:
                # each keeps its first argument unless the second is
                # larger, nan included
                abs_dV1 = abs(dV1)
                residual = abs(slope - dV1) / (abs_dV1 if abs_dV1 > 1.0 else 1.0)
                if residual > max_residual:
                    max_residual = residual
        # one name at a time, which builds no tuple
        t0 = t1
        t1 = t
        V0 = V1
        V1 = V
        dV1 = dV
        if V < $floor:
            skipped += 1
            continue
        abs_dV = abs(dV)
        # V is at least the floor or nan here, so V < inf means finite
        if not (V < inf and abs_dV < inf):
            add(BoundViolation(float(t), "nonfinite", dV, nan))
            continue
        gap = T_p - t
$loop_envelope
        slack = slack_abs + slack_rel * abs_dV
        if dV < lower - slack:
            add(BoundViolation(float(t), "lower", dV, lower))
        if dV > upper + slack:
            add(BoundViolation(float(t), "upper", dV, upper))
    return violations, skipped, max_residual
''')


def _audit_source(kind: RcdfKind, n: int) -> str:
    """The envelope and the envelope pass for n stages of this kernel.

    The stage errors are the locals z1..zn, |z|_1 is a left-to-right sum
    from 0.0, and the kernel is inlined from rcdf.kernel_source where its
    argument is finite.  Both arguments are >= 0 unless nan, so `< inf`
    tells a finite one; any other goes to the kernel function, which
    raises its DomainError.  Every value keeps the float operations of
    calling the kernel function and summing in a loop, so it is the same
    bits.
    """
    z = [f"z{i}" for i in range(1, n + 1)]

    def kernel(name: str) -> str:
        return f"({kernel_source(kind, name)} if {name} < inf else kernel({name}))"

    envelope = [
        f"l1 = {' + '.join(['0.0'] + [f'abs({zi})' for zi in z])}",
        f"a = l1 / {float(n)!r}",  # the same bits as dividing by the int n
        f"upper = upper_coef * a * {kernel('a')} / gap",
        "root_v = sqrt(V)",
        f"lower = lower_coef * root_v * {kernel('root_v')} / gap",
    ]
    return _AUDIT_TEMPLATE.substitute(
        z=", ".join(z) + ("," if n == 1 else ""),
        floor=repr(_V_FLOOR),
        envelope="\n".join(" " * 4 + line for line in envelope),
        loop_envelope="\n".join(" " * 8 + line for line in envelope),
    )


@functools.cache
def _audit_program(kind: RcdfKind, n: int) -> dict:
    """The namespace of the compiled audit program for n stages of this
    kernel, which holds envelope and envelope_pass."""
    return sd.compile_source(
        _audit_source(kind, n), "<psis.audit>",
        kernel=kernel_function(kind), BoundViolation=BoundViolation,
    )


def mixed_kernels(kinds: Sequence[str]) -> str | None:
    """Why the decay audit cannot run on stages of these kernel kinds, or
    None if it can: its envelope holds for a single kernel family only."""
    if len(set(kinds)) == 1:
        return None
    return f"decay audit needs a single kernel family, trajectory has {kinds!r}"


def lyapunov_audit(
    traj: Trajectory,
    slack_abs: float = VerifyParams.slack_abs,
    slack_rel: float = VerifyParams.slack_rel,
) -> LyapunovAudit:
    """Judge the recorded decay rate dV against the envelope and a numeric
    slope of the recorded V.

    At every pre-instant sample whose V exceeds a tiny floor (below it the
    quantities are pure roundoff), the recorded dV must lie inside the
    envelope of lyapunov_bounds, built from the recorded z and V, with slack
    slack_abs + slack_rel * |dV|.  A sample whose V or dV is not finite has
    no envelope and is a "nonfinite" violation.  This pass is one generated
    loop over the columns per kernel kind and number of stages (see
    _audit_source), which unpacks each z into locals and inlines the
    kernel.  The numeric slope of V uses a three-point stencil on the
    non-uniform sample times; its deviation from the recorded dV is
    reported as a residual normalized by max(1, |dV|), over the rows with a
    row on each side and t in [0.05 T_p, 0.95 T_p] (away from the
    endpoints, where the stencil is one-sided or the dynamics are
    singular).  The same pass computes it, carrying the two rows before the
    current one in locals.  A sample that shares its time with a neighbour
    has no three-point slope and no residual.  A z with other than one
    component per stage exponent is an AuditError, and slacks that
    VerifyParams refuses are a ConfigurationError.
    """
    VerifyParams(slack_abs=slack_abs, slack_rel=slack_rel)
    kinds = traj.meta.get("kinds", [])
    problem = mixed_kernels(kinds)
    if problem is not None:
        raise AuditError(problem)
    kind = RcdfKind(kinds[0])
    etas = [float(e) for e in traj.meta["etas"]]
    T_p = float(traj.meta["T_p"])
    n_pre = _pre_instant_rows(traj)
    lo_t, hi_t = 0.05 * T_p, 0.95 * T_p
    n = len(etas)
    try:
        violations, skipped, max_residual = _audit_program(kind, n)["envelope_pass"](
            traj.t, traj.z, traj.V, traj.dV, T_p, *_envelope_coefficients(etas),
            slack_abs, slack_rel, lo_t, hi_t)
    except ValueError:  # a z row that does not unpack into n locals
        raise AuditError(
            f"stage errors must have {n} components, one per stage exponent"
        ) from None

    return LyapunovAudit(
        n_audited=n_pre - skipped,
        n_skipped=skipped,
        violations=tuple(violations),
        max_equality_residual=max_residual,
        residual_window=(lo_t, hi_t),
        passes=not violations,
    )


# ---------------------------------------------------------------------------
# concavity gap


def _neg_x_zeta(kind: RcdfKind) -> tuple[Callable, Callable, str]:
    kernel = kernel_function(kind)
    bound = KERNELS[kind].convex_bound
    dom = f"[0, {bound}]" if bound < math.inf else "[0, inf)"
    return (lambda x: -x * kernel(x)), (lambda x: 0.0 <= x <= bound), dom


_JENSEN_REGISTRY: dict[str, tuple[Callable, Callable, str]] = {
    "sqrt": (math.sqrt, lambda x: x >= 0.0, "[0, inf)"),
    "log1p": (math.log1p, lambda x: x >= 0.0, "[0, inf)"),
    "neg_square": (lambda x: -x * x, lambda x: True, "(-inf, inf)"),
    # -x*zeta(x) per kernel family; concave where x*zeta(x) is convex only.
    **{f"neg_x_zeta_{kind.value}": _neg_x_zeta(kind) for kind in RcdfKind},
}


def jensen_h_names() -> tuple[str, ...]:
    return tuple(sorted(_JENSEN_REGISTRY))


@dataclass(frozen=True)
class JensenResult:
    gap: float          # h(mean) - mean of h; nonnegative for concave h
    h_of_mean: float
    mean_of_h: float
    holds: bool


def jensen_check(
    h_name: str,
    xs: Sequence[float],
    weights: Sequence[float] | None = None,
    slack: float = 1e-12,
) -> JensenResult:
    """Gap of the averaging inequality h(sum w x) >= sum w h(x).

    h must be one of the registered concave functions; points outside its
    concavity domain are rejected rather than silently producing a
    meaningless gap.  Weights default to equal and must be a convex
    combination.
    """
    entry = _JENSEN_REGISTRY.get(h_name)
    if entry is None:
        raise ConfigurationError(
            f"unknown h {h_name!r}; registered: {', '.join(jensen_h_names())}"
        )
    h, in_domain, domain_text = entry
    xs = [float(v) for v in xs]
    if not xs:
        raise ConfigurationError("xs must be nonempty")
    m = len(xs)
    if weights is None:
        lam = [1.0 / m] * m
    else:
        lam = [float(v) for v in weights]
        if len(lam) != m:
            raise ConfigurationError("weights must match xs in length")
        if any(v < 0.0 for v in lam) or abs(sum(lam) - 1.0) > 1e-12:
            raise ConfigurationError("weights must be nonnegative and sum to 1")
    for v in xs:
        if not math.isfinite(v) or not in_domain(v):
            raise DomainError(
                f"point {v!r} lies outside the concavity domain {domain_text} of {h_name}"
            )
    mean_x = sum(l * v for l, v in zip(lam, xs))
    if not in_domain(mean_x):
        raise DomainError(
            f"weighted mean {mean_x!r} left the concavity domain {domain_text} of {h_name}"
        )
    h_of_mean = h(mean_x)
    mean_of_h = sum(l * h(v) for l, v in zip(lam, xs))
    gap = h_of_mean - mean_of_h
    return JensenResult(
        gap=gap, h_of_mean=h_of_mean, mean_of_h=mean_of_h, holds=gap >= -slack
    )


# ---------------------------------------------------------------------------
# control vanishing


@dataclass(frozen=True)
class ControlVanishing:
    window_start: float
    max_abs_u_window: float    # over pre-instant samples in the terminal window
    last_pre_abs_u: float      # |u| at the standoff
    max_abs_u_overall: float   # over all pre-instant samples
    terminal_ratio: float      # window max / overall max
    post_all_zero: bool
    vanishes: bool


def control_vanishing_check(traj: Trajectory, tol: float) -> ControlVanishing:
    """Confirm the input dies into the instant and is cut exactly after it.

    The absolute size of u inside the terminal window [0.95 T_p, T_p)
    (simulation.TERMINAL_WINDOW_START) scales with the initial condition,
    so the verdict uses |u| at the standoff (within 10 * tol) plus exact
    zeros after T_p; the window maximum and its ratio to the overall
    maximum are reported for context.
    """
    _check_tolerance(tol)
    T_p = float(traj.meta["T_p"])
    window_start = TERMINAL_WINDOW_START * T_p
    n_pre = _pre_instant_rows(traj)
    pre_u = traj.u[:n_pre]
    # the times are sorted: the pre-instant rows with t >= window_start end them
    start = bisect_left(traj.t, window_start, 0, n_pre)
    if start == n_pre:
        raise AuditError("no samples inside the terminal window")
    max_window = max(map(abs, pre_u[start:]))
    max_overall = max(map(abs, pre_u))
    last_pre = abs(pre_u[-1])
    # a float is false exactly when it equals 0.0 (-0.0 included, nan not)
    post_zero = not any(traj.u[n_pre:])
    return ControlVanishing(
        window_start=window_start,
        max_abs_u_window=max_window,
        last_pre_abs_u=last_pre,
        max_abs_u_overall=max_overall,
        terminal_ratio=max_window / max_overall if max_overall > 0.0 else 0.0,
        post_all_zero=post_zero,
        vanishes=post_zero and last_pre <= 10.0 * tol,
    )


# ---------------------------------------------------------------------------
# verdicts and sweeps


def run_tolerance(tol_abs: float, tol_rel: float, x0: Sequence[float]) -> float:
    """Settling tolerance for one run: tol_abs + tol_rel * |x0|_2."""
    # hypot scales internally, so extreme initial conditions cannot overflow
    return tol_abs + tol_rel * math.hypot(*(float(v) for v in x0))


def unresolvable_tolerance(tol: float, cfg: SimConfig) -> str | None:
    """Why a run cannot certify settling tolerance tol, or None if it can.

    The integrator resolves the state only to about 10 (atol + rtol |x0|_2);
    a tolerance below that floor would certify roundoff, not the law.
    """
    floor = 10.0 * (cfg.atol + cfg.rtol * math.hypot(*cfg.x0))
    if tol >= floor:
        return None
    return (
        f"settling tolerance {tol:.3e} is below the integration accuracy "
        f"floor {floor:.3e}; tighten rtol/atol or relax tol_abs/tol_rel"
    )


# The clauses that gate a verify run and a sweep row, in judge's order.
VERIFY_CLAUSES = ("tolerance", "settling", "decay", "vanishing")
ROW_CLAUSES = ("settling",)


@dataclass(frozen=True)
class Judgement:
    """A run's settling tolerance, its audits, the names of its failed
    clauses in the order given, and its verdict: "degenerate", "pass" or
    "fail".  lyapunov and vanishing are None when no clause needs them, and
    diagnostics holds why the tolerance clause failed."""

    tol: float
    settling: SettlingEvidence
    lyapunov: LyapunovAudit | None
    vanishing: ControlVanishing | None
    diagnostics: tuple[str, ...]
    failed: tuple[str, ...]
    verdict: str


def judge(traj: Trajectory, cfg: SimConfig, clauses: Sequence[str],
          params: VerifyParams) -> Judgement:
    """Judge a run of cfg by the named clauses, with the audits' parameters
    params and the tolerance they give for cfg.x0 (see run_tolerance).

    The settling audit always runs, because a start inside tolerance makes
    the run degenerate whatever else fails; every other audit runs only
    when its clause is named.  A run that is not degenerate passes when
    every named clause holds, and fails otherwise.
    """
    tol = run_tolerance(params.tol_abs, params.tol_rel, cfg.x0)
    problem = unresolvable_tolerance(tol, cfg) if "tolerance" in clauses else None
    settling = settling_instant(traj, tol, params.window_factor)
    lyapunov = (lyapunov_audit(traj, params.slack_abs, params.slack_rel)
                if "decay" in clauses else None)
    vanishing = control_vanishing_check(traj, tol) if "vanishing" in clauses else None
    passed = {
        "tolerance": problem is None,
        "settling": settling.two_sided,
        "decay": lyapunov is not None and lyapunov.passes,
        "vanishing": vanishing is not None and vanishing.vanishes,
    }
    failed = tuple(name for name in clauses if not passed[name])
    verdict = "degenerate" if settling.degenerate else ("fail" if failed else "pass")
    return Judgement(tol, settling, lyapunov, vanishing,
                     () if problem is None else (problem,), failed, verdict)


@dataclass(frozen=True)
class SweepRow:
    scale: float
    x0: tuple[float, ...]
    tol: float
    evidence: SettlingEvidence | None
    error: str | None
    state: str     # the judge's verdict, or "error" for a refused or raised run
    traj: Trajectory | None = None  # populated only when the sweep keeps them


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    spread: float | None        # max |t_settle - T_p| over settled certified runs
    spread_bound: float
    verdict: str                # "pass" or "fail"


def thread_count(n_jobs: int) -> int:
    """Threads a sweep of n_jobs runs uses: always 1, since sweeps run
    serially.  It stays only because perfbench/worker.py records it, and
    goes with ROADMAP item 7."""
    return 1


def sweep_initial_conditions(
    plant: PlantModel,
    controller: Controller,
    base_cfg: SimConfig,
    scales: Sequence[float],
    tol_abs: float = VerifyParams.tol_abs,
    tol_rel: float = VerifyParams.tol_rel,
    window_factor: float = VerifyParams.window_factor,
    spread_bound: float = VerifyParams.spread_bound,
    keep_trajectories: bool = False,
) -> SweepReport:
    """Settling audit across initial conditions scale * base_cfg.x0.

    Each run is judged by ROW_CLAUSES (see judge), so every non-degenerate
    run must pass the two-sided settling check, and the observed settling
    instants must agree with T_p within spread_bound * T_p.
    Runs that error out are recorded with the message and fail the sweep,
    and so is a scale whose tolerance lies below the integration accuracy
    floor (see unresolvable_tolerance), without being run.
    Runs execute one after another on the calling thread, in the order of
    scales.  Parameters that VerifyParams refuses are a ConfigurationError,
    and so are a settling window that reaches base_cfg's standoff (see
    VerifyParams.window_end) and a scale that takes x0 past the float
    range; each is raised before any run.
    """
    params = VerifyParams(tol_abs, tol_rel, window_factor, spread_bound)
    params.window_end(base_cfg.T_p, base_cfg.t_standoff)
    scales = [float(s) for s in scales]
    if not scales:
        raise ConfigurationError("scales must be nonempty")
    T_p = base_cfg.T_p
    starts = [tuple(scale * v for v in base_cfg.x0) for scale in scales]
    for scale, x0 in zip(scales, starts):
        if not all(map(math.isfinite, x0)):
            raise ConfigurationError(
                f"scale {scale!r} takes x0 past the float range: scale * x0 = {x0!r}")

    def one(scale: float, x0: tuple[float, ...]) -> SweepRow:
        tol = run_tolerance(tol_abs, tol_rel, x0)
        cfg = replace(base_cfg, x0=x0)
        row = functools.partial(SweepRow, scale=scale, x0=x0, tol=tol)
        problem = unresolvable_tolerance(tol, cfg)
        if problem is not None:
            return row(evidence=None, error=problem, state="error")
        try:
            traj = simulate(plant, controller, cfg)
            judged = judge(traj, cfg, ROW_CLAUSES, params)
            return row(evidence=judged.settling, error=None, state=judged.verdict,
                       traj=traj if keep_trajectories else None)
        except (IntegrationError, AuditError) as exc:
            return row(evidence=None, error=f"{type(exc).__name__}: {exc}", state="error")

    rows = tuple(map(one, scales, starts))

    states = [r.state for r in rows]
    # a sweep with nothing but degenerate starts certifies nothing
    failed = "error" in states or "fail" in states or "pass" not in states
    # a run that never settles has already failed its settling clause
    settled = [r.evidence.t_settle for r in rows
               if r.state in ("pass", "fail") and r.evidence.t_settle is not None]
    spread = None
    if settled:
        spread = max(abs(t - T_p) for t in settled)
        if spread > spread_bound * T_p:
            failed = True
    verdict = "fail" if failed else "pass"
    return SweepReport(
        rows=rows, spread=spread, spread_bound=spread_bound, verdict=verdict
    )
