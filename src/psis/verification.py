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
    rebuilt sample by sample from the recorded z and V, and the recorded dV
    is compared with a finite-difference slope of the recorded V as well.
  * control_vanishing_check: the input must die out as t approaches T_p and
    be exactly zero afterwards, confirming the law spends its effort early
    rather than diverging into the singular gain.

sweep_initial_conditions repeats the settling audit across scaled initial
conditions, which is the operational meaning of "for every initial
condition" on a desk-sized budget.  Its runs are pure-Python integrations,
so it runs them one after another on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .errors import AuditError, ConfigurationError, DomainError, IntegrationError
from .rcdf import RcdfKind, kernel_function, zeta
from .simulation import PlantModel, SimConfig, Trajectory, simulate
from .synthesis import Controller


# ---------------------------------------------------------------------------
# settling


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


def settling_instant(
    traj: Trajectory, tol: float, window_factor: float = 0.9
) -> SettlingEvidence:
    """Audit one trajectory's stage-error norm against a tolerance ball."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigurationError(f"tolerance must be finite and positive, got {tol!r}")
    if not (0.0 < window_factor < 1.0):
        raise ConfigurationError(
            f"window_factor must lie in (0, 1), got {window_factor!r}"
        )
    T_p = traj.meta["T_p"]
    t_standoff = traj.meta["t_standoff"]
    t, _, V, _ = traj.pre_instant_arrays()
    if abs(t[-1] - t_standoff) > 1e-12 * T_p:
        raise AuditError("trajectory is missing its sample at the standoff")
    norms = [math.sqrt(v) for v in V]

    window_end = window_factor * T_p
    in_window = [nm for ti, nm in zip(t, norms) if ti <= window_end]
    if not in_window:
        raise AuditError("no samples inside the pre-instant window")
    pre_floor = min(in_window)
    if any(math.isnan(nm) for nm in in_window):
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

    For the logexp kernel the upper form relies on concavity of x*zeta(x),
    which holds for |z|_1 / n <= 2 only; callers audit within that range.
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
    lower, upper = _envelope(etas, kind)(z, v_sum, gap)
    return -2.0 / gap * decay, lower, upper


def _envelope(
    etas: Sequence[float], kind: RcdfKind
) -> Callable[[Sequence[float], float, float], tuple[float, float]]:
    """envelope(z, V, gap) -> (lower, upper) of lyapunov_bounds for stages
    with these exponents, at stage errors z with V = sum z_i^2 and
    gap = T_p - t.  n, min eta and sum eta are computed here, once."""
    n = len(etas)
    eta_sum = 0.0
    for e in etas:
        eta_sum += e
    upper_coef = -2.0 * n * min(etas)
    lower_coef = -2.0 * eta_sum
    kernel = kernel_function(kind)

    def envelope(z: Sequence[float], V: float, gap: float) -> tuple[float, float]:
        l1 = 0.0
        for v in z:
            l1 += abs(v)
        a = l1 / n
        upper = upper_coef * a * kernel(a) / gap
        root_v = math.sqrt(V)
        lower = lower_coef * root_v * kernel(root_v) / gap
        return lower, upper

    return envelope


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


def mixed_kernels(kinds: Sequence[str]) -> str | None:
    """Why the decay audit cannot run on stages of these kernel kinds, or
    None if it can: its envelope holds for a single kernel family only."""
    if len(set(kinds)) == 1:
        return None
    return f"decay audit needs a single kernel family, trajectory has {kinds!r}"


def lyapunov_audit(
    traj: Trajectory, slack_abs: float = 1e-6, slack_rel: float = 1e-3
) -> LyapunovAudit:
    """Judge the recorded decay rate dV against the envelope and a numeric
    slope of the recorded V.

    At every pre-instant sample whose V exceeds a tiny floor (below it the
    quantities are pure roundoff), the recorded dV must lie inside the
    envelope of lyapunov_bounds, built from the recorded z and V, with slack
    slack_abs + slack_rel * |dV|.  A sample whose V or dV is not finite has
    no envelope and is a "nonfinite" violation.  The numeric slope of V uses
    a three-point stencil on the non-uniform sample times; its deviation from
    the recorded dV is reported as a residual normalized by max(1, |dV|),
    over [0.05 T_p, 0.95 T_p] (away from the endpoints, where the stencil is
    one-sided or the dynamics are singular).
    """
    kinds = traj.meta.get("kinds", [])
    problem = mixed_kernels(kinds)
    if problem is not None:
        raise AuditError(problem)
    kind = RcdfKind(kinds[0])
    etas = [float(e) for e in traj.meta["etas"]]
    T_p = float(traj.meta["T_p"])
    t, z, V, dV = traj.pre_instant_arrays()

    envelope = _envelope(etas, kind)
    violations: list[BoundViolation] = []
    skipped = 0
    for ti, zi, vi, dv in zip(t, z, V, dV):
        if vi < _V_FLOOR:
            skipped += 1
            continue
        if not (math.isfinite(vi) and math.isfinite(dv)):
            violations.append(BoundViolation(float(ti), "nonfinite", dv, math.nan))
            continue
        lo, up = envelope(zi, vi, T_p - ti)
        slack = slack_abs + slack_rel * abs(dv)
        if dv < lo - slack:
            violations.append(BoundViolation(float(ti), "lower", dv, lo))
        if dv > up + slack:
            violations.append(BoundViolation(float(ti), "upper", dv, up))
    audited = len(t) - skipped

    lo_t, hi_t = 0.05 * T_p, 0.95 * T_p
    max_residual = 0.0
    for i in range(1, len(t) - 1):
        if not (lo_t <= t[i] <= hi_t) or V[i] < _V_FLOOR:
            continue
        h1 = t[i] - t[i - 1]
        h2 = t[i + 1] - t[i]
        slope = (
            -V[i - 1] * h2 / (h1 * (h1 + h2))
            + V[i] * (h2 - h1) / (h1 * h2)
            + V[i + 1] * h1 / (h2 * (h1 + h2))
        )
        residual = abs(slope - dV[i]) / max(1.0, abs(dV[i]))
        max_residual = max(max_residual, float(residual))

    return LyapunovAudit(
        n_audited=audited,
        n_skipped=skipped,
        violations=tuple(violations),
        max_equality_residual=max_residual,
        residual_window=(lo_t, hi_t),
        passes=not violations,
    )


# ---------------------------------------------------------------------------
# concavity gap


def _neg_x_zeta(kind: RcdfKind, bound: float | None) -> tuple[Callable, Callable, str]:
    def h(x: float) -> float:
        return -x * zeta(kind, x)

    def ok(x: float) -> bool:
        if x < 0.0:
            return False
        return bound is None or x <= bound

    dom = f"[0, {bound}]" if bound is not None else "[0, inf)"
    return h, ok, dom


_JENSEN_REGISTRY: dict[str, tuple[Callable, Callable, str]] = {
    "sqrt": (math.sqrt, lambda x: x >= 0.0, "[0, inf)"),
    "log1p": (math.log1p, lambda x: x >= 0.0, "[0, inf)"),
    "neg_square": (lambda x: -x * x, lambda x: True, "(-inf, inf)"),
    # -x*zeta(x) per kernel family; concave on the stated domain only.
    "neg_x_zeta_linear": _neg_x_zeta(RcdfKind.LINEAR, None),
    "neg_x_zeta_tan": _neg_x_zeta(RcdfKind.TAN, None),
    "neg_x_zeta_logexp": _neg_x_zeta(RcdfKind.LOGEXP, 2.0),
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
    scales with the initial condition, so the verdict uses |u| at the
    standoff (within 10 * tol) plus exact zeros after T_p; the window
    maximum and its ratio to the overall maximum are reported for context.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigurationError(f"tolerance must be finite and positive, got {tol!r}")
    T_p = float(traj.meta["T_p"])
    window_start = 0.95 * T_p
    pre = [s for s in traj.samples if s.z is not None]
    post = [s for s in traj.samples if s.z is None]
    if not pre:
        raise AuditError("trajectory has no pre-instant samples")
    window = [abs(s.u) for s in pre if s.t >= window_start]
    if not window:
        raise AuditError("no samples inside the terminal window")
    max_window = max(window)
    max_overall = max(abs(s.u) for s in pre)
    last_pre = abs(pre[-1].u)
    post_zero = all(s.u == 0.0 for s in post)
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
# sweeps


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


@dataclass(frozen=True)
class SweepRow:
    scale: float
    x0: tuple[float, ...]
    tol: float
    evidence: SettlingEvidence | None
    error: str | None
    traj: Trajectory | None = None  # populated only when the sweep keeps them

    @property
    def state(self) -> str:
        """The row's outcome: error, degenerate, pass or fail."""
        ev = self.evidence
        if ev is None:
            return "error"
        return "degenerate" if ev.degenerate else ("pass" if ev.two_sided else "fail")


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    spread: float | None        # max |t_settle - T_p| over settled certified runs
    spread_bound: float
    verdict: str                # "pass" or "fail"


def thread_count(n_jobs: int) -> int:
    """Threads a sweep of n_jobs runs uses: always 1, since sweeps run
    serially.  It stays only because perfbench/worker.py records it, and
    goes with ROADMAP item 4."""
    return 1


def sweep_initial_conditions(
    plant: PlantModel,
    controller: Controller,
    base_cfg: SimConfig,
    scales: Sequence[float],
    tol_abs: float = 1e-4,
    tol_rel: float = 1e-6,
    window_factor: float = 0.9,
    spread_bound: float = 0.05,
    keep_trajectories: bool = False,
) -> SweepReport:
    """Settling audit across initial conditions scale * base_cfg.x0.

    Every non-degenerate run must pass the two-sided settling check and the
    observed settling instants must agree with T_p within spread_bound * T_p.
    Runs that error out are recorded with the message and fail the sweep,
    and so is a scale whose tolerance lies below the integration accuracy
    floor (see unresolvable_tolerance), without being run.
    Runs execute one after another on the calling thread, in the order of
    scales.
    """
    scales = [float(s) for s in scales]
    if not scales:
        raise ConfigurationError("scales must be nonempty")
    T_p = base_cfg.T_p

    def one(scale: float) -> SweepRow:
        x0 = tuple(scale * v for v in base_cfg.x0)
        tol = run_tolerance(tol_abs, tol_rel, x0)
        cfg = replace(base_cfg, x0=x0)
        problem = unresolvable_tolerance(tol, cfg)
        if problem is not None:
            return SweepRow(scale=scale, x0=x0, tol=tol, evidence=None, error=problem)
        try:
            traj = simulate(plant, controller, cfg)
            ev = settling_instant(traj, tol, window_factor)
            return SweepRow(
                scale=scale, x0=x0, tol=tol, evidence=ev, error=None,
                traj=traj if keep_trajectories else None,
            )
        except (IntegrationError, AuditError) as exc:
            return SweepRow(
                scale=scale, x0=x0, tol=tol, evidence=None,
                error=f"{type(exc).__name__}: {exc}",
            )

    rows = tuple(one(scale) for scale in scales)

    certified = [
        r.evidence for r in rows
        if r.evidence is not None and not r.evidence.degenerate
    ]
    # a sweep with nothing but degenerate starts certifies nothing
    failed = not certified or any(r.error is not None for r in rows) or any(
        not ev.two_sided for ev in certified
    )
    # a run that never settles has already failed its two-sided check
    settled = [ev.t_settle for ev in certified if ev.t_settle is not None]
    spread = None
    if settled:
        spread = max(abs(t - T_p) for t in settled)
        if spread > spread_bound * T_p:
            failed = True
    verdict = "fail" if failed else "pass"
    return SweepReport(
        rows=rows, spread=spread, spread_bound=spread_bound, verdict=verdict
    )
