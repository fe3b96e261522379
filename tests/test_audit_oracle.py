"""The audits against the loops they replaced.

`reference_lyapunov_audit`, `reference_envelope`, `reference_settling_instant`
and `reference_control_vanishing_check` below are the audits as they read
before the decay audit's envelope pass was generated per kernel kind and
order, and before the audits read the columns by bisection and shifted
slices.  They are kept here only as oracles, the way tests/test_emitter.py
keeps the one-local emitter.  The audits must give the same results, by
repr (which tells -0.0 from 0.0 and prints nan), or raise the same error:
on simulated runs of every kernel and order 1-6 on both clocks, on the
clamp runs at four scales, on synthetic columns with signed zeros,
values below the audit floor, non-finite values, repeated times and rows
exactly on the window edges, and on a trajectory with no rows before T_p.
"""

import functools
import math
import random

import pytest

from psis.errors import AuditError, ConfigurationError, IntegrationError
from psis.rcdf import RcdfKind, RcdfSpec, kernel_function, zeta
from psis.simulation import (
    TERMINAL_WINDOW_START,
    IntegratorChain,
    SimConfig,
    Trajectory,
    simulate,
)
from psis.synthesis import SynthesisConfig, synthesize
from psis.verification import (
    BoundViolation,
    ControlVanishing,
    LyapunovAudit,
    SettlingEvidence,
    _V_FLOOR,
    control_vanishing_check,
    lyapunov_audit,
    lyapunov_bounds,
    mixed_kernels,
    run_tolerance,
    settling_instant,
    sweep_initial_conditions,
)


# ---------------------------------------------------------------------------
# the oracles


def reference_settling_instant(traj, tol, window_factor=0.9):
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigurationError(f"tolerance must be finite and positive, got {tol!r}")
    if not (0.0 < window_factor < 1.0):
        raise ConfigurationError("verify.window_factor must lie in (0, 1)")
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
        pre_floor = math.nan

    if not norms[-1] <= tol:
        t_settle = None
    else:
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


def reference_envelope(etas, kind):
    n = len(etas)
    eta_sum = 0.0
    for e in etas:
        eta_sum += e
    upper_coef = -2.0 * n * min(etas)
    lower_coef = -2.0 * eta_sum
    kernel = kernel_function(kind)

    def envelope(z, V, gap):
        l1 = 0.0
        for v in z:
            l1 += abs(v)
        a = l1 / n
        upper = upper_coef * a * kernel(a) / gap
        root_v = math.sqrt(V)
        lower = lower_coef * root_v * kernel(root_v) / gap
        return lower, upper

    return envelope


def reference_lyapunov_bounds(z, etas, kind, T_p, t):
    gap = T_p - t
    decay = v_sum = 0.0
    for e, v in zip(etas, z):
        decay += e * v * zeta(kind, v)
        v_sum += v * v
    lower, upper = reference_envelope(etas, kind)(z, v_sum, gap)
    return -2.0 / gap * decay, lower, upper


def reference_lyapunov_audit(traj, slack_abs=1e-6, slack_rel=1e-3):
    kinds = traj.meta.get("kinds", [])
    problem = mixed_kernels(kinds)
    if problem is not None:
        raise AuditError(problem)
    kind = RcdfKind(kinds[0])
    etas = [float(e) for e in traj.meta["etas"]]
    T_p = float(traj.meta["T_p"])
    t, z, V, dV = traj.pre_instant_arrays()

    envelope = reference_envelope(etas, kind)
    violations = []
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
        if h1 == 0.0 or h2 == 0.0:
            continue
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


def reference_control_vanishing_check(traj, tol):
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigurationError(f"tolerance must be finite and positive, got {tol!r}")
    T_p = float(traj.meta["T_p"])
    window_start = TERMINAL_WINDOW_START * T_p
    n_pre = len(traj.z)
    if not n_pre:
        raise AuditError("trajectory has no samples before the prescribed instant")
    pre_u = traj.u[:n_pre]
    window = [abs(u) for t, u in zip(traj.t, pre_u) if t >= window_start]
    if not window:
        raise AuditError("no samples inside the terminal window")
    max_window = max(window)
    max_overall = max(map(abs, pre_u))
    last_pre = abs(pre_u[-1])
    post_zero = all(u == 0.0 for u in traj.u[n_pre:])
    return ControlVanishing(
        window_start=window_start,
        max_abs_u_window=max_window,
        last_pre_abs_u=last_pre,
        max_abs_u_overall=max_overall,
        terminal_ratio=max_window / max_overall if max_overall > 0.0 else 0.0,
        post_all_zero=post_zero,
        vanishes=post_zero and last_pre <= 10.0 * tol,
    )


def outcome(fn, *args):
    """repr of fn(*args), or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the error itself is part of the contract
        return type(exc).__name__, str(exc)


def assert_audits_agree(traj, tol):
    """Every audit agrees with its oracle on traj; returns the outcomes."""
    pairs = [
        (lyapunov_audit, reference_lyapunov_audit, (traj,)),
        (lyapunov_audit, reference_lyapunov_audit, (traj, 0.0, 0.0)),
        (settling_instant, reference_settling_instant, (traj, tol)),
        (settling_instant, reference_settling_instant, (traj, tol, 0.5)),
        (control_vanishing_check, reference_control_vanishing_check, (traj, tol)),
    ]
    got = []
    for audit, oracle, args in pairs:
        result = outcome(audit, *args)
        assert result == outcome(oracle, *args), audit.__name__
        got.append(result)
    return got


# ---------------------------------------------------------------------------
# simulated runs


@functools.lru_cache(maxsize=None)
def make_controller(kind, n):
    etas = tuple(float(n + 2 - i) for i in range(1, n + 1))
    stages = tuple(RcdfSpec(kind=kind, eta=e) for e in etas)
    return synthesize(SynthesisConfig(n=n, c=0.0, T_p=1.0, stages=stages))


def run(kind, n, mode, open_loop):
    """A run from 0.1 e1, or the partial trajectory it left."""
    cfg = SimConfig(x0=(0.1,) + (0.0,) * (n - 1), T_p=1.0, t_end=1.2,
                    mode=mode, open_loop=open_loop)
    try:
        return simulate(IntegratorChain(n), make_controller(kind, n), cfg), cfg
    except IntegrationError as exc:
        return exc.partial, cfg


# every order runs open loop, whose z, V and dV come from the same law and
# break the envelope.  Every closed loop must reach t_end, except tan n=6,
# which runs open loop only: each tan stage squares the error it inherits
# (zeta grows like v^2), and from 0.1 e1 the closed loop breaks down at
# t = 0 on both clocks
@pytest.mark.parametrize("mode", ["direct", "tau"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", list(RcdfKind), ids=lambda k: k.value)
def test_every_kernel_and_order_on_both_clocks(kind, n, mode):
    closed = not (kind is RcdfKind.TAN and n == 6)
    for open_loop in (False, True) if closed else (True,):
        traj, cfg = run(kind, n, mode, open_loop)
        tol = run_tolerance(1e-4, 1e-6, cfg.x0)
        assert_audits_agree(traj, tol)
        audit = lyapunov_audit(traj)
        if open_loop:
            # the free chain does not decay at the law's rate dV
            assert audit.max_equality_residual > 1e-3
        else:
            assert traj.t[-1] == cfg.t_end
            assert audit.passes


def test_clamp_runs_at_four_scales():
    for n in (2, 3):
        base = SimConfig(x0=(1.0,) + (0.0,) * (n - 1), T_p=1.0, t_end=1.2,
                         sample_dt=2.5e-4)
        report = sweep_initial_conditions(
            IntegratorChain(n), make_controller(RcdfKind.LINEAR, n), base,
            [0.1, 1.0, 10.0, 100.0], keep_trajectories=True)
        assert report.verdict == "pass"
        for row in report.rows:
            assert_audits_agree(row.traj, row.tol)


# ---------------------------------------------------------------------------
# synthetic columns

SPECIALS = (0.0, -0.0, 1e-21, _V_FLOOR, 5e-324, math.nan, math.inf, 1e300)
NEGATIVES = (-math.inf, -1e300, -1e-300)  # a negative V has no norm: ValueError


def synthetic(rng, kind, n, T_p):
    """A trajectory whose columns mix plausible rows with special values,
    repeated times and rows exactly on the audits' window edges."""
    etas = [float(n + 2 - i) for i in range(1, n + 1)]
    t_standoff = T_p - 1e-9 * T_p
    edges = [0.05 * T_p, 0.95 * T_p, 0.9 * T_p, 0.5 * T_p,
             TERMINAL_WINDOW_START * T_p]
    times = [0.0] + [rng.uniform(0.0, t_standoff) for _ in range(rng.randint(0, 30))]
    times += rng.sample(edges, rng.randint(0, len(edges)))
    times += rng.choices(times, k=rng.randint(0, 4))  # repeats
    times = sorted(times) + [t_standoff]

    def special_or(value, p, specials=SPECIALS):
        return rng.choice(specials) if rng.random() < p else value

    pre, post = [], []
    for t in times:
        z = tuple(special_or(rng.gauss(0.0, rng.choice((1e-12, 1e-3, 1.0, 1e3))), 0.02,
                             SPECIALS + NEGATIVES) for _ in range(n))
        V = 0.0
        for v in z:
            V += v * v
        lo_dV, bound_lo, bound_up = 0.0, 0.0, 0.0
        if all(map(math.isfinite, z)) and math.isfinite(V) and V > 0.0:
            lo_dV, bound_lo, bound_up = reference_lyapunov_bounds(z, etas, kind, T_p, t)
        dV = rng.choice((lo_dV, bound_lo * 1.5, bound_up * 0.5, bound_lo, bound_up,
                         lo_dV * (1.0 + 1e-4)))
        V = special_or(special_or(V, 0.1), 0.005, NEGATIVES)
        pre.append((t, z, V, special_or(dV, 0.1, SPECIALS + NEGATIVES),
                    special_or(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 2), 0.1,
                               SPECIALS + NEGATIVES)))
    for k in range(rng.randint(0, 4)):
        post.append((T_p + 0.01 * k, rng.choice((0.0, 0.0, -0.0, math.nan, 1e-300))))

    traj = Trajectory(meta={"kinds": [kind.value] * n, "etas": etas, "T_p": T_p,
                            "t_standoff": t_standoff})
    for t, z, V, dV, u in pre:
        traj.t.append(t)
        traj.x.append(z)
        traj.u.append(u)
        traj.z.append(z)
        traj.V.append(V)
        traj.dV.append(dV)
    for t, u in post:
        traj.t.append(t)
        traj.x.append((0.0,) * n)
        traj.u.append(u)
    return traj


@pytest.mark.parametrize("kind", list(RcdfKind), ids=lambda k: k.value)
def test_synthetic_columns(kind):
    rng = random.Random(f"audit-oracle:{kind.value}")
    seen = set()
    for trial in range(200):
        n = rng.randint(1, 6)
        T_p = rng.choice((1.0, 0.5, 3.7, 1e-6))
        traj = synthetic(rng, kind, n, T_p)
        tol = rng.choice((1e-4, 1e-9, 1.0))
        for result in assert_audits_agree(traj, tol):
            if isinstance(result, tuple):
                seen.add(result[0])
            else:
                seen.update(side for side in ("'lower'", "'upper'", "'nonfinite'")
                            if side in result)
    # the draws reach every kind of violation, and the errors of a negative
    # V and of a z that is not finite where V is
    assert {"'lower'", "'upper'", "'nonfinite'", "ValueError", "DomainError"} <= seen


def test_trajectory_without_pre_instant_rows():
    # only rows after T_p: every audit and its oracle raise one error, so
    # the three audits' error texts are compared
    traj = Trajectory(meta={"kinds": ["linear"] * 2, "etas": [3.0, 2.0], "T_p": 1.0,
                            "t_standoff": 1.0 - 1e-9})
    for t in (1.0, 1.1):
        traj.t.append(t)
        traj.x.append((0.0, 0.0))
        traj.u.append(0.0)
    assert set(assert_audits_agree(traj, 1e-4)) == {
        ("AuditError", "trajectory has no samples before the prescribed instant")
    }


def test_window_edges_are_inclusive():
    # V = 1 - t has the stencil slope -1 wherever a row has two distinct
    # neighbours; dV misses it by 0.5 only on the row exactly at 0.05 T_p
    # or at 0.95 T_p, so the maximum residual shows that the edge row is
    # audited.  The rows that repeat t = 0.5 have no residual at all.
    times = [0.0, 0.025, 0.05, 0.5, 0.5, 0.7, 0.95, 0.975, 1.0 - 1e-9]
    for edge in (2, 6):
        traj = Trajectory(meta={"kinds": ["linear"], "etas": [2.0], "T_p": 1.0,
                                "t_standoff": times[-1]})
        for k, t in enumerate(times):
            traj.t.append(t)
            traj.x.append((0.0,))
            traj.u.append(0.0)
            traj.z.append((math.sqrt(1.0 - t),))
            traj.V.append(1.0 - t)
            traj.dV.append(-1.5 if k == edge else -1.0)
        got = lyapunov_audit(traj, 0.0, 0.0)
        assert repr(got) == repr(reference_lyapunov_audit(traj, 0.0, 0.0))
        assert got.max_equality_residual == pytest.approx(0.5 / 1.5, rel=1e-12)


def test_lyapunov_bounds_match_the_reference():
    rng = random.Random("audit-oracle:bounds")
    for trial in range(600):
        kind = rng.choice(list(RcdfKind))
        n = rng.randint(1, 6)
        etas = [rng.choice((2.0, 3.5, 7.0)) for _ in range(n)]
        z = [rng.choice((0.0, -0.0, 1e-300, 1e200, -3.0, rng.gauss(0.0, 2.0)))
             for _ in range(n)]
        t = rng.choice((0.0, 0.5, 0.999999))
        assert (outcome(lyapunov_bounds, z, etas, kind, 1.0, t)
                == outcome(reference_lyapunov_bounds, z, etas, kind, 1.0, t))


def test_stage_errors_of_the_wrong_length_are_an_audit_error():
    traj = Trajectory(meta={"kinds": ["linear"] * 2, "etas": [3.0, 2.0], "T_p": 1.0,
                            "t_standoff": 1.0 - 1e-9})
    traj.t.append(0.0)
    traj.x.append((1.0, 0.0, 0.0))
    traj.u.append(0.0)
    traj.z.append((1.0, 0.0, 0.0))
    traj.V.append(1.0)
    traj.dV.append(-6.0)
    with pytest.raises(AuditError, match="must have 2 components"):
        lyapunov_audit(traj)
