"""Release gate: one test per exit criterion, tolerances pinned in place.

Each test prints a single summary line of the form

    criterion N: PASS (...)

before asserting, so a plain `pytest tests/test_acceptance.py -s` shows one
line per criterion.  Criterion 4's runs are shared with criterion 5 through
a module-scoped fixture so the decay audit sees exactly the trajectories
the settling clamp certified.
"""

import json
import math
import random
import time
from dataclasses import replace

import pytest

from psis import symdiff as sd
from psis.cli import main
from psis.rcdf import RcdfKind, RcdfSpec, closed_form
from psis.simulation import (
    IntegratorChain,
    Pendulum,
    SimConfig,
    simulate,
)
from psis.synthesis import SynthesisConfig, eval_control, synthesize
from psis.verification import (
    jensen_check,
    jensen_h_names,
    lyapunov_audit,
    sweep_initial_conditions,
)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _linear_stages(etas):
    return tuple(RcdfSpec(RcdfKind.LINEAR, float(e)) for e in etas)


# ---------------------------------------------------------------------------
# criterion 1: pendulum reproduction


def test_criterion_1_pendulum_reproduction():
    """Stabilize the pendulum at 0.15 rad in exactly half a second.

    Clauses: both states reach the setpoint within 1e-3 at the instant, the
    input is identically zero afterwards, the input peak over the last five
    percent of the horizon stays below five percent of the overall peak, and
    the run finishes in under two seconds.

    The window clause is asserted exactly as stated and is expected to fail:
    with stage exponents (3, 2) the input magnitude decays like the first
    power of the remaining time, so the final five percent of the horizon
    retains roughly a third of the input peak, independent of the initial
    condition's scale.  The other clauses hold with wide margin.
    """
    started = time.perf_counter()
    controller = synthesize(
        SynthesisConfig(n=2, c=0.15, T_p=0.5, stages=_linear_stages((3.0, 2.0)))
    )
    plant = Pendulum(length=0.5, mass=0.1, gravity=9.81, friction=0.01)
    traj = simulate(plant, controller, SimConfig(x0=(0.09, 0.1), T_p=0.5, t_end=0.6))
    wall = time.perf_counter() - started

    at_instant = traj.sample_at(0.5)
    x1_err = abs(at_instant.x[0] - 0.15)
    x2_err = abs(at_instant.x[1])
    post_u = [s.u for s in traj.samples if s.t >= 0.5]
    peak_overall = max(abs(s.u) for s in traj.samples if 0.0 <= s.t < 0.5)
    peak_window = max(abs(s.u) for s in traj.samples if 0.475 <= s.t < 0.5)
    ratio = peak_window / peak_overall

    clauses = {
        "x1 at instant": x1_err < 1e-3,
        "x2 at instant": x2_err < 1e-3,
        "input zero after instant": bool(post_u) and all(u == 0.0 for u in post_u),
        "terminal window ratio": peak_window < 0.05 * peak_overall,
        "runtime": wall < 2.0,
    }
    detail = (
        f"x1 err {x1_err:.2e}, x2 err {x2_err:.2e}, "
        f"window ratio {ratio:.3f} vs 0.05, wall {wall:.2f} s"
    )
    _line(1, all(clauses.values()), detail)
    failed = [name for name, ok in clauses.items() if not ok]
    assert not failed, (
        f"failed clauses: {', '.join(failed)}. "
        f"Window peak {peak_window:.6f} vs overall peak {peak_overall:.6f} "
        f"gives ratio {ratio:.3f}, and the bound asks for < 0.05; the input "
        "of this law decays linearly in the remaining time, so the ratio is "
        "a scale-free constant near 0.31 for exponents (3, 2) and no "
        "tolerance of the run itself can move it."
    )


# ---------------------------------------------------------------------------
# criterion 2: collected second-order law


def test_criterion_2_second_order_law_identity():
    c, T_p = 0.15, 0.5
    controller = synthesize(
        SynthesisConfig(n=2, c=c, T_p=T_p, stages=_linear_stages((3.0, 2.0)))
    )

    def reference(x, t):
        # Two-stage law with eta = (3, 2), kept term by term: the time
        # derivative of the first virtual reference contributes
        # -3 x2/gap - 3 z1/gap^2, stage 1 feeds back as -z1, and the second
        # rate law contributes -2 (x2 + 3 z1/gap)/gap.
        gap = T_p - t
        z1 = x[0] - c
        return (
            -3.0 * x[1] / gap
            - 3.0 * z1 / gap ** 2
            - z1
            - 6.0 * z1 / gap ** 2
            - 2.0 * x[1] / gap
        )

    rng = random.Random(20260816)
    worst = 0.0
    for _ in range(100):
        x = (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        t = rng.uniform(0.0, 0.99 * T_p)
        got = eval_control(controller, x, t)
        want = reference(x, t)
        rel = abs(got - want) / max(abs(got), abs(want))
        worst = max(worst, rel)
    ok = worst < 1e-12
    _line(2, ok, f"100 points, worst rel diff {worst:.2e} vs 1e-12")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: closed-form oracle per kernel


def test_criterion_3_closed_form_oracle():
    results = []
    for kind in (RcdfKind.LINEAR, RcdfKind.TAN, RcdfKind.LOGEXP):
        started = time.perf_counter()
        spec = RcdfSpec(kind, 2.0)
        controller = synthesize(SynthesisConfig(n=1, c=0.0, T_p=1.0, stages=(spec,)))
        x0 = closed_form(spec, 0.0, 1.0)
        dt = 0.999 / 200.0
        cfg = SimConfig(
            x0=(x0,), T_p=1.0, t_end=1.1, rtol=1e-9, atol=1e-14, sample_dt=dt,
        )
        traj = simulate(IntegratorChain(1), controller, cfg)
        worst = 0.0
        for k in range(201):
            s = traj.sample_at(k * dt)
            want = closed_form(spec, s.t, 1.0)
            worst = max(worst, abs(s.x[0] - want) / abs(want))
        wall = time.perf_counter() - started
        results.append((kind.value, worst, wall))

    ok = all(worst < 1e-6 and wall < 1.0 for _, worst, wall in results)
    detail = ", ".join(
        f"{name}: rel {worst:.2e} in {wall:.2f} s" for name, worst, wall in results
    )
    _line(3, ok, detail + " (bounds 1e-6, 1 s)")
    for name, worst, wall in results:
        assert worst < 1e-6, f"{name}: worst rel error {worst}"
        assert wall < 1.0, f"{name}: took {wall:.2f} s"


# ---------------------------------------------------------------------------
# criteria 4 and 5 share one set of runs


@pytest.fixture(scope="module")
def clamp_sweeps():
    started = time.perf_counter()
    reports = {}
    for n in (2, 3):
        etas = tuple(float(n + 2 - i) for i in range(1, n + 1))
        controller = synthesize(
            SynthesisConfig(n=n, c=0.0, T_p=1.0, stages=_linear_stages(etas))
        )
        # sample_dt sets the three-point slope stencil of the decay audit;
        # its truncation near the residual window's edge is about
        # (sample_dt / gap)^2 with gap = 0.05, so 2.5e-4 keeps it a factor
        # of four under the 1e-4 residual bound
        base = SimConfig(
            x0=(1.0,) + (0.0,) * (n - 1), T_p=1.0, t_end=1.2,
            rtol=1e-9, atol=1e-12, sample_dt=2.5e-4,
        )
        reports[n] = sweep_initial_conditions(
            IntegratorChain(n), controller, base, [0.1, 1.0, 10.0, 100.0],
            tol_abs=1e-4, tol_rel=1e-6, window_factor=0.9, spread_bound=0.05,
            keep_trajectories=True,
        )
    return reports, time.perf_counter() - started


def test_criterion_4_two_sided_settling_clamp(clamp_sweeps):
    reports, elapsed = clamp_sweeps
    problems = []
    spreads = {}
    for n, report in reports.items():
        spreads[n] = report.spread
        if report.verdict != "pass":
            problems.append(f"n={n}: verdict {report.verdict}")
        for row in report.rows:
            if row.error is not None:
                problems.append(f"n={n} scale {row.scale}: {row.error}")
            elif not row.evidence.two_sided:
                problems.append(f"n={n} scale {row.scale}: not two sided")
        if report.spread is None or report.spread > 0.05:
            problems.append(f"n={n}: spread {report.spread}")
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f} s")

    ok = not problems
    detail = (
        f"spread n=2 {spreads[2]:.3e}, n=3 {spreads[3]:.3e} vs 0.05, "
        f"8 runs in {elapsed:.1f} s"
    )
    _line(4, ok, detail)
    assert ok, "; ".join(problems)


def test_criterion_5_decay_envelope_on_clamp_runs(clamp_sweeps):
    reports, _ = clamp_sweeps
    worst_residual = 0.0
    n_violations = 0
    audited = 0
    for report in reports.values():
        for row in report.rows:
            audit = lyapunov_audit(row.traj, slack_abs=1e-6, slack_rel=1e-3)
            audited += audit.n_audited
            n_violations += len(audit.violations)
            worst_residual = max(worst_residual, audit.max_equality_residual)
    ok = n_violations == 0 and worst_residual <= 1e-4 and audited > 0
    _line(
        5, ok,
        f"{audited} samples audited, {n_violations} envelope violations, "
        f"worst slope residual {worst_residual:.2e} vs 1e-4",
    )
    assert n_violations == 0
    assert worst_residual <= 1e-4
    assert audited > 3000


# ---------------------------------------------------------------------------
# criterion 6: symbolic derivatives against finite differences


def _smooth_expr(rng, depth, n_states):
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.5:
            return sd.StateVar(rng.randint(1, n_states))
        if r < 0.7:
            return sd.TimeVar()
        return sd.Const(round(rng.uniform(-2.0, 2.0), 3))
    pick = rng.random()
    a = _smooth_expr(rng, depth - 1, n_states)
    if pick < 0.18:
        return sd.Add(a, _smooth_expr(rng, depth - 1, n_states))
    if pick < 0.36:
        return sd.Sub(a, _smooth_expr(rng, depth - 1, n_states))
    if pick < 0.54:
        return sd.Mul(a, _smooth_expr(rng, depth - 1, n_states))
    if pick < 0.66:
        b = _smooth_expr(rng, depth - 1, n_states)
        return sd.Div(a, sd.Add(sd.Mul(b, b), sd.Const(1.0)))
    if pick < 0.76:
        return sd.Sin(a)
    if pick < 0.86:
        return sd.Cos(a)
    if pick < 0.96:
        return sd.Arctan(a)
    return sd.Pow(a, float(rng.randint(2, 3)))


def _five_point_slope(fn, v, h):
    # Richardson-extrapolated central difference: O(h^4) truncation keeps
    # the comparison meaningful at the 1e-6 relative level.
    d1 = (fn(v + h) - fn(v - h)) / (2.0 * h)
    d2 = (fn(v + 0.5 * h) - fn(v - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def test_criterion_6_symbolic_derivatives():
    rng = random.Random(61)
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 500 and attempts < 20000:
        attempts += 1
        n_states = rng.randint(1, 3)
        expr = _smooth_expr(rng, rng.randint(1, 4), n_states)
        x = [rng.uniform(-1.5, 1.5) for _ in range(n_states)]
        t = rng.uniform(0.2, 1.8)
        wrt_state = rng.random() < 0.75
        wrt = sd.StateVar(rng.randint(1, n_states)) if wrt_state else sd.TimeVar()
        try:
            exact = sd.evaluate(sd.partial(expr, wrt), x, t)
        except sd.EvaluationError:
            continue
        if not (1e-2 <= abs(exact) <= 1e4):
            continue

        if wrt_state:
            idx = wrt.index - 1

            def section(v, x=x, idx=idx, t=t):
                probe = list(x)
                probe[idx] = v
                return sd.evaluate(expr, probe, t)

            base = x[idx]
        else:
            def section(v, x=x):
                return sd.evaluate(expr, x, v)

            base = t
        try:
            if abs(section(base)) > 1e4:
                continue
            fd = _five_point_slope(section, base, 1e-3 * max(1.0, abs(base)))
        except sd.EvaluationError:
            continue
        worst = max(worst, abs(fd - exact) / abs(exact))
        checked += 1

    lie_runs = 0
    lie_worst = 0.0
    while lie_runs < 50:
        n = rng.randint(2, 4)
        coeffs = tuple(rng.uniform(-1.0, 1.0) for _ in range(4))
        derivs = [coeffs]
        for _ in range(n - 1):
            prev = derivs[-1]
            derivs.append(tuple(k * c for k, c in enumerate(prev))[1:] or (0.0,))

        def state_at(s, derivs=derivs):
            out = []
            for d in derivs:
                acc = 0.0
                for c in reversed(d):
                    acc = acc * s + c
                out.append(acc)
            return out

        g = _smooth_expr(rng, rng.randint(1, 3), n - 1)
        lie = sd.lie_derivative(g, n)
        verified_here = 0
        for _ in range(12):
            s0 = rng.uniform(0.1, 1.9)
            try:
                exact = sd.evaluate(lie, state_at(s0), s0)
                if not (1e-2 <= abs(exact) <= 1e4):
                    continue
                fd = _five_point_slope(
                    lambda s: sd.evaluate(g, state_at(s), s), s0, 1e-3,
                )
            except sd.EvaluationError:
                continue
            lie_worst = max(lie_worst, abs(fd - exact) / abs(exact))
            verified_here += 1
            if verified_here == 3:
                break
        if verified_here:
            lie_runs += 1

    ok = checked >= 500 and worst < 1e-6 and lie_runs >= 50 and lie_worst < 1e-6
    _line(
        6, ok,
        f"{checked} partials worst rel {worst:.2e}, "
        f"{lie_runs} chain runs worst rel {lie_worst:.2e} vs 1e-6",
    )
    assert checked >= 500
    assert worst < 1e-6
    assert lie_runs >= 50
    assert lie_worst < 1e-6


# ---------------------------------------------------------------------------
# criterion 7: averaging inequality for every registered concave function


def test_criterion_7_concavity_gap():
    domains = {
        "sqrt": (0.0, 9.0),
        "log1p": (0.0, 9.0),
        "neg_square": (-9.0, 9.0),
        "neg_x_zeta_linear": (0.0, 9.0),
        "neg_x_zeta_tan": (0.0, 9.0),
        "neg_x_zeta_logexp": (0.0, 2.0),
    }
    assert set(jensen_h_names()) == set(domains), "registry drifted from this test"

    rng = random.Random(7)
    min_gap = math.inf
    for name, (lo, hi) in sorted(domains.items()):
        for _ in range(1000):
            xs = [rng.uniform(lo, hi) for _ in range(rng.randint(2, 8))]
            result = jensen_check(name, xs)
            min_gap = min(min_gap, result.gap)
    ok = min_gap >= -1e-12
    _line(7, ok, f"6000 equal-weight draws, min gap {min_gap:.2e} vs -1e-12")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: the two integration clocks agree


def test_criterion_8_clock_equivalence():
    controller = synthesize(
        SynthesisConfig(n=2, c=0.15, T_p=0.5, stages=_linear_stages((3.0, 2.0)))
    )
    rtol = 1e-9
    cfg = SimConfig(x0=(0.09, 0.1), T_p=0.5, t_end=0.6, rtol=rtol, atol=1e-12,
                    mode="direct")
    plant = IntegratorChain(2)
    direct = simulate(plant, controller, cfg)
    warped = simulate(plant, controller, replace(cfg, mode="tau"))

    by_time = {s.t: s for s in warped.samples}
    shared = [s for s in direct.samples if s.t in by_time]
    worst = 0.0
    for s in shared:
        other = by_time[s.t]
        worst = max(worst, max(abs(a - b) for a, b in zip(s.x, other.x)))
    ok = len(shared) >= 200 and worst <= 10.0 * rtol
    _line(8, ok, f"{len(shared)} shared times, max state gap {worst:.2e} vs 1e-8")
    assert len(shared) >= 200
    assert worst <= 10.0 * rtol


# ---------------------------------------------------------------------------
# criterion 9: deterministic file output


def test_criterion_9_determinism(tmp_path):
    data = {
        "run_id": "det",
        "plant": {"type": "chain", "n": 2},
        "synthesis": {
            "c": 0.15,
            "T_p": 0.5,
            "stages": [
                {"kind": "linear", "eta": 3.0},
                {"kind": "linear", "eta": 2.0},
            ],
        },
        "sim": {"x0": [0.09, 0.1]},
    }
    # config file name must differ from the run_id derived outputs, or the
    # report written by the first run would replace the config itself
    cfg_path = tmp_path / "det.config.json"
    cfg_path.write_text(json.dumps(data))
    argv = ["simulate", "--config", str(cfg_path), "--no-timestamp"]

    assert main(argv) == 0
    first = (tmp_path / "det.csv").read_bytes()
    assert main(argv) == 0
    second = (tmp_path / "det.csv").read_bytes()

    ok = first == second and len(first) > 10000
    _line(9, ok, f"two runs, {len(first)} byte CSV identical: {first == second}")
    assert first == second
    assert len(first) > 10000
