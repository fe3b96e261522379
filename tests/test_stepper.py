"""The generated Dormand-Prince step loop against a list-based oracle.

`reference_path` below is the step loop as it reads over lists of floats,
kept here only as a reference: each simulation runs once on the generated
per-dimension loop and law program, and once with the reference loop and
`reference_chain_rhs`'s fields around `compiled_u` patched in, and the
samples, the meta (integrator counters included) and, on the failure paths,
the error type, message, time and partial trajectory must agree exactly.
The oracle spells out its own weights and evaluates the field through its
own helper, so it reads nothing of the module's tableau.  The module's table
(and the oracle's copy) is checked against the pair's order conditions, and
each entry scaled by 1.01 must break one of them and fail the comparison.
"""

import collections
import functools
import math
import random
import re
import sys
import threading

import pytest

from psis import simulation, verification
from psis.errors import DivergenceError, IntegrationError, StiffnessError
from psis.rcdf import RcdfKind, RcdfSpec
from psis.simulation import (
    IntegratorChain,
    Pendulum,
    SimConfig,
    simulate,
    simulate_pendulum_raw,
    torque_map,
)
from psis.synthesis import SynthesisConfig, eval_control, synthesize

S = simulation

# The Dormand-Prince 5(4) weights and Hairer's DOPRI5 dense-output weights
# (contd5), spelt out here rather than read from the module, so a wrong
# weight there fails the comparison
A21 = 1.0 / 5.0
A31, A32 = 3.0 / 40.0, 9.0 / 40.0
A41, A42, A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
A51, A52, A53, A54 = (
    19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0)
A61, A62, A63, A64, A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0)
B1, B3, B4, B5, B6 = (
    35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
E1, E3, E4, E5, E6, E7 = (
    71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
    22.0 / 525.0, -1.0 / 40.0)
D1, D3, D4, D5, D6, D7 = (
    -12715105075.0 / 11282082432.0,
    87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0,
    701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0,
    69997945.0 / 29380423.0,
)


class TrialFailure(Exception):
    """The vector field failed, or returned a value that is not finite."""


def call_rhs(f, t, y, stats):
    """f(t, y), counted in stats; a TrialFailure names what went wrong."""
    stats["rhs_evals"] += 1
    try:
        out = f(t, y)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise TrialFailure(str(exc)) from None
    if not all(math.isfinite(v) for v in out):
        raise TrialFailure("non-finite derivative")
    return out


def reference_path(f, y0, t0, stops, labels, *, rtol, atol, max_step, stats,
                   on_stop, on_step=None):
    """The Dormand-Prince 5(4) loop over lists, with the same contract as
    simulation._adaptive_path (and its horizon-relative collapse test):
    steps land only on the last stop, the stops before it are read off the
    dense output of the step that covers them, a step that ends on a stop
    records it once, and on_stop takes the stop's label and state."""
    n = len(y0)
    y = [float(v) for v in y0]
    t = t0
    try:
        k1 = call_rhs(f, t, y, stats)
    except TrialFailure as exc:
        raise DivergenceError(f"vector field invalid at start: {exc}", t0) from None

    target = stops[-1]
    last = len(stops) - 1
    h = min(max_step, (target - t0) / 10.0)
    err_prev = 1.0
    err = None
    rejected_streak = 0
    accepted_at_reject = stats["steps_accepted"]
    just_rejected = False
    stop_idx = 0

    while True:
        if stats["steps_accepted"] + stats["steps_rejected"] > S._STEP_BUDGET:
            raise StiffnessError(
                f"step budget of {S._STEP_BUDGET} steps exhausted "
                f"(h={h:.3e}, last error estimate {S._estimate_text(err)})", t
            )
        remaining = target - t
        hitting = False
        if h >= remaining * (1.0 - 1e-10):
            h = remaining
            hitting = True
        if h <= 1e-14 * max(abs(t), abs(stops[-1])) and not hitting:
            raise StiffnessError(
                f"step size collapsed to {h:.3e} after {rejected_streak} rejected "
                f"steps in a row and {stats['steps_accepted'] - accepted_at_reject} "
                f"accepted since the last rejection (last error estimate "
                f"{S._estimate_text(err)})", t
            )

        failed = False
        try:
            k2 = call_rhs(
                f, t + A21 * h, [y[j] + h * A21 * k1[j] for j in range(n)], stats)
            k3 = call_rhs(
                f, t + 0.3 * h,
                [y[j] + h * (A31 * k1[j] + A32 * k2[j]) for j in range(n)], stats)
            k4 = call_rhs(
                f, t + 0.8 * h,
                [y[j] + h * (A41 * k1[j] + A42 * k2[j] + A43 * k3[j])
                 for j in range(n)], stats)
            k5 = call_rhs(
                f, t + (8.0 / 9.0) * h,
                [y[j] + h * (A51 * k1[j] + A52 * k2[j] + A53 * k3[j] + A54 * k4[j])
                 for j in range(n)], stats)
            k6 = call_rhs(
                f, t + h,
                [y[j] + h * (A61 * k1[j] + A62 * k2[j] + A63 * k3[j] + A64 * k4[j]
                             + A65 * k5[j]) for j in range(n)],
                stats)
            y_new = [
                y[j] + h * (B1 * k1[j] + B3 * k3[j] + B4 * k4[j] + B5 * k5[j]
                            + B6 * k6[j])
                for j in range(n)
            ]
            if not all(math.isfinite(v) for v in y_new):
                raise TrialFailure("non-finite state")
            k7 = call_rhs(f, t + h, y_new, stats)
        except TrialFailure:
            failed = True

        if not failed:
            try:
                err = 0.0
                for j in range(n):
                    e_j = h * (E1 * k1[j] + E3 * k3[j] + E4 * k4[j] + E5 * k5[j]
                               + E6 * k6[j] + E7 * k7[j])
                    sc = atol + rtol * max(abs(y[j]), abs(y_new[j]))
                    err += (e_j / sc) ** 2
                err = math.sqrt(err / n)
            except OverflowError:
                err = math.inf
        else:
            err = math.inf

        if err <= 1.0:
            stats["steps_accepted"] += 1
            rejected_streak = 0
            t_new = target if hitting else t + h
            if stop_idx < last and stops[stop_idx] < t_new:
                q2 = [y_new[j] - y[j] for j in range(n)]
                q3 = [h * k1[j] - q2[j] for j in range(n)]
                q4 = [q2[j] - h * k7[j] - q3[j] for j in range(n)]
                q5 = [h * (D1 * k1[j] + D3 * k3[j] + D4 * k4[j] + D5 * k5[j]
                           + D6 * k6[j] + D7 * k7[j]) for j in range(n)]
                while stop_idx < last and stops[stop_idx] < t_new:
                    s = stops[stop_idx]
                    th = (s - t) / h
                    th1 = 1.0 - th
                    on_stop(labels[stop_idx], [
                        y[j] + th * (q2[j] + th1 * (q3[j] + th * (q4[j] + th1 * q5[j])))
                        for j in range(n)
                    ])
                    stop_idx += 1
            t = t_new
            y = y_new
            k1 = k7
            if hitting:
                on_stop(labels[last], y)
                return y
            if stops[stop_idx] == t:
                on_stop(labels[stop_idx], y)
                stop_idx += 1
            elif on_step is not None:
                on_step(t, y)
            if err == 0.0:
                factor = S._MAX_FACTOR
            else:
                factor = S._SAFETY * err ** (-S._ALPHA) * err_prev ** S._BETA
            cap = 1.0 if just_rejected else S._MAX_FACTOR
            h = h * min(cap, max(S._MIN_FACTOR, factor))
            h = min(h, max_step)
            just_rejected = False
            err_prev = max(err, 1e-4)
        else:
            stats["steps_rejected"] += 1
            rejected_streak += 1
            accepted_at_reject = stats["steps_accepted"]
            just_rejected = True
            if rejected_streak > S._MAX_CONSECUTIVE_REJECTS:
                raise StiffnessError(
                    f"{rejected_streak} consecutive rejected steps "
                    f"(h={h:.3e}, last error estimate {S._estimate_text(err)})", t
                )
            if math.isinf(err):
                h *= 0.25
            else:
                h *= min(1.0, max(S._MIN_FACTOR, S._SAFETY * err ** (-0.2)))


def reference_chain_rhs(n, u_fn, T_p=None):
    """The chain's vector field built by slicing, on either clock."""
    if T_p is None:
        def f(t, w):
            dw = list(w[1:])
            dw.append(u_fn(w, t))
            return dw
        return f

    def f_tau(tau, w):
        gap = T_p * math.exp(-tau)
        t = T_p - gap
        dw = list(w[1:])
        dw.append(u_fn(w, t))
        return [gap * v for v in dw]
    return f_tau


def zero_input(w, t):
    return 0.0


_generated_program = S._program


def reference_program(controller, open_loop):
    """The law's generated program, with its vector fields replaced by the
    reference fields around compiled_u (around zero_input on an open loop)."""
    n, T_p = controller.config.n, controller.config.T_p
    u_fn = zero_input if open_loop else controller.compiled_u
    return _generated_program(controller, open_loop)._replace(
        field=reference_chain_rhs(n, u_fn),
        field_tau=reference_chain_rhs(n, u_fn, T_p),
        free_field=reference_chain_rhs(n, zero_input),
    )


def outcome(run):
    """Everything a run leaves behind, in a form == compares bit for bit
    (repr tells -0.0 from 0.0 and keeps nan equal to itself)."""
    try:
        traj = run()
    except IntegrationError as exc:
        partial = exc.partial
        return (type(exc).__name__, str(exc), repr(exc.t),
                repr(partial.samples), partial.meta)
    return ("ok", repr(traj.samples), traj.meta)


def assert_same_as_reference(run, monkeypatch):
    generated = outcome(run)
    with monkeypatch.context() as m:
        m.setattr(S, "_adaptive_path", reference_path)
        m.setattr(S, "_program", reference_program)
        reference = outcome(run)
    assert generated == reference
    return generated


@functools.lru_cache(maxsize=None)
def make_controller(n, etas, kind=RcdfKind.LINEAR, c=0.0, T_p=1.0):
    stages = tuple(RcdfSpec(kind=kind, eta=e) for e in etas)
    return synthesize(SynthesisConfig(n=n, c=c, T_p=T_p, stages=stages))


@pytest.mark.parametrize("mode", ["direct", "tau"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chains_match_the_reference(n, mode, monkeypatch):
    ctrl = make_controller(n, tuple(float(n + 2 - i) for i in range(1, n + 1)))
    x0 = (1.0, 0.5) + (0.0,) * (n - 2) if n > 1 else (1.0,)
    cfg = SimConfig(x0=x0, T_p=1.0, t_end=1.2, mode=mode)
    result = assert_same_as_reference(
        lambda: simulate(IntegratorChain(n), ctrl, cfg), monkeypatch)
    assert result[0] == "ok"
    assert result[2]["steps_accepted"] > 0


def test_raw_pendulum_matches_the_reference(monkeypatch):
    plant = Pendulum()
    ctrl = make_controller(2, (3.0, 2.0), c=0.15, T_p=0.5)
    cfg = SimConfig(x0=(0.09, 0.1), T_p=0.5, t_end=0.6,
                    rtol=1e-6, atol=1e-9, eps_stop=5e-7)
    result = assert_same_as_reference(
        lambda: simulate_pendulum_raw(
            plant, cfg, lambda x, t: torque_map(plant, x, eval_control(ctrl, x, t))),
        monkeypatch)
    assert result[0] == "ok"


@pytest.mark.parametrize("mode", ["direct", "tau"])
def test_stiff_start_matches_the_reference(mode, monkeypatch):
    ctrl = make_controller(4, (5.0, 4.0, 3.0, 2.0), RcdfKind.TAN)
    cfg = SimConfig(x0=(10.0, 0.0, 0.0, 0.0), T_p=1.0, t_end=1.2,
                    sample_dt=2.5e-4, mode=mode)
    result = assert_same_as_reference(
        lambda: simulate(IntegratorChain(4), ctrl, cfg), monkeypatch)
    assert result[0] == "StiffnessError"
    assert result[1].startswith("step size collapsed to ")
    assert result[4]["steps_rejected"] > 0


def test_a_collapse_names_the_steps_accepted_since_the_last_rejection():
    # h shrinks through accepted steps toward the pole of y' at t = 0.5, so
    # the steps in a row that led to the collapse were accepted ones
    def run(path):
        stats = {"steps_accepted": 0, "steps_rejected": 0, "rhs_evals": 0}
        with pytest.raises(StiffnessError) as info:
            path(lambda t, y: [1.0 / (0.5 - t) ** 2], [0.0], 0.0, [1.0], [1.0],
                 rtol=1e-9, atol=1e-12, max_step=1e-3, stats=stats,
                 on_stop=lambda label, y: None)
        return str(info.value), repr(info.value.t), stats

    generated = run(S._adaptive_path)
    assert generated == run(reference_path)
    assert generated == (
        "step size collapsed to 9.886e-15 after 0 rejected steps in a row and 62 "
        "accepted since the last rejection (last error estimate 5.602e-01)",
        "0.49999999999116124",
        {"steps_accepted": 1334, "steps_rejected": 31, "rhs_evals": 8191},
    )


def test_overflowing_run_matches_the_reference(monkeypatch):
    ctrl = make_controller(4, (4.5, 3.5, 2.5, 1.5), RcdfKind.TAN)
    cfg = SimConfig(x0=(1.0, 0.0, 0.0, 0.0), T_p=1.0, t_end=1.2)
    result = assert_same_as_reference(
        lambda: simulate(IntegratorChain(4), ctrl, cfg), monkeypatch)
    assert result[0] == "ok"
    assert result[2]["steps_rejected"] > 0


def test_divergence_matches_the_reference(monkeypatch):
    ctrl = make_controller(2, (3.0, 2.0), T_p=1e-200)
    cfg = SimConfig(x0=(1.0, 0.0), T_p=1e-200, t_end=1.2e-200)
    result = assert_same_as_reference(
        lambda: simulate(IntegratorChain(2), ctrl, cfg), monkeypatch)
    assert result[0] == "DivergenceError"


def test_rejected_start_matches_the_reference(monkeypatch):
    # a vector field that fails at the first point raises before any step
    def rhs(t, y):
        return [y[1], 1.0 / (t - 0.0)]

    def run():
        stats = {"steps_accepted": 0, "steps_rejected": 0, "rhs_evals": 0}
        try:
            S._adaptive_path(rhs, [1.0, 0.0], 0.0, [0.5, 1.0], [0.5, 1.0],
                             rtol=1e-9, atol=1e-12, max_step=0.1, stats=stats,
                             on_stop=lambda t, y: None)
        except DivergenceError as exc:
            return str(exc), exc.t, stats
        raise AssertionError("expected a DivergenceError")

    generated = run()
    with monkeypatch.context() as m:
        m.setattr(S, "_adaptive_path", reference_path)
        assert run() == generated
    assert generated[0] == "vector field invalid at start: float division by zero"
    assert generated[2]["rhs_evals"] == 1


def test_step_end_on_a_stop_matches_the_reference(monkeypatch):
    # a constant field: every step has error 0 and grows to max_step, so
    # step ends fall on the stops 0.5, 1.0, ... bit for bit, while 0.3 lies
    # inside the second step; each stop's label is its (index, time)
    stops = [0.3, 0.5, 1.0, 1.5, 2.0, 10.0]

    def run():
        calls = []
        stats = {"steps_accepted": 0, "steps_rejected": 0, "rhs_evals": 0}
        y = S._adaptive_path(
            lambda t, y: [1.0, -2.0], [0.0, 1.0], 0.0, stops, list(enumerate(stops)),
            rtol=1e-9, atol=1e-12, max_step=0.25, stats=stats,
            on_stop=lambda label, y: calls.append(("stop", *label, tuple(y))),
            on_step=lambda t, y: calls.append(("step", t, tuple(y))))
        return calls, stats, y

    generated = run()
    with monkeypatch.context() as m:
        m.setattr(S, "_adaptive_path", reference_path)
        assert run() == generated
    calls, stats, y = generated
    stopped = [c for c in calls if c[0] == "stop"]
    assert [c[1] for c in stopped] == list(range(len(stops)))
    assert [c[2] for c in stopped] == stops
    # each stop once, and no step record at a stop's time
    times = [c[-2] for c in calls]
    assert times == sorted(set(times))
    assert stopped[0][3] == pytest.approx((0.3, 0.4), abs=1e-14)
    assert stopped[2][3] == pytest.approx((1.0, -1.0), abs=1e-14)
    assert stats["steps_accepted"] == 40
    assert y == pytest.approx([10.0, -19.0], abs=1e-13)


@pytest.mark.parametrize("max_step", [0.05, 1.0])
def test_dense_stops_are_fourth_order_accurate(max_step):
    # y' = y from y(0) = 1: each stop, filled or landed on, stays within a
    # few tolerances of exp(t), whether steps are long or short
    stops = [k / 64.0 for k in range(1, 129)]
    got = {}
    stats = {"steps_accepted": 0, "steps_rejected": 0, "rhs_evals": 0}
    S._adaptive_path(lambda t, y: [y[0]], [1.0], 0.0, stops, stops, rtol=1e-9,
                     atol=1e-12, max_step=max_step, stats=stats,
                     on_stop=lambda t, y: got.setdefault(t, y[0]))
    assert list(got) == stops
    assert max(abs(v / math.exp(t) - 1.0) for t, v in got.items()) < 1e-8
    assert stats["steps_accepted"] < len(stops)


@pytest.mark.parametrize("kinds", [
    ("linear",) * 3, ("tan",) * 3, ("logexp",) * 3, ("tan", "linear", "logexp"),
], ids=["linear", "tan", "logexp", "mixed"])
def test_program_fields_match_the_reference_fields(kinds):
    # the law program's u and vector fields against reference_chain_rhs
    # around compiled_u, by repr, so a -0.0 for a 0.0 fails
    T_p = 0.5
    stages = tuple(RcdfSpec(kind=RcdfKind(k), eta=e) for k, e in zip(kinds, (4.0, 3.0, 2.0)))
    ctrl = synthesize(SynthesisConfig(n=3, c=0.0, T_p=T_p, stages=stages))
    closed, opened = S._program(ctrl, False), S._program(ctrl, True)
    assert opened.u is None
    pairs = []
    for program, u_fn in ((closed, ctrl.compiled_u), (opened, zero_input)):
        pairs += [
            (program.field, reference_chain_rhs(3, u_fn), T_p),
            (program.field_tau, reference_chain_rhs(3, u_fn, T_p), 30.0),
            (program.free_field, reference_chain_rhs(3, zero_input), T_p),
        ]
    rng = random.Random(5)
    draws = [[rng.uniform(-2.0, 2.0) for _ in range(3)] for _ in range(100)]
    signed_zeros = [[a, b, c] for a in (0.0, -0.0) for b in (0.0, -0.0) for c in (0.0, -0.0)]
    for x in draws + signed_zeros:
        for generated, reference, clock_end in pairs:
            s = 0.0 if x in signed_zeros else rng.uniform(0.0, clock_end)
            assert repr(generated(s, x)) == repr(reference(s, x))
        t = rng.uniform(0.0, T_p)
        assert repr(closed.u(x, t)) == repr(ctrl.compiled_u(x, t))
    # one emission is enough: every z node is a node of u, so the program's
    # u, and the z's and u of its recorder, perform exactly the operations
    # compile_expr's u does, and their only extra locals hold z roots that
    # compile_expr writes inline
    u_body = closed.source.split("\n\ndef field(")[0].splitlines()[1:]
    compiled_body = ctrl.compiled_u.__psis_source__.splitlines()[1:]
    assert operations(u_body) == operations(compiled_body)
    record = closed.source.split("def record(t, x):\n")[1].split("row_x = ")[0]
    law_lines = [line for line in record.splitlines() if re.match(r" *(v|z|row_u)", line)]
    assert operations(law_lines) == operations(compiled_body)
    z_locals = re.findall(r"^ *z\d+ = v\d+$", closed.source, re.MULTILINE)
    extra = local_count(u_body) - local_count(compiled_body)
    assert 0 <= extra <= len(z_locals)


def operations(lines):
    """How many times each operator and function appears in lines of
    generated code."""
    return collections.Counter(re.findall(r" (\*\*|[-+*/]) |\b([a-z]+)\(", "\n".join(lines)))


def local_count(lines):
    return sum(1 for line in lines if re.match(r" *v\d+ = ", line))


def test_one_loop_per_dimension():
    assert S._stepper(3) is S._stepper(3)
    assert S._stepper(2) is not S._stepper(3)


def test_concurrent_first_use_is_harmless():
    # threads that race to build a dimension's step loop, and then the
    # audit program of its kernel, all get working ones
    S._stepper.cache_clear()
    verification._audit_program.cache_clear()
    ctrl = make_controller(3, (4.0, 3.0, 2.0))
    cfg = SimConfig(x0=(1.0, 0.0, 0.0), T_p=1.0, t_end=1.2)
    barrier = threading.Barrier(4, timeout=60)
    results = [None] * 4

    def run(wait=lambda: None):
        wait()
        traj = simulate(IntegratorChain(3), ctrl, cfg)
        wait()
        audit = verification.lyapunov_audit(traj)
        return repr(traj.samples), traj.meta, repr(audit), audit.passes

    def work(i):
        results[i] = run(barrier.wait)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often inside the builds
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    serial = run()
    assert serial[-1]
    assert all(r == serial for r in results)


def oracle_tableau():
    """The weights spelt out above, in the shape of simulation._DP5."""
    return S._Tableau(
        stages=((A21, (A21,)), (0.3, (A31, A32)), (0.8, (A41, A42, A43)),
                (8.0 / 9.0, (A51, A52, A53, A54)), (1.0, (A61, A62, A63, A64, A65))),
        b=(B1, 0.0, B3, B4, B5, B6),
        e=(E1, 0.0, E3, E4, E5, E6, E7),
        d=(D1, 0.0, D3, D4, D5, D6, D7),
    )


def order_residuals(tableau):
    """The residual of each condition a 5(4) pair with a dense output meets,
    with c1 = 0 and c7 = 1: each row's weights sum to its node, the 5th
    order weights integrate c^k exactly for k <= 4, and the error and the
    dense-output weights annihilate c^k for k <= 3 and k <= 2."""
    c = [0.0, *(ci for ci, _ in tableau.stages), 1.0]
    residuals = {f"row {i}": math.fsum(a) - ci
                 for i, (ci, a) in enumerate(tableau.stages, start=2)}
    for name, weights, target in (
        ("b", tableau.b, [1.0 / (k + 1) for k in range(5)]),
        ("e", tableau.e, [0.0] * 4),
        ("d", tableau.d, [0.0] * 3),
    ):
        for k, value in enumerate(target):
            residuals[f"{name} c^{k}"] = math.fsum(
                w * c[i] ** k for i, w in enumerate(weights)) - value
    return residuals


def tableau_entries(tableau):
    """The name of every nonzero entry: c_i and a_ij for stages 2..6, then
    b_i, e_i and d_i."""
    names = []
    for i, (_, a) in enumerate(tableau.stages, start=2):
        names += [f"c{i}"] + [f"a{i}{j}" for j, w in enumerate(a, 1) if w]
    for row in "bed":
        names += [f"{row}{i}" for i, w in enumerate(getattr(tableau, row), 1) if w]
    return names


def perturbed(tableau, name, factor):
    """tableau with the entry tableau_entries calls name scaled by factor."""
    row, i = name[0], int(name[1])
    if row in "bed":
        weights = list(getattr(tableau, row))
        weights[i - 1] *= factor
        return tableau._replace(**{row: tuple(weights)})
    stages = list(tableau.stages)
    c, a = stages[i - 2]
    if row == "c":
        c *= factor
    else:
        a = list(a)
        a[int(name[2]) - 1] *= factor
    stages[i - 2] = (c, tuple(a))
    return tableau._replace(stages=tuple(stages))


ORDER_TOL = 1e-14


@pytest.mark.parametrize("tableau", [S._DP5, oracle_tableau()], ids=["module", "oracle"])
def test_the_tableau_meets_its_order_conditions(tableau):
    residuals = order_residuals(tableau)
    assert len(residuals) == 5 + 5 + 4 + 3
    assert max(map(abs, residuals.values())) <= ORDER_TOL, residuals


@pytest.mark.parametrize("name", tableau_entries(S._DP5))
def test_a_mistyped_entry_breaks_an_order_condition(name):
    residuals = order_residuals(perturbed(S._DP5, name, 1.01))
    assert max(map(abs, residuals.values())) > ORDER_TOL


@pytest.mark.parametrize("name", tableau_entries(S._DP5))
def test_a_mistyped_entry_fails_the_oracle_comparison(name, monkeypatch):
    # a driven oscillator, so the nodes matter, read at stops inside the
    # steps, so the dense-output weights matter too; a wrong error weight
    # leaves an O(h) estimate, so the tolerances are loose to keep its
    # steps few
    stops = [k / 8.0 for k in range(1, 17)]

    def run(path):
        got = []
        stats = {"steps_accepted": 0, "steps_rejected": 0, "rhs_evals": 0}
        y = path(lambda t, y: [y[1], t - y[0]], [1.0, 0.0], 0.0, stops, stops,
                 rtol=1e-6, atol=1e-9, max_step=0.5, stats=stats,
                 on_stop=lambda t, y: got.append((t, *y)))
        return got, stats, y

    def stepper_path(stepper):
        def path(f, y0, t0, stops, labels, *, rtol, atol, max_step, stats, on_stop):
            return stepper(f, y0, t0, stops, labels, rtol, atol, max_step, stats,
                           on_stop, None)
        return path

    reference = run(reference_path)
    assert run(stepper_path(S._stepper.__wrapped__(2))) == reference
    monkeypatch.setattr(S, "_DP5", perturbed(S._DP5, name, 1.01))
    assert run(stepper_path(S._stepper.__wrapped__(2))) != reference
