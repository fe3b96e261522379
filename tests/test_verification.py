"""Certification helpers: settling evidence, decay envelope, averaging
inequality, input vanishing, and the initial-condition sweep."""

import dataclasses
import inspect
import math
import random
import threading

import pytest

import psis.verification
from psis.errors import AuditError, ConfigurationError, DomainError
from psis.experiment import VerifyParams
from psis.rcdf import RcdfKind, RcdfSpec, zeta
from psis.simulation import (
    IntegratorChain,
    Pendulum,
    Sample,
    SimConfig,
    Trajectory,
    simulate,
)
from psis.synthesis import SynthesisConfig, synthesize
from psis.verification import (
    ROW_CLAUSES,
    VERIFY_CLAUSES,
    control_vanishing_check,
    jensen_check,
    jensen_h_names,
    judge,
    lyapunov_audit,
    lyapunov_bounds,
    run_tolerance,
    settling_instant,
    sweep_initial_conditions,
    sweep_rows,
    thread_count,
    unresolvable_tolerance,
)

T_STD = 1.0 - 1e-9


def make_controller(n=2, c=0.0, T_p=1.0, etas=(3.0, 2.0), kind=RcdfKind.LINEAR):
    stages = tuple(RcdfSpec(kind=kind, eta=e) for e in etas)
    return synthesize(SynthesisConfig(n=n, c=c, T_p=T_p, stages=stages))


def hand_trajectory(points, T_p=1.0, t_standoff=T_STD):
    """Trajectory from (t, norm) pairs, z one-dimensional, V = norm^2."""
    samples = [
        Sample(t=t, x=(norm,), u=0.0, z=(norm,), V=norm * norm, dV=0.0)
        for t, norm in points
    ]
    return Trajectory(samples=samples, meta={"T_p": T_p, "t_standoff": t_standoff})


def counted_runs(monkeypatch):
    """The list that each call of simulate by psis.verification appends to."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(psis.verification, "simulate", counting)
    return calls


def sweep_calls(cfg, scales, **keywords):
    """A sweep of linear n=2 (3, 2) from cfg over scales, called once through
    sweep_initial_conditions with the audit keywords and once through
    sweep_rows with them in a VerifyParams.  sweep_rows runs nothing until
    its rows are asked for, so a refusal must come from the call itself."""
    return (
        lambda: sweep_initial_conditions(
            IntegratorChain(2), make_controller(), cfg, scales, **keywords),
        lambda: sweep_rows(
            IntegratorChain(2), make_controller(), cfg, scales, VerifyParams(**keywords)),
    )


def pendulum_run(tol_scale=1.0):
    plant = Pendulum()
    ctrl = make_controller(c=0.15, T_p=0.5)
    cfg = SimConfig(x0=(0.09, 0.1), T_p=0.5, t_end=0.6)
    return simulate(plant, ctrl, cfg)


class TestSettlingInstant:
    def test_two_sided_on_the_pendulum_run(self):
        traj = pendulum_run()
        ev = settling_instant(traj, tol=1e-3)
        assert ev.two_sided
        assert not ev.degenerate
        assert 0.45 <= ev.t_settle <= 0.5
        assert ev.pre_window_floor > 1e-3
        assert ev.norm_at_standoff <= 1e-3

    def test_first_order_quadratic_decay(self):
        # z(t) = (1 - t)^2 crosses 1e-4 at exactly t = 0.99
        ctrl = make_controller(n=1, etas=(2.0,))
        cfg = SimConfig(x0=(1.0,), T_p=1.0, t_end=1.1)
        traj = simulate(IntegratorChain(1), ctrl, cfg)
        ev = settling_instant(traj, tol=1e-4)
        assert ev.t_settle == pytest.approx(0.99, abs=cfg.sample_dt + 1e-12)
        assert ev.two_sided

    def test_equilibrium_start_is_degenerate(self):
        ctrl = make_controller(c=0.15, T_p=0.5)
        cfg = SimConfig(x0=(0.15, 0.0), T_p=0.5, t_end=0.6)
        traj = simulate(IntegratorChain(2), ctrl, cfg)
        ev = settling_instant(traj, tol=1e-4)
        assert ev.degenerate
        assert not ev.two_sided
        assert ev.t_settle == 0.0

    def test_settle_index_is_earliest_persistent_entry(self):
        traj = hand_trajectory(
            [(0.0, 2.0), (0.3, 1.0), (0.6, 0.5), (0.95, 5e-5), (T_STD, 1e-6)]
        )
        ev = settling_instant(traj, tol=1e-4)
        assert ev.t_settle == 0.95
        assert ev.pre_window_floor == 0.5
        assert ev.two_sided

    def test_transient_dip_spoils_the_lower_side(self):
        # the norm touches the ball early, leaves, and settles late: the
        # two-sided verdict must reject the run even though it settles
        traj = hand_trajectory(
            [(0.0, 2.0), (0.4, 5e-5), (0.7, 1.0), (0.95, 5e-5), (T_STD, 1e-6)]
        )
        ev = settling_instant(traj, tol=1e-4)
        assert ev.t_settle == 0.95
        assert ev.pre_window_floor == 5e-5
        assert not ev.two_sided

    def test_unresolved_sample_blocks_certification(self):
        # a NaN norm in the pre-window must not be skipped by the floor
        for nan_at in (0.0, 0.3):
            points = [(0.0, 2.0), (0.3, 1.0), (0.6, 0.5), (0.95, 5e-5), (T_STD, 1e-6)]
            points = [(t, math.nan if t == nan_at else v) for t, v in points]
            ev = settling_instant(hand_trajectory(points), tol=1e-4)
            assert math.isnan(ev.pre_window_floor)
            assert ev.t_settle == 0.95
            assert not ev.two_sided

    def test_never_settles(self):
        traj = hand_trajectory([(0.0, 2.0), (0.5, 1.0), (T_STD, 0.5)])
        ev = settling_instant(traj, tol=1e-4)
        assert ev.t_settle is None
        assert not ev.two_sided

    def test_early_settle_fails_the_window_side(self):
        traj = hand_trajectory([(0.0, 2.0), (0.5, 5e-5), (0.95, 2e-5), (T_STD, 1e-6)])
        ev = settling_instant(traj, tol=1e-4)
        assert ev.t_settle == 0.5
        assert not ev.two_sided

    def test_missing_standoff_sample_rejected(self):
        traj = hand_trajectory([(0.0, 2.0), (0.5, 1.0)], t_standoff=0.5)
        traj.meta["t_standoff"] = T_STD
        with pytest.raises(AuditError, match="standoff"):
            settling_instant(traj, tol=1e-4)

    def test_parameter_validation(self):
        traj = hand_trajectory([(0.0, 2.0), (T_STD, 1e-6)])
        with pytest.raises(ConfigurationError):
            settling_instant(traj, tol=0.0)
        with pytest.raises(ConfigurationError):
            settling_instant(traj, tol=1e-4, window_factor=1.0)


class TestLyapunovBounds:
    def test_first_order_collapses_the_sandwich(self):
        dV, lower, upper = lyapunov_bounds((0.5,), (2.0,), RcdfKind.LINEAR, 1.0, 0.5)
        assert dV == pytest.approx(-2.0, rel=1e-15)
        assert lower == pytest.approx(-2.0, rel=1e-15)
        assert upper == pytest.approx(-2.0, rel=1e-15)

    def test_second_order_hand_values(self):
        dV, lower, upper = lyapunov_bounds(
            (0.3, -0.4), (3.0, 2.0), RcdfKind.LINEAR, 1.0, 0.75
        )
        assert dV == pytest.approx(-4.72, rel=1e-14)
        assert lower == pytest.approx(-10.0, rel=1e-14)
        # 2 n min(eta) a zeta(a) / gap with a = 0.7 / 2
        assert upper == pytest.approx(-3.92, rel=1e-14)
        assert lower <= dV <= upper

    def test_zero_error_gives_zero_rates(self):
        dV, lower, upper = lyapunov_bounds((0.0, 0.0), (3.0, 2.0), RcdfKind.LINEAR, 1.0, 0.5)
        assert dV == 0.0
        assert lower == 0.0
        assert upper == 0.0

    def test_sandwich_on_random_states(self):
        rng = random.Random(2024)
        for kind in (RcdfKind.TAN, RcdfKind.LINEAR):
            for _ in range(300):
                z = tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
                etas = tuple(rng.uniform(1.5, 5.0) for _ in range(3))
                t = rng.uniform(0.0, 0.9)
                dV, lower, upper = lyapunov_bounds(z, etas, kind, 1.0, t)
                assert lower <= dV + 1e-12
                assert dV <= upper + 1e-12

    def test_sandwich_for_logexp_inside_its_domain(self):
        rng = random.Random(9)
        for _ in range(300):
            # |z|_1 <= 2 keeps the mean within the concavity range
            z = tuple(rng.uniform(-0.6, 0.6) for _ in range(3))
            etas = tuple(rng.uniform(1.5, 4.0) for _ in range(3))
            t = rng.uniform(0.0, 0.9)
            dV, lower, upper = lyapunov_bounds(z, etas, RcdfKind.LOGEXP, 1.0, t)
            assert lower <= dV + 1e-12
            assert dV <= upper + 1e-12

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            lyapunov_bounds((0.5,), (2.0,), RcdfKind.LINEAR, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            lyapunov_bounds((0.5, 0.2), (2.0,), RcdfKind.LINEAR, 1.0, 0.5)


class TestLyapunovAudit:
    def test_clean_pendulum_run(self):
        traj = pendulum_run()
        audit = lyapunov_audit(traj)
        assert audit.passes
        assert audit.violations == ()
        assert audit.n_audited > 400
        assert audit.n_skipped > 0
        assert audit.max_equality_residual <= 1e-4

    @pytest.mark.parametrize("width", [1, 3])
    def test_stage_errors_must_match_the_stage_exponents(self, width):
        # rectangular z rows of the wrong width for two stages
        z = (0.5,) * width
        samples = [Sample(t=0.1 * k, x=(0.5, 0.0), u=0.0, z=z, V=0.25 * width, dV=-1.0)
                   for k in range(3)]
        traj = Trajectory(samples, meta={"kinds": ["linear"] * 2, "etas": [3.0, 2.0],
                                         "T_p": 1.0, "t_standoff": 0.2})
        with pytest.raises(AuditError, match=(
                "^stage errors must have 2 components, one per stage exponent$")):
            lyapunov_audit(traj)

    def test_flags_envelope_violation_outside_concavity_domain(self):
        # for linear and tan kernels the sandwich is unconditional, so a
        # genuine violation needs the logexp kernel with stage errors beyond
        # its concavity range, where the upper envelope really breaks
        def sample(t, z):
            V = sum(v * v for v in z)
            dV = -2.0 / (1.0 - t) * sum(
                e * v * zeta(RcdfKind.LOGEXP, v) for e, v in zip((2.0, 2.0), z)
            )
            return Sample(t=t, x=z, u=0.0, z=z, V=V, dV=dV)

        samples = [
            sample(0.0, (0.5, 0.5)),
            sample(0.5, (2.5, 4.5)),
            sample(T_STD, (1e-8, 1e-8)),
        ]
        traj = Trajectory(samples=samples, meta={
            "T_p": 1.0, "t_standoff": T_STD,
            "etas": [2.0, 2.0], "kinds": ["logexp", "logexp"],
        })
        audit = lyapunov_audit(traj)
        assert not audit.passes
        assert any(v.side == "upper" and v.t == 0.5 for v in audit.violations)

    def test_corrupted_decay_record_shows_in_the_residual(self):
        traj = pendulum_run()
        clean = lyapunov_audit(traj)
        victim = next(i for i, s in enumerate(traj.samples)
                      if s.z is not None and 0.2 < s.t < 0.3)
        s = traj.samples[victim]
        bad_samples = list(traj.samples)
        bad_samples[victim] = Sample(t=s.t, x=s.x, u=s.u, z=s.z,
                                     V=1.5 * s.V, dV=s.dV)
        bad = Trajectory(samples=bad_samples, meta=dict(traj.meta))
        audit = lyapunov_audit(bad)
        assert audit.max_equality_residual > 100.0 * clean.max_equality_residual

    def test_repeated_time_has_no_residual(self):
        # times may repeat; the stencil skips the two rows of a repeated
        # time, and every other row keeps its neighbours' gaps
        traj = pendulum_run()
        clean = lyapunov_audit(traj)
        victim = traj.samples.index(traj.sample_at(0.201))
        samples = traj.samples
        samples.insert(victim, samples[victim])
        audit = lyapunov_audit(Trajectory(samples=samples, meta=dict(traj.meta)))
        assert audit.passes
        assert audit.n_audited == clean.n_audited + 1
        assert 0.0 < audit.max_equality_residual <= clean.max_equality_residual

    def test_corrupted_decay_rate_breaks_the_envelope(self):
        # the envelope judges the recorded dV, so a rate that is off shows
        # as a bound violation at its own sample, not just in the residual
        traj = pendulum_run()
        victim = traj.samples.index(traj.sample_at(0.201))
        s = traj.samples[victim]
        bad_samples = list(traj.samples)
        bad_samples[victim] = Sample(t=s.t, x=s.x, u=s.u, z=s.z, V=s.V, dV=10.0 * s.dV)
        audit = lyapunov_audit(Trajectory(samples=bad_samples, meta=dict(traj.meta)))
        assert not audit.passes
        assert [(v.t, v.side) for v in audit.violations] == [(s.t, "lower")]

    @pytest.mark.parametrize("slack_abs, slack_rel", [
        (-1e-6, 1e-3), (1e-6, -1e-3), (1e-6, 1.0), (1e-6, 1e308), (math.nan, 1e-3),
        (math.inf, 1e-3),
    ])
    def test_slacks_outside_their_range_are_refused(self, slack_abs, slack_rel):
        # at slack_rel >= 1 the corrupted rate above would pass: a decaying
        # dV can never fall below lower - slack_rel * |dV|; at slack_abs inf
        # no dV can leave the envelope
        traj = pendulum_run()
        with pytest.raises(ConfigurationError, match=r"slack_rel in \[0, 1\)"):
            lyapunov_audit(traj, slack_abs, slack_rel)

    def test_slack_range_edges(self):
        VerifyParams(slack_abs=0.0, slack_rel=0.0)
        VerifyParams(slack_abs=1e-6, slack_rel=0.999)
        with pytest.raises(ConfigurationError) as info:
            VerifyParams(slack_abs=-1e-6, slack_rel=0.5)
        assert str(info.value) == (
            "verify.slack_abs must be nonnegative and verify.slack_rel in [0, 1), "
            "got slack_abs=-1e-06, slack_rel=0.5"
        )

    def test_overflowed_decay_is_a_violation_not_an_error(self):
        # at x0 = (1e200, 0) V = z1^2 overflows to inf; the kernel is never
        # evaluated there, and the audit fails instead of raising
        ctrl = make_controller()
        cfg = SimConfig(x0=(1e200, 0.0), T_p=1.0, t_end=1.2, rtol=1e-7, atol=1e-10)
        traj = simulate(IntegratorChain(2), ctrl, cfg)
        assert math.isinf(traj.samples[0].V)
        audit = lyapunov_audit(traj)
        assert not audit.passes
        first = audit.violations[0]
        assert (first.t, first.side) == (0.0, "nonfinite")
        assert math.isnan(first.bound)

    def test_overflowed_rate_at_a_finite_v_is_a_violation(self):
        # dV = -2/(T_p - t) * sum eta_i z_i^2 can overflow where V does not
        # (open loop from 1e149 near T_p); an infinite slack must not let it pass
        traj = pendulum_run()
        victim = traj.samples.index(traj.sample_at(0.201))
        s = traj.samples[victim]
        bad_samples = list(traj.samples)
        bad_samples[victim] = Sample(t=s.t, x=s.x, u=s.u, z=s.z, V=s.V, dV=-math.inf)
        audit = lyapunov_audit(Trajectory(samples=bad_samples, meta=dict(traj.meta)))
        assert not audit.passes
        assert [(v.t, v.side) for v in audit.violations] == [(s.t, "nonfinite")]

    def test_mixed_kernel_families_rejected(self):
        traj = pendulum_run()
        bad = Trajectory(samples=traj.samples, meta={**traj.meta, "kinds": ["tan", "linear"]})
        with pytest.raises(AuditError, match="single kernel family"):
            lyapunov_audit(bad)


class TestJensen:
    def test_registry_lists_all_families(self):
        names = jensen_h_names()
        assert "sqrt" in names
        assert "log1p" in names
        assert "neg_square" in names
        assert "neg_x_zeta_linear" in names
        assert "neg_x_zeta_tan" in names
        assert "neg_x_zeta_logexp" in names

    def test_neg_square_hand_value(self):
        res = jensen_check("neg_square", (1.0, -1.0))
        assert res.holds
        assert res.mean_of_h == -1.0
        assert res.h_of_mean == 0.0
        assert res.gap == 1.0

    def test_sqrt_hand_value(self):
        res = jensen_check("sqrt", (0.0, 4.0))
        assert res.holds
        assert res.gap == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)

    def test_equal_points_give_zero_gap(self):
        for name in jensen_h_names():
            res = jensen_check(name, (0.75, 0.75, 0.75))
            assert res.holds
            assert res.gap == pytest.approx(0.0, abs=1e-15)

    def test_weighted_form(self):
        res = jensen_check("sqrt", (0.0, 4.0), weights=(0.25, 0.75))
        assert res.holds
        assert res.h_of_mean == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert res.mean_of_h == pytest.approx(1.5, rel=1e-15)

    def test_random_draws_hold_for_every_family(self):
        rng = random.Random(616)
        for name in jensen_h_names():
            hi = 2.0 if name == "neg_x_zeta_logexp" else 10.0
            lo = 0.0 if name != "neg_square" else -10.0
            for _ in range(300):
                xs = [rng.uniform(lo, hi) for _ in range(rng.randrange(2, 6))]
                raw = [rng.random() for _ in xs]
                total = sum(raw)
                weights = [v / total for v in raw]
                res = jensen_check(name, xs, weights)
                assert res.gap >= -1e-12

    def test_domain_rejections(self):
        with pytest.raises(DomainError):
            jensen_check("sqrt", (-1.0, 4.0))
        with pytest.raises(DomainError):
            jensen_check("log1p", (-0.5, 1.0))
        with pytest.raises(DomainError):
            jensen_check("neg_x_zeta_logexp", (0.5, 2.5))

    def test_weight_validation(self):
        with pytest.raises(ConfigurationError):
            jensen_check("sqrt", (1.0, 2.0), weights=(0.5, 0.6))
        with pytest.raises(ConfigurationError):
            jensen_check("sqrt", (1.0, 2.0), weights=(-0.5, 1.5))
        with pytest.raises(ConfigurationError):
            jensen_check("sqrt", (1.0, 2.0), weights=(1.0,))

    def test_unknown_function_rejected(self):
        with pytest.raises(ConfigurationError, match="registered"):
            jensen_check("cosh", (1.0, 2.0))

    def test_matches_decay_envelope_construction(self):
        # the upper envelope of the decay rate is exactly the averaging
        # inequality applied to h(x) = -x zeta(x) at the stage errors
        rng = random.Random(4)
        for _ in range(100):
            z = [rng.uniform(0.0, 3.0) for _ in range(4)]
            res = jensen_check("neg_x_zeta_linear", z)
            mean = sum(z) / len(z)
            by_hand = -mean * zeta(RcdfKind.LINEAR, mean) - sum(
                -v * zeta(RcdfKind.LINEAR, v) for v in z
            ) / len(z)
            assert res.gap == pytest.approx(by_hand, rel=1e-12, abs=1e-15)


class TestControlVanishing:
    def test_pendulum_run_vanishes(self):
        traj = pendulum_run()
        res = control_vanishing_check(traj, tol=1e-3)
        assert res.vanishes
        assert res.post_all_zero
        assert res.last_pre_abs_u <= 1e-2
        assert 0.0 < res.terminal_ratio < 1.0
        assert res.max_abs_u_window <= res.max_abs_u_overall

    def test_missing_window_rejected(self):
        samples = [
            Sample(t=0.0, x=(1.0,), u=1.0, z=(1.0,), V=1.0, dV=0.0),
            Sample(t=0.5, x=(0.5,), u=0.5, z=(0.5,), V=0.25, dV=0.0),
        ]
        traj = Trajectory(samples=samples, meta={"T_p": 1.0})
        with pytest.raises(AuditError, match="terminal window"):
            control_vanishing_check(traj, tol=1e-4)

    def test_nonzero_post_input_fails(self):
        samples = [
            Sample(t=0.0, x=(1.0,), u=1.0, z=(1.0,), V=1.0, dV=0.0),
            Sample(t=0.99, x=(0.0,), u=1e-7, z=(0.0,), V=0.0, dV=0.0),
            Sample(t=1.0, x=(0.0,), u=1e-3, z=None, V=None, dV=None),
        ]
        traj = Trajectory(samples=samples, meta={"T_p": 1.0})
        res = control_vanishing_check(traj, tol=1e-4)
        assert not res.post_all_zero
        assert not res.vanishes

    def test_tolerance_validation(self):
        traj = pendulum_run()
        with pytest.raises(ConfigurationError):
            control_vanishing_check(traj, tol=-1.0)


class TestSweep:
    def test_run_tolerance_combines_absolute_and_relative(self):
        assert run_tolerance(1e-4, 1e-6, (3.0, 4.0)) == pytest.approx(1e-4 + 5e-6)

    def test_passing_sweep(self):
        ctrl = make_controller()
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        report = sweep_initial_conditions(
            IntegratorChain(2), ctrl, cfg, scales=(0.5, 2.0)
        )
        assert report.verdict == "pass"
        assert report.spread is not None
        assert report.spread <= 0.05
        assert all(r.traj is None for r in report.rows)

    def test_scale_zero_flagged_degenerate_not_fatal(self):
        ctrl = make_controller()
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        report = sweep_initial_conditions(
            IntegratorChain(2), ctrl, cfg, scales=(0.0, 1.0)
        )
        by_scale = {r.scale: r for r in report.rows}
        assert by_scale[0.0].evidence.degenerate
        assert by_scale[1.0].evidence.two_sided
        assert report.verdict == "pass"

    def test_all_degenerate_certifies_nothing(self):
        ctrl = make_controller()
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        report = sweep_initial_conditions(
            IntegratorChain(2), ctrl, cfg, scales=(0.0,)
        )
        assert report.verdict == "fail"
        assert report.spread is None

    def test_failed_run_is_recorded_and_fails_the_sweep(self):
        ctrl = make_controller(n=1, etas=(2.0,), kind=RcdfKind.TAN)
        cfg = SimConfig(x0=(1.0,), T_p=1.0, t_end=1.2)
        report = sweep_initial_conditions(
            IntegratorChain(1), ctrl, cfg, scales=(1.0, 1e200)
        )
        by_scale = {r.scale: r for r in report.rows}
        assert by_scale[1e200].error is not None
        assert "DivergenceError" in by_scale[1e200].error
        assert by_scale[1.0].evidence is not None
        assert report.verdict == "fail"

    def test_unsettled_run_fails_and_stays_out_of_the_spread(self):
        # at scale 100 the saturating logexp kernel never reaches tolerance
        ctrl = make_controller(n=3, etas=(4.0, 3.0, 2.0), kind=RcdfKind.LOGEXP)
        cfg = SimConfig(x0=(1.0, 0.0, 0.0), T_p=1.0, t_end=1.2, sample_dt=2.5e-4)
        report = sweep_initial_conditions(
            IntegratorChain(3), ctrl, cfg, scales=(1.0, 100.0)
        )
        settled, unsettled = (r.evidence for r in report.rows)
        assert unsettled.t_settle is None and not unsettled.degenerate
        assert settled.two_sided
        assert report.verdict == "fail"
        assert report.spread == abs(settled.t_settle - 1.0)

    def test_tolerance_below_the_accuracy_floor_is_an_error_row(self):
        # tol 1e-13 against a floor of 10 * (1e-12 + 1e-9 * 1) = 1.001e-8:
        # the run would certify roundoff, so the sweep refuses it, as verify does
        ctrl = make_controller()
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        report = sweep_initial_conditions(
            IntegratorChain(2), ctrl, cfg, scales=(1.0,), tol_abs=1e-13, tol_rel=0.0
        )
        (row,) = report.rows
        assert row.evidence is None
        assert row.error == unresolvable_tolerance(1e-13, cfg)
        assert "below the integration accuracy floor 1.001e-08" in row.error
        assert report.verdict == "fail"

    def test_accuracy_floor_scales_with_the_initial_condition(self):
        cfg = SimConfig(x0=(100.0, 0.0), T_p=1.0, t_end=1.2, rtol=1e-7, atol=1e-10)
        # floor 10 * (1e-10 + 1e-7 * 100) ~ 1e-4
        assert unresolvable_tolerance(2e-4, cfg) is None
        assert "floor 1.000e-04" in unresolvable_tolerance(0.5e-4, cfg)

    def test_tight_spread_bound_fails(self):
        ctrl = make_controller()
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        report = sweep_initial_conditions(
            IntegratorChain(2), ctrl, cfg, scales=(0.5, 2.0), spread_bound=1e-6
        )
        assert report.verdict == "fail"

    @pytest.mark.parametrize("bound", [math.nan, math.inf, 0.0, -1.0])
    def test_a_bound_that_turns_the_spread_clause_off_is_refused(self, bound):
        # the spread here is 0.0104: nan and inf would pass any spread, and 0
        # and -1 would fail every one
        ctrl = make_controller()
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        with pytest.raises(ConfigurationError,
                           match=r"^verify\.spread_bound must lie in \(0, 1\)$"):
            sweep_initial_conditions(IntegratorChain(2), ctrl, cfg,
                                     scales=(0.5, 1.0, 2.0), spread_bound=bound)

    def test_keep_trajectories(self):
        ctrl = make_controller()
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        report = sweep_initial_conditions(
            IntegratorChain(2), ctrl, cfg, scales=(1.0,), keep_trajectories=True
        )
        assert report.rows[0].traj is not None
        assert report.rows[0].traj.samples

    def test_a_scale_past_the_float_range_is_refused_before_any_run(self, monkeypatch):
        calls = counted_runs(monkeypatch)
        cfg = SimConfig(x0=(1e10, 0.0), T_p=1.0, t_end=1.2)
        for sweep in sweep_calls(cfg, (1.0, 1e300)):
            with pytest.raises(ConfigurationError) as info:
                sweep()
            assert str(info.value) == (
                "scale 1e+300 takes x0 past the float range: scale * x0 = (inf, 0.0)")
        assert calls == []

    def test_empty_scales_rejected(self, monkeypatch):
        calls = counted_runs(monkeypatch)
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        for sweep in sweep_calls(cfg, ()):
            with pytest.raises(ConfigurationError, match="^scales must be nonempty$"):
                sweep()
        assert calls == []


class TestJudge:
    """linear n=2 (3, 2), T_p 1, judged by the verify and sweep-row tables."""

    @staticmethod
    def judged(x0=(1.0, 0.0), clauses=VERIFY_CLAUSES, tol_abs=1e-4, tol_rel=1e-6, **sim):
        cfg = SimConfig(x0=x0, T_p=1.0, t_end=1.2, **sim)
        traj = simulate(IntegratorChain(2), make_controller(), cfg)
        return judge(traj, cfg, clauses, VerifyParams(tol_abs=tol_abs, tol_rel=tol_rel))

    def test_the_healthy_run_passes_every_clause(self):
        j = self.judged()
        assert j.failed == () and j.diagnostics == ()
        assert j.verdict == "pass"
        assert j.settling.two_sided and j.lyapunov.passes and j.vanishing.vanishes

    def test_the_open_loop_fails_settling(self):
        j = self.judged(open_loop=True)
        assert "settling" in j.failed
        assert j.verdict == "fail"

    def test_an_unresolvable_tolerance_fails_with_its_diagnostic(self):
        j = self.judged(tol_abs=1e-13, tol_rel=0.0)
        assert "tolerance" in j.failed
        assert j.verdict == "fail"
        (text,) = j.diagnostics
        assert "below the integration accuracy floor 1.001e-08" in text

    def test_an_overflowing_start_fails_decay(self):
        j = self.judged(x0=(1e200, 0.0))
        assert "decay" in j.failed
        assert j.verdict == "fail"

    def test_an_equilibrium_start_is_degenerate(self):
        j = self.judged(x0=(0.0, 0.0))
        assert j.verdict == "degenerate"

    def test_failed_clauses_keep_the_order_given(self):
        j = self.judged(tol_abs=1e-13, tol_rel=0.0, open_loop=True)
        assert j.failed[:2] == ("tolerance", "settling")
        reordered = self.judged(tol_abs=1e-13, tol_rel=0.0, open_loop=True,
                                clauses=VERIFY_CLAUSES[::-1])
        assert reordered.failed == j.failed[::-1]

    @pytest.mark.parametrize("scale", [0.0, 1.0, 1e200])
    def test_the_row_clauses_run_settling_alone_and_give_the_row_state(self, scale):
        x0 = (scale, 0.0)
        j = self.judged(x0=x0, clauses=ROW_CLAUSES)
        assert j.lyapunov is None and j.vanishing is None
        report = sweep_initial_conditions(
            IntegratorChain(2), make_controller(),
            SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2), scales=(scale,))
        assert report.rows[0].state == j.verdict
        assert report.rows[0].evidence == j.settling


class TestVerifyParamsHome:
    """The audits take their defaults and rules from experiment.VerifyParams."""

    # linear n=2 whose standoff 0.999 lies inside the window [0, 0.9995]:
    # its norm would have to be both above and within tolerance
    CFG = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2, eps_stop=1e-3, sample_dt=0.01)
    WINDOW = (
        "the settling window ends at verify.window_factor * T_p = 0.9995, at or "
        "after the standoff T_p - sim.eps_stop = 0.999; lower verify.window_factor "
        "or sim.eps_stop")

    def test_judge_and_settling_refuse_a_window_that_reaches_the_standoff(self):
        traj = simulate(IntegratorChain(2), make_controller(), self.CFG)
        with pytest.raises(ConfigurationError) as info:
            judge(traj, self.CFG, VERIFY_CLAUSES, VerifyParams(window_factor=0.9995))
        assert str(info.value) == self.WINDOW
        with pytest.raises(ConfigurationError) as info:
            settling_instant(traj, run_tolerance(1e-4, 1e-6, self.CFG.x0), 0.9995)
        assert str(info.value) == self.WINDOW

    def test_the_sweep_refuses_that_window_before_any_run(self, monkeypatch):
        calls = counted_runs(monkeypatch)
        for sweep in sweep_calls(self.CFG, (0.5, 1.0, 2.0), window_factor=0.9995):
            with pytest.raises(ConfigurationError) as info:
                sweep()
            assert str(info.value) == self.WINDOW
        assert calls == []

    @pytest.mark.parametrize("keywords, message", [
        ({"window_factor": 1.5}, "verify.window_factor must lie in (0, 1)"),
        ({"tol_abs": 0.0}, "verify.tol_abs must be positive and verify.tol_rel nonnegative"),
        ({"tol_abs": -1.0}, "verify.tol_abs must be positive and verify.tol_rel nonnegative"),
    ], ids=["window_factor", "tol_abs-zero", "tol_abs-negative"])
    def test_the_sweep_refuses_bad_parameters_before_any_run(
            self, monkeypatch, keywords, message):
        calls = counted_runs(monkeypatch)
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        with pytest.raises(ConfigurationError) as info:
            sweep_initial_conditions(IntegratorChain(2), make_controller(), cfg,
                                     scales=(0.5, 1.0, 2.0), **keywords)
        assert str(info.value) == message
        assert calls == []

    def test_every_audit_keyword_defaults_to_its_verify_field(self):
        defaults = {f.name: f.default for f in dataclasses.fields(VerifyParams)}
        seen = set()
        for fn in (settling_instant, lyapunov_audit, sweep_initial_conditions):
            for name, param in inspect.signature(fn).parameters.items():
                if name in defaults and param.default is not param.empty:
                    assert param.default == defaults[name], (fn.__name__, name)
                    seen.add(name)
        assert seen == set(defaults) - {"scales"}


class TestSerialSweep:
    def test_rows_run_on_the_calling_thread(self, monkeypatch):
        seen = []

        def recording(*args, **kwargs):
            seen.append(threading.get_ident())
            return simulate(*args, **kwargs)

        monkeypatch.setattr(psis.verification, "simulate", recording)
        ctrl = make_controller()
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        report = sweep_initial_conditions(
            IntegratorChain(2), ctrl, cfg, scales=(0.5, 1.0, 2.0)
        )
        assert seen == [threading.get_ident()] * 3
        assert [r.scale for r in report.rows] == [0.5, 1.0, 2.0]

    def test_psis_threads_is_ignored(self, monkeypatch):
        # a sweep reads no environment variable, so a stale PSIS_THREADS,
        # even an invalid one, changes nothing
        ctrl = make_controller()
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)

        def sweep():
            return sweep_initial_conditions(
                IntegratorChain(2), ctrl, cfg, scales=(0.5, 2.0)
            )

        monkeypatch.delenv("PSIS_THREADS", raising=False)
        unset = sweep()
        monkeypatch.setenv("PSIS_THREADS", "zero")
        assert sweep() == unset

    def test_thread_count_is_one(self):
        assert [thread_count(n) for n in (1, 4, 64)] == [1, 1, 1]
