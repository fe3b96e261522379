"""Closed-loop simulation: phase structure, sampling grid, the crossing of
the prescribed instant, both integration clocks, and the raw pendulum path."""

import dataclasses
import gc
import hashlib
import math
import pickle
import random
import tracemalloc

import pytest

from psis.errors import (
    AuditError,
    ConfigurationError,
    DivergenceError,
    IntegrationError,
    StiffnessError,
)
from psis import symdiff
from psis.rcdf import RcdfKind, RcdfSpec, psi, zeta
from psis.simulation import (
    IntegratorChain,
    Pendulum,
    Sample,
    SimConfig,
    TERMINAL_WINDOW_START,
    Trajectory,
    pendulum_accel,
    pendulum_energy,
    plant_order,
    simulate,
    simulate_pendulum_raw,
    torque_map,
    _pre_grid,
    _program,
)
from psis.synthesis import (
    Controller,
    SynthesisConfig,
    error_coordinates,
    eval_control,
    synthesize,
    zero_setpoint_twin,
)
from psis.output import render_svg, write_csv
from psis.verification import (
    control_vanishing_check,
    lyapunov_audit,
    run_tolerance,
    settling_instant,
)


def make_controller(n=2, c=0.0, T_p=1.0, etas=(3.0, 2.0), kind=RcdfKind.LINEAR):
    stages = tuple(RcdfSpec(kind=kind, eta=e) for e in etas)
    return synthesize(SynthesisConfig(n=n, c=c, T_p=T_p, stages=stages))


def with_trap(ctrl, trap):
    """ctrl with trap added to its input u: a term that is 0 where it can be
    evaluated, and raises where it cannot."""
    return Controller(ctrl.config, ctrl.z_exprs,
                      ctrl.virtual_refs[:-1] + (ctrl.u_expr + trap,))


# 0 / t divides by zero at t = 0 alone, and the first row is recorded there
AT_START = symdiff.Const(0.0) / symdiff.TimeVar()


class TestPlants:
    def test_chain_order_validation(self):
        with pytest.raises(ConfigurationError):
            IntegratorChain(0)
        with pytest.raises(ConfigurationError):
            IntegratorChain(2.0)

    def test_pendulum_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            Pendulum(length=0.0)
        with pytest.raises(ConfigurationError):
            Pendulum(mass=-1.0)
        with pytest.raises(ConfigurationError):
            Pendulum(friction=-0.01)
        assert Pendulum(friction=0.0).friction == 0.0

    @pytest.mark.parametrize("params, problem", [
        ({"length": 1e200}, "mass * length**2 must be finite, got inf"),
        ({"length": 1e-200}, "mass * length**2 must be positive, got 0.0"),
        ({"gravity": 1e308}, "gravity / length must be finite, got inf"),
        ({"length": 1e-310, "mass": 1e300}, "gravity / length must be finite, got inf"),
        ({"mass": 1e-310, "friction": 1.0}, "friction / mass must be finite, got inf"),
    ])
    def test_pendulum_coefficients_must_be_usable(self, params, problem):
        # each parameter passes its own check, but a coefficient of the
        # dynamics does not: the torque map would overflow or divide by zero
        with pytest.raises(ConfigurationError) as info:
            Pendulum(**params)
        assert str(info.value) == problem

    def test_plant_order(self):
        assert plant_order(IntegratorChain(4)) == 4
        assert plant_order(Pendulum()) == 2

    def test_torque_map_hand_value(self):
        plant = Pendulum()
        got = torque_map(plant, (0.09, 0.1), 0.0)
        want = 0.1 * 0.5 ** 2 * ((9.81 / 0.5) * math.sin(0.09) + (0.01 / 0.1) * 0.1)
        assert got == pytest.approx(want, rel=1e-14)

    def test_torque_map_inverts_accel(self):
        plant = Pendulum()
        for x, u in (((0.3, -0.2), 1.5), ((-1.0, 0.8), -2.0), ((0.0, 0.0), 0.0)):
            torque = torque_map(plant, x, u)
            assert pendulum_accel(plant, x, torque) == pytest.approx(u, abs=1e-12)

    def test_pendulum_energy_hand_value(self):
        plant = Pendulum()
        got = pendulum_energy(plant, (math.pi / 2.0, 2.0))
        want = 0.5 * 0.025 * 4.0 + 0.1 * 9.81 * 0.5 * 1.0
        assert got == pytest.approx(want, rel=1e-14)


class TestSimConfig:
    def test_defaults_scale_with_the_horizon(self):
        cfg = SimConfig(x0=(1.0, 0.0), T_p=2.0, t_end=2.4)
        assert cfg.mode == "tau"
        assert cfg.eps_stop == pytest.approx(2e-9)
        assert cfg.max_step == pytest.approx(2.0 / 1000.0)
        assert cfg.sample_dt == pytest.approx(2.0 / 500.0)
        assert cfg.t_standoff == pytest.approx(2.0 - 2e-9)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimConfig(x0=(), T_p=1.0, t_end=1.2)
        with pytest.raises(ConfigurationError):
            SimConfig(x0=(math.nan,), T_p=1.0, t_end=1.2)
        with pytest.raises(ConfigurationError):
            SimConfig(x0=(1.0,), T_p=0.0, t_end=1.0)
        with pytest.raises(ConfigurationError):
            SimConfig(x0=(1.0,), T_p=1.0, t_end=0.9)
        with pytest.raises(ConfigurationError):
            SimConfig(x0=(1.0,), T_p=1.0, t_end=1.2, eps_stop=0.1)
        with pytest.raises(ConfigurationError):
            SimConfig(x0=(1.0,), T_p=1.0, t_end=1.2, max_step=2.0)
        with pytest.raises(ConfigurationError):
            SimConfig(x0=(1.0,), T_p=1.0, t_end=1.2, sample_dt=0.5)
        with pytest.raises(ConfigurationError):
            SimConfig(x0=(1.0,), T_p=1.0, t_end=1.2, rtol=0.0)
        with pytest.raises(ConfigurationError):
            SimConfig(x0=(1.0,), T_p=1.0, t_end=1.2, atol=1.5)
        with pytest.raises(ConfigurationError):
            SimConfig(x0=(1.0,), T_p=1.0, t_end=1.2, mode="implicit")

    def test_sample_grid_is_capped(self):
        # the default grid of a 1e6 horizon is 5e8 points; validation refuses
        # it before anything is allocated
        with pytest.raises(ConfigurationError, match="5e\\+08 sample points"):
            SimConfig(x0=(1.0,), T_p=1.0, t_end=1e6)
        # the cap counts t_end / sample_dt: one million points still pass
        cfg = SimConfig(x0=(1.0,), T_p=1.0, t_end=2000.0)
        assert cfg.t_end / cfg.sample_dt == 1e6

    def test_step_budget_is_checked_up_front(self):
        # at the default max_step of T_p / 1000 a 1e5 horizon forces 1e8
        # steps; the run would stop after the budget's 5e6 of them
        with pytest.raises(ConfigurationError, match="the step budget of 5000000"):
            SimConfig(x0=(1.0,), T_p=1.0, t_end=1e5, sample_dt=0.1)
        # max_step = 1/1024 forces 1024 steps per unit of t: after T_p alone
        # on the tau clock, from t = 0 on the direct clock
        cfg = SimConfig(x0=(1.0,), T_p=1.0, t_end=4883.0, sample_dt=0.1,
                        max_step=1 / 1024, mode="tau")
        assert (cfg.t_end - cfg.T_p) / cfg.max_step == 4_999_168
        with pytest.raises(ConfigurationError, match="forces at least 5.00019e\\+06 steps"):
            dataclasses.replace(cfg, mode="direct")

    @pytest.mark.parametrize("eps_stop", [1e-300, 5e-17])
    def test_standoff_that_rounds_to_the_instant_is_refused(self, eps_stop):
        # 1 - eps_stop rounds to 1: the run could never reach its standoff
        with pytest.raises(ConfigurationError) as info:
            SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2, eps_stop=eps_stop)
        assert str(info.value) == (
            f"eps_stop={eps_stop!r} is too small for T_p=1.0: T_p - eps_stop "
            "rounds to T_p, so the run could never reach its standoff"
        )

    def test_smallest_standoff_completes_on_the_tau_clock(self):
        # 1 - 1e-16 is 0.9999999999999999, one float below T_p
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2, eps_stop=1e-16, mode="tau")
        assert cfg.t_standoff == 0.9999999999999999
        traj = simulate(IntegratorChain(2), make_controller(), cfg)
        assert traj.t[-1] == 1.2
        assert traj.sample_at(cfg.t_standoff).t == cfg.t_standoff


class TestTrajectoryContainer:
    def test_sample_at_exact_hit_and_miss(self):
        s = Sample(t=0.5, x=(1.0,), u=0.2, z=(1.0,), V=1.0, dV=-1.0)
        traj = Trajectory(samples=[s], meta={})
        # the trajectory keeps columns, so the match is an equal record
        assert traj.sample_at(0.5) == s
        with pytest.raises(AuditError):
            traj.sample_at(0.25)

    def test_sample_at_on_an_empty_trajectory_is_an_audit_error(self):
        with pytest.raises(AuditError, match="no samples"):
            Trajectory(samples=[], meta={}).sample_at(0.0)

    def test_sample_at_returns_the_nearest_match(self):
        # two samples inside the match window: the nearer one wins, not the
        # first one in time
        early = Sample(t=1.0 - 5e-13, x=(1.0,), u=0.2, z=(1.0,), V=1.0, dV=-1.0)
        exact = Sample(t=1.0, x=(0.0,), u=0.0, z=None, V=None, dV=None)
        traj = Trajectory(samples=[early, exact], meta={})
        assert traj.sample_at(1.0) == exact
        assert traj.sample_at(1.0 - 5e-13) == early

    @pytest.mark.parametrize(
        "T_p, eps_stop", [(1e-12, None), (1e-6, None), (1.0, 1e-14)],
    )
    def test_sample_at_the_instant_on_any_scale(self, T_p, eps_stop):
        # the match window scales with the run: at T_p=1e-12 an absolute
        # floor would match the t=0 sample, at 1e-6 a pre-instant step
        # boundary, and with a 1e-14 standoff a sample before the standoff
        ctrl = make_controller(T_p=T_p)
        cfg = SimConfig(x0=(1.0, 0.0), T_p=T_p, t_end=1.2 * T_p, eps_stop=eps_stop)
        traj = simulate(IntegratorChain(2), ctrl, cfg)
        at_instant = traj.sample_at(T_p)
        assert at_instant.t == T_p
        assert at_instant.z is None
        assert traj.sample_at(cfg.t_standoff).t == cfg.t_standoff

    def test_pre_instant_arrays_requires_pre_samples(self):
        post_only = Trajectory(
            samples=[Sample(t=1.0, x=(0.0,), u=0.0, z=None, V=None, dV=None)],
            meta={},
        )
        with pytest.raises(AuditError):
            post_only.pre_instant_arrays()

    def test_samples_carry_no_instance_dict(self):
        s = Sample(t=0.5, x=(1.0, 2.0), u=0.2, z=(1.0, 2.0), V=5.0, dV=-1.0)
        assert not hasattr(s, "__dict__")
        assert pickle.loads(pickle.dumps(s)) == s
        moved = dataclasses.replace(s, t=0.75)
        assert (moved.t, moved.x, moved.dV) == (0.75, (1.0, 2.0), -1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.t = 1.0

    def test_array_views(self):
        samples = [
            Sample(t=0.0, x=(1.0, 2.0), u=0.5, z=(1.0, 2.0), V=5.0, dV=-1.0),
            Sample(t=1.0, x=(0.0, 0.0), u=0.0, z=None, V=None, dV=None),
        ]
        traj = Trajectory(samples=samples, meta={})
        t, z, V, dV = traj.pre_instant_arrays()
        assert (t, z, V, dV) == ([0.0], [(1.0, 2.0)], [5.0], [-1.0])


def nearest_by_search(samples, t_query):
    """sample_at as a search over every record: the first of the nearest
    ones, if it lies within 1e-12 * |t_last|, else None."""
    if not samples:
        return None
    nearest = min(samples, key=lambda s: abs(s.t - t_query))
    if abs(nearest.t - t_query) <= 1e-12 * abs(samples[-1].t):
        return nearest
    return None


def sample_at_or_none(traj, t_query):
    try:
        return traj.sample_at(t_query)
    except AuditError:
        return None


class TestColumns:
    """A trajectory is six columns; Sample records are built only when the
    samples view or sample_at is asked for one."""

    def test_hand_built_samples_fill_the_columns(self):
        samples = [
            Sample(t=0.0, x=(1.0, 2.0), u=0.5, z=(1.0, 2.0), V=5.0, dV=-1.0),
            Sample(t=0.5, x=(0.5, 1.0), u=0.25, z=(0.5, 1.0), V=1.25, dV=-0.5),
            Sample(t=1.0, x=(0.0, 0.0), u=0.0, z=None, V=None, dV=None),
        ]
        traj = Trajectory(samples=samples, meta={"T_p": 1.0})
        assert list(traj.t) == [0.0, 0.5, 1.0]
        assert list(traj.x) == [(1.0, 2.0), (0.5, 1.0), (0.0, 0.0)]
        assert list(traj.u) == [0.5, 0.25, 0.0]
        # z, V and dV cover the leading rows that carry stage errors
        assert list(traj.z) == [(1.0, 2.0), (0.5, 1.0)]
        assert (list(traj.V), list(traj.dV)) == ([5.0, 1.25], [-1.0, -0.5])
        assert traj.samples == samples
        assert traj.meta == {"T_p": 1.0}
        assert Trajectory().samples == []

    def test_stage_error_rows_come_first(self):
        samples = [
            Sample(t=0.0, x=(1.0,), u=0.0, z=None, V=None, dV=None),
            Sample(t=0.5, x=(1.0,), u=0.0, z=(1.0,), V=1.0, dV=0.0),
        ]
        with pytest.raises(ConfigurationError, match="must come first"):
            Trajectory(samples=samples)

    def test_times_must_not_decrease(self):
        samples = [
            Sample(t=0.5, x=(1.0,), u=0.0, z=None, V=None, dV=None),
            Sample(t=0.25, x=(1.0,), u=0.0, z=None, V=None, dV=None),
        ]
        with pytest.raises(ConfigurationError, match="must not decrease"):
            Trajectory(samples=samples)

    @pytest.mark.parametrize("field, value", [
        ("t", None), ("u", None), ("V", None), ("dV", None), ("u", "0.5"),
        ("u", 10 ** 400), ("x", None), ("x", (1.0, None)), ("z", (None, 1.0)),
    ])
    def test_a_value_that_is_not_a_double_is_refused(self, field, value):
        # a value that a column's array cannot hold is refused with the
        # sample's t and the field's name
        good = Sample(t=0.0, x=(1.0, 2.0), u=0.0, z=(1.0, 2.0), V=5.0, dV=-1.0)
        bad = dataclasses.replace(good, **{field: value})
        with pytest.raises(ConfigurationError, match=(
                rf"^the sample at t={bad.t!r}: its {field} cannot be stored as doubles: ")):
            Trajectory(samples=[bad])

    @pytest.mark.parametrize("mode", ["direct", "tau"])
    def test_samples_view_is_the_zipped_columns(self, mode):
        ctrl = make_controller(n=3, etas=(4.0, 3.0, 2.0), kind=RcdfKind.TAN)
        cfg = SimConfig(x0=(1.0, 0.0, 0.0), T_p=1.0, t_end=1.2, mode=mode)
        traj = simulate(IntegratorChain(3), ctrl, cfg)
        n_pre = len(traj.z)
        assert len(traj.t) == len(traj.x) == len(traj.u) > n_pre
        assert n_pre == len(traj.V) == len(traj.dV) > 0
        assert all(t < 1.0 for t in traj.t[:n_pre])
        assert all(t >= 1.0 for t in traj.t[n_pre:])
        pad = [None] * (len(traj.t) - n_pre)
        rows = zip(traj.t, traj.x, traj.u, list(traj.z) + pad, list(traj.V) + pad,
                   list(traj.dV) + pad)
        assert traj.samples == [Sample(*row) for row in rows]
        # each access builds new records; nothing is cached
        assert traj.samples is not traj.samples

    def test_sample_at_agrees_with_the_nearest_sample_search(self):
        rng = random.Random(23)
        for _ in range(300):
            # sorted times with repeats and near-repeats one ulp apart
            times = sorted(rng.choice([0.0, 1.0, 1e-3, 7.5])
                           * rng.choice([rng.random(), 1.0, 0.5])
                           for _ in range(rng.randint(1, 12)))
            times = sorted(t if rng.random() < 0.7 else math.nextafter(t, 10.0)
                           for t in times)
            n_pre = rng.randint(0, len(times))
            samples = [
                Sample(t=t, x=(float(i),), u=float(i),
                       z=(float(i),) if i < n_pre else None,
                       V=float(i) if i < n_pre else None,
                       dV=-float(i) if i < n_pre else None)
                for i, t in enumerate(times)
            ]
            traj = Trajectory(samples=samples)
            span = abs(times[-1])
            queries = list(times)
            queries += [math.nextafter(t, d) for t in times for d in (-math.inf, math.inf)]
            queries += [t + k * 1e-12 * span for t in times for k in (-1.0, -0.5, 0.5, 1.0, 2.0)]
            queries += [(a + b) / 2.0 for a, b in zip(times, times[1:])]
            queries += [times[0] - 1.0, times[0] - 1e-13, times[-1] + 1e-13,
                        times[-1] + 1.0, -math.inf, math.inf, math.nan]
            queries += [rng.uniform(-1.0, 9.0) for _ in range(10)]
            for q in queries:
                assert sample_at_or_none(traj, q) == nearest_by_search(samples, q), q

    def test_sample_at_on_a_simulated_run(self):
        ctrl = make_controller(c=0.15, T_p=0.5)
        cfg = SimConfig(x0=(0.09, 0.1), T_p=0.5, t_end=0.6, mode="tau")
        traj = simulate(Pendulum(), ctrl, cfg)
        samples = traj.samples
        rng = random.Random(3)
        queries = [rng.choice(traj.t) for _ in range(200)]
        queries += [math.nextafter(q, 1.0) for q in queries[:50]]
        queries += [rng.uniform(-0.1, 0.7) for _ in range(50)]
        queries += [0.5, cfg.t_standoff, 0.6, -1e-13, 0.6 + 1e-13]
        for q in queries:
            assert sample_at_or_none(traj, q) == nearest_by_search(samples, q), q

    def test_simulate_audits_and_writers_build_no_sample(self, monkeypatch, tmp_path):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a Sample was built")

        monkeypatch.setattr(Sample, "__init__", refuse)
        runs = [
            (IntegratorChain(3), make_controller(n=3, etas=(4.0, 3.0, 2.0)), (1.0, 0.0, 0.0)),
            (Pendulum(), make_controller(c=0.15, T_p=0.5), (0.09, 0.1)),
        ]
        for plant, ctrl, x0 in runs:
            T_p = ctrl.config.T_p
            tol = run_tolerance(1e-4, 1e-6, x0)
            for mode in ("direct", "tau"):
                cfg = SimConfig(x0=x0, T_p=T_p, t_end=1.2 * T_p, mode=mode)
                traj = simulate(plant, ctrl, cfg)
                settling_instant(traj, tol)
                lyapunov_audit(traj)
                control_vanishing_check(traj, tol)
                write_csv(str(tmp_path / f"{mode}.csv"), traj)
                render_svg(traj, mode)
        with pytest.raises(AssertionError, match="a Sample was built"):
            traj.samples


class TestRowViews:
    """x and z are arrays of doubles, n values a row, read as tuples."""

    def rows(self):
        samples = [Sample(t=0.25 * k, x=(float(k), -2.0 * k), u=0.0, z=None, V=None, dV=None)
                   for k in range(4)]
        return Trajectory(samples=samples).x

    def test_rows_read_as_tuples(self):
        x = self.rows()
        assert len(x) == 4
        assert list(x) == [(0.0, -0.0), (1.0, -2.0), (2.0, -4.0), (3.0, -6.0)]
        assert all(type(row) is tuple for row in x)
        assert x[1] == (1.0, -2.0)
        assert x[-1] == x[3] == (3.0, -6.0)
        assert x[-4] == x[0]
        for i in (4, -5):
            with pytest.raises(IndexError, match="row index out of range"):
                x[i]

    def test_slices_are_lists_of_rows(self):
        x = self.rows()
        assert x[1:3] == [(1.0, -2.0), (2.0, -4.0)]
        assert x[:] == list(x)
        assert x[-1:] == [(3.0, -6.0)]
        assert x[::2] == [(0.0, -0.0), (2.0, -4.0)]
        assert x[::-1] == list(x)[::-1]
        assert x[3:1] == x[9:] == []

    def test_an_empty_trajectory_has_no_rows(self):
        traj = Trajectory()
        for rows in (traj.x, traj.z):
            assert len(rows) == 0
            assert list(rows) == rows[:] == []
            with pytest.raises(IndexError):
                rows[0]
            with pytest.raises(IndexError):
                rows[-1]

    def test_views_are_equal_when_their_rows_are(self):
        assert self.rows() == self.rows()
        assert Trajectory().x == Trajectory().z
        assert self.rows() != Trajectory().x
        # the same eight values in rows of four are other rows
        wide = Trajectory(samples=[
            Sample(t=0.0, x=(0.0, -0.0, 1.0, -2.0), u=0.0, z=None, V=None, dV=None),
            Sample(t=1.0, x=(2.0, -4.0, 3.0, -6.0), u=0.0, z=None, V=None, dV=None),
        ]).x
        assert wide.flat == self.rows().flat and wide != self.rows()
        # a column is not a list: list() of it is
        traj = Trajectory(samples=[Sample(t=0.0, x=(1.0,), u=0.5, z=None, V=None, dV=None)])
        assert traj.x != [(1.0,)] and list(traj.x) == [(1.0,)]
        assert traj.t != [0.0] and list(traj.t) == [0.0]

    @pytest.mark.parametrize("column", ["x", "z"])
    def test_ragged_rows_are_refused(self, column):
        first = Sample(t=0.0, x=(1.0, 2.0), u=0.0, z=(1.0, 2.0), V=5.0, dV=-1.0)
        for row, problem in (((1.0, 2.0, 3.0), "3 values where the first row has 2"),
                             ((1.0,), "1 values where the first row has 2")):
            ragged = dataclasses.replace(first, t=0.5, **{column: row})
            with pytest.raises(ConfigurationError, match=(
                    rf"^the sample at t=0\.5: its {column} row has {problem}$")):
                Trajectory(samples=[first, ragged])
        empty = dataclasses.replace(first, **{column: ()})
        with pytest.raises(ConfigurationError, match=f"its {column} row has no values$"):
            Trajectory(samples=[empty])

    def test_a_dense_run_holds_at_most_120_bytes_a_row(self):
        # linear n=3 from e1 at sample_dt 2.5e-4, as criteria 4-5 sample it:
        # t, u, V, dV and the three x and three z values of a row are ten
        # doubles, 80 bytes; as float objects and tuples they held 363
        ctrl = make_controller(n=3, etas=(4.0, 3.0, 2.0))

        def run(sample_dt):
            cfg = SimConfig(x0=(1.0, 0.0, 0.0), T_p=1.0, t_end=1.2, sample_dt=sample_dt)
            return simulate(IntegratorChain(3), ctrl, cfg)

        run(0.1)  # compiles the law's program and the step loop uncounted
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = run(2.5e-4)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(traj.t) == 5549
        assert held / len(traj.t) <= 120


class TestClosedLoopPhases:
    def setup_method(self):
        self.ctrl = make_controller()
        self.cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2, mode="direct")
        self.traj = simulate(IntegratorChain(2), self.ctrl, self.cfg)

    def test_scheduled_times_are_hit_exactly(self):
        times = {s.t for s in self.traj.samples}
        assert 0.0 in times
        assert self.cfg.t_standoff in times
        assert 1.0 in times
        assert 1.2 in times
        for k in (1, 7, 250, 499):
            assert k * self.cfg.sample_dt in times

    def test_state_decays_into_the_instant(self):
        at_instant = self.traj.sample_at(1.0)
        assert abs(at_instant.x[0]) < 1e-9
        assert abs(at_instant.x[1]) < 1e-9

    def test_control_cut_exactly_after_the_instant(self):
        post = [s for s in self.traj.samples if s.t >= 1.0]
        assert len(post) >= 2
        assert all(s.u == 0.0 for s in post)
        assert all(s.z is None and s.V is None and s.dV is None for s in post)

    def test_crossing_is_a_single_explicit_hop(self):
        std = self.traj.sample_at(self.cfg.t_standoff)
        after = self.traj.sample_at(1.0)
        eps = self.cfg.eps_stop
        # the hop advances each state by eps times its derivative at the standoff
        assert after.x[0] == pytest.approx(std.x[0] + eps * std.x[1], rel=1e-12, abs=1e-300)
        assert after.x[1] == pytest.approx(std.x[1] + eps * std.u, rel=1e-12, abs=1e-300)

    def test_terminal_window_gets_extra_resolution(self):
        window = [s for s in self.traj.samples
                  if 0.95 <= s.t < 1.0]
        grid_only = [s for s in window
                     if abs(s.t / self.cfg.sample_dt - round(s.t / self.cfg.sample_dt)) < 1e-9]
        assert len(window) > len(grid_only)

    def test_stage_errors_and_decay_recorded(self):
        first = self.traj.samples[0]
        assert first.z == (1.0, 3.0)  # z2 = x2 + eta1 * z1 / T_p
        assert first.V == pytest.approx(10.0, rel=1e-15)
        # dV = -2/gap * (e1 z1^2 + e2 z2^2) = -2 (3 + 18)
        assert first.dV == pytest.approx(-42.0, rel=1e-15)

    def test_meta_records_the_run(self):
        meta = self.traj.meta
        assert meta["n"] == 2
        assert meta["T_p"] == 1.0
        assert meta["etas"] == [3.0, 2.0]
        assert meta["kinds"] == ["linear", "linear"]
        assert meta["mode"] == "direct"
        assert meta["steps_accepted"] > 0
        assert meta["rhs_evals"] > 6 * meta["steps_accepted"]

    def test_deterministic_replay(self):
        again = simulate(IntegratorChain(2), self.ctrl, self.cfg)
        assert len(again.samples) == len(self.traj.samples)
        for a, b in zip(again.samples, self.traj.samples):
            assert a == b


class TestDenseOutput:
    """Grid points before the last stop of a stretch are read off the dense
    output of the step that covers them, so the steps follow the accuracy
    asked for, not the sample grid."""

    @pytest.mark.parametrize("mode", ["direct", "tau"])
    def test_step_count_does_not_follow_the_sample_grid(self, mode):
        ctrl = make_controller(n=3, etas=(4.0, 3.0, 2.0))
        counts = set()
        for dt in (2.5e-4, 2e-3, 0.1):
            cfg = SimConfig(x0=(1.0, 0.0, 0.0), T_p=1.0, t_end=1.2,
                            sample_dt=dt, mode=mode)
            meta = simulate(IntegratorChain(3), ctrl, cfg).meta
            counts.add((meta["steps_accepted"], meta["rhs_evals"]))
        assert len(counts) == 1

    @pytest.mark.parametrize("mode", ["direct", "tau"])
    def test_sample_times_increase_strictly(self, mode):
        # steps as long as the grid spacing end on or next to grid points;
        # a step end on a grid point is recorded once
        ctrl = make_controller(n=3, etas=(4.0, 3.0, 2.0))
        cfg = SimConfig(x0=(1.0, 0.0, 0.0), T_p=1.0, t_end=1.2,
                        max_step=1e-3, sample_dt=1e-3, mode=mode)
        times = [s.t for s in simulate(IntegratorChain(3), ctrl, cfg).samples]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert {k * 1e-3 for k in range(1, 1000)} <= set(times)

    # sha256[:16] of repr([dataclasses.astuple(s) for s in samples]) for
    # README's pendulum with config defaults: the dense output's bits must
    # not move between Python versions
    @pytest.mark.parametrize("mode, digest", [
        ("direct", "187cb5c3d9d2ca6e"),
        ("tau", "864440739c3be52e"),
    ])
    def test_readme_pendulum_samples_are_pinned(self, mode, digest):
        ctrl = make_controller(c=0.15, T_p=0.5)
        cfg = SimConfig(x0=(0.09, 0.1), T_p=0.5, t_end=0.6, mode=mode)
        samples = simulate(Pendulum(), ctrl, cfg).samples
        text = repr([dataclasses.astuple(s) for s in samples])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    # the same digest for one chain per kernel kind and one mixing all
    # three, so every kernel's z, u, V and dV bits are pinned on both clocks
    @pytest.mark.parametrize("kinds, etas, c, x0, mode, digest", [
        (("tan",) * 4, (5.0, 4.0, 3.0, 2.0), 0.0, (1.0, 0.0, 0.0, 0.0),
         "direct", "5809bcb636f41ea3"),
        (("tan",) * 4, (5.0, 4.0, 3.0, 2.0), 0.0, (1.0, 0.0, 0.0, 0.0),
         "tau", "2d25f6b090d2276c"),
        (("logexp",) * 3, (4.0, 3.0, 2.0), 0.0, (1.0, 0.0, 0.0),
         "direct", "69815a103c707098"),
        (("logexp",) * 3, (4.0, 3.0, 2.0), 0.0, (1.0, 0.0, 0.0),
         "tau", "47ec7fb9b4133932"),
        (("tan", "linear", "logexp"), (4.0, 3.0, 2.0), 0.3, (1.0, 0.5, 0.0),
         "direct", "42aa4e2b4acf1432"),
        (("tan", "linear", "logexp"), (4.0, 3.0, 2.0), 0.3, (1.0, 0.5, 0.0),
         "tau", "068d83aa5008134c"),
    ])
    def test_chain_samples_are_pinned_for_every_kernel(
        self, kinds, etas, c, x0, mode, digest
    ):
        stages = tuple(RcdfSpec(kind=RcdfKind(k), eta=e) for k, e in zip(kinds, etas))
        ctrl = synthesize(SynthesisConfig(n=len(etas), c=c, T_p=1.0, stages=stages))
        cfg = SimConfig(x0=x0, T_p=1.0, t_end=1.2, mode=mode)
        samples = simulate(IntegratorChain(len(x0)), ctrl, cfg).samples
        text = repr([dataclasses.astuple(s) for s in samples])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


class TestEquilibriumStart:
    def test_setpoint_start_stays_put_exactly(self):
        ctrl = make_controller(c=0.15, T_p=0.5)
        cfg = SimConfig(x0=(0.15, 0.0), T_p=0.5, t_end=0.6)
        traj = simulate(IntegratorChain(2), ctrl, cfg)
        for s in traj.samples:
            assert s.x == (0.15, 0.0)
            assert s.u == 0.0


class TestSetpointPrecision:
    def test_stage_errors_stay_clean_near_the_instant(self):
        # integrating the shifted coordinates keeps z far below the roundoff
        # of x1 - c at the standoff
        ctrl = make_controller(c=0.15, T_p=0.5)
        cfg = SimConfig(x0=(0.09, 0.1), T_p=0.5, t_end=0.6)
        traj = simulate(IntegratorChain(2), ctrl, cfg)
        std = traj.sample_at(cfg.t_standoff)
        assert abs(std.z[0]) < 1e-18
        assert abs(std.z[1]) < 1e-12
        assert std.V < 1e-20


class TestFirstOrderMonotoneDecay:
    def test_lyapunov_value_never_increases(self):
        ctrl = make_controller(n=1, etas=(2.0,))
        cfg = SimConfig(x0=(1.0,), T_p=1.0, t_end=1.1)
        traj = simulate(IntegratorChain(1), ctrl, cfg)
        _, _, V, _ = traj.pre_instant_arrays()
        # below the audit floor V is squared roundoff and the ordering of
        # neighboring samples is meaningless; above it the decay is strict
        audited = [(a, b) for a, b in zip(V, V[1:]) if min(a, b) >= 1e-20]
        assert len(audited) > 500
        assert all(b <= a for a, b in audited)


class TestCompatibilityChecks:
    def test_order_mismatch(self):
        ctrl = make_controller(n=2)
        cfg = SimConfig(x0=(1.0, 0.0, 0.0), T_p=1.0, t_end=1.2)
        with pytest.raises(ConfigurationError):
            simulate(IntegratorChain(3), ctrl, cfg)

    def test_x0_length_mismatch(self):
        ctrl = make_controller(n=2)
        cfg = SimConfig(x0=(1.0,), T_p=1.0, t_end=1.2)
        with pytest.raises(ConfigurationError):
            simulate(IntegratorChain(2), ctrl, cfg)

    def test_horizon_mismatch(self):
        ctrl = make_controller(T_p=0.5)
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        with pytest.raises(ConfigurationError):
            simulate(IntegratorChain(2), ctrl, cfg)


def close(a, b, rel=1e-15):
    """a equals b to rel, with no absolute floor: a zero must be a zero."""
    return a == b or abs(a - b) <= rel * abs(b)


def row_recorders(ctrl, open_loop=False, c=0.0):
    """(record, record_free) of the generated recorder, each returning as a
    Sample the one row it appended to the columns of a fresh trajectory."""
    make = _program(ctrl, open_loop).make

    def recorder(which):
        def call(t, x):
            traj = Trajectory()
            make(c, traj)[which](t, x)
            [row] = traj.samples
            return row
        return call

    return recorder(0), recorder(1)


class TestGeneratedRecorder:
    """simulate records every pre-instant sample with one function of the
    law's program, which walks the law once for z and u, inlines the
    kernels and appends the row to the trajectory's columns."""

    @pytest.mark.parametrize("kinds", [
        ("tan",) * 3, ("linear",) * 3, ("logexp",) * 3, ("tan", "linear", "logexp"),
    ])
    def test_matches_the_law_at_random_points(self, kinds):
        etas = (4.0, 3.0, 2.0)
        stages = tuple(RcdfSpec(kind=RcdfKind(k), eta=e) for k, e in zip(kinds, etas))
        ctrl = synthesize(SynthesisConfig(n=3, c=0.0, T_p=1.0, stages=stages))
        record, _ = row_recorders(ctrl)
        rng = random.Random(11)
        points = [([rng.uniform(-2.0, 2.0) for _ in range(3)], rng.uniform(0.0, 0.99))
                  for _ in range(200)]
        # every sign of zero in every component: z_1 is +-0.0, where the
        # logexp law meets sign(0) = 0 and its kernel's zero branch
        points += [([a, b, c], t) for a in (0.0, -0.0) for b in (0.0, -0.0)
                   for c in (0.0, -0.0) for t in (0.0, 0.5)]
        zero_signs = set()
        for x, t in points:
            s = record(t, x)
            z = error_coordinates(ctrl, x, t)
            assert all(close(a, b) for a, b in zip(s.z, z))
            assert close(s.u, eval_control(ctrl, x, t))
            zero_signs |= {math.copysign(1.0, v) for v in s.z if v == 0.0}
            # V and dV are the loop over the stages, bit for bit
            V = decay = 0.0
            for stage, v in zip(stages, s.z):
                V += v * v
                decay += stage.eta * v * zeta(stage.kind, v)
            assert (s.V, s.dV) == (V, -2.0 / (1.0 - t) * decay)
            assert (s.t, s.x) == (t, tuple(x))
        assert zero_signs == {1.0, -1.0}

    def test_open_loop_records_the_same_errors_and_no_input(self):
        ctrl = make_controller(n=3, etas=(4.0, 3.0, 2.0), kind=RcdfKind.TAN)
        closed, _ = row_recorders(ctrl)
        opened, _ = row_recorders(ctrl, open_loop=True)
        for x, t in (((1.0, -0.5, 0.25), 0.0), ((0.1, 0.2, 0.3), 0.9)):
            a, b = closed(t, x), opened(t, x)
            assert (b.z, b.V, b.dV) == (a.z, a.V, a.dV)
            assert a.u != 0.0 and b.u == 0.0

    def test_shifts_the_state_by_the_setpoint(self):
        # x = w + (c, 0, ..., 0) component by component, so a -0.0 is
        # recorded as 0.0
        twin = zero_setpoint_twin(make_controller(c=0.15, T_p=0.5))
        record, record_free = row_recorders(twin, c=0.15)
        for s in (record(0.0, [-0.06, -0.0]), record_free(0.6, [-0.06, -0.0])):
            assert s.x == (-0.06 + 0.15, 0.0)
            assert math.copysign(1.0, s.x[1]) == 1.0
        free = record_free(0.6, [-0.06, -0.0])
        assert (free.t, free.u, free.z, free.V, free.dV) == (0.6, 0.0, None, None, None)

    def test_readme_pendulum_recorder_source_is_pinned(self):
        # sha256[:16] of the generated program (u, the vector fields and the
        # recorders) for README's pendulum twin; the program is compiled
        # once and cached on the controller.  The recorder maps a float
        # error in its row to DivergenceError itself, which moved the digest
        # from 8f6edd7f0f82e5ce; the one-walk Lie derivative moved it from
        # 184a99731d7c6f04; make() extending flat arrays of doubles moved
        # it from 66f03825cfa6ccd1; the quotient rule that reuses its
        # quotient moved it from e015d9ace9846c8c
        twin = zero_setpoint_twin(make_controller(c=0.15, T_p=0.5))
        program = _program(twin, False)
        assert _program(twin, False) is program
        digest = hashlib.sha256(program.source.encode()).hexdigest()[:16]
        assert digest == "ea4a3862c371461e"


class TestLawProgram:
    """simulate emits each law once, into one program that holds its vector
    fields and recorders; compile_expr is not on its path."""

    @pytest.mark.parametrize("mode, open_loop", [
        ("direct", False), ("tau", False), ("direct", True), ("tau", True),
    ])
    def test_simulate_never_compiles_u_on_its_own(self, monkeypatch, mode, open_loop):
        def refuse(*args):
            raise AssertionError("simulate reached compile_expr")

        monkeypatch.setattr(symdiff, "compile_expr", refuse)
        # a fresh controller, whose twin has compiled nothing yet
        ctrl = make_controller(n=3, c=0.25, etas=(4.0, 3.0, 2.0), kind=RcdfKind.TAN)
        cfg = SimConfig(x0=(1.0, 0.0, 0.0), T_p=1.0, t_end=1.2, mode=mode,
                        open_loop=open_loop)
        traj = simulate(IntegratorChain(3), ctrl, cfg)
        assert traj.meta["steps_accepted"] > 0
        assert "compiled_u" not in vars(zero_setpoint_twin(ctrl))

    def test_one_emission_per_law_and_loop_flag(self, monkeypatch):
        emitted = []
        real = symdiff.code_emitter

        def counting(roots, lines):
            emitted.append(lines)
            return real(roots, lines)

        monkeypatch.setattr(symdiff, "code_emitter", counting)
        ctrl = make_controller(n=2, c=0.25)
        for mode in ("direct", "tau", "direct", "tau"):
            simulate(IntegratorChain(2), ctrl, SimConfig(
                x0=(1.0, 0.0), T_p=1.0, t_end=1.2, mode=mode))
        assert len(emitted) == 1
        simulate(IntegratorChain(2), ctrl, SimConfig(
            x0=(1.0, 0.0), T_p=1.0, t_end=1.2, open_loop=True))
        assert len(emitted) == 2


class TestBreakdownReporting:
    def test_invalid_field_at_start_is_divergence(self):
        ctrl = make_controller(n=1, etas=(2.0,), kind=RcdfKind.TAN)
        cfg = SimConfig(x0=(1e200,), T_p=1.0, t_end=1.2)
        with pytest.raises(DivergenceError) as info:
            simulate(IntegratorChain(1), ctrl, cfg)
        # the partial trajectory carries whatever was recorded before the stop
        assert info.value.partial.samples[0].t == 0.0
        assert isinstance(info.value, IntegrationError)

    def test_midrun_breakdown_is_stiffness_with_partial(self):
        plant = Pendulum()

        def torque(x, t):
            return math.nan if t > 0.2 else 0.0

        cfg = SimConfig(x0=(0.3, 0.0), T_p=1.0, t_end=1.2,
                        rtol=1e-6, atol=1e-9)
        with pytest.raises(StiffnessError) as info:
            simulate_pendulum_raw(plant, cfg, torque)
        assert info.value.t == pytest.approx(0.2, abs=0.05)
        partial = info.value.partial
        assert partial.samples
        assert all(s.t <= 0.21 for s in partial.samples)
        # a partial run is labelled like a complete one
        complete = simulate_pendulum_raw(plant, cfg, lambda x, t: 0.0)
        assert partial.meta.keys() == complete.meta.keys()
        assert partial.meta["plant"] == complete.meta["plant"]
        assert partial.meta["T_p"] == 1.0
        assert partial.meta["steps_rejected"] > 0

    def test_unevaluable_sample_is_divergence(self):
        # the compiled control divides by zero at t=0, outside any
        # integrator step
        ctrl = with_trap(make_controller(), AT_START)
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        with pytest.raises(DivergenceError, match="division by zero") as info:
            simulate(IntegratorChain(2), ctrl, cfg)
        assert info.value.t == 0.0
        assert info.value.partial.samples == []
        assert info.value.partial.meta["T_p"] == 1.0

    def test_midrun_unevaluable_sample_is_divergence(self):
        # u + 0 / (t - t_k) divides by zero at the grid point t_k alone: an
        # integrator trial that lands there is rejected and retried, but
        # the sample at t_k ends the run, in the law program's recorder and
        # in the raw pendulum's alike
        ctrl = make_controller()
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        t_k = 250 * cfg.sample_dt
        trapped = with_trap(ctrl, symdiff.Const(0.0) / (symdiff.TimeVar() - t_k))

        def torque(x, t):
            return 0.0 / (t - t_k)

        for run in (lambda: simulate(IntegratorChain(2), trapped, cfg),
                    lambda: simulate_pendulum_raw(Pendulum(), cfg, torque)):
            with pytest.raises(DivergenceError) as info:
                run()
            assert str(info.value) == "sample could not be evaluated: float division by zero"
            assert info.value.t == t_k
            partial = info.value.partial
            assert len(partial.t) == 250 and partial.t[-1] < t_k
            assert len(partial.x) == len(partial.u) == 250

    def test_overflowed_stage_errors_are_divergence(self):
        # z2 = x2 + 3 x1 / (T_p - t) overflows to inf at the start
        ctrl = make_controller()
        cfg = SimConfig(x0=(1e308, 0.0), T_p=1.0, t_end=1.2)
        with pytest.raises(DivergenceError, match="stage errors are not finite") as info:
            simulate(IntegratorChain(2), ctrl, cfg)
        assert info.value.t == 0.0
        assert info.value.partial.samples == []

    # sha256[:16] of repr([dataclasses.astuple(s) for s in partial.samples]):
    # the stiff start keeps its t = 0 row on both clocks
    @pytest.mark.parametrize("n, etas, kind, trap, x0, mode, error, rows, digest", [
        (2, (3.0, 2.0), RcdfKind.LINEAR, AT_START, (1.0, 0.0), "direct",
         DivergenceError, 0, "4f53cda18c2baa0c"),
        (2, (3.0, 2.0), RcdfKind.LINEAR, None, (1e308, 0.0), "direct",
         DivergenceError, 0, "4f53cda18c2baa0c"),
        (4, (5.0, 4.0, 3.0, 2.0), RcdfKind.TAN, None, (10.0, 0.0, 0.0, 0.0), "direct",
         StiffnessError, 1, "01992a7549b8eaad"),
        (4, (5.0, 4.0, 3.0, 2.0), RcdfKind.TAN, None, (10.0, 0.0, 0.0, 0.0), "tau",
         StiffnessError, 1, "01992a7549b8eaad"),
    ], ids=["unevaluable", "overflowed", "stiff-direct", "stiff-tau"])
    def test_partial_columns_are_not_ragged(
        self, n, etas, kind, trap, x0, mode, error, rows, digest
    ):
        ctrl = make_controller(n=n, etas=etas, kind=kind)
        if trap is not None:
            ctrl = with_trap(ctrl, trap)
        cfg = SimConfig(x0=x0, T_p=1.0, t_end=1.2, sample_dt=2.5e-4, mode=mode)
        with pytest.raises(error) as info:
            simulate(IntegratorChain(n), ctrl, cfg)
        partial = info.value.partial
        columns = (partial.t, partial.x, partial.u, partial.z, partial.V, partial.dV)
        assert [len(col) for col in columns] == [rows] * 6
        text = repr([dataclasses.astuple(s) for s in partial.samples])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_a_row_that_raises_appends_nothing(self):
        ctrl = make_controller()
        traj = Trajectory()
        record, _ = _program(ctrl, False).make(0.0, traj)
        record(0.0, [1.0, 0.0])
        with pytest.raises(DivergenceError, match="stage errors are not finite"):
            record(0.5, [1e308, 0.0])
        # the row that raised left no cell behind in any column
        columns = (traj.t, traj.x, traj.u, traj.z, traj.V, traj.dV)
        assert [len(col) for col in columns] == [1] * 6
        # here z is finite and u divides by zero at t=0: the record maps
        # the arithmetic error to a DivergenceError at t
        tiny = Trajectory()
        record, _ = _program(with_trap(ctrl, AT_START), False).make(0.0, tiny)
        with pytest.raises(DivergenceError, match="division by zero") as info:
            record(0.0, [1.0, 0.0])
        assert info.value.t == 0.0
        columns = (tiny.t, tiny.x, tiny.u, tiny.z, tiny.V, tiny.dV)
        assert [len(col) for col in columns] == [0] * 6

    def test_stiff_start_names_step_size_and_error_estimate(self):
        ctrl = make_controller(n=4, etas=(5.0, 4.0, 3.0, 2.0), kind=RcdfKind.TAN)
        for mode in ("direct", "tau"):
            cfg = SimConfig(x0=(10.0, 0.0, 0.0, 0.0), T_p=1.0, t_end=1.2,
                            sample_dt=2.5e-4, mode=mode)
            with pytest.raises(StiffnessError) as info:
                simulate(IntegratorChain(4), ctrl, cfg)
            assert info.value.t == 0.0
            text = str(info.value)
            assert text.startswith("step size collapsed to ")
            assert "rejected steps in a row" in text
            assert "last error estimate " in text
            estimate = float(text.rsplit("last error estimate ", 1)[1].rstrip(")"))
            assert estimate > 1.0  # the trial that triggered the collapse failed
            assert len(info.value.partial.samples) == 1

    def test_tau_clock_failure_reports_a_time_of_the_run(self):
        # u + 0 ln(t_a - t) cannot be evaluated past t_a, so every trial
        # that ends there fails and the step size collapses mid-run on the
        # tau clock; the error names tau and carries the t it maps to, past
        # the last recorded sample
        t_a = 0.5
        trap = symdiff.Const(0.0) * symdiff.Ln(symdiff.Const(t_a) - symdiff.TimeVar())
        ctrl = with_trap(make_controller(), trap)
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2, mode="tau")
        with pytest.raises(StiffnessError) as info:
            simulate(IntegratorChain(2), ctrl, cfg)
        exc = info.value
        assert exc.partial.t[-1] <= exc.t <= cfg.T_p
        text = str(exc)
        assert text.startswith("step size collapsed to ")
        assert text.endswith(" on the tau clock (h in tau units)")
        tau = float(text.rsplit("at tau=", 1)[1].split()[0])
        assert 0.0 < tau < math.log(cfg.T_p / cfg.eps_stop)
        assert exc.t == pytest.approx(cfg.T_p * -math.expm1(-tau), rel=1e-8)

    @pytest.mark.parametrize("T_p", [1e-6, 1e-12])
    def test_tiny_prescribed_instant_settles(self, T_p):
        # the step-collapse test is relative to the horizon, so the law is
        # scale-free in T_p: no absolute floor stops a short run
        ctrl = make_controller(T_p=T_p)
        cfg = SimConfig(x0=(1.0, 0.0), T_p=T_p, t_end=1.2 * T_p)
        traj = simulate(IntegratorChain(2), ctrl, cfg)
        assert traj.samples[-1].t == 1.2 * T_p
        ev = settling_instant(traj, run_tolerance(1e-4, 1e-6, cfg.x0))
        assert ev.two_sided

    @pytest.mark.parametrize("T_p", [1e-308, 1e-300])
    def test_gain_that_overflows_before_the_standoff_is_refused(self, T_p):
        # eta / eps_stop is inf, so the law's gain overflows before the run
        # reaches its standoff: refused before the run, not a breakdown at t=0
        ctrl = make_controller(T_p=T_p)
        cfg = SimConfig(x0=(1.0, 0.0), T_p=T_p, t_end=1.2 * T_p)
        with pytest.raises(ConfigurationError) as info:
            simulate(IntegratorChain(2), ctrl, cfg)
        assert str(info.value) == (
            "stage 1's gain eta/(T_p - t) overflows before the standoff: "
            f"eta=3.0 over eps_stop={cfg.eps_stop!r} is not finite"
        )

    def test_huge_prescribed_instant_is_a_stiffness_error(self):
        # the backstepping cross term has unit gain whatever T_p is, so a
        # huge T_p makes the loop oscillate at an O(1) frequency over a
        # horizon of 1e300; the first trial steps overflow, and the run
        # stops with a reason instead of a traceback
        ctrl = make_controller(T_p=1e300)
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1e300, t_end=1.2e300)
        with pytest.raises(StiffnessError, match="step size collapsed") as info:
            simulate(IntegratorChain(2), ctrl, cfg)
        assert info.value.t == 0.0

    def test_overflowing_error_estimate_rejects_the_step(self):
        # the trial steps of this start overflow the squared error norm; such
        # a step is rejected and retried smaller, not a traceback
        ctrl = make_controller(n=4, etas=(4.5, 3.5, 2.5, 1.5), kind=RcdfKind.TAN)
        cfg = SimConfig(x0=(1.0, 0.0, 0.0, 0.0), T_p=1.0, t_end=1.2, mode="direct")
        traj = simulate(IntegratorChain(4), ctrl, cfg)
        assert len(traj.samples) == 1636
        assert traj.samples[-1].t == 1.2
        assert traj.meta["steps_rejected"] > 0


class TestHighOrderReach:
    # laws of order 7 and up once divided by (T_p - t)**64 and more, which
    # underflows to 0 before T_p: each run stopped with a collapsed step
    # size at t = 0.997036 (linear n=8) or 0.999991 (tan n=7)
    @pytest.mark.parametrize("mode", ["direct", "tau"])
    @pytest.mark.parametrize("kind, n, scale, x_bound", [
        (RcdfKind.LINEAR, 8, 1.0, None),
        (RcdfKind.TAN, 7, 1e-3, 1e-8),
    ], ids=["linear-n8", "tan-n7"])
    def test_order_seven_and_up_reach_t_end(self, kind, n, scale, x_bound, mode):
        ctrl = make_controller(n=n, etas=tuple(float(e) for e in range(n + 1, 1, -1)),
                               kind=kind)
        cfg = SimConfig(x0=(scale,) + (0.0,) * (n - 1), T_p=1.0, t_end=1.2, mode=mode)
        traj = simulate(IntegratorChain(n), ctrl, cfg)
        assert traj.t[-1] == cfg.t_end
        if x_bound is not None:
            at_T_p = traj.x[list(traj.t).index(cfg.T_p)]
            assert max(abs(v) for v in at_T_p) <= x_bound


class TestTauClock:
    def test_same_grid_as_direct_mode(self):
        ctrl = make_controller()
        cfg_d = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2, mode="direct")
        cfg_t = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2, mode="tau")
        td = simulate(IntegratorChain(2), ctrl, cfg_d)
        tt = simulate(IntegratorChain(2), ctrl, cfg_t)
        grid = [k * cfg_d.sample_dt for k in range(1, 500)]
        times_d = {s.t for s in td.samples}
        times_t = {s.t for s in tt.samples}
        for tk in grid:
            assert tk in times_d
            assert tk in times_t
        assert cfg_t.t_standoff in times_t
        assert tt.meta["mode"] == "tau"
        assert "tau_end" not in tt.meta
        # a direct config switched to the tau clock is the tau run, and says so
        switched = simulate(IntegratorChain(2), ctrl, dataclasses.replace(cfg_d, mode="tau"))
        assert switched.samples == tt.samples
        assert switched.meta == tt.meta

    def test_agrees_with_direct_mode(self):
        ctrl = make_controller(c=0.15, T_p=0.5)
        cfg_d = SimConfig(x0=(0.09, 0.1), T_p=0.5, t_end=0.6, mode="direct")
        cfg_t = SimConfig(x0=(0.09, 0.1), T_p=0.5, t_end=0.6, mode="tau")
        td = simulate(IntegratorChain(2), ctrl, cfg_d)
        tt = simulate(IntegratorChain(2), ctrl, cfg_t)
        for tk in (0.1, 0.25, 0.4, 0.499, 0.5, 0.6):
            a = td.sample_at(tk)
            b = tt.sample_at(tk)
            for va, vb in zip(a.x, b.x):
                assert vb == pytest.approx(va, abs=5e-9)


class TestRawPendulum:
    def test_energy_conserved_without_torque_or_friction(self):
        plant = Pendulum(friction=0.0)
        cfg = SimConfig(x0=(0.5, 0.0), T_p=0.5, t_end=1.0)
        traj = simulate_pendulum_raw(plant, cfg, lambda x, t: 0.0)
        e0 = pendulum_energy(plant, traj.samples[0].x)
        for s in traj.samples:
            drift = abs(pendulum_energy(plant, s.x) - e0) / e0
            assert drift < 1e-6

    def test_matches_linearized_closed_loop(self):
        # drive the raw dynamics with the torque that realizes the design
        # input; mid precision and a wide standoff because the feedback law
        # is evaluated in raw coordinates, where x1 - c hits roundoff early
        plant = Pendulum()
        ctrl = make_controller(c=0.15, T_p=0.5)

        def torque(x, t):
            return torque_map(plant, x, eval_control(ctrl, x, t))

        cfg_raw = SimConfig(x0=(0.09, 0.1), T_p=0.5, t_end=0.6,
                            rtol=1e-6, atol=1e-9, eps_stop=5e-7)
        raw = simulate_pendulum_raw(plant, cfg_raw, torque)

        cfg_lin = SimConfig(x0=(0.09, 0.1), T_p=0.5, t_end=0.6)
        lin = simulate(plant, ctrl, cfg_lin)

        for tk in (0.1, 0.2, 0.3, 0.45):
            a = raw.sample_at(tk)
            b = lin.sample_at(tk)
            assert a.x[0] == pytest.approx(b.x[0], abs=1e-6)
            assert a.x[1] == pytest.approx(b.x[1], abs=1e-5)
        angle_at_instant = raw.sample_at(0.5).x[0]
        assert angle_at_instant == pytest.approx(0.15, abs=1e-4)
        assert raw.meta["raw"] is True

    def test_step_budget_is_that_of_the_direct_clock(self):
        # the raw pendulum always runs on the direct clock: 1/1024 forces
        # 1024 steps per unit of t from t = 0, past the budget, although
        # the config is valid for a tau run; it is refused before a step
        def torque(x, t):
            raise AssertionError("the pendulum was integrated")

        cfg = SimConfig(x0=(0.3, 0.0), T_p=1.0, t_end=4883.0, sample_dt=0.1,
                        max_step=1 / 1024, mode="tau")
        with pytest.raises(ConfigurationError, match="forces at least 5.00019e\\+06 steps"):
            simulate_pendulum_raw(Pendulum(), cfg, torque)

    def test_reports_applied_torque_not_design_input(self):
        plant = Pendulum()
        traj = simulate_pendulum_raw(
            plant,
            SimConfig(x0=(0.3, 0.0), T_p=0.5, t_end=0.6, rtol=1e-6, atol=1e-9),
            lambda x, t: 0.25,
        )
        assert all(s.u == 0.25 for s in traj.samples)
        assert all(s.z is None for s in traj.samples)

    def test_records_its_terminal_window_like_every_run(self):
        # the raw run goes through the same runner as simulate, so it
        # records every accepted step boundary in [0.95 T_p, T_p), not
        # only the grid points there, as a direct simulate run does
        cfg = SimConfig(x0=(0.3, 0.0), T_p=0.5, t_end=0.6, rtol=1e-6, atol=1e-9,
                        mode="direct")
        raw = simulate_pendulum_raw(Pendulum(), cfg, lambda x, t: 0.25)
        lin = simulate(Pendulum(), make_controller(T_p=0.5), cfg)
        window_start = TERMINAL_WINDOW_START * cfg.T_p
        grid = [t for t in _pre_grid(cfg) if window_start <= t < cfg.T_p]
        for traj in (raw, lin):
            window = [t for t in traj.t if window_start <= t < cfg.T_p]
            assert set(grid) <= set(window)
            assert len(window) > len(grid)
        assert raw.meta["steps_accepted"] == 1200
        assert raw.meta["mode"] == "direct"

    def test_torque_is_stored_as_a_float(self):
        cfg = SimConfig(x0=(0.3, 0.0), T_p=0.5, t_end=0.6, rtol=1e-6, atol=1e-9)
        traj = simulate_pendulum_raw(Pendulum(), cfg, lambda x, t: 1)
        assert all(type(u) is float and u == 1.0 for u in traj.u)
        # an int past the float range is a sample that cannot be evaluated
        with pytest.raises(DivergenceError, match="sample could not be evaluated") as info:
            simulate_pendulum_raw(Pendulum(), cfg, lambda x, t: 10 ** 400)
        assert info.value.t == 0.0
        assert len(info.value.partial.t) == 0


class TestOpenLoopSelfTest:
    """The open_loop switch integrates the free chain while keeping the
    error bookkeeping, producing a run the verifier has to reject."""

    def test_states_drift_and_input_is_zero(self):
        ctrl = make_controller()
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2, open_loop=True)
        traj = simulate(IntegratorChain(2), ctrl, cfg)
        assert traj.meta["open_loop"] is True
        assert all(s.u == 0.0 for s in traj.samples)
        # with x2(0) = 0 the uncontrolled chain never moves
        assert all(s.x == (1.0, 0.0) for s in traj.samples)

    def test_error_columns_keep_the_closed_loop_definitions(self):
        ctrl = make_controller()
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2, open_loop=True)
        traj = simulate(IntegratorChain(2), ctrl, cfg)
        mid = traj.sample_at(0.5)
        assert mid.z[0] == pytest.approx(1.0)
        # z2 = x2 + 3 z1 / gap grows as the instant approaches
        assert mid.z[1] == pytest.approx(3.0 / 0.5)
        t, z, V, dV = traj.pre_instant_arrays()
        assert V[-1] > 1e10
        assert all(v < 0 for v in dV)  # the law's claimed rate, not the true one

    def test_tau_mode_honors_the_switch(self):
        ctrl = make_controller()
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2,
                        mode="tau", open_loop=True)
        traj = simulate(IntegratorChain(2), ctrl, cfg)
        assert all(s.u == 0.0 for s in traj.samples)
        assert traj.sample_at(1.2).x == (1.0, 0.0)

    def test_default_is_closed_loop(self):
        ctrl = make_controller()
        traj = simulate(IntegratorChain(2), ctrl,
                        SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2))
        assert traj.meta["open_loop"] is False
        assert any(s.u != 0.0 for s in traj.samples)

    def test_flag_must_be_a_bool(self):
        with pytest.raises(ConfigurationError, match="open_loop"):
            SimConfig(x0=(1.0,), T_p=1.0, t_end=1.2, open_loop=1)


class TestErrorDynamics:
    def test_stage_errors_follow_the_cascade(self):
        """Differentiating the recorded z columns recovers the cascade
        z1' = z2 - psi1, zi' = z(i+1) - z(i-1) - psi(i), zn' = -z(n-1) - psin.

        The five-point slope on the uniform sample grid carries truncation
        far above the integrator's 1e-9, so the comparison tolerance is set
        by the stencil, not the run accuracy.
        """
        etas = (4.0, 3.0, 2.0)
        ctrl = make_controller(n=3, etas=etas)
        cfg = SimConfig(x0=(1.0, 0.0, 0.0), T_p=1.0, t_end=1.2)
        traj = simulate(IntegratorChain(3), ctrl, cfg)
        h = cfg.sample_dt
        grid = [s for s in traj.samples if s.z is not None and s.t <= 0.9]
        assert len(grid) > 400
        spec = ctrl.config.stages

        worst = 0.0
        for i in range(2, len(grid) - 2):
            s = grid[i]
            assert grid[i + 1].t - s.t == pytest.approx(h, rel=1e-9)
            gap = 1.0 - s.t
            want = (
                s.z[1] - psi(spec[0], s.z[0], s.t, 1.0),
                s.z[2] - s.z[0] - psi(spec[1], s.z[1], s.t, 1.0),
                -s.z[1] - psi(spec[2], s.z[2], s.t, 1.0),
            )
            for k in range(3):
                slope = (
                    -grid[i + 2].z[k] + 8.0 * grid[i + 1].z[k]
                    - 8.0 * grid[i - 1].z[k] + grid[i - 2].z[k]
                ) / (12.0 * h)
                worst = max(worst, abs(slope - want[k]) / max(1.0, abs(want[k])))
        assert worst < 1e-6
