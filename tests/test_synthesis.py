"""Backstepping synthesis: recursion structure, collected control laws,
setpoint handling, the evaluation gate at the prescribed instant, the bits
and thread safety of high-order synthesis, and the one-walk Lie derivative
against the sum of partial derivatives it replaced."""

import hashlib
import math
import random
import struct
import sys
import threading

import pytest

import psis.symdiff as sd
from psis.errors import ConfigurationError, SingularityError
from psis.rcdf import RcdfKind, RcdfSpec
from psis.synthesis import (
    SynthesisConfig,
    describe,
    error_coordinates,
    eval_control,
    psi_expr,
    synthesize,
    zero_setpoint_twin,
)


def linear_config(n=2, c=0.0, T_p=1.0, etas=(3.0, 2.0)):
    stages = tuple(RcdfSpec(kind=RcdfKind.LINEAR, eta=e) for e in etas)
    return SynthesisConfig(n=n, c=c, T_p=T_p, stages=stages)


class TestConfig:
    def test_floor_violation_rejected_with_stage_detail(self):
        stages = (
            RcdfSpec(kind=RcdfKind.LINEAR, eta=1.5),
            RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0),
        )
        with pytest.raises(ConfigurationError, match=r"stage 1: eta=1.5 needs > 2"):
            SynthesisConfig(n=2, c=0.0, T_p=1.0, stages=stages)

    def test_mixed_kinds_synthesize_without_an_opt_in(self):
        # the single-family rule belongs to the decay audit, not to synthesis
        stages = (
            RcdfSpec(kind=RcdfKind.TAN, eta=3.0),
            RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0),
        )
        cfg = SynthesisConfig(n=2, c=0.0, T_p=1.0, stages=stages)
        assert synthesize(cfg).config is cfg

    def test_allow_mixed_kinds_keyword_is_refused(self):
        stages = (
            RcdfSpec(kind=RcdfKind.TAN, eta=3.0),
            RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0),
        )
        with pytest.raises(TypeError, match="allow_mixed_kinds"):
            SynthesisConfig(n=2, c=0.0, T_p=1.0, stages=stages, allow_mixed_kinds=True)

    def test_order_and_horizon_validation(self):
        stage = (RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0),)
        with pytest.raises(ConfigurationError):
            SynthesisConfig(n=0, c=0.0, T_p=1.0, stages=())
        with pytest.raises(ConfigurationError):
            SynthesisConfig(n=1, c=0.0, T_p=0.0, stages=stage)
        with pytest.raises(ConfigurationError):
            SynthesisConfig(n=1, c=math.nan, T_p=1.0, stages=stage)


class TestFirstOrder:
    def test_law_is_minus_psi(self):
        cfg = SynthesisConfig(
            n=1, c=0.0, T_p=1.0, stages=(RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0),)
        )
        ctrl = synthesize(cfg)
        # u = -2 x1 / (1 - t)
        assert eval_control(ctrl, [0.5], 0.0) == pytest.approx(-1.0, rel=1e-15)
        assert eval_control(ctrl, [0.5], 0.5) == pytest.approx(-2.0, rel=1e-15)

    def test_setpoint_shifts_the_error(self):
        cfg = SynthesisConfig(
            n=1, c=2.0, T_p=1.0, stages=(RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0),)
        )
        ctrl = synthesize(cfg)
        assert eval_control(ctrl, [2.0], 0.3) == 0.0
        assert error_coordinates(ctrl, [2.5], 0.3) == (0.5,)


class TestSecondOrder:
    def test_collected_linear_law(self):
        # backstepping with linear kernels collapses to
        #   u = -(e1 + e2) x2 / g - e1 (1 + e2) z1 / g^2 - z1,   g = T_p - t
        rng = random.Random(42)
        for e1, e2 in ((3.0, 2.0), (4.5, 2.5), (2.2, 1.3)):
            ctrl = synthesize(linear_config(etas=(e1, e2), c=0.7))
            for _ in range(25):
                x1 = rng.uniform(-2.0, 2.0)
                x2 = rng.uniform(-2.0, 2.0)
                t = rng.uniform(0.0, 0.95)
                g = 1.0 - t
                z1 = x1 - 0.7
                want = -(e1 + e2) * x2 / g - e1 * (1.0 + e2) * z1 / g ** 2 - z1
                got = eval_control(ctrl, [x1, x2], t)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_stage_errors(self):
        ctrl = synthesize(linear_config(c=0.15, T_p=0.5))
        # z1 = x1 - c, z2 = x2 + eta1 z1 / (T_p - t)
        z = error_coordinates(ctrl, [0.09, 0.1], 0.0)
        assert z[0] == pytest.approx(-0.06, abs=1e-15)
        assert z[1] == pytest.approx(0.1 + 3.0 * (-0.06) / 0.5, rel=1e-14)

    def test_recursion_is_lower_triangular(self):
        ctrl = synthesize(linear_config(n=3, etas=(4.0, 3.0, 2.0)))
        for i, z in enumerate(ctrl.z_exprs, start=1):
            used = sd.state_indices(z)
            assert used and max(used) <= i

    def test_compiled_matches_tree_evaluation(self):
        ctrl = synthesize(linear_config(c=0.15, T_p=0.5))
        rng = random.Random(5)
        for _ in range(50):
            x = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
            t = rng.uniform(0.0, 0.45)
            assert ctrl.compiled_u(x, t) == pytest.approx(
                sd.evaluate(ctrl.u_expr, x, t), rel=1e-15
            )
            for z_expr in ctrl.z_exprs:
                assert sd.compile_expr(z_expr, 2)(x, t) == pytest.approx(
                    sd.evaluate(z_expr, x, t), rel=1e-15
                )


class TestKernelExpressions:
    def test_psi_expr_matches_rate_law(self):
        from psis.rcdf import psi

        rng = random.Random(8)
        v = sd.StateVar(1)
        for kind in (RcdfKind.TAN, RcdfKind.LINEAR, RcdfKind.LOGEXP):
            spec = RcdfSpec(kind=kind, eta=2.5)
            expr = psi_expr(spec, v, 1.0)
            for _ in range(40):
                value = rng.uniform(-3.0, 3.0)
                t = rng.uniform(0.0, 0.9)
                assert sd.evaluate(expr, [value], t) == pytest.approx(
                    psi(spec, value, t, 1.0), rel=1e-13, abs=1e-15
                )

    def test_logexp_kernel_has_exact_zero(self):
        spec = RcdfSpec(kind=RcdfKind.LOGEXP, eta=2.0)
        expr = psi_expr(spec, sd.StateVar(1), 1.0)
        assert sd.evaluate(expr, [0.0], 0.5) == 0.0


class TestEvaluationGate:
    def test_control_is_cut_at_the_instant(self):
        ctrl = synthesize(linear_config())
        assert eval_control(ctrl, [1.0, 1.0], 1.0) == 0.0
        assert eval_control(ctrl, [1.0, 1.0], 2.0) == 0.0

    def test_errors_are_undefined_at_the_instant(self):
        ctrl = synthesize(linear_config())
        with pytest.raises(SingularityError):
            error_coordinates(ctrl, [1.0, 1.0], 1.0)

    def test_state_length_checked(self):
        ctrl = synthesize(linear_config())
        with pytest.raises(ConfigurationError):
            eval_control(ctrl, [1.0], 0.5)
        with pytest.raises(ConfigurationError):
            error_coordinates(ctrl, [1.0, 2.0, 3.0], 0.5)

    def test_negative_time_rejected(self):
        ctrl = synthesize(linear_config())
        for fn in (eval_control, error_coordinates):
            for t in (-0.1, math.nan):
                with pytest.raises(ConfigurationError, match="time must be finite"):
                    fn(ctrl, [1.0, 1.0], t)


class TestZeroSetpointTwin:
    def test_zero_setpoint_returns_same_object(self):
        ctrl = synthesize(linear_config(c=0.0))
        assert zero_setpoint_twin(ctrl) is ctrl

    def test_twin_is_built_once(self):
        ctrl = synthesize(linear_config(c=0.15, T_p=0.5))
        assert zero_setpoint_twin(ctrl) is zero_setpoint_twin(ctrl)

    def test_twin_reproduces_control_on_shifted_state(self):
        ctrl = synthesize(linear_config(c=0.15, T_p=0.5))
        twin = zero_setpoint_twin(ctrl)
        assert twin.config.c == 0.0
        rng = random.Random(12)
        for _ in range(50):
            x = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
            w = [x[0] - 0.15, x[1]]
            t = rng.uniform(0.0, 0.49)
            assert eval_control(twin, w, t) == pytest.approx(
                eval_control(ctrl, x, t), rel=1e-12, abs=1e-15
            )


class TestDescribe:
    def test_mentions_design_and_expressions(self):
        ctrl = synthesize(linear_config(c=0.15, T_p=0.5))
        text = describe(ctrl)
        assert "n=2" in text
        assert "T_p=0.5" in text
        assert "linear(eta=3.0)" in text
        assert "straight-line Python in x[0..1] and t" in text
        assert "z1 = " in text
        assert "x2d = " in text
        assert "u = " in text

    @pytest.mark.parametrize("kind, n, c, T_p", [
        (RcdfKind.LINEAR, 2, 0.15, 0.5),  # README's pendulum
        (RcdfKind.TAN, 4, 0.3, 1.0),
        (RcdfKind.LOGEXP, 3, 0.3, 1.0),
        (RcdfKind.LINEAR, 3, 0.3, 1.0),
    ], ids=["pendulum", "tan-n4", "logexp-n3", "linear-n3"])
    def test_let_form_computes_each_root_bit_for_bit(self, kind, n, c, T_p):
        # the printed law is straight-line Python after the three header
        # lines; executed, every labelled root must hold the compiled
        # root's bits
        ctrl = synthesize(chain_config(kind, n, c, T_p=T_p))
        code = compile("\n".join(describe(ctrl).splitlines()[3:]), "<describe>", "exec")
        roots = {f"z{i}": z for i, z in enumerate(ctrl.z_exprs, start=1)}
        roots.update(
            (f"x{i}d", ref) for i, ref in enumerate(ctrl.virtual_refs[:-1], start=2))
        roots["u"] = ctrl.u_expr
        compiled = {label: sd.compile_expr(e, n) for label, e in roots.items()}
        bits = struct.Struct("<d").pack
        rng = random.Random(24)
        for _ in range(200):
            x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            t = rng.uniform(0.0, 0.99 * T_p)
            namespace = dict(sd.COMPILED_GLOBALS, x=x, t=t)
            exec(code, namespace)
            for label, fn in compiled.items():
                assert bits(namespace[label]) == bits(fn(x, t)), (label, x, t)

    def test_text_grows_with_distinct_nodes(self):
        # tan n=6's u stands for 1.4e6 tree nodes over 599 distinct ones;
        # the let-form writes the distinct ones
        ctrl = synthesize(chain_config(RcdfKind.TAN, 6, 0.0))
        assert len(describe(ctrl).encode()) < 20_000


def chain_config(kind, n, c, T_p=1.0, etas=None):
    """Order-n chain of one kernel family, etas (n+1, ..., 2) by default."""
    etas = etas or tuple(float(n + 1 - i) for i in range(n))
    stages = tuple(RcdfSpec(kind=kind, eta=e) for e in etas)
    return SynthesisConfig(n=n, c=c, T_p=T_p, stages=stages)


def digest(fn):
    return hashlib.sha256(fn.__psis_source__.encode()).hexdigest()[:16]


def gap_power(expr, gap):
    """How often gap is a factor of expr's tree of products."""
    if expr is gap:
        return 1
    if isinstance(expr, sd.Mul):
        return gap_power(expr.left, gap) + gap_power(expr.right, gap)
    return 0


class TestHighOrderLaws:
    # sha256[:16] of each compiled source and the tree size of u: a change
    # to the law's construction or to the emitted text must show here (the
    # values are held to the one-local-per-node emitter in test_emitter.py)
    @pytest.mark.parametrize("kind, n, c, u_nodes, u_digest, z_digests", [
        (RcdfKind.TAN, 5, 0.0, 110_139, "5f14dac02a9ab1f9",
         ("5e8280e8ad564655", "e45e2c007e6f1c85", "0a4c09832e311077",
          "2a8686dcc0f9600e", "dcb43b1c3638baaf")),
        (RcdfKind.LOGEXP, 5, 0.15, 11_647, "1e0da9a4f915f895",
         ("2db36477af55d413", "da3229f0af1ef325", "d5a85de366a76ede",
          "8947d5ecd1e25fba", "87944cb210e43991")),
    ], ids=["tan-n5", "logexp-n5"])
    def test_compiled_sources_are_pinned(self, kind, n, c, u_nodes, u_digest, z_digests):
        ctrl = synthesize(chain_config(kind, n, c))
        assert sd.node_count(ctrl.u_expr) == u_nodes
        assert digest(ctrl.compiled_u) == u_digest
        assert tuple(digest(sd.compile_expr(z, n)) for z in ctrl.z_exprs) == z_digests

    def test_order_six_synthesizes(self):
        ctrl = synthesize(chain_config(RcdfKind.TAN, 6, 0.0))
        assert ctrl.compiled_u.__psis_source__.count("\n") == 218
        assert sd.node_count(ctrl.u_expr) == 1_398_889

    @pytest.mark.parametrize("kind, n", [(RcdfKind.LINEAR, 8), (RcdfKind.TAN, 7)],
                             ids=["linear-n8", "tan-n7"])
    def test_no_stage_squares_a_denominator(self, kind, n):
        # each stage differentiates the last one's quotients; a rule that
        # divides by b*b doubles the power of the gap T_p - t in a
        # denominator per stage, to 128 at linear n=8, and that power
        # underflows to 0 at T_p - t < 3e-3
        u = synthesize(chain_config(kind, n, 0.0)).u_expr
        gap = sd.Sub(sd.Const(1.0), sd.TimeVar())
        powers = [gap_power(e.right, gap) for e in sd._nodes(u) if isinstance(e, sd.Div)]
        assert 1 <= max(powers) <= 2

    def test_threads_build_one_dag(self):
        # etas and T_p no other test uses, so the threads intern fresh nodes;
        # a lost interning race would leave two equal nodes, and with them
        # two different u_expr objects
        cfg = chain_config(RcdfKind.TAN, 4, 0.0, T_p=0.75, etas=(5.25, 4.25, 3.25, 2.25))
        workers = 4
        start = threading.Barrier(workers)
        results = [None] * workers

        def run(i):
            start.wait(timeout=30.0)
            ctrl = synthesize(cfg)
            results[i] = (ctrl.u_expr, ctrl.compiled_u.__psis_source__)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        serial = synthesize(cfg)
        assert all(u_expr is serial.u_expr for u_expr, _ in results)
        assert all(source == serial.compiled_u.__psis_source__ for _, source in results)


def reference_lie_derivative(expr, n):
    """The Lie derivative built as d/dt + sum_j (d/dx_j) * x_{j+1}: one
    partial derivative per variable, summed, as synthesis once did."""
    total = sd.partial(expr, sd.TimeVar())
    for j in sorted(sd.state_indices(expr)):
        total = sd.Add(total, sd.Mul(sd.partial(expr, sd.StateVar(j)), sd.StateVar(j + 1)))
    return total


MIXED = SynthesisConfig(n=3, c=0.3, T_p=1.0, stages=tuple(
    RcdfSpec(kind=RcdfKind(k), eta=e)
    for k, e in zip(("tan", "linear", "logexp"), (4.0, 3.0, 2.0))
))


class TestLieDerivativeOracle:
    # the one-walk Lie derivative against the sum of partials: every z_i
    # and u agree to roundoff at 300 random (x, t) before T_p
    @pytest.mark.parametrize("config", [
        *(chain_config(RcdfKind.LINEAR, n, 0.0) for n in range(2, 9)),
        *(chain_config(RcdfKind.TAN, n, 0.0) for n in range(2, 7)),
        *(chain_config(RcdfKind.LOGEXP, n, 0.0) for n in range(2, 7)),
        MIXED,
    ], ids=lambda cfg: "-".join(sorted({s.kind.value for s in cfg.stages})) + f"-n{cfg.n}")
    def test_laws_match_the_sum_of_partials(self, monkeypatch, config):
        ctrl = synthesize(config)
        with monkeypatch.context() as patch:
            patch.setattr(sd, "lie_derivative", reference_lie_derivative)
            ref = synthesize(config)
        n = config.n
        pairs = [(sd.compile_expr(a, n), sd.compile_expr(b, n))
                 for a, b in zip(ctrl.z_exprs + (ctrl.u_expr,), ref.z_exprs + (ref.u_expr,))]
        rng = random.Random(n)
        for _ in range(300):
            x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            t = rng.uniform(0.0, 0.99)
            for fn, ref_fn in pairs:
                expected = ref_fn(x, t)
                assert abs(fn(x, t) - expected) <= 1e-12 * max(1.0, abs(expected))
