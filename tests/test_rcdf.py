"""Kernel, rate-law, and closed-form behavior of the RCDF family."""

import math
import random

import pytest

import psis.symdiff as sd
from psis.errors import ConfigurationError, DomainError, SingularityError
from psis.rcdf import (
    KERNELS,
    RcdfKind,
    RcdfSpec,
    closed_form,
    psi,
    psi_expr,
    validate_stage_etas,
    zeta,
)

ALL_KINDS = (RcdfKind.TAN, RcdfKind.LINEAR, RcdfKind.LOGEXP)


class TestKind:
    def test_from_name_accepts_case_and_whitespace(self):
        assert RcdfKind.from_name(" Tan ") is RcdfKind.TAN
        assert RcdfKind.from_name("LINEAR") is RcdfKind.LINEAR
        assert RcdfKind.from_name("logexp") is RcdfKind.LOGEXP

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown RCDF kind"):
            RcdfKind.from_name("cubic")


class TestSpec:
    def test_eta_must_exceed_one(self):
        with pytest.raises(ConfigurationError, match="exceed 1"):
            RcdfSpec(kind=RcdfKind.LINEAR, eta=1.0)
        with pytest.raises(ConfigurationError, match="exceed 1"):
            RcdfSpec(kind=RcdfKind.TAN, eta=0.5)

    def test_eta_must_be_finite(self):
        with pytest.raises(ConfigurationError, match="finite"):
            RcdfSpec(kind=RcdfKind.LINEAR, eta=math.inf)
        with pytest.raises(ConfigurationError, match="finite"):
            RcdfSpec(kind=RcdfKind.LINEAR, eta=math.nan)

    def test_kind_must_be_enum(self):
        with pytest.raises(ConfigurationError, match="RcdfKind"):
            RcdfSpec(kind="linear", eta=2.0)

    def test_frozen(self):
        spec = RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0)
        with pytest.raises(AttributeError):
            spec.eta = 3.0


class TestZeta:
    def test_tan_kernel_value(self):
        # (1^2 + 1) * arctan(1) = 2 * pi/4
        assert zeta(RcdfKind.TAN, 1.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_linear_kernel_is_identity(self):
        for v in (-3.0, -0.25, 0.0, 0.25, 3.0):
            assert zeta(RcdfKind.LINEAR, v) == v

    def test_logexp_kernel_value(self):
        assert zeta(RcdfKind.LOGEXP, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)

    def test_logexp_zero_is_exactly_zero(self):
        assert zeta(RcdfKind.LOGEXP, 0.0) == 0.0

    def test_logexp_small_argument_precision(self):
        # expm1 keeps 1 - exp(-v) accurate where naive subtraction loses digits
        v = 1e-12
        assert zeta(RcdfKind.LOGEXP, v) == pytest.approx(v, rel=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
    def test_symbolic_kernel_is_the_float_kernel(self, kind):
        # the form synthesis differentiates gives zeta's bits, from the
        # subnormals to the edge of the float range
        expr = KERNELS[kind].expr(sd.StateVar(1))
        fn = sd.compile_expr(expr, 1)
        sweep = [10.0 ** (k / 8.0) for k in range(-2600, 2465)]
        points = [1e-17, 5e-324, 2.2e-308, 0.3, 2.5, 1e-8, 40.0, 1e308, *sweep]
        for v in [0.0, -0.0] + points + [-p for p in points]:
            want = repr(zeta(kind, v))
            assert repr(sd.evaluate(expr, [v], 0.0)) == want
            assert repr(fn([v], 0.0)) == want

    def test_all_kernels_odd(self):
        rng = random.Random(20260816)
        for _ in range(200):
            v = rng.uniform(-5.0, 5.0)
            for kind in ALL_KINDS:
                assert zeta(kind, -v) == pytest.approx(-zeta(kind, v), abs=1e-15)

    def test_all_kernels_strictly_increasing(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.uniform(-4.0, 4.0)
            b = a + rng.uniform(1e-6, 0.5)
            for kind in ALL_KINDS:
                assert zeta(kind, b) > zeta(kind, a)

    def test_zero_only_at_zero(self):
        for kind in ALL_KINDS:
            assert zeta(kind, 0.0) == 0.0
            assert zeta(kind, 1e-9) > 0.0
            assert zeta(kind, -1e-9) < 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            zeta(RcdfKind.LINEAR, math.inf)
        with pytest.raises(DomainError):
            zeta(RcdfKind.TAN, math.nan)


class TestPsi:
    def test_hand_value(self):
        # eta * v / (T_p - t) = 3 * 0.5 / 0.5
        spec = RcdfSpec(kind=RcdfKind.LINEAR, eta=3.0)
        assert psi(spec, 0.5, 0.5, 1.0) == pytest.approx(3.0, rel=1e-15)

    def test_gain_grows_toward_the_instant(self):
        spec = RcdfSpec(kind=RcdfKind.TAN, eta=2.0)
        values = [psi(spec, 0.7, t, 1.0) for t in (0.0, 0.5, 0.9, 0.99)]
        assert values == sorted(values)

    def test_singular_at_and_after_the_instant(self):
        spec = RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0)
        with pytest.raises(SingularityError):
            psi(spec, 1.0, 1.0, 1.0)
        with pytest.raises(SingularityError):
            psi(spec, 1.0, 1.5, 1.0)

    def test_rejects_negative_time(self):
        spec = RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0)
        with pytest.raises(DomainError):
            psi(spec, 1.0, -0.1, 1.0)

    def test_rejects_bad_horizon(self):
        spec = RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0)
        with pytest.raises(ConfigurationError):
            psi(spec, 1.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            psi(spec, 1.0, 0.0, -2.0)

    def test_singularity_error_is_a_domain_error(self):
        spec = RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0)
        with pytest.raises(DomainError):
            psi(spec, 1.0, 2.0, 1.0)


class TestOneDefinition:
    """Each kernel and the rate law are written once, as expressions; every
    float form of them is rendered from those."""

    @pytest.mark.parametrize("kind, text", [
        (RcdfKind.TAN, "((({v} * {v}) + 1.0) * arctan({v}))"),
        (RcdfKind.LINEAR, "{v}"),
        (RcdfKind.LOGEXP, "satexp({v})"),
    ], ids=["tan", "linear", "logexp"])
    def test_kernel_source_is_the_rendered_expression(self, kind, text):
        expr = KERNELS[kind].expr(sd.StateVar(1))
        lines = []
        rendered = sd.code_emitter([expr], lines)(expr)
        assert lines == []
        assert KERNELS[kind].source == rendered.replace("x[0]", "{v}") == text

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
    def test_psi_evaluates_the_law_that_synthesis_builds(self, kind):
        rng = random.Random(20261020)
        for eta, T_p in ((2.0, 1.0), (3.5, 0.5), (7.0, 1e-3)):
            spec = RcdfSpec(kind=kind, eta=eta)
            law = sd.compile_expr(psi_expr(spec, sd.StateVar(1), T_p), 1)
            for _ in range(500):
                v = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-20.0, 3.0)
                t = rng.uniform(0.0, T_p) * rng.choice((1.0, 1.0 - 1e-12))
                assert repr(psi(spec, v, t, T_p)) == repr(law([v], t))

    def test_compiled_globals_hold_no_kernel_written_out_by_hand(self):
        # a hand-written logexp kernel would call these; its rendering calls satexp
        assert "expm1" not in sd.COMPILED_GLOBALS
        assert "copysign" not in sd.COMPILED_GLOBALS


class TestClosedForm:
    def test_linear_value(self):
        spec = RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0)
        assert closed_form(spec, 0.5, 1.0) == pytest.approx(0.25, rel=1e-15)

    def test_logexp_value(self):
        spec = RcdfSpec(kind=RcdfKind.LOGEXP, eta=2.0)
        assert closed_form(spec, 0.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_tan_value(self):
        spec = RcdfSpec(kind=RcdfKind.TAN, eta=2.0)
        assert closed_form(spec, 0.0, 1.0) == pytest.approx(math.tan(1.0), rel=1e-15)

    def test_zero_exactly_at_the_instant(self):
        for kind in ALL_KINDS:
            spec = RcdfSpec(kind=kind, eta=2.0)
            assert closed_form(spec, 1.0, 1.0) == 0.0

    def test_tan_horizon_guard(self):
        # (T_p - t)^eta = 2^1.5 > pi/2 at t = 0, fine near the instant
        spec = RcdfSpec(kind=RcdfKind.TAN, eta=1.5)
        with pytest.raises(DomainError, match="pi/2"):
            closed_form(spec, 0.0, 2.0)
        assert closed_form(spec, 1.9, 2.0) > 0.0

    def test_rejects_time_outside_horizon(self):
        spec = RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0)
        with pytest.raises(DomainError):
            closed_form(spec, -0.1, 1.0)
        with pytest.raises(DomainError):
            closed_form(spec, 1.1, 1.0)

    def test_solves_the_rate_law(self):
        # d/dt closed_form == -psi(closed_form, t) via central differences
        rng = random.Random(99)
        h = 1e-7
        for kind in ALL_KINDS:
            spec = RcdfSpec(kind=kind, eta=2.5)
            for _ in range(50):
                t = rng.uniform(0.05, 0.9)
                v = closed_form(spec, t, 1.0)
                slope = (closed_form(spec, t + h, 1.0) - closed_form(spec, t - h, 1.0)) / (2.0 * h)
                assert slope == pytest.approx(-psi(spec, v, t, 1.0), rel=1e-6, abs=1e-9)

    def test_monotone_decay_to_zero(self):
        for kind in ALL_KINDS:
            spec = RcdfSpec(kind=kind, eta=2.0)
            values = [closed_form(spec, 0.1 * k, 1.0) for k in range(11)]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert values[-1] == 0.0


class TestStageFloors:
    def test_admissible_set_has_no_violations(self):
        specs = (
            RcdfSpec(kind=RcdfKind.LINEAR, eta=3.0),
            RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0),
        )
        assert validate_stage_etas(specs, 2) == []

    def test_floor_is_exclusive(self):
        # stage 1 of n=2 needs eta > 2; eta == 2 sits on the floor and fails
        specs = (
            RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0),
            RcdfSpec(kind=RcdfKind.LINEAR, eta=1.5),
        )
        violations = validate_stage_etas(specs, 2)
        assert len(violations) == 1
        assert violations[0].stage == 1
        assert violations[0].floor == 2.0

    def test_floors_descend_along_the_chain(self):
        specs = tuple(RcdfSpec(kind=RcdfKind.TAN, eta=1.5) for _ in range(3))
        violations = validate_stage_etas(specs, 3)
        # floors are 3, 2, 1; eta = 1.5 violates the first two only
        assert [v.stage for v in violations] == [1, 2]
        assert [v.floor for v in violations] == [3.0, 2.0]

    def test_wrong_length_rejected(self):
        specs = (RcdfSpec(kind=RcdfKind.LINEAR, eta=3.0),)
        with pytest.raises(ConfigurationError, match="expected 2"):
            validate_stage_etas(specs, 2)

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_stage_etas((), 0)
