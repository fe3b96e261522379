"""Expression DAGs: interning, evaluation, exact differentiation,
simplification, printing, and compilation."""

import copy
import gc
import math
import os
import pathlib
import pickle
import random
import subprocess
import sys
import textwrap
import threading
import weakref

import pytest

import psis.symdiff as sd
from psis.errors import EvaluationError, StructureError
from psis.symdiff import (
    Abs,
    Add,
    Arctan,
    Const,
    Cos,
    Div,
    Exp,
    Ln,
    Mul,
    Pow,
    Satexp,
    Sign,
    Sin,
    StateVar,
    Sub,
    Tan,
    TimeVar,
    compile_expr,
    evaluate,
    lie_derivative,
    node_count,
    partial,
    simplify,
    state_indices,
)

X1, X2, X3 = StateVar(1), StateVar(2), StateVar(3)
T = TimeVar()
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def fd(expr, x, t, wrt_index=None, h=1e-6):
    """Central finite difference of expr at (x, t); wrt_index None means t."""
    if wrt_index is None:
        return (evaluate(expr, x, t + h) - evaluate(expr, x, t - h)) / (2.0 * h)
    lo = list(x)
    hi = list(x)
    lo[wrt_index - 1] -= h
    hi[wrt_index - 1] += h
    return (evaluate(expr, hi, t) - evaluate(expr, lo, t)) / (2.0 * h)


class TestEvaluate:
    def test_arithmetic(self):
        e = (X1 + 2.0) * X2 - X1 / 4.0
        assert evaluate(e, [2.0, 3.0], 0.0) == pytest.approx(11.5, rel=1e-15)

    def test_operator_overloads_wrap_numbers(self):
        e = 1.0 + X1
        assert isinstance(e, Add)
        assert isinstance(e.left, Const)
        e = 2.0 - X1
        assert evaluate(e, [0.5], 0.0) == 1.5
        e = -X1
        assert evaluate(e, [0.5], 0.0) == -0.5

    def test_time_variable(self):
        e = Mul(T, T)
        assert evaluate(e, [], 3.0) == 9.0

    def test_unary_functions(self):
        x = [0.7]
        assert evaluate(Sin(X1), x, 0.0) == math.sin(0.7)
        assert evaluate(Cos(X1), x, 0.0) == math.cos(0.7)
        assert evaluate(Tan(X1), x, 0.0) == math.tan(0.7)
        assert evaluate(Arctan(X1), x, 0.0) == math.atan(0.7)
        assert evaluate(Exp(X1), x, 0.0) == math.exp(0.7)
        assert evaluate(Ln(X1), x, 0.0) == math.log(0.7)
        assert evaluate(Abs(X1), [-0.7], 0.0) == 0.7
        assert evaluate(Satexp(X1), [-0.7], 0.0) == math.expm1(-0.7)

    def test_satexp_keeps_small_arguments(self):
        # 1 - exp(-|v|) written out is exactly 0 below about 1.1e-16
        for v, want in ((1e-17, 1e-17), (-1e-300, -1e-300), (5e-324, 5e-324),
                        (0.0, 0.0), (-0.0, 0.0)):
            assert repr(evaluate(Satexp(X1), [v], 0.0)) == repr(want)

    def test_sign_zero_is_zero(self):
        assert evaluate(Sign(X1), [0.0], 0.0) == 0.0
        assert evaluate(Sign(X1), [-2.0], 0.0) == -1.0
        assert evaluate(Sign(X1), [2.0], 0.0) == 1.0

    def test_pow_corner_cases(self):
        assert evaluate(Pow(X1, 0.0), [0.0], 0.0) == 1.0
        assert evaluate(Pow(X1, 2.0), [-3.0], 0.0) == 9.0
        with pytest.raises(EvaluationError):
            evaluate(Pow(X1, -1.0), [0.0], 0.0)
        with pytest.raises(EvaluationError):
            evaluate(Pow(X1, 0.5), [-1.0], 0.0)

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate(Div(Const(1.0), X1), [0.0], 0.0)

    def test_log_domain(self):
        with pytest.raises(EvaluationError):
            evaluate(Ln(X1), [0.0], 0.0)
        with pytest.raises(EvaluationError):
            evaluate(Ln(X1), [-1.0], 0.0)

    def test_overflow_is_reported(self):
        with pytest.raises(EvaluationError):
            evaluate(Exp(X1), [1e4], 0.0)

    def test_math_domain_error_is_reported(self):
        for op in (Sin, Cos, Tan):
            with pytest.raises(EvaluationError, match=f"{op.__name__} undefined at inf"):
                evaluate(op(X1), [math.inf], 0.0)

    def test_short_state_vector(self):
        with pytest.raises(StructureError):
            evaluate(X3, [1.0, 2.0], 0.0)

    def test_pow_exponent_must_be_constant_float(self):
        assert evaluate(Pow(Const(2.0), 3.0), [], 0.0) == 8.0


class TestStructureHelpers:
    def test_state_indices(self):
        e = Add(Mul(X1, X3), Sin(T))
        assert state_indices(e) == frozenset({1, 3})
        assert state_indices(Const(2.0)) == frozenset()

    def test_node_count(self):
        e = Add(Mul(X1, X2), Const(1.0))
        assert node_count(e) == 5

    def test_node_count_counts_tree_occurrences(self):
        shared = Mul(X1, X2)
        assert node_count(Add(shared, shared)) == 7
        assert node_count(doubling(X1, 60)) == 2 ** 61 - 1

    def test_helpers_reach_nodes_through_walk(self, monkeypatch):
        # one _walk per root, and the roots share its memo
        walked = []
        walk = sd._walk

        def counted(expr, step, memo=None):
            walked.append(expr)
            return walk(expr, step, memo)

        monkeypatch.setattr(sd, "_walk", counted)
        e = Add(Mul(X1, X3), Sin(Mul(X1, X3)))
        assert state_indices(e) == frozenset({1, 3}) and walked == [e]
        walked.clear()
        assert node_count(e) == 8 and walked == [e]
        walked.clear()
        sd.code_emitter([e, X1], [])
        assert walked == [e, X1]
        order = sd._nodes(e, X1, Sin(T))
        assert len(order) == len(set(order)) == 7
        assert all(order.index(child) < order.index(node)
                   for node in order for child in sd._children(node))

    def test_no_pass_needs_a_deeper_stack_than_synthesize(self):
        # Every law is built by _walk's recursion, and synthesize refuses
        # one that nests past the recursion limit.  At the lowest limit
        # that builds each law, every later pass over it still completes.
        code = textwrap.dedent("""
            import sys
            from psis import simulation, symdiff as sd
            from psis.errors import ConfigurationError
            from psis.rcdf import RcdfKind, RcdfSpec
            from psis.synthesis import (
                SynthesisConfig, describe, eval_control, synthesize)

            def at_limit(limit, fn, *args):
                old = sys.getrecursionlimit()
                sys.setrecursionlimit(limit)
                try:
                    return fn(*args)
                finally:
                    sys.setrecursionlimit(old)

            def built(config):
                try:
                    return synthesize(config)
                except ConfigurationError:
                    return None

            def later_passes(ctrl):
                n = ctrl.config.n
                x = [0.1] + [0.0] * (n - 1)
                describe(ctrl)
                sd.compile_expr(ctrl.u_expr, n)
                simulation._program_source(ctrl, False)
                simulation._program_source(ctrl, True)
                sd.state_indices(ctrl.u_expr)
                sd.node_count(ctrl.u_expr)
                eval_control(ctrl, x, 0.25)
                for z in ctrl.z_exprs:
                    sd.evaluate(z, x, 0.25)

            for kind, n in [("linear", 3), ("linear", 6), ("linear", 8), ("tan", 4)]:
                stages = tuple(RcdfSpec(kind=RcdfKind(kind), eta=float(eta))
                               for eta in range(n + 1, 1, -1))
                config = SynthesisConfig(n=n, c=0.0, T_p=1.0, stages=stages)
                lo, hi = 20, 1000
                assert at_limit(lo, built, config) is None
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if at_limit(mid, built, config) is None:
                        lo = mid
                    else:
                        hi = mid
                at_limit(hi, later_passes, at_limit(hi, built, config))
                print(kind, n, hi)
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 4, proc.stdout


class TestPartial:
    def test_product_rule(self):
        d = simplify(partial(Mul(X1, X2), X1))
        assert evaluate(d, [5.0, 7.0], 0.0) == 7.0

    def test_quotient_rule(self):
        d = partial(Div(X1, X2), X2)
        assert evaluate(d, [3.0, 2.0], 0.0) == pytest.approx(-0.75, rel=1e-15)

    def test_power_rule(self):
        d = simplify(partial(Pow(X1, 3.0), X1))
        assert evaluate(d, [2.0], 0.0) == 12.0

    def test_chain_rules_match_finite_differences(self):
        cases = [
            (Sin(Mul(X1, X2)), [0.4, 1.1]),
            (Cos(Add(X1, T)), [0.3]),
            (Tan(Mul(Const(0.3), X1)), [1.2]),
            (Arctan(Mul(X1, X1)), [0.8]),
            (Exp(Sub(X1, X2)), [0.5, 0.2]),
            (Ln(Add(Mul(X1, X1), Const(1.0))), [0.9]),
            (Satexp(Sub(X1, X2)), [0.5, 0.2]),
            (Satexp(Mul(X1, X1)), [-0.6]),
            (Satexp(X1), [-0.3]),
        ]
        for expr, x in cases:
            for idx in sorted(state_indices(expr)):
                exact = evaluate(partial(expr, StateVar(idx)), x, 0.5)
                approx = fd(expr, x, 0.5, idx)
                assert exact == pytest.approx(approx, rel=1e-7, abs=1e-9)

    def test_time_partial(self):
        expr = Mul(T, Sin(T))
        exact = evaluate(partial(expr, T), [], 0.8)
        assert exact == pytest.approx(fd(expr, [], 0.8), rel=1e-7)

    def test_abs_derivative_uses_sign(self):
        d = partial(Abs(X1), X1)
        assert evaluate(d, [-3.0], 0.0) == -1.0
        assert evaluate(d, [3.0], 0.0) == 1.0
        # the kink is resolved to slope 0, matching sign(0) = 0
        assert evaluate(d, [0.0], 0.0) == 0.0

    def test_satexp_slope_is_one_at_zero(self):
        # (1 - exp(-|v|)) sign(v) has slope exp(-|v|), so 1 at the origin
        d = partial(Satexp(X1), X1)
        assert [evaluate(d, [v], 0.0) for v in (0.0, -0.0, 2.0)] == [1.0, 1.0, math.exp(-2.0)]

    def test_sign_derivative_is_zero(self):
        d = partial(Sign(X1), X1)
        assert evaluate(d, [2.0], 0.0) == 0.0

    def test_constant_and_unrelated_variable(self):
        assert evaluate(partial(Const(4.0), X1), [1.0], 0.0) == 0.0
        assert evaluate(partial(X2, X1), [1.0, 1.0], 0.0) == 0.0
        assert evaluate(partial(X1, X1), [1.0], 0.0) == 1.0

    def test_wrt_must_be_a_variable(self):
        with pytest.raises(StructureError):
            partial(X1, Const(1.0))


class TestLieDerivative:
    def test_matches_chain_rule_by_hand(self):
        # g = x1^2, chain of order 2: dg/dt = 2 x1 x2
        g = Mul(X1, X1)
        d = simplify(lie_derivative(g, 2))
        assert evaluate(d, [3.0, 5.0], 0.0) == 30.0

    def test_includes_explicit_time_dependence(self):
        # g = t * x1: dg/dt = x1 + t * x2
        g = Mul(T, X1)
        d = lie_derivative(g, 2)
        assert evaluate(d, [3.0, 5.0], 2.0) == 13.0

    def test_rejects_top_state(self):
        # x2 is the last state of an order-2 chain; its derivative is the input
        with pytest.raises(StructureError, match="x2"):
            lie_derivative(Mul(X2, X2), 2)

    def test_rejects_bad_order(self):
        with pytest.raises(StructureError):
            lie_derivative(X1, 0)

    def test_polynomial_trajectory_oracle(self):
        # along x1 = p(t), x2 = p'(t), the Lie derivative of g(x1, x2, t)
        # must equal the time derivative of g(p(t), p'(t), t)
        rng = random.Random(31)
        for _ in range(20):
            coefs = [rng.uniform(-1.0, 1.0) for _ in range(4)]

            def p(t):
                return sum(c * t ** k for k, c in enumerate(coefs))

            def dp(t):
                return sum(k * c * t ** (k - 1) for k, c in enumerate(coefs) if k >= 1)

            def ddp(t):
                return sum(k * (k - 1) * c * t ** (k - 2) for k, c in enumerate(coefs) if k >= 2)

            g = Add(Mul(X1, X2), Mul(T, X1))
            lie = lie_derivative(g, 3)
            t0 = rng.uniform(0.2, 1.5)
            x = [p(t0), dp(t0), ddp(t0)]
            exact = evaluate(lie, x, t0)
            h = 1e-6
            g_of = lambda t: p(t) * dp(t) + t * p(t)
            approx = (g_of(t0 + h) - g_of(t0 - h)) / (2.0 * h)
            assert exact == pytest.approx(approx, rel=1e-6, abs=1e-8)


class TestSimplify:
    def test_additive_identities(self):
        assert simplify(Add(X1, Const(0.0))) == X1
        assert simplify(Sub(X1, Const(0.0))) == X1

    def test_multiplicative_identities(self):
        assert simplify(Mul(X1, Const(1.0))) == X1
        assert simplify(Mul(Const(0.0), X1)) == Const(0.0)

    def test_syntactic_cancellation(self):
        e = Sub(Mul(X1, X2), Mul(X1, X2))
        assert simplify(e) == Const(0.0)

    def test_double_negation(self):
        e = Sub(Const(0.0), Sub(Const(0.0), X1))
        assert simplify(e) == X1

    def test_constant_folding(self):
        e = Add(Const(2.0), Mul(Const(3.0), Const(4.0)))
        assert simplify(e) == Const(14.0)

    def test_pow_exponent_identities(self):
        assert simplify(Pow(X1, 1.0)) == X1
        assert simplify(Pow(X1, 0.0)) == Const(1.0)

    def test_division_identities(self):
        assert simplify(Div(Const(0.0), X1)) == Const(0.0)
        assert simplify(Div(X1, Const(1.0))) == X1

    def test_folding_never_introduces_errors(self):
        # 1/0 must survive as a tree, not raise during simplification
        e = Div(Const(1.0), Const(0.0))
        out = simplify(e)
        with pytest.raises(EvaluationError):
            evaluate(out, [], 0.0)
        # so must a math domain error
        e = Sin(Const(math.inf))
        assert simplify(e) is e

    def test_value_preserved_on_random_trees(self):
        rng = random.Random(1234)
        leaves = [X1, X2, T, Const(0.5), Const(2.0), Const(0.0), Const(1.0)]
        binary = [Add, Sub, Mul]
        unary = [Sin, Cos, Arctan, Exp]

        def build(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(leaves)
            if rng.random() < 0.7:
                op = rng.choice(binary)
                return op(build(depth - 1), build(depth - 1))
            return rng.choice(unary)(build(depth - 1))

        for _ in range(300):
            e = build(4)
            s = simplify(e)
            x = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
            t = rng.uniform(0.0, 2.0)
            a = evaluate(e, x, t)
            b = evaluate(s, x, t)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)
            assert node_count(s) <= node_count(e)


class TestCompile:
    def test_matches_evaluate_on_random_trees(self):
        rng = random.Random(77)
        leaves = [X1, X2, X3, T, Const(0.5), Const(1.5)]
        binary = [Add, Sub, Mul, Div]
        unary = [Sin, Cos, Tan, Arctan, Exp, Ln, Abs, Sign, Satexp]
        drawn = set()

        def positive(e):
            # at least 0.5: a denominator, log argument or power base
            return Add(Mul(e, e), Const(0.5))

        def build(depth):
            if depth == 0 or rng.random() < 0.25:
                return rng.choice(leaves)
            r = rng.random()
            if r < 0.6:
                op = rng.choice(binary)
                left, right = build(depth - 1), build(depth - 1)
                node = op(left, positive(right) if op is Div else right)
            elif r < 0.7:
                node = Pow(positive(build(depth - 1)), rng.choice((-1.5, 0.5, 2.0)))
            else:
                op = rng.choice(unary)
                arg = build(depth - 1)
                if op is Ln:
                    arg = positive(arg)
                elif op is Tan:
                    arg = Sin(arg)  # inside (-pi/2, pi/2)
                node = op(arg)
            drawn.add(type(node))
            return node

        for _ in range(200):
            e = build(5)
            fn = compile_expr(e, 3)
            x = [rng.uniform(-1.5, 1.5) for _ in range(3)]
            t = rng.uniform(0.0, 1.0)
            expected = evaluate(e, x, t)
            assert math.isfinite(expected)
            assert fn(x, t) == pytest.approx(expected, rel=1e-15, abs=1e-300)
        # every operator class, and Pow, was exercised
        operators = set(sd._Binary.__subclasses__()) | set(sd._Unary.__subclasses__())
        assert drawn == operators | {Pow}

    def test_shared_subtrees_evaluated_once(self):
        shared = Mul(Add(X1, Const(1.0)), Sin(X1))
        e = Add(Mul(shared, shared), shared)
        fn = compile_expr(e, 1)
        # the generated source binds the shared product to a single temp
        source = fn.__psis_source__
        assert source.count("sin(") == 1

    def test_negative_base_power(self):
        e = Pow(Sub(Const(0.0), Const(2.0)), 3.0)
        fn = compile_expr(e, 0)
        assert fn([], 0.0) == -8.0

    def test_sign_zero_in_compiled_code(self):
        fn = compile_expr(Sign(X1), 1)
        assert fn([0.0], 0.0) == 0.0

    def test_unknown_node_type_is_a_structure_error(self):
        class Foo(sd.Expr):
            pass

        with pytest.raises(StructureError, match="unknown node type Foo"):
            compile_expr(Add(Foo(), Const(1.0)), 0)

    def test_compiled_singularities_raise_raw(self):
        # compiled laws run inside integrators that gate the domain, so the
        # native exception is deliberate
        fn = compile_expr(Div(Const(1.0), X1), 1)
        with pytest.raises(ZeroDivisionError):
            fn([0.0], 0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_constants_compile(self, value):
        for e in (Add(X1, Const(value)), Mul(Const(value), Sin(X1))):
            got = compile_expr(e, 1)([0.5], 0.0)
            want = evaluate(e, [0.5], 0.0)
            assert repr(got) == repr(want) == repr(value)

    def test_folded_overflow_compiles(self):
        # simplify folds an overflowing product into Const(inf)
        e = Add(X1, simplify(Mul(Const(1e308), Const(10.0))))
        assert compile_expr(e, 1)([1.0], 0.0) == evaluate(e, [1.0], 0.0) == math.inf


def doubling(leaf, times):
    """leaf summed with itself `times` times over: a DAG of times + 1
    distinct nodes standing for a tree of 2 ** (times + 1) - 1."""
    e = leaf
    for _ in range(times):
        e = Add(e, e)
    return e


class TestNodeClasses:
    NODES = [Const(0.5), X1, T, Pow(T, 2.0), Add(X1, T), Div(X2, X1), Sin(X1), Sign(T)]

    @pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
    def test_nodes_are_immutable(self, node):
        for name in (*node.__match_args__, "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, Const(1.0))
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert not hasattr(node, "__dict__")

    def test_repr_names_the_fields(self):
        assert repr(Pow(T, 2)) == "Pow(base=TimeVar(), exponent=2.0)"
        assert repr(Sub(X1, Const(-0.0))) == "Sub(left=StateVar(index=1), right=Const(value=-0.0))"
        assert repr(Arctan(Abs(X2))) == "Arctan(arg=Abs(arg=StateVar(index=2)))"

    def test_positional_patterns_match_the_fields(self):
        def shape(e):
            match e:
                case Const(value):
                    return ("const", value)
                case StateVar(index):
                    return ("x", index)
                case TimeVar():
                    return ("t",)
                case Pow(base, exponent):
                    return ("pow", shape(base), exponent)
                case Mul(left, right) | Add(left, right):
                    return (type(e).__name__, shape(left), shape(right))
                case Exp(arg):
                    return ("exp", shape(arg))
            return None

        e = Add(Mul(Const(2.0), Pow(X1, 3.0)), Exp(T))
        assert shape(e) == (
            "Add", ("Mul", ("const", 2.0), ("pow", ("x", 1), 3.0)), ("exp", ("t",))
        )
        assert shape(Div(X1, X2)) is None


class TestInterning:
    def test_equal_structures_are_one_node(self):
        a = Add(Mul(X1, T), Const(2.0))
        b = Mul(StateVar(1), TimeVar()) + 2.0
        assert a is b
        assert hash(a) == object.__hash__(a)
        assert Const(1) is Const(1.0)
        assert Pow(X1, 2) is Pow(X1, 2.0)
        assert Add(X1, X2) is not Add(X2, X1)

    def test_floats_are_keyed_by_bits(self):
        assert Const(0.0) is not Const(-0.0)
        assert Mul(X1, Const(0.0)) is not Mul(X1, Const(-0.0))
        assert Pow(X1, 0.0) is not Pow(X1, -0.0)
        assert Const(math.nan) is not Const(math.nan)

    def test_dead_expressions_are_freed(self):
        ref = weakref.ref(Add(Sin(X1), Const(123.456)))
        gc.collect()
        assert ref() is None

    def test_concurrent_construction_yields_one_node(self):
        # more threads than cores building the same fresh nodes in step;
        # an unguarded lookup-then-insert loses some of these races
        workers, count = 4, 5000
        start = threading.Barrier(workers)
        built = [None] * workers

        def run(i):
            start.wait(timeout=30.0)
            built[i] = [Add(X1, Const(7.5e6 + k)) for k in range(count)]

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
        for nodes in built[1:]:
            assert all(a is b for a, b in zip(nodes, built[0], strict=True))

    def test_copies_are_the_interned_node(self):
        e = Div(Pow(Sub(X1, Const(-0.0)), 1.5), Sin(T))
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e

    def test_walkers_visit_each_distinct_node_once(self):
        # a tree walk over 2**61 nodes would never finish
        e = doubling(Mul(X1, Const(1.0)), 60)
        assert evaluate(e, [1.0], 0.0) == 2.0 ** 60
        assert simplify(e) is doubling(X1, 60)
        assert evaluate(partial(e, X1), [3.0], 0.0) == 2.0 ** 60
        assert compile_expr(e, 1)([1.0], 0.0) == 2.0 ** 60

    def test_first_error_is_the_tree_walks(self):
        shared = Div(Const(1.0), X1)  # divides by zero at x1 = 0
        x = [0.0, -1.0]               # and ln(x2) is undefined
        with pytest.raises(EvaluationError) as err:
            evaluate(Add(Mul(shared, Ln(X2)), Add(Ln(X2), shared)), x, 0.0)
        assert err.value.node_kind == "Div"
        with pytest.raises(EvaluationError) as err:
            evaluate(Add(Ln(X2), Mul(shared, shared)), x, 0.0)
        assert err.value.node_kind == "Ln"
