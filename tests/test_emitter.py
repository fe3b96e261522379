"""The code emitter against the one-local-per-node emitter it replaced.

`reference_emitter` below is symdiff.code_emitter as it read before single-use
nodes were written inline: one assignment to a local per distinct node.  It
is kept here only as an oracle, the way tests/test_stepper.py keeps
`reference_chain_rhs`.  compile_expr and the law program (u, the vector
fields and the recorders) must give the same value, by repr, under either
emitter: on random DAGs over every operator and Pow, at signed zeros and
with non-finite constants.
"""

import itertools
import math
import random

import pytest

import psis.symdiff as sd
from psis import simulation as S
from psis.errors import DivergenceError
from psis.rcdf import RcdfKind, RcdfSpec
from psis.simulation import Trajectory
from psis.symdiff import Add, Const, Pow, Sin, StateVar, Sub, TimeVar, compile_expr
from psis.synthesis import Controller, SynthesisConfig

X1, X2, X3, T = StateVar(1), StateVar(2), StateVar(3), TimeVar()


def reference_emitter(lines):
    """emit(expr): one local v<k> per distinct node, appended to lines."""
    memo = {}
    count = itertools.count()

    def step(e, name_of):
        if isinstance(e, Const):
            return repr(e.value)
        if isinstance(e, StateVar):
            return f"x[{e.index - 1}]"
        if isinstance(e, TimeVar):
            return "t"
        if isinstance(e, sd._Binary):
            code = f"{name_of(e.left)} {e.name} {name_of(e.right)}"
        elif isinstance(e, Pow):
            code = f"({name_of(e.base)}) ** {repr(e.exponent)}"
        else:
            code = f"{e.name}({name_of(e.arg)})"
        name = f"v{next(count)}"
        lines.append(f"{name} = {code}")
        return name

    return lambda expr: sd._walk(expr, step, memo)


def with_reference_emitter(monkeypatch):
    monkeypatch.setattr(sd, "code_emitter", lambda roots, lines: reference_emitter(lines))


def outcome(fn, *args):
    """repr of fn(*args), or "raises": the emitters may order the same
    operations differently, so which error comes first may differ."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError, TypeError, DivergenceError):
        return "raises"


OPERATORS = [*sd._Binary.__subclasses__(), *sd._Unary.__subclasses__(), Pow]
LEAVES = [X1, X2, X3, T, Const(0.5), Const(-1.5), Const(0.0), Const(-0.0),
          Const(math.inf), Const(-math.inf), Const(math.nan)]


def random_dag(rng, size, drawn):
    """A DAG of size operation nodes over LEAVES; each operand is an
    earlier node or a leaf, so nodes are read once, several times or not
    at all.  Returns every node built, last the root."""
    pool = []

    def operand():
        if pool and rng.random() < 0.8:
            return rng.choice(pool[-4:])
        return rng.choice(LEAVES)

    for _ in range(size):
        op = rng.choice(OPERATORS)
        if op is Pow:
            node = Pow(operand(), rng.choice((-1.0, 0.5, 2.0, 3.0)))
        elif issubclass(op, sd._Binary):
            node = op(operand(), operand())
        else:
            node = op(operand())
        drawn.add(op)
        pool.append(node)
    return pool


def draws(rng, n, count):
    """Random states and times, then every pattern of signed zeros."""
    points = [([rng.uniform(-2.0, 2.0) for _ in range(n)], rng.uniform(0.0, 0.99))
              for _ in range(count)]
    zeros = [[*signs] for signs in itertools.product((0.0, -0.0), repeat=n)]
    return points + [(x, t) for x in zeros for t in (0.0, -0.0)]


def test_compiled_values_match_the_reference_on_random_dags(monkeypatch):
    rng = random.Random(11)
    drawn = set()
    for _ in range(150):
        root = random_dag(rng, rng.randint(1, 25), drawn)[-1]
        fn = compile_expr(root, 3)
        with monkeypatch.context() as m:
            with_reference_emitter(m)
            reference = compile_expr(root, 3)
        for x, t in draws(rng, 3, 10):
            assert outcome(fn, x, t) == outcome(reference, x, t)
    assert drawn == set(OPERATORS)


def random_controller(rng, drawn):
    """An order-3 law whose z's and u are random DAGs over one pool, with
    u built over the z's, as a synthesized u is."""
    nodes = random_dag(rng, 30, drawn)
    z = tuple(rng.choice(nodes) for _ in range(3))
    u = nodes[-1]
    for zi in z:
        u = rng.choice(sd._Binary.__subclasses__())(u, zi)
    stages = tuple(RcdfSpec(kind=kind, eta=eta)
                   for kind, eta in zip(RcdfKind, (4.0, 3.0, 2.0)))
    config = SynthesisConfig(n=3, c=0.0, T_p=1.0, stages=stages)
    return lambda: Controller(config=config, z_exprs=z, virtual_refs=(u,))


def run_program(program, points):
    """Every output of a law program at points: u, the three fields, and
    the rows record and record_free append."""
    traj = Trajectory()
    record, record_free = program.make(0.25, traj)
    got = []
    for x, t in points:
        if program.u is not None:
            got.append(outcome(program.u, x, t))
        got += [outcome(program.field, t, x), outcome(program.field_tau, 20.0 * t, x),
                outcome(program.free_field, t, x), outcome(record, t, x),
                outcome(record_free, 1.0 + t, x)]
    columns = (traj.t, traj.x, traj.u, traj.z, traj.V, traj.dV)
    return got, repr(columns)


@pytest.mark.parametrize("open_loop", [False, True])
def test_program_matches_the_reference_on_random_laws(monkeypatch, open_loop):
    rng = random.Random(13 + open_loop)
    drawn = set()
    for _ in range(40):
        law = random_controller(rng, drawn)
        points = draws(rng, 3, 10)
        generated = run_program(S._program(law(), open_loop), points)
        with monkeypatch.context() as m:
            with_reference_emitter(m)
            reference = run_program(S._program(law(), open_loop), points)
        assert generated == reference
    assert drawn == set(OPERATORS)


def bracket_depth(source):
    depth = deepest = 0
    for char in source:
        if char in "([":
            depth += 1
            deepest = max(deepest, depth)
        elif char in ")]":
            depth -= 1
    return deepest


@pytest.mark.parametrize("link", [
    lambda e, i: Sub(Const(float(i)), e),
    lambda e, i: Sin(e),
    lambda e, i: Pow(e, 2.0 if i % 2 else 0.5),
], ids=["binary", "unary", "pow"])
def test_single_use_chain_deeper_than_the_cap(monkeypatch, link):
    e = Add(X1, Const(0.25))
    for i in range(3 * sd._INLINE_DEPTH):
        e = link(e, i)
    fn = compile_expr(e, 1)
    source = fn.__psis_source__
    # the cap broke the chain into locals, and no line nests deeper than it
    assert source.count(" = ") >= 2
    assert max(map(bracket_depth, source.splitlines())) <= sd._INLINE_DEPTH + 1
    with monkeypatch.context() as m:
        with_reference_emitter(m)
        reference = compile_expr(e, 1)
    for x in (0.9, -0.0, 0.3):
        assert repr(fn([x], 0.0)) == repr(reference([x], 0.0))
