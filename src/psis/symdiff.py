"""Small symbolic engine for exact derivatives of control expressions.

Backstepping needs the exact time derivative of each virtual reference, and
those references are built from a fixed vocabulary: arithmetic, powers with
numeric exponents, and the handful of transcendentals appearing in the rate
kernels.  The logexp kernel is one node of its own, Satexp, because written
out as (1 - exp(-|v|)) sign(v) it loses every digit for small |v|.  A tiny
expression tree over that vocabulary is simpler and easier to audit than a
general computer-algebra dependency, so the engine lives here.

Expressions are immutable nodes, hash-consed at construction
(Filliâtre & Conchon, "Type-Safe Modular Hash-Consing", 2006): building a
node structurally equal to a live one returns the live one.  An expression
is therefore a DAG in which each distinct subexpression exists once, and
equality and hashing go by identity, which the simplifier's syntactic
cancellation relies on.  The interning key compares floats by their bits,
so 0.0 and -0.0 stay two nodes and NaN constants are never merged.  The
table holds its nodes weakly, so dead expressions are freed, and a lock
makes each lookup-or-insert atomic, so threads synthesizing at once still
share one node per structure.

Every pass over a DAG (evaluate, simplify, partial, lie_derivative,
code_emitter, state_indices and node_count) runs through _walk, which
keeps a memo on node identity for the one call (code_emitter's lasts over
the roots of one program): each distinct node is visited once, and the
result is that of a walk over the tree the DAG stands for.  node_count
still counts tree occurrences, a shared subexpression once per place it
appears.

code_emitter turns the DAG into straight-line Python, and it is the one
renderer of an expression: the compiled law and synthesis.describe's
printed let-form both come from it.  It counts up front how many places
read each node, so a node read once is written inline in its reader's
expression and only a node read more than once costs a local store and
loads; the operations and their operands do not change, so neither do the
values.  compile_source is the one place psis executes generated code: the
compiled law, the kernel functions, the simulator's step loop and law
programs, and the audit's envelope pass all run in a copy of
COMPILED_GLOBALS, the one table of names generated code calls.

Each operator is declared once, as a subclass of _Binary or _Unary that
states its compiled name and its float function as class keywords
(class Add(_Binary, name="+", fn=operator.add)).  evaluate, simplify and
code_emitter dispatch on those two bases and read the name and function
from the node.  Pow keeps its own rules everywhere, because its exponent is
part of the node.  Only the derivative rules in _partial are spelt out per
class.

Notes on conventions:
  * sign(0) evaluates to 0, matching the rate kernels.
  * 0^0 evaluates to 1, so folded power rules stay total.
  * simplify only guarantees agreement at points where both the input and
    the output evaluate; rewrites such as e - e -> 0 may remove spurious
    singular points, never introduce them.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
import threading
import weakref
from typing import Callable, Mapping, Sequence, TypeVar, Union

from .errors import EvaluationError, StructureError

Number = Union[int, float]
_R = TypeVar("_R")

_DOUBLE = struct.Struct("<d")
_interned: "weakref.WeakValueDictionary[tuple, Expr]" = weakref.WeakValueDictionary()
_intern_lock = threading.Lock()


class _Interned(type):
    """Metaclass that hands out the live node equal to the one being built."""

    def __call__(cls, *args, **kwargs):
        node = super().__call__(*args, **kwargs)  # normalizes and validates
        key = [cls]
        for name in cls.__match_args__:  # the node's fields, in order
            value = getattr(node, name)
            if type(value) is float:
                if value != value:
                    return node  # NaN equals nothing, so it is never merged
                value = _DOUBLE.pack(value)
            key.append(value)
        with _intern_lock:
            return _interned.setdefault(tuple(key), node)


class Expr(metaclass=_Interned):
    """Base class for expression nodes: immutable, printed like a dataclass
    (Pow(base=TimeVar(), exponent=2.0)), with operator sugar."""

    __slots__ = ("__weakref__",)  # the intern table holds nodes weakly
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, name: str = "", fn: Callable[..., float] | None = None) -> None:
        super().__init_subclass__()
        if fn is not None:
            cls.name = name
            cls.fn = staticmethod(fn)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copies and unpickled nodes go through the constructor, and so
        # come back as the interned node
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __add__(self, other: "Expr | Number") -> "Expr":
        return Add(self, as_expr(other))

    def __radd__(self, other: "Expr | Number") -> "Expr":
        return Add(as_expr(other), self)

    def __sub__(self, other: "Expr | Number") -> "Expr":
        return Sub(self, as_expr(other))

    def __rsub__(self, other: "Expr | Number") -> "Expr":
        return Sub(as_expr(other), self)

    def __mul__(self, other: "Expr | Number") -> "Expr":
        return Mul(self, as_expr(other))

    def __rmul__(self, other: "Expr | Number") -> "Expr":
        return Mul(as_expr(other), self)

    def __truediv__(self, other: "Expr | Number") -> "Expr":
        return Div(self, as_expr(other))

    def __rtruediv__(self, other: "Expr | Number") -> "Expr":
        return Div(as_expr(other), self)

    def __neg__(self) -> "Expr":
        return Sub(Const(0.0), self)


def as_expr(value: "Expr | Number") -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise StructureError(f"cannot lift {value!r} into an expression")


class Const(Expr):
    __slots__ = ("value",)
    __match_args__ = __slots__

    def __init__(self, value: float) -> None:
        object.__setattr__(self, "value", float(value))


class StateVar(Expr):
    """State component x_index, 1-based."""

    __slots__ = ("index",)
    __match_args__ = __slots__

    def __init__(self, index: int) -> None:
        if not isinstance(index, int) or index < 1:
            raise StructureError(f"state index must be a positive int, got {index!r}")
        object.__setattr__(self, "index", index)


class TimeVar(Expr):
    __slots__ = ()


class Pow(Expr):
    """base raised to a fixed numeric exponent."""

    __slots__ = ("base", "exponent")
    __match_args__ = __slots__

    def __init__(self, base: Expr, exponent: float) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", float(exponent))
        if not math.isfinite(self.exponent):
            raise StructureError(f"exponent must be finite, got {self.exponent!r}")


class _Binary(Expr):
    """An operator on two operands; name is its Python operator."""

    __slots__ = ("left", "right")
    __match_args__ = __slots__
    name: str
    fn: Callable[[float, float], float]

    def __init__(self, left: Expr, right: Expr) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Add(_Binary, name="+", fn=operator.add):
    __slots__ = ()


class Sub(_Binary, name="-", fn=operator.sub):
    __slots__ = ()


class Mul(_Binary, name="*", fn=operator.mul):
    __slots__ = ()


class Div(_Binary, name="/", fn=operator.truediv):
    __slots__ = ()


class _Unary(Expr):
    """A function of one operand; name is its compiled name."""

    __slots__ = ("arg",)
    __match_args__ = __slots__
    name: str
    fn: Callable[[float], float]

    def __init__(self, arg: Expr) -> None:
        object.__setattr__(self, "arg", arg)


class Sin(_Unary, name="sin", fn=math.sin):
    __slots__ = ()


class Cos(_Unary, name="cos", fn=math.cos):
    __slots__ = ()


class Tan(_Unary, name="tan", fn=math.tan):
    __slots__ = ()


class Arctan(_Unary, name="arctan", fn=math.atan):
    __slots__ = ()


class Exp(_Unary, name="exp", fn=math.exp):
    __slots__ = ()


class Ln(_Unary, name="ln", fn=math.log):
    __slots__ = ()


class Abs(_Unary, name="abs", fn=abs):
    __slots__ = ()


def _sign(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


class Sign(_Unary, name="sign", fn=_sign):
    __slots__ = ()


def _satexp(v: float) -> float:
    # 1 - exp(-|v|) through expm1 keeps every digit for small |v|
    return 0.0 if v == 0.0 else math.copysign(-math.expm1(-abs(v)), v)


class Satexp(_Unary, name="satexp", fn=_satexp):
    """(1 - exp(-|v|)) sign(v) as one exact node: the logexp rate kernel."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# walking the DAG


def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, _Binary):
        return (node.left, node.right)
    if isinstance(node, _Unary):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def _walk(
    expr: Expr,
    step: Callable[[Expr, Callable[[Expr], _R]], _R],
    memo: dict[Expr, _R] | None = None,
) -> _R:
    """step(node, recur) for the root, where recur(child) runs step on the
    child; each distinct node's result is computed once and reused.  A memo
    passed in carries the results over from earlier walks with the same
    step."""
    if memo is None:
        memo = {}

    def recur(node: Expr) -> _R:
        if node in memo:
            return memo[node]
        result = memo[node] = step(node, recur)
        return result

    return recur(expr)


def _nodes(*roots: Expr) -> list[Expr]:
    """Each distinct node under roots once, children before parents: the
    keys of one memo that walks from every root share, in the order the
    walks finish them."""
    memo: dict[Expr, None] = {}

    def reach(node: Expr, recur: Callable[[Expr], None]) -> None:
        for child in _children(node):
            recur(child)

    for root in roots:
        _walk(root, reach, memo)
    return list(memo)


# ---------------------------------------------------------------------------
# evaluation


def _pow(base: float, exponent: float) -> float:
    if base == 0.0 and exponent == 0.0:
        return 1.0
    if base == 0.0 and exponent < 0.0:
        raise EvaluationError("zero base with negative exponent", "Pow")
    if base < 0.0 and exponent != int(exponent):
        raise EvaluationError(
            f"negative base {base!r} with fractional exponent {exponent!r}", "Pow"
        )
    try:
        return base ** exponent
    except OverflowError:
        raise EvaluationError("power overflow", "Pow") from None


def evaluate(expr: Expr, x: Sequence[float], t: float) -> float:
    """Evaluate expr at state x (1-based indices map to x[0], x[1], ...).

    Raises EvaluationError at singular points (division by zero, log of a
    nonpositive value, invalid powers, math domain errors) and
    StructureError when the state vector is too short for the indices used.
    The first error raised is the one a left-to-right tree walk meets first.
    """

    def value(e: Expr, ev: Callable[[Expr], float]) -> float:
        if isinstance(e, Const):
            return e.value
        if isinstance(e, StateVar):
            if e.index > len(x):
                raise StructureError(
                    f"expression uses x{e.index} but the state has {len(x)} components"
                )
            return float(x[e.index - 1])
        if isinstance(e, TimeVar):
            return float(t)
        if isinstance(e, _Binary):
            a = ev(e.left)
            b = ev(e.right)
            if b == 0.0 and isinstance(e, Div):
                raise EvaluationError(f"division by zero at t={t!r}", "Div")
            return e.fn(a, b)
        if isinstance(e, Pow):
            return _pow(ev(e.base), e.exponent)
        if isinstance(e, _Unary):
            a = ev(e.arg)
            kind = type(e).__name__
            if a <= 0.0 and isinstance(e, Ln):
                raise EvaluationError(f"log of nonpositive value {a!r}", "Ln")
            try:
                return e.fn(a)
            except OverflowError:
                raise EvaluationError(f"overflow in {kind}", kind) from None
            except ValueError:  # math domain error, e.g. tan(inf)
                raise EvaluationError(f"{kind} undefined at {a!r}", kind) from None
        raise StructureError(f"unknown node type {type(e).__name__}")

    return _walk(expr, value)


def state_indices(expr: Expr) -> frozenset[int]:
    """All 1-based state indices referenced by expr."""
    return frozenset(node.index for node in _nodes(expr) if isinstance(node, StateVar))


def node_count(expr: Expr) -> int:
    """Number of nodes in the tree expr stands for, a shared subexpression
    once per occurrence: how far the law's tree outgrows its DAG, which the
    benchmark records as synthesis.u_nodes.  No psis walker pays this size;
    each visits the distinct nodes once."""
    counts: dict[Expr, int] = {}
    for node in _nodes(expr):
        counts[node] = 1 + sum(counts[child] for child in _children(node))
    return counts[expr]


# ---------------------------------------------------------------------------
# differentiation


def partial(expr: Expr, wrt: Expr) -> Expr:
    """Exact partial derivative of expr with respect to wrt.

    wrt must be a StateVar or TimeVar.  The result is not simplified; pass
    it through simplify when tree size matters.
    """
    if not isinstance(wrt, (StateVar, TimeVar)):
        raise StructureError(f"can only differentiate w.r.t. a variable, got {wrt!r}")
    seed = lambda v: Const(1.0) if v is wrt else Const(0.0)
    return _walk(expr, lambda e, d: _partial(e, d, seed))


def _partial(e: Expr, d: Callable[[Expr], Expr], leaf: Callable[[Expr], Expr]) -> Expr:
    """e's derivative by the chain rule: d gives a child's, leaf a variable's."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, (StateVar, TimeVar)):
        return leaf(e)
    if isinstance(e, Add):
        return Add(d(e.left), d(e.right))
    if isinstance(e, Sub):
        return Sub(d(e.left), d(e.right))
    if isinstance(e, Mul):
        return Add(Mul(d(e.left), e.right), Mul(e.left, d(e.right)))
    if isinstance(e, Div):
        # q' = (a' - q b') / b reuses q = a/b (Griewank & Walther, ch. 3):
        # (a'b - ab')/b^2 would square b at every stage of the recursion.
        return Div(Sub(d(e.left), Mul(e, d(e.right))), e.right)
    if isinstance(e, Pow):
        if e.exponent == 0.0:
            return Const(0.0)
        inner = d(e.base)
        if e.exponent == 1.0:
            return inner
        return Mul(Mul(Const(e.exponent), Pow(e.base, e.exponent - 1.0)), inner)
    if isinstance(e, _Unary):
        inner = d(e.arg)
        if isinstance(e, Sin):
            outer: Expr = Cos(e.arg)
        elif isinstance(e, Cos):
            outer = Sub(Const(0.0), Sin(e.arg))
        elif isinstance(e, Tan):
            return Div(inner, Mul(Cos(e.arg), Cos(e.arg)))
        elif isinstance(e, Arctan):
            return Div(inner, Add(Mul(e.arg, e.arg), Const(1.0)))
        elif isinstance(e, Exp):
            outer = e
        elif isinstance(e, Ln):
            return Div(inner, e.arg)
        elif isinstance(e, Abs):
            # Derivative taken as sign(a) * a'; the kink at 0 is resolved to 0,
            # consistent with sign(0) = 0.
            outer = Sign(e.arg)
        elif isinstance(e, Satexp):
            outer = Exp(Sub(Const(0.0), Abs(e.arg)))
        else:  # Sign: flat away from 0, and 0 is assigned slope 0
            return Const(0.0)
        return Mul(outer, inner)
    raise StructureError(f"unknown node type {type(e).__name__}")


def lie_derivative(expr: Expr, n: int) -> Expr:
    """Total time derivative of expr along an order-n integrator chain.

    Along the chain dx_j/dt = x_{j+1} and dt/dt = 1, and one forward-mode
    walk (Griewank & Walther, "Evaluating Derivatives", 2nd ed., 2008,
    ch. 3) applies _partial's rules with those as the variables'
    derivatives: each node is differentiated once, not once per variable.
    The last state's derivative is the control input, which is not part of
    the state vocabulary, so expr may only reference x_1 .. x_{n-1}.
    """
    if n < 1:
        raise StructureError(f"chain order must be at least 1, got {n}")
    over = sorted(j for j in state_indices(expr) if j > n - 1)
    if over:
        raise StructureError(
            f"expression references x{over[0]}, whose chain derivative is not a "
            f"state (order n={n}); only x1..x{n - 1} admit a Lie derivative here"
        )
    flow = lambda v: StateVar(v.index + 1) if isinstance(v, StateVar) else Const(1.0)
    return _walk(expr, lambda e, d: _partial(e, d, flow))


# ---------------------------------------------------------------------------
# simplification


def simplify(expr: Expr) -> Expr:
    """Cheap bottom-up cleanup: constant folding, identity elimination,
    syntactic cancellation, and flattening of nested negation.

    The output evaluates identically at every point where the input does;
    no floating-point reassociation is performed.
    """
    return _walk(expr, _simplify)


def _simplify(expr: Expr, simp: Callable[[Expr], Expr]) -> Expr:
    """One node's rewrite, where simp gives a child's simplified form."""
    if isinstance(expr, (Const, StateVar, TimeVar)):
        return expr
    if isinstance(expr, _Binary):
        return _simplify_binary(type(expr), simp(expr.left), simp(expr.right))
    if isinstance(expr, Pow):
        base = simp(expr.base)
        if expr.exponent == 0.0:
            return Const(1.0)
        if expr.exponent == 1.0:
            return base
        if isinstance(base, Const):
            try:
                return Const(_pow(base.value, expr.exponent))
            except EvaluationError:
                pass
        return Pow(base, expr.exponent)
    if isinstance(expr, _Unary):
        arg = simp(expr.arg)
        node = type(expr)(arg)
        if isinstance(arg, Const):
            try:
                return Const(evaluate(node, (), 0.0))
            except EvaluationError:
                pass
        return node
    raise StructureError(f"unknown node type {type(expr).__name__}")


def _is_const(e: Expr, value: float) -> bool:
    return isinstance(e, Const) and e.value == value


def _simplify_binary(op: type[_Binary], a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        if op is not Div or b.value != 0.0:
            return Const(op.fn(a.value, b.value))
    if op is Add:
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
        return Add(a, b)
    if op is Sub:
        if _is_const(b, 0.0):
            return a
        if a is b:
            return Const(0.0)
        # -(-e) -> e
        if _is_const(a, 0.0) and isinstance(b, Sub) and _is_const(b.left, 0.0):
            return b.right
        return Sub(a, b)
    if op is Mul:
        if _is_const(a, 0.0) or _is_const(b, 0.0):
            return Const(0.0)
        if _is_const(a, 1.0):
            return b
        if _is_const(b, 1.0):
            return a
        return Mul(a, b)
    # Div
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


# ---------------------------------------------------------------------------
# compilation


# The deepest bracket nesting an inlined operand may reach; a single-use node
# that would nest deeper gets a local.  CPython refuses 200 nested brackets,
# and its parser and compiler recurse once or more per level.
_INLINE_DEPTH = 40


def code_emitter(
    roots: Sequence[Expr], lines: list[str], names: Mapping[Expr, str] | None = None
) -> Callable[[Expr], str]:
    """A function emit(root) that appends to lines the straight-line code
    computing one of roots at (x, t) and returns the expression that holds
    its value: a local, a literal, x[j], t, or inline code.

    A node is read once per place that reads it: once by each parent slot
    that holds it, and once for each time it is listed in roots.  A node
    read once is written inline, parenthesized, inside its reader's code,
    unless that would nest brackets deeper than _INLINE_DEPTH.  Any other
    operation node gets an assignment to a local v<k>.  Inlining keeps each
    operation's operands and tree, and Python does not reassociate float
    arithmetic, so every value is the same bits as with one local per node.
    A node that names maps to a name takes that name for its local.

    Call emit on each root once, in any order; nodes emitted by an earlier
    call are not emitted again, so the roots share their common
    subexpressions, and other code may be appended to lines between calls.
    The code performs no domain checking (see compile_expr), and
    COMPILED_GLOBALS holds the names it calls.
    """
    names = names or {}
    reads = dict.fromkeys(_nodes(*roots), 0)
    for root in roots:
        reads[root] += 1
    for node in reads:
        for child in _children(node):
            reads[child] += 1
    memo: dict[Expr, tuple[str, int]] = {}
    count = itertools.count()

    def step(e: Expr, operand: Callable[[Expr], tuple[str, int]]) -> tuple[str, int]:
        """e's text and the bracket depth the text nests to."""
        if isinstance(e, Const):
            return repr(e.value), 0
        if isinstance(e, StateVar):
            return f"x[{e.index - 1}]", 1
        if isinstance(e, TimeVar):
            return "t", 0
        if isinstance(e, _Binary):
            (a, a_depth), (b, b_depth) = operand(e.left), operand(e.right)
            code = f"{a} {e.name} {b}"
            inline, depth = f"({code})", max(a_depth, b_depth) + 1
        elif isinstance(e, Pow):
            # parenthesized base: ** binds tighter than a leading unary minus
            a, a_depth = operand(e.base)
            code = f"({a}) ** {e.exponent!r}"
            inline, depth = f"({code})", a_depth + 2
        elif isinstance(e, _Unary):
            a, a_depth = operand(e.arg)
            code = inline = f"{e.name}({a})"
            depth = a_depth + 1
        else:
            raise StructureError(f"unknown node type {type(e).__name__}")
        if reads[e] == 1 and depth <= _INLINE_DEPTH:
            return inline, depth
        name = names.get(e) or f"v{next(count)}"
        lines.append(f"{name} = {code}")
        return name, 0

    return lambda root: _walk(root, step, memo)[0]


# The names generated code calls: the unary nodes' functions, which are all
# the rate kernels' rendered code calls, and the step loop's and the audit's
# sqrt and checks; repr() writes a non-finite constant as a bare name.
COMPILED_GLOBALS = {op.name: op.fn for op in _Unary.__subclasses__()}
COMPILED_GLOBALS.update(
    sqrt=math.sqrt, isfinite=math.isfinite, isinf=math.isinf, inf=math.inf, nan=math.nan,
)


def compile_source(source: str, filename: str, **names) -> dict:
    """Execute the generated source in a fresh namespace of COMPILED_GLOBALS
    plus names, and return that namespace.  filename labels the code in
    tracebacks."""
    namespace = {**COMPILED_GLOBALS, **names}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def compile_expr(expr: Expr, n_states: int) -> Callable[[Sequence[float], float], float]:
    """Compile expr into a plain Python function f(x, t) -> float.

    Used in integration inner loops where tree-walking evaluation is too
    slow.  Each distinct subexpression is computed once (see code_emitter).
    The compiled code performs no domain checking: at singular points it
    raises whatever the underlying arithmetic raises (ZeroDivisionError,
    ValueError), so callers must gate the input region themselves, as
    evaluate() does.
    """
    used = state_indices(expr)
    if used and max(used) > n_states:
        raise StructureError(
            f"expression uses x{max(used)} but was compiled for {n_states} states"
        )
    lines: list[str] = []
    result = code_emitter([expr], lines)(expr)
    body = "\n".join(f"    {line}" for line in lines)
    source = f"def _compiled(x, t):\n{body}\n    return {result}\n"
    fn = compile_source(source, "<psis.symdiff>")["_compiled"]
    fn.__psis_source__ = source  # kept for debugging and tests
    return fn
