"""Small symbolic engine for exact derivatives of control expressions.

Backstepping needs the exact time derivative of each virtual reference, and
those references are built from a fixed vocabulary: arithmetic, powers with
numeric exponents, and the handful of transcendentals appearing in the rate
kernels.  A tiny expression tree over that vocabulary is simpler and easier
to audit than a general computer-algebra dependency, so the engine lives
here.

Expressions are immutable trees of frozen dataclasses.  Structural equality
and hashing come from the dataclass machinery, which the simplifier and the
compiler both rely on (syntactic cancellation, common-subexpression reuse).

The operator vocabulary lives in two tables, _BINARY_OPS and _UNARY_OPS,
which give each node class its printed and compiled name and its float
function; evaluate, simplify, to_infix and compile_expr all read them.  Pow
keeps its own rules everywhere, because its exponent is part of the node.
Only the derivative rules in _partial are spelt out per class.

Notes on conventions:
  * sign(0) evaluates to 0, matching the rate kernels.
  * 0^0 evaluates to 1, so folded power rules stay total.
  * simplify only guarantees agreement at points where both the input and
    the output evaluate; rewrites such as e - e -> 0 may remove spurious
    singular points, never introduce them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence, Union

from .errors import EvaluationError, StructureError

Number = Union[int, float]


class Expr:
    """Base class for expression nodes; provides operator sugar."""

    __slots__ = ()

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


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class StateVar(Expr):
    """State component x_index, 1-based."""

    index: int

    def __post_init__(self) -> None:
        if not isinstance(self.index, int) or self.index < 1:
            raise StructureError(f"state index must be a positive int, got {self.index!r}")


@dataclass(frozen=True)
class TimeVar(Expr):
    pass


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    """base raised to a fixed numeric exponent."""

    base: Expr
    exponent: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponent", float(self.exponent))
        if not math.isfinite(self.exponent):
            raise StructureError(f"exponent must be finite, got {self.exponent!r}")


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True)
class Tan(Expr):
    arg: Expr


@dataclass(frozen=True)
class Arctan(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Ln(Expr):
    arg: Expr


@dataclass(frozen=True)
class Abs(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sign(Expr):
    arg: Expr


# ---------------------------------------------------------------------------
# operator tables


def _sign(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


class _Op(NamedTuple):
    name: str                     # infix symbol, or printed and compiled name
    fn: Callable[..., float]      # the float function evaluate applies


_BINARY_OPS: dict[type, _Op] = {
    Add: _Op("+", operator.add),
    Sub: _Op("-", operator.sub),
    Mul: _Op("*", operator.mul),
    Div: _Op("/", operator.truediv),
}
_UNARY_OPS: dict[type, _Op] = {
    Sin: _Op("sin", math.sin),
    Cos: _Op("cos", math.cos),
    Tan: _Op("tan", math.tan),
    Arctan: _Op("arctan", math.atan),
    Exp: _Op("exp", math.exp),
    Ln: _Op("ln", math.log),
    Abs: _Op("abs", abs),
    Sign: _Op("sign", _sign),
}


def _nodes(expr: Expr) -> Iterator[Expr]:
    """Every node of the tree, a shared subtree once per occurrence; an
    explicit stack, so deep trees do not hit the recursion limit."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if type(node) in _BINARY_OPS:
            stack += (node.left, node.right)
        elif type(node) in _UNARY_OPS:
            stack.append(node.arg)
        elif isinstance(node, Pow):
            stack.append(node.base)


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
    nonpositive value, invalid powers) and StructureError when the state
    vector is too short for the indices used.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, StateVar):
        if expr.index > len(x):
            raise StructureError(
                f"expression uses x{expr.index} but the state has {len(x)} components"
            )
        return float(x[expr.index - 1])
    if isinstance(expr, TimeVar):
        return float(t)
    op = _BINARY_OPS.get(type(expr))
    if op is not None:
        a = evaluate(expr.left, x, t)
        b = evaluate(expr.right, x, t)
        if b == 0.0 and isinstance(expr, Div):
            raise EvaluationError(f"division by zero at t={t!r}", "Div")
        return op.fn(a, b)
    if isinstance(expr, Pow):
        return _pow(evaluate(expr.base, x, t), expr.exponent)
    op = _UNARY_OPS.get(type(expr))
    if op is not None:
        a = evaluate(expr.arg, x, t)
        if a <= 0.0 and isinstance(expr, Ln):
            raise EvaluationError(f"log of nonpositive value {a!r}", "Ln")
        try:
            return op.fn(a)
        except OverflowError:
            raise EvaluationError(
                f"overflow in {type(expr).__name__}", type(expr).__name__
            ) from None
    raise StructureError(f"unknown node type {type(expr).__name__}")


def state_indices(expr: Expr) -> frozenset[int]:
    """All 1-based state indices referenced by expr."""
    return frozenset(node.index for node in _nodes(expr) if isinstance(node, StateVar))


def node_count(expr: Expr) -> int:
    """Number of nodes in the tree; a proxy for evaluation cost."""
    return sum(1 for _ in _nodes(expr))


# ---------------------------------------------------------------------------
# differentiation


def partial(expr: Expr, wrt: Expr) -> Expr:
    """Exact partial derivative of expr with respect to wrt.

    wrt must be a StateVar or TimeVar.  The result is not simplified; pass
    it through simplify when tree size matters.
    """
    if not isinstance(wrt, (StateVar, TimeVar)):
        raise StructureError(f"can only differentiate w.r.t. a variable, got {wrt!r}")
    return _partial(expr, wrt)


def _partial(e: Expr, wrt: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, (StateVar, TimeVar)):
        return Const(1.0) if e == wrt else Const(0.0)
    if isinstance(e, Add):
        return Add(_partial(e.left, wrt), _partial(e.right, wrt))
    if isinstance(e, Sub):
        return Sub(_partial(e.left, wrt), _partial(e.right, wrt))
    if isinstance(e, Mul):
        return Add(
            Mul(_partial(e.left, wrt), e.right),
            Mul(e.left, _partial(e.right, wrt)),
        )
    if isinstance(e, Div):
        numerator = Sub(
            Mul(_partial(e.left, wrt), e.right),
            Mul(e.left, _partial(e.right, wrt)),
        )
        return Div(numerator, Mul(e.right, e.right))
    if isinstance(e, Pow):
        if e.exponent == 0.0:
            return Const(0.0)
        inner = _partial(e.base, wrt)
        if e.exponent == 1.0:
            return inner
        return Mul(Mul(Const(e.exponent), Pow(e.base, e.exponent - 1.0)), inner)
    if type(e) in _UNARY_OPS:
        inner = _partial(e.arg, wrt)
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
        else:  # Sign: flat away from 0, and 0 is assigned slope 0
            return Const(0.0)
        return Mul(outer, inner)
    raise StructureError(f"unknown node type {type(e).__name__}")


def lie_derivative(expr: Expr, n: int) -> Expr:
    """Total time derivative of expr along an order-n integrator chain.

    Along the chain each state feeds the one before it, dx_j/dt = x_{j+1},
    so d/dt expr = d expr/dt + sum_j (d expr/dx_j) * x_{j+1}.  The last
    state's derivative is the control input, which is not part of the state
    vocabulary, so expr may only reference x_1 .. x_{n-1}.
    """
    if n < 1:
        raise StructureError(f"chain order must be at least 1, got {n}")
    used = state_indices(expr)
    over = sorted(j for j in used if j > n - 1)
    if over:
        raise StructureError(
            f"expression references x{over[0]}, whose chain derivative is not a "
            f"state (order n={n}); only x1..x{n - 1} admit a Lie derivative here"
        )
    total: Expr = partial(expr, TimeVar())
    for j in sorted(used):
        total = Add(total, Mul(partial(expr, StateVar(j)), StateVar(j + 1)))
    return total


# ---------------------------------------------------------------------------
# simplification


def simplify(expr: Expr) -> Expr:
    """Cheap bottom-up cleanup: constant folding, identity elimination,
    syntactic cancellation, and flattening of nested negation.

    The output evaluates identically at every point where the input does;
    no floating-point reassociation is performed.
    """
    if isinstance(expr, (Const, StateVar, TimeVar)):
        return expr
    if type(expr) in _BINARY_OPS:
        a = simplify(expr.left)
        b = simplify(expr.right)
        return _simplify_binary(type(expr), a, b)
    if isinstance(expr, Pow):
        base = simplify(expr.base)
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
    if type(expr) in _UNARY_OPS:
        arg = simplify(expr.arg)
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


def _simplify_binary(op: type, a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        if op is not Div or b.value != 0.0:
            return Const(_BINARY_OPS[op].fn(a.value, b.value))
    if op is Add:
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
        return Add(a, b)
    if op is Sub:
        if _is_const(b, 0.0):
            return a
        if a == b:
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
# printing


def to_infix(expr: Expr) -> str:
    """Render expr as fully parenthesized infix text.

    Meant for logs and reports, not for parsing back.  Negation renders as
    a prefix minus, powers use the caret.
    """
    if isinstance(expr, Const):
        return repr(expr.value)  # keeps the trailing .0, e.g. '3.0'
    if isinstance(expr, StateVar):
        return f"x{expr.index}"
    if isinstance(expr, TimeVar):
        return "t"
    if isinstance(expr, Sub) and _is_const(expr.left, 0.0):
        return f"(-{to_infix(expr.right)})"
    op = _BINARY_OPS.get(type(expr))
    if op is not None:
        return f"({to_infix(expr.left)} {op.name} {to_infix(expr.right)})"
    if isinstance(expr, Pow):
        p = expr.exponent
        p_text = str(int(p)) if p == int(p) and abs(p) < 1e16 else repr(p)
        return f"({to_infix(expr.base)} ^ {p_text})"
    op = _UNARY_OPS.get(type(expr))
    if op is not None:
        return f"{op.name}({to_infix(expr.arg)})"
    raise StructureError(f"unknown node type {type(expr).__name__}")


# ---------------------------------------------------------------------------
# compilation


def compile_expr(expr: Expr, n_states: int) -> Callable[[Sequence[float], float], float]:
    """Compile expr into a plain Python function f(x, t) -> float.

    Used in integration inner loops where tree-walking evaluation is too
    slow.  Structurally repeated subtrees are computed once.  The compiled
    code performs no domain checking: at singular points it raises whatever
    the underlying arithmetic raises (ZeroDivisionError, ValueError), so
    callers must gate the input region themselves, as evaluate() does.
    """
    used = state_indices(expr)
    if used and max(used) > n_states:
        raise StructureError(
            f"expression uses x{max(used)} but was compiled for {n_states} states"
        )
    lines: list[str] = []
    memo: dict[Expr, str] = {}
    # Shared subtree objects are common after synthesis; resolving by object
    # identity first avoids rehashing deep structures on every lookup.
    by_id: dict[int, str] = {}

    def emit(e: Expr) -> str:
        if isinstance(e, Const):
            return repr(e.value)
        if isinstance(e, StateVar):
            return f"x[{e.index - 1}]"
        if isinstance(e, TimeVar):
            return "t"
        hit = by_id.get(id(e))
        if hit is not None:
            return hit
        hit = memo.get(e)
        if hit is not None:
            by_id[id(e)] = hit
            return hit
        if type(e) in _BINARY_OPS:
            code = f"{emit(e.left)} {_BINARY_OPS[type(e)].name} {emit(e.right)}"
        elif isinstance(e, Pow):
            # parenthesized base: ** binds tighter than a leading unary minus
            code = f"({emit(e.base)}) ** {repr(e.exponent)}"
        else:
            code = f"{_UNARY_OPS[type(e)].name}({emit(e.arg)})"
        name = f"v{len(memo)}"
        memo[e] = name
        by_id[id(e)] = name
        lines.append(f"    {name} = {code}")
        return name

    result = emit(expr)
    source = "def _compiled(x, t):\n" + "\n".join(lines) + f"\n    return {result}\n"
    namespace = {op.name: op.fn for op in _UNARY_OPS.values()}
    exec(compile(source, "<psis.symdiff>", "exec"), namespace)
    fn = namespace["_compiled"]
    fn.__psis_source__ = source  # kept for debugging and tests
    return fn
