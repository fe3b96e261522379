"""Reference convergence differential functions (RCDFs).

An RCDF is a time-varying scalar rate law

    psi(v, t) = eta * zeta(v) / (T_p - t),        0 <= t < T_p,

built so that the solution of  dv/dt = -psi(v, t)  reaches zero exactly at
the prescribed instant T_p, for every initial value.  The gain 1/(T_p - t)
blows up as t approaches T_p; the kernel zeta supplies the shape of the
decay.  Three kernels are provided, each with a closed-form solution of the
scalar law that later modules use as an integration oracle.

Kernels (zeta) and the closed forms of dv/dt = -psi with v(0) = closed_form
at t = 0:

    tan:     zeta(v) = (v^2 + 1) * arctan(v)      v(t) = tan((T_p - t)^eta)
    linear:  zeta(v) = v                          v(t) = (T_p - t)^eta
    logexp:  zeta(v) = (1 - exp(-|v|)) * sign(v)  v(t) = ln(1 + (T_p - t)^eta)

Each kernel is written down once, as the expression that synthesis
differentiates.  Its KernelForms record in KERNELS holds every other form of
it, and its float code is that expression rendered by symdiff.code_emitter,
so the law, the recorder's decay rate and the audit's envelope perform the
same operations.  The rate law is written once too, as psi_expr, which
synthesis builds each stage from and psi evaluates.

The tan closed form only exists while (T_p - t)^eta < pi/2; that guard is
enforced here and nowhere else, because the synthesized controllers use the
kernel itself, not the closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from . import symdiff as sd
from .errors import ConfigurationError, DomainError, SingularityError

_HALF_PI = math.pi / 2.0


class RcdfKind(enum.Enum):
    """Kernel family of an RCDF."""

    TAN = "tan"
    LINEAR = "linear"
    LOGEXP = "logexp"

    @classmethod
    def from_name(cls, name: str) -> "RcdfKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ConfigurationError(
                f"unknown RCDF kind {name!r}; expected one of: {valid}"
            ) from None


@dataclass(frozen=True)
class RcdfSpec:
    """One RCDF: a kernel family plus its rate exponent eta.

    eta must exceed 1.  Backstepping stages impose stricter floors on top of
    this (see validate_stage_etas); an RcdfSpec on its own only knows the
    family-wide requirement.
    """

    kind: RcdfKind
    eta: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, RcdfKind):
            raise ConfigurationError(f"kind must be an RcdfKind, got {self.kind!r}")
        if not math.isfinite(self.eta):
            raise ConfigurationError(f"eta must be finite, got {self.eta!r}")
        if self.eta <= 1.0:
            raise ConfigurationError(f"eta must exceed 1, got {self.eta}")


class KernelForms(NamedTuple):
    """Every form of one rate kernel zeta.  expr is the one definition of
    zeta; its float code, source and function, is rendered from expr."""

    source: str  # expr rendered by symdiff.code_emitter: a Python expression in {v}
    function: Callable[[float], float]  # source compiled; DomainError at a non-finite v
    expr: Callable[[sd.Expr], sd.Expr]  # zeta as an expression in v: the one definition
    closed: Callable[[float], float]  # closed-form v from s = (T_p - t)^eta
    convex_bound: float  # x * zeta(x) is convex on [0, convex_bound]


def _not_finite(v: float) -> float:
    raise DomainError(f"kernel argument must be finite, got {v!r}")


def _forms(expr: Callable[[sd.Expr], sd.Expr], closed: Callable[[float], float],
           convex_bound: float = math.inf) -> KernelForms:
    node = expr(sd.StateVar(1))
    lines: list[str] = []
    source = sd.code_emitter([node], lines)(node).replace("x[0]", "{v}")
    assert not lines, "a kernel must render as one expression, to be inlined"
    body = source.format(v="v")
    text = f"def zeta(v):\n    return ({body}) if isfinite(v) else _not_finite(v)\n"
    function = sd.compile_source(text, "<psis.kernel>", _not_finite=_not_finite)["zeta"]
    return KernelForms(source, function, expr, closed, convex_bound)


def _tan_closed(s: float) -> float:
    if s >= _HALF_PI:
        raise DomainError(f"tan closed form needs (T_p - t)^eta < pi/2; got {s:.6g}")
    return math.tan(s)


KERNELS: dict[RcdfKind, KernelForms] = {
    RcdfKind.TAN: _forms(lambda v: (v * v + 1.0) * sd.Arctan(v), _tan_closed),
    RcdfKind.LINEAR: _forms(lambda v: v, lambda s: s),
    RcdfKind.LOGEXP: _forms(
        sd.Satexp,
        math.log1p,
        convex_bound=2.0,  # (x zeta(x))'' = (2 - x) exp(-x) for x >= 0
    ),
}


def kernel_source(kind: RcdfKind, name: str) -> str:
    """zeta(kind, name) as a parenthesized Python expression, for code that
    inlines the kernel at a finite name; symdiff.COMPILED_GLOBALS holds the
    names it calls.  It is the text zeta's function runs, so it gives the
    same bits."""
    return f"({KERNELS[kind].source.format(v=name)})"


def kernel_function(kind: RcdfKind) -> Callable[[float], float]:
    """zeta(kind, .) as a function of v alone, for loops that evaluate one
    kernel many times: the kind is looked up once."""
    return KERNELS[kind].function


def zeta(kind: RcdfKind, v: float) -> float:
    """Kernel value zeta(v).

    Every kernel is odd, zero only at zero, and strictly increasing, which
    is what makes -psi a genuine convergence law.  sign(0) is taken as 0 so
    the logexp kernel is exactly zero at the origin.  A non-finite v is a
    DomainError.
    """
    return kernel_function(kind)(v)


def psi_expr(spec: RcdfSpec, v: sd.Expr, T_p: float) -> sd.Expr:
    """Rate law eta * zeta(v) / (T_p - t) as an expression in v and t, the
    one definition of the law: synthesis builds each stage from it."""
    gain = sd.Const(spec.eta) / (sd.Const(T_p) - sd.TimeVar())
    return gain * KERNELS[spec.kind].expr(v)


def psi(spec: RcdfSpec, v: float, t: float, T_p: float) -> float:
    """psi_expr's value at (v, t), defined only for 0 <= t < T_p."""
    _check_horizon(T_p)
    if not math.isfinite(v):
        raise DomainError(f"state argument must be finite, got {v!r}")
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"time must be finite and nonnegative, got {t!r}")
    if t >= T_p:
        raise SingularityError(
            f"rate law undefined at t={t} >= T_p={T_p}"
        )
    return sd.evaluate(psi_expr(spec, sd.StateVar(1), T_p), (v,), t)


def closed_form(spec: RcdfSpec, t: float, T_p: float) -> float:
    """Exact solution of dv/dt = -psi(v, t) on [0, T_p].

    The value at t = T_p is zero for every kernel.  For the tan kernel the
    solution tan((T_p - t)^eta) only exists while (T_p - t)^eta < pi/2,
    which bounds the usable horizon; outside that region the expression is
    not a solution of the rate law at all, so it is rejected.
    """
    _check_horizon(T_p)
    if not math.isfinite(t) or t < 0.0 or t > T_p:
        raise DomainError(f"time must lie in [0, T_p={T_p}], got {t!r}")
    try:
        return KERNELS[spec.kind].closed((T_p - t) ** spec.eta)
    except DomainError as exc:
        raise DomainError(f"{exc} at t={t} (T_p={T_p}, eta={spec.eta})") from None


@dataclass(frozen=True)
class StageEtaViolation:
    """One backstepping stage whose exponent is at or below its floor."""

    stage: int  # 1-based position in the chain
    eta: float
    floor: float


def validate_stage_etas(
    specs: Sequence[RcdfSpec], n: int
) -> list[StageEtaViolation]:
    """Check the stage exponents against their backstepping floors.

    Stage i of an order-n design needs eta_i > n + 1 - i; anything weaker
    leaves the derivative chain of the virtual references unbounded at the
    prescribed instant.  Returns the list of violations, empty when the
    parameter set is admissible.
    """
    if n < 1:
        raise ConfigurationError(f"chain order must be at least 1, got {n}")
    if len(specs) != n:
        raise ConfigurationError(
            f"expected {n} stage specs for an order-{n} chain, got {len(specs)}"
        )
    violations = []
    for i, spec in enumerate(specs, start=1):
        floor = float(n + 1 - i)
        if spec.eta <= floor:
            violations.append(StageEtaViolation(stage=i, eta=spec.eta, floor=floor))
    return violations


def _check_horizon(T_p: float) -> None:
    if not math.isfinite(T_p) or T_p <= 0.0:
        raise ConfigurationError(f"T_p must be finite and positive, got {T_p!r}")
