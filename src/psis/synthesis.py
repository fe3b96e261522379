"""Backstepping synthesis of prescribed-instant controllers.

For an order-n integrator chain x_i' = x_{i+1}, x_n' = u, the controller is
built stage by stage.  The first error is the setpoint offset z_1 = x_1 - c,
steered by the first rate law; every later stage treats the previous virtual
reference as the quantity its own state must track:

    x_{2,d}   = -psi_1(z_1)
    z_i       = x_i - x_{i,d}
    x_{i+1,d} = d/dt x_{i,d} - z_{i-1} - psi_i(z_i)      (i = 2..n)
    u         = x_{n+1,d}

The time derivative of each virtual reference is taken exactly, as a Lie
derivative along the chain, so the final control law is a closed-form
expression in (x, t).  Applied for 0 <= t < T_p and switched to u = 0
afterwards, it pins the settling instant of the chain at exactly T_p.

The 1/(T_p - t) gain means every expression here is valid strictly before
T_p only; evaluation helpers enforce that boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

from . import symdiff as sd
from .errors import ConfigurationError, SingularityError, StructureError
from .rcdf import KERNELS, RcdfSpec, validate_stage_etas


def psi_expr(spec: RcdfSpec, v: sd.Expr, T_p: float) -> sd.Expr:
    """Rate law eta * zeta(v) / (T_p - t) as an expression in v and t."""
    gain = sd.Const(spec.eta) / (sd.Const(T_p) - sd.TimeVar())
    return gain * KERNELS[spec.kind].expr(v)


@dataclass(frozen=True)
class SynthesisConfig:
    """Design parameters of one controller.

    stages[i-1] is the rate law used at stage i.  Stage exponents must sit
    strictly above their floors eta_i > n + 1 - i, otherwise the virtual
    references do not stay differentiable up to the prescribed instant.
    Stages may mix kernel families; such a design synthesizes and simulates,
    but its decay certificate does not hold, so verification.mixed_kernels
    keeps it out of the Lyapunov audit.
    """

    n: int
    c: float
    T_p: float
    stages: tuple[RcdfSpec, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigurationError(f"chain order must be a positive int, got {self.n!r}")
        if not math.isfinite(self.c):
            raise ConfigurationError(f"setpoint must be finite, got {self.c!r}")
        if not math.isfinite(self.T_p) or self.T_p <= 0.0:
            raise ConfigurationError(f"T_p must be finite and positive, got {self.T_p!r}")
        object.__setattr__(self, "stages", tuple(self.stages))
        violations = validate_stage_etas(self.stages, self.n)
        if violations:
            parts = ", ".join(
                f"stage {v.stage}: eta={v.eta} needs > {v.floor}" for v in violations
            )
            raise ConfigurationError(f"stage exponents below their floors: {parts}")


@dataclass(frozen=True)
class Controller:
    """Synthesized control law plus its intermediate expressions.

    z_exprs[i-1] is the stage error z_i, virtual_refs[i-1] is x_{i+1,d}
    (so virtual_refs[-1] is the control law itself).  All expressions are
    functions of (x_1..x_n, t), valid for 0 <= t < T_p.
    """

    config: SynthesisConfig
    z_exprs: tuple[sd.Expr, ...]
    virtual_refs: tuple[sd.Expr, ...]

    @property
    def u_expr(self) -> sd.Expr:
        return self.virtual_refs[-1]

    @cached_property
    def compiled_u(self) -> Callable[[Sequence[float], float], float]:
        """u compiled on its own as f(x, t); simulate uses its own program
        of the law instead (simulation._program)."""
        return sd.compile_expr(self.u_expr, self.config.n)

    @cached_property
    def recorders(self) -> dict[bool, tuple]:
        """The simulator's programs of this law (vector fields and sample
        recorders) by open_loop, each built on first use (simulation._program)."""
        return {}

    @cached_property
    def _twin(self) -> "Controller":
        return synthesize(replace(self.config, c=0.0))


def synthesize(config: SynthesisConfig) -> Controller:
    """Run the backstepping recursion and return the controller.

    A law whose expressions nest deeper than Python's recursion limit is
    refused with a ConfigurationError naming the order and the stage reached.
    """
    n, T_p = config.n, config.T_p
    x = [sd.StateVar(i) for i in range(1, n + 1)]
    stage = 1
    try:
        z1 = sd.simplify(x[0] - config.c)
        z_exprs: list[sd.Expr] = [z1]
        refs: list[sd.Expr] = [sd.simplify(-psi_expr(config.stages[0], z1, T_p))]

        for stage in range(2, n + 1):
            x_id = refs[-1]  # x_{stage,d}, references x_1..x_{stage-1} and t
            z_i = sd.simplify(x[stage - 1] - x_id)
            z_exprs.append(z_i)
            ref = sd.Sub(
                sd.Sub(sd.lie_derivative(x_id, n), z_exprs[-2]),
                psi_expr(config.stages[stage - 1], z_i, T_p),
            )
            refs.append(sd.simplify(ref))

        for i, ref in enumerate(refs, start=1):
            used = sd.state_indices(ref)
            if used and max(used) > i:
                raise StructureError(
                    f"virtual reference {i} references x{max(used)}; "
                    "the recursion must stay lower triangular"
                )
    except RecursionError:
        raise ConfigurationError(
            f"the law of order n={n} nests too deep to build: Python's recursion "
            f"limit was reached at stage {stage} of {n}"
        ) from None
    return Controller(config=config, z_exprs=tuple(z_exprs), virtual_refs=tuple(refs))


def zero_setpoint_twin(controller: Controller) -> Controller:
    """Controller for the same design with the setpoint moved to the origin.

    The control law depends on x_1 only through z_1 = x_1 - c, so the twin
    evaluated on the shifted state w = x - (c, 0, ..., 0) produces exactly
    the same control values.  Integrating in w instead of x keeps the stage
    errors well above roundoff near the prescribed instant, where x_1 - c
    would otherwise lose all significant digits.

    The twin is synthesized once per controller and cached on it, like
    compiled_u, so every run of a sweep shares it.
    """
    if controller.config.c == 0.0:
        return controller
    return controller._twin


def _checked_config(controller: Controller, x: Sequence[float], t: float) -> SynthesisConfig:
    """The controller's config, once x fits its order and t is a valid time."""
    cfg = controller.config
    if len(x) != cfg.n:
        raise ConfigurationError(
            f"state has {len(x)} components, controller expects {cfg.n}"
        )
    if not math.isfinite(t) or t < 0.0:
        raise ConfigurationError(f"time must be finite and nonnegative, got {t!r}")
    return cfg


def eval_control(controller: Controller, x: Sequence[float], t: float) -> float:
    """Control value with the terminal switch applied: u = 0 for t >= T_p."""
    cfg = _checked_config(controller, x, t)
    if t >= cfg.T_p:
        return 0.0
    return sd.evaluate(controller.u_expr, x, t)


def error_coordinates(
    controller: Controller, x: Sequence[float], t: float
) -> tuple[float, ...]:
    """Stage errors (z_1, ..., z_n) at (x, t); undefined at or after T_p."""
    cfg = _checked_config(controller, x, t)
    if t >= cfg.T_p:
        raise SingularityError(
            f"stage errors involve the virtual references, undefined at t={t} >= T_p={cfg.T_p}"
        )
    return tuple(sd.evaluate(z, x, t) for z in controller.z_exprs)


def describe(controller: Controller) -> str:
    """Human-readable rendering of the synthesized law, for logs."""
    cfg = controller.config
    lines = [
        f"order n={cfg.n}, setpoint c={cfg.c!r}, prescribed instant T_p={cfg.T_p!r}",
        "stages: "
        + ", ".join(f"{s.kind.value}(eta={s.eta!r})" for s in cfg.stages),
    ]
    for i, z in enumerate(controller.z_exprs, start=1):
        lines.append(f"z{i} = {sd.to_infix(z)}")
    for i, ref in enumerate(controller.virtual_refs[:-1], start=2):
        lines.append(f"x{i}d = {sd.to_infix(ref)}")
    lines.append(f"u = {sd.to_infix(controller.u_expr)}")
    return "\n".join(lines)
