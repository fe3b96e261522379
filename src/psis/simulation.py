"""Closed-loop simulation through the terminal singularity.

The control law carries a 1/(T_p - t) gain, so the loop is integrated on
[0, T_p - eps_stop] only, held off the singular instant by the standoff
eps_stop.  The remaining sliver is crossed with a single explicit Euler step
using the last control value, after which the input is switched to zero and
the free chain is integrated on [T_p, t_end].  One runner, _run_phases,
takes every run (simulate and simulate_pendulum_raw alike) through these
phases, and it alone picks the clock before T_p from SimConfig.mode.
Samples are recorded on a uniform grid, plus the standoff, the instant
itself, and accepted step boundaries inside the terminal window.  Steps
land exactly only where a stretch of integration ends (the standoff and
t_end); every grid point before that is read off the 4th-order dense
output of the accepted step that covers it, so the step count follows the
tolerances, not the grid.

Two coordinate choices matter for accuracy:

  * The loop is integrated in setpoint-relative coordinates w = x - (c, 0,
    ..., 0) using a zero-setpoint twin of the controller.  The control law
    depends on x_1 only through x_1 - c, so the twin reproduces u exactly
    while keeping the stage errors representable near T_p, where x_1 itself
    has absorbed the setpoint and carries no significant digits of z_1.
  * The change of clock tau = -ln((T_p - t)/T_p), which runs unless
    SimConfig.mode asks for "direct", stretches the terminal approach onto
    an infinite horizon; dx/dtau = (T_p - t) dx/dt.  Both parameterizations
    must agree wherever they share sample times.

The integrator is a Dormand-Prince 5(4) embedded pair with the first-same-
as-last evaluation reused across accepted steps, a PI step-size controller
and Hairer's free continuous extension (DOPRI5's contd5; Hairer, Norsett &
Wanner, Solving ODEs I, II.6).  It is written here because the surrounding
contracts (never stepping past the standoff, landing exactly on the end of
each stretch, rejected-step accounting, bit-for-bit determinism) are part
of this module's job, not incidental solver details.  The step loop exists
once, as a template that holds only its control flow; its stages, solution,
error estimate and dense output are written from one table of the pair's
weights (_DP5).  On first use for a state dimension n it is unrolled over n
scalar locals and compiled by symdiff.compile_source, like every generated
function, so a stage costs no per-component list or generator.  Every
component keeps the float operations of a loop over lists, in the same
order, so the samples and counters are the same bits either way.  The field
is evaluated outside a trial step twice, at the start of each stretch and
at the crossing, both through _derivative, which turns a failure into a
DivergenceError.  Each law is generated the same way, once per controller,
from one walk of its DAG: one program holds u, the chain's vector fields on
both clocks and the sample recorders (see _program_source).

A Trajectory holds its samples as parallel columns (t, x, u, and z, V, dV
over the pre-instant rows, which come first), each one array of doubles;
x and z hold their rows flat, n values a row, behind a view that reads
them as tuples.  The recorders extend the arrays a row at a time, and the
audits and writers read them directly; Sample records are built only when
Trajectory.samples or sample_at asks.
"""

from __future__ import annotations

import functools
import math
import operator
import string
from array import array
from bisect import bisect_left
from collections import namedtuple
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence, Union

from . import symdiff as sd
from .errors import (
    AuditError,
    ConfigurationError,
    DivergenceError,
    StiffnessError,
)
from .rcdf import kernel_source
from .synthesis import Controller, zero_setpoint_twin

# ---------------------------------------------------------------------------
# plants


@dataclass(frozen=True)
class IntegratorChain:
    """Pure chain of n integrators driven by a scalar input."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigurationError(f"chain order must be a positive int, got {self.n!r}")


@dataclass(frozen=True)
class Pendulum:
    """Rigid pendulum (angle, angular rate) with viscous friction.

    theta'' = -(g/l) sin(theta) - (k/m) theta' + torque / (m l^2)

    Under the matching torque (see torque_map) the angle dynamics collapse
    to a double integrator driven by the design input u, which is how the
    closed loop is simulated; the raw form is kept for cross-checks.
    """

    length: float = 0.5
    mass: float = 0.1
    gravity: float = 9.81
    friction: float = 0.01

    def __post_init__(self) -> None:
        for name in ("length", "mass", "gravity"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ConfigurationError(f"{name} must be finite and positive, got {v!r}")
        if not math.isfinite(self.friction) or self.friction < 0.0:
            raise ConfigurationError(
                f"friction must be finite and nonnegative, got {self.friction!r}"
            )
        try:  # the coefficients of the dynamics, as torque_map computes them
            inertia = self.mass * self.length ** 2
        except OverflowError:
            inertia = math.inf
        for name, v in (("mass * length**2", inertia),
                        ("gravity / length", self.gravity / self.length),
                        ("friction / mass", self.friction / self.mass)):
            if not math.isfinite(v):
                raise ConfigurationError(f"{name} must be finite, got {v!r}")
        if inertia <= 0.0:
            raise ConfigurationError(f"mass * length**2 must be positive, got {inertia!r}")


PlantModel = Union[IntegratorChain, Pendulum]


def plant_order(plant: PlantModel) -> int:
    return plant.n if isinstance(plant, IntegratorChain) else 2


def plant_description(plant: PlantModel) -> dict:
    """The plant as the configuration's plant section spells it."""
    kind = "chain" if isinstance(plant, IntegratorChain) else "pendulum"
    return {"type": kind, **asdict(plant)}


def torque_map(plant: Pendulum, x: Sequence[float], u: float) -> float:
    """Torque that makes the pendulum track the double-integrator input u."""
    inertia = plant.mass * plant.length ** 2
    return inertia * (
        (plant.gravity / plant.length) * math.sin(x[0])
        + (plant.friction / plant.mass) * x[1]
        + u
    )


def pendulum_accel(plant: Pendulum, x: Sequence[float], torque: float) -> float:
    """Raw angular acceleration under an applied torque."""
    inertia = plant.mass * plant.length ** 2
    return (
        -(plant.gravity / plant.length) * math.sin(x[0])
        - (plant.friction / plant.mass) * x[1]
        + torque / inertia
    )


def pendulum_energy(plant: Pendulum, x: Sequence[float]) -> float:
    """Mechanical energy; conserved for zero torque and zero friction."""
    inertia = plant.mass * plant.length ** 2
    return 0.5 * inertia * x[1] ** 2 + plant.mass * plant.gravity * plant.length * (
        1.0 - math.cos(x[0])
    )


# ---------------------------------------------------------------------------
# configuration and trajectory containers


_MODES = ("direct", "tau")

# The terminal window [TERMINAL_WINDOW_START * T_p, T_p): every run records each
# accepted step boundary in it, and control_vanishing_check audits u over it.
TERMINAL_WINDOW_START = 0.95

# Largest t_end / sample_dt a run may ask for.  Every grid point becomes a
# sample, so the cap keeps a long horizon from exhausting memory.
_MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.  None fields resolve to T_p-scaled defaults."""

    x0: tuple[float, ...]
    T_p: float
    t_end: float
    eps_stop: float | None = None   # default 1e-9 * T_p
    rtol: float = 1e-9
    atol: float = 1e-12
    max_step: float | None = None   # default T_p / 1000
    sample_dt: float | None = None  # default T_p / 500
    # the clock before T_p: "tau" resolves the approach, while on "direct"
    # |u| at the standoff is roundoff of terms scaled by 1/(T_p - t)^2
    mode: str = "tau"
    open_loop: bool = False         # force u = 0; a run the verifier must reject

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if len(self.x0) == 0 or not all(math.isfinite(v) for v in self.x0):
            raise ConfigurationError(f"x0 must be a nonempty finite vector, got {self.x0!r}")
        if not math.isfinite(self.T_p) or self.T_p <= 0.0:
            raise ConfigurationError(f"T_p must be finite and positive, got {self.T_p!r}")
        if not math.isfinite(self.t_end) or self.t_end < self.T_p:
            raise ConfigurationError(
                f"t_end must be finite and >= T_p={self.T_p}, got {self.t_end!r}"
            )
        if self.eps_stop is None:
            object.__setattr__(self, "eps_stop", 1e-9 * self.T_p)
        if not (0.0 < self.eps_stop <= 0.01 * self.T_p):
            raise ConfigurationError(
                f"eps_stop must lie in (0, 0.01*T_p], got {self.eps_stop!r}"
            )
        if self.t_standoff == self.T_p:
            raise ConfigurationError(
                f"eps_stop={self.eps_stop!r} is too small for T_p={self.T_p!r}: "
                "T_p - eps_stop rounds to T_p, so the run could never reach "
                "its standoff"
            )
        if self.max_step is None:
            object.__setattr__(self, "max_step", self.T_p / 1000.0)
        if not (0.0 < self.max_step <= self.T_p):
            raise ConfigurationError(f"max_step must lie in (0, T_p], got {self.max_step!r}")
        if self.sample_dt is None:
            object.__setattr__(self, "sample_dt", self.T_p / 500.0)
        if not (10.0 * self.eps_stop <= self.sample_dt <= self.T_p / 10.0):
            raise ConfigurationError(
                "sample_dt must lie in [10*eps_stop, T_p/10], "
                f"got {self.sample_dt!r}"
            )
        points = self.t_end / self.sample_dt
        if points > _MAX_GRID_POINTS:
            raise ConfigurationError(
                f"t_end / sample_dt asks for {points:.6g} sample points, more than "
                f"the limit of {_MAX_GRID_POINTS}; raise sample_dt or lower t_end"
            )
        if not (0.0 < self.rtol < 1.0) or not (0.0 < self.atol < 1.0):
            raise ConfigurationError(
                f"rtol and atol must lie in (0, 1), got rtol={self.rtol!r} atol={self.atol!r}"
            )
        if self.mode not in _MODES:
            raise ConfigurationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        # max_step alone forces this many steps: the tau clock caps the
        # steps before T_p in its own units, the direct clock by max_step
        forced = (self.t_end - self.T_p) / self.max_step
        if self.mode == "direct":
            forced += self.T_p / self.max_step
        if forced > _STEP_BUDGET:
            raise ConfigurationError(
                f"max_step={self.max_step!r} forces at least {forced:.6g} steps, more "
                f"than the step budget of {_STEP_BUDGET}; raise max_step or lower t_end"
            )
        if not isinstance(self.open_loop, bool):
            raise ConfigurationError(
                f"open_loop must be a bool, got {self.open_loop!r}"
            )

    @property
    def t_standoff(self) -> float:
        return self.T_p - self.eps_stop


@dataclass(frozen=True, slots=True)
class Sample:
    """One recorded instant.  z, V, dV are None at and after T_p, where the
    stage errors are no longer defined."""

    t: float
    x: tuple[float, ...]
    u: float
    z: tuple[float, ...] | None
    V: float | None
    dV: float | None


class _Rows:
    """Rows of width floats each, stored flat in one array of doubles.

    The view reads as a sequence of tuples: len counts the rows, iteration
    yields each row as a tuple (zipped in C from one iterator over flat),
    [i] returns row i and a slice a list of rows.  Two views are equal when
    they hold the same rows.  append adds one row, and the first row of an
    empty view sets its width; a writer that extends flat itself sets
    width first.
    """

    __slots__ = ("flat", "width")

    def __init__(self) -> None:
        self.flat = array("d")
        self.width = 0

    def append(self, row: Sequence[float]) -> None:
        """Add one row.  An empty row, or one whose width differs from the
        first row's, is a ValueError."""
        if not self.flat:
            self.width = len(row)
        if not row:
            raise ValueError("no values")
        if len(row) != self.width:
            raise ValueError(f"{len(row)} values where the first row has {self.width}")
        self.flat.extend(row)

    def __len__(self) -> int:
        return len(self.flat) // self.width if self.width else 0

    def __iter__(self) -> Iterator[tuple[float, ...]]:
        return zip(*[iter(self.flat)] * self.width)

    def __getitem__(self, i):
        w = self.width
        if isinstance(i, slice):
            start, stop, step = i.indices(len(self))
            if step == 1:
                return list(zip(*[iter(self.flat[start * w:stop * w])] * w))
            return [self[k] for k in range(start, stop, step)]
        i = operator.index(i)
        rows = len(self)
        if i < 0:
            i += rows
        if not 0 <= i < rows:
            raise IndexError("row index out of range")
        return tuple(self.flat[i * w:i * w + w])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Rows):
            return NotImplemented
        return self.flat == other.flat and (self.width == other.width or not self.flat)

    def __repr__(self) -> str:
        return f"_Rows({list(self)!r})"


class Trajectory:
    """A sampled run, stored as parallel columns plus its meta dict.

    Row i is the instant t[i] with state x[i] (a tuple) and input u[i]; the
    times never decrease.  The rows that carry stage errors come first:
    z[i] (a tuple), V[i] = sum z_i^2 and its analytic decay rate dV[i]
    cover rows 0 .. len(z) - 1, the pre-instant rows of a closed-loop run.
    The rows after them, at and after T_p (and every row of a raw pendulum
    run), have none.

    Each column is one array of doubles: t, u, V and dV directly, x and z
    behind _Rows views of their flat arrays, so a row holds no float
    objects.  Trajectory(samples, meta) fills the columns from Sample
    records; every x (and every z) must have the first one's width.  The
    samples property rebuilds the records from the columns on each access;
    psis itself reads the columns.
    """

    __slots__ = ("t", "x", "u", "z", "V", "dV", "meta")

    def __init__(self, samples: Iterable[Sample] = (), meta: dict | None = None) -> None:
        self.t, self.u, self.V, self.dV = array("d"), array("d"), array("d"), array("d")
        self.x, self.z = _Rows(), _Rows()
        self.meta = {} if meta is None else meta

        def add(column: array | _Rows, value, name: str, t: float) -> None:
            try:
                column.append(value)
            except ValueError as exc:  # a row whose width is not the first's
                raise ConfigurationError(
                    f"the sample at t={t!r}: its {name} row has {exc}") from None
            except (TypeError, OverflowError) as exc:
                raise ConfigurationError(
                    f"the sample at t={t!r}: its {name} cannot be stored as "
                    f"doubles: {exc}") from None

        for s in samples:
            if s.z is not None:
                if len(self.z) < len(self.t):
                    raise ConfigurationError(
                        f"the sample at t={s.t!r} carries stage errors after one "
                        "that does not; such samples must come first"
                    )
                add(self.z, s.z, "z", s.t)
                add(self.V, s.V, "V", s.t)
                add(self.dV, s.dV, "dV", s.t)
            add(self.t, s.t, "t", s.t)
            add(self.x, s.x, "x", s.t)
            add(self.u, s.u, "u", s.t)
        if not all(a <= b for a, b in zip(self.t, self.t[1:])):
            raise ConfigurationError("sample times must not decrease")

    @property
    def samples(self) -> list[Sample]:
        """The rows as Sample records, built anew on each access."""
        n = len(self.z)
        none = repeat(None)
        return [
            *map(Sample, self.t, self.x, self.u, self.z, self.V, self.dV),
            *map(Sample, self.t[n:], self.x[n:], self.u[n:], none, none, none),
        ]

    def pre_instant_arrays(
        self,
    ) -> tuple[list[float], list[tuple[float, ...]], list[float], list[float]]:
        """(t, z, V, dV): the columns over the rows that carry stage errors,
        the samples strictly before T_p, as new lists."""
        n = len(self.z)
        if not n:
            raise AuditError("trajectory has no samples before the prescribed instant")
        return self.t[:n].tolist(), self.z[:], self.V.tolist(), self.dV.tolist()

    def sample_at(self, t_query: float) -> Sample:
        """The sample nearest t_query, if it lies within 1e-12 * |t_last|;
        the match has no absolute floor, so it holds at any scale of T_p.
        Of equally near samples the earliest is taken.  The times are
        sorted, so the search bisects them."""
        t = self.t
        if not t:
            raise AuditError("trajectory has no samples")
        i = bisect_left(t, t_query)
        if i == len(t) or (i > 0 and abs(t[i - 1] - t_query) <= abs(t[i] - t_query)):
            # the distances fall towards t_query, so the equally near
            # samples (repeats, or rounding ties) lie just before i - 1
            i -= 1
            gap = abs(t[i] - t_query)
            while i > 0 and abs(t[i - 1] - t_query) == gap:
                i -= 1
        if abs(t[i] - t_query) <= 1e-12 * abs(t[-1]):
            if i < len(self.z):
                return Sample(t[i], self.x[i], self.u[i], self.z[i], self.V[i], self.dV[i])
            return Sample(t[i], self.x[i], self.u[i], None, None, None)
        raise AuditError(f"no sample recorded at t={t_query!r}")


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) with PI step control

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ALPHA = 0.7 / 5.0  # PI exponents for a 5th order error estimate
_BETA = 0.4 / 5.0
_MAX_CONSECUTIVE_REJECTS = 40
_STEP_BUDGET = 5_000_000

# The Dormand-Prince 5(4) tableau (Dormand & Prince 1980; Hairer, Norsett &
# Wanner, Solving ODEs I, II.5), the one source of every stage the step loop
# runs.  stages holds rows (c_i, (a_i1, ..., a_i,i-1)) for stages 2..6; the
# seventh stage is the solution's own derivative at c7 = 1, reused as the
# next step's first (first-same-as-last).  b weighs k1..k6 into the 5th
# order solution, e = b - b_hat (the 4th order weights) weighs k1..k7 into
# the error estimate, and d is Hairer's continuous extension of order 4
# (DOPRI5's contd5) on k1..k7: with q2 = y1 - y0, q3 = h k1 - q2,
# q4 = q2 - h k7 - q3 and q5 = h (d1 k1 + ... + d7 k7), the state at
# t0 + th h is y0 + th (q2 + (1 - th) (q3 + th (q4 + (1 - th) q5))).
_Tableau = namedtuple("_Tableau", "stages b e d")
_DP5 = _Tableau(
    stages=(
        (1.0 / 5.0, (1.0 / 5.0,)),
        (0.3, (3.0 / 40.0, 9.0 / 40.0)),
        (0.8, (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0)),
        (8.0 / 9.0, (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0,
                     -212.0 / 729.0)),
        (1.0, (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
               -5103.0 / 18656.0)),
    ),
    b=(35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
       11.0 / 84.0),
    e=(71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
       22.0 / 525.0, -1.0 / 40.0),
    d=(-12715105075.0 / 11282082432.0, 0.0, 87487479700.0 / 32700410799.0,
       -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
       -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0),
)


# What float arithmetic in a vector field or a control law raises.
_ARITHMETIC_ERRORS = (OverflowError, ZeroDivisionError, ValueError)


def _unevaluable(exc: Exception, t: float) -> DivergenceError:
    """The error of a sample at t whose float arithmetic raised exc."""
    return DivergenceError(f"sample could not be evaluated: {exc}", t)


class _RhsFailure(Exception):
    """Internal: a trial point where the vector field or the state is not
    finite; it rejects the step."""


def _derivative(f, t: float, y: list[float], where: str, stats: dict) -> list[float]:
    """f(t, y), counted in stats, outside a trial step: float arithmetic
    that fails in f, or a value that is not finite, is a DivergenceError
    at t whose message says where the field was evaluated."""
    stats["rhs_evals"] += 1
    try:
        out = f(t, y)
    except _ARITHMETIC_ERRORS as exc:
        raise DivergenceError(f"vector field invalid {where}: {exc}", t) from None
    if not all(map(math.isfinite, out)):
        raise DivergenceError(f"vector field invalid {where}: non-finite derivative", t)
    return out


def _estimate_text(err: float | None) -> str:
    """The last scaled error estimate, for step-control diagnostics."""
    return "none yet" if err is None else f"{err:.3e}"


# The step loop's control flow, written once.  $-names are filled in per
# state dimension by _stepper_source, the stages and every weighted sum from
# _DP5: every vector is spelt out as scalar locals, so a stage costs no list
# comprehension, no generator and no helper call.
_STEPPER_TEMPLATE = string.Template('''\
def stepper(f, y_start, t0, stops, labels, rtol, atol, max_step, stats, on_stop, on_step):
    [$y] = [float(v) for v in y_start]
    t = t0
    t_span = abs(stops[-1])
    budget = _STEP_BUDGET - (stats["steps_accepted"] + stats["steps_rejected"])
    accepted = rejected = rhs_evals = 0
    try:
        [$k1] = _derivative(f, t, [$y], "at start", stats)

        target = stops[-1]
        last = len(stops) - 1
        h = min(max_step, (target - t0) / 10.0)
        err_prev = 1.0
        err = None  # scaled error estimate of the last trial step
        rejected_streak = 0
        accepted_at_reject = 0  # accepted, as of the last rejected step
        just_rejected = False
        stop_idx = 0

        while True:
            if accepted + rejected > budget:
                raise StiffnessError(
                    f"step budget of {_STEP_BUDGET} steps exhausted "
                    f"(h={h:.3e}, last error estimate {_estimate_text(err)})", t
                )
            remaining = target - t
            hitting = False
            if h >= remaining * (1.0 - 1e-10):
                h = remaining
                hitting = True
            elif h <= 1e-14 * max(abs(t), t_span):
                raise StiffnessError(
                    f"step size collapsed to {h:.3e} after {rejected_streak} rejected "
                    f"steps in a row and {accepted - accepted_at_reject} accepted "
                    f"since the last rejection (last error estimate "
                    f"{_estimate_text(err)})", t
                )

            try:
$stage_lines
$yn_lines
                if not ($yn_finite):
                    raise _RhsFailure
                rhs_evals += 1
                [$k7] = f(t + h, [$yn])
                if not ($k7_finite):
                    raise _RhsFailure
$err_lines
                err = sqrt(($err_sum) / $n)
            except _REJECTING:
                # a trial the vector field rejected, or an error estimate
                # beyond the float range, rejects the step
                err = inf

            if err <= 1.0:
                accepted += 1
                rejected_streak = 0
                t_new = target if hitting else t + h
                if stop_idx < last and stops[stop_idx] < t_new:
                    # earlier stops inside the step are read off its dense
                    # output, a quartic in th = (s - t) / h
$dense_lines
                    while stop_idx < last and stops[stop_idx] < t_new:
                        s = stops[stop_idx]
                        th = (s - t) / h
                        th1 = 1.0 - th
                        on_stop(labels[stop_idx], [$dense])
                        stop_idx += 1
                t = t_new
                # the trial state is taken; its stage is the next step's
                # first (first-same-as-last)
$accept_lines
                if hitting:
                    y = [$y]
                    on_stop(labels[last], y)
                    return y
                if stops[stop_idx] == t:
                    # a step that ends on a stop records it once, exactly
                    on_stop(labels[stop_idx], [$y])
                    stop_idx += 1
                elif on_step is not None:
                    on_step(t, [$y])
                if err == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA
                cap = 1.0 if just_rejected else _MAX_FACTOR
                h = h * min(cap, max(_MIN_FACTOR, factor))
                h = min(h, max_step)
                just_rejected = False
                err_prev = max(err, 1e-4)
            else:
                rejected += 1
                rejected_streak += 1
                accepted_at_reject = accepted
                just_rejected = True
                if rejected_streak > _MAX_CONSECUTIVE_REJECTS:
                    raise StiffnessError(
                        f"{rejected_streak} consecutive rejected steps "
                        f"(h={h:.3e}, last error estimate {_estimate_text(err)})", t
                    )
                if isinf(err):
                    h *= 0.25
                else:
                    h *= min(1.0, max(_MIN_FACTOR, _SAFETY * err ** (-0.2)))
    finally:
        # a partial trajectory carries the counts of the steps it took
        stats["steps_accepted"] += accepted
        stats["steps_rejected"] += rejected
        stats["rhs_evals"] += rhs_evals
''')


def _stepper_source(n: int) -> str:
    """The step loop for states of dimension n, its stages written from _DP5.

    Component j of every vector is the local y{j}, k1_{j}..k7_{j} or yn{j},
    and the tableau weights are inlined as float literals (repr round-trips
    exactly); a zero weight writes no term, and a node of 1 is t + h.  Each
    component keeps the arithmetic of a loop over lists, operation for
    operation and in the same order, so the results are the same bits.
    """
    J = range(n)
    indent = " " * 16

    def vec(name: str) -> str:
        return ", ".join(f"{name}{j}" for j in J)

    def finite(name: str) -> str:
        return " and ".join(f"isfinite({name}{j})" for j in J)

    def combo(weights: Sequence[float], j: int) -> str:
        return " + ".join(f"{w!r} * k{i}_{j}" for i, w in enumerate(weights, 1) if w)

    stage_lines = []
    for i, (c, a) in enumerate(_DP5.stages, start=2):
        if len(a) == 1:
            # h * a * k1, as a loop over lists evaluates it: (h * a) * k1
            stage_lines.append(f"h{i}1 = h * {a[0]!r}")
            state = ", ".join(f"y{j} + h{i}1 * k1_{j}" for j in J)
        else:
            state = ", ".join(f"y{j} + h * ({combo(a, j)})" for j in J)
        node = "t + h" if c == 1.0 else f"t + {c!r} * h"
        stage_lines += [
            "rhs_evals += 1",
            f"[{vec(f'k{i}_')}] = f({node}, [{state}])",
            f"if not ({finite(f'k{i}_')}):",
            "    raise _RhsFailure",
        ]
    err_lines = []
    for j in J:
        # max(p, q) keeps p unless q > p; spelt out to skip the call
        err_lines += [
            f"a = abs(y{j})",
            f"b = abs(yn{j})",
            f"r{j} = h * ({combo(_DP5.e, j)}) / (atol + rtol * (b if b > a else a))",
        ]
    return _STEPPER_TEMPLATE.substitute(
        n=repr(n),
        y=vec("y"),
        yn=vec("yn"),
        yn_finite=finite("yn"),
        k1=vec("k1_"),
        k7=vec("k7_"),
        k7_finite=finite("k7_"),
        stage_lines="\n".join(indent + line for line in stage_lines),
        yn_lines="\n".join(f"{indent}yn{j} = y{j} + h * ({combo(_DP5.b, j)})" for j in J),
        err_lines="\n".join(indent + line for line in err_lines),
        err_sum=" + ".join(f"r{j} ** 2" for j in J),
        dense_lines="\n".join(
            indent + "    " + line for j in J for line in (
                f"q2_{j} = yn{j} - y{j}",
                f"q3_{j} = h * k1_{j} - q2_{j}",
                f"q4_{j} = q2_{j} - h * k7_{j} - q3_{j}",
                f"q5_{j} = h * ({combo(_DP5.d, j)})",
            )
        ),
        dense=", ".join(
            f"y{j} + th * (q2_{j} + th1 * (q3_{j} + th * (q4_{j} + th1 * q5_{j})))"
            for j in J
        ),
        accept_lines="\n".join(
            f"{indent}y{j} = yn{j}\n{indent}k1_{j} = k7_{j}" for j in J
        ),
    )


@functools.cache
def _stepper(n: int) -> Callable:
    """The compiled step loop for dimension n, built on its first use."""
    return sd.compile_source(
        _stepper_source(n), "<psis.stepper>",
        StiffnessError=StiffnessError, _derivative=_derivative,
        _RhsFailure=_RhsFailure, _REJECTING=(_RhsFailure,) + _ARITHMETIC_ERRORS,
        _estimate_text=_estimate_text,
        _STEP_BUDGET=_STEP_BUDGET, _MAX_CONSECUTIVE_REJECTS=_MAX_CONSECUTIVE_REJECTS,
        _SAFETY=_SAFETY, _MIN_FACTOR=_MIN_FACTOR, _MAX_FACTOR=_MAX_FACTOR,
        _ALPHA=_ALPHA, _BETA=_BETA,
    )["stepper"]


def _adaptive_path(
    f: Callable[[float, list[float]], list[float]],
    y0: Sequence[float],
    t0: float,
    stops: Sequence[float],
    labels: Sequence[float],
    *,
    rtol: float,
    atol: float,
    max_step: float,
    stats: dict,
    on_stop: Callable[[float, list[float]], None],
    on_step: Callable[[float, list[float]], None] | None = None,
) -> list[float]:
    """Integrate y' = f(t, y) from t0 through every time in stops.

    stops must be strictly increasing and start after t0.  on_stop(labels[i],
    y) fires at stops[i], in order, so a sample recorder can take it as it
    is: one call per stop.  Only the last stop is landed on: steps are
    clipped to it and its state is the step's own.  An earlier stop takes
    the dense output of the accepted step that covers it, unless a step
    ends on it bit for bit, which records that step's state once.  on_step
    fires at every other accepted step boundary, after the stops the step
    covered.  Returns the state at the last stop.  A StiffnessError names
    the step size and the last scaled error estimate (inf for a trial the
    vector field rejected); a collapsed step size also names the steps
    rejected in a row before it and those accepted since the last rejection
    (or since t0).
    """
    return _stepper(len(y0))(
        f, y0, t0, stops, labels, rtol, atol, max_step, stats, on_stop, on_step
    )


# ---------------------------------------------------------------------------
# closed-loop simulation


def _pre_grid(cfg: SimConfig) -> list[float]:
    """Scheduled pre-instant times: the uniform grid, then the standoff."""
    t_std = cfg.t_standoff
    dt = cfg.sample_dt
    stops = []
    k = 1
    while True:
        tk = k * dt
        if tk >= t_std - 0.1 * cfg.eps_stop:
            break
        stops.append(tk)
        k += 1
    stops.append(t_std)
    return stops


def _post_grid(cfg: SimConfig) -> list[float]:
    """Scheduled post-instant times in (T_p, t_end]."""
    dt = cfg.sample_dt
    stops = []
    k = int(math.floor(cfg.T_p / dt)) + 1
    while True:
        tk = k * dt
        if tk >= cfg.t_end * (1.0 - 1e-15):
            break
        if tk > cfg.T_p:
            stops.append(tk)
        k += 1
    if cfg.t_end > cfg.T_p:
        stops.append(cfg.t_end)
    return stops


# The program of one law, as a template: $-names are filled in per
# controller by _program_source.  A row is computed in full before any of
# it is appended, so a sample that raises leaves the columns as they were.
_PROGRAM_TEMPLATE = string.Template('''\
${u_def}def field(t, x):
    return [$entries]

def field_tau(tau, x):
    gap = $T_p * exp(-tau)  # T_p - t, computed without cancellation
    t = $T_p - gap
    return [$entries_tau]

def free_field(t, x):
    return [$free_entries]

def make(c, traj):
    traj.x.width = traj.z.width = $n
    add_t, add_x, add_u = traj.t.append, traj.x.flat.extend, traj.u.append
    add_z, add_V, add_dV = traj.z.flat.extend, traj.V.append, traj.dV.append

    def record(t, x):
        try:
$body
            row_u = $u
            row_x = $x
            V = $V
            dV = -2.0 / ($T_p - t) * ($decay)
        except _ARITHMETIC_ERRORS as exc:
            raise _unevaluable(exc, t) from None
        add_t(t)
        add_x(row_x)
        add_u(row_u)
        add_z(z)
        add_V(V)
        add_dV(dV)

    def record_free(t, x):
        row_x = $x
        add_t(t)
        add_x(row_x)
        add_u(0.0)

    return record, record_free
''')


def _tuple_text(items: Sequence[str]) -> str:
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _program_source(controller: Controller, open_loop: bool) -> str:
    """The simulator's code for a zero-setpoint law, from one emission of
    its DAG with the z's and u as roots (the z's alone on an open loop):
    the z nodes, then the nodes u needs beyond them (every z node is a node
    of u).  A node read in one place is written inline; a z that u also
    reads is read twice, so it keeps a local, and the record body names it.
    It defines u(x, t) (none on an open loop, where u is the
    literal 0.0), the chain's field(t, x) = [x[1], ..., x[n-1], u(x, t)],
    field_tau(tau, x), the same times T_p - t on the clock
    tau = -ln((T_p - t)/T_p), the input-free free_field(t, x), and
    make(c, traj) -> (record, record_free) for the setpoint c.  Both append
    the row of the setpoint-shifted state x at time t to traj's columns,
    extending the flat arrays of x and z by a row's n values:
    record before T_p, checking that z is finite before u's own nodes and
    inlining each stage's kernel in V and dV; record_free from T_p on.
    record computes u before it appends anything, so a u that raises
    leaves no partial row; float arithmetic that fails in it (an overflow,
    a division by zero) raises DivergenceError at t.  The stepper calls
    record itself at each stop, so a sample costs one Python call.
    Every value keeps the float operations of evaluating each z and u on
    its own and of summing V and dV stage by stage, so it is the same bits.
    """
    sc = controller.config
    roots = list(controller.z_exprs) if open_loop else [*controller.z_exprs, controller.u_expr]
    lines: list[str] = []
    emit = sd.code_emitter(roots, lines)
    z_values = [emit(z) for z in controller.z_exprs]
    z_lines = lines[:]
    z = [f"z{i}" for i in range(1, sc.n + 1)]
    record = z_lines + [f"{zi} = {value}" for zi, value in zip(z, z_values)] + [
        f"z = {_tuple_text(z)}",
        f"if not ({' and '.join(f'isfinite({zi})' for zi in z)}):",
        '    raise DivergenceError(f"stage errors are not finite: z={z!r}", t)',
    ]
    if open_loop:
        u, u_call, u_def = "0.0", "0.0", ""
    else:
        u = emit(controller.u_expr)
        record += lines[len(z_lines):]
        u_call = "u(x, t)"
        u_body = "".join(f"    {line}\n" for line in lines)
        u_def = f"def u(x, t):\n{u_body}    return {u}\n\n"
    shifts = [f"x[{j}]" for j in range(1, sc.n)]
    return _PROGRAM_TEMPLATE.substitute(
        u_def=u_def,
        entries=", ".join(shifts + [u_call]),
        entries_tau=", ".join(f"gap * {e}" for e in shifts + [u_call]),
        free_entries=", ".join(shifts + ["0.0"]),
        body="\n".join(" " * 12 + line for line in record),
        # + 0.0 as in adding the offset (c, 0, ..., 0): it turns -0.0 into 0.0
        x=_tuple_text(["x[0] + c"] + [f"x[{j}] + 0.0" for j in range(1, sc.n)]),
        u=u,
        n=repr(sc.n),
        T_p=repr(sc.T_p),
        # left-to-right sums from 0.0, as a loop over the stages adds them:
        # the leading 0.0 turns a sum of -0.0 terms into 0.0
        V=" + ".join(["0.0"] + [f"{zi} * {zi}" for zi in z]),
        decay=" + ".join(["0.0"] + [
            f"{stage.eta!r} * {zi} * {kernel_source(stage.kind, zi)}"
            for stage, zi in zip(sc.stages, z)
        ]),
    )


# The compiled _program_source of one law; u is None on an open loop.
_Program = namedtuple("_Program", "u field field_tau free_field make source")


def _program(controller: Controller, open_loop: bool) -> _Program:
    """The program of a zero-setpoint law, compiled on first use and cached
    on the controller.  Two threads building it at once compile equal code;
    either may stay."""
    program = controller.recorders.get(open_loop)
    if program is None:
        source = _program_source(controller, open_loop)
        namespace = sd.compile_source(
            source, "<psis.program>", DivergenceError=DivergenceError,
            _ARITHMETIC_ERRORS=_ARITHMETIC_ERRORS, _unevaluable=_unevaluable)
        program = _Program(*map(namespace.get, _Program._fields[:-1]), source)
        program = controller.recorders.setdefault(open_loop, program)
    return program


def _check_compatibility(plant: PlantModel, controller: Controller, cfg: SimConfig) -> None:
    n = plant_order(plant)
    if controller.config.n != n:
        raise ConfigurationError(
            f"controller order {controller.config.n} does not match plant order {n}"
        )
    if len(cfg.x0) != n:
        raise ConfigurationError(f"x0 has {len(cfg.x0)} components, plant needs {n}")
    if cfg.T_p != controller.config.T_p:
        raise ConfigurationError(
            f"simulation T_p={cfg.T_p} differs from controller T_p={controller.config.T_p}"
        )
    for i, stage in enumerate(controller.config.stages, start=1):
        if not math.isfinite(stage.eta / cfg.eps_stop):
            raise ConfigurationError(
                f"stage {i}'s gain eta/(T_p - t) overflows before the standoff: "
                f"eta={stage.eta!r} over eps_stop={cfg.eps_stop!r} is not finite"
            )


_TAU_MAX_STEP = 0.05


def _run_phases(
    cfg: SimConfig,
    field: Callable[[float, list[float]], list[float]],
    field_tau: Callable[[float, list[float]], list[float]] | None,
    free_field: Callable[[float, list[float]], list[float]],
    make: Callable[[Trajectory], tuple[Callable, Callable]],
    w0: list[float],
    meta: dict,
) -> Trajectory:
    """The one runner of a simulation's phases, for every path.

    make(traj) binds (record_pre, record_post) to the new, empty
    trajectory; each appends the row of (t, state), before and from T_p
    on, and the stepper calls them directly.  The run records w0 at t = 0
    and integrates to the standoff on the clock cfg.mode names, the one
    place a run reads it: field with max_step over the pre-instant grid
    on "direct"; on "tau", tau = -ln((T_p - t)/T_p), field_tau from
    tau = 0 with steps of at most _TAU_MAX_STEP, stopping at the tau of
    each grid time.  On either clock every other accepted step boundary
    in the terminal window is recorded as well.  A StiffnessError on the
    tau clock is raised again at t = to_t(tau), with tau appended to its
    message; one at tau = 0 is t = 0 and stays as it is.  One Euler step
    of field crosses the instant, the state at T_p is recorded, and
    free_field runs over the post-instant grid.  A sample that cannot be
    evaluated raises DivergenceError at its t and ends the run.  The
    trajectory is labelled with meta, the config and the integrator
    counters, and so is the partial one an integration breakdown carries.
    """
    T_p = cfg.T_p
    t_standoff = cfg.t_standoff
    pre = _pre_grid(cfg)
    on_tau = cfg.mode == "tau"
    if on_tau:
        rhs, max_step, to_t = field_tau, _TAU_MAX_STEP, lambda tau: -T_p * math.expm1(-tau)
        stops = [
            math.log(T_p / cfg.eps_stop) if tk == t_standoff else math.log(T_p / (T_p - tk))
            for tk in pre
        ]
    else:
        rhs, max_step, stops, to_t = field, cfg.max_step, pre, lambda t: t

    traj = Trajectory()
    record_pre, record_post = make(traj)
    stats = {"steps_accepted": 0, "steps_rejected": 0, "rhs_evals": 0}
    window_start = TERMINAL_WINDOW_START * T_p

    def on_step(s: float, w: list[float]) -> None:
        t = to_t(s)
        if t >= window_start:
            record_pre(t, w)

    try:
        record_pre(0.0, w0)
        try:
            w = _adaptive_path(
                rhs, w0, 0.0, stops, pre, rtol=cfg.rtol, atol=cfg.atol,
                max_step=max_step, stats=stats, on_stop=record_pre, on_step=on_step,
            )
        except StiffnessError as exc:
            if not on_tau or exc.t == 0.0:
                raise
            raise StiffnessError(
                f"{exc}, at tau={exc.t:.9g} on the tau clock (h in tau units)", to_t(exc.t)
            ) from None
        # one Euler step of length eps_stop with the frozen last control
        f = _derivative(field, t_standoff, w, "at the standoff", stats)
        w = [w[j] + cfg.eps_stop * f[j] for j in range(len(w))]
        record_post(T_p, w)
        post = _post_grid(cfg)
        if post:
            _adaptive_path(
                free_field, w, T_p, post, post,
                rtol=cfg.rtol, atol=cfg.atol, max_step=cfg.max_step, stats=stats,
                on_stop=record_post,
            )
    except (StiffnessError, DivergenceError) as exc:
        exc.partial = traj
        raise
    finally:
        traj.meta = {**meta, **asdict(cfg), "x0": list(cfg.x0),
                     "t_standoff": t_standoff, **stats}
    return traj


def simulate(plant: PlantModel, controller: Controller, cfg: SimConfig) -> Trajectory:
    """Run the closed loop and return the sampled trajectory.

    The zero-setpoint twin of the law is integrated from x0 - (c, 0, ...,
    0) on the clock cfg.mode names (see _run_phases), and every row is
    shifted back by the setpoint as it is recorded.  On integrator
    breakdown the raised error carries the samples collected so far in
    its `partial` attribute.
    """
    _check_compatibility(plant, controller, cfg)
    sc = controller.config
    program = _program(zero_setpoint_twin(controller), cfg.open_loop)
    meta = {
        "plant": plant_description(plant),
        "n": sc.n,
        "c": sc.c,
        "etas": [s.eta for s in sc.stages],
        "kinds": [s.kind.value for s in sc.stages],
    }
    return _run_phases(
        cfg, program.field, program.field_tau, program.free_field,
        functools.partial(program.make, sc.c), [cfg.x0[0] - sc.c, *cfg.x0[1:]], meta,
    )


def simulate_pendulum_raw(
    plant: Pendulum,
    cfg: SimConfig,
    torque_fn: Callable[[Sequence[float], float], float],
) -> Trajectory:
    """Integrate the raw nonlinear pendulum under an arbitrary torque signal.

    This is the physical-space cross-check for the linearized closed-loop
    path, run by the same runner (_run_phases): the same standoff, Euler
    crossing, free segment and terminal-window rows, but no setpoint shift
    and no error bookkeeping, so the samples carry z = V = dV = None and u
    holds the applied torque, as a float.  It always integrates on the
    direct clock, whatever cfg.mode says, so a max_step that forces more
    steps than the budget on that clock is a ConfigurationError; its meta
    holds the config it ran with, mode "direct".
    Tight tolerances are not appropriate here when torque_fn encodes a
    feedback law in raw coordinates, because the stage errors hit the
    roundoff floor of the setpoint well before the standoff; pass a
    mid-precision config and a larger eps_stop instead.
    """
    if len(cfg.x0) != 2:
        raise ConfigurationError(f"pendulum state has 2 components, got {len(cfg.x0)}")
    cfg = replace(cfg, mode="direct")  # validated again, as a direct run

    def rhs(t: float, x: list[float]) -> list[float]:
        return [x[1], pendulum_accel(plant, x, torque_fn(x, t))]

    def make(traj: Trajectory) -> tuple[Callable, Callable]:
        traj.x.width = 2
        add_t, add_x, add_u = traj.t.append, traj.x.flat.extend, traj.u.append

        def record(t: float, x: Sequence[float]) -> None:
            row_x = tuple(x)
            try:
                u = float(torque_fn(x, t))
            except _ARITHMETIC_ERRORS as exc:
                raise _unevaluable(exc, t) from None
            add_t(t)
            add_x(row_x)
            add_u(u)

        return record, record

    meta = {"raw": True, "plant": plant_description(plant)}
    return _run_phases(cfg, rhs, None, rhs, make, list(cfg.x0), meta)
