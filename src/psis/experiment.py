"""Experiment files: strict JSON configuration for the command line driver.

A configuration names a plant, the controller design, the run parameters,
the audit tolerances, and the output files.  Parsing is strict: unknown keys
are rejected rather than ignored, so a typo cannot silently fall back to a
default.  Keys starting with an underscore (conventionally "_doc") are
treated as comments and skipped anywhere in the tree.

Each section is read into a dataclass, which is its schema: the section's
allowed keys are the dataclass's fields, its required keys are the fields
without a default, each value is read by the reader for its field's
annotation, and an absent key keeps the dataclass default.  Each dataclass
holds its own defaults and rules; the parsers add only what crosses
sections: n from the plant, T_p from the synthesis section, output paths
built from run_id and the config's directory, and the refusal of a
settling window that reaches the sim's standoff.  Defaults are resolved
at load time; effective_config echoes the same fields back as the fully
resolved dictionary, which goes into run reports and reproduces the same
experiment when fed back in.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from typing import Any, Callable, Collection

from .errors import ConfigurationError
from .rcdf import RcdfKind, RcdfSpec
from .simulation import (
    IntegratorChain, Pendulum, PlantModel, SimConfig, plant_description, plant_order,
)
from .synthesis import SynthesisConfig


@dataclass(frozen=True)
class VerifyParams:
    tol_abs: float = 1e-4
    tol_rel: float = 1e-6
    window_factor: float = 0.9
    spread_bound: float = 0.05
    slack_abs: float = 1e-6
    slack_rel: float = 1e-3
    scales: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if self.tol_abs <= 0.0 or self.tol_rel < 0.0:
            raise ConfigurationError(
                "verify.tol_abs must be positive and verify.tol_rel nonnegative")
        if not (0.0 < self.window_factor < 1.0):
            raise ConfigurationError("verify.window_factor must lie in (0, 1)")
        for problem in (spread_bound_problem(self.spread_bound),
                        slack_problem(self.slack_abs, self.slack_rel)):
            if problem is not None:
                raise ConfigurationError(problem)


def slack_problem(slack_abs: float, slack_rel: float) -> str | None:
    """Why the decay audit (verification.lyapunov_audit) cannot judge with
    these slacks, or None if it can: for dV <= 0 and slack_rel >= 1,
    dV < lower - slack never holds."""
    if slack_abs >= 0.0 and 0.0 <= slack_rel < 1.0:
        return None
    return ("verify.slack_abs must be nonnegative and verify.slack_rel in [0, 1), "
            f"got slack_abs={slack_abs!r}, slack_rel={slack_rel!r}")


def spread_bound_problem(spread_bound: float) -> str | None:
    """Why a sweep (verification.sweep_initial_conditions) cannot judge its
    spread against this bound, or None if it can: at nan or inf its spread
    clause could never fail, and at 0 or below it could never pass."""
    if 0.0 < spread_bound < 1.0:
        return None
    return "verify.spread_bound must lie in (0, 1)"


@dataclass(frozen=True)
class OutputPaths:
    csv: str | None
    svg: str | None
    report: str | None


@dataclass(frozen=True)
class ExperimentSpec:
    run_id: str
    plant: PlantModel
    synthesis: SynthesisConfig
    sim: SimConfig
    verify: VerifyParams
    output: OutputPaths


# Fields that a section's JSON object does not carry: the sim section takes
# T_p from the synthesis section, and the synthesis section takes n from the
# plant.
_SKIP: dict[type, set[str]] = {SimConfig: {"T_p"}, SynthesisConfig: {"n"}}


def _require_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {type(value).__name__}")
    return {k: v for k, v in value.items() if not k.startswith("_")}


def _reject_unknown(d: dict, cls: type, where: str, extra: Collection[str] = ()) -> None:
    """Refuse the keys of d that are neither fields of dataclass cls nor extra."""
    allowed = ({f.name for f in fields(cls)} - _SKIP.get(cls, set())).union(extra)
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in {where}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ConfigurationError(
            f"{where} must be finite, got an integer past the float range") from None
    if not math.isfinite(v):
        raise ConfigurationError(f"{where} must be finite, got {value!r}")
    return v


def _as_opt_float(value: Any, where: str) -> float | None:
    return None if value is None else _as_float(value, where)


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    return value


def _as_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{where} must be true or false, got {value!r}")
    return value


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{where} must be a string, got {value!r}")
    return value


def _as_floats(value: Any, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigurationError(f"{where} must be a nonempty list of numbers")
    return tuple(_as_float(v, f"{where}[{i}]") for i, v in enumerate(value))


def _as_stages(value: Any, where: str) -> tuple[RcdfSpec, ...]:
    if not isinstance(value, list):
        raise ConfigurationError(f"{where} must be a list")
    return tuple(
        RcdfSpec(**_read(RcdfSpec, item, f"{where}[{i}]")) for i, item in enumerate(value)
    )


# The reader for each field annotation a section uses.  The annotations are
# strings, because every psis module postpones their evaluation.
_READERS: dict[str, Callable[[Any, str], Any]] = {
    "float": _as_float,
    "float | None": _as_opt_float,
    "int": _as_int,
    "bool": _as_bool,
    "str": _as_str,
    "tuple[float, ...]": _as_floats,
    "RcdfKind": lambda value, where: RcdfKind.from_name(_as_str(value, where)),
    "tuple[RcdfSpec, ...]": _as_stages,
}


def _read(cls: type, data: Any, where: str, extra: Collection[str] = ()) -> dict:
    """Keyword arguments for dataclass cls from the JSON object data.

    The object's keys are cls's fields, less those in _SKIP, plus extra; a
    field without a default is required.  Each key present is read by the
    reader for its field's annotation, and an absent one keeps its default.
    """
    d = _require_mapping(data, where)
    _reject_unknown(d, cls, where, extra)
    skip = _SKIP.get(cls, set())
    for f in fields(cls):
        if f.default is MISSING and f.name not in skip and f.name not in d:
            raise ConfigurationError(f"{where}.{f.name} is required")
    return {
        f.name: _READERS[f.type](d[f.name], f"{where}.{f.name}")
        for f in fields(cls)
        if f.name in d
    }


_PLANT_TYPES = {"chain": IntegratorChain, "pendulum": Pendulum}


def _parse_plant(data: Any) -> PlantModel:
    d = _require_mapping(data, "plant")
    kind = _as_str(d.get("type", ""), "plant.type")
    cls = _PLANT_TYPES.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"plant.type must be 'chain' or 'pendulum', got {kind!r}"
        )
    return cls(**_read(cls, d, "plant", extra={"type"}))


def _parse_sim(data: Any, T_p: float, n: int) -> SimConfig:
    values = _read(SimConfig, data, "sim")
    if len(values["x0"]) != n:
        raise ConfigurationError(
            f"sim.x0 has {len(values['x0'])} components, the plant needs {n}")
    return SimConfig(T_p=T_p, **values)


def _parse_output(data: Any, run_id: str, base_dir: str) -> OutputPaths:
    d = _require_mapping(data, "output")
    _reject_unknown(d, OutputPaths, "output")

    def path_of(key: str, default: str) -> str | None:
        raw = d.get(key, default)
        if raw is None:
            return None
        p = _as_str(raw, f"output.{key}")
        if "\0" in p:
            raise ConfigurationError(f"output.{key} must not hold a NUL, got {p!r}")
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    return OutputPaths(
        csv=path_of("csv", f"{run_id}.csv"),
        svg=path_of("svg", f"{run_id}.svg"),
        report=path_of("report", f"{run_id}.json"),
    )


def build_spec(data: Any, base_dir: str = ".") -> ExperimentSpec:
    """Validate a parsed JSON document into an ExperimentSpec.

    base_dir anchors relative output paths (the config file's directory when
    loaded from disk).
    """
    d = _require_mapping(data, "configuration")
    _reject_unknown(d, ExperimentSpec, "configuration")
    for key in ("plant", "synthesis", "sim"):
        if key not in d:
            raise ConfigurationError(f"configuration section {key!r} is required")
    run_id = _as_str(d.get("run_id", "run"), "run_id")
    # the OS refuses a NUL in a path, so a name holding one names no file
    if not run_id or any(ch in run_id for ch in "/\\\0"):
        raise ConfigurationError(
            f"run_id must be a nonempty name without '/', '\\' or NUL, got {run_id!r}")
    plant = _parse_plant(d["plant"])
    n = plant_order(plant)
    synthesis = SynthesisConfig(n=n, **_read(SynthesisConfig, d["synthesis"], "synthesis"))
    sim = _parse_sim(d["sim"], synthesis.T_p, n)
    verify = VerifyParams(**_read(VerifyParams, d.get("verify", {}), "verify"))
    # the norm must still be large inside the settling window and within
    # tolerance at the standoff, so a window that reaches the standoff
    # leaves the settling clause nothing it could pass
    window_end = verify.window_factor * synthesis.T_p
    if window_end >= sim.t_standoff:
        raise ConfigurationError(
            f"the settling window ends at verify.window_factor * T_p = {window_end!r}, "
            f"at or after the standoff T_p - sim.eps_stop = {sim.t_standoff!r}; "
            "lower verify.window_factor or sim.eps_stop")
    output = _parse_output(d.get("output", {}), run_id, base_dir)
    return ExperimentSpec(
        run_id=run_id, plant=plant, synthesis=synthesis,
        sim=sim, verify=verify, output=output,
    )


def load_config(path: str) -> ExperimentSpec:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, bytes that are not UTF-8, or an integer past
        # the digit limit; RecursionError: arrays or objects nested too deep
        raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}") from None
    return build_spec(data, base_dir=os.path.dirname(os.path.abspath(path)))


def plain(obj: Any, skip: Collection[str] | None = None) -> dict:
    """A dataclass as a JSON-ready dict of its fields, minus skip.

    Tuples become lists, enums their values and nested dataclasses dicts.
    skip defaults to the fields that the section read into obj's class does
    not carry, so plain() echoes exactly what the parser reads.
    """
    if skip is None:
        skip = _SKIP.get(type(obj), set())
    return {
        f.name: _plain_value(getattr(obj, f.name))
        for f in fields(obj)
        if f.name not in skip
    }


def _plain_value(value: Any) -> Any:
    if is_dataclass(value):
        return plain(value)
    if isinstance(value, tuple):
        return [_plain_value(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    return value


def effective_config(spec: ExperimentSpec) -> dict:
    """Fully resolved configuration, suitable for the run report.

    Feeding this dictionary back through build_spec reproduces the same
    experiment (output paths come back absolute, which is intended: the
    report records what was actually written).
    """
    # the plant section also names the plant's type
    return {**plain(spec), "plant": plant_description(spec.plant)}
