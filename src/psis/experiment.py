"""Experiment files: strict JSON configuration for the command line driver.

A configuration names a plant, the controller design, the run parameters,
the audit tolerances, and the output files.  Parsing is strict: unknown keys
are rejected rather than ignored, so a typo cannot silently fall back to a
default.  Keys starting with an underscore (conventionally "_doc") are
treated as comments and skipped anywhere in the tree.

Defaults are resolved at load time; effective_config returns the fully
resolved dictionary, which is echoed into run reports and reproduces the
same experiment when fed back in.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any

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


def _strip_comments(d: dict) -> dict:
    return {k: v for k, v in d.items() if not k.startswith("_")}


def _require_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {type(value).__name__}")
    return _strip_comments(value)


def _reject_unknown(d: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in {where}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where} must be a number, got {value!r}")
    v = float(value)
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


def _parse_plant(data: Any) -> PlantModel:
    d = _require_mapping(data, "plant")
    kind = _as_str(d.get("type", ""), "plant.type")
    if kind == "chain":
        _reject_unknown(d, {"type", "n"}, "plant")
        if "n" not in d:
            raise ConfigurationError("plant.n is required for a chain")
        return IntegratorChain(n=_as_int(d["n"], "plant.n"))
    if kind == "pendulum":
        allowed = {"type", "length", "mass", "gravity", "friction"}
        _reject_unknown(d, allowed, "plant")
        defaults = Pendulum()
        return Pendulum(
            length=_as_float(d.get("length", defaults.length), "plant.length"),
            mass=_as_float(d.get("mass", defaults.mass), "plant.mass"),
            gravity=_as_float(d.get("gravity", defaults.gravity), "plant.gravity"),
            friction=_as_float(d.get("friction", defaults.friction), "plant.friction"),
        )
    raise ConfigurationError(
        f"plant.type must be 'chain' or 'pendulum', got {kind!r}"
    )


def _parse_stage(data: Any, where: str) -> RcdfSpec:
    d = _require_mapping(data, where)
    _reject_unknown(d, {"kind", "eta"}, where)
    if "kind" not in d or "eta" not in d:
        raise ConfigurationError(f"{where} needs both 'kind' and 'eta'")
    return RcdfSpec(
        kind=RcdfKind.from_name(_as_str(d["kind"], f"{where}.kind")),
        eta=_as_float(d["eta"], f"{where}.eta"),
    )


def _parse_synthesis(data: Any, n: int) -> SynthesisConfig:
    d = _require_mapping(data, "synthesis")
    _reject_unknown(d, {"c", "T_p", "stages", "allow_mixed_kinds"}, "synthesis")
    for key in ("c", "T_p", "stages"):
        if key not in d:
            raise ConfigurationError(f"synthesis.{key} is required")
    stages_raw = d["stages"]
    if not isinstance(stages_raw, list):
        raise ConfigurationError("synthesis.stages must be a list")
    stages = tuple(
        _parse_stage(s, f"synthesis.stages[{i}]") for i, s in enumerate(stages_raw)
    )
    return SynthesisConfig(
        n=n,
        c=_as_float(d["c"], "synthesis.c"),
        T_p=_as_float(d["T_p"], "synthesis.T_p"),
        stages=stages,
        allow_mixed_kinds=_as_bool(
            d.get("allow_mixed_kinds", False), "synthesis.allow_mixed_kinds"
        ),
    )


def _parse_sim(data: Any, T_p: float, n: int) -> SimConfig:
    d = _require_mapping(data, "sim")
    allowed = {
        "x0", "t_end", "eps_stop", "rtol", "atol",
        "max_step", "sample_dt", "mode", "tau_end", "open_loop",
    }
    _reject_unknown(d, allowed, "sim")
    if "x0" not in d:
        raise ConfigurationError("sim.x0 is required")
    x0_raw = d["x0"]
    if not isinstance(x0_raw, list) or not x0_raw:
        raise ConfigurationError("sim.x0 must be a nonempty list of numbers")
    x0 = tuple(_as_float(v, f"sim.x0[{i}]") for i, v in enumerate(x0_raw))
    if len(x0) != n:
        raise ConfigurationError(
            f"sim.x0 has {len(x0)} components, the plant needs {n}"
        )
    return SimConfig(
        x0=x0,
        T_p=T_p,
        t_end=_as_float(d.get("t_end", 1.2 * T_p), "sim.t_end"),
        eps_stop=_as_opt_float(d.get("eps_stop"), "sim.eps_stop"),
        rtol=_as_float(d.get("rtol", 1e-9), "sim.rtol"),
        atol=_as_float(d.get("atol", 1e-12), "sim.atol"),
        max_step=_as_opt_float(d.get("max_step"), "sim.max_step"),
        sample_dt=_as_opt_float(d.get("sample_dt"), "sim.sample_dt"),
        mode=_as_str(d.get("mode", "direct"), "sim.mode"),
        tau_end=_as_opt_float(d.get("tau_end"), "sim.tau_end"),
        open_loop=_as_bool(d.get("open_loop", False), "sim.open_loop"),
    )


def _parse_verify(data: Any) -> VerifyParams:
    d = _require_mapping(data, "verify")
    allowed = {
        "tol_abs", "tol_rel", "window_factor", "spread_bound",
        "slack_abs", "slack_rel", "scales",
    }
    _reject_unknown(d, allowed, "verify")
    defaults = VerifyParams()
    scales_raw = d.get("scales", list(defaults.scales))
    if not isinstance(scales_raw, list) or not scales_raw:
        raise ConfigurationError("verify.scales must be a nonempty list of numbers")
    params = VerifyParams(
        tol_abs=_as_float(d.get("tol_abs", defaults.tol_abs), "verify.tol_abs"),
        tol_rel=_as_float(d.get("tol_rel", defaults.tol_rel), "verify.tol_rel"),
        window_factor=_as_float(
            d.get("window_factor", defaults.window_factor), "verify.window_factor"
        ),
        spread_bound=_as_float(
            d.get("spread_bound", defaults.spread_bound), "verify.spread_bound"
        ),
        slack_abs=_as_float(d.get("slack_abs", defaults.slack_abs), "verify.slack_abs"),
        slack_rel=_as_float(d.get("slack_rel", defaults.slack_rel), "verify.slack_rel"),
        scales=tuple(
            _as_float(v, f"verify.scales[{i}]") for i, v in enumerate(scales_raw)
        ),
    )
    if params.tol_abs <= 0.0 or params.tol_rel < 0.0:
        raise ConfigurationError(
            "verify.tol_abs must be positive and verify.tol_rel nonnegative"
        )
    if not (0.0 < params.window_factor < 1.0):
        raise ConfigurationError("verify.window_factor must lie in (0, 1)")
    if not (0.0 < params.spread_bound < 1.0):
        raise ConfigurationError("verify.spread_bound must lie in (0, 1)")
    return params


def _parse_output(data: Any, run_id: str, base_dir: str) -> OutputPaths:
    d = _require_mapping(data, "output")
    _reject_unknown(d, {"csv", "svg", "report"}, "output")

    def path_of(key: str, default: str) -> str | None:
        raw = d.get(key, default)
        if raw is None:
            return None
        p = _as_str(raw, f"output.{key}")
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
    allowed = {"run_id", "plant", "synthesis", "sim", "verify", "output"}
    _reject_unknown(d, allowed, "configuration")
    for key in ("plant", "synthesis", "sim"):
        if key not in d:
            raise ConfigurationError(f"configuration section {key!r} is required")
    run_id = _as_str(d.get("run_id", "run"), "run_id")
    if not run_id or any(ch in run_id for ch in "/\\"):
        raise ConfigurationError(f"run_id must be a nonempty name, got {run_id!r}")
    plant = _parse_plant(d["plant"])
    n = plant_order(plant)
    synthesis = _parse_synthesis(d["synthesis"], n)
    sim = _parse_sim(d["sim"], synthesis.T_p, n)
    verify = _parse_verify(d.get("verify", {}))
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
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}") from None
    return build_spec(data, base_dir=os.path.dirname(os.path.abspath(path)))


def effective_config(spec: ExperimentSpec) -> dict:
    """Fully resolved configuration, suitable for the run report.

    Feeding this dictionary back through build_spec reproduces the same
    experiment (output paths come back absolute, which is intended: the
    report records what was actually written).
    """
    return {
        "run_id": spec.run_id,
        "plant": plant_description(spec.plant),
        "synthesis": {
            "c": spec.synthesis.c,
            "T_p": spec.synthesis.T_p,
            "stages": [
                {"kind": s.kind.value, "eta": s.eta} for s in spec.synthesis.stages
            ],
            "allow_mixed_kinds": spec.synthesis.allow_mixed_kinds,
        },
        "sim": {
            "x0": list(spec.sim.x0),
            "t_end": spec.sim.t_end,
            "eps_stop": spec.sim.eps_stop,
            "rtol": spec.sim.rtol,
            "atol": spec.sim.atol,
            "max_step": spec.sim.max_step,
            "sample_dt": spec.sim.sample_dt,
            "mode": spec.sim.mode,
            "tau_end": spec.sim.tau_end,
            "open_loop": spec.sim.open_loop,
        },
        "verify": {
            "tol_abs": spec.verify.tol_abs,
            "tol_rel": spec.verify.tol_rel,
            "window_factor": spec.verify.window_factor,
            "spread_bound": spec.verify.spread_bound,
            "slack_abs": spec.verify.slack_abs,
            "slack_rel": spec.verify.slack_rel,
            "scales": list(spec.verify.scales),
        },
        "output": {
            "csv": spec.output.csv,
            "svg": spec.output.svg,
            "report": spec.output.report,
        },
    }
