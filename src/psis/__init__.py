"""Prescribed-instant stabilization toolkit.

Synthesizes state-feedback controllers that drive an integrator chain to a
setpoint at an exact, pre-chosen instant, simulates the closed loop through
the terminal singularity of the control law, and audits the result against
the settling and decay certificates that justify the design.

Each public name is imported from its module the first time it is read
(PEP 562), so ``import psis`` loads no submodule until it is used.
"""

import importlib.util

# each public name, in the order of __all__, and the module that defines it
_API = {
    "AuditError": "errors",
    "ConfigurationError": "errors",
    "DivergenceError": "errors",
    "DomainError": "errors",
    "EvaluationError": "errors",
    "IntegrationError": "errors",
    "PsisError": "errors",
    "SingularityError": "errors",
    "StiffnessError": "errors",
    "StructureError": "errors",
    "RcdfKind": "rcdf",
    "RcdfSpec": "rcdf",
    "StageEtaViolation": "rcdf",
    "closed_form": "rcdf",
    "psi": "rcdf",
    "validate_stage_etas": "rcdf",
    "zeta": "rcdf",
    "IntegratorChain": "simulation",
    "Pendulum": "simulation",
    "PlantModel": "simulation",
    "Sample": "simulation",
    "SimConfig": "simulation",
    "Trajectory": "simulation",
    "pendulum_energy": "simulation",
    "plant_order": "simulation",
    "simulate": "simulation",
    "simulate_pendulum_raw": "simulation",
    "torque_map": "simulation",
    "Controller": "synthesis",
    "SynthesisConfig": "synthesis",
    "describe": "synthesis",
    "error_coordinates": "synthesis",
    "eval_control": "synthesis",
    "synthesize": "synthesis",
    "zero_setpoint_twin": "synthesis",
    "ControlVanishing": "verification",
    "JensenResult": "verification",
    "LyapunovAudit": "verification",
    "SettlingEvidence": "verification",
    "SweepReport": "verification",
    "SweepRow": "verification",
    "control_vanishing_check": "verification",
    "jensen_check": "verification",
    "jensen_h_names": "verification",
    "lyapunov_audit": "verification",
    "lyapunov_bounds": "verification",
    "run_tolerance": "verification",
    "settling_instant": "verification",
    "sweep_initial_conditions": "verification",
}

__all__ = list(_API)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name's module, or a submodule, on its first read."""
    if name in _API:
        value = getattr(importlib.import_module(f"{__name__}.{_API[name]}"), name)
    elif name.isidentifier() and importlib.util.find_spec(f"{__name__}.{name}"):
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
