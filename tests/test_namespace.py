"""The package namespace: psis.__all__ is pinned, every public name resolves
from its module on first read, and import psis loads no submodule until one
of its names is used.

The sys.modules checks run in a fresh interpreter, because the test process
has already imported every module."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import psis

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

PUBLIC = [
    "AuditError",
    "ConfigurationError",
    "DivergenceError",
    "DomainError",
    "EvaluationError",
    "IntegrationError",
    "PsisError",
    "SingularityError",
    "StiffnessError",
    "StructureError",
    "RcdfKind",
    "RcdfSpec",
    "StageEtaViolation",
    "closed_form",
    "psi",
    "validate_stage_etas",
    "zeta",
    "IntegratorChain",
    "Pendulum",
    "PlantModel",
    "Sample",
    "SimConfig",
    "Trajectory",
    "pendulum_energy",
    "plant_order",
    "simulate",
    "simulate_pendulum_raw",
    "torque_map",
    "Controller",
    "SynthesisConfig",
    "describe",
    "error_coordinates",
    "eval_control",
    "synthesize",
    "zero_setpoint_twin",
    "ControlVanishing",
    "JensenResult",
    "LyapunovAudit",
    "SettlingEvidence",
    "SweepReport",
    "SweepRow",
    "control_vanishing_check",
    "jensen_check",
    "jensen_h_names",
    "lyapunov_audit",
    "lyapunov_bounds",
    "run_tolerance",
    "settling_instant",
    "sweep_initial_conditions",
]


def psis_modules_after(code):
    """The sorted psis* entries of sys.modules after code runs in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport json, sys\n"
         "print(json.dumps(sorted(m for m in sys.modules if m.startswith('psis'))))"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_all_is_pinned():
    assert psis.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_name_resolves_by_attribute_and_by_from_import(name):
    value = getattr(psis, name)
    namespace = {}
    exec(f"from psis import {name}", namespace)
    assert namespace[name] is value
    # a class or function is the object its defining module holds
    module = getattr(value, "__module__", None)
    if module is not None and module.startswith("psis."):
        assert getattr(sys.modules[module], name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from psis import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_dir_lists_every_public_name_and_the_version():
    listed = dir(psis)
    assert set(PUBLIC) <= set(listed)
    assert "__version__" in listed
    assert psis.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'psis' has no attribute 'no_such_name'$"):
        psis.no_such_name
    assert not hasattr(psis, "no_such_name")
    assert not hasattr(psis, "simulation.simulate")


def test_import_psis_loads_no_submodule():
    assert psis_modules_after("import psis") == ["psis"]


def test_synthesis_names_leave_the_run_modules_out():
    loaded = psis_modules_after("from psis import synthesize, SynthesisConfig")
    assert "psis.synthesis" in loaded
    for module in ("psis.simulation", "psis.verification", "psis.output"):
        assert module not in loaded


def test_reading_a_config_leaves_the_audits_out():
    # the verify rules live in VerifyParams, so validating a config
    # imports no audit code
    loaded = psis_modules_after(
        "from psis.experiment import build_spec\n"
        "build_spec({'plant': {'type': 'pendulum'},\n"
        "            'synthesis': {'c': 0.15, 'T_p': 0.5, 'stages': [\n"
        "                {'kind': 'linear', 'eta': 3}, {'kind': 'linear', 'eta': 2}]},\n"
        "            'sim': {'x0': [0.09, 0.1]}, 'verify': {'slack_rel': 0.5}})\n"
    )
    assert "psis.experiment" in loaded
    assert "psis.verification" not in loaded


def test_a_submodule_read_as_an_attribute_is_imported():
    # the benchmark worker's imports, after which it reads psis.verification
    # without ever importing it by name
    loaded = psis_modules_after(
        "import psis, psis.simulation, psis.synthesis\n"
        "from psis import symdiff\n"
        "assert 'psis.verification' not in __import__('sys').modules\n"
        "assert psis.verification.lyapunov_audit is psis.lyapunov_audit\n"
        "assert symdiff is psis.symdiff\n"
    )
    assert "psis.verification" in loaded


def test_every_name_the_benchmark_wraps_resolves(monkeypatch):
    # perfbench/tracing.py wraps names on the modules that look them up
    # (psis.cli among them); a name that is gone would end a traced run in
    # an AttributeError.  The module imports only the standard library, and
    # its dataclass needs it in sys.modules while it loads.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module, attr, _span in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
