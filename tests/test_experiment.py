"""Strict JSON configuration: schema validation, defaults, comment keys,
path anchoring, and the resolved-config round trip."""

import json
from dataclasses import fields

import pytest

from psis import experiment
from psis.errors import ConfigurationError
from psis.experiment import (
    OutputPaths, VerifyParams, build_spec, effective_config, load_config,
)
from psis.rcdf import RcdfKind
from psis.simulation import IntegratorChain, Pendulum, SimConfig, simulate
from psis.synthesis import SynthesisConfig, synthesize


def chain_config(**overrides):
    data = {
        "run_id": "demo",
        "plant": {"type": "chain", "n": 2},
        "synthesis": {
            "c": 0.0,
            "T_p": 1.0,
            "stages": [
                {"kind": "linear", "eta": 3.0},
                {"kind": "linear", "eta": 2.0},
            ],
        },
        "sim": {"x0": [1.0, 0.0]},
    }
    data.update(overrides)
    return data


class TestDefaults:
    def test_minimal_chain_config(self):
        spec = build_spec(chain_config(), base_dir="/work")
        assert spec.run_id == "demo"
        assert isinstance(spec.plant, IntegratorChain)
        assert spec.plant.n == 2
        assert spec.sim.t_end == pytest.approx(1.2)
        assert spec.sim.rtol == 1e-9
        # SimConfig's default clock; the config file leaves it alone
        assert spec.sim.mode == "tau"
        assert spec.verify.tol_abs == 1e-4
        assert spec.verify.scales == (1.0,)

    def test_config_file_and_library_run_the_same_default_clock(self):
        # a config without sim.mode and a SimConfig without mode are one run
        spec = build_spec(chain_config(), base_dir="/work")
        controller = synthesize(spec.synthesis)
        from_file = simulate(spec.plant, controller, spec.sim)
        from_library = simulate(IntegratorChain(2), controller,
                                SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2))
        for column in ("t", "x", "u", "z", "V", "dV"):
            assert getattr(from_file, column) == getattr(from_library, column), column
        assert from_file.meta == from_library.meta

    def test_output_paths_default_from_run_id_and_base_dir(self):
        spec = build_spec(chain_config(), base_dir="/work")
        assert spec.output.csv == "/work/demo.csv"
        assert spec.output.svg == "/work/demo.svg"
        assert spec.output.report == "/work/demo.json"

    def test_absolute_output_path_kept(self):
        cfg = chain_config(output={"csv": "/elsewhere/out.csv"})
        spec = build_spec(cfg, base_dir="/work")
        assert spec.output.csv == "/elsewhere/out.csv"
        assert spec.output.svg == "/work/demo.svg"

    def test_null_output_disables_a_file(self):
        cfg = chain_config(output={"svg": None, "report": None})
        spec = build_spec(cfg, base_dir="/work")
        assert spec.output.csv == "/work/demo.csv"
        assert spec.output.svg is None
        assert spec.output.report is None

    def test_run_id_defaults_to_run(self):
        cfg = chain_config()
        del cfg["run_id"]
        assert build_spec(cfg).run_id == "run"


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="plnt"):
            build_spec(chain_config(plnt={}))

    def test_unknown_nested_key_lists_allowed(self):
        cfg = chain_config()
        cfg["sim"]["step"] = 0.001
        with pytest.raises(ConfigurationError) as info:
            build_spec(cfg)
        assert "step" in str(info.value)
        assert "max_step" in str(info.value)

    def test_comment_keys_are_skipped_everywhere(self):
        cfg = chain_config()
        cfg["_doc"] = "top-level note"
        cfg["sim"]["_doc"] = "sim note"
        cfg["synthesis"]["stages"][0]["_doc"] = "stage note"
        spec = build_spec(cfg)
        assert spec.synthesis.stages[0].eta == 3.0

    def test_booleans_are_not_numbers(self):
        cfg = chain_config()
        cfg["sim"]["rtol"] = True
        with pytest.raises(ConfigurationError, match="rtol"):
            build_spec(cfg)

    @pytest.mark.parametrize("path, where", [
        (("sim", "x0", 0), "sim.x0[0]"),
        (("synthesis", "c"), "synthesis.c"),
        (("synthesis", "stages", 0, "eta"), "synthesis.stages[0].eta"),
    ])
    def test_an_integer_past_the_float_range_is_not_finite(self, path, where):
        # JSON reads 1 followed by 400 zeros as an int, which float() cannot
        # convert; it is refused like 1e400, naming the field
        cfg = chain_config()
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 10 ** 400
        with pytest.raises(ConfigurationError) as info:
            build_spec(cfg)
        assert str(info.value) == f"{where} must be finite, got an integer past the float range"

    def test_missing_required_sections(self):
        cfg = chain_config()
        del cfg["synthesis"]
        with pytest.raises(ConfigurationError, match="synthesis"):
            build_spec(cfg)

    def test_run_id_must_be_a_plain_name(self):
        with pytest.raises(ConfigurationError):
            build_spec(chain_config(run_id="a/b"))
        with pytest.raises(ConfigurationError):
            build_spec(chain_config(run_id=""))
        with pytest.raises(ConfigurationError, match="^run_id must .* NUL"):
            build_spec(chain_config(run_id="a\0b"))

    @pytest.mark.parametrize("key", ["csv", "svg", "report"])
    def test_an_output_path_must_hold_no_nul(self, key):
        with pytest.raises(ConfigurationError, match=f"^output.{key} must not hold a NUL"):
            build_spec(chain_config(output={key: "a\0b"}))

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigurationError):
            build_spec([1, 2, 3])


class TestPlantSection:
    def test_pendulum_with_defaults(self):
        cfg = chain_config(plant={"type": "pendulum"})
        cfg["sim"]["x0"] = [0.09, 0.1]
        spec = build_spec(cfg)
        assert isinstance(spec.plant, Pendulum)
        assert spec.plant.length == 0.5
        assert spec.plant.friction == 0.01

    def test_pendulum_overrides(self):
        cfg = chain_config(plant={"type": "pendulum", "length": 1.0, "friction": 0.0})
        spec = build_spec(cfg)
        assert spec.plant.length == 1.0
        assert spec.plant.friction == 0.0

    def test_chain_requires_order(self):
        with pytest.raises(ConfigurationError, match="plant.n"):
            build_spec(chain_config(plant={"type": "chain"}))

    def test_unknown_type(self):
        with pytest.raises(ConfigurationError, match="chain.*pendulum"):
            build_spec(chain_config(plant={"type": "cart"}))

    def test_chain_rejects_pendulum_keys(self):
        with pytest.raises(ConfigurationError):
            build_spec(chain_config(plant={"type": "chain", "n": 2, "mass": 1.0}))


class TestSynthesisSection:
    def test_stage_kinds_parsed(self):
        cfg = chain_config()
        cfg["synthesis"]["stages"] = [
            {"kind": "tan", "eta": 3.0},
            {"kind": "tan", "eta": 2.0},
        ]
        spec = build_spec(cfg)
        assert all(s.kind is RcdfKind.TAN for s in spec.synthesis.stages)

    def test_stage_needs_both_fields(self):
        cfg = chain_config()
        cfg["synthesis"]["stages"][0] = {"kind": "linear"}
        with pytest.raises(ConfigurationError, match="stages\\[0\\]"):
            build_spec(cfg)

    def test_stage_count_must_match_plant_order(self):
        cfg = chain_config()
        cfg["synthesis"]["stages"].append({"kind": "linear", "eta": 2.0})
        with pytest.raises(ConfigurationError):
            build_spec(cfg)

    def test_floor_violations_surface_at_load(self):
        cfg = chain_config()
        cfg["synthesis"]["stages"][0]["eta"] = 1.5
        with pytest.raises(ConfigurationError, match="needs > 2"):
            build_spec(cfg)


class TestSimSection:
    def test_x0_length_checked_against_plant(self):
        cfg = chain_config()
        cfg["sim"]["x0"] = [1.0, 0.0, 0.0]
        with pytest.raises(ConfigurationError, match="components"):
            build_spec(cfg)

    def test_tau_mode_with_window(self):
        # the tau clock always runs to the standoff: there is no window key
        cfg = chain_config()
        cfg["sim"]["mode"] = "tau"
        assert build_spec(cfg).sim.mode == "tau"
        cfg["sim"]["tau_end"] = 12.5
        with pytest.raises(ConfigurationError) as info:
            build_spec(cfg)
        assert str(info.value) == (
            "unknown key(s) in sim: tau_end; allowed: atol, eps_stop, max_step, "
            "mode, open_loop, rtol, sample_dt, t_end, x0"
        )

    def test_mixed_kinds_key_is_gone(self):
        cfg = chain_config()
        cfg["synthesis"]["allow_mixed_kinds"] = True
        with pytest.raises(ConfigurationError) as info:
            build_spec(cfg)
        assert str(info.value) == (
            "unknown key(s) in synthesis: allow_mixed_kinds; allowed: T_p, c, stages"
        )

    def test_sim_validation_propagates(self):
        cfg = chain_config()
        cfg["sim"]["t_end"] = 0.5   # before T_p
        with pytest.raises(ConfigurationError):
            build_spec(cfg)

    def test_open_loop_flag(self):
        assert build_spec(chain_config()).sim.open_loop is False
        cfg = chain_config()
        cfg["sim"]["open_loop"] = True
        assert build_spec(cfg).sim.open_loop is True

    def test_open_loop_must_be_boolean(self):
        cfg = chain_config()
        cfg["sim"]["open_loop"] = 1
        with pytest.raises(ConfigurationError, match="open_loop"):
            build_spec(cfg)


class TestVerifySection:
    def test_custom_scales(self):
        cfg = chain_config(verify={"scales": [0.1, 1, 10, 100]})
        spec = build_spec(cfg)
        assert spec.verify.scales == (0.1, 1.0, 10.0, 100.0)

    def test_window_factor_range(self):
        with pytest.raises(ConfigurationError, match="window_factor"):
            build_spec(chain_config(verify={"window_factor": 1.5}))

    @pytest.mark.parametrize("slacks", [
        {"slack_abs": -1e-6}, {"slack_rel": -1e-3}, {"slack_rel": 1.0}, {"slack_rel": 1e308},
    ])
    def test_slack_ranges(self, slacks):
        with pytest.raises(ConfigurationError, match="verify.slack_abs must be nonnegative"):
            build_spec(chain_config(verify=slacks))

    def test_scales_must_be_a_nonempty_list(self):
        with pytest.raises(ConfigurationError):
            build_spec(chain_config(verify={"scales": []}))


class TestLoadConfig:
    def test_reads_file_and_anchors_paths(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(chain_config()))
        spec = load_config(str(path))
        assert spec.output.csv == str(tmp_path / "demo.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_config(str(path))


class TestEffectiveConfig:
    def test_round_trip_reproduces_the_spec(self):
        cfg = chain_config(verify={"scales": [0.1, 1.0]})
        cfg["sim"]["mode"] = "tau"
        spec = build_spec(cfg, base_dir="/work")
        resolved = effective_config(spec)
        again = build_spec(resolved, base_dir="/somewhere/else")
        assert again == spec

    def test_round_trip_for_pendulum(self):
        cfg = chain_config(plant={"type": "pendulum", "gravity": 9.8})
        spec = build_spec(cfg, base_dir="/work")
        assert build_spec(effective_config(spec)) == spec

    def test_resolved_values_are_concrete(self):
        spec = build_spec(chain_config(), base_dir="/work")
        resolved = effective_config(spec)
        assert resolved["sim"]["t_end"] == pytest.approx(1.2)
        assert resolved["sim"]["eps_stop"] == pytest.approx(1e-9)
        assert resolved["output"]["csv"] == "/work/demo.csv"
        assert json.dumps(resolved)  # JSON-serializable as written


def every_key_config(plant):
    """A config that sets every key of every section to a non-default value."""
    return {
        "run_id": "every",
        "plant": plant,
        "synthesis": {
            "c": 0.25,
            "T_p": 0.8,
            "stages": [{"kind": "tan", "eta": 3.5}, {"kind": "tan", "eta": 2.5}],
        },
        "sim": {
            "x0": [0.1, -0.2], "t_end": 1.0, "eps_stop": 1e-8, "rtol": 1e-8,
            "atol": 1e-11, "max_step": 0.002, "sample_dt": 0.004, "mode": "direct",
            "open_loop": True,
        },
        "verify": {
            "tol_abs": 2e-4, "tol_rel": 1e-5, "window_factor": 0.85,
            "spread_bound": 0.06, "slack_abs": 2e-6, "slack_rel": 2e-3,
            "scales": [0.5, 1.0],
        },
        "output": {"csv": "/out/every.csv", "svg": None, "report": "/out/r.json"},
    }


EVERY_KEY_PLANTS = (
    {"type": "chain", "n": 2},
    {"type": "pendulum", "length": 0.6, "mass": 0.2, "gravity": 9.7, "friction": 0.02},
)

SECTIONS = {
    "synthesis": SynthesisConfig,
    "sim": SimConfig,
    "verify": VerifyParams,
    "output": OutputPaths,
}


class TestSchema:
    def test_every_field_has_a_reader(self):
        # the stage list and the output paths are read by hand: stages are
        # objects of their own, and paths resolve against run_id and the
        # config's directory
        by_hand = {(SynthesisConfig, "stages")} | {
            (OutputPaths, f.name) for f in fields(OutputPaths)
        }
        for cls in (IntegratorChain, Pendulum, *SECTIONS.values()):
            for f in fields(cls):
                if f.name in experiment._SKIP.get(cls, set()) or (cls, f.name) in by_hand:
                    continue
                assert f.type in experiment._READERS, (cls.__name__, f.name, f.type)

    @pytest.mark.parametrize("plant", EVERY_KEY_PLANTS, ids=lambda p: p["type"])
    def test_every_key_round_trips(self, plant):
        cfg = every_key_config(plant)
        spec = build_spec(cfg, base_dir="/work")
        echoed = effective_config(spec)
        assert build_spec(echoed) == spec
        # the echo is the input: nothing dropped, renamed or reformatted
        assert echoed == cfg
        for name, cls in SECTIONS.items():
            expected = {f.name for f in fields(cls)} - experiment._SKIP.get(cls, set())
            assert set(echoed[name]) == expected
        plant_cls = type(spec.plant)
        assert set(echoed["plant"]) == {"type"} | {f.name for f in fields(plant_cls)}

    @pytest.mark.parametrize("plant", EVERY_KEY_PLANTS, ids=lambda p: p["type"])
    def test_every_key_differs_from_its_default(self, plant):
        # so the round trip above cannot pass by falling back to defaults
        cfg = every_key_config(plant)
        required = {
            "plant": {"type", "n"},
            "synthesis": {"c", "T_p", "stages"},
            "sim": {"x0"},
            "verify": set(),
            "output": set(),
        }
        minimal = {"run_id": "every"}
        minimal.update({
            section: {k: v for k, v in cfg[section].items() if k in keys}
            for section, keys in required.items()
        })
        full = effective_config(build_spec(cfg, base_dir="/work"))
        default = effective_config(build_spec(minimal, base_dir="/work"))
        for section, keys in required.items():
            for key, value in full[section].items():
                if key not in keys:
                    assert value != default[section][key], (section, key)
