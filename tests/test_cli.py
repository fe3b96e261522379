"""End-to-end command line tests: exit codes, emitted files, and the
report/stdout contract, all driven through main() in process."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import psis.cli
import psis.verification
from psis import symdiff
from psis.cli import _sweep_paths, main
from psis.synthesis import Controller, synthesize

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def write_config(tmp_path, data, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def chain_data(**overrides):
    data = {
        "run_id": "chain2",
        "plant": {"type": "chain", "n": 2},
        "synthesis": {
            "c": 0.0,
            "T_p": 1.0,
            "stages": [
                {"kind": "linear", "eta": 3.0},
                {"kind": "linear", "eta": 2.0},
            ],
        },
        "sim": {"x0": [1.0, 0.0], "rtol": 1e-7, "atol": 1e-10},
    }
    data.update(overrides)
    return data


def pendulum_data(**overrides):
    data = {
        "run_id": "pend",
        "plant": {"type": "pendulum"},
        "synthesis": {
            "c": 0.15,
            "T_p": 0.5,
            "stages": [
                {"kind": "linear", "eta": 3.0},
                {"kind": "linear", "eta": 2.0},
            ],
        },
        "sim": {"x0": [0.09, 0.1]},
    }
    data.update(overrides)
    return data


class TestSynthesize:
    def test_prints_expressions_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, chain_data())
        assert main(["synthesize", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "prescribed instant T_p=1" in text
        assert "u = " in text
        assert "z1 = " in text

    def test_writes_no_files(self, tmp_path):
        cfg = write_config(tmp_path, chain_data())
        main(["synthesize", "--config", cfg])
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"exp.json"}

    def test_wide_law_prints_in_let_form(self, tmp_path, capsys):
        # linear n=10 stands for 1.4e8 tree nodes over 1,150 distinct ones;
        # the printed let-form writes each distinct node once
        data = chain_data(run_id="wide", plant={"type": "chain", "n": 10})
        data["synthesis"]["stages"] = [
            {"kind": "linear", "eta": float(eta)} for eta in range(11, 1, -1)
        ]
        data["sim"]["x0"] = [1.0] + [0.0] * 9
        cfg = write_config(tmp_path, data)
        assert main(["synthesize", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("order n=10, ")
        assert "\nu = " in captured.out
        assert len(captured.out.encode()) < 50_000


class TestSimulate:
    def test_writes_csv_svg_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, chain_data())
        assert main(["simulate", "--config", cfg]) == 0
        for suffix in (".csv", ".svg", ".json"):
            assert (tmp_path / f"chain2{suffix}").exists()
        text = capsys.readouterr().out
        assert "wall time:" in text
        assert text.count("wrote:") == 3

    def test_report_shape_omits_wall_time(self, tmp_path):
        cfg = write_config(tmp_path, chain_data())
        main(["simulate", "--config", cfg])
        report = json.loads((tmp_path / "chain2.json").read_text())
        assert set(report) == {
            "command", "run_id", "config", "integrator", "n_samples", "files",
        }
        assert set(report["integrator"]) == {
            "steps_accepted", "steps_rejected", "rhs_evals",
        }
        assert report["command"] == "simulate"
        assert report["run_id"] == "chain2"
        assert report["integrator"]["steps_accepted"] > 0
        assert report["n_samples"] > 500
        assert report["files"]["csv"] == str(tmp_path / "chain2.csv")
        # a config file runs on the tau clock unless it names another
        assert report["config"]["sim"]["mode"] == "tau"

    @pytest.mark.parametrize("T_p", [1e-6, 1e-12])
    def test_tiny_prescribed_instant_completes(self, tmp_path, T_p):
        # the step-collapse floor scales with the horizon, so a short T_p
        # runs the same law as T_p = 1
        data = chain_data(run_id="tiny", output={"svg": None})
        data["synthesis"]["T_p"] = T_p
        data["sim"] = {"x0": [1.0, 0.0], "t_end": 1.2 * T_p}
        cfg = write_config(tmp_path, data)
        assert main(["simulate", "--config", cfg]) == 0
        report = json.loads((tmp_path / "tiny.json").read_text())
        assert report["integrator"]["steps_accepted"] > 0
        last = (tmp_path / "tiny.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == 1.2 * T_p

    def test_null_outputs_are_skipped(self, tmp_path, capsys):
        data = chain_data(output={"svg": None, "report": None})
        cfg = write_config(tmp_path, data)
        assert main(["simulate", "--config", cfg]) == 0
        assert (tmp_path / "chain2.csv").exists()
        assert not (tmp_path / "chain2.svg").exists()
        assert not (tmp_path / "chain2.json").exists()
        assert capsys.readouterr().out.count("wrote:") == 1

    def test_no_clobber_refuses_existing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, chain_data())
        (tmp_path / "chain2.csv").write_text("sentinel")
        assert main(["simulate", "--config", cfg, "--no-clobber"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "chain2.csv" in err
        assert (tmp_path / "chain2.csv").read_text() == "sentinel"

    def test_default_is_overwrite(self, tmp_path):
        cfg = write_config(tmp_path, chain_data())
        (tmp_path / "chain2.csv").write_text("sentinel")
        assert main(["simulate", "--config", cfg]) == 0
        assert (tmp_path / "chain2.csv").read_text() != "sentinel"

    def test_reruns_are_byte_identical_without_timestamp(self, tmp_path):
        cfg = write_config(tmp_path, chain_data())
        argv = ["simulate", "--config", cfg, "--no-timestamp"]
        assert main(argv) == 0
        first = {
            name: (tmp_path / name).read_bytes()
            for name in ("chain2.csv", "chain2.svg", "chain2.json")
        }
        assert main(argv) == 0
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob


class TestConfigFailures:
    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert main(["simulate", "--config", missing]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b'{"run_id": "\xff"}',                      # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,             # nested past the recursion limit
        b'{"run_id": ' + b"1" * 5000 + b"}",         # past the integer digit limit
    ], ids=["not-utf8", "too-deep", "huge-integer"])
    def test_undecodable_config_file(self, tmp_path, capsys, content):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(content)
        assert main(["verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config {str(cfg)!r} is not valid JSON: ")
        assert "Traceback" not in err

    def test_an_integer_past_the_float_range_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "int-past-float.json"
        # 1 followed by 400 zeros: JSON reads it as an int past the float range
        data = chain_data()
        data["sim"]["x0"] = [10 ** 400, 0]
        cfg.write_text(json.dumps(data))
        assert main(["verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: sim.x0[0] must be finite")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["int-past-float.json"]

    @pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
    @pytest.mark.parametrize("overrides, key", [
        ({"run_id": "a\0b"}, "run_id"),
        ({"output": {"csv": "a\0b.csv"}}, "output.csv"),
    ], ids=["run_id", "output-csv"])
    def test_a_nul_in_a_name_exits_two(self, tmp_path, capsys, command, overrides, key):
        # the OS refuses a NUL in a path: refused at load, not a traceback
        # from the output checks
        cfg = write_config(tmp_path, chain_data(**overrides))
        assert main([command, "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"configuration error: {key} must ")
        assert "NUL" in err
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    def test_bad_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"plant": {"type": "chain", "n": 2}})
        assert main(["simulate", "--config", cfg]) == 2
        assert "synthesis" in capsys.readouterr().err

    def test_oversized_sample_grid(self, tmp_path, capsys):
        data = chain_data()
        data["sim"]["t_end"] = 1e6
        cfg = write_config(tmp_path, data)
        assert main(["simulate", "--config", cfg]) == 2
        assert "sample points" in capsys.readouterr().err

    def test_step_budget_refusal(self, tmp_path, capsys):
        # a horizon that max_step alone makes exceed the step budget is
        # refused before the run, not after 5e6 steps
        data = chain_data()
        data["sim"].update(t_end=1e5, sample_dt=0.1)
        cfg = write_config(tmp_path, data)
        assert main(["simulate", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: max_step=0.001 forces at least ")
        assert "the step budget of 5000000" in err
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    @pytest.mark.parametrize("mode", ["tau", "direct"])
    def test_standoff_that_rounds_to_the_instant(self, tmp_path, capsys, mode):
        # refused before the run, on either clock, where it used to end in
        # a step-size collapse (exit 3) after integrating
        data = chain_data()
        data["sim"].update(eps_stop=1e-300, mode=mode)
        cfg = write_config(tmp_path, data)
        assert main(["verify", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "configuration error: eps_stop=1e-300 is too small for T_p=1.0: "
            "T_p - eps_stop rounds to T_p, so the run could never reach its standoff\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    @pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
    @pytest.mark.parametrize("T_p", [1e-308, 1e-300])
    def test_gain_that_overflows_before_the_standoff(self, tmp_path, capsys, command, T_p):
        # eta / eps_stop is inf: refused before the run, not left to a
        # non-finite stage error or vector field at t = 0 (exit 3)
        data = chain_data()
        data["synthesis"]["T_p"] = T_p
        data["sim"] = {"x0": [1.0, 0.0]}
        cfg = write_config(tmp_path, data)
        assert main([command, "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: stage 1's gain eta/(T_p - t) overflows ")
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    def test_law_past_the_recursion_limit(self, tmp_path):
        # a linear n=8 law needs a recursion limit of about 200 to build; at
        # 100 synthesize is refused with a reason, not a RecursionError.  The
        # stage reached depends on how the Python version counts frames.
        data = chain_data(run_id="deep", plant={"type": "chain", "n": 8})
        data["synthesis"]["stages"] = [
            {"kind": "linear", "eta": float(eta)} for eta in range(9, 1, -1)
        ]
        data["sim"]["x0"] = [1.0] + [0.0] * 7
        cfg = write_config(tmp_path, data)
        code = (
            "import sys\n"
            "from psis.cli import main\n"
            "sys.setrecursionlimit(100)\n"
            f"sys.exit(main(['synthesize', '--config', {cfg!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert re.fullmatch(
            r"configuration error: the law of order n=8 nests too deep to build: "
            r"Python's recursion limit was reached at stage [1-8] of 8\n",
            proc.stderr,
        ), proc.stderr

    @pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
    def test_pendulum_whose_torque_map_overflows(self, tmp_path, capsys, command):
        # every parameter is finite, but mass * length**2 is not
        cfg = write_config(tmp_path, pendulum_data(plant={"type": "pendulum", "length": 1e200}))
        assert main([command, "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "configuration error: mass * length**2 must be finite, got inf\n"
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    def test_bad_scales_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, chain_data())
        assert main(["sweep", "--config", cfg, "--scales", "a,b"]) == 2
        assert "--scales" in capsys.readouterr().err

    @pytest.mark.parametrize("text, bad", [
        ("nan", "[0] must be finite, got nan"),
        ("1,inf", "[1] must be finite, got inf"),
    ], ids=["nan", "inf"])
    def test_non_finite_scales_flag(self, tmp_path, capsys, text, bad):
        # the factor comes from the command line, so the text names --scales,
        # not the sim.x0 it would have scaled
        cfg = write_config(tmp_path, chain_data())
        assert main(["sweep", "--config", cfg, "--scales", text]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: --scales{bad}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]

    @pytest.mark.parametrize("command, flag, value", [
        ("synthesize", "--scales", "1"),
        ("simulate", "--scales", "1"),
        ("verify", "--scales", "1"),
        ("synthesize", "--mode", "tau"),
        ("simulate", "--mode", "direct"),
        ("verify", "--mode", "direct"),
        ("sweep", "--mode", "direct"),
        ("synthesize", "--no-clobber", None),
        ("sweep", "--no-timestamp", None),
    ])
    def test_flag_outside_its_subcommand_is_refused(self, tmp_path, capsys,
                                                    command, flag, value):
        # --scales belongs to sweep alone, and the clock is the config's
        # sim.mode; synthesize writes no file and sweep writes no SVG; a
        # flag a subcommand would ignore is an error
        cfg = write_config(tmp_path, chain_data())
        args = [flag] if value is None else [flag, value]
        with pytest.raises(SystemExit) as info:
            main([command, "--config", cfg, *args])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(args)}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]


def blowup_data():
    """A first-order run whose huge start breaks the integrator after its
    first sample, so a partial trajectory exists."""
    return {
        "run_id": "blow",
        "plant": {"type": "chain", "n": 1},
        "synthesis": {
            "c": 0.0,
            "T_p": 1.0,
            "stages": [{"kind": "tan", "eta": 2.0}],
        },
        "sim": {"x0": [1e200], "rtol": 1e-7, "atol": 1e-10},
    }


class TestIntegrationFailure:
    def test_exit_three_with_partial_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, blowup_data())
        assert main(["simulate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "integration failed at t=" in err
        partial = tmp_path / "blow.csv.partial"
        assert str(partial) in err
        lines = partial.read_text().splitlines()
        assert lines[0] == "t,x1,z1,u,V,dV"
        assert len(lines) >= 2
        assert not (tmp_path / "blow.csv").exists()


    def test_unwritable_partial_still_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, blowup_data())
        partial = tmp_path / "blow.csv.partial"
        partial.mkdir()
        assert main(["simulate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "integration failed at t=" in err
        assert err.endswith(
            f"partial trajectory not written: cannot write output "
            f"{str(partial)!r}: Is a directory\n"
        )
        assert list(partial.iterdir()) == []

    def test_huge_prescribed_instant_exits_three_with_a_reason(self, tmp_path, capsys):
        data = chain_data()
        data["synthesis"]["T_p"] = 1e300
        cfg = write_config(tmp_path, data)
        assert main(["verify", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "integration failed at t=0: step size collapsed" in err
        assert "Traceback" not in err

    def test_unevaluable_control_exits_three_with_a_reason(
        self, tmp_path, capsys, monkeypatch
    ):
        # u + 0 / t divides by zero at t=0; with c = 0 simulate runs this
        # controller itself, not a re-synthesized twin
        def trapped(config):
            ctrl = synthesize(config)
            u = ctrl.u_expr + symdiff.Const(0.0) / symdiff.TimeVar()
            return Controller(ctrl.config, ctrl.z_exprs, ctrl.virtual_refs[:-1] + (u,))

        monkeypatch.setattr(psis.cli, "synthesize", trapped)
        cfg = write_config(tmp_path, chain_data())
        assert main(["simulate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "integration failed at t=0: " in err
        assert "division by zero" in err
        assert "Traceback" not in err
        # nothing was recorded, so there is no partial file either
        assert {p.name for p in tmp_path.iterdir()} == {"exp.json"}

    def test_overflowed_stage_errors_exit_three_with_a_reason(self, tmp_path, capsys):
        data = chain_data(output={"csv": None, "svg": None, "report": None})
        data["sim"]["x0"] = [1e308, 0.0]
        cfg = write_config(tmp_path, data)
        assert main(["simulate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "integration failed at t=0: stage errors are not finite" in err
        assert "Traceback" not in err


class TestVerify:
    def test_pendulum_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pendulum_data())
        assert main(["verify", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "verdict: pass" in text
        report = json.loads((tmp_path / "pend.json").read_text())
        assert report["command"] == "verify"
        assert report["verdict"] == "pass"
        assert report["settling"]["two_sided"] is True
        assert report["lyapunov"]["violations"] == 0
        assert report["lyapunov"]["worst_residual"] < 1e-4
        assert report["control_vanishing"]["post_all_zero"] is True
        assert report["diagnostics"] == []

    def test_report_carries_the_simulate_counters(self, tmp_path):
        cfg = write_config(tmp_path, pendulum_data())
        assert main(["simulate", "--config", cfg]) == 0
        simulated = json.loads((tmp_path / "pend.json").read_text())
        assert main(["verify", "--config", cfg]) == 0
        verified = json.loads((tmp_path / "pend.json").read_text())
        assert verified["integrator"] == simulated["integrator"]
        assert verified["integrator"]["rhs_evals"] > 0

    def test_equilibrium_start_is_degenerate_not_a_failure(self, tmp_path, capsys):
        data = chain_data(run_id="eq")
        data["synthesis"]["c"] = 0.15
        data["sim"]["x0"] = [0.15, 0.0]
        cfg = write_config(tmp_path, data)
        assert main(["verify", "--config", cfg]) == 0
        assert "verdict: degenerate" in capsys.readouterr().out

    def test_open_loop_self_test_must_fail(self, tmp_path, capsys):
        data = chain_data(run_id="probe")
        data["sim"]["open_loop"] = True
        cfg = write_config(tmp_path, data)
        assert main(["verify", "--config", cfg]) == 4
        assert "verdict: fail" in capsys.readouterr().out
        report = json.loads((tmp_path / "probe.json").read_text())
        assert report["verdict"] == "fail"
        assert report["settling"]["t_settle"] is None
        assert report["config"]["sim"]["open_loop"] is True

    @pytest.mark.parametrize("x0, open_loop", [
        ([1e200, 0.0], False),
        ([1e150, 0.0], True),
    ], ids=["closed_loop", "open_loop"])
    def test_overflowed_decay_fails_by_verdict(self, tmp_path, capsys, x0, open_loop):
        # V = sum z_i^2 overflows to inf: the decay audit has no envelope
        # there, so the run fails its verdict instead of being refused
        data = chain_data(run_id="ovf")
        data["sim"]["x0"] = x0
        data["sim"]["open_loop"] = open_loop
        cfg = write_config(tmp_path, data)
        assert main(["verify", "--config", cfg]) == 4
        out, err = capsys.readouterr()
        assert "verdict: fail" in out
        assert err == ""
        report = json.loads((tmp_path / "ovf.json").read_text())
        assert report["verdict"] == "fail"
        assert report["lyapunov"]["violations"] > 0

    def test_overflowed_report_is_strict_json(self, tmp_path):
        # inf is written as the string "Infinity", not as a bare token that
        # strict JSON parsers refuse
        data = chain_data(run_id="ovf")
        data["sim"]["x0"] = [1e200, 0.0]
        cfg = write_config(tmp_path, data)
        assert main(["verify", "--config", cfg]) == 4

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        report = json.loads((tmp_path / "ovf.json").read_text(), parse_constant=refuse)
        assert report["settling"]["norm_at_standoff"] == "Infinity"
        assert float(report["settling"]["pre_window_floor"]) == math.inf

    def test_mixed_kernels_are_refused_before_simulating(self, tmp_path, capsys):
        data = chain_data()
        data["synthesis"]["stages"] = [
            {"kind": "tan", "eta": 3.5},
            {"kind": "linear", "eta": 2.5},
        ]
        cfg = write_config(tmp_path, data)
        assert main(["verify", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert err == (
            "configuration error: decay audit needs a single kernel family, "
            "trajectory has ['tan', 'linear']\n"
        )
        assert out == ""
        assert {p.name for p in tmp_path.iterdir()} == {"exp.json"}
        # simulate and sweep still run such a design
        assert main(["simulate", "--config", cfg]) == 0
        assert main(["sweep", "--config", cfg, "--scales", "1"]) == 0

    def test_slack_that_cannot_fail_is_refused_at_load(self, tmp_path, capsys):
        # slack_rel >= 1 would pass any decaying rate; refused before synthesis
        cfg = write_config(tmp_path, pendulum_data(verify={"slack_rel": 1.0}))
        assert main(["synthesize", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "configuration error: verify.slack_abs must be nonnegative and "
            "verify.slack_rel in [0, 1), got slack_abs=1e-06, slack_rel=1.0\n"
        )
        assert {p.name for p in tmp_path.iterdir()} == {"exp.json"}

    def test_unresolvable_tolerance_fails_with_diagnostic(self, tmp_path, capsys):
        data = pendulum_data(verify={"tol_abs": 1e-12, "tol_rel": 1e-15})
        data["sim"]["rtol"] = 1e-6
        data["sim"]["atol"] = 1e-9
        cfg = write_config(tmp_path, data)
        assert main(["verify", "--config", cfg]) == 4
        text = capsys.readouterr().out
        assert "diagnostic:" in text
        assert "accuracy" in text
        assert "verdict: fail" in text
        report = json.loads((tmp_path / "pend.json").read_text())
        assert report["verdict"] == "fail"
        assert len(report["diagnostics"]) == 1


class TestSweep:
    def test_paths_derived_from_csv_stem(self):
        summary, per_run = _sweep_paths("/out/run.csv", [0.5, 2.0])
        assert summary == "/out/run.sweep.csv"
        assert per_run == ["/out/run.scale_0.5.csv", "/out/run.scale_2.csv"]

    def test_distinct_scales_get_distinct_files(self, tmp_path, capsys):
        # 1.0000001 prints as 1 under :g, so its name falls back to repr
        cfg = write_config(tmp_path, chain_data())
        assert main(["sweep", "--config", cfg, "--scales", "1,1.0000001"]) == 0
        assert (tmp_path / "chain2.scale_1.csv").exists()
        assert (tmp_path / "chain2.scale_1.0000001.csv").exists()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("scale 1: ")
        assert lines[1].startswith("scale 1.0000001: ")

    def test_passing_sweep_writes_everything(self, tmp_path, capsys):
        data = chain_data(verify={"scales": [0.5, 2.0]})
        cfg = write_config(tmp_path, data)
        assert main(["sweep", "--config", cfg]) == 0
        for name in ("chain2.sweep.csv", "chain2.scale_0.5.csv",
                     "chain2.scale_2.csv", "chain2.json"):
            assert (tmp_path / name).exists()
        text = capsys.readouterr().out
        assert "verdict: pass" in text
        assert "spread:" in text
        summary = (tmp_path / "chain2.sweep.csv").read_text().splitlines()
        assert summary[0] == "scale,t_settle,pre_norm_floor,norm_at_Tp,verdict"
        assert len(summary) == 3
        report = json.loads((tmp_path / "chain2.json").read_text())
        assert report["command"] == "sweep"
        assert report["verdict"] == "pass"
        assert [row["scale"] for row in report["rows"]] == [0.5, 2.0]
        assert report["spread"] <= report["spread_bound"]
        for row in report["rows"]:
            assert set(row["integrator"]) == {
                "steps_accepted", "steps_rejected", "rhs_evals",
            }
            assert row["integrator"]["steps_accepted"] > 0

    def test_scales_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, chain_data())
        assert main(["sweep", "--config", cfg, "--scales", "0.25,4"]) == 0
        assert (tmp_path / "chain2.scale_0.25.csv").exists()
        assert (tmp_path / "chain2.scale_4.csv").exists()

    def test_tight_spread_bound_fails(self, tmp_path, capsys):
        data = chain_data(verify={"scales": [0.5, 2.0], "spread_bound": 1e-9})
        cfg = write_config(tmp_path, data)
        assert main(["sweep", "--config", cfg]) == 4
        assert "verdict: fail" in capsys.readouterr().out

    def test_unsettled_run_fails_the_sweep(self, tmp_path, capsys):
        data = chain_data(
            plant={"type": "chain", "n": 3},
            synthesis={
                "c": 0.0,
                "T_p": 1.0,
                "stages": [{"kind": "logexp", "eta": e} for e in (4.0, 3.0, 2.0)],
            },
            sim={"x0": [1.0, 0.0, 0.0], "sample_dt": 2.5e-4},
            verify={"scales": [1.0, 100.0]},
        )
        cfg = write_config(tmp_path, data)
        assert main(["sweep", "--config", cfg]) == 4
        text = capsys.readouterr().out
        assert "scale 100: fail t_settle=None" in text
        assert "verdict: fail" in text

    def test_unresolvable_tolerance_fails_like_verify(self, tmp_path, capsys):
        # the README chain design with a tolerance below the accuracy floor:
        # verify and sweep both refuse to certify it
        data = chain_data(verify={"tol_abs": 1e-13, "tol_rel": 0.0})
        del data["sim"]["rtol"], data["sim"]["atol"]
        cfg = write_config(tmp_path, data)
        assert main(["verify", "--config", cfg]) == 4
        assert "accuracy floor 1.001e-08" in capsys.readouterr().out
        assert main(["sweep", "--config", cfg]) == 4
        text = capsys.readouterr().out
        assert "scale 1: error settling tolerance 1.000e-13 is below the " \
            "integration accuracy floor 1.001e-08" in text
        assert "verdict: fail" in text
        report = json.loads((tmp_path / "chain2.json").read_text())
        (row,) = report["rows"]
        assert row["integrator"] is None
        assert "accuracy floor" in row["error"]
        summary = (tmp_path / "chain2.sweep.csv").read_text().splitlines()
        assert summary[1] == "1,,,,error"

    def test_error_row_fails_the_sweep(self, tmp_path, capsys):
        data = {
            "run_id": "mix",
            "plant": {"type": "chain", "n": 1},
            "synthesis": {
                "c": 0.0,
                "T_p": 1.0,
                "stages": [{"kind": "tan", "eta": 2.0}],
            },
            "sim": {"x0": [1.0], "rtol": 1e-7, "atol": 1e-10},
            "verify": {"scales": [1.0, 1e200]},
        }
        cfg = write_config(tmp_path, data)
        assert main(["sweep", "--config", cfg]) == 4
        text = capsys.readouterr().out
        assert "error DivergenceError" in text
        report = json.loads((tmp_path / "mix.json").read_text())
        assert report["rows"][1]["error"].startswith("DivergenceError")
        assert report["rows"][0]["integrator"]["rhs_evals"] > 0
        assert report["rows"][1]["integrator"] is None
        # the failed scale still leaves the good run's trajectory on disk
        assert (tmp_path / "mix.scale_1.csv").exists()
        assert not (tmp_path / "mix.scale_1e+200.csv").exists()

    @pytest.mark.parametrize("flag", [[], ["--scales", "1,1e300"]],
                             ids=["config", "flag"])
    def test_a_scale_past_the_float_range_exits_two_before_any_run(
            self, tmp_path, capsys, monkeypatch, flag):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate was called")
        monkeypatch.setattr(psis.verification, "simulate", refuse)
        data = chain_data(verify={"scales": [1.0, 1e300]})
        data["sim"]["x0"] = [1e10, 0.0]
        cfg = write_config(tmp_path, data)
        assert main(["sweep", "--config", cfg, *flag]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "configuration error: scale 1e+300 takes x0 past the float range: "
            "scale * x0 = (inf, 0.0)\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    def test_sweep_requires_a_csv_path(self, tmp_path, capsys):
        data = chain_data(output={"csv": None})
        cfg = write_config(tmp_path, data)
        assert main(["sweep", "--config", cfg]) == 2
        assert "output.csv" in capsys.readouterr().err


class TestUnwritableOutput:
    @pytest.fixture
    def no_simulation(self, monkeypatch):
        # an output path refused up front never reaches the integrator
        def refuse(*args, **kwargs):
            raise AssertionError("simulate was called")
        monkeypatch.setattr(psis.cli, "simulate", refuse)
        monkeypatch.setattr(psis.verification, "simulate", refuse)

    def test_sweep_with_an_unwritable_summary_writes_nothing(
            self, tmp_path, capsys, no_simulation):
        (tmp_path / "chain2.sweep.csv").mkdir()
        cfg = write_config(tmp_path, chain_data(verify={"scales": [0.5, 2.0]}))
        assert main(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: cannot write output "
            f"{str(tmp_path / 'chain2.sweep.csv')!r}: Is a directory\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "chain2.sweep.csv", "exp.json"]

    def test_simulate_into_a_directory_exits_two(self, tmp_path, capsys, no_simulation):
        (tmp_path / "taken").mkdir()
        cfg = write_config(tmp_path, chain_data(output={"csv": "taken"}))
        assert main(["simulate", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"configuration error: cannot write output "
            f"{str(tmp_path / 'taken')!r}: Is a directory\n"
        )

    def test_simulate_under_a_plain_file_exits_two(self, tmp_path, capsys, no_simulation):
        (tmp_path / "plainfile").write_text("")
        cfg = write_config(tmp_path, chain_data(output={"csv": "plainfile/run.csv"}))
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"configuration error: cannot write output "
            f"{str(tmp_path / 'plainfile' / 'run.csv')!r}: "
            f"{str(tmp_path / 'plainfile')!r} is not a directory\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
    def test_a_report_onto_the_config_exits_two(self, tmp_path, capsys, no_simulation,
                                                command):
        # run_id p names the default report p.json, the config's own name
        cfg = write_config(tmp_path, chain_data(run_id="p"), name="p.json")
        before = (tmp_path / "p.json").read_bytes()
        assert main([command, "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"configuration error: refusing to overwrite the config file {cfg!r} "
            f"with output {cfg!r}\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["p.json"]
        assert (tmp_path / "p.json").read_bytes() == before

    def test_sweep_scales_that_name_one_file_exit_two(self, tmp_path, capsys,
                                                      no_simulation):
        # 0.1 and 1e-1 are one scale, and both would be written to p.scale_0.1.csv
        cfg = write_config(tmp_path, chain_data(run_id="p"))
        assert main(["sweep", "--config", cfg, "--scales", "0.1,1e-1,1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        twice = str(tmp_path / "p.scale_0.1.csv")
        assert err == (
            f"configuration error: outputs {twice!r} and {twice!r} are the same file\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    def test_verify_with_an_unwritable_report_exits_two(self, tmp_path, capsys,
                                                        no_simulation):
        (tmp_path / "report").mkdir()
        cfg = write_config(tmp_path, chain_data(output={"report": "report"}))
        assert main(["verify", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: cannot write output ")
        assert list((tmp_path / "report").iterdir()) == []
