"""File emission: float formatting, CSV layout, report JSON, SVG rendering,
and overwrite protection."""

import json
import math
import random
import tracemalloc

import pytest

from psis.errors import AuditError, ConfigurationError
from psis.output import (
    check_outputs,
    fmt_float,
    render_report,
    render_svg,
    write_csv,
    write_report,
    write_svg,
    write_sweep_csv,
)
from psis.rcdf import RcdfKind, RcdfSpec
from psis.simulation import (
    IntegratorChain,
    Pendulum,
    Sample,
    SimConfig,
    Trajectory,
    simulate,
)
from psis.synthesis import SynthesisConfig, synthesize
from psis.verification import sweep_initial_conditions


def small_run(plant=None, c=0.15, T_p=0.5, x0=(0.09, 0.1)):
    stages = (
        RcdfSpec(kind=RcdfKind.LINEAR, eta=3.0),
        RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0),
    )
    ctrl = synthesize(SynthesisConfig(n=2, c=c, T_p=T_p, stages=stages))
    cfg = SimConfig(x0=x0, T_p=T_p, t_end=1.2 * T_p, sample_dt=T_p / 50.0,
                    rtol=1e-7, atol=1e-10)
    return simulate(plant or IntegratorChain(2), ctrl, cfg)


class TestFloatFormat:
    def test_round_trips_doubles_exactly(self):
        rng = random.Random(171)
        values = [rng.uniform(-1e6, 1e6) for _ in range(200)]
        values += [0.1, 1e-300, -1e300, 2.0 ** -52, math.pi]
        for v in values:
            assert float(fmt_float(v)) == v

    def test_seventeen_significant_digits(self):
        assert fmt_float(0.1) == "0.10000000000000001"
        assert fmt_float(1.0) == "1"


class TestClobberGuard:
    def test_refuses_existing_files(self, tmp_path):
        p = tmp_path / "out.csv"
        p.write_text("x")
        with pytest.raises(ConfigurationError, match="out.csv"):
            check_outputs([str(p)], no_clobber=True)

    def test_allows_when_disabled_or_absent(self, tmp_path):
        p = tmp_path / "out.csv"
        p.write_text("x")
        check_outputs([str(p)], no_clobber=False)
        check_outputs([str(tmp_path / "other.csv"), None], no_clobber=True)

    def test_refuses_the_config_file(self, tmp_path):
        config = tmp_path / "p.json"
        config.write_text("{}")
        (tmp_path / "sub").mkdir()
        for spelt in (str(config), str(tmp_path / "sub" / ".." / "p.json")):
            with pytest.raises(ConfigurationError, match="the config file"):
                check_outputs([str(tmp_path / "p.csv"), spelt], config=str(config))
        check_outputs([str(tmp_path / "p.csv")], config=str(config))

    def test_refuses_two_outputs_that_are_one_file(self, tmp_path):
        one = str(tmp_path / "p.scale_0.1.csv")
        with pytest.raises(ConfigurationError, match="are the same file"):
            check_outputs([one, None, str(tmp_path / "p.csv"), one])
        (tmp_path / "sub").mkdir()
        with pytest.raises(ConfigurationError, match="are the same file"):
            check_outputs([one, str(tmp_path / "sub" / ".." / "p.scale_0.1.csv")])


class TestWritableGuard:
    # the writer's own texts (TestUnwritablePaths), naming the plain file
    # however deep below it the path lies
    @pytest.mark.parametrize("name, reason", [
        ("taken", "Is a directory"),
        ("plainfile/run.csv", "{plainfile!r} is not a directory"),
        ("plainfile/a/b.csv", "{plainfile!r} is not a directory"),
    ])
    def test_refuses_a_directory_or_a_path_under_a_file(self, tmp_path, name, reason):
        (tmp_path / "taken").mkdir()
        (tmp_path / "plainfile").write_text("")
        path = str(tmp_path / name)
        with pytest.raises(ConfigurationError) as info:
            check_outputs([None, path])
        reason = reason.format(plainfile=str(tmp_path / "plainfile"))
        assert str(info.value) == f"cannot write output {path!r}: {reason}"

    def test_allows_files_and_fresh_directories(self, tmp_path):
        (tmp_path / "old.csv").write_text("x")
        check_outputs([str(tmp_path / "old.csv"), None,
                       str(tmp_path / "new" / "deeper" / "run.csv")])
        assert not (tmp_path / "new").exists()


class TestTrajectoryCsv:
    def test_header_and_shape(self, tmp_path):
        traj = small_run()
        path = tmp_path / "run.csv"
        write_csv(str(path), traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,z1,z2,u,V,dV"
        assert len(lines) == len(traj.samples) + 1
        assert all(line.count(",") == 7 for line in lines)

    def test_pre_instant_rows_are_fully_populated(self, tmp_path):
        traj = small_run()
        path = tmp_path / "run.csv"
        write_csv(str(path), traj)
        first = path.read_text().splitlines()[1].split(",")
        assert first[0] == "0"
        assert "" not in first

    def test_post_instant_rows_have_empty_error_cells(self, tmp_path):
        traj = small_run()
        path = tmp_path / "run.csv"
        write_csv(str(path), traj)
        lines = path.read_text().splitlines()[1:]
        post = [line.split(",") for line in lines if float(line.split(",")[0]) >= 0.5]
        assert post
        for cells in post:
            assert cells[3] == "" and cells[4] == ""   # z1, z2
            assert cells[5] == "0"                     # u column stays
            assert cells[6] == "" and cells[7] == ""   # V, dV

    def test_values_round_trip(self, tmp_path):
        traj = small_run()
        path = tmp_path / "run.csv"
        write_csv(str(path), traj)
        lines = path.read_text().splitlines()[1:]
        for line, s in zip(lines, traj.samples):
            cells = line.split(",")
            assert float(cells[0]) == s.t
            assert float(cells[1]) == s.x[0]
            assert float(cells[2]) == s.x[1]
            if s.z is not None:
                assert float(cells[3]) == s.z[0]
                assert float(cells[6]) == s.V

    def test_trailing_newline(self, tmp_path):
        traj = small_run()
        path = tmp_path / "run.csv"
        write_csv(str(path), traj)
        assert path.read_text().endswith("\n")

    def test_rows_are_written_as_they_are_formatted(self, tmp_path):
        # linear n=2 at sample_dt 1e-4 writes 1.8 MB; a writer that held its
        # rows before writing them would peak above the file's size
        stages = (
            RcdfSpec(kind=RcdfKind.LINEAR, eta=3.0),
            RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0),
        )
        ctrl = synthesize(SynthesisConfig(n=2, c=0.0, T_p=1.0, stages=stages))
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2, sample_dt=1e-4)
        traj = simulate(IntegratorChain(2), ctrl, cfg)
        path = tmp_path / "run.csv"
        tracemalloc.start()
        try:
            write_csv(str(path), traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 10

    def test_creates_parent_directories(self, tmp_path):
        traj = small_run()
        path = tmp_path / "deep" / "nested" / "run.csv"
        write_csv(str(path), traj)
        assert path.exists()


class TestSweepCsv:
    def test_rows_mirror_the_report(self, tmp_path):
        stages = (
            RcdfSpec(kind=RcdfKind.LINEAR, eta=3.0),
            RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0),
        )
        ctrl = synthesize(SynthesisConfig(n=2, c=0.0, T_p=1.0, stages=stages))
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2)
        report = sweep_initial_conditions(
            IntegratorChain(2), ctrl, cfg, scales=(0.0, 1.0)
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(str(path), report)
        lines = path.read_text().splitlines()
        assert lines[0] == "scale,t_settle,pre_norm_floor,norm_at_Tp,verdict"
        assert len(lines) == 3
        assert lines[1].startswith("0,")
        assert lines[1].endswith(",degenerate")
        assert lines[2].startswith("1,")
        assert lines[2].endswith(",pass")


class TestReportJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = render_report({"b": 1, "a": {"d": 2, "c": 3}})
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"c"') < text.index('"d"')
        assert text.endswith("\n")

    def test_write_and_parse(self, tmp_path):
        path = tmp_path / "report.json"
        payload = {"verdict": "pass", "spread": 0.01}
        write_report(str(path), payload)
        assert json.loads(path.read_text()) == payload

    def test_non_finite_floats_are_strings(self):
        payload = {"a": math.inf, "b": [-math.inf, (math.nan, 1.5)], "c": {"d": math.nan}}

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        parsed = json.loads(render_report(payload), parse_constant=refuse)
        assert parsed == {"a": "Infinity", "b": ["-Infinity", ["NaN", 1.5]],
                          "c": {"d": "NaN"}}

    def test_finite_reports_are_unchanged(self):
        rng = random.Random(5)
        payload = {
            "floats": [rng.uniform(-1e300, 1e300) for _ in range(20)],
            "nested": {"t": (0.1, -0.0, 5e-324), "flag": True, "none": None, "n": 3},
            "text": "Infinity",
        }
        assert render_report(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestSvg:
    def test_self_contained_document(self):
        traj = small_run()
        svg = render_svg(traj, "demo", include_timestamp=False)
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert "http://www.w3.org/2000/svg" in svg
        assert "href" not in svg
        assert "x1" in svg and "x2" in svg and '>u<' in svg

    def test_timestamp_toggle(self):
        traj = small_run()
        with_stamp = render_svg(traj, "demo", include_timestamp=True)
        without = render_svg(traj, "demo", include_timestamp=False)
        assert "<!-- generated " in with_stamp
        assert "<!-- generated " not in without

    def test_deterministic_without_timestamp(self):
        traj = small_run()
        a = render_svg(traj, "demo", include_timestamp=False)
        b = render_svg(traj, "demo", include_timestamp=False)
        assert a == b

    def test_setpoint_line_for_nonzero_target(self):
        traj = small_run()
        svg = render_svg(traj, "demo", include_timestamp=False)
        assert "setpoint" in svg

    def test_pendulum_panel_includes_torque(self):
        traj = small_run(plant=Pendulum())
        svg = render_svg(traj, "demo", include_timestamp=False)
        assert "torque" in svg

    def test_chain_panel_has_no_torque(self):
        traj = small_run()
        svg = render_svg(traj, "demo", include_timestamp=False)
        assert "torque" not in svg

    def test_non_finite_points_are_dropped_not_emitted(self):
        samples = [
            Sample(t=0.0, x=(1.0,), u=0.0, z=(1.0,), V=1.0, dV=0.0),
            Sample(t=0.5, x=(math.nan,), u=0.0, z=(1.0,), V=1.0, dV=0.0),
            Sample(t=1.0, x=(0.5,), u=0.0, z=None, V=None, dV=None),
        ]
        traj = Trajectory(samples=samples, meta={"T_p": 1.0})
        svg = render_svg(traj, "demo", include_timestamp=False)
        assert "nan" not in svg.lower()

    def test_write_svg(self, tmp_path):
        traj = small_run()
        path = tmp_path / "plot.svg"
        write_svg(str(path), traj, "demo", include_timestamp=False)
        assert path.read_text().startswith("<svg ")


@pytest.mark.parametrize("write", [
    write_csv,
    lambda path, traj: write_svg(path, traj, "demo"),
    lambda path, traj: render_svg(traj, "demo"),
], ids=["write_csv", "write_svg", "render_svg"])
def test_trajectory_without_samples_is_an_audit_error(tmp_path, write):
    # the partial trajectory of a run that breaks down at its first sample
    traj = Trajectory(samples=[], meta={"T_p": 1.0})
    path = tmp_path / "empty.out"
    with pytest.raises(AuditError, match="^trajectory has no samples$"):
        write(str(path), traj)
    assert not path.exists()


class TestUnwritablePaths:
    @pytest.fixture
    def writers(self):
        traj = small_run()
        stages = (
            RcdfSpec(kind=RcdfKind.LINEAR, eta=3.0),
            RcdfSpec(kind=RcdfKind.LINEAR, eta=2.0),
        )
        ctrl = synthesize(SynthesisConfig(n=2, c=0.0, T_p=1.0, stages=stages))
        cfg = SimConfig(x0=(1.0, 0.0), T_p=1.0, t_end=1.2, sample_dt=0.02,
                        rtol=1e-7, atol=1e-10)
        report = sweep_initial_conditions(IntegratorChain(2), ctrl, cfg, scales=(1.0,))
        return {
            "csv": lambda p: write_csv(p, traj),
            "sweep_csv": lambda p: write_sweep_csv(p, report),
            "report": lambda p: write_report(p, {"a": 1}),
            "svg": lambda p: write_svg(p, traj, "demo"),
        }

    def test_a_directory_in_the_way(self, tmp_path, writers):
        for write in writers.values():
            with pytest.raises(ConfigurationError) as info:
                write(str(tmp_path))
            assert str(info.value) == f"cannot write output {str(tmp_path)!r}: Is a directory"

    def test_a_file_where_the_parent_should_be(self, tmp_path, writers):
        plain = tmp_path / "plainfile"
        plain.write_text("")
        path = str(plain / "run.out")
        for write in writers.values():
            with pytest.raises(ConfigurationError) as info:
                write(path)
            assert str(info.value) == (
                f"cannot write output {path!r}: {str(plain)!r} is not a directory"
            )
        assert plain.read_text() == ""

    def test_a_file_two_levels_above(self, tmp_path, writers):
        # the text names the plain file however deep below it the path lies
        plain = tmp_path / "plainfile"
        plain.write_text("")
        path = str(plain / "a" / "b.csv")
        with pytest.raises(ConfigurationError) as info:
            writers["csv"](path)
        assert str(info.value) == (
            f"cannot write output {path!r}: {str(plain)!r} is not a directory"
        )

    def test_a_null_byte_in_the_path(self, tmp_path, writers):
        # config validation takes any JSON string as a path
        path = str(tmp_path / "run\0.out")
        for write in writers.values():
            with pytest.raises(ConfigurationError) as info:
                write(path)
            assert str(info.value) == f"cannot write output {path!r}: embedded null byte"
