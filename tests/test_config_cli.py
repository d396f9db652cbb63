import json
import logging
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotorsense import cli
from rotorsense.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from rotorsense.config import _SPEC_KEYS, PipelineConfig, parse_scenario
from rotorsense.errors import ConfigError, DataError
from rotorsense import pipeline as pl
from rotorsense import sim
from rotorsense.sim import MAX_SAMPLES_PER_CLASS, DroneSpec, NoiseSpec


SCENE = """
mode=propellers
width=130
height=130
duration_us=50000
tick_us=50
seed=9
prop0.center=60,60
prop0.blades=2
prop0.blade_length=30
prop0.blade_width=5
prop0.phase=0.3
prop0.rpm=3000
noise.background_rate=5
noise.hot_pixels=4
noise.hot_pixel_rate=1000
noise.jitter_px=0.3
"""

FLIGHT = """
mode=flight
duration_us=200000
tick_us=1000
seed=3
script=0:hover,100000:climb
drone.hover_rpm=3000
drone.delta_rpm=300
drone.rpm_jitter=20
drone.tilt_fraction=0.2
drone.gps_rate_hz=10
drone.gps_sigma_m=2
"""

PIPE = """
seed=9
scenario={scene}
window_us=25000
k_props=1
bracket_rpm_lo=1000
bracket_rpm_hi=6000
"""


@pytest.fixture()
def scene_file(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE)
    return str(path)


@pytest.fixture()
def pipe_file(tmp_path, scene_file):
    path = tmp_path / "pipe.cfg"
    path.write_text(PIPE.format(scene=scene_file))
    return str(path)


class TestPipelineConfig:
    def test_defaults_validate(self):
        PipelineConfig().validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            PipelineConfig.from_dict({"bogus_knob": "1"})

    def test_negative_delta_rejected_before_execution(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"delta": "-1"})

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="bad value"):
            PipelineConfig.from_dict({"beta": "eight"})

    def test_content_hash_stable_and_sensitive(self):
        a = PipelineConfig()
        b = PipelineConfig()
        assert a.content_hash() == b.content_hash()
        b.seed = 1
        assert a.content_hash() != b.content_hash()


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_every_float_field_must_be_finite(self, value):
        """A range check that already failed keeps its message; the others
        now fail too, naming the key."""
        floats = [f.name for f in fields(PipelineConfig) if isinstance(getattr(PipelineConfig(), f.name), float)]
        assert len(floats) == 18  # cutoff_hz left with the low-pass filter
        for key in floats:
            with pytest.raises(ConfigError):
                PipelineConfig.from_dict({key: value})

    def test_every_int_field_must_fit_in_64_bits(self):
        ints = [f.name for f in fields(PipelineConfig) if type(getattr(PipelineConfig(), f.name)) is int]
        assert len(ints) == 10
        for key in ints:
            for value in (2**63, -(2**63) - 1, 99999999999999999999):
                with pytest.raises(ConfigError, match=f"^{key} must fit in 64 bits"):
                    PipelineConfig.from_dict({key: str(value)})

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["--config", "{cfg}", "pipeline", "--out", "{out}"], "dt_us"),
            (["estimate", "{missing}", "--out", "{out}", "--dt-us", "99999999999999999999"], "dt_us"),
            (["preprocess", "{missing}", "--out", "{out}", "--window-us", "99999999999999999999"], "window_us"),
            (["--seed", "-1", "estimate", "{missing}", "--out", "{out}"], "seed"),
            (["estimate", "{missing}", "--out", "{out}", "--bracket-rpm", "0,1e308"], "bracket_rpm_hi"),
            (["estimate", "{missing}", "--out", "{out}", "--grid", "9223372036854775807"], "n_grid"),
            (["estimate", "{missing}", "--out", "{out}", "--grid", "1000000000000"], "n_grid"),
            (["estimate", "{missing}", "--out", "{out}", "--epsilon", "1e-320"], "epsilon"),
        ],
    )
    def test_out_of_range_integers_and_brackets_exit_2(self, tmp_path, capsys, argv, key):
        """The integers exited 1 with OverflowError (or ValueError from the
        seed); the bracket exited 0 with no speeds after numpy warnings,
        its float32 warp angle being infinite; the grids exited 1 with
        IndexError from np.linspace and MemoryError for a 7.28 TiB grid."""
        cfg = tmp_path / "big.cfg"
        cfg.write_text("dt_us=99999999999999999999\n")
        paths = {"cfg": cfg, "out": tmp_path / "out", "missing": tmp_path / "missing.bin"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([arg.format(**paths) for arg in argv])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {key} ")

    def test_epsilon_with_an_infinite_reciprocal_in_a_config_exits_2(self, tmp_path, capsys):
        """1e-320 is positive, but the sparsity reward 1 / epsilon of an empty
        pixel overflows: this exited 0 with no speeds after a numpy warning
        (as `--epsilon 1e-320` did, tested above)."""
        cfg = tmp_path / "eps.cfg"
        cfg.write_text("epsilon=1e-320\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", str(cfg), "estimate", str(tmp_path / "missing.bin"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: epsilon must be positive with a finite reciprocal, got 1e-320"
        ]
        PipelineConfig(epsilon=1e-300).validate()  # its reciprocal, 1e300, is finite

    def test_largest_float32_safe_bracket_is_accepted(self):
        """8 ms batches at 1.6e39 RPM turn by about 1.3e36 rad: finite in
        float32; 1.7e39 RPM exceeds half of float32's range per second."""
        PipelineConfig(bracket_rpm_hi=1.6e39).validate()
        with pytest.raises(ConfigError, match="bracket_rpm_hi"):
            PipelineConfig(bracket_rpm_hi=1.7e39).validate()


class TestScenario:
    def test_parse_round(self, scene_file):
        scenario = parse_scenario(scene_file)
        assert scenario.mode == "propellers"
        assert len(scenario.specs) == 1
        assert scenario.specs[0].center == (60.0, 60.0)
        assert scenario.noise.hot_pixel_count == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(SCENE + "prop0.colour=red\n")
        with pytest.raises(ConfigError, match="unknown propeller key"):
            parse_scenario(str(path))

    def test_flight_tick_is_honoured(self, tmp_path):
        """A flight steps at its scenario's `tick_us`; without one it steps
        at sim.FLIGHT_TICK_US, the same bytes as `tick_us=1000`."""
        def truth_state(text, name):
            path = tmp_path / f"{name}.cfg"
            path.write_text(text)
            assert main(["simulate", str(path), "--out", str(tmp_path / name)]) == 0
            return (tmp_path / name / "truth_state.csv").read_bytes()

        default = truth_state(FLIGHT.replace("tick_us=1000\n", ""), "default")
        assert default == truth_state(FLIGHT, "explicit")
        coarse = truth_state(FLIGHT.replace("tick_us=1000", "tick_us=5000"), "coarse")
        assert len(default.splitlines()) == 1 + 201 and len(coarse.splitlines()) == 1 + 41
        assert parse_scenario(str(tmp_path / "default.cfg")).tick_us == sim.FLIGHT_TICK_US

    def test_flight_requires_script(self, tmp_path):
        path = tmp_path / "flight.cfg"
        path.write_text("mode=flight\nduration_us=1000\n")
        with pytest.raises(ConfigError, match="script"):
            parse_scenario(str(path))

    def test_each_spec_key_sets_its_field(self, tmp_path):
        """Every noise.* and drone.* key sets one field of NoiseSpec or
        DroneSpec, with the field's type; an omitted block is the default."""
        values = {
            "noise.background_rate": 7.5, "noise.hot_pixels": 3, "noise.hot_pixel_rate": 12.5, "noise.jitter_px": 0.25,
            "noise.on_fraction": 0.5, "drone.hover_rpm": 3100.0, "drone.delta_rpm": 250.0, "drone.rpm_jitter": 30.0,
            "drone.tilt_fraction": 0.3, "drone.gps_rate_hz": 8.0, "drone.gps_sigma_m": 1.5, "drone.blade_length": 25.0,
            "drone.blade_width": 4.0, "drone.n_blades": 3,
        }
        renamed = {"noise.hot_pixels": "hot_pixel_count", "noise.jitter_px": "vibration_jitter_px",
                   "noise.on_fraction": "background_on_fraction"}
        assert set(values) == {f"{block}.{key}" for block, (_, names) in _SPEC_KEYS.items() for key in names}
        defaults = {"noise": NoiseSpec(), "drone": DroneSpec()}
        path = tmp_path / "flight.cfg"
        path.write_text("mode=flight\nscript=0:hover\n")
        bare = parse_scenario(str(path))
        assert (bare.noise, bare.drone) == (defaults["noise"], defaults["drone"])
        for key, value in values.items():
            path.write_text(f"mode=flight\nscript=0:hover\n{key}={value}\n")
            scenario = parse_scenario(str(path))
            block, _, name = key.partition(".")
            name = renamed.get(key, name)
            assert getattr(scenario, block) == replace(defaults[block], **{name: value})
            assert type(getattr(getattr(scenario, block), name)) is type(value)
            other = "drone" if block == "noise" else "noise"
            assert getattr(scenario, other) == defaults[other]

    def test_bad_command_in_script(self, tmp_path):
        path = tmp_path / "flight.cfg"
        path.write_text("mode=flight\nscript=0:wobble\n")
        with pytest.raises(ConfigError, match="wobble"):
            parse_scenario(str(path))


class TestRunPipeline:
    def test_artifacts_metrics_and_manifest(self, pipe_file, tmp_path):
        cfg = PipelineConfig.from_file(pipe_file)
        out = str(tmp_path / "run")
        result = pl.run_pipeline(cfg, out)
        names = {os.path.basename(p) for p in result.artifacts}
        assert {"events.bin", "truth_rpm.csv", "filtered.bin", "assignments.csv",
                "tracks.csv", "speeds.csv", "metrics.jsonl", "manifest.json"} <= names
        rmae_entries = [m for m in result.metrics if m["metric"] == "rmae_percent"]
        assert len(rmae_entries) == 1  # one per propeller
        assert rmae_entries[0]["value"] < 1.5
        manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert manifest["seed"] == 9
        assert manifest["config_sha256"] == cfg.content_hash()
        assert "speeds.csv" in manifest["artifacts"]

    def test_rerun_is_byte_identical(self, pipe_file, tmp_path):
        cfg = PipelineConfig.from_file(pipe_file)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        r1 = pl.run_pipeline(cfg, out1)
        r2 = pl.run_pipeline(cfg, out2)
        for p1, p2 in zip(sorted(r1.artifacts), sorted(r2.artifacts)):
            assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_needs_scenario_or_input(self):
        with pytest.raises(ConfigError):
            pl.run_pipeline(PipelineConfig(), "/tmp/never")

    @pytest.mark.parametrize(
        "setting",
        [
            "delta=0",  # raised after the preprocess artifacts were written
            "n_grid=2",  # likewise
            "window_us=0",  # ZeroDivisionError, then "window interval is inverted"
            "gps_sigma_m=-1",  # ran, and hashed the invalid config into the manifest
            "beta=0",
            "sample_fraction=0",
        ],
    )
    def test_invalid_config_raises_before_any_stage(self, pipe_file, tmp_path, setting):
        cfg = PipelineConfig.from_file(pipe_file)
        key, value = setting.split("=")
        setattr(cfg, key, type(getattr(cfg, key))(value))
        out = tmp_path / "run"
        out.mkdir()
        with pytest.raises(ConfigError, match=key):
            pl.run_pipeline(cfg, str(out))
        assert list(out.iterdir()) == []

    def test_simulate_writes_what_the_pipeline_simulates(self, scene_file, pipe_file, tmp_path):
        """`simulate` and `run_pipeline` share one simulate stage: the same
        scenario and seed give the same events and truth files."""
        assert main(["simulate", scene_file, "--out", str(tmp_path / "sim")]) == 0
        pl.run_pipeline(PipelineConfig.from_file(pipe_file), str(tmp_path / "run"))
        for name in ("events.bin", "truth_rpm.csv"):
            assert (tmp_path / "sim" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


class TestCliExitCodes:
    def test_pipeline_subcommand(self, pipe_file, tmp_path, capsys):
        code = main(["--config", pipe_file, "pipeline", "--out", str(tmp_path / "out")])
        assert code == 0
        assert "rmae_percent" in capsys.readouterr().out

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("delta=-1\n")
        assert main(["--config", str(bad), "pipeline", "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_data_error_exit_3(self, tmp_path):
        missing = str(tmp_path / "none.bin")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"input={missing}\n")
        code = main(["--config", str(cfg), "estimate", missing, "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA

    def test_simulate_then_estimate_then_eval(self, scene_file, tmp_path, capsys):
        out = str(tmp_path / "sim")
        assert main(["simulate", scene_file, "--out", out]) == 0
        est_out = str(tmp_path / "est")
        assert main([
            "--config", "/dev/null", "--seed", "9",
            "estimate", os.path.join(out, "events.bin"), "--out", est_out,
            "--bracket-rpm", "1000,6000",
        ]) == 0
        report = str(tmp_path / "report.jsonl")
        assert main([
            "eval", "--speeds", os.path.join(est_out, "speeds.csv"),
            "--truth-rpm", os.path.join(out, "truth_rpm.csv"), "--tracks", os.path.join(est_out, "tracks.csv"),
            "--report", report,
        ]) == 0
        lines = [json.loads(line) for line in open(report)]
        assert any(entry["metric"] == "rmae_percent" for entry in lines)

    # eval's valid inputs, by flag; each scores alone with its group
    EVAL_INPUTS = {
        "--speeds": "t_ref,prop_id,rpm,objective\n1000,0,3000.0,0.0\n",
        "--truth-rpm": "# prop0_center=0.0,0.0\nt,prop_id,rpm\n0,0,3000.0\n",
        "--tracks": "prop_id,centroid_x,centroid_y,n_events\n0,0.0,0.0,1\n",
        "--fused": "t,x,y,z,vx,vy,vz,cov_trace\n0,0.0,0.0,0.0,0.0,0.0,0.0,1.0\n",
        "--truth-state": "t,x,y,z,vx,vy,vz\n0,0.0,0.0,0.0,0.0,0.0,0.0\n",
    }

    @pytest.mark.parametrize("flag, missing", [
        ("--speeds", "--truth-rpm and --tracks"), ("--truth-rpm", "--speeds and --tracks"),
        ("--tracks", "--speeds and --truth-rpm"), ("--fused", "--truth-state"), ("--truth-state", "--fused"),
    ])
    def test_eval_flag_without_its_partners_exits_2(self, tmp_path, capsys, flag, missing):
        """A flag beside the other group's complete inputs wrote that
        group's metrics alone and exited 0, dropping the flag's metric."""
        other = ("--fused", "--truth-state") if flag in ("--speeds", "--truth-rpm", "--tracks") else (
            "--speeds", "--truth-rpm", "--tracks")
        report = tmp_path / "report.jsonl"
        argv = ["eval", "--report", str(report)]
        for name in (flag, *other):
            path = tmp_path / (name[2:] + ".csv")
            path.write_text(self.EVAL_INPUTS[name])
            argv += [name, str(path)]
        assert main(argv[:3] + argv[5:]) == EXIT_OK  # the other group scores alone
        report.unlink()
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"config error: eval {flag} needs {missing}"]
        assert not report.exists()

    def test_preprocess_subcommand(self, scene_file, tmp_path):
        out = str(tmp_path / "sim")
        main(["simulate", scene_file, "--out", out])
        pre_out = str(tmp_path / "pre")
        assert main([
            "preprocess", os.path.join(out, "events.bin"), "--out", pre_out,
            "--window-us", "25000", "--k", "1", "--polarity-band", "0.3,0.7",
        ]) == 0
        assert os.path.exists(os.path.join(pre_out, "filtered.bin"))
        assignments = open(os.path.join(pre_out, "assignments.csv")).read().splitlines()
        assert assignments[0] == "event_index,prop_id"
        assert len(assignments) > 1

    def test_every_run_writes_a_manifest(self, scene_file, tmp_path):
        sim_out = str(tmp_path / "sim")
        main(["simulate", scene_file, "--out", sim_out])
        for directory in (sim_out,):
            manifest = json.loads(open(os.path.join(directory, "manifest.json")).read())
            assert {"config_sha256", "seed", "artifacts"} <= set(manifest)
        est_out = str(tmp_path / "est")
        main(["--seed", "9", "estimate", os.path.join(sim_out, "events.bin"), "--out", est_out,
              "--bracket-rpm", "1000,6000"])
        assert os.path.exists(os.path.join(est_out, "manifest.json"))

    def test_missing_file_data_error(self, tmp_path):
        code = main(["preprocess", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA

    def test_non_numeric_speed_field_exit_3(self, tmp_path, capsys):
        speeds = tmp_path / "speeds.csv"
        speeds.write_text("t_ref,prop_id,rpm,objective\n1000,0,abc,0.0\n")
        code = main([
            "eval", "--speeds", str(speeds), "--truth-rpm", str(tmp_path / "truth_rpm.csv"),
            "--tracks", str(tmp_path / "tracks.csv"), "--report", str(tmp_path / "report.jsonl"),
        ])
        assert code == EXIT_DATA
        assert f"{speeds}:2:" in capsys.readouterr().err

    def test_eval_checks_fused_header(self, tmp_path, capsys):
        fused = tmp_path / "fused.csv"
        fused.write_text("t,x,y,z\n0,0.0,0.0,0.0\n")  # a GPS file passed as fused output
        truth = tmp_path / "truth_state.csv"
        truth.write_text("t,x,y,z,vx,vy,vz\n0,0.0,0.0,0.0,0.0,0.0,0.0\n")
        code = main([
            "eval", "--fused", str(fused), "--truth-state", str(truth),
            "--report", str(tmp_path / "report.jsonl"),
        ])
        assert code == EXIT_DATA
        assert f"{fused}:1:" in capsys.readouterr().err


class TestFlightCliFlow:
    def test_train_infer_fuse_eval(self, tmp_path, capsys):
        flight_scene = tmp_path / "flight.cfg"
        flight_scene.write_text(
            "mode=flight\nduration_us=12000000\nseed=5\n"
            "script=0:hover,2000000:climb,5000000:hover,7000000:descent,10000000:hover\n"
            "drone.rpm_jitter=60\ndrone.gps_rate_hz=5\ndrone.gps_sigma_m=2\n"
        )
        sim_out = str(tmp_path / "flight")
        assert main(["simulate", str(flight_scene), "--out", sim_out]) == 0
        for name in ("truth_state.csv", "gps.csv", "speed_traces.csv", "commands.csv"):
            assert os.path.exists(os.path.join(sim_out, name))

        model_path = str(tmp_path / "model.txt")
        assert main(["--seed", "11", "train-command", "--model", model_path,
                     "--samples-per-class", "40"]) == 0

        fused_csv = str(tmp_path / "fused.csv")
        # simulator speed traces stand in for estimate output here
        traces = open(os.path.join(sim_out, "speed_traces.csv")).read().splitlines()[1:]
        speeds_csv = str(tmp_path / "speeds.csv")
        with open(speeds_csv, "w") as fh:
            fh.write("t_ref,prop_id,rpm,objective\n")
            for line in traces:
                t, prop, rpm = line.split(",")
                fh.write(f"{t},{prop},{rpm},0.0\n")
        assert main([
            "fuse", "--speeds", speeds_csv, "--commands", os.path.join(sim_out, "commands.csv"),
            "--gps", os.path.join(sim_out, "gps.csv"), "--out-csv", fused_csv,
        ]) == 0
        report = str(tmp_path / "loc.jsonl")
        assert main([
            "eval", "--fused", fused_csv, "--truth-state", os.path.join(sim_out, "truth_state.csv"),
            "--report", report,
        ]) == 0
        entries = [json.loads(line) for line in open(report)]
        mean_err = next(e["value"] for e in entries if e["metric"] == "mean_3d_error_m")
        assert mean_err < 3.0  # fused output is comfortably inside the GPS noise

    def test_simulated_traces_fuse_in_file_order(self, tmp_path, caplog):
        """speed_traces.csv is time-major, so `fuse` reads it in file order
        without dropping rows behind its clock."""
        flight_scene = tmp_path / "flight.cfg"
        flight_scene.write_text("mode=flight\nduration_us=3000000\nseed=5\nscript=0:hover,1000000:climb\n")
        sim_out = str(tmp_path / "flight")
        assert main(["simulate", str(flight_scene), "--out", sim_out]) == 0
        traces = open(os.path.join(sim_out, "speed_traces.csv")).read().splitlines()[1:]
        speeds_csv = tmp_path / "speeds.csv"
        speeds_csv.write_text("t_ref,prop_id,rpm,objective\n" + "".join(f"{line},0.0\n" for line in traces))
        caplog.set_level(logging.WARNING)
        assert main([
            "fuse", "--speeds", str(speeds_csv), "--gps", os.path.join(sim_out, "gps.csv"),
            "--out-csv", str(tmp_path / "fused.csv"),
        ]) == 0
        assert not [r for r in caplog.records if "dropping out-of-order" in r.getMessage()]

    def test_infer_command_on_speed_csv(self, tmp_path):
        model_path = str(tmp_path / "model.txt")
        main(["--seed", "11", "train-command", "--model", model_path, "--samples-per-class", "40"])
        # synthetic steady hover speed rows for all 4 props at 200 Hz
        speeds_csv = str(tmp_path / "speeds.csv")
        with open(speeds_csv, "w") as fh:
            fh.write("t_ref,prop_id,rpm,objective\n")
            rng = np.random.default_rng(0)
            for t in range(0, 300_000, 5000):
                for prop in range(4):
                    fh.write(f"{t},{prop},{3000.0 + rng.normal(0, 60):.3f},0.0\n")
        out_csv = str(tmp_path / "cmd.csv")
        assert main(["infer-command", speeds_csv, "--model", model_path, "--out-csv", out_csv]) == 0
        rows = open(out_csv).read().splitlines()
        assert rows[0] == "t,command"
        assert len(rows) > 1


class TestBench:
    def test_bench_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "bench")
        code = main(["bench", "--out", out, "--duration-us", "100000", "--min-events-per-sec", "1"])
        assert code == 0
        report = json.loads(open(os.path.join(out, "benchmark.json")).read())
        assert report["pass"] is True
        assert report["events_consumed"] > 0
        assert report["threshold_events_per_sec"] == 1

    @pytest.mark.parametrize(
        "option, value", [("--duration-us", "0"), ("--duration-us", "-1"), ("--min-events-per-sec", "nan"),
                          ("--min-events-per-sec", "inf"), ("--min-events-per-sec", "-1")],
    )
    def test_bad_option_exits_2(self, tmp_path, capsys, option, value):
        """0 and nan exited 4 with nothing on stderr."""
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out), option, value]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {option} must be")
        assert not out.exists()

    def test_below_threshold_exits_4_saying_why(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", "--out", str(out), "--duration-us", "20000", "--min-events-per-sec", "1e15"])
        assert code == EXIT_NUMERIC
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and re.fullmatch(r"numerical error: \S+ events/s is below --min-events-per-sec 1e\+15", err[0])
        report = json.loads((out / "benchmark.json").read_text())
        assert report["pass"] is False and json.loads(captured.out) == report


def hover_rows(n_props):
    """A speed table of 300 ms of hover rows, one per rotor per ms."""
    rows = "".join(f"{t},{p},3000.0,0.0\n" for t in range(0, 300_000, 1000) for p in range(n_props))
    return "t_ref,prop_id,rpm,objective\n" + rows


class TestCliMalformedInputs:
    def test_non_numeric_truth_rpm_exit_3(self, tmp_path, capsys):
        speeds = tmp_path / "speeds.csv"
        speeds.write_text("t_ref,prop_id,rpm,objective\n1000,0,3000.0,0.0\n")
        truth = tmp_path / "truth_rpm.csv"
        truth.write_text("t,prop_id,rpm\n1000,0,abc\n")
        code = main([
            "eval", "--speeds", str(speeds), "--truth-rpm", str(truth),
            "--tracks", str(tmp_path / "tracks.csv"), "--report", str(tmp_path / "report.jsonl"),
        ])
        assert code == EXIT_DATA
        assert f"{truth}:2:" in capsys.readouterr().err

    def test_non_integer_command_time_exit_3(self, tmp_path, capsys):
        commands = tmp_path / "commands.csv"
        commands.write_text("t,command\nx1,hover\n")
        gps = tmp_path / "gps.csv"
        gps.write_text("t,x,y,z\n0,0.0,0.0,0.0\n")
        code = main([
            "fuse", "--commands", str(commands), "--gps", str(gps), "--out-csv", str(tmp_path / "fused.csv"),
        ])
        assert code == EXIT_DATA
        assert f"{commands}:2:" in capsys.readouterr().err

    def test_truncated_model_exit_3(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text("rotorsense-command-model v2\n")
        speeds = tmp_path / "speeds.csv"
        speeds.write_text("t_ref,prop_id,rpm,objective\n0,0,3000.0,0.0\n")
        code = main(["infer-command", str(speeds), "--model", str(model), "--out-csv", str(tmp_path / "cmd.csv")])
        assert code == EXIT_DATA
        assert str(model) in capsys.readouterr().err


    @pytest.mark.parametrize("bad", ["inf", "nan", "-inf", "1.5"])
    def test_non_integer_gps_time_exit_3(self, tmp_path, capsys, bad):
        gps = tmp_path / "gps.csv"
        gps.write_text(f"t,x,y,z\n0,0.0,0.0,0.0\n{bad},1.0,0.0,0.0\n")
        code = main(["fuse", "--gps", str(gps), "--out-csv", str(tmp_path / "fused.csv")])
        assert code == EXIT_DATA
        assert f"{gps}:3: non-integer field" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("model") / "model.txt")
        assert main(["--seed", "11", "train-command", "--model", path, "--samples-per-class", "10"]) == 0
        return path

    def test_infinite_speed_time_exit_3(self, tmp_path, capsys, model_path):
        speeds = tmp_path / "speeds.csv"
        speeds.write_text("t_ref,prop_id,rpm,objective\n0,0,3000.0,0.0\ninf,0,3000.0,0.0\n")
        code = main(["infer-command", str(speeds), "--model", model_path, "--out-csv", str(tmp_path / "c.csv")])
        assert code == EXIT_DATA
        assert f"{speeds}:3: non-integer field" in capsys.readouterr().err

    @pytest.mark.parametrize("prop_id", [-1, 4, 2**40])
    def test_rotor_id_outside_the_model_exit_3(self, tmp_path, capsys, model_path, prop_id):
        """A row of a rotor the model has no channel for was dropped
        silently; it now exits 3 as `fuse` does, naming the file and id."""
        speeds = tmp_path / "speeds.csv"
        speeds.write_text(hover_rows(4) + f"150000,{prop_id},3000.0,0.0\n")
        code = main(["infer-command", str(speeds), "--model", model_path, "--out-csv", str(tmp_path / "c.csv")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {speeds}: rotor id {prop_id} outside the model's 0..3"
        ]

    def test_far_speed_row_costs_one_window(self, tmp_path, model_path):
        rows = "".join(f"{t},{prop},3000.0,0.0\n" for t in range(0, 1_000_000, 1000) for prop in range(4))
        speeds = tmp_path / "speeds.csv"
        speeds.write_text("t_ref,prop_id,rpm,objective\n" + rows + "100000000000,0,3000.0,0.0\n")
        out = tmp_path / "c.csv"
        assert main(["infer-command", str(speeds), "--model", model_path, "--out-csv", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 10  # header, then the complete windows

    @pytest.mark.parametrize(
        ("key", "value"),
        [("rate_hz", "0"), ("rate_hz", "nan"), ("rate_hz", "inf"), ("rate_hz", "1e20"), ("window", "0"),
         ("n_props", "0")],
    )
    def test_model_setting_out_of_range_exit_3(self, tmp_path, capsys, model_path, key, value):
        text = open(model_path).read()
        settings = text.splitlines()[1]
        model = tmp_path / "model.txt"
        model.write_text(text.replace(settings, re.sub(rf"\b{key}=\S+", f"{key}={value}", settings)))
        speeds = tmp_path / "speeds.csv"
        speeds.write_text(hover_rows(4))
        code = main(["infer-command", str(speeds), "--model", str(model), "--out-csv", str(tmp_path / "c.csv")])
        assert code == EXIT_DATA
        assert str(model) in capsys.readouterr().err

    def test_model_features_not_fitting_its_rotors_exit_3(self, tmp_path, capsys, model_path):
        model = tmp_path / "model.txt"
        model.write_text(open(model_path).read().replace("n_props=4", "n_props=2"))
        speeds = tmp_path / "speeds.csv"
        speeds.write_text(hover_rows(2))
        code = main(["infer-command", str(speeds), "--model", str(model), "--out-csv", str(tmp_path / "c.csv")])
        assert code == EXIT_DATA
        assert "model has 4 features for 2 rotors, not one per rotor" in capsys.readouterr().err

    @pytest.mark.parametrize("window_ms", ["0", "-5", "nan", "inf", "1e308"])
    def test_window_must_be_positive_exit_2(self, tmp_path, capsys, model_path, window_ms):
        """An infinite window in us (inf, 1e308) exited 3 after two numpy warnings."""
        speeds = tmp_path / "speeds.csv"
        speeds.write_text("t_ref,prop_id,rpm,objective\n0,0,3000.0,0.0\n")
        argv = ["infer-command", str(speeds), "--model", model_path, "--window-ms", window_ms]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out-csv", str(tmp_path / "c.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"config error: --window-ms must be positive and finite, got {float(window_ms)}"
        ]


    def test_window_shorter_than_model_exit_2(self, tmp_path, capsys, model_path):
        speeds = tmp_path / "speeds.csv"
        speeds.write_text(hover_rows(4))
        argv = ["infer-command", str(speeds), "--model", model_path, "--window-ms", "50"]
        assert main(argv + ["--out-csv", str(tmp_path / "c.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--window-ms 50.0" in err and "window of 100 samples" in err


class TestClosedStdout:
    """A reader that closed its end of stdout before the command printed
    leaves the command's exit code and files as they would be."""

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_closed_pipe_keeps_exit_code(self, tmp_path, scene_file, pipe_file, command):
        out = str(tmp_path / "out")
        argv = {"simulate": ["simulate", scene_file], "pipeline": ["--config", pipe_file, "pipeline"]}[command]
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pl.__file__)))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rotorsense.cli", *argv, "--out", out],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert os.path.exists(os.path.join(out, "manifest.json"))


class TestClosedStderr:
    """An error message to a reader that closed its end of stderr leaves
    the command's exit code as it would be."""

    @pytest.mark.parametrize(
        ("argv", "code"),
        [(["--config", "bad.cfg", "pipeline"], EXIT_CONFIG), (["--config", "missing.cfg", "pipeline"], EXIT_DATA)],
        ids=["config", "data"],
    )
    def test_closed_pipe_keeps_exit_code(self, tmp_path, argv, code):
        (tmp_path / "bad.cfg").write_text("seed=x\n")
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pl.__file__)))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rotorsense.cli", *argv, "--out", str(tmp_path / "out")],
                stdout=subprocess.PIPE, stderr=write_end, env=env, cwd=tmp_path, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert proc.stdout == b""


# a scenario line (replacing its key's line), and what exit 2 reports
OUT_OF_RANGE = [
    # exited 1 with a traceback
    (SCENE, "prop0.center=nan,20", "prop0.center: must be finite"),
    (SCENE, "prop0.phase=inf", "prop0.phase: must be finite"),
    (SCENE, "noise.background_rate=inf", "noise.background_rate: must be finite"),
    (SCENE, "noise.background_rate=1e300", "noise.background_rate too large"),
    (SCENE, "noise.hot_pixel_rate=1e300", "noise.hot_pixel_rate too large"),
    (FLIGHT, "drone.gps_rate_hz=0", "gps_rate_hz must be positive"),
    (FLIGHT, "drone.gps_rate_hz=nan", "drone.gps_rate_hz: must be finite"),
    (FLIGHT, "drone.gps_sigma_m=-1", "gps_sigma_m must be nonnegative"),
    (FLIGHT, "drone.gps_rate_hz=1e-320", "gps_rate_hz must be positive"),
    # exited 0 with a wrong simulation
    (SCENE, "prop0.rpm=nan", "prop0.rpm: must be finite"),
    (SCENE, "prop0.phase=nan", "prop0.phase: must be finite"),
    (SCENE, "noise.background_rate=nan", "noise.background_rate: must be finite"),
    (SCENE, "noise.hot_pixel_rate=nan", "noise.hot_pixel_rate: must be finite"),
    (SCENE, "noise.jitter_px=nan", "noise.jitter_px: must be finite"),
    (SCENE, "noise.jitter_px=inf", "noise.jitter_px: must be finite"),
    (FLIGHT, "drone.hover_rpm=nan", "drone.hover_rpm: must be finite"),
    (FLIGHT, "drone.delta_rpm=nan", "drone.delta_rpm: must be finite"),
    (FLIGHT, "drone.tilt_fraction=nan", "drone.tilt_fraction: must be finite"),
    (FLIGHT, "drone.gps_sigma_m=inf", "drone.gps_sigma_m: must be finite"),
    (FLIGHT, "drone.gps_rate_hz=-5", "gps_rate_hz must be positive"),
    (FLIGHT, "drone.rpm_jitter=-1", "rpm_jitter must be nonnegative"),
    # exited 1 allocating the noise (_ArrayMemoryError, 45.5 PiB and up)
    (SCENE, "noise.background_rate=1e15", "noise.background_rate too large"),
    (SCENE, "noise.hot_pixel_rate=1e15", "noise.hot_pixel_rate too large"),
    # exited 1 allocating the ticks (_ArrayMemoryError, 72.8 TiB and up)
    (SCENE, "duration_us=10000000000000", "duration_us / tick_us too large"),
    (FLIGHT, "duration_us=10000000000000000", "duration_us / tick_us too large"),
    # hung in the painter's loop over blades
    (SCENE, f"prop0.blades={2**63}", f"propeller needs 1 to {sim.MAX_BLADES} blades"),
    (SCENE, f"prop0.blades={sim.MAX_BLADES + 1}", f"propeller needs 1 to {sim.MAX_BLADES} blades"),
    (FLIGHT, f"seed=3\nrender_events=1\ndrone.n_blades={2**63}", f"propeller needs 1 to {sim.MAX_BLADES} blades"),
    # overflowed the tip speed with a RuntimeWarning, then advised "use tick <= 0 us"
    (SCENE, "prop0.rpm=1e308", "speed 1e+308 RPM or blade_length 30 px too large"),
    (SCENE, "prop0.blade_length=1e308", "speed 3000 RPM or blade_length 1e+308 px too large"),
]
# the same, for a speed profile in place of `prop0.rpm`
OUT_OF_RANGE += [
    (SCENE.replace("prop0.rpm=3000", line), line, "speed 1e+308 RPM or blade_length 30 px too large")
    for line in ["prop0.rpm_step=0:3000,20000:1e308", "prop0.rpm_ramp=0:1e308,20000:3000"]
]

NOISE_OUT_OF_RANGE = [case for case in OUT_OF_RANGE if case[1].startswith("noise.")]


class TestScenarioNumbers:
    @pytest.mark.parametrize(
        ("old", "new", "key"),
        [
            ("prop0.rpm=3000", "prop0.rpm=abc", "prop0.rpm"),
            ("prop0.rpm=3000", "prop0.rpm_step=0-3000", "prop0.rpm_step"),
            ("seed=9", "seed=9\nscript=abc:hover", "script"),
            ("width=130", "width=x", "width"),
            ("noise.hot_pixels=4", "noise.hot_pixels=1.5", "noise.hot_pixels"),
            ("width=130", "width=-1", "width"),
            ("height=130", "height=0", "height"),
            ("tick_us=50", "tick_us=0", "tick_us"),
            ("tick_us=1000", "tick_us=-5000", "tick_us"),
        ],
        ids=["rpm", "rpm_step", "script_time", "width", "hot_pixels", "negative_width", "zero_height", "zero_tick",
             "negative_flight_tick"],
    )
    def test_malformed_number_exit_2(self, tmp_path, capsys, old, new, key):
        scene = tmp_path / "scene.cfg"
        scene.write_text((FLIGHT if old in FLIGHT else SCENE).replace(old, new))
        code = main(["simulate", str(scene), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"{scene}: {key}:" in err

    @pytest.mark.parametrize(
        ("seed_option", "old", "new"),
        [(["--seed", "-1"], "seed=9", "seed=9"), ([], "seed=9", "seed=-5")],
        ids=["option", "scenario_file"],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, seed_option, old, new):
        """Both exited 1 with numpy's ValueError: a scenario's seed never
        passed a check before it reached the generator."""
        scene = tmp_path / "scene.cfg"
        scene.write_text(SCENE.replace(old, new))
        code = main([*seed_option, "simulate", str(scene), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert len(err) == 1 and "seed" in err[0]
        assert not (tmp_path / "o").exists()

    @staticmethod
    def simulate_with(tmp_path, capsys, scene, line):
        """Exit code and stderr lines of `simulate` on `scene` with `line`
        in place of its key's line, any warning raised as an error."""
        key = line.split("=")[0]
        text, n = re.subn(rf"^{re.escape(key)}=.*$", line, scene, flags=re.M)
        assert n == 1
        path = tmp_path / "scene.cfg"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize(("scene", "line", "message"), OUT_OF_RANGE, ids=[line for _, line, _ in OUT_OF_RANGE])
    def test_out_of_range_value_exit_2(self, tmp_path, capsys, scene, line, message):
        """Each value replaces its key's line; all failed other than with
        exit 2. Each now exits without a warning, with one stderr line."""
        code, err = self.simulate_with(tmp_path, capsys, scene, line)
        assert code == EXIT_CONFIG
        assert len(err) == 1 and message in err[0]

    @pytest.mark.parametrize(
        ("scene", "line", "message"), NOISE_OUT_OF_RANGE, ids=[line for _, line, _ in NOISE_OUT_OF_RANGE]
    )
    def test_noise_bounds_are_checked_before_painting(self, tmp_path, capsys, monkeypatch, scene, line, message):
        """A noise rate over its bound exited 2 only after every blade was
        painted; it now exits before the first."""
        def paint(*args):
            raise AssertionError("a blade was painted before the noise bounds were checked")

        monkeypatch.setattr(sim._BladePainter, "paint", paint)
        code, err = self.simulate_with(tmp_path, capsys, scene, line)
        assert code == EXIT_CONFIG
        assert len(err) == 1 and message in err[0]

    def test_noise_bound_is_on_the_expected_count(self):
        """Background draws one count, hot pixels one per pixel: the bound
        holds the expected total of either."""
        rng = np.random.default_rng(0)
        bound = sim.MAX_NOISE_EVENTS
        assert sim._poisson(rng, bound, "background_rate") > 0
        assert sim._poisson(rng, bound / 4, "hot_pixel_rate", 4).size == 4
        with pytest.raises(ConfigError, match="noise.background_rate too large"):
            sim._poisson(rng, bound * (1 + 1e-9), "background_rate")
        with pytest.raises(ConfigError, match="noise.hot_pixel_rate too large"):
            sim._poisson(rng, bound / 4 * (1 + 1e-9), "hot_pixel_rate", 4)

    def test_tick_bound_is_on_the_tick_count(self):
        assert sim._n_ticks(sim.MAX_TICKS * 7 + 6, 7) == sim.MAX_TICKS
        with pytest.raises(ConfigError, match="duration_us / tick_us too large"):
            sim._n_ticks(sim.MAX_TICKS * 7 + 7, 7)

    @settings(max_examples=40, deadline=None)
    @given(
        tick_us=st.integers(1, 10**9),
        excess=st.integers(1, 10**12),
        flight=st.booleans(),
        render=st.booleans(),
    )
    def test_too_many_ticks_raise_before_allocating(self, tick_us, excess, flight, render):
        """Any tick count above MAX_TICKS is a ConfigError naming the keys,
        raised before a per-tick array exists; so is a rendered flight
        whose render ticks exceed it."""
        duration_us = (sim.MAX_TICKS + excess) * tick_us
        with pytest.raises(ConfigError, match="duration_us / "):
            if flight:
                sim.simulate_flight([(0, "hover")], DroneSpec(), NoiseSpec(), duration_us, seed=0,
                                    tick_us=tick_us, render_events=render)
            else:
                spec = sim.PropellerSpec((20.0, 20.0), 2, 12.0, 3.0, 0.0, sim.ConstantSpeed(0.0))
                sim.simulate_propellers([spec], NoiseSpec(), duration_us, tick_us, seed=0)

    def test_rendered_flight_bounds_its_render_ticks(self):
        """10**6 truth ticks of 1 s are fine; 2.5e10 render ticks are not."""
        with pytest.raises(ConfigError, match="duration_us / 40 us render tick too large"):
            sim.simulate_flight([(0, "hover")], DroneSpec(), NoiseSpec(), 10**12, seed=0,
                                tick_us=10**6, render_events=True)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_every_scenario_float_must_be_finite(self, tmp_path, value):
        """The scenario twin of PipelineConfig's check: every float key of
        propN, noise and drone rejects a non-finite value, naming the key."""
        prop_keys = ["blade_length", "blade_width", "phase", "rpm"]
        spec_keys = {
            block: [key for key, name in names.items() if isinstance(getattr(spec(), name), float)]
            for block, (spec, names) in _SPEC_KEYS.items()
        }
        assert len(spec_keys["noise"]) == 4 and len(spec_keys["drone"]) == 8
        no_rpm = SCENE.replace("prop0.rpm=3000\n", "")
        cases = [(SCENE, f"prop0.{key}", f"prop0.{key}={value}") for key in prop_keys]
        cases += [(SCENE, "prop0.center", f"prop0.center=60,{value}"), (SCENE, "prop0.center", f"prop0.center={value},60")]
        cases += [(no_rpm, "prop0.rpm_step", f"prop0.rpm_step=0:3000,{value}:4000"),
                  (no_rpm, "prop0.rpm_ramp", f"prop0.rpm_ramp=0:{value},9:1")]
        cases += [(FLIGHT, f"{block}.{key}", f"{block}.{key}={value}") for block in spec_keys for key in spec_keys[block]]
        path = tmp_path / "scene.cfg"
        for scene, key, line in cases:
            path.write_text(scene + line + "\n")
            with pytest.raises(ConfigError, match=f"{re.escape(key)}: must be finite, got"):
                parse_scenario(str(path))

    def test_ramp_pair_values_are_checked(self, tmp_path):
        scene = tmp_path / "scene.cfg"
        scene.write_text(SCENE.replace("prop0.rpm=3000", "prop0.rpm_ramp=0:3000,40000:fast"))
        with pytest.raises(ConfigError, match="prop0.rpm_ramp: bad value 'fast'"):
            parse_scenario(str(scene))


TRACKS = "prop_id,centroid_x,centroid_y,n_events\n"


def eval_speeds(tmp_path, speeds, truth, tracks, *extra):
    """Exit code and report entries of `eval --speeds --truth-rpm --tracks`."""
    paths = [tmp_path / name for name in ("speeds.csv", "truth_rpm.csv", "tracks.csv")]
    for path, text in zip(paths, (speeds, truth, tracks)):
        path.write_text(text)
    report = tmp_path / "report.jsonl"
    code = main([*extra, "eval", "--speeds", str(paths[0]), "--truth-rpm", str(paths[1]), "--tracks", str(paths[2]),
                 "--report", str(report)])
    return code, [json.loads(line) for line in report.read_text().splitlines()] if report.exists() else None


class TestEvalSpeeds:
    def test_truth_at_or_before_t_ref(self, tmp_path):
        speeds = "t_ref,prop_id,rpm,objective\n1000,0,3150.0,0.0\n1999,0,3150.0,0.0\n3000,1,2000.0,0.0\n"
        # t_ref 1999 is nearer the row at 2000 us, but that speed comes later
        truth = "# prop0_center=0.0,0.0\n# prop1_center=50.0,50.0\nt,prop_id,rpm\n0,0,3000.0\n2000,0,3300.0\n0,1,2000.0\n"
        tracks = TRACKS + "0,1.0,1.0,10\n1,49.0,49.0,10\n"
        assert eval_speeds(tmp_path, speeds, truth, tracks) == (0, [
            {"metric": "rmae_percent", "n_estimates": 2, "prop_id": 0, "truth_prop_id": 0, "value": 5.0},
            {"metric": "rmae_percent", "n_estimates": 1, "prop_id": 1, "truth_prop_id": 1, "value": 0.0},
        ])

    def test_tracks_pair_with_the_nearest_truth_center(self, tmp_path):
        speeds = "t_ref,prop_id,rpm,objective\n1000,0,4500.0,0.0\n1000,1,3000.0,0.0\n"
        truth = "# prop0_center=40.0,52.0\n# prop1_center=115.0,48.0\nt,prop_id,rpm\n0,0,3000.0\n0,1,4500.0\n"
        # tracks are numbered by centroid (y, x): the rotor at y=48 comes first
        tracks = TRACKS + "0,115.2,48.1,10\n1,40.1,51.9,10\n"
        code, entries = eval_speeds(tmp_path, speeds, truth, tracks)
        assert code == 0
        assert [(e["prop_id"], e["truth_prop_id"], e["value"]) for e in entries] == [(0, 1, 0.0), (1, 0, 0.0)]

    def test_prop_without_truth_rows_is_skipped(self, tmp_path):
        speeds = "t_ref,prop_id,rpm,objective\n1000,0,3000.0,0.0\n1000,1,3000.0,0.0\n1000,2,3000.0,0.0\n"
        truth = "# prop0_center=0.0,0.0\n# prop1_center=50.0,50.0\nt,prop_id,rpm\n0,0,3000.0\n"
        tracks = TRACKS + "0,0.0,0.0,1\n1,50.0,50.0,1\n"
        code, entries = eval_speeds(tmp_path, speeds, truth, tracks)
        assert code == 0
        assert [e["prop_id"] for e in entries] == [0]

    def test_truth_rpm_needs_tracks(self, tmp_path, capsys):
        speeds = tmp_path / "speeds.csv"
        speeds.write_text("t_ref,prop_id,rpm,objective\n1000,0,3000.0,0.0\n")
        report = tmp_path / "report.jsonl"
        code = main(["eval", "--speeds", str(speeds), "--truth-rpm", str(tmp_path / "t.csv"), "--report", str(report)])
        assert code == EXIT_CONFIG
        assert "--tracks" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("truth, tracks", [
        ("t,prop_id,rpm\n0,0,3000.0\n", TRACKS + "0,0.0,0.0,1\n"),
        ("# prop0_center=0.0,0.0\nt,prop_id,rpm\n0,0,3000.0\n", TRACKS + "1,0.0,0.0,1\n"),
    ], ids=["no_centers", "track_ids_not_0_1_2"])
    def test_unpairable_inputs_exit_3(self, tmp_path, truth, tracks):
        code, entries = eval_speeds(tmp_path, "t_ref,prop_id,rpm,objective\n1000,0,3000.0,0.0\n", truth, tracks)
        assert (code, entries) == (EXIT_DATA, None)

    def test_eval_scores_as_the_pipeline_does(self, tmp_path):
        """Two rotors whose track ids and truth ids differ: `estimate` then
        `eval` reports the pipeline's metrics."""
        scene = tmp_path / "scene.cfg"
        scene.write_text(
            "mode=propellers\nwidth=160\nheight=100\nduration_us=60000\ntick_us=50\nseed=2\n"
            + "".join(f"prop{i}.center={c}\nprop{i}.blade_length=30\nprop{i}.blade_width=5\nprop{i}.rpm={rpm}\n"
                      for i, (c, rpm) in enumerate([("40,52", 3000), ("115,48", 4500)]))
        )
        knobs = "seed=2\nk_props=2\nwindow_us=25000\nbracket_rpm_lo=1000\nbracket_rpm_hi=6000\n"
        (tmp_path / "est.cfg").write_text(knobs)
        (tmp_path / "pipe.cfg").write_text(knobs + f"scenario={scene}\n")
        sim, est, pipe = (str(tmp_path / name) for name in ("sim", "est", "pipe"))
        assert main(["simulate", str(scene), "--out", sim]) == 0
        assert main(["--config", str(tmp_path / "est.cfg"), "estimate", os.path.join(sim, "events.bin"), "--out", est]) == 0
        report = str(tmp_path / "report.jsonl")
        assert main(["eval", "--speeds", os.path.join(est, "speeds.csv"), "--truth-rpm", os.path.join(sim, "truth_rpm.csv"),
                     "--tracks", os.path.join(est, "tracks.csv"), "--report", report]) == 0
        assert main(["--config", str(tmp_path / "pipe.cfg"), "pipeline", "--out", pipe]) == 0
        scored = [json.loads(line) for line in open(report)]
        pipeline_scored = [json.loads(line) for line in open(os.path.join(pipe, "metrics.jsonl"))][:2]
        assert [e["truth_prop_id"] for e in scored] == [1, 0]
        assert scored == pipeline_scored
        assert all(e["value"] < 1.0 for e in scored)


class TestStrayEvent:
    """A rotor plus one event 60000 px away on a 65535 x 200 sensor: the
    stray bundle's patch is too large to score, so it goes unreported.
    Before, `pipeline` failed with a ValueError from np.bincount (exit 1)."""

    @pytest.mark.parametrize("stray_t, plots", [(10_004, 0), (5_500, 1)])
    def test_pipeline_exits_0(self, tmp_path, stray_t, plots):
        from propellers import make_spec
        from rotorsense.events import Events, SensorGeometry, concat_events, write_events
        from rotorsense.sim import NO_NOISE, simulate_propellers

        events, _ = simulate_propellers([make_spec(center=(70.0, 70.0))], NO_NOISE, duration_us=20_000, tick_us=50,
                                        seed=1, geometry=SensorGeometry(200, 200))
        stray = Events(np.array([stray_t], np.uint64), np.array([60000]), np.array([70]), np.array([1], np.int8))
        path = str(tmp_path / "events.bin")
        write_events(concat_events([events, stray]), SensorGeometry(65535, 200), path, "bin")
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(f"input={path}\nfilter_enabled=0\nk_props=1\nwindow_us=25000\nplots={plots}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "pipeline", "--out", str(out)]) == 0
        speeds = pl.read_speed_csv(str(out / "speeds.csv"))
        assert len(speeds) >= 2 and np.all(np.abs(speeds[:, 2] - 3000.0) < 60.0)


class TestConfigOptions:
    @pytest.mark.parametrize("command, option", [
        ("preprocess", "--window-us"), ("preprocess", "--k"), ("preprocess", "--bin"),
        ("estimate", "--grid"), ("estimate", "--dt-us"), ("estimate", "--beta"),
    ])
    def test_zero_override_exit_2(self, tmp_path, capsys, command, option):
        """A zero is a given value, not a missing one: it reaches validation."""
        events = tmp_path / "events.csv"
        events.write_text("t,x,y,p\n0,1,1,1\n")
        out = tmp_path / "out"
        assert main([command, str(events), "--format", "csv", option, "0", "--out", str(out)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_options_set_their_fields(self, tmp_path, monkeypatch):
        seen = {}

        def preprocess_stream(events, cfg):
            seen["cfg"] = cfg
            return pl.TrackedStream(events, np.zeros(len(events), np.int64), [], [])

        monkeypatch.setattr(pl, "preprocess_stream", preprocess_stream)
        events = tmp_path / "events.csv"
        events.write_text("t,x,y,p\n0,1,1,1\n")
        assert main([
            "estimate", str(events), "--format", "csv", "--out", str(tmp_path / "o"), "--bracket-rpm", "100,200",
            "--grid", "5", "--tol", "0.25", "--epsilon", "2", "--dt-us", "300", "--delta", "0.5", "--beta", "3",
            "--sample-fraction", "0.5", "--st-ratio", "40",
        ]) == 0
        cfg = seen["cfg"]
        assert (cfg.bracket_rpm_lo, cfg.bracket_rpm_hi, cfg.n_grid, cfg.tol_rpm, cfg.epsilon) == (100, 200, 5, 0.25, 2)
        assert (cfg.dt_us, cfg.delta, cfg.beta, cfg.sample_fraction, cfg.time_radius_us) == (300, 0.5, 3, 0.5, 80.0)

    @pytest.mark.parametrize("command", ["eval", "infer-command"])
    def test_config_error_leaves_no_output(self, tmp_path, command):
        bad = tmp_path / "bad.cfg"
        bad.write_text("delta=-1\n")
        speeds = tmp_path / "speeds.csv"
        speeds.write_text(hover_rows(4))
        fused = tmp_path / "fused.csv"
        fused.write_text("t,x,y,z,vx,vy,vz,cov_trace\n0,0.0,0.0,0.0,0.0,0.0,0.0,1.0\n")
        truth = tmp_path / "truth_state.csv"
        truth.write_text("t,x,y,z,vx,vy,vz\n0,0.0,0.0,0.0,0.0,0.0,0.0\n")
        model = tmp_path / "model.txt"
        assert main(["--seed", "1", "train-command", "--model", str(model), "--samples-per-class", "6"]) == 0
        out = tmp_path / "out.txt"
        argv = {
            "eval": ["eval", "--fused", str(fused), "--truth-state", str(truth), "--report", str(out)],
            "infer-command": ["infer-command", str(speeds), "--model", str(model), "--out-csv", str(out)],
        }[command]
        assert main(argv) == 0  # without the bad config the command writes its output
        out.unlink()
        assert main(["--config", str(bad)] + argv) == EXIT_CONFIG
        assert not out.exists()


class TestPairOptions:
    def test_bracket_rpm_not_a_pair_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(tmp_path / "events.bin"), "--bracket-rpm", "abc", "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_CONFIG
        assert "--bracket-rpm: expected lo,hi, got 'abc'" in capsys.readouterr().err

    def test_polarity_band_not_a_pair_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["preprocess", str(tmp_path / "events.bin"), "--polarity-band", "abc", "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_CONFIG
        assert "--polarity-band: expected lo,hi, got 'abc'" in capsys.readouterr().err

    def test_valid_pairs_run(self, scene_file, tmp_path):
        out = str(tmp_path / "sim")
        assert main(["simulate", scene_file, "--out", out]) == 0
        events = os.path.join(out, "events.bin")
        pre = str(tmp_path / "pre")
        assert main(["preprocess", events, "--k", "1", "--polarity-band", "0.2,0.8", "--out", pre]) == 0
        est = str(tmp_path / "est")
        assert main(["estimate", events, "--bracket-rpm", "1000,6000", "--out", est]) == 0
        assert pl.read_speed_csv(os.path.join(est, "speeds.csv")).shape[0] > 0


class TestNonUtf8Inputs:
    """A text input holding a byte that is not UTF-8 exits 2 (config) or
    3 (data) naming the file, instead of a UnicodeDecodeError traceback."""

    SPEEDS = "t_ref,prop_id,rpm,objective\n0,0,3000.0,0.0\n"

    # reader: (bytes of the bad file, text of the good one, argv, exit code)
    CASES = {
        "parse_kv_file": (
            b"seed=1\nk_props=\xff\n", None, ["--config", "{bad}", "pipeline", "--out", "{out}"], EXIT_CONFIG,
        ),
        "parse_kv_file_scenario": (
            SCENE.replace("width=130", "width=\xff").encode("latin-1"), None,
            ["simulate", "{bad}", "--out", "{out}"], EXIT_CONFIG,
        ),
        "read_table": (
            b"t,x,y,z,vx,vy,vz,cov_trace\n0,0.0,0.0,0.0,0.0,0.0,0.0,\xff\n",
            "t,x,y,z,vx,vy,vz\n0,0.0,0.0,0.0,0.0,0.0,0.0\n",
            ["eval", "--fused", "{bad}", "--truth-state", "{ok}", "--report", "{out}"], EXIT_DATA,
        ),
        "read_truth_rpm_csv": (
            b"# prop0_center=\xff,1.0\nt,prop_id,rpm\n0,0,3000.0\n", SPEEDS,
            ["eval", "--speeds", "{ok}", "--truth-rpm", "{bad}", "--tracks", "{out}", "--report", "{out}"], EXIT_DATA,
        ),
        "read_command_csv": (
            b"t,command\n0,hover\xff\n", "t,x,y,z\n0,0.0,0.0,0.0\n",
            ["fuse", "--commands", "{bad}", "--gps", "{ok}", "--out-csv", "{out}"], EXIT_DATA,
        ),
        "load_model": (
            b"rotorsense-command-model v2\n\xff\n", SPEEDS,
            ["infer-command", "{ok}", "--model", "{bad}", "--out-csv", "{out}"], EXIT_DATA,
        ),
        "events_read_csv": (
            b"# width=10 height=10\nt,x,y,p\n0,1,1,1\n1,2,2,\xff\n", None,
            ["preprocess", "{bad}", "--format", "csv", "--out", "{out}"], EXIT_DATA,
        ),
    }

    @pytest.mark.parametrize("reader", list(CASES))
    def test_exit_code_names_the_path(self, tmp_path, capsys, reader):
        bad_bytes, ok_text, argv, expected = self.CASES[reader]
        paths = {"bad": tmp_path / "bad.txt", "ok": tmp_path / "ok.csv", "out": tmp_path / "out"}
        paths["bad"].write_bytes(bad_bytes)
        if ok_text is not None:
            paths["ok"].write_text(ok_text)
        code = main([arg.format(**paths) for arg in argv])
        assert code == expected
        assert f"{paths['bad']}: not UTF-8 text" in capsys.readouterr().err


def fuse_with(tmp_path, config, speeds, gps):
    """`fuse` exit code under `config`, over one hover command at t = 500 us."""
    paths = {name: tmp_path / name for name in ("c.cfg", "speeds.csv", "commands.csv", "gps.csv")}
    paths["c.cfg"].write_text(config + "\n")
    paths["speeds.csv"].write_text("t_ref,prop_id,rpm,objective\n" + speeds)
    paths["commands.csv"].write_text("t,command\n500,hover\n")
    paths["gps.csv"].write_text("t,x,y,z\n" + gps)
    return main(["--config", str(paths["c.cfg"]), "fuse", "--speeds", str(paths["speeds.csv"]),
                 "--commands", str(paths["commands.csv"]), "--gps", str(paths["gps.csv"]),
                 "--out-csv", str(tmp_path / "fused.csv")])


class TestFusionNumbers:
    HOVER = "".join(f"{t},{p},3000.0,0.0\n" for t in range(0, 600_000, 1000) for p in range(4))
    GPS = "0,0.0,0.0,0.0\n200000,0.5,0.0,0.0\n400000,0.0,1.0,0.0\n"

    @pytest.mark.parametrize(
        "setting",
        [
            "process_noise_scale=inf",  # LinAlgError, exit 1
            "process_noise_scale=nan",  # LinAlgError, exit 1
            "process_noise_scale=-0.5",  # exit 2, but at the first step and not naming the key
            "gps_sigma_m=1e200",  # OverflowError squaring it, exit 1
            "gps_sigma_m=inf",  # non-finite filter state, exit 3
            "gps_sigma_m=nan",  # non-finite filter state, exit 3
            "hover_rpm=nan",  # exit 0
            "tilt_fraction=nan",  # exit 0
        ],
    )
    def test_rejected_by_the_config_naming_the_key(self, tmp_path, capsys, setting):
        assert fuse_with(tmp_path, setting, self.HOVER, self.GPS) == EXIT_CONFIG
        assert setting.split("=")[0] in capsys.readouterr().err

    def test_an_overflowing_covariance_exits_4(self, tmp_path, capsys):
        """numpy warned twice (process noise, predicted covariance) before
        the error line."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = fuse_with(tmp_path, "process_noise_scale=1e300", "1000,0,3000.0,0.0\n2000000000,0,3000.0,0.0\n",
                             "0,0.0,0.0,0.0\n3000000000,0.0,0.0,0.0\n")
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical error: non-finite covariance in predict"]

    def test_an_overflowing_hover_speed_exits_2_without_a_warning(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = fuse_with(tmp_path, "hover_rpm=1e200", "1000,0,3000.0,0.0\n", "0,0.0,0.0,0.0\n")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == ["config error: predictor gains must be positive"]


class TestTrainCommandNumbers:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(("option", "field"), [("--delta-rpm", "delta_rpm"), ("--jitter-rpm", "rpm_jitter")])
    def test_non_finite_rpm_exit_2(self, tmp_path, capsys, option, field, value):
        """nan exited 0 and wrote a model of all-NaN feature means."""
        model = tmp_path / "model.txt"
        code = main(["train-command", "--model", str(model), "--samples-per-class", "6", option, value])
        assert code == EXIT_CONFIG
        assert f"drone {field} must be finite" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("value", ["0", "-300"])
    def test_delta_rpm_must_be_positive(self, tmp_path, capsys, value):
        """0 exited 0 with a model whose six classes shared one pattern."""
        model = tmp_path / "model.txt"
        code = main(["train-command", "--model", str(model), "--samples-per-class", "6", "--delta-rpm", value])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"config error: --delta-rpm must be positive, got {float(value)}"]
        assert not model.exists()

    @pytest.mark.parametrize(
        "value", [0, -1, PipelineConfig().svm_folds - 1, MAX_SAMPLES_PER_CLASS + 1, 2**63]
    )
    def test_samples_per_class_out_of_range_exit_2(self, tmp_path, capsys, monkeypatch, value):
        """Below svm_folds a fold lacks a class: 0, -1 and 4 exited 3 as data
        errors. Nothing bounded it from above."""

        def generate(*args):
            raise AssertionError("generated a dataset")

        monkeypatch.setattr(cli, "generate_command_dataset", generate)
        model = tmp_path / "model.txt"
        code = main(["train-command", "--model", str(model), "--samples-per-class", str(value)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"config error: --samples-per-class must lie in [svm_folds = 5, {MAX_SAMPLES_PER_CLASS}], got {value}"
        ]
        assert not model.exists()

    @pytest.mark.parametrize(
        ("setting", "message"),
        [
            ("window_ms=1e12", "window_ms * resample_hz / 1000 too large: 1e+12-sample windows"),
            ("window_ms=1e308", "window_ms * resample_hz / 1000 too large: inf-sample windows"),
            ("window_ms=100.1", "window_ms * resample_hz / 1000 too large: 100-sample windows"),
            ("window_ms=0.1", "window_ms * resample_hz / 1000 must be at least 1 sample, got 0.1"),
            ("resample_hz=1e-3", "window_ms * resample_hz / 1000 must be at least 1 sample, got 0.0001"),
            ("resample_hz=1e7", "resample_hz must lie in (0, 1e+06], got 10000000.0"),
            ("resample_hz=0", "resample_hz must lie in (0, 1e+06], got 0.0"),
        ],
    )
    def test_window_bounds_exit_2_before_drawing(self, tmp_path, capsys, monkeypatch, setting, message):
        """1e12 ms asked numpy for 29.1 TiB (exit 1); a 0-sample window
        warned "Mean of empty slice" and exited 4; 1e7 Hz wrote a model
        that load_model rejects."""

        def generate(*args):
            raise AssertionError("generated a dataset")

        monkeypatch.setattr(cli, "generate_command_dataset", generate)
        config, model = tmp_path / "train.cfg", tmp_path / "model.txt"
        config.write_text(setting + "\n")
        argv = ["--config", str(config), "train-command", "--model", str(model),
                "--samples-per-class", str(MAX_SAMPLES_PER_CLASS)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {message}")
        assert not model.exists()

    def test_window_bound_admits_the_default_window_at_the_sample_bound(self, tmp_path, monkeypatch):
        drawn = []

        def generate(n, drone, window, seed):
            drawn.append((n, window))
            raise DataError("stop after the checks")

        monkeypatch.setattr(cli, "generate_command_dataset", generate)
        argv = ["train-command", "--model", str(tmp_path / "m.txt"), "--samples-per-class", str(MAX_SAMPLES_PER_CLASS)]
        assert main(argv) == EXIT_DATA
        assert drawn == [(MAX_SAMPLES_PER_CLASS, 100)]
        assert MAX_SAMPLES_PER_CLASS * 100 == sim.MAX_CLASS_SPEEDS

    def test_samples_per_class_at_svm_folds_trains(self, tmp_path):
        model = tmp_path / "model.txt"
        assert main(["--seed", "1", "train-command", "--model", str(model), "--samples-per-class", "5"]) == EXIT_OK
        assert model.exists()

    def test_overflowing_features_exit_4(self, tmp_path, capsys):
        """The squared speeds overflow: this exited 0 and wrote a model of
        inf/nan feature means and all-zero weights."""
        model = tmp_path / "model.txt"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train-command", "--model", str(model), "--samples-per-class", "6", "--jitter-rpm", "1e200"])
        assert code == EXIT_NUMERIC
        assert "training features are not finite" in capsys.readouterr().err
        assert not model.exists() and not os.path.exists(str(model) + ".manifest.json")
