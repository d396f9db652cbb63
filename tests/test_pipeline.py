import logging
import os
import sys
import types

import numpy as np
import pytest

from rotorsense.batching import StopReason, grow_batch
from rotorsense import motion
from rotorsense import tables
from rotorsense.config import PipelineConfig
from rotorsense.dynamics import rpm_to_rad_s
from rotorsense.errors import DataError
from rotorsense.events import EventBundle, Events, SensorGeometry, read_events, slice_bundles, write_events
from rotorsense.motion import SpeedEstimate
from rotorsense.pipeline import (
    TrackedStream,
    _emit_plots,
    estimate_track,
    preprocess_stream,
    read_speed_csv,
    read_table,
    read_truth_rpm_csv,
    run_pipeline,
    write_preprocess_artifacts,
    write_speed_csv,
    write_truth_rpm_csv,
)
from rotorsense.sim import (
    ConstantSpeed,
    DroneSpec,
    NO_NOISE,
    NoiseSpec,
    PropellerSpec,
    StepSpeed,
    simulate_flight,
    simulate_propellers,
)
from propellers import make_spec


class TestArtifactRoundTrips:
    def test_speed_csv(self, tmp_path):
        estimates = [
            SpeedEstimate(prop_id=0, t_ref_us=1000, omega_rad_s=314.159, objective_value=1.5e12, n_events_used=400),
            SpeedEstimate(prop_id=1, t_ref_us=2000, omega_rad_s=523.6, objective_value=2.5e9, n_events_used=300),
        ]
        path = str(tmp_path / "speeds.csv")
        write_speed_csv(path, estimates)
        rows = read_speed_csv(path)
        assert rows.shape == (2, 4)
        assert rows[0, 2] == pytest.approx(estimates[0].rpm)
        assert rows[1, 1] == 1

    def test_truth_rpm_csv_carries_centers(self, tmp_path):
        _, truth = simulate_propellers([make_spec()], NO_NOISE, duration_us=2_000, tick_us=50, seed=0)
        path = str(tmp_path / "truth.csv")
        write_truth_rpm_csv(path, truth, [(60.0, 60.0)])
        rows, centers = read_truth_rpm_csv(path)
        assert centers == [(60.0, 60.0)]
        assert rows.shape[0] == truth.times_us.size
        assert np.allclose(rows[:, 2], 3000.0)


class TestPreprocessStream:
    def test_two_props_keep_identity_across_windows(self):
        specs = [
            make_spec(center=(60.0, 60.0), phase=0.1),
            make_spec(center=(200.0, 160.0), phase=1.3),
        ]
        events, _ = simulate_propellers(
            specs, NO_NOISE, duration_us=60_000, tick_us=50, seed=2, geometry=SensorGeometry(280, 220)
        )
        cfg = PipelineConfig(window_us=20_000, k_props=2, filter_enabled=False)
        tracked = preprocess_stream(events, cfg)
        assert len(tracked.warp_centers) == 2
        for prop, true_center in enumerate(sorted([(60.0, 60.0), (200.0, 160.0)], key=lambda c: (c[1], c[0]))):
            wc = tracked.warp_centers[prop]
            assert np.hypot(wc[0] - true_center[0], wc[1] - true_center[1]) < 2.0
            track = tracked.track_events(prop)
            # all of this track's events stay near its rotor across every window
            r = np.hypot(track.x.astype(float) - true_center[0], track.y.astype(float) - true_center[1])
            assert float(r.max()) < 45.0

    def test_empty_stream(self):
        tracked = preprocess_stream(Events.empty(), PipelineConfig())
        assert len(tracked.events) == 0
        assert tracked.centroids == []


class TestEstimateTrack:
    def test_tracks_through_speed_step(self):
        """The loop re-acquires after a consistency stop and follows a
        3000 -> 4500 RPM step even though each batch's bracket is
        confined around the previous estimate."""
        spec = PropellerSpec(
            center=(50.0, 50.0), n_blades=2, blade_length=30.0, blade_width=5.0,
            initial_phase=0.2, speed_profile=StepSpeed([(0, 3000.0), (40_000, 4500.0)]),
        )
        events, _ = simulate_propellers([spec], NO_NOISE, duration_us=80_000, tick_us=30, seed=3)
        cfg = PipelineConfig(bracket_rpm_lo=1000, bracket_rpm_hi=6000, dt_us=2000)
        track = estimate_track(events, (50.0, 50.0), cfg)
        assert len(track.estimates) >= 4
        before = [e.rpm for e in track.estimates if e.t_ref_us + 16_000 <= 40_000]
        after = [e.rpm for e in track.estimates if e.t_ref_us >= 40_000]
        assert before and after
        assert np.allclose(before, 3000.0, rtol=0.01)
        assert np.allclose(after, 4500.0, rtol=0.01)
        assert StopReason.CONSISTENCY in track.stop_reasons

    def test_gap_in_stream_is_survived(self):
        a, _ = simulate_propellers([make_spec(phase=0.8)], NO_NOISE, duration_us=20_000, tick_us=50, seed=1)
        b, _ = simulate_propellers([make_spec(phase=0.8)], NO_NOISE, duration_us=20_000, tick_us=50, seed=1)
        shifted = Events(b.t + np.uint64(60_000), b.x, b.y, b.p)
        joined = Events(
            np.concatenate([a.t, shifted.t]),
            np.concatenate([a.x, shifted.x]),
            np.concatenate([a.y, shifted.y]),
            np.concatenate([a.p, shifted.p]),
        )
        cfg = PipelineConfig(bracket_rpm_lo=1000, bracket_rpm_hi=6000, dt_us=2000)
        track = estimate_track(joined, (60.0, 60.0), cfg)
        rpms = np.array([e.rpm for e in track.estimates])
        assert rpms.size >= 3
        assert np.allclose(rpms, 3000.0, rtol=0.01)

    def test_empty_candidate_bundle_stops_growth(self):
        events, _ = simulate_propellers([make_spec()], NO_NOISE, duration_us=10_000, tick_us=50, seed=1)
        bundles = slice_bundles(events, 2000)
        gap = EventBundle(events=Events.empty(), t_start=bundles[2].t_start, t_end=bundles[2].t_end)
        with_gap = bundles[:2] + [gap] + bundles[3:]
        cfg = PipelineConfig(dt_us=2000, beta=8)
        grown = grow_batch(with_gap, cfg, rpm_to_rad_s(3000), (60.0, 60.0))
        assert grown.reason is StopReason.CONSISTENCY
        assert grown.next_index == 2


@pytest.fixture(scope="module")
def climb_descent_flight():
    """Rendered flight alternating climb and descent every 60 ms: each
    switch moves every rotor by 18-26 % between locked batches."""
    drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0)
    script = [(0, "climb"), (60_000, "descent"), (120_000, "climb"), (180_000, "descent")]
    return drone, simulate_flight(script, drone, NO_NOISE, 240_000, seed=3, render_events=True)


class TestLockedWindowOnFlight:
    @pytest.mark.parametrize("rotor", range(4))
    def test_window_matches_the_full_grid_across_command_steps(self, climb_descent_flight, monkeypatch, rotor):
        drone, flight = climb_descent_flight
        events = flight.events.select(np.flatnonzero(flight.truth.event_origin == rotor))
        cfg = PipelineConfig(bracket_rpm_lo=500, bracket_rpm_hi=12000, sample_fraction=0.25)
        windowed = estimate_track(events, drone.rotor_centers[rotor], cfg, prop_id=rotor)
        # a window wider than the bracket scores the full grid every time
        monkeypatch.setattr(motion, "PRIOR_WINDOW_HALF_WIDTH", 1.0)
        full = estimate_track(events, drone.rotor_centers[rotor], cfg, prop_id=rotor)
        rpm = np.array([e.rpm for e in full.estimates])
        assert np.max(np.abs(np.diff(rpm)) / rpm[:-1]) > 0.12
        assert windowed.estimates == full.estimates
        assert windowed.stop_reasons == full.stop_reasons


def reference_assignments_csv(path, assignments):
    """The per-row writer assignments.csv had before rows were written in blocks."""
    with open(path, "w", newline="\n") as fh:
        fh.write("event_index,prop_id\n")
        for idx, prop in enumerate(assignments):
            fh.write(f"{idx},{int(prop)}\n")


class TestAssignmentsCsv:
    @pytest.mark.parametrize("n", [0, 1, 16383, 16384, 16385, 40000])
    def test_bytes_equal_the_per_row_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        events = Events(
            np.arange(n, dtype=np.uint64), rng.integers(0, 64, n), rng.integers(0, 64, n), np.ones(n, np.int8)
        )
        assignments = rng.integers(-1, 4, n).astype(np.int64)
        tracked = TrackedStream(events, assignments, [(1.0, 2.0)] * 4, [(1.0, 2.0)] * 4)
        write_preprocess_artifacts(str(tmp_path), tracked, SensorGeometry(64, 64), "bin")
        reference_assignments_csv(tmp_path / "expected.csv", assignments)
        assert (tmp_path / "assignments.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


class TestEmitPlots:
    @staticmethod
    def emit(out_dir):
        tracked = TrackedStream(Events.empty(), np.zeros(0, dtype=np.int64), [], [])
        return _emit_plots(str(out_dir), tracked, PipelineConfig(), [])

    def test_without_matplotlib_the_csv_series_remain(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "matplotlib", None)  # import raises ImportError
        assert self.emit(tmp_path) == [os.path.join(str(tmp_path), "plots", "rpm_traces.csv")]

    def test_a_plotting_failure_is_not_swallowed(self, tmp_path, monkeypatch):
        fake = types.ModuleType("matplotlib")

        def use(backend):
            raise RuntimeError(f"backend {backend} broke")

        fake.use = use
        monkeypatch.setitem(sys.modules, "matplotlib", fake)
        with pytest.raises(RuntimeError, match="backend Agg broke"):
            self.emit(tmp_path)


class TestRunPipelineFromFile:
    def test_stage_named_in_error(self, tmp_path):
        cfg = PipelineConfig(input=str(tmp_path / "missing.bin"))
        with pytest.raises(DataError, match="stage simulate"):
            run_pipeline(cfg, str(tmp_path / "run"))

    def test_ingest_path(self, tmp_path):
        events, truth = simulate_propellers(
            [make_spec()], NoiseSpec(background_rate=2.0), duration_us=40_000, tick_us=50, seed=4,
            geometry=SensorGeometry(130, 130),
        )
        path = str(tmp_path / "in.bin")
        write_events(events, SensorGeometry(130, 130), path, "bin")
        cfg = PipelineConfig(
            seed=4, input=path, window_us=20_000, k_props=1,
            bracket_rpm_lo=1000, bracket_rpm_hi=6000,
        )
        result = run_pipeline(cfg, str(tmp_path / "run"))
        assert any(m["metric"] == "n_events" and m["value"] == len(events) for m in result.metrics)
        assert result.estimates  # speeds produced without a truth sidecar
        assert not any(m["metric"] == "rmae_percent" for m in result.metrics)




class TestShortTracks:
    """A run that keeps no event, or finds fewer tracks than k_props, exits 0
    with its artifacts and says so in one warning line."""

    WARNING = "preprocessing kept {kept} of {n} events and found 0 of k_props={k} tracks"

    def run(self, tmp_path, caplog, config):
        from rotorsense.cli import main

        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(config)
        with caplog.at_level(logging.WARNING, logger="rotorsense.pipeline"):
            code = main(["--config", str(cfg), "pipeline", "--out", str(tmp_path / "out")])
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        return code, warnings, read_speed_csv(str(tmp_path / "out" / "speeds.csv"))

    def test_a_filter_that_keeps_nothing(self, tmp_path, caplog):
        scene = tmp_path / "scene.cfg"
        scene.write_text("mode=propellers\nwidth=100\nheight=100\nduration_us=20000\ntick_us=50\nseed=2\n"
                         "prop0.center=50,50\nprop0.blade_length=30\nprop0.blade_width=5\nprop0.rpm=3000\n")
        code, warnings, speeds = self.run(tmp_path, caplog, f"scenario={scene}\ncount_ratio=1e9\nk_props=1\n")
        n = len(read_events(str(tmp_path / "out" / "events.bin"), "bin")[0])
        assert code == 0 and len(speeds) == 0 and n > 1000
        assert len(warnings) == 1 and warnings[0].startswith(self.WARNING.format(kept=0, n=n, k=1))

    def test_fewer_distinct_pixels_than_tracks(self, tmp_path, caplog):
        events = Events(np.arange(5, dtype=np.uint64) * 1000, np.full(5, 3), np.full(5, 4), np.ones(5, np.int8))
        write_events(events, SensorGeometry(10, 10), str(tmp_path / "in.bin"), "bin")
        code, warnings, speeds = self.run(tmp_path, caplog, f"input={tmp_path / 'in.bin'}\nfilter_enabled=0\nk_props=2\n")
        assert code == 0 and len(speeds) == 0
        assert len(warnings) == 1 and warnings[0].startswith(self.WARNING.format(kept=5, n=5, k=2))

    def test_a_run_with_its_tracks_is_silent(self, tmp_path, caplog):
        events, _ = simulate_propellers([make_spec()], NO_NOISE, duration_us=20_000, tick_us=50, seed=1)
        write_events(events, SensorGeometry(120, 120), str(tmp_path / "in.bin"), "bin")
        code, warnings, speeds = self.run(tmp_path, caplog, f"input={tmp_path / 'in.bin'}\nk_props=1\n")
        assert code == 0 and len(speeds) > 0 and warnings == []



def reference_read_table(path, header, *, extra_columns=False):
    """The per-line reader that `read_table` replaced, kept as its oracle."""
    names = header.split(",")
    width = len(names)
    rows = []
    with open(path, "r") as fh:
        found = fh.readline().strip()
        fields = found.split(",")
        if fields[:width] != names or (len(fields) != width and not extra_columns):
            raise DataError(f"{path}:1: unexpected header {found!r}, expected {header!r}")
        n_fields = len(fields)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != n_fields:
                raise DataError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
            try:
                rows.append([float(v) for v in parts[:width]])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric field in {line.strip()!r}") from exc
    return np.array(rows) if rows else np.zeros((0, width))


def _outcome(reader, path, header, extra_columns):
    try:
        return reader(path, header, extra_columns=extra_columns), None
    except DataError as exc:
        return None, str(exc)


MANY = "".join(f"{t},{t % 4},{3000.0 + t / 7!r},0.0\n" for t in range(5000))


class TestReadTable:
    def test_extra_columns_checked_but_not_parsed(self, tmp_path):
        path = tmp_path / "truth_state.csv"
        path.write_text(tables.STATE + ",command\n0,1,2,3,4,5,6,hover\n\n5000,1,2,3,4,5,6,climb\n")
        rows = read_table(str(path), tables.STATE, extra_columns=True)
        assert rows.shape == (2, 7)
        assert rows[1, 0] == 5000.0
        with pytest.raises(DataError, match=":1: unexpected header"):
            read_table(str(path), tables.STATE)

    def test_field_count_is_checked_per_line(self, tmp_path):
        path = tmp_path / "truth_state.csv"
        path.write_text(tables.STATE + ",command\n0,1,2,3,4,5,6,hover\n5000,1,2,3,4,5,6\n")
        with pytest.raises(DataError, match=r":3: expected 8 fields, got 7"):
            read_table(str(path), tables.STATE, extra_columns=True)

    def test_header_prefix_is_matched_by_field(self, tmp_path):
        path = tmp_path / "truth_state.csv"
        path.write_text("t,x,y,z,vx,vy,vzz\n0,1,2,3,4,5,6\n")
        with pytest.raises(DataError, match=":1: unexpected header"):
            read_table(str(path), tables.STATE, extra_columns=True)

    def test_empty_table_keeps_its_width(self, tmp_path):
        path = tmp_path / "speeds.csv"
        path.write_text("t_ref,prop_id,rpm,objective\n")
        assert read_speed_csv(str(path)).shape == (0, 4)

    @pytest.mark.parametrize(
        ("file_header", "body", "header", "extra_columns"),
        [
            (tables.SPEEDS, "1000,0,3000.5,0.0\n", tables.SPEEDS, False),
            (tables.SPEEDS, "", tables.SPEEDS, False),
            (tables.SPEEDS, "\n\n   \n", tables.SPEEDS, False),
            (tables.SPEEDS, "  1,0,2.5,0.0  \n\n\t\n2, 1 ,3.5 ,1e-300\n   \n", tables.SPEEDS, False),
            (tables.SPEEDS, "1,0,2.5,0.0\r\n2,1,3.5,0.0\r\n", tables.SPEEDS, False),
            (tables.SPEEDS, "1,0,2.5,0.0", tables.SPEEDS, False),
            (tables.SPEEDS, "1,0,nan,-inf\n2,1,inf,NaN\n3,2,-0.0,1_000\n", tables.SPEEDS, False),
            (tables.SPEEDS, "\x1c1,0,2.5,0.0\x1f\n", tables.SPEEDS, False),
            (tables.SPEEDS, "1,\x1c0,2.5,0.0\n", tables.SPEEDS, False),
            (tables.SPEEDS, "#1,0,2.5,0.0\n", tables.SPEEDS, False),
            (tables.SPEEDS, "1,0,2.5,0.0\n# comment\n", tables.SPEEDS, False),
            (tables.SPEEDS, "1,0,2.5,0.0\n2,1,abc,0.0\n3,1,2.5\n", tables.SPEEDS, False),
            (tables.SPEEDS, "1,0,2.5,0.0\n2,1,2.5\n3,1,abc,0.0\n", tables.SPEEDS, False),
            (tables.SPEEDS, "1,0,2.5,0.0,9\n", tables.SPEEDS, False),
            (tables.SPEEDS, "1,0,2.5\n2,1,3.5,0.0,9\n", tables.SPEEDS, False),
            (tables.SPEEDS, "1,0,,0.0\n", tables.SPEEDS, False),
            (tables.SPEEDS, ",,,\n", tables.SPEEDS, False),
            (tables.SPEEDS, MANY, tables.SPEEDS, False),
            (tables.SPEEDS, MANY + "\n\n" + MANY, tables.SPEEDS, False),
            (tables.SPEEDS, MANY + "5000,1,x,0.0\n" + MANY, tables.SPEEDS, False),
            (tables.SPEEDS, MANY + "5000,1,0.0\n", tables.SPEEDS, False),
            (tables.STATE, "0,1,2,3,4,5,6\n", tables.STATE, True),
            (tables.STATE + ",command", "0,1,2,3,4,5,6,hover\n 7,1,2,3,4,5,6,\n", tables.STATE, True),
            (tables.STATE + ",command", "0,1,2,3,4,5,6,hover\n7,1,2,3,4,5,x,climb\n", tables.STATE, True),
            (tables.STATE + ",command", "0,1,2,3,4,5,6,hover\n7,1,2,3,4,5,6\n", tables.STATE, True),
            (tables.STATE + ",command,note", "0,1,2,3,4,5,6,hover,a b\n", tables.STATE, True),
            (tables.STATE + ",command", "0,1,2,3,4,5,6,hover\n", tables.STATE, False),
            (tables.FUSED, "0,1.5,2.5,3.5,0.0,0.0,0.0,24.0\n", tables.FUSED, False),
            ("t,x,y,zz", "0,1,2,3\n", tables.GPS, False),
        ],
    )
    def test_same_values_and_errors(self, tmp_path, file_header, body, header, extra_columns):
        path = tmp_path / "table.csv"
        path.write_bytes((file_header + "\n" + body).encode())
        got, got_error = _outcome(read_table, str(path), header, extra_columns)
        want, want_error = _outcome(reference_read_table, str(path), header, extra_columns)
        assert got_error == want_error
        if want_error is None:
            assert got.shape == want.shape
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_a_bad_line_is_named_in_a_later_block(self, tmp_path):
        path = tmp_path / "speeds.csv"
        path.write_text(tables.SPEEDS + "\n" + MANY + "\n" + MANY + "1,2,three,0.0\n")
        with pytest.raises(DataError, match=rf":{2 + 2 * 5000 + 1}: non-numeric field in '1,2,three,0.0'"):
            read_table(str(path), tables.SPEEDS)
