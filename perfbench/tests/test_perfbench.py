"""Tests of the benchmark itself: tracer arithmetic, wrapper removal and
the output checks. Run with `python3 -m pytest perfbench/tests`."""

import json

import numpy as np
import pytest

import rotorsense.motion
import rotorsense.pipeline
import rotorsense.preprocess
from rotorsense.config import PipelineConfig
from rotorsense.sim import ConstantSpeed, GroundTruth, NoiseSpec, PropellerSpec, simulate_propellers

import checks
from tracer import Span, Tracer, installed, wrapped_targets


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_call_tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.op = "op1"
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("g"):
                pass
        with tracer.span("b"):
            pass
    assert [s.name for s in tracer.spans] == ["root", "a", "g", "b"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert tracer.self_times() == [3, 2, 1, 4]
    totals = tracer.totals("op1")
    assert (totals["root_s"], totals["root_self_s"], totals["root_calls"]) == (10, 3, 1)
    assert tracer.totals("setup") == {}


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    tracer.spans = [
        Span("parent", 0.0, 10.0, None, "op"),
        Span("c1", 1.0, 5.0, 0, "op"),
        Span("c2", 3.0, 7.0, 0, "op"),
        Span("c3", 9.0, 12.0, 0, "op"),  # runs past the parent's end
    ]
    assert tracer.self_times()[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_counters_are_kept_per_op():
    tracer = Tracer()
    tracer.count("x", 2)
    tracer.op = "traced"
    tracer.count("x", 5)
    tracer.count("x")
    assert tracer.totals("setup")["x"] == 2
    assert tracer.totals("traced")["x"] == 6


def small_stream():
    spec = PropellerSpec(
        center=(40.0, 40.0), n_blades=2, blade_length=25.0, blade_width=5.0,
        initial_phase=0.0, speed_profile=ConstantSpeed(3000.0),
    )
    events, _ = simulate_propellers([spec], NoiseSpec(), duration_us=30_000, tick_us=40, seed=3)
    return events


def test_wrappers_record_spans_and_are_removed():
    events = small_stream()
    tracer = Tracer()
    original_value = rotorsense.motion.ObjectiveEvaluator.__dict__["value"]
    with installed(tracer):
        assert rotorsense.pipeline.segment_propellers is not rotorsense.preprocess.segment_propellers
        rotorsense.pipeline.preprocess_stream(events, PipelineConfig(window_us=25_000))
    assert rotorsense.pipeline.segment_propellers is rotorsense.preprocess.segment_propellers
    assert rotorsense.motion.ObjectiveEvaluator.__dict__["value"] is original_value
    assert wrapped_targets() == []
    totals = tracer.totals("setup")
    assert totals["preprocess.stream_calls"] == 1
    assert totals["preprocess.kmeans_calls"] == 2  # two 25 ms windows
    assert totals["preprocess.kmeans_points"] == totals["preprocess.filter_out"] > 0
    stream = next(i for i, s in enumerate(tracer.spans) if s.name == "preprocess.stream")
    assert all(s.parent == stream for s in tracer.spans if s.name == "preprocess.kmeans")


def test_wrappers_are_removed_when_the_run_raises():
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            raise RuntimeError("op failed")
    assert rotorsense.pipeline.segment_propellers is rotorsense.preprocess.segment_propellers
    assert wrapped_targets() == []


def test_failed_call_is_counted_and_reraised():
    tracer = Tracer()
    with installed(tracer):
        with pytest.raises(Exception):
            rotorsense.pipeline.segment_propellers(small_stream().select(np.zeros(0, dtype=np.int64)), 1)
    assert tracer.totals("setup")["preprocess.kmeans_failed"] == 1


def constant_truth(rpm=3000.0, duration_us=100_000):
    times = np.arange(0, duration_us + 1, 1000)
    return GroundTruth(tick_us=1000, times_us=times, rpm=np.full((1, times.size), rpm), event_origin=np.zeros(0))


def speed_rows(rpm, n=20):
    rng = np.random.default_rng(0)
    t = np.arange(n) * 5000.0
    return np.column_stack([t, np.zeros(n), rpm * (1 + 0.002 * rng.standard_normal(n)), np.ones(n)])


def test_speed_check_accepts_accurate_and_rejects_perturbed_speeds():
    truth = constant_truth()
    per_rotor, problems = checks.speed_rmae(speed_rows(3000.0), [(40.5, 39.8)], [(40.0, 40.0)], truth)
    assert problems == [] and per_rotor[0] < 0.5
    _, problems = checks.speed_rmae(speed_rows(3000.0 * 1.05), [(40.5, 39.8)], [(40.0, 40.0)], truth)
    assert len(problems) == 1 and "RMAE" in problems[0]


def test_speed_check_rejects_missing_tracks_and_estimates():
    truth = constant_truth()
    _, problems = checks.speed_rmae(speed_rows(3000.0, n=3), [(40.0, 40.0)], [(40.0, 40.0)], truth)
    assert "estimates" in problems[0]
    _, problems = checks.speed_rmae(speed_rows(3000.0), [], [(40.0, 40.0)], truth)
    assert "no track" in problems[0]


def test_fusion_check():
    assert checks.fusion_gain([0, 0, 0], 1.0, 3.0) == []
    assert checks.fusion_gain([0, 3, 0], 1.0, 3.0) == ["exit code 3"]
    assert len(checks.fusion_gain([0, 0, 0], 2.5, 3.0)) == 1


def test_ledger_rejects_a_changed_artifact_hash(tmp_path):
    artifact = tmp_path / "speeds.csv"
    artifact.write_text("t_ref,prop_id,rpm,objective\n0,0,3000.0,1.0\n")
    manifest = str(tmp_path / "manifest.json")
    rotorsense.pipeline.write_manifest(manifest, "cfg", 1, [str(artifact)])
    first = checks.manifest_hashes([manifest])
    assert list(first) == ["manifest.json:speeds.csv"]

    ledger_path = str(tmp_path / "ledger.json")
    ledger = checks.HashLedger(ledger_path)
    assert ledger.check(first) == []
    assert ledger.check(first) == []

    artifact.write_text("t_ref,prop_id,rpm,objective\n0,0,3000.5,1.0\n")
    rotorsense.pipeline.write_manifest(manifest, "cfg", 1, [str(artifact)])
    changed = checks.manifest_hashes([manifest])
    assert ledger.check(changed) == ["artifact manifest.json:speeds.csv differs from the first run"]
    # a later run of the same seed compares against the recorded hashes
    assert checks.HashLedger(ledger_path).check(changed) != []
    assert json.load(open(ledger_path)) == first
