"""The benchmark's tracer wraps package functions by the names their callers
look them up by; renaming or moving one breaks every traced run. This
checks each of those names from the package's own test suite."""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if BENCH not in sys.path:
    sys.path.append(BENCH)

import tracer  # noqa: E402


def test_every_traced_name_is_wrapped_and_restored():
    targets = [f"{module}.{cls + '.' if cls else ''}{attr}" for module, cls, attr, _, _ in tracer.WRAPS]
    with tracer.installed(tracer.Tracer()):
        assert tracer.wrapped_targets() == targets
    assert tracer.wrapped_targets() == []


def test_a_traced_corpus_reaches_the_density_predict_and_classifier_kernels(tmp_path, monkeypatch):
    """A small `pipeline` with downsampling, then `train-command`,
    `infer-command` and `fuse`, run inside the tracer: the names it wraps
    are the ones these commands call, so each kernel records spans and
    `fusion.run` has time of its own besides its `fusion.predict` runs."""
    from test_golden import CLEAN_SCENE, SHORT_FLIGHT, _speeds_from_traces

    from rotorsense.cli import main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "clean.cfg").write_text(CLEAN_SCENE)
    (tmp_path / "pipe.cfg").write_text(
        "seed=2\nscenario=clean.cfg\nwindow_us=10000\nbracket_rpm_lo=1000\nbracket_rpm_hi=6000\nsample_fraction=0.25\n"
    )
    (tmp_path / "flight.cfg").write_text(SHORT_FLIGHT)
    assert main(["simulate", "flight.cfg", "--out", "flight"]) == 0
    _speeds_from_traces()
    trace = tracer.Tracer()
    with tracer.installed(trace):
        for argv in (
            ["--config", "pipe.cfg", "pipeline", "--out", "run"],
            ["--seed", "5", "train-command", "--model", "model.txt", "--samples-per-class", "10"],
            ["infer-command", "flight/speeds.csv", "--model", "model.txt", "--out-csv", "commands.csv"],
            ["fuse", "--speeds", "flight/speeds.csv", "--commands", "commands.csv", "--gps", "flight/gps.csv",
             "--out-csv", "fused.csv"],
        ):
            assert main(argv) == 0, argv
    names = [span.name for span in trace.spans]
    for name in ("batching.density", "fusion.predict", "commands.predict"):
        assert name in names, name
    totals = trace.totals("setup")
    assert 0 < totals["fusion.run_self_s"] < totals["fusion.run_s"]
