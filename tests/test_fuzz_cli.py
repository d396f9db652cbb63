"""The CLI exit-code contract under mutated inputs and option values:
whatever the bytes of an input file or the value of a numeric option,
`cli.main` returns 0, 2, 3 or 4 and raises nothing.

Each example takes one valid file (every declared table, the command
model or a pipeline config), mutates it once (truncation, a flipped
byte, a non-UTF-8 byte, a bad number or a dropped field) and runs the
command that reads it. Tables that no command reads go through their
reader, which returns or raises DataError. Scenario files go through
`parse_scenario` alone, which returns or raises ConfigError: their numbers
size the simulation, so a mutated one can ask for any amount of work.

The option grid gives each numeric option of `preprocess`, `estimate`,
`train-command`, `infer-command` and `bench`, and the global `--seed`,
each value of OPTION_VALUES on tiny inputs: no warning may be emitted,
and an error exits with one stderr line. The scenario grid does the same
for each number of a tiny scene that `simulate` runs, and for the config
fields that size `train-command`'s windows.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotorsense import tables
from rotorsense.cli import EXIT_DATA, EXIT_OK, main
from rotorsense.config import parse_scenario
from rotorsense.errors import ConfigError, DataError

FLIGHT = """mode=flight
duration_us=600000
tick_us=1000
seed=3
script=0:hover,300000:climb
noise.background_rate=0
noise.hot_pixels=0
noise.hot_pixel_rate=0
noise.jitter_px=0
noise.on_fraction=0.95
drone.hover_rpm=3000
drone.delta_rpm=300
drone.rpm_jitter=0
drone.tilt_fraction=0.2
drone.gps_rate_hz=10
drone.gps_sigma_m=2
drone.blade_length=30
drone.blade_width=5
drone.n_blades=2
"""

SCENE = """mode=propellers
width=40
height=40
duration_us=4000
tick_us=100
seed=3
prop0.center=20,20
prop0.blades=2
prop0.blade_length=12
prop0.blade_width=3
prop0.rpm=3000
noise.background_rate=5
"""

BAD_NUMBERS = [b"", b"x", b"nan", b"inf", b"-inf", b"-1", b"0", b"1.5", b"1e400", b"-0", b"99999999999999999999", b"1_0"]
NON_UTF8 = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]
NUMBER = re.compile(rb"-?\d[\d.e+-]*")
FIELD = re.compile(rb"[,= ][^,= \n]*")  # a field with the separator before it


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Valid inputs, and for each one the command that reads it."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "flight.cfg").write_text(FLIGHT)
    (d / "scene.cfg").write_text(SCENE)
    (d / "pipe.cfg").write_text("seed=2\nhover_rpm=3000\ngps_sigma_m=2\nprocess_noise_scale=0.05\n")
    assert main(["simulate", str(d / "flight.cfg"), "--out", str(d)]) == 0
    assert main(["simulate", str(d / "scene.cfg"), "--out", str(d), "--format", "csv"]) == 0
    (t, prop, rpm), _ = tables.SPEED_TRACES.read(str(d / "speed_traces.csv"))
    order = np.lexsort((prop, t))
    tables.SPEEDS.write(str(d / "speeds.csv"), [t[order], prop[order], rpm[order], np.zeros(len(t))])
    assert main(["--seed", "1", "train-command", "--model", str(d / "model.txt"), "--samples-per-class", "6"]) == 0
    assert main(["fuse", "--speeds", str(d / "speeds.csv"), "--commands", str(d / "commands.csv"),
                 "--gps", str(d / "gps.csv"), "--out-csv", str(d / "fused.csv")]) == 0
    assert main(["preprocess", str(d / "events.csv"), "--format", "csv", "--k", "1", "--out", str(d)]) == 0
    tables.OBJECTIVE_CURVE.write(str(d / "objective_curve.csv"), [[0, 0], [310.5, 320.0], [1.5e6, 1.7e6]])

    def path(name):
        return str(d / name)

    out = path("out")
    fuse = ["fuse", "--speeds", path("speeds.csv"), "--commands", path("commands.csv"), "--gps", path("gps.csv")]
    eval_rpm = ["eval", "--speeds", path("speeds.csv"), "--truth-rpm", path("truth_rpm.csv"), "--tracks", path("tracks.csv"),
                "--report", out]
    eval_fused = ["eval", "--fused", path("fused.csv"), "--truth-state", path("truth_state.csv"), "--report", out]
    # name: (valid file, argv reading it, or the declared table whose reader takes it)
    targets = {
        "speeds/infer": ("speeds.csv", ["infer-command", path("speeds.csv"), "--model", path("model.txt"), "--out-csv", out]),
        "speeds/fuse": ("speeds.csv", fuse + ["--out-csv", out]),
        "speeds/eval": ("speeds.csv", eval_rpm),
        "gps": ("gps.csv", fuse + ["--out-csv", out]),
        "commands": ("commands.csv", fuse + ["--out-csv", out]),
        "truth_state": ("truth_state.csv", eval_fused),
        "fused": ("fused.csv", eval_fused),
        "truth_rpm": ("truth_rpm.csv", eval_rpm),
        "speed_traces": ("speed_traces.csv", eval_rpm[:3] + ["--truth-rpm", path("speed_traces.csv")] + eval_rpm[5:]),
        "events": ("events.csv", ["preprocess", path("events.csv"), "--format", "csv", "--k", "1", "--out", out]),
        "model": ("model.txt", ["infer-command", path("speeds.csv"), "--model", path("model.txt"), "--out-csv", out]),
        "config": ("pipe.cfg", ["--config", path("pipe.cfg")] + fuse + ["--out-csv", out]),
        "tracks": ("tracks.csv", eval_rpm),
        "assignments": ("assignments.csv", tables.ASSIGNMENTS),
        "objective_curve": ("objective_curve.csv", tables.OBJECTIVE_CURVE),
    }
    return d, {name: (path(file), (d / file).read_bytes(), use) for name, (file, use) in targets.items()}


def mutate(data: st.DataObject, blob: bytes) -> bytes:
    op = data.draw(st.sampled_from(["truncate", "flip", "non_utf8", "bad_number", "drop_field"]))
    if op == "truncate":
        return blob[: data.draw(st.integers(0, len(blob)))]
    if op == "flip":
        i = data.draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([blob[i] ^ data.draw(st.integers(1, 255))]) + blob[i + 1 :]
    if op == "non_utf8":
        i = data.draw(st.integers(0, len(blob)))
        return blob[:i] + data.draw(st.sampled_from(NON_UTF8)) + blob[i:]
    if op == "bad_number":
        numbers = list(NUMBER.finditer(blob))
        m = numbers[data.draw(st.integers(0, len(numbers) - 1))]
        return blob[: m.start()] + data.draw(st.sampled_from(BAD_NUMBERS)) + blob[m.end() :]
    fields = list(FIELD.finditer(blob))
    m = fields[data.draw(st.integers(0, len(fields) - 1))]
    return blob[: m.start()] + blob[m.end() :]


@settings(max_examples=160, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exit_code_contract_holds_for_mutated_inputs(corpus, data):
    d, targets = corpus
    name = data.draw(st.sampled_from(sorted(targets)))
    path, blob, use = targets[name]
    mutated = mutate(data, blob)
    with open(path, "wb") as fh:
        fh.write(mutated)
    try:
        if isinstance(use, tables.Table):
            try:
                use.read(path)
            except DataError:
                pass
        else:
            assert main(use) in (0, 2, 3, 4)
    finally:
        with open(path, "wb") as fh:
            fh.write(blob)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_scenario_parser_raises_only_config_errors(tmp_path_factory, data):
    """A scenario file is configuration: whatever its bytes, parsing it
    returns a scenario or raises ConfigError."""
    blob = data.draw(st.sampled_from([FLIGHT, SCENE])).encode()
    path = tmp_path_factory.getbasetemp() / "mutated_scenario.cfg"
    path.write_bytes(mutate(data, blob))
    try:
        parse_scenario(str(path))
    except ConfigError:
        pass


@pytest.mark.parametrize(
    ("prop_id", "code"),
    [(2**50, EXIT_DATA), (4, EXIT_DATA), (-1, EXIT_DATA), (3, EXIT_OK)],
)
def test_fuse_bounds_the_rotor_id(corpus, prop_id, code):
    """A speed row's rotor id must name one of the mixer's four rotors:
    2^50 once sized an 8 PiB speed vector and exited 1, and -1 was
    skipped silently. Ids 0 to 3 still fuse."""
    d, targets = corpus
    header, first, *rest = targets["speeds/fuse"][1].decode().splitlines()
    t, _, rpm, objective = first.split(",")
    speeds = d / "speeds_far_id.csv"
    speeds.write_text("\n".join([header, f"{t},{prop_id},{rpm},{objective}", *rest]) + "\n")
    argv = ["fuse", "--speeds", str(speeds), "--commands", str(d / "commands.csv"), "--gps", str(d / "gps.csv"),
            "--out-csv", str(d / "out")]
    assert main(argv) == code


OPTION_VALUES = ["0", "1", "-1", "nan", "inf", "-inf", str(2**63), "1e20", "1e308", "1e-320"]
# command: the options of the grid, each a format of its argv value; a
# `lo,hi` option is tried on each side, the other at its default
OPTIONS = {
    "preprocess": ["--window-us={}", "--bin={}", "--k={}", "--count-ratio={}", "--polarity-band={},0.7",
                   "--polarity-band=0.3,{}"],
    "estimate": ["--bracket-rpm={},12000", "--bracket-rpm=500,{}", "--grid={}", "--tol={}", "--epsilon={}",
                 "--dt-us={}", "--delta={}", "--beta={}", "--sample-fraction={}", "--st-ratio={}"],
    "train-command": ["--samples-per-class={}", "--delta-rpm={}", "--jitter-rpm={}"],
    "infer-command": ["--window-ms={}"],
    "bench": ["--duration-us={}", "--sample-fraction={}", "--min-events-per-sec={}"],
    "--seed": ["--seed={}"],
}


def base_argv(d, command):
    """The command on the corpus's tiny inputs, with a small workload;
    `--seed` is tried on `preprocess`."""
    out = str(d / "option_out")
    return {
        "preprocess": ["preprocess", str(d / "events.csv"), "--format", "csv", "--k", "1", "--out", out],
        "estimate": ["estimate", str(d / "events.csv"), "--format", "csv", "--out", out],
        "train-command": ["train-command", "--model", str(d / "option_model.txt"), "--samples-per-class", "6"],
        "infer-command": ["infer-command", str(d / "speeds.csv"), "--model", str(d / "model.txt"), "--out-csv", out],
        "bench": ["bench", "--duration-us", "2000", "--min-events-per-sec", "0", "--out", out],
    }[command]


@pytest.mark.parametrize("value", OPTION_VALUES)
@pytest.mark.parametrize(
    ("command", "option"), [(command, option) for command, options in OPTIONS.items() for option in options]
)
def test_exit_code_contract_holds_for_option_values(corpus, capsys, command, option, value):
    d, _ = corpus
    argv = [option.format(value)]
    argv = argv + base_argv(d, "preprocess") if command == "--seed" else base_argv(d, command) + argv
    assert_contract(argv, capsys)


# each number of SCENE's propeller, speed profiles and clock, as the line
# that sets it; a profile's line replaces `prop0.rpm`
SCENARIO_LINES = [
    "prop0.rpm={}",
    "prop0.rpm_step={}:3000,2000:4500", "prop0.rpm_step=0:{},2000:4500", "prop0.rpm_step=0:3000,{}:4500",
    "prop0.rpm_step=0:3000,2000:{}",
    "prop0.rpm_ramp={}:3000,4000:4500", "prop0.rpm_ramp=0:{},4000:4500", "prop0.rpm_ramp=0:3000,{}:4500",
    "prop0.rpm_ramp=0:3000,4000:{}",
    "prop0.phase={}", "prop0.blades={}", "prop0.blade_length={}", "prop0.blade_width={}",
    "prop0.center={},20", "prop0.center=20,{}", "duration_us={}", "tick_us={}",
]


@pytest.mark.parametrize("value", OPTION_VALUES)
@pytest.mark.parametrize("line", SCENARIO_LINES)
def test_exit_code_contract_holds_for_scenario_values(corpus, capsys, line, value):
    d, _ = corpus
    key = line.split("=")[0]
    drop = "prop0.rpm=" if key.startswith("prop0.rpm") else f"{key}="
    scene = d / "grid_scene.cfg"
    scene.write_text("".join(f"{kept}\n" for kept in SCENE.splitlines() if not kept.startswith(drop)) + line.format(value))
    assert_contract(["simulate", str(scene), "--out", str(d / "grid_out")], capsys)


@pytest.mark.parametrize("value", OPTION_VALUES)
@pytest.mark.parametrize("field", ["window_ms", "resample_hz"])
def test_exit_code_contract_holds_for_train_command_config_values(corpus, capsys, field, value):
    d, _ = corpus
    config = d / "grid_train.cfg"
    config.write_text(f"{field}={value}\n")
    assert_contract(["--config", str(config)] + base_argv(d, "train-command"), capsys)


def assert_contract(argv, capsys):
    """`cli.main(argv)` exits 0, 2, 3 or 4 without a warning, and an error
    with one stderr line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3, 4)
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == (0 if code == 0 else 1), errors
