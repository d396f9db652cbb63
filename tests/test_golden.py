"""Every artifact of a small seeded corpus keeps its sha256.

The corpus runs each subcommand that writes a hashed artifact through
`cli.main`, with relative paths from the working directory, so no
temporary path enters a manifest's config hash. `golden.json` holds the
sha256 of every file the corpus writes, manifests included, and the numpy
and Python versions it was made with. A change that means to move an
artifact byte regenerates the table in the same commit:

    PYTHONPATH=src python tests/test_golden.py

and names each moved file and why in CHANGES.md.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from rotorsense import tables
from rotorsense.cli import main

TABLE = Path(__file__).with_name("golden.json")

# two rotors, one stepping its speed, on a noisy sensor, written as CSV
NOISY_SCENE = """mode=propellers
width=120
height=70
duration_us=30000
tick_us=50
seed=4
prop0.center=30,35
prop0.blades=2
prop0.blade_length=20
prop0.blade_width=4
prop0.rpm=3000
prop1.center=90,35
prop1.blades=3
prop1.blade_length=20
prop1.blade_width=4
prop1.rpm_step=0:4000,15000:4500
noise.background_rate=5
noise.hot_pixels=3
noise.hot_pixel_rate=1000
noise.jitter_px=0.3
"""

CLEAN_SCENE = """mode=propellers
width=80
height=80
duration_us=30000
tick_us=50
seed=2
prop0.center=40,40
prop0.blades=2
prop0.blade_length=25
prop0.blade_width=5
prop0.phase=0.3
prop0.rpm=3000
"""

# each of the six commands for 50 ms, rendered as events
RENDERED_FLIGHT = """mode=flight
duration_us=300000
seed=6
render_events=1
script=0:hover,50000:climb,100000:descent,150000:yaw,200000:roll,250000:pitch
drone.rpm_jitter=20
"""

SHORT_FLIGHT = """mode=flight
duration_us=1000000
seed=3
script=0:hover,200000:climb,400000:roll,600000:descent,800000:pitch
drone.rpm_jitter=20
drone.gps_rate_hz=10
"""

CONFIGS = {
    "noisy.cfg": NOISY_SCENE,
    "noisy_pipe.cfg": (
        "seed=4\ninput=noisy/events.csv\ninput_format=csv\noutput_format=csv\n"
        "window_us=10000\nk_props=2\nbracket_rpm_lo=1000\nbracket_rpm_hi=8000\n"
    ),
    "clean.cfg": CLEAN_SCENE,
    "clean_pipe.cfg": "seed=2\nscenario=clean.cfg\nwindow_us=10000\nbracket_rpm_lo=1000\nbracket_rpm_hi=6000\n",
    "rendered.cfg": RENDERED_FLIGHT,
    "rendered_est.cfg": "seed=6\nk_props=4\nbracket_rpm_lo=1000\nbracket_rpm_hi=6000\n",
    "flight.cfg": SHORT_FLIGHT,
}


def _speeds_from_traces() -> None:
    """flight/speeds.csv: the simulator's speed traces as speed rows, in
    time order, standing in for `estimate` output."""
    (t, prop, rpm), _ = tables.SPEED_TRACES.read("flight/speed_traces.csv")
    tables.SPEEDS.write("flight/speeds.csv", [t, prop, rpm, np.zeros(t.size)])


# argv lists for `cli.main`, and test-side steps between them
RUNS = [
    ["simulate", "noisy.cfg", "--out", "noisy", "--format", "csv"],
    ["--config", "noisy_pipe.cfg", "pipeline", "--out", "noisy_run"],
    ["eval", "--speeds", "noisy_run/speeds.csv", "--truth-rpm", "noisy/truth_rpm.csv",
     "--tracks", "noisy_run/tracks.csv", "--report", "noisy_run/eval.jsonl"],
    ["simulate", "clean.cfg", "--out", "clean"],
    ["--config", "clean_pipe.cfg", "pipeline", "--out", "clean_run"],
    ["simulate", "rendered.cfg", "--out", "rendered"],
    ["--config", "rendered_est.cfg", "estimate", "rendered/events.bin", "--out", "rendered_est"],
    ["simulate", "flight.cfg", "--out", "flight"],
    _speeds_from_traces,
    ["--seed", "5", "train-command", "--model", "cmd/model.txt", "--samples-per-class", "10"],
    ["infer-command", "flight/speeds.csv", "--model", "cmd/model.txt", "--out-csv", "cmd/commands.csv"],
    ["fuse", "--speeds", "flight/speeds.csv", "--commands", "cmd/commands.csv", "--gps", "flight/gps.csv",
     "--out-csv", "cmd/fused.csv"],
    ["eval", "--fused", "cmd/fused.csv", "--truth-state", "flight/truth_state.csv", "--report", "cmd/loc.jsonl"],
]


def run_corpus() -> dict[str, str]:
    """Run the corpus in the working directory; the sha256 of every file
    it writes, by relative path."""
    for name, text in CONFIGS.items():
        Path(name).write_text(text)
    os.makedirs("cmd", exist_ok=True)
    for step in RUNS:
        code = step() if callable(step) else main(step)
        if code:
            raise RuntimeError(f"rotorsense {' '.join(step)} exited {code}")
    return {
        path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(".").rglob("*"))
        if path.is_file() and path.name not in CONFIGS
    }


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def test_every_artifact_keeps_its_sha256(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_corpus()
    table = json.loads(TABLE.read_text())
    want = table["sha256"]
    moved = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (moved or missing or extra), (
        f"artifact bytes differ from {TABLE.name} (made with {table['versions']}, running {versions()}): "
        f"moved {moved}, missing {missing}, new {extra}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        os.chdir(work)
        try:
            hashes = run_corpus()
        finally:
            os.chdir(here)
    TABLE.write_text(json.dumps({"versions": versions(), "sha256": hashes}, indent=2, sort_keys=True) + "\n")
    print(f"{len(hashes)} artifacts -> {TABLE}", file=sys.stderr)
