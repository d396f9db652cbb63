"""The declared tables' one reader and one writer against the per-row
writers and per-line readers they replaced, kept here as oracles, and the
reader's C path against the split it replaced (`oracles.read_table`)."""

import types

import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rotorsense import tables
from rotorsense.cli import _command_windows
from rotorsense.dynamics import COMMANDS
from rotorsense.errors import DataError
from rotorsense.events import Events, SensorGeometry, read_events, write_events
from rotorsense.motion import SpeedEstimate
from rotorsense.pipeline import (
    TrackedStream,
    prop_rpm_columns,
    read_command_csv,
    read_truth_rpm_csv,
    write_command_csv,
    write_preprocess_artifacts,
    write_speed_csv,
    write_state_csv,
    write_truth_rpm_csv,
    write_xyz_csv,
)

# block edges of the writer, and of the 16384-row blocks it formatted at first
ROW_COUNTS = [0, 1, tables.BLOCK_LINES - 1, tables.BLOCK_LINES, tables.BLOCK_LINES + 1, 16383, 16384, 16385]


# --- the replaced writers ---


def reference_write_speed_csv(path, estimates):
    with open(path, "w", newline="\n") as fh:
        fh.write("t_ref,prop_id,rpm,objective\n")
        for est in estimates:
            fh.write(f"{est.t_ref_us},{est.prop_id},{est.rpm!r},{est.objective_value!r}\n")


def reference_write_truth_rpm_csv(path, truth, centers):
    with open(path, "w", newline="\n") as fh:
        for i, (cx, cy) in enumerate(centers):
            fh.write(f"# prop{i}_center={cx!r},{cy!r}\n")
        fh.write("t,prop_id,rpm\n")
        for k in range(truth.times_us.size):
            for i in range(truth.rpm.shape[0]):
                fh.write(f"{int(truth.times_us[k])},{i},{float(truth.rpm[i, k])!r}\n")


def reference_write_state_csv(path, times_us, states, extra=None):
    extra = extra or {}
    header = "t,x,y,z,vx,vy,vz" + "".join(f",{k}" for k in extra)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for k in range(len(times_us)):
            row = [str(int(times_us[k]))] + [repr(float(v)) for v in states[k]]
            row += [repr(float(extra[name][k])) if not isinstance(extra[name][k], str) else extra[name][k] for name in extra]
            fh.write(",".join(row) + "\n")


def reference_write_xyz_csv(path, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write("t,x,y,z\n")
        for row in rows:
            fh.write(f"{int(row[0])},{float(row[1])!r},{float(row[2])!r},{float(row[3])!r}\n")


def reference_write_command_csv(path, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write("t,command\n")
        for t_us, label in rows:
            fh.write(f"{t_us},{label}\n")


def reference_speed_traces(path, times_us, rpm_traces):
    """The loop `simulate` wrote speed_traces.csv with, in time-major order."""
    rows = []
    for k in range(times_us.size):
        for prop in range(rpm_traces.shape[0]):
            rows.append((int(times_us[k]), prop, float(rpm_traces[prop, k])))
    with open(path, "w", newline="\n") as fh:
        fh.write("t,prop_id,rpm\n")
        for t_us, prop, value in rows:
            fh.write(f"{t_us},{prop},{value!r}\n")


def reference_tracks_csv(path, tracked):
    with open(path, "w", newline="\n") as fh:
        fh.write("prop_id,centroid_x,centroid_y,n_events\n")
        for prop, centroid in enumerate(tracked.centroids):
            n = int((tracked.assignments == prop).sum())
            fh.write(f"{prop},{centroid[0]!r},{centroid[1]!r},{n}\n")


def reference_write_events_csv(events, geometry, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# width={geometry.width} height={geometry.height}\n")
        fh.write("t,x,y,p\n")
        for i in range(len(events)):
            fh.write(f"{int(events.t[i])},{int(events.x[i])},{int(events.y[i])},{int(events.p[i])}\n")


# --- the replaced readers ---


def reference_read_truth_rpm_csv(path):
    centers = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "_center=" in body:
                    name, value = body.split("_center=", 1)
                    try:
                        idx = int(name.replace("prop", ""))
                        x_str, y_str = value.split(",")
                        centers[idx] = (float(x_str), float(y_str))
                    except ValueError as exc:
                        raise DataError(f"{path}:{lineno}: malformed center comment {line!r}") from exc
                continue
            if line == "t,prop_id,rpm":
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric field in {line!r}") from exc
    arr = np.array(rows) if rows else np.zeros((0, 3))
    return arr, [centers[i] for i in sorted(centers)]


def reference_read_command_csv(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,command":
            raise DataError(f"{path}:1: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            t_str, _, label = line.strip().partition(",")
            if label not in COMMANDS:
                raise DataError(f"{path}:{lineno}: unknown command {label!r}")
            try:
                out.append((int(t_str), label))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-integer time {t_str!r}") from exc
    return out


def reference_read_events_csv(path):
    geometry = None
    rows_t, rows_x, rows_y, rows_p = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = dict(part.split("=", 1) for part in line[1:].split() if "=" in part)
                if "width" in fields and "height" in fields:
                    try:
                        geometry = SensorGeometry(int(fields["width"]), int(fields["height"]))
                    except ValueError as exc:
                        raise DataError(f"{path}:{lineno}: bad geometry comment: {line}") from exc
                continue
            if not header_seen:
                if line != "t,x,y,p":
                    raise DataError(f"{path}:{lineno}: expected header 't,x,y,p', got {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                t, x, y, p = (int(v) for v in parts)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-integer field in {line!r}") from exc
            if p not in (-1, 1):
                raise DataError(f"{path}:{lineno}: polarity must be -1 or 1, got {p}")
            if t < 0 or x < 0 or y < 0:
                raise DataError(f"{path}:{lineno}: negative field in {line!r}")
            if x >= 2**16 or y >= 2**16 or t >= 2**64:
                raise DataError(f"{path}:{lineno}: field out of range in {line!r}")
            rows_t.append(t)
            rows_x.append(x)
            rows_y.append(y)
            rows_p.append(p)
        if not header_seen:
            raise DataError(f"{path}: missing 't,x,y,p' header")
    events = Events(
        np.array(rows_t, dtype=np.uint64), np.array(rows_x, dtype=np.uint16),
        np.array(rows_y, dtype=np.uint16), np.array(rows_p, dtype=np.int8), validate=False,
    )
    return events, geometry or events.infer_geometry()


def floats(rng, n):
    """Doubles: the signed zeros, the non-finite values and random doubles
    of every magnitude first, then short ones (a long table's cost is the
    reference writer's per-row repr)."""
    values = np.arange(n) / 8.0 - 1000.0
    head = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 0.1, 3000.0],
                           rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)])
    values[: min(n, head.size)] = head[: min(n, head.size)]
    return values


def outcome(reader, path):
    try:
        return reader(path), None
    except DataError as exc:
        return None, str(exc)


# --- writers: bytes equal the replaced per-row writers ---


@pytest.mark.parametrize("n", ROW_COUNTS)
class TestWritersMatchTheReplacedLoops:
    def test_speeds(self, tmp_path, n):
        rng = np.random.default_rng(n)
        rpm, objective = floats(rng, n), floats(rng, n)
        estimates = [
            SpeedEstimate(prop_id=k % 5, t_ref_us=int(t), omega_rad_s=float(w), objective_value=float(o), n_events_used=1)
            for k, (t, w, o) in enumerate(zip(rng.integers(0, 2**62, n), rpm, objective))
        ]
        write_speed_csv(str(tmp_path / "got.csv"), estimates)
        reference_write_speed_csv(str(tmp_path / "want.csv"), estimates)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("n_props", [1, 3])
    def test_truth_rpm_and_speed_traces(self, tmp_path, n, n_props):
        rng = np.random.default_rng(n)
        n_times = -(-n // n_props)
        truth = types.SimpleNamespace(
            times_us=np.sort(rng.integers(0, 2**40, n_times)), rpm=floats(rng, n_props * n_times).reshape(n_props, -1)
        )
        centers = [(float(v), 60.5) for v in floats(rng, n_props)]
        write_truth_rpm_csv(str(tmp_path / "got.csv"), truth, centers)
        reference_write_truth_rpm_csv(str(tmp_path / "want.csv"), truth, centers)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        tables.SPEED_TRACES.write(str(tmp_path / "got_traces.csv"), prop_rpm_columns(truth.times_us, truth.rpm))
        reference_speed_traces(str(tmp_path / "want_traces.csv"), truth.times_us, truth.rpm)
        assert (tmp_path / "got_traces.csv").read_bytes() == (tmp_path / "want_traces.csv").read_bytes()

    @pytest.mark.parametrize("with_command", [False, True])
    def test_state(self, tmp_path, n, with_command):
        rng = np.random.default_rng(n)
        times = np.arange(n, dtype=np.int64) * 5000 + 2**53
        states = floats(rng, 6 * n).reshape(n, 6)
        extra = {"command": np.array([COMMANDS[k % 6] for k in range(n)], dtype=object)} if with_command else None
        if with_command:  # truth_state.csv, as `simulate` writes it
            tables.TRUTH_STATE.write(str(tmp_path / "got.csv"), [times, *states.T, extra["command"]])
        else:
            write_state_csv(str(tmp_path / "got.csv"), times, states)
        reference_write_state_csv(str(tmp_path / "want.csv"), times, states, extra=extra)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_xyz(self, tmp_path, n):
        rng = np.random.default_rng(n)
        rows = np.column_stack([rng.uniform(-1e15, 1e15, n), floats(rng, 3 * n).reshape(n, 3)])
        write_xyz_csv(str(tmp_path / "got.csv"), rows)
        reference_write_xyz_csv(str(tmp_path / "want.csv"), rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_commands(self, tmp_path, n):
        rows = [(k * 100_000 - 7, COMMANDS[k % 6]) for k in range(n)]
        write_command_csv(str(tmp_path / "got.csv"), rows)
        reference_write_command_csv(str(tmp_path / "want.csv"), rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_events(self, tmp_path, n):
        rng = np.random.default_rng(n)
        t = np.sort(rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True))
        events = Events(t, rng.integers(0, 2**16, n), rng.integers(0, 2**16, n), rng.choice([-1, 1], n))
        geometry = SensorGeometry(2**16, 2**16)
        write_events(events, geometry, str(tmp_path / "got.csv"), "csv")
        reference_write_events_csv(events, geometry, str(tmp_path / "want.csv"))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        back, geometry_back = read_events(str(tmp_path / "got.csv"), "csv")
        assert back == events and geometry_back == geometry


def test_tracks_csv_matches_the_replaced_loop(tmp_path):
    rng = np.random.default_rng(2)
    n = 20_000
    events = Events(np.arange(n, dtype=np.uint64), rng.integers(0, 64, n), rng.integers(0, 64, n), np.ones(n, np.int8))
    centroids = [(float(x), float(y)) for x, y in floats(rng, 8).reshape(4, 2)]
    tracked = TrackedStream(events, rng.integers(-1, 4, n).astype(np.int64), centroids, centroids)
    write_preprocess_artifacts(str(tmp_path), tracked, SensorGeometry(64, 64), "bin")
    reference_tracks_csv(str(tmp_path / "want.csv"), tracked)
    assert (tmp_path / "tracks.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_objective_curve_matches_the_replaced_loop(tmp_path):
    rng = np.random.default_rng(3)
    omegas, values = np.linspace(10.0, 30.0, 101), [float(v) for v in floats(rng, 101)]
    tables.OBJECTIVE_CURVE.write(str(tmp_path / "got.csv"), [[2] * len(omegas), omegas, values])
    with open(tmp_path / "want.csv", "w", newline="\n") as fh:
        fh.write("prop_id,omega_rad_s,objective\n")
        for w, v in zip(omegas, values):
            fh.write(f"{2},{float(w)!r},{float(v)!r}\n")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# --- readers: values and errors equal the replaced per-line readers ---


def many(n, row):
    return "".join(row(k) for k in range(n))


TRUTH_BODIES = [
    "",
    "1000,0,3000.5\n",
    "\n  \n1000,0,3000.5\n\n",
    "  1000 , 1 ,2.5e3  \r\n\t\n",
    "# prop0_center=60.5,61.25\n# prop1_center=-0.0,1e300\n# a note\n1000,0,3000.5\n",
    "1000,0,3000.5\n# prop0_center=1.0,2.0\n2000,0,3001.0\n",
    "1000,0,nan\n2000,1,-inf\n",
    many(4095, lambda k: f"{k},{k % 3},{3000.0 + k / 7!r}\n"),
    many(4096, lambda k: f"{k},{k % 3},{3000.0 + k / 7!r}\n") + "# prop0_center=1.0,2.0\n",
    many(5000, lambda k: f"{k},{k % 3},{3000.0 + k / 7!r}\n" + ("\n" if k % 1000 == 0 else "")),
    many(16385, lambda k: f"{k},0,{k / 3!r}\n"),
    "1000,0,abc\n",
    "1000,0\n",
    many(4094, lambda k: f"{k},0,1.0\n") + "1,2,three\n",
    many(4095, lambda k: f"{k},0,1.0\n") + "1,2,three\n",
    many(4096, lambda k: f"{k},0,1.0\n") + "1,2,three\n",
    "# prop0_center=abc,1.0\n1000,0,3000.5\n",
]


@pytest.mark.parametrize("body", TRUTH_BODIES, ids=range(len(TRUTH_BODIES)))
def test_truth_rpm_reader_matches_the_replaced_loop(tmp_path, body):
    path = tmp_path / "truth_rpm.csv"
    # header after the leading comment lines, as the writer puts it
    lead = body.split("\n")
    k = 0
    while k < len(lead) and (lead[k].strip().startswith("#") or not lead[k].strip()):
        k += 1
    path.write_text("\n".join(lead[:k] + ["t,prop_id,rpm"] + lead[k:]))
    got, got_error = outcome(read_truth_rpm_csv, str(path))
    want, want_error = outcome(reference_read_truth_rpm_csv, str(path))
    if want_error is not None:
        assert got_error is not None
        # the location is kept; the field count now also says how many were found
        assert got_error.split(": ")[0] == want_error.split(": ")[0]
        assert got_error.startswith(want_error.rstrip())
    else:
        assert got_error is None
        assert got[0].shape == want[0].shape
        assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
        assert got[1] == want[1]


COMMAND_BODIES = [
    "",
    "0,hover\n",
    "\n\n0,hover\n  \n  100000,climb  \n",
    " 0 ,hover\n",
    many(4096, lambda k: f"{k * 100},{COMMANDS[k % 6]}\n"),
    many(16385, lambda k: f"{k * 100},{COMMANDS[k % 6]}\n"),
    "0,hover\n1,hovr\n",
    "0,hover\n1, hover\n",
    "0,hover\nx1,hover\n",
    many(4095, lambda k: f"{k},roll\n") + "1,jump\n",
    many(4096, lambda k: f"{k},roll\n") + "1,jump\n",
]


@pytest.mark.parametrize("body", COMMAND_BODIES, ids=range(len(COMMAND_BODIES)))
def test_command_reader_matches_the_replaced_loop(tmp_path, body):
    path = tmp_path / "commands.csv"
    path.write_text("t,command\n" + body)
    got, got_error = outcome(read_command_csv, str(path))
    want, want_error = outcome(reference_read_command_csv, str(path))
    if want_error is None:
        assert got_error is None and got == want
    elif "non-integer time" in want_error:
        assert got_error.split(": ")[0] == want_error.split(": ")[0]
        assert "non-numeric field" in got_error
    else:
        assert got_error == want_error


EVENT_BODIES = [
    "# width=64 height=48\nt,x,y,p\n",
    "t,x,y,p\n12,100,200,1\n",
    "\n# width=640 height=480\n\n  t,x,y,p  \n0,1,2,-1\n\n 3 , 4 ,5, 1\r\n",
    "# note\nt,x,y,p\n0,1,2,1\n# width=8 height=9\n1,2,3,-1\n",
    "t,x,y,p\n5,0,0,1\n3,1,1,1\n9,2,2,-1\n",
    "t,x,y,p\n18446744073709551615,65535,65535,1\n",
    "t,x,y,p\n" + many(4095, lambda k: f"{k},{k % 640},{k % 480},{1 - 2 * (k % 2)}\n"),
    "t,x,y,p\n" + many(4096, lambda k: f"{k},{k % 640},{k % 480},1\n") + "\n# width=640 height=480\n",
    "t,x,y,p\n" + many(16385, lambda k: f"{k},{k % 640},{k % 480},-1\n"),
    "t,x,y,p\n1,2,3,1\nbogus line\n",
    "t,x,y,p\n" + many(4095, lambda k: f"{k},1,1,1\n") + "1,2,3,1,5\n",
    "t,x,y,p\n" + many(4096, lambda k: f"{k},1,1,1\n") + "1,2\n",
    "t,x,y,p\n1,70000,3,1\n",
    "t,x,y,p\n18446744073709551616,1,1,1\n",
    "# width=x height=4\nt,x,y,p\n",
]


@pytest.mark.parametrize("body", EVENT_BODIES, ids=range(len(EVENT_BODIES)))
def test_event_reader_matches_the_replaced_loop(tmp_path, body):
    path = tmp_path / "events.csv"
    path.write_text(body)
    got, got_error = outcome(lambda p: read_events(p, "csv"), str(path))
    want, want_error = outcome(reference_read_events_csv, str(path))
    assert got_error == want_error
    if want_error is None:
        assert got[0] == want[0] and got[1] == want[1]


# Inputs whose outcome the declared kinds change; each is listed in CHANGES.md.
CHANGED = [
    # (reader, file text, new error, or None when the file now reads)
    ("speeds", "t_ref,prop_id,rpm,objective\n1000.5,0,3000.0,0.0\n", ":2: non-integer field in '1000.5,0,3000.0,0.0'"),
    ("speeds", "t_ref,prop_id,rpm,objective\ninf,0,3000.0,0.0\n", ":2: non-integer field in 'inf,0,3000.0,0.0'"),
    ("speeds", "t_ref,prop_id,rpm,objective\n1e3,0,3000.0,0.0\n", ":2: non-integer field in '1e3,0,3000.0,0.0'"),
    ("speeds", "t_ref,prop_id,rpm,objective\n0,nan,3000.0,0.0\n", ":2: non-integer field in '0,nan,3000.0,0.0'"),
    ("speeds", "t_ref,prop_id,rpm,objective\n9223372036854775808,0,1.0,0.0\n", ":2: field out of range in"),
    ("gps", "t,x,y,z\nnan,0.0,0.0,0.0\n", ":2: non-integer field in 'nan,0.0,0.0,0.0'"),
    ("truth_rpm", "1000,0,3000.0\n", ":1: unexpected header '1000,0,3000.0', expected 't,prop_id,rpm'"),
    ("truth_rpm", "# prop0_center=1.0,2.0\n\n1000,0,3000.0\n", ":3: unexpected header '1000,0,3000.0'"),
    ("truth_rpm", "t,prop_id,rpm\n1000,0,3000.0\nt,prop_id,rpm\n", ":3: non-numeric field in 't,prop_id,rpm'"),
    ("commands", "t,command\n0,hover,x\n", ":2: expected 2 fields, got 3"),
    ("commands", "t,command\n99999999999999999999,hover\n", ":2: field out of range in"),
    ("events", "t,x,y,p\n1,2,x,1\n", ":2: non-numeric field in '1,2,x,1'"),
    ("events", "t,x,y,p\n-1,2,3,1\n", ":2: field out of range in '-1,2,3,1'"),
    ("events", "t,x,y,p\n1,2,3,2\n", ":2: unknown polarity '2'"),
    ("events", "t,x,y\n", ":1: unexpected header 't,x,y', expected 't,x,y,p'"),
    ("events", "# width=4 height=4\n", ":2: unexpected header '', expected 't,x,y,p'"),
]

READERS = {
    "speeds": lambda p: tables.SPEEDS.read(p),
    "gps": lambda p: tables.GPS.read(p),
    "truth_rpm": read_truth_rpm_csv,
    "commands": read_command_csv,
    "events": lambda p: read_events(p, "csv"),
}


@pytest.mark.parametrize(("reader", "text", "error"), CHANGED)
def test_changed_outcomes(tmp_path, reader, text, error):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(DataError) as exc:
        READERS[reader](str(path))
    assert str(exc.value).startswith(f"{path}{error}")


def test_negative_zero_time_reads_as_zero(tmp_path):
    path = tmp_path / "gps.csv"
    path.write_text("t,x,y,z\n-0,1.0,2.0,3.0\n")
    (t, *_), _ = tables.GPS.read(str(path))
    assert t.tolist() == [0] and t.dtype == np.int64


class TestDeclarations:
    def test_every_table_has_one_kind_per_column(self):
        declared = [v for v in vars(tables).values() if isinstance(v, tables.Table)]
        assert len(declared) == 12
        for table in declared:
            assert len(table.kinds) == len(table.split(","))
            assert table.row.count("%") == len(table.kinds)

    def test_a_kind_per_column_is_required(self):
        with pytest.raises(ValueError, match="one kind per column"):
            tables.Table("a,b", (tables.INT,))



# --- the C reader against the split it replaced ---

# characters a field is drawn from: the ones numbers are spelled with, the
# whitespace and separators either parser may skip, and the ones only
# Python reads as digits or whitespace
FIELD_ALPHABET = "0123456789.eE+-_ \t\r\x1c\x1d\x1e\x1f\x00\u0663\xa0"
SPELLINGS = [
    "nan", "NaN", "-nan", "+nan", "inf", "-inf", "+inf", "Infinity", "-Infinity", "iNfInItY", "infinit",
    "1_000", "-0", "+0", "-0.0", "\u0663", "1e3", "1.5", ".5", "5.", "1e-400", "1e400", "", " ",
    "9" * 19, "1" + "0" * 19, "9" * 20, "-" + "9" * 19, "-9223372036854775809", "9223372036854775807",
    "18446744073709551615", "18446744073709551616", "65535", "65536", "127", "128", "-128", "-129",
    "hover", "climb", "jump",
]
# (table, file header, extra_columns)
LAYOUTS = {
    "SPEEDS": (tables.SPEEDS, tables.SPEEDS, False),
    "FUSED": (tables.FUSED, tables.FUSED, False),
    "STATE": (tables.STATE, tables.STATE + ",command,note", True),
    "EVENTS": (tables.EVENTS, "# width=640 height=480\n\n" + tables.EVENTS, False),
    "COMMAND_LOG": (tables.COMMAND_LOG, tables.COMMAND_LOG, False),
}


def valid_fields(kind):
    if kind.dtype is object:
        return st.sampled_from(COMMANDS)
    if kind.values is not None:
        return st.sampled_from([str(v) for v in kind.values])
    if kind.dtype is np.float64:
        return st.floats().map(repr)
    info = np.iinfo(kind.dtype)
    return st.integers(int(info.min), int(info.max)).map(str)


def odd_fields(kind):
    return st.one_of(valid_fields(kind), st.sampled_from(SPELLINGS), st.text(FIELD_ALPHABET, max_size=6))


def body_lines(kinds):
    """Rows of `kinds`, most of them valid and padded with spaces or tabs;
    some with odd fields, a field more or less, blank lines and `#` lines."""
    pad = st.sampled_from(["", "", " ", "\t", "  "])

    def row(fields):
        return st.tuples(*[st.tuples(pad, field, pad).map("".join) for field in fields]).map(",".join)

    valid = row([valid_fields(kind) for kind in kinds])
    odd = row([odd_fields(kind) for kind in kinds])
    short = row([valid_fields(kind) for kind in kinds[:-1]])
    long = row([valid_fields(kind) for kind in kinds] + [valid_fields(kinds[0])])
    other = st.sampled_from(["", "   ", "\t", "# prop0_center=1.0,2.0", "#", "\x1c"])
    line = st.one_of(valid, valid, valid, valid, odd, short, long, other)
    return st.lists(st.tuples(line, st.sampled_from(["\n", "\n", "\r\n"])).map("".join), max_size=12)


def read_outcome(read):
    try:
        columns, comments = read()
    except DataError as exc:
        return None, str(exc)
    return [(c.dtype, c.tolist() if c.dtype == object else c.tobytes()) for c in columns], comments


@pytest.mark.parametrize("layout", list(LAYOUTS))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_the_c_reader_reads_what_the_split_read(tmp_path, layout, data):
    table, header, extra_columns = LAYOUTS[layout]
    kinds = table.kinds + ((tables.COMMAND, tables.Kind(object)) if extra_columns else ())
    lines = data.draw(body_lines(kinds), label="lines")
    path = tmp_path / "table.csv"
    path.write_bytes((header + "\n" + "".join(lines)).encode())
    block_lines = data.draw(st.sampled_from([1, 2, 5, tables.BLOCK_LINES]), label="block_lines")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables, "BLOCK_LINES", block_lines)
        got = read_outcome(lambda: table.read(str(path), extra_columns))
    assert got == read_outcome(lambda: oracles.read_table(table, str(path), extra_columns))


def test_a_python_only_spelling_sends_its_block_alone_to_the_split(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "BLOCK_LINES", 4)
    rows = [f"{k},{k % 4},{3000.0 + k / 7!r},0.0\n" for k in range(12)]
    rows[5] = "5,1,1_000,0.0\n"
    path = tmp_path / "speeds.csv"
    path.write_text(tables.SPEEDS + "\n" + "".join(rows))
    calls = []
    read_c, read_split = tables.Table._read_c, tables.Table._read_split

    def spy(name, read):
        def wrapped(table, rows, n_fields):
            parsed = read(table, rows, n_fields)
            calls.append((name, rows[0].split(",")[0], parsed is not None))
            return parsed
        return wrapped

    monkeypatch.setattr(tables.Table, "_read_c", spy("c", read_c))
    monkeypatch.setattr(tables.Table, "_read_split", spy("split", read_split))
    got, _ = tables.SPEEDS.read(str(path))
    want, _ = oracles.read_table(tables.SPEEDS, str(path))
    assert got[2][5] == 1000.0
    assert [(a.dtype, a.tobytes()) for a in got] == [(b.dtype, b.tobytes()) for b in want]
    # blocks 1 and 3 are read by the C reader; block 2 is refused and split
    assert calls == [("c", "0", True), ("c", "4", False), ("split", "4", True), ("c", "8", True)]


# --- the column-matrix writer against one `%` string per row ---


DECLARED = {name: v for name, v in vars(tables).items() if isinstance(v, tables.Table)}
# the extremes each integer input dtype can carry into an int column
INT_EXTREMES = {
    np.int8: [-128, 127, 0, -1, 1],
    np.uint16: [0, 65535, 9, 10, 99, 100],
    np.int64: [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, -10, 10**18, -(10**18)],
    np.uint64: [np.iinfo(np.uint64).max, 2**63, 0, 1, 10**19],
}
FLOAT_EXTREMES = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, -1e16, 1e-05, 0.1, 1e15, 9999999999999998.0,
                  2.2250738585072014e-308, -1.7976931348623157e308, 0.0001, 123456789.125]


def reference_write(table, path, columns, comments=()):
    """`table.row` %-formatted once per row: ints as Python ints (`%d`
    truncates a float), floats as Python floats (`%r`), labels as text."""
    cast = [float if kind.dtype is np.float64 else (lambda v: v) if kind.dtype is object else int for kind in table.kinds]
    with open(path, "w", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in [*comments, table])
        for row in zip(*columns):
            fh.write(table.row % tuple(f(v) for f, v in zip(cast, row)))


def extreme_columns(table, n, rng, int_dtype):
    """n rows of a table: its extremes first, then random values, ints in
    `int_dtype` (or the column's own dtype when narrower)."""
    columns = []
    for kind in table.kinds:
        if kind.dtype is object:
            values = np.array([kind.values[k % len(kind.values)] for k in range(n)], dtype=object)
        elif kind.dtype is np.float64:
            head = FLOAT_EXTREMES + list(rng.standard_normal(64) * 10.0 ** rng.integers(-300, 300, 64))
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
            values[: min(n, len(head))] = head[:n]
        else:
            dtype = int_dtype if kind.dtype is np.int64 else kind.dtype
            info = np.iinfo(dtype)
            values = rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)
            head = INT_EXTREMES.get(dtype, [info.min, info.max, 0])
            values[: min(n, len(head))] = np.array(head[:n], dtype=dtype)
        columns.append(values)
    return columns


@pytest.mark.parametrize("name", sorted(DECLARED))
@pytest.mark.parametrize("int_dtype", [np.int8, np.uint16, np.int64, np.uint64])
def test_every_table_writes_what_one_row_format_wrote(tmp_path, name, int_dtype):
    table = DECLARED[name]
    rng = np.random.default_rng(len(name))
    rows = tables.BLOCK_LINES
    for n in (0, 1, 2, rows - 1, rows, rows + 1, 2 * rows + 3):
        columns = extreme_columns(table, n, rng, int_dtype)
        comments = ["# width=3 height=4"] if table.comments else []
        table.write(str(tmp_path / "got.csv"), columns, comments)
        reference_write(table, str(tmp_path / "want.csv"), columns, comments)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes(), (name, n)


def test_int_columns_take_lists_and_truncated_floats(tmp_path):
    times = [-2.9, -1.0, -0.5, 0.0, 0.5, 7.99, 1e15 + 0.5, -(2.0**62)]
    columns = [times, [1.5] * len(times), [-0.0] * len(times), [1e300] * len(times)]
    tables.GPS.write(str(tmp_path / "got.csv"), columns)
    reference_write(tables.GPS, str(tmp_path / "want.csv"), columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    ints = [list(range(-5, 6)), [2**63 - 1] * 11]
    tables.ASSIGNMENTS.write(str(tmp_path / "got.csv"), ints)
    reference_write(tables.ASSIGNMENTS, str(tmp_path / "want.csv"), ints)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [2.0**63]])
def test_an_int_column_rejects_a_float_it_cannot_hold(tmp_path, bad):
    with pytest.raises(ValueError):
        tables.GPS.write(str(tmp_path / "gps.csv"), [bad, [0.0], [0.0], [0.0]])


def test_text_fields_are_written_as_given(tmp_path):
    # labels fill `%s` fields of the template: a `%`, a space or a comma in
    # one is text, not format
    rows = [(0, "hover"), (1, "100% up"), (-7, " ,x ")]
    write_command_csv(str(tmp_path / "got.csv"), rows)
    reference_write_command_csv(str(tmp_path / "want.csv"), rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# --- infer-command windows ---


def reference_windows(times, window_us):
    """The window loop `infer-command` ran before it skipped empty windows."""
    t_end, t_lo = float(times.max()), float(times.min())
    t_cursor = t_lo + window_us
    while t_cursor <= t_end + 1:
        yield t_cursor
        t_cursor += window_us


def holding_rows(times, window_us, cursors):
    """The window ends whose window [end - window_us, end] holds a time."""
    ends, ordered = np.asarray(cursors, dtype=np.float64), np.sort(times)
    first = np.searchsorted(ordered, ends - window_us)
    return ends[(first < ordered.size) & (ordered[np.minimum(first, ordered.size - 1)] <= ends)].tolist()


@pytest.mark.parametrize("window_ms", [100.0, 1.0, 7.0, 2.5, 0.125, 12.25, 33.3, 0.5])
@pytest.mark.parametrize("seed", [0, 1])
def test_windows_holding_rows_match_the_replaced_loop(window_ms, seed):
    rng = np.random.default_rng(seed)
    # bursts of rows with gaps of many empty windows between them
    times = np.concatenate([
        np.sort(rng.integers(0, 300_000, 400)),
        np.sort(rng.integers(2_000_000, 2_050_000, 200)),
        [2_050_000 + 1000 * round(window_ms * 1000), 9_000_001],
    ]).astype(np.float64) + 17
    window_us = window_ms * 1000.0
    got = list(_command_windows(times, window_us))
    want = list(reference_windows(times, window_us))
    assert holding_rows(times, window_us, got) == holding_rows(times, window_us, want)
    assert set(got) <= set(want)
    assert got == holding_rows(times, window_us, got)


def test_a_far_row_costs_one_window():
    times = np.concatenate([np.arange(4000) * 250.0, [1e11]])
    got = list(_command_windows(times, 100_000.0))
    assert len(got) == 11
    assert got[-1] >= 1e11 - 1


def test_window_ends_are_the_first_time_plus_whole_windows():
    times = np.array([3.0, 1000.0, 5e6])
    for cursor in _command_windows(times, 33.3):
        k = round((cursor - 3.0) / 33.3)
        assert cursor == 3.0 + k * 33.3


# --- runs of identical lines: read back as every line ---


def per_line_columns(table, text):
    """Each body line of `text` (header first) split and parsed on its own."""
    lines = [line.strip() for line in text.splitlines()[1:]]
    rows = [line.split(",") for line in lines if line and not (table.comments and line[0] == "#")]
    return [np.concatenate([kind.parse([row[col]]) for row in rows] or [np.zeros(0, kind.dtype)])
            for col, kind in enumerate(table.kinds)]


def gps_row(k):
    return f"{k},{k / 7!r},{-k / 3!r},{k * 1e-300!r}\n"


RUN_BODIES = {
    "runs in one block": "".join(gps_row(k) * (1 + k % 4) for k in range(300)),
    "a run across the block edge": "".join(gps_row(k) * 2 for k in range(tables.BLOCK_LINES // 2 - 3))
    + gps_row(-1) * 40 + "".join(gps_row(k) * 3 for k in range(50)),
    "one run": gps_row(5) * (2 * tables.BLOCK_LINES + 7),
    "blank lines inside runs": (gps_row(1) * 3 + "\n  \n" + gps_row(1) * 2 + gps_row(2)) * 30,
    "signed zeros": "0,0,0.0,-0.0\n0,-0,-0.0,0.0\n-0,-0,-0.0,0.0\n0,0,0.0,-0.0\n0,0,0.0,-0.0\n-0,0,0.0,0.0\n" * 20,
    "the first rows differ": "".join(gps_row(k) for k in range(70)) + gps_row(1) * 9,
}


@pytest.mark.parametrize("body", list(RUN_BODIES.values()), ids=list(RUN_BODIES))
def test_runs_read_as_every_line(tmp_path, body):
    path = tmp_path / "gps.csv"
    path.write_text(tables.GPS + "\n" + body)
    got, _ = tables.GPS.read(str(path))
    want = per_line_columns(tables.GPS, path.read_text())
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_a_comment_between_equal_rows(tmp_path):
    text = "t,prop_id,rpm\n" + ("1000,0,3000.5\n" * 3 + "# prop0_center=1.0,2.0\n" + "1000,0,3000.5\n" * 2) * 5
    path = tmp_path / "truth_rpm.csv"
    path.write_text(text)
    got, comments = tables.TRUTH_RPM.read(str(path))
    for a, b in zip(got, per_line_columns(tables.TRUTH_RPM, text)):
        assert np.array_equal(a, b) and len(a) == 25
    assert [lineno for lineno, _ in comments] == [5 + 6 * k for k in range(5)]


@pytest.mark.parametrize("bad", ["2,x,0.0,0.0", "2,0.0,0.0", "2.5,0.0,0.0,0.0"])
def test_a_bad_run_names_its_first_line(tmp_path, bad):
    path = tmp_path / "gps.csv"
    path.write_text(tables.GPS + "\n" + gps_row(1) * 2 + gps_row(2) + f"{bad}\n" * 3 + gps_row(3))
    with pytest.raises(DataError, match=rf"^{path}:5: "):
        tables.GPS.read(str(path))


def test_fused_csv_round_trips_bit_exactly(tmp_path):
    from rotorsense.fusion import KinematicPredictor, run_fusion
    from rotorsense.pipeline import write_fused_csv

    rng = np.random.default_rng(6)
    t = np.repeat(np.arange(1, 3001) * 1000, 4)
    speeds = np.column_stack([t, np.tile(np.arange(4), 3000), 3000.0 + rng.normal(0, 60, t.size)])
    gps = np.column_stack([np.arange(0, 3_000_001, 200_000), rng.normal(0, 2.0, (16, 3))])
    predictor = KinematicPredictor.from_hover_calibration(np.full(4, 3000 * np.pi / 30))
    states = run_fusion(speeds, [(0, "climb"), (1_500_000, "roll")], gps, predictor).states
    path = tmp_path / "fused.csv"
    write_fused_csv(str(path), states)
    got, _ = tables.FUSED.read(str(path))
    want = [states.t_us, *states.mean.T, np.array([np.trace(cov) for cov in states.cov])]
    assert len(got[0]) == len(states) > 3000  # a row per step and per update, not per speed row
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.int64), b.astype(a.dtype).view(np.int64))
