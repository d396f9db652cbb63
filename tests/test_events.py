import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotorsense.errors import ConfigError, DataError
from rotorsense.events import (
    Event,
    EventBatch,
    EventBundle,
    Events,
    SensorGeometry,
    concat_events,
    read_events,
    slice_bundles,
    write_events,
)


def make_events(rows):
    """rows of (t, x, y, p)"""
    t, x, y, p = zip(*rows) if rows else ((), (), (), ())
    return Events(np.array(t, np.uint64), np.array(x), np.array(y), np.array(p, np.int8))


class TestEventModel:
    def test_polarity_validated(self):
        with pytest.raises(DataError, match="polarity"):
            make_events([(1, 2, 3, 0)])

    def test_unsorted_input_is_stably_sorted(self):
        events = make_events([(5, 1, 1, 1), (3, 2, 2, -1), (9, 3, 3, 1), (3, 4, 4, 1)])
        assert list(events.t) == [3, 3, 5, 9]
        # stable: the two t=3 events keep construction order
        assert list(events.x) == [2, 4, 1, 3]

    def test_indexing_returns_event(self):
        events = make_events([(12, 100, 200, 1)])
        assert events[0] == Event(x=100, y=200, t=12, p=1)

    def test_immutable(self):
        events = make_events([(1, 2, 3, 1)])
        with pytest.raises((ValueError, AttributeError)):
            events.t[0] = 5

    @pytest.mark.parametrize("as_list", [False, True])
    @pytest.mark.parametrize("column, values, index", [
        ("x", [-20, 5], 0), ("y", [3, 70000], 1), ("t", [-1, 2], 0), ("t", [1, 2**64], 1),
        ("p", [1, 300], 1), ("x", [1.0, float("nan")], 1), ("y", [0.0, float("inf")], 1),
    ])
    def test_values_outside_the_column_dtype_are_rejected(self, as_list, column, values, index):
        columns = {"t": [1, 2], "x": [5, 6], "y": [7, 8], "p": [1, -1]}
        columns[column] = values
        if not as_list:
            columns = {name: np.array(v) for name, v in columns.items()}
        with pytest.raises(DataError, match=f"event column {column} holds .* at index {index}, outside"):
            Events(columns["t"], columns["x"], columns["y"], columns["p"])

    def test_in_range_input_of_any_integer_kind_is_kept(self):
        events = Events(np.array([2, 1]), [0, 65535], np.array([65535.0, 0.0]), np.array([1, -1], np.int64))
        assert events.t.tolist() == [1, 2] and events.x.tolist() == [65535, 0] and events.y.tolist() == [0, 65535]


class TestCsvFormat:
    def test_csv_line_maps_fields(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("t,x,y,p\n12,100,200,1\n")
        events, geometry = read_events(str(path), "csv")
        assert events[0] == Event(x=100, y=200, t=12, p=1)
        assert geometry == SensorGeometry(101, 201)

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("# width=64 height=48\nt,x,y,p\n")
        events, geometry = read_events(str(path), "csv")
        assert len(events) == 0
        assert geometry == SensorGeometry(64, 48)

    def test_read_sorts_by_t(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("t,x,y,p\n5,0,0,1\n3,1,1,1\n9,2,2,-1\n")
        events, _ = read_events(str(path), "csv")
        assert list(events.t) == [3, 5, 9]

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("t,x,y,p\n1,2,3,1\nbogus line\n")
        with pytest.raises(DataError, match=r"e\.csv:3"):
            read_events(str(path), "csv")

    def test_bad_polarity_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("t,x,y,p\n1,2,3,2\n")
        with pytest.raises(DataError, match="polarity"):
            read_events(str(path), "csv")

    def test_out_of_range_coordinate_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("t,x,y,p\n1,70000,3,1\n")
        with pytest.raises(DataError, match="out of range"):
            read_events(str(path), "csv")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("1,2,3,1\n")
        with pytest.raises(DataError):
            read_events(str(path), "csv")


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_round_trip_three_events(self, tmp_path, fmt):
        events = make_events([(1, 10, 20, 1), (5, 30, 40, -1), (9, 50, 60, 1)])
        geometry = SensorGeometry(64, 64)
        path = str(tmp_path / f"e.{fmt}")
        write_events(events, geometry, path, fmt)
        back, geo_back = read_events(path, fmt)
        assert back == events
        assert geo_back == geometry

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_round_trip_empty(self, tmp_path, fmt):
        path = str(tmp_path / f"e.{fmt}")
        write_events(Events.empty(), SensorGeometry(8, 8), path, fmt)
        back, _ = read_events(path, fmt)
        assert len(back) == 0

    def test_bin_round_trip_large_timestamp(self, tmp_path):
        # exercises the 64-bit timestamp field
        events = make_events([(2**40, 3, 4, -1)])
        path = str(tmp_path / "e.bin")
        write_events(events, SensorGeometry(8, 8), path, "bin")
        back, _ = read_events(path, "bin")
        assert int(back.t[0]) == 2**40
        assert back == events

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 2**48),
                st.integers(0, 63),
                st.integers(0, 63),
                st.sampled_from([-1, 1]),
            ),
            max_size=40,
        ),
        fmt=st.sampled_from(["csv", "bin"]),
    )
    def test_round_trip_property(self, tmp_path_factory, rows, fmt):
        events = make_events(rows)
        path = str(tmp_path_factory.mktemp("rt") / f"e.{fmt}")
        write_events(events, SensorGeometry(64, 64), path, fmt)
        back, _ = read_events(path, fmt)
        assert back == events

    def test_unwritable_path_raises(self):
        with pytest.raises(OSError):
            write_events(Events.empty(), SensorGeometry(4, 4), "/nonexistent-dir/e.bin", "bin")

    def test_truncated_bin_names_offset(self, tmp_path):
        path = tmp_path / "e.bin"
        events = make_events([(1, 2, 3, 1)])
        write_events(events, SensorGeometry(8, 8), str(path), "bin")
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(DataError, match="offset"):
            read_events(str(path), "bin")


class TestSliceBundles:
    def test_two_bundles_of_five(self):
        # constructed so no event sits on the interior bundle edge
        times = [0, 1000, 2000, 3000, 4000, 5500, 6500, 7500, 8500, 9500]
        events = make_events([(t, 0, 0, 1) for t in times])
        bundles = slice_bundles(events, 5000)
        assert [len(b) for b in bundles] == [5, 5]
        assert bundles[0].t_start == 0 and bundles[0].t_end == 5000
        assert bundles[1].t_start == 5000 and bundles[1].t_end == 10000

    def test_single_event(self):
        events = make_events([(42, 1, 1, 1)])
        bundles = slice_bundles(events, 7)
        assert len(bundles) == 1 and len(bundles[0]) == 1

    def test_boundary_event_goes_to_earlier_bundle(self):
        # events spanning exactly one interval stay in one bundle
        events = make_events([(10, 0, 0, 1), (15, 0, 0, 1), (20, 0, 0, 1)])
        bundles = slice_bundles(events, 10)
        assert len(bundles) == 1
        assert len(bundles[0]) == 3

    def test_gap_yields_no_empty_bundle(self):
        events = make_events([(0, 0, 0, 1), (5, 0, 0, 1), (25, 0, 0, 1)])
        bundles = slice_bundles(events, 10)
        assert [(b.t_start, b.t_end, len(b)) for b in bundles] == [(0, 10, 2), (20, 30, 1)]

    def test_empty_stream(self):
        assert slice_bundles(Events.empty(), 100) == []

    def test_bad_interval(self):
        with pytest.raises(ConfigError):
            slice_bundles(Events.empty(), 0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
        st.integers(1, 3_000),
    )
    def test_partition_property(self, times, dt):
        """Every event lands in exactly one bundle; concatenation
        reproduces the stream; bundles are non-empty and in interval
        order; membership matches a brute-force rule."""
        events = make_events([(t, i % 8, i % 8, 1) for i, t in enumerate(sorted(times))])
        bundles = slice_bundles(events, dt)
        total = sum(len(b) for b in bundles)
        assert total == len(events)
        t0 = int(events.t[0])
        flat_t = np.concatenate([b.events.t for b in bundles])
        assert np.array_equal(flat_t, events.t)
        ordinals = [(b.t_start - t0) // dt for b in bundles]
        assert ordinals == sorted(set(ordinals))
        for m, bundle in zip(ordinals, bundles):
            assert len(bundle) > 0
            assert bundle.t_start == t0 + m * dt
            assert bundle.t_end == bundle.t_start + dt
            for t in bundle.events.t:
                # brute-force rule: earlier bundle owns its upper edge
                t = int(t)
                if m == 0:
                    assert bundle.t_start <= t <= bundle.t_end
                else:
                    assert bundle.t_start < t <= bundle.t_end


class TestEventBatch:
    def test_contiguity_enforced(self):
        e = make_events([(1, 0, 0, 1)])
        b1 = EventBundle(events=e, t_start=0, t_end=10)
        b2 = EventBundle(events=Events.empty(), t_start=20, t_end=30)
        with pytest.raises(DataError, match="contiguous"):
            EventBatch(bundles=(b1, b2))

    def test_events_and_start(self):
        e = make_events([(1, 0, 0, 1), (5, 0, 0, -1)])
        b1 = EventBundle(events=e, t_start=0, t_end=10)
        b2 = EventBundle(events=Events.empty(), t_start=10, t_end=20)
        batch = EventBatch(bundles=(b1, b2))
        assert batch.t_start == 0
        assert np.array_equal(batch.events().t, e.t)


class TestConcatEvents:
    def test_out_of_order_parts_come_back_sorted(self):
        late = make_events([(10, 5, 6, 1), (11, 7, 8, -1)])
        early = make_events([(1, 1, 2, -1), (2, 3, 4, 1)])
        merged = concat_events([late, Events.empty(), early])
        assert merged.t.tolist() == [1, 2, 10, 11]
        assert merged.x.tolist() == [1, 3, 5, 7]
        assert merged.y.tolist() == [2, 4, 6, 8]
        assert merged.p.tolist() == [-1, 1, 1, -1]
