import numpy as np
import pytest

from rotorsense.errors import ConfigError, DataError
from rotorsense.events import Events, concat_events
from rotorsense.preprocess import (
    DENSE_CELLS_FLOOR,
    DENSE_CELLS_PER_KEY,
    build_heatmaps,
    distinct_pixels,
    filter_noise,
    group_keys,
    robust_center,
    segment_propellers,
)
from propellers import make_spec
from rotorsense.events import SensorGeometry
from rotorsense.sim import NO_NOISE, NoiseSpec, simulate_propellers


def make_events(rows):
    t, x, y, p = zip(*rows)
    return Events(np.array(t, np.uint64), np.array(x), np.array(y), np.array(p, np.int8))


class TestHeatmaps:
    def test_single_bin_counts_and_fraction(self):
        events = make_events([(1, 7, 7, 1), (2, 7, 7, 1), (3, 7, 7, -1), (4, 7, 7, -1)])
        hm = build_heatmaps(events, (0, 10), bin_size=5)
        assert hm.count_map[1, 1] == 4
        assert hm.positive_fraction_map[1, 1] == 0.5
        assert hm.count_map.sum() == 4

    def test_empty_window_zero_maps(self):
        events = make_events([(100, 1, 1, 1)])
        hm = build_heatmaps(events, (0, 10), bin_size=5)
        assert hm.count_map.sum() == 0

    def test_bin_indexing_is_floor_xy(self):
        events = make_events([(1, 12, 3, 1)])
        hm = build_heatmaps(events, (0, 10), bin_size=5)
        assert hm.count_map[2, 0] == 1

    def test_blade_bins_dominate_noise_bins(self):
        """Bins on the blade annulus carry counts far above the mean of
        noise-only bins (measured from an origin-labeled simulation)."""
        noise = NoiseSpec(background_rate=10.0)
        spec = make_spec(center=(80.0, 80.0), blade_length=40.0)
        events, truth = simulate_propellers(
            [spec], noise, duration_us=5_000, tick_us=50, seed=5, geometry=SensorGeometry(320, 240)
        )
        window = (0, 4_999)
        hm = build_heatmaps(events, window, bin_size=5)
        idx = np.flatnonzero((events.t >= window[0]) & (events.t <= window[1]))
        w_events = events.select(idx)
        origins = truth.event_origin[idx]
        bx = w_events.x.astype(np.int64) // 5
        by = w_events.y.astype(np.int64) // 5
        blade_bins = set(zip(bx[origins >= 0].tolist(), by[origins >= 0].tolist()))
        noise_only = [
            hm.count_map[i, j]
            for i, j in zip(bx[origins < 0].tolist(), by[origins < 0].tolist())
            if (i, j) not in blade_bins
        ]
        noise_mean = np.mean(noise_only)
        blade_counts = [hm.count_map[i, j] for i, j in blade_bins]
        assert np.median(blade_counts) > 3 * noise_mean

    def test_invalid_bin_size(self):
        with pytest.raises(ConfigError):
            build_heatmaps(Events.empty(), (0, 1), 0)


class TestFilterNoise:
    def test_identical_balanced_bins_pass_through(self):
        rows = []
        t = 0
        for bx in range(4):
            for k in range(4):
                rows.append((t, bx * 5, 0, 1 if k % 2 else -1))
                t += 1
        events = make_events(rows)
        hm = build_heatmaps(events, (0, t), 5)
        kept = filter_noise(events, hm)
        assert kept == events

    def test_unipolar_bin_removed(self):
        rows = []
        t = 0
        # two balanced bins plus one unipolar burst
        for bx in range(2):
            for k in range(100):
                rows.append((t, bx * 5, 0, 1 if k % 2 else -1))
                t += 1
        for k in range(200):
            rows.append((t, 30, 0, 1))
            t += 1
        events = make_events(rows)
        hm = build_heatmaps(events, (0, t), 5)
        kept, mask = filter_noise(events, hm, return_mask=True)
        assert len(kept) == 200
        assert not mask[events.x == 30].any()

    def test_low_count_bin_removed(self):
        rows = [(t, 0, 0, 1 if t % 2 else -1) for t in range(300)]
        rows += [(300, 40, 0, 1), (301, 40, 0, -1)]  # 2-count balanced bin, mean/3 = 100
        events = make_events(rows)
        hm = build_heatmaps(events, (0, 301), 5)
        kept = filter_noise(events, hm)
        assert len(kept) == 300
        assert not (kept.x == 40).any()

    def test_efficacy_on_labeled_stream(self, noisy_3000):
        """>= 90% of noise events removed, <= 5% of blade events removed,
        windowed at >= two blade passes per pixel."""
        events, truth, _ = noisy_3000
        window_us = 25_000
        t0 = int(events.t[0])
        kept_by_origin = {True: 0, False: 0}
        total_by_origin = {True: 0, False: 0}
        while t0 <= int(events.t[-1]):
            win = (t0, t0 + window_us - 1)
            idx = np.flatnonzero((events.t >= win[0]) & (events.t <= win[1]))
            w_events = events.select(idx)
            origins = truth.event_origin[idx]
            if len(w_events):
                hm = build_heatmaps(w_events, win, 5)
                _, keep = filter_noise(w_events, hm, return_mask=True)
                for is_blade in (True, False):
                    sel = (origins >= 0) == is_blade
                    kept_by_origin[is_blade] += int(keep[sel].sum())
                    total_by_origin[is_blade] += int(sel.sum())
            t0 += window_us
        noise_removed = 1 - kept_by_origin[False] / total_by_origin[False]
        blade_removed = 1 - kept_by_origin[True] / total_by_origin[True]
        assert noise_removed >= 0.90
        assert blade_removed <= 0.05

    def test_idempotence_when_all_bins_pass(self):
        rows = []
        t = 0
        for bx in range(3):
            for k in range(40):
                rows.append((t, bx * 5, 0, 1 if k % 2 else -1))
                t += 1
        events = make_events(rows)
        hm = build_heatmaps(events, (0, t), 5)
        once = filter_noise(events, hm)
        hm2 = build_heatmaps(once, (0, t), 5)
        twice = filter_noise(once, hm2)
        assert twice == once


class TestSegmentation:
    @staticmethod
    def two_clouds():
        rng = np.random.default_rng(3)
        a = rng.normal((100, 100), 3, size=(200, 2))
        b = rng.normal((500, 500), 3, size=(200, 2))
        pts = np.vstack([a, b]).round().astype(int)
        t = np.arange(len(pts))
        return Events(t.astype(np.uint64), pts[:, 0], pts[:, 1], np.ones(len(pts), np.int8))

    def test_two_well_separated_clouds(self):
        tracks = segment_propellers(self.two_clouds(), 2)
        found = sorted(t.centroid for t in tracks)
        assert np.hypot(found[0][0] - 100, found[0][1] - 100) < 1.0
        assert np.hypot(found[1][0] - 500, found[1][1] - 500) < 1.0

    def test_k1_closed_form(self):
        events = self.two_clouds()
        tracks = segment_propellers(events, 1)
        assert len(tracks) == 1
        coords = np.column_stack([events.x, events.y]).astype(float)
        assert tracks[0].centroid == pytest.approx(tuple(coords.mean(axis=0)))
        assert len(tracks[0].members) == len(events)

    def test_four_simulated_propellers(self):
        centers = [(80.0, 60.0), (240.0, 60.0), (80.0, 180.0), (240.0, 180.0)]
        specs = [make_spec(center=c, phase=0.4 * i) for i, c in enumerate(centers)]
        events, truth = simulate_propellers(
            specs, NO_NOISE, duration_us=20_000, tick_us=50, seed=1, geometry=SensorGeometry(320, 240)
        )
        tracks = segment_propellers(events, 4)
        # each centroid within blade_width of its rotor center
        for track in tracks:
            best = min(np.hypot(track.centroid[0] - c[0], track.centroid[1] - c[1]) for c in centers)
            assert best < 5.0
        # zero cross-assignment: every event's track maps to its source rotor
        cents = np.array([t.centroid for t in tracks])
        track_owner = [int(np.argmin([np.hypot(c[0] - tc[0], c[1] - tc[1]) for c in centers])) for tc in cents]
        coords = np.column_stack([events.x, events.y]).astype(float)
        assign = np.argmin(((coords[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2), axis=1)
        owners = np.array([track_owner[a] for a in assign])
        assert int((owners != truth.event_origin).sum()) == 0

    def test_permutation_invariance(self):
        events = self.two_clouds()
        shuffled_idx = np.random.default_rng(7).permutation(len(events))
        shuffled = Events(
            events.t[shuffled_idx], events.x[shuffled_idx], events.y[shuffled_idx], events.p[shuffled_idx]
        )
        a = segment_propellers(events, 2)
        b = segment_propellers(shuffled, 2)
        for ta, tb in zip(a, b):
            assert ta.centroid == tb.centroid
            assert len(ta.members) == len(tb.members)

    def test_k_exceeding_distinct_points(self):
        events = make_events([(0, 1, 1, 1), (1, 1, 1, -1)])
        with pytest.raises(DataError, match="distinct"):
            segment_propellers(events, 2)

    def test_empty_stream_rejected(self):
        with pytest.raises(DataError):
            segment_propellers(Events.empty(), 1)

    def test_centroid_is_member_mean(self):
        events = self.two_clouds()
        for track in segment_propellers(events, 2):
            members = events.select(track.members)
            coords = np.column_stack([members.x, members.y]).astype(float)
            assert track.centroid == pytest.approx(tuple(coords.mean(axis=0)), abs=1e-9)


class TestRobustCenter:
    def test_ignores_uniform_contamination(self):
        rng = np.random.default_rng(1)
        theta = rng.uniform(0, 2 * np.pi, 2000)
        radius = rng.uniform(5, 30, 2000)
        blade_x = 80 + radius * np.cos(theta)
        blade_y = 80 + radius * np.sin(theta)
        noise = rng.uniform(0, 320, size=(300, 2))
        x = np.concatenate([blade_x, noise[:, 0]]).round().astype(int)
        y = np.concatenate([blade_y, noise[:, 1]]).round().astype(int)
        events = Events(np.arange(x.size, dtype=np.uint64), x, y, np.ones(x.size, np.int8))
        cx, cy = robust_center(events)
        assert np.hypot(cx - 80, cy - 80) < 1.0
        # the plain mean is dragged by design
        assert np.hypot(x.mean() - 80, y.mean() - 80) > 5.0


def _per_event_robust_center(events):
    """robust_center as a pass over every event: the reference the pixel
    version must reproduce bit for bit."""
    coords = np.column_stack([events.x, events.y]).astype(np.float64)
    center = np.median(coords, axis=0)
    for _ in range(3):
        radii = np.hypot(coords[:, 0] - center[0], coords[:, 1] - center[1])
        center = coords[radii <= 1.5 * np.median(radii)].mean(axis=0)
    return float(center[0]), float(center[1])


class TestRobustCenterEqualsPerEvent:
    @staticmethod
    def blade_with_noise(seed, n_blade, n_noise):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0, 2 * np.pi, n_blade)
        radius = rng.uniform(2, 25, n_blade)
        x = np.concatenate([60 + radius * np.cos(theta), rng.uniform(0, 640, n_noise)])
        y = np.concatenate([70 + radius * np.sin(theta), rng.uniform(0, 480, n_noise)])
        x, y = x.round().astype(int), y.round().astype(int)
        return Events(np.arange(x.size, dtype=np.uint64), x, y, np.ones(x.size, np.int8))

    @pytest.mark.parametrize("n_blade", [1, 2, 3, 4, 999, 1000, 5001, 5002])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_odd_and_even_counts_with_outliers(self, seed, n_blade):
        events = self.blade_with_noise(seed, n_blade, n_noise=n_blade // 5)
        assert robust_center(events) == _per_event_robust_center(events)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_duplicated_pixels(self, seed):
        # a few pixels each hit many times: medians fall inside runs of equal values
        rng = np.random.default_rng(seed)
        x = rng.choice([10, 11, 12, 40, 65535], size=4001, p=[0.3, 0.3, 0.2, 0.15, 0.05])
        y = rng.choice([0, 5, 6, 300], size=4001)
        events = Events(np.arange(4001, dtype=np.uint64), x, y, np.ones(4001, np.int8))
        for n in (4000, 4001):
            sub = events.select(np.arange(n))
            assert robust_center(sub) == _per_event_robust_center(sub)

    def test_single_event(self):
        events = make_events([(5, 300, 7, 1)])
        assert robust_center(events) == _per_event_robust_center(events) == (300.0, 7.0)


class TestDistinctPixels:
    def test_matches_counter_with_extreme_coordinates(self):
        from collections import Counter

        from rotorsense.preprocess import distinct_pixels

        rng = np.random.default_rng(11)
        # 0 and 65535 on both axes: a key x * 65535 + y maps (0, 65535) and
        # (1, 0) together, and a 16-bit key drops x entirely
        levels = np.array([0, 1, 2, 300, 65534, 65535])
        x = rng.choice(levels, 5000)
        y = rng.choice(levels, 5000)
        events = Events(np.arange(5000, dtype=np.uint64), x, y, np.ones(5000, np.int8))
        pixels, counts, inverse = distinct_pixels(events)
        expected = Counter(zip(x.tolist(), y.tolist()))
        assert [tuple(px) for px in pixels.tolist()] == sorted(expected)
        assert counts.tolist() == [expected[key] for key in sorted(expected)]
        assert np.array_equal(pixels[inverse], np.column_stack([x, y]))

    def test_empty_stream(self):
        from rotorsense.preprocess import distinct_pixels

        pixels, counts, inverse = distinct_pixels(Events.empty())
        assert pixels.shape == (0, 2) and counts.size == 0 and inverse.size == 0


def reference_distinct_pixels(events):
    """distinct_pixels as one np.unique of the packed key (x << 16) | y,
    which is unique for uint16 coordinates and orders like (x, y)."""
    key = (events.x.astype(np.uint32) << 16) | events.y
    keys, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    return np.column_stack([keys >> 16, keys & 0xFFFF]).astype(np.int64), counts, inverse


def assert_same_groups(got, want):
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


class TestGroupKeys:
    @pytest.mark.parametrize("n", [1, 7, 300, 5000])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_matches_unique_on_both_sides_of_the_bound(self, n, offset):
        size = DENSE_CELLS_PER_KEY * n + DENSE_CELLS_FLOOR + offset
        rng = np.random.default_rng(n)
        keys = rng.integers(0, size, n)
        keys[:2] = [size - 1, 0][:n]
        assert_same_groups(group_keys(keys, size), np.unique(keys, return_inverse=True, return_counts=True))

    def test_sorts_only_above_the_bound(self, monkeypatch):
        sorted_sizes = []
        unique = np.unique

        def spy(keys, **kwargs):
            sorted_sizes.append(keys.size)
            return unique(keys, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        bound = DENSE_CELLS_PER_KEY * 10 + DENSE_CELLS_FLOOR
        keys = np.arange(10) * 3
        group_keys(keys, bound)
        assert sorted_sizes == []
        group_keys(keys, bound + 1)
        assert sorted_sizes == [10]

    def test_empty_keys(self):
        assert_same_groups(group_keys(np.zeros(0, np.int64), 1), np.unique(np.zeros(0, np.int64), return_inverse=True, return_counts=True))


class TestDistinctPixelsAgainstTheSort:
    def test_rotor_windows(self, noisy_3000):
        events, _, _ = noisy_3000
        for t0 in range(0, 100_000, 25_000):
            window = events.time_slice(t0, t0 + 25_000)
            assert_same_groups(distinct_pixels(window), reference_distinct_pixels(window))

    def test_a_stray_event_takes_the_sort(self, noisy_3000, monkeypatch):
        # a rotor plus one event 60000 px away: a 12M-cell bounding box
        events, _, _ = noisy_3000
        window = events.time_slice(0, 15_000)
        stray = Events(np.array([7000], np.uint64), np.array([60000]), np.array([70]), np.array([1], np.int8))
        both = concat_events([window, stray])
        box = (int(both.x.max()) - int(both.x.min()) + 1) * (int(both.y.max()) - int(both.y.min()) + 1)
        assert box > DENSE_CELLS_PER_KEY * len(both) + DENSE_CELLS_FLOOR
        assert_same_groups(distinct_pixels(both), reference_distinct_pixels(both))

    def test_corner_pixels(self):
        x = np.array([0, 65535, 0, 65535, 0, 3, 3])
        y = np.array([0, 65535, 65535, 0, 0, 4, 4])
        events = Events(np.arange(7, dtype=np.uint64), x, y, np.ones(7, np.int8))
        assert_same_groups(distinct_pixels(events), reference_distinct_pixels(events))


def _per_event_lloyd(events, k, max_iters=100, tol=1e-3):
    """Lloyd's iteration over every event, as segment_propellers ran it
    before it moved to weighted distinct pixels: the reference it must
    match exactly. Returns converged centroids and member indices in
    (y, x) centroid order."""
    coords = np.column_stack([events.x, events.y]).astype(np.float64)
    order = np.lexsort((events.y, events.x, events.t))
    seed_coords = coords[order]
    centroids = np.empty((k, 2))
    centroids[0] = seed_coords[np.lexsort((seed_coords[:, 1], seed_coords[:, 0]))[0]]
    dist = np.sum((seed_coords - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        candidates = np.flatnonzero(dist == dist.max())
        pick = candidates[np.lexsort((seed_coords[candidates, 1], seed_coords[candidates, 0]))[0]]
        centroids[i] = seed_coords[pick]
        dist = np.minimum(dist, np.sum((seed_coords - centroids[i]) ** 2, axis=1))
    for _ in range(max_iters):
        assign = np.argmin(np.sum((coords[:, None, :] - centroids[None, :, :]) ** 2, axis=2), axis=1)
        new_centroids = np.array([coords[assign == c].mean(axis=0) for c in range(k)])
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < tol:
            break
    assign = np.argmin(np.sum((coords[:, None, :] - centroids[None, :, :]) ** 2, axis=2), axis=1)
    members = [np.flatnonzero(assign == c) for c in np.lexsort((centroids[:, 0], centroids[:, 1]))]
    return [coords[m].mean(axis=0) for m in members], members


class TestPixelSegmentation:
    @staticmethod
    def duplicated_clouds(seed, n=3000):
        # four integer clouds of a few px spread: most pixels carry many events
        rng = np.random.default_rng(seed)
        centers = np.array([(40, 50), (120, 45), (60, 140), (150, 150)])
        pts = (centers[rng.integers(0, 4, n)] + rng.normal(0, 2, (n, 2))).round().astype(int)
        return Events(np.arange(n, dtype=np.uint64), pts[:, 0], pts[:, 1], rng.choice([-1, 1], n).astype(np.int8))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_per_event_lloyd(self, k, seed):
        events = self.duplicated_clouds(seed)
        assert len(set(zip(events.x.tolist(), events.y.tolist()))) < len(events) // 5
        ref_centroids, ref_members = _per_event_lloyd(events, k)
        tracks = segment_propellers(events, k)
        assert len(tracks) == k
        for track, centroid, members in zip(tracks, ref_centroids, ref_members):
            assert track.centroid == (float(centroid[0]), float(centroid[1]))
            assert len(track.members) == members.size
            # t is the event index, so the track's timestamps are its members
            assert np.array_equal(events.t[track.members], members.astype(np.uint64))

    def test_tied_farthest_pixel_breaks_to_smallest_xy(self):
        # after the (0, 0) seed, (0, 10) and (10, 0) are equally far; the
        # second seed must be (0, 10), which leaves (10, 0) with (0, 0)
        events = make_events([(0, 0, 0, 1), (1, 10, 0, 1), (2, 0, 10, -1), (3, 0, 0, -1), (4, 10, 0, 1)])
        tracks = segment_propellers(events, 2)
        assert [t.centroid for t in tracks] == [(5.0, 0.0), (0.0, 10.0)]
        ref_centroids, _ = _per_event_lloyd(events, 2)
        assert [tuple(c) for c in ref_centroids] == [(5.0, 0.0), (0.0, 10.0)]

    def test_shuffled_input_identical_tracks(self):
        events = self.duplicated_clouds(5)
        idx = np.random.default_rng(9).permutation(len(events))
        shuffled = Events(events.t[idx], events.x[idx], events.y[idx], events.p[idx])
        a = segment_propellers(events, 3)
        b = segment_propellers(shuffled, 3)
        assert [t.centroid for t in a] == [t.centroid for t in b]
        assert [len(t.members) for t in a] == [len(t.members) for t in b]
        assert all(events.select(ta.members) == shuffled.select(tb.members) for ta, tb in zip(a, b))
