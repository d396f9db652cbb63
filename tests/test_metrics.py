import numpy as np
import pytest

from rotorsense.errors import DataError
from rotorsense.metrics import localization_error, rmae


class TestRmae:
    def test_half_percent_example(self):
        assert rmae(np.array([3000.0, 3030.0]), np.array([3000.0, 3000.0])) == pytest.approx(0.5)

    def test_exact_estimates_zero(self):
        assert rmae(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_single_pair_one_percent(self):
        assert rmae(np.array([2970.0]), np.array([3000.0])) == pytest.approx(1.0)

    def test_matches_brute_force(self, rng):
        est = rng.uniform(900, 1100, 50)
        gt = rng.uniform(950, 1050, 50)
        brute = sum(abs(e - g) / g for e, g in zip(est, gt)) / 50 * 100
        assert rmae(est, gt) == pytest.approx(brute, rel=1e-12)

    def test_nonpositive_truth_rejected(self):
        with pytest.raises(DataError):
            rmae(np.array([1.0]), np.array([0.0]))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            rmae(np.array([]), np.array([]))


class TestLocalizationError:
    @staticmethod
    def series(positions, t0=0, dt=1000):
        t = t0 + dt * np.arange(len(positions))
        return np.column_stack([t, np.asarray(positions, float)])

    def test_identical_series_zero(self):
        truth = self.series(np.zeros((20, 3)))
        mean, cdf = localization_error(truth, truth)
        assert mean == 0.0
        assert all(v == 0.0 for _, v in cdf)

    def test_constant_offset(self):
        truth = self.series(np.zeros((10, 3)))
        fused = truth.copy()
        fused[:, 3] += 1.0  # 1 m z offset
        mean, cdf = localization_error(fused, truth)
        assert mean == pytest.approx(1.0)
        assert cdf[-1] == (1.0, pytest.approx(1.0))

    def test_matches_scripted_recomputation(self, rng):
        """Independent brute-force recomputation over the same series
        agrees to 1e-9."""
        truth_pos = rng.normal(0, 5, (200, 3))
        fused_pos = truth_pos + rng.normal(0, 1, (200, 3))
        truth = self.series(truth_pos)
        fused = self.series(fused_pos, t0=3)  # small clock skew, aligns to nearest
        mean, cdf = localization_error(fused, truth)
        errors = []
        for row in fused:
            k = int(np.argmin(np.abs(truth[:, 0] - row[0])))
            errors.append(np.sqrt(((row[1:4] - truth[k, 1:4]) ** 2).sum()))
        assert mean == pytest.approx(np.mean(errors), abs=1e-9)
        for q, v in cdf:
            assert v == pytest.approx(np.quantile(errors, q), abs=1e-9)

    def test_cdf_has_ten_percent_steps(self):
        truth = self.series(np.zeros((30, 3)))
        _, cdf = localization_error(truth, truth)
        assert [round(q, 1) for q, _ in cdf] == [round(0.1 * k, 1) for k in range(1, 11)]

    def test_no_alignment_rejected(self):
        truth = self.series(np.zeros((5, 3)))
        fused = self.series(np.zeros((5, 3)), t0=10**9)
        with pytest.raises(DataError):
            localization_error(fused, truth)
