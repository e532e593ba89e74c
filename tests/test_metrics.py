import numpy as np
import pytest
import scipy.stats

from weldnet import cli
from weldnet.dataset import save_csv, synthesize_weld
from weldnet.errors import (
    AllTargetsZero,
    ConstantInput,
    EmptyInput,
    LengthMismatch,
    TooFewSamples,
)
from weldnet.metrics import (
    Z_975,
    align_table,
    confidence_interval,
    kendall,
    pe,
    pearson,
    rmse,
    spearman,
    zscore,
)


class TestRmse:
    def test_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rmse(y, y) == 0.0

    def test_unit_error(self):
        assert rmse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        y, yhat = rng.normal(size=100), rng.normal(size=100)
        want = (sum((a - b) ** 2 for a, b in zip(y, yhat)) / 100) ** 0.5
        assert abs(rmse(y, yhat) - want) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        y, yhat = rng.normal(size=30), rng.normal(size=30)
        assert rmse(y, yhat) == rmse(yhat, y)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(EmptyInput):
            rmse([], [])


class TestPe:
    def test_fifty_percent(self):
        assert pe([2.0], [1.0]) == (50.0, 0)

    def test_perfect(self):
        assert pe([3.0, 4.0], [3.0, 4.0]) == (0.0, 0)

    @pytest.mark.parametrize("c", [0.1, 1.0, 250.0])
    def test_scale_invariance(self, c):
        val, excl = pe([2.0 * c], [1.0 * c])
        assert abs(val - 50.0) < 1e-12 and excl == 0

    def test_zero_targets_excluded(self):
        val, excl = pe([0.0, 2.0], [5.0, 1.0])
        assert val == 50.0 and excl == 1

    def test_all_zero(self):
        with pytest.raises(AllTargetsZero):
            pe([0.0, 0.0], [1.0, 1.0])

    def test_negative_target_uses_absolute(self):
        val, _ = pe([-2.0], [-1.0])
        assert val == 50.0


class TestConfidenceInterval:
    def test_constant_samples(self):
        assert confidence_interval([4.0, 4.0, 4.0]) == (4.0, 4.0)

    def test_two_point_forced(self):
        low, high = confidence_interval([0.0, 2.0])
        assert abs(low - (1.0 - Z_975)) < 1e-12
        assert abs(high - (1.0 + Z_975)) < 1e-12

    def test_contains_mean(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=25)
        low, high = confidence_interval(s)
        assert low <= s.mean() <= high

    def test_replication_width_follows_sample_std(self):
        # replicating values k times shrinks the width by
        # sqrt(k (n-1) / (kn-1)) / sqrt(k), not exactly 1/sqrt(k),
        # because the interval uses the sample (ddof=1) std
        rng = np.random.default_rng(3)
        s = rng.normal(size=10)
        n, k = 10, 4
        low1, high1 = confidence_interval(s)
        lowk, highk = confidence_interval(np.tile(s, k))
        width1, widthk = high1 - low1, highk - lowk
        factor = np.sqrt(k * (n - 1) / (k * n - 1)) / np.sqrt(k)
        assert abs(widthk - width1 * factor) < 1e-9

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            confidence_interval([1.0])

    def test_unsupported_level(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], level=0.9)


class TestCorrelations:
    def test_perfect_linear(self):
        x = np.arange(10.0)
        y = 2 * x + 1
        r, p = pearson(x, y)
        assert abs(r - 1.0) < 1e-12 and p < 1e-10
        assert abs(spearman(x, y) - 1.0) < 1e-12
        assert abs(kendall(x, y) - 1.0) < 1e-12

    def test_monotone_cubic(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        y = x ** 3
        assert spearman(x, y) == 1.0
        r, _ = pearson(x, y)
        assert r < 1.0
        assert kendall(x, y) == 1.0

    def test_perfect_inverse(self):
        x = np.arange(8.0)
        r, _ = pearson(x, -x)
        assert abs(r + 1.0) < 1e-12
        assert abs(spearman(x, -x) + 1.0) < 1e-12
        assert abs(kendall(x, -x) + 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_against_scipy(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=30), rng.normal(size=30)
        r, p = pearson(x, y)
        r_sp, p_sp = scipy.stats.pearsonr(x, y)
        assert abs(r - r_sp) < 1e-12 and abs(p - p_sp) < 1e-9
        assert abs(spearman(x, y)
                   - scipy.stats.spearmanr(x, y).statistic) < 1e-12
        tied_x = np.round(x, 0)
        tied_y = np.round(y, 0)
        assert abs(kendall(tied_x, tied_y)
                   - scipy.stats.kendalltau(tied_x, tied_y).statistic) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=40), rng.normal(size=40)
        assert abs(spearman(np.exp(x), y) - spearman(x, y)) < 1e-12
        assert abs(kendall(x, y ** 3) - kendall(x, y)) < 1e-12

    def test_large_sample_noise_uncorrelated(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x, y = rng.normal(size=500), rng.normal(size=500)
            r, _ = pearson(x, y)
            assert abs(r) < 0.2

    def test_errors(self):
        with pytest.raises(TooFewSamples):
            pearson([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ConstantInput):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConstantInput):
            kendall([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestZscore:
    def test_three_point(self):
        np.testing.assert_allclose(zscore([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0],
                                   atol=1e-15)

    def test_moments(self):
        rng = np.random.default_rng(5)
        z = zscore(rng.normal(size=60))
        assert abs(z.mean()) < 1e-12
        assert abs(z.std(ddof=1) - 1.0) < 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=20)
        np.testing.assert_allclose(zscore(3.5 * v + 2.0), zscore(v), atol=1e-10)

    def test_errors(self):
        with pytest.raises(ConstantInput):
            zscore([2.0, 2.0])
        with pytest.raises(TooFewSamples):
            zscore([1.0])


class TestReport:
    def test_text_and_csv(self, tmp_path, capsys):
        data_path = tmp_path / "weld.csv"
        save_csv(synthesize_weld(30, 0.05, seed=4), data_path)
        assert cli.main(["eval", "--data", str(data_path), "--ner-train",
                         str(data_path), "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / "eval_report.txt").read_text()
        assert "penetration" in text and "n/a" in text
        assert capsys.readouterr().out == text
        lines = (tmp_path / "eval_report.csv").read_text().splitlines()
        assert lines[0].startswith("target,rmse")
        assert len(lines) == 3

    def test_align_table_cell_rule(self):
        text = align_table(["a", "b", "c", "d"],
                           [["x", 3, 0.1234567891, None], ["yy", 10, 2.0, 1e-9]])
        assert text.splitlines() == [
            "a   b   c         d",
            "--  --  --------  -----",
            "x   3   0.123457  n/a",
            "yy  10  2         1e-09"]
