import csv

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weldnet.dataset import (
    Dataset,
    append_bias,
    bead_surfaces,
    combine,
    expand_features,
    load_csv,
    prepare_features,
    save_csv,
    split,
    standardize,
    synthesize_weld,
    write_csv,
)
from weldnet.errors import (
    ConstantColumn,
    DegreeOutOfRange,
    EmptyDataset,
    IoError,
    MissingHeader,
    ParseError,
    SchemaMismatch,
    TooFewRows,
    UnprefixedColumn,
)


def random_dataset(rng, m=20, d=3, n=2):
    return Dataset(rng.normal(size=(m, d)), rng.normal(size=(m, n)),
                   [f"f{j}" for j in range(d)], [f"t{j}" for j in range(n)])


class TestLoadCsv:
    def test_minimal_file(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("iwp:v,iwp:i,dwp:p\n1,2,3\n")
        data = load_csv(p)
        assert data.d == 2 and data.n_targets == 1 and data.m == 1
        assert data.feature_names == ["v", "i"]
        assert data.target_names == ["p"]
        np.testing.assert_array_equal(data.features, [[1.0, 2.0]])
        np.testing.assert_array_equal(data.targets, [[3.0]])

    def test_header_only_is_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("iwp:v,dwp:p\n")
        with pytest.raises(EmptyDataset):
            load_csv(p)

    def test_empty_file_missing_header(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("")
        with pytest.raises(MissingHeader):
            load_csv(p)

    def test_numeric_first_line_missing_header(self, tmp_path):
        p = tmp_path / "noheader.csv"
        p.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(MissingHeader):
            load_csv(p)

    def test_unprefixed_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("iwp:v,penetration\n1,2\n")
        with pytest.raises(UnprefixedColumn) as err:
            load_csv(p)
        assert err.value.name == "penetration"

    def test_parse_error_locates_cell(self, tmp_path):
        p = tmp_path / "cell.csv"
        p.write_text("iwp:v,dwp:p\n1,2\n3,oops\n")
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert err.value.row == 2 and err.value.col == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_is_parse_error(self, tmp_path, cell):
        p = tmp_path / "nan.csv"
        p.write_text(f"iwp:v,dwp:p\n1,2\n3,4\n{cell},5\n")
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert err.value.row == 3 and err.value.col == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_csv(tmp_path / "nope.csv")

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"iwp:v,dwp:p\r\n1,2\r\n")
        data = load_csv(p)
        assert data.m == 1

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        data = Dataset(rng.normal(size=(45, 3)) * 1e3,
                       rng.normal(size=(45, 2)) * 1e-3,
                       ["v", "i", "s"], ["p", "w"])
        p = tmp_path / "rt.csv"
        save_csv(data, p)
        back = load_csv(p)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.targets, data.targets)
        assert back.feature_names == data.feature_names
        assert back.target_names == data.target_names


# A lone "\r" is left out of the text cells: with "\n" as line terminator
# csv.writer does not quote it, so a CSV reader would split the row there
# (the CSV writers before write_csv wrote it bare as well).
CELLS = st.one_of(
    st.floats(allow_nan=False), st.integers(), st.none(),
    st.text(st.characters(blacklist_characters="\r")))


class TestWriteCsv:
    @given(rows=st.lists(st.lists(CELLS, min_size=1, max_size=5), max_size=8))
    @example(rows=[[-0.0, 5e-324, 1e308, float("inf"), float("-inf")],
                   [0, -7, None, "a,b", 'say "hi"']])
    def test_cells_round_trip(self, tmp_path_factory, rows):
        p = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(p, ["h1", "h2"], iter(rows))
        with open(p, newline="", encoding="utf-8") as fh:
            back = list(csv.reader(fh))
        assert back[0] == ["h1", "h2"]
        assert len(back) == len(rows) + 1
        for row, got in zip(rows, back[1:]):
            assert len(got) == len(row)
            for want, cell in zip(row, got):
                if want is None:
                    assert cell == ""
                elif isinstance(want, float):
                    assert cell == repr(want)
                    assert float(cell).hex() == want.hex()
                elif isinstance(want, int):
                    assert cell == str(want)
                else:
                    assert cell == want

    def test_plain_cells_unquoted(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b", "c"], [("x", 1, 0.1), (None, -0.0, 1e-300)])
        assert p.read_bytes() == b"a,b,c\nx,1,0.1\n,-0.0,1e-300\n"

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoError):
            write_csv(tmp_path / "no_dir" / "t.csv", ["a"], [[1]])


class TestDatasetInvariants:
    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros((4, 1)), ["a", "b"], ["t"])

    def test_rejects_nan(self):
        feats = np.zeros((2, 1))
        feats[0, 0] = np.nan
        with pytest.raises(ValueError):
            Dataset(feats, np.zeros((2, 1)), ["a"], ["t"])

    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.zeros((2, 1)), ["a"], ["t"])


class TestStandardize:
    def test_two_point_column(self):
        data = Dataset([[1.0], [3.0]], [[0.0], [0.0]], ["x"], ["t"])
        out, scaler = standardize(data)
        np.testing.assert_allclose(out.features[:, 0],
                                   [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)
        assert scaler.means[0] == 2.0
        np.testing.assert_allclose(scaler.stds[0], np.sqrt(2), atol=1e-15)

    def test_idempotent_on_standardized(self):
        rng = np.random.default_rng(0)
        data = random_dataset(rng, m=40)
        once, _ = standardize(data)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-10)

    def test_moments_against_two_pass_oracle(self):
        rng = np.random.default_rng(1)
        data = random_dataset(rng, m=50, d=3)
        out, scaler = standardize(data)
        for j in range(3):
            col = data.features[:, j]
            mean = sum(col) / len(col)          # naive accumulation
            var = sum((c - mean) ** 2 for c in col) / (len(col) - 1)
            assert abs(scaler.means[j] - mean) < 1e-10
            assert abs(scaler.stds[j] - np.sqrt(var)) < 1e-10
            assert abs(out.features[:, j].mean()) < 1e-10
            assert abs(out.features[:, j].std(ddof=1) - 1.0) < 1e-10

    def test_targets_untouched(self):
        rng = np.random.default_rng(2)
        data = random_dataset(rng)
        out, _ = standardize(data)
        np.testing.assert_array_equal(out.targets, data.targets)

    def test_constant_column(self):
        data = Dataset([[1.0, 5.0], [2.0, 5.0]], [[0.0], [0.0]],
                       ["a", "b"], ["t"])
        with pytest.raises(ConstantColumn) as err:
            standardize(data)
        assert err.value.index == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_invert_recovers_original(self, seed):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, m=30)
        out, scaler = standardize(data)
        np.testing.assert_allclose(out.features * scaler.stds + scaler.means,
                                   data.features, atol=1e-10)


class TestPolynomialExpand:
    def test_degree_zero_is_identity(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng)
        assert expand_features(data.features, 0) is data.features

    def test_degree_one_squares(self):
        out = expand_features(np.array([[2.0, 3.0]]), 1)
        np.testing.assert_array_equal(out, [[2, 3, 4, 9]])

    def test_degree_three_elementwise_power_oracle(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng, m=10, d=2)
        out = expand_features(data.features, 3)
        assert out.shape == (10, 2 * 4)
        for e in range(2, 5):
            for j in range(2):
                col = out[:, 2 * (e - 1) + j]
                for i in range(10):
                    assert col[i] == data.features[i, j] ** e

    def test_targets_never_mutated(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng)
        feats, targets = data.features.copy(), data.targets.copy()
        _, (out,) = prepare_features(data.features, [4], fit=True)
        np.testing.assert_array_equal(data.features, feats)
        np.testing.assert_array_equal(data.targets, targets)
        assert out.shape == (data.m, 5 * data.d)

    @pytest.mark.parametrize("degree", [-1, 7])
    def test_degree_out_of_range(self, degree):
        rng = np.random.default_rng(6)
        with pytest.raises(DegreeOutOfRange):
            expand_features(random_dataset(rng).features, degree)


class TestPrepareFeatures:
    def test_fit_matches_standardize_then_expand(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng, m=30)
        scaled, want_scaler = standardize(data)
        scaler, inputs = prepare_features(data.features, [0, 2], fit=True)
        np.testing.assert_array_equal(scaler.means, want_scaler.means)
        np.testing.assert_array_equal(scaler.stds, want_scaler.stds)
        np.testing.assert_array_equal(inputs[0], scaled.features)
        np.testing.assert_array_equal(inputs[1],
                                      expand_features(scaled.features, 2))

    def test_given_scaler_is_applied_not_refitted(self):
        rng = np.random.default_rng(8)
        train, other = random_dataset(rng), random_dataset(rng, m=5)
        scaler, _ = prepare_features(train.features, [0], fit=True)
        same, (out,) = prepare_features(other.features, [1], scaler)
        assert same is scaler
        np.testing.assert_array_equal(
            out, expand_features(scaler.apply(other.features), 1))

    def test_no_scaler_passes_raw_rows(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng)
        scaler, (out,) = prepare_features(data.features, [0])
        assert scaler is None and out is data.features


class TestAppendBias:
    def test_two_rows(self):
        np.testing.assert_array_equal(append_bias(np.array([[5.0], [6.0]])),
                                      [[1, 5], [1, 6]])

    def test_zero_width(self):
        np.testing.assert_array_equal(append_bias(np.zeros((1, 0))), [[1.0]])

    def test_slice_equality(self):
        rng = np.random.default_rng(7)
        mat = rng.normal(size=(7, 4))
        out = append_bias(mat)
        assert (out[:, 0] == 1.0).all()
        np.testing.assert_array_equal(out[:, 1:], mat)


class TestSplit:
    def test_counts(self):
        rng = np.random.default_rng(8)
        tr, te = split(random_dataset(rng, m=10), 0.2, seed=0)
        assert tr.m == 8 and te.m == 2

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, m=17)
        a = split(data, 0.3, seed=5)
        b = split(data, 0.3, seed=5)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    @pytest.mark.parametrize("seed", range(5))
    def test_partition_multiset(self, seed):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, m=23)
        tr, te = split(data, 0.25, seed=seed)
        stacked = np.vstack([tr.features, te.features])
        key = np.lexsort(stacked.T)
        orig_key = np.lexsort(data.features.T)
        np.testing.assert_array_equal(stacked[key], data.features[orig_key])
        assert tr.m + te.m == data.m

    def test_too_few_rows(self):
        data = Dataset([[1.0]], [[2.0]], ["a"], ["t"])
        with pytest.raises(TooFewRows):
            split(data, 0.5, seed=0)

    def test_tiny_fraction_clamped_to_one(self):
        rng = np.random.default_rng(10)
        tr, te = split(random_dataset(rng, m=5), 0.01, seed=0)
        assert te.m == 1 and tr.m == 4


class TestCombine:
    def test_single_identity(self):
        rng = np.random.default_rng(11)
        data = random_dataset(rng)
        assert combine([data]) is data

    def test_row_counts_add(self):
        rng = np.random.default_rng(12)
        a = random_dataset(rng, m=3)
        b = random_dataset(rng, m=5)
        assert combine([a, b]).m == 8

    def test_index_bookkeeping(self):
        rng = np.random.default_rng(13)
        a = random_dataset(rng, m=4)
        b = random_dataset(rng, m=6)
        out = combine([a, b])
        for i in range(b.m):
            np.testing.assert_array_equal(out.features[a.m + i], b.features[i])
            np.testing.assert_array_equal(out.targets[a.m + i], b.targets[i])

    def test_schema_mismatch(self):
        rng = np.random.default_rng(14)
        a = random_dataset(rng)
        b = Dataset(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)),
                    ["x", "y", "z"], ["t0", "t1"])
        with pytest.raises(SchemaMismatch):
            combine([a, b])


class TestSynthesizeWeld:
    def test_deterministic(self):
        a = synthesize_weld(20, 0.0, seed=4)
        b = synthesize_weld(20, 0.0, seed=4)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_noise_free_targets_equal_surfaces(self):
        data = synthesize_weld(50, 0.0, seed=1)
        pen, wid = bead_surfaces(data.features[:, 0], data.features[:, 1],
                                 data.features[:, 2])
        np.testing.assert_array_equal(data.targets[:, 0], pen)
        np.testing.assert_array_equal(data.targets[:, 1], wid)

    def test_feature_ranges(self):
        data = synthesize_weld(300, 0.1, seed=2)
        v, i, s = data.features.T
        assert v.min() >= 20 and v.max() <= 40
        assert i.min() >= 100 and i.max() <= 300
        assert s.min() >= 2 and s.max() <= 10
        assert (data.targets > 0).all()

    def test_residual_std(self):
        data = synthesize_weld(500, 0.05, seed=3)
        pen, wid = bead_surfaces(*data.features.T)
        for truth, col in [(pen, 0), (wid, 1)]:
            resid = data.targets[:, col] - truth
            assert 0.04 <= resid.std(ddof=1) <= 0.06
