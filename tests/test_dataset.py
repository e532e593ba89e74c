import csv

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import csv_body_loop, csv_writer_bytes
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
    BadColumnName,
    ConstantColumn,
    DegreeOutOfRange,
    DuplicateColumn,
    EmptyDataset,
    IoError,
    MissingHeader,
    NonFiniteInput,
    ParseError,
    SchemaMismatch,
    TooFewRows,
    UnprefixedColumn,
)


def random_dataset(rng, m=20, d=3, n=2):
    return Dataset(rng.normal(size=(m, d)), rng.normal(size=(m, n)),
                   [f"f{j}" for j in range(d)], [f"t{j}" for j in range(n)])


BODY_CELLS = st.sampled_from(["1", "-2.5", "1e3", "-0.0", " 3 ", "4\t", "1_0",
                              "\u0661", "\uff12", "", "oops", "nan", "inf",
                              "-Infinity"])


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

    @pytest.mark.parametrize("header, name", [
        ("iwp:a,iwp:a,dwp:y", "iwp:a"), ("iwp:a,dwp:y,iwp:b,dwp:y", "dwp:y")])
    def test_duplicate_column(self, tmp_path, header, name):
        p = tmp_path / "dup.csv"
        p.write_text(header + "\n" + ",".join("1" * len(header.split(","))) + "\n")
        with pytest.raises(DuplicateColumn) as err:
            load_csv(p)
        assert err.value.name == name

    def test_feature_and_target_may_share_a_name(self, tmp_path):
        p = tmp_path / "same.csv"
        p.write_text("iwp:a,dwp:a\n1,2\n")
        data = load_csv(p)
        assert data.feature_names == ["a"] and data.target_names == ["a"]

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

    def test_non_utf8_file_is_io_error_naming_it(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"iwp:a,dwp:b\n1,\xff\n")
        with pytest.raises(IoError) as err:
            load_csv(p)
        assert str(err.value).startswith(f"cannot read {p}: 'utf-8' codec")

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"iwp:v,dwp:p\r\n1,2\r\n")
        data = load_csv(p)
        assert data.m == 1

    @given(lines=st.lists(st.lists(BODY_CELLS, min_size=3, max_size=3)
                          | st.lists(BODY_CELLS, max_size=5), min_size=1,
                          max_size=6).map(lambda rows: [",".join(r) for r in rows]),
           crlf=st.booleans())
    @example(lines=["1,2,3", " 4 ,5\t,-0.0", "7,oops,8,9", "1,nan,2"], crlf=True)
    @example(lines=["1,2,3", "4,1_0,6"], crlf=False)
    @example(lines=["1,\u0661,3", "4,5,\uff12"], crlf=True)
    @example(lines=["1,2,3\u00a0"], crlf=False)
    def test_same_error_as_cell_loop(self, tmp_path_factory, lines, crlf):
        """The one-pass parse reads what the cell-by-cell loop reads, and
        raises the ParseError it raises (same row, column and cell)."""
        p = tmp_path_factory.mktemp("body") / "b.csv"
        end = "\r\n" if crlf else "\n"
        p.write_bytes(end.join(["iwp:a,iwp:b,dwp:c", *lines, ""]).encode())
        body = list(lines)
        while body and body[-1] == "":
            body.pop()
        if not body:
            with pytest.raises(EmptyDataset):
                load_csv(p)
            return
        try:
            want = csv_body_loop(body, 3)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                load_csv(p)
            assert (err.value.row, err.value.col, str(err.value)) == \
                (exc.row, exc.col, str(exc))
            return
        data = load_csv(p)
        assert np.hstack([data.features, data.targets]).tobytes() == want.tobytes()

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


EDGE_FLOATS = [-0.0, 5e-324, 1e308, float("inf"), float("-inf"), float("nan"),
               0.1, -1e-300]
CELLS = st.one_of(
    st.floats(allow_nan=False), st.integers(), st.none(), st.text())
SPECIAL_TEXT = st.lists(st.sampled_from(["a", ",", '"', "\n", "\r"]),
                        max_size=4).map("".join)


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

    def test_carriage_return_quoted(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a\rb", "c"], [("x\r", 1.5)])
        assert p.read_bytes() == b'"a\rb",c\n"x\r",1.5\n'

    @given(rows=st.lists(st.lists(st.one_of(CELLS, SPECIAL_TEXT), min_size=1,
                                  max_size=5), max_size=8))
    @example(rows=[[1.5, -7, None, ",", '"', "\n", "\r", "a\r\nb"]])
    def test_same_bytes_as_row_by_row_writer(self, tmp_path_factory, rows):
        """Every cell kind (float, int, None, and str with a comma, a quote,
        a line feed or a lone carriage return) writes the bytes of a
        "\r\n"-terminated csv.writer whose rows are cut back to "\n"."""
        p = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(p, ["h\r", "h,2"], iter(rows))
        assert p.read_bytes() == csv_writer_bytes(["h\r", "h,2"], rows)

    @given(arr=arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 5)),
                      elements=st.floats() | st.sampled_from(EDGE_FLOATS)))
    @example(arr=np.array([EDGE_FLOATS]))
    def test_float_array_same_bytes_as_row_writer(self, tmp_path_factory, arr):
        p = tmp_path_factory.mktemp("csv") / "t.csv"
        header = [f"h{j}" for j in range(arr.shape[1])]
        write_csv(p, header, arr)
        assert p.read_bytes() == csv_writer_bytes(header, arr.tolist())


class TestSaveCsvNames:
    @pytest.mark.parametrize("name", ["p\rq", "p\nq", "p,q", 'p"q', "p ",
                                      "p\t"])
    def test_unreadable_name_rejected(self, tmp_path, name):
        rng = np.random.default_rng(0)
        for feats, targs in ((["f", name], ["t"]), (["f"], [name])):
            data = Dataset(rng.normal(size=(3, len(feats))),
                           rng.normal(size=(3, len(targs))), feats, targs)
            with pytest.raises(BadColumnName) as exc:
                save_csv(data, tmp_path / "d.csv")
            assert exc.value.name == name
            assert not (tmp_path / "d.csv").exists()

    @given(names=st.lists(st.text(min_size=1), min_size=2, max_size=3,
                          unique=True))
    def test_names_round_trip_or_are_rejected(self, tmp_path_factory, names):
        data = Dataset(np.arange(4.0).reshape(2, 2) + [[0, 5], [1, 7]],
                       np.ones((2, len(names) - 1)), ["f0", names[0]],
                       names[1:])
        p = tmp_path_factory.mktemp("names") / "d.csv"
        try:
            save_csv(data, p)
        except BadColumnName:
            return
        back = load_csv(p)
        assert back.feature_names == data.feature_names
        assert back.target_names == data.target_names


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

    @pytest.mark.parametrize("column", [[1e200, -1e200, 3e200],
                                        [1.7e308, 1.7e308, 1.0]])
    def test_spread_beyond_float_range(self, column):
        """A column whose squares or sum overflow has no finite std, which
        a saved model could not hold."""
        data = Dataset(np.column_stack([[1.0, 2.0, 4.0], column]),
                       [[0.0], [0.0], [1.0]], ["a", "b"], ["t"])
        with pytest.raises(NonFiniteInput, match="feature column 1"):
            standardize(data)

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
