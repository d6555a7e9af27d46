import numpy as np
import pytest

from prevratio import (DataError, Dataset, EXPOSURE_COL, INTERCEPT_NAME,
                       ModelSpec, covariate_means, data, load_csv, write_csv)


class TestModelSpec:
    def test_predictors_order(self):
        spec = ModelSpec(outcome="y", exposure="x", covariates=("z", "w"))
        assert spec.predictors == ("x", "z", "w")

    def test_exposure_cannot_be_covariate(self):
        with pytest.raises(DataError):
            ModelSpec(outcome="y", exposure="x", covariates=("x",))

    def test_covariate_listed_once(self):
        with pytest.raises(DataError, match="covariate 'z' listed twice"):
            ModelSpec(outcome="y", exposure="x", covariates=("z", "w", "z"))

    def test_outcome_distinct_from_predictors(self):
        with pytest.raises(DataError):
            ModelSpec(outcome="y", exposure="y")
        with pytest.raises(DataError):
            ModelSpec(outcome="y", exposure="x", covariates=("y",))


class TestDataset:
    def make(self, **kw):
        base = dict(
            y=np.array([1.0, 0.0, 1.0]),
            X=np.column_stack([np.ones(3), np.array([1.0, 0.0, 1.0])]),
            column_names=(INTERCEPT_NAME, "x"),
        )
        base.update(kw)
        return Dataset(**base)

    def test_valid_roundtrip_fields(self):
        ds = self.make()
        assert ds.n == 3
        assert ds.exposure_name == "x"
        assert np.array_equal(ds.weights, np.ones(3))

    def test_outcome_must_be_binary(self):
        with pytest.raises(DataError):
            self.make(y=np.array([1.0, 0.5, 0.0]))

    def test_intercept_column_enforced(self):
        with pytest.raises(DataError):
            self.make(X=np.column_stack([np.zeros(3), np.ones(3)]))

    def test_weights_must_be_positive(self):
        with pytest.raises(DataError):
            self.make(weights=np.array([1.0, 0.0, 1.0]))

    def test_non_finite_design_names_column(self):
        z = np.array([0.5, np.nan, 1.0])
        with pytest.raises(DataError, match="'z'"):
            self.make(X=np.column_stack([np.ones(3), [1.0, 0.0, 1.0], z]),
                      column_names=(INTERCEPT_NAME, "x", "z"))
        with pytest.raises(DataError, match="'x'"):
            self.make(X=np.column_stack([np.ones(3), [1.0, np.inf, 1.0]]))

    def test_weights_must_be_finite(self):
        with pytest.raises(DataError, match="finite"):
            self.make(weights=np.array([1.0, np.inf, 1.0]))

    def test_resample_is_the_drawn_rows_in_row_order(self):
        # z is not 0/1, so there is no pattern table: the resample is the drawn
        # rows, in row order, each prior weight times its count
        ds = self.make(y=np.array([1.0, 0.0, 1.0, 0.0]),
                       X=np.column_stack([np.ones(4), [1.0, 0.0, 1.0, 1.0],
                                          [0.5, 1.0, 2.0, -1.5]]),
                       column_names=(INTERCEPT_NAME, "x", "z"),
                       weights=np.array([1.0, 2.0, 3.0, 0.5]))
        block = data._resample(ds, np.array([2, 0, 1, 3]))
        assert np.array_equal(block.y, [[1.0, 1.0, 0.0]])
        assert np.array_equal(block.X, ds.X[None, [0, 2, 3]])
        assert np.array_equal(block.weights, [[2.0, 3.0, 1.5]])
        assert block.column_names == ds.column_names

    def test_resample_is_the_drawn_patterns_in_key_order(self):
        # keys 2x + y: rows 0 and 2 are pattern 3, row 1 pattern 0 and row 3
        # pattern 1, which is not drawn; pattern 3 is weighted 1 * 2 + 3 * 1
        ds = self.make(y=np.array([1.0, 0.0, 1.0, 1.0]),
                       X=np.column_stack([np.ones(4), [1.0, 0.0, 1.0, 0.0]]),
                       weights=np.array([1.0, 2.0, 3.0, 4.0]))
        block = data._resample(ds, np.array([2, 1, 1, 0]))
        assert np.array_equal(block.y, [[0.0, 1.0]])
        assert np.array_equal(block.X, [[[1.0, 0.0], [1.0, 1.0]]])
        assert np.array_equal(block.weights, [[2.0, 5.0]])
        assert block.column_names == ds.column_names

    def test_name_count_must_match(self):
        with pytest.raises(DataError):
            self.make(column_names=(INTERCEPT_NAME, "x", "extra"))

    def test_arrays_frozen(self):
        ds = self.make()
        with pytest.raises(ValueError):
            ds.y[0] = 0.0
        with pytest.raises(ValueError):
            ds.X[0, 1] = 2.0

    def test_column_index(self):
        ds = self.make()
        assert ds.column_index("x") == EXPOSURE_COL
        with pytest.raises(DataError):
            ds.column_index("nope")

    def test_take_rows_resamples_with_weights(self):
        ds = self.make(weights=np.array([1.0, 2.0, 3.0]))
        sub = ds.take_rows(np.array([2, 2, 0]))
        assert np.array_equal(sub.y, [1.0, 1.0, 1.0])
        assert np.array_equal(sub.weights, [3.0, 3.0, 1.0])
        assert sub.column_names == ds.column_names

    def test_caller_array_is_copied(self):
        X = np.column_stack([np.ones(3), np.array([1.0, 0.0, 1.0])])
        ds = self.make(X=X)
        X[0, 1] = 0.0
        assert ds.X[0, 1] == 1.0
        # read-only, but writeable through its base
        view = X.view()
        view.setflags(write=False)
        ds = self.make(X=view)
        X[0, 1] = 1.0
        assert ds.X[0, 1] == 0.0

    def test_read_only_float_array_is_adopted(self):
        X = np.column_stack([np.ones(3), np.array([1.0, 0.0, 1.0])])
        X.setflags(write=False)
        assert self.make(X=X).X is X
        rows = X[:2]
        assert self.make(X=rows, y=np.array([1.0, 0.0])).X is rows
        ints = np.array([1, 0, 1])
        ints.setflags(write=False)
        assert self.make(y=ints).y.dtype == np.float64


class TestHelpers:
    def test_covariate_means_weighted(self):
        # values (0, 4) with weights (1, 3): mean (0*1 + 4*3)/4 = 3
        y = np.array([1.0, 0.0])
        X = np.column_stack([np.ones(2), np.array([1.0, 0.0]), np.array([0.0, 4.0])])
        ds = Dataset(y=y, X=X, column_names=(INTERCEPT_NAME, "x", "z"),
                     weights=np.array([1.0, 3.0]))
        means = covariate_means(ds)
        assert means[2] == pytest.approx(3.0, abs=1e-14)
        assert means[0] == 1.0


class TestCsv:
    def write(self, tmp_path, text, name="d.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_load_builds_design_in_order(self, tmp_path, toy_spec):
        path = self.write(tmp_path, "y,x,z\n1,1,0.5\n0,0,-1.5\n1,1,2.0\n")
        ds = load_csv(path, toy_spec)
        assert ds.column_names == (INTERCEPT_NAME, "x", "z")
        assert np.array_equal(ds.y, [1.0, 0.0, 1.0])
        assert np.array_equal(ds.X[:, 1], [1.0, 0.0, 1.0])
        assert np.array_equal(ds.X[:, 2], [0.5, -1.5, 2.0])
        assert ds.n_dropped == 0

    def test_load_adopts_the_parsed_array(self, tmp_path, toy_spec, monkeypatch):
        parsed = []

        def parse_columns(path, wanted):
            result = real(path, wanted)
            parsed.append(result[0])
            return result

        real = data._parse_columns
        monkeypatch.setattr(data, "_parse_columns", parse_columns)
        path = self.write(tmp_path, "y,x,z,w\n1,1,0.5,2\n0,0,-1.5,1\n1,1,2.0,3\n")
        ds = load_csv(path, toy_spec, weight_column="w")
        assert np.shares_memory(ds.X, parsed[0])
        assert np.shares_memory(ds.weights, parsed[0])
        assert np.array_equal(ds.X, [[1.0, 1.0, 0.5], [1.0, 0.0, -1.5], [1.0, 1.0, 2.0]])
        assert np.array_equal(ds.weights, [2.0, 1.0, 3.0])
        with pytest.raises(ValueError):
            parsed[0][0, 0] = 0.0

    def test_missing_column_named_in_error(self, tmp_path, toy_spec):
        path = self.write(tmp_path, "y,x\n1,1\n")
        with pytest.raises(DataError, match="z"):
            load_csv(path, toy_spec)

    def test_blank_fields_drop_rows_and_count(self, tmp_path, toy_spec):
        path = self.write(tmp_path, "y,x,z\n1,1,0.5\n0,,1.0\n1,0,\n0,1,2.0\n")
        ds = load_csv(path, toy_spec)
        assert ds.n == 2
        assert ds.n_dropped == 2

    def test_non_numeric_cites_line(self, tmp_path, toy_spec):
        path = self.write(tmp_path, "y,x,z\n1,1,0.5\n0,oops,1.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, toy_spec)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_cites_column_and_line(self, tmp_path, toy_spec, value):
        # the dropped line 3 shifts the bad row to line 5
        path = self.write(tmp_path,
                          f"y,x,z\n1,1,0.5\n0,,1.0\n1,0,2.0\n0,1,{value}\n")
        with pytest.raises(DataError, match=r"line 5: column 'z'"):
            load_csv(path, toy_spec)

    def test_non_finite_weight_cites_column(self, tmp_path, toy_spec):
        path = self.write(tmp_path, "y,x,z,w\n1,1,0.5,nan\n0,0,1.0,3\n")
        with pytest.raises(DataError, match=r"line 2: column 'w'"):
            load_csv(path, toy_spec, weight_column="w")

    def test_non_binary_outcome_cites_line(self, tmp_path, toy_spec):
        path = self.write(tmp_path, "y,x,z\n1,1,0.5\n2,0,1.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, toy_spec)

    def test_all_rows_dropped_is_error(self, tmp_path, toy_spec):
        path = self.write(tmp_path, "y,x,z\n1,1,\n0,,1.0\n")
        with pytest.raises(DataError):
            load_csv(path, toy_spec)

    def test_weight_column(self, tmp_path, toy_spec):
        path = self.write(tmp_path, "y,x,z,w\n1,1,0.5,2\n0,0,1.0,3\n")
        ds = load_csv(path, toy_spec, weight_column="w")
        assert np.array_equal(ds.weights, [2.0, 3.0])

    def test_write_then_load_is_bit_identical(self, tmp_path, toy_spec):
        rng = np.random.default_rng(8)
        n = 50
        X = np.column_stack([np.ones(n), (rng.random(n) < 0.5).astype(float),
                             rng.standard_normal(n)])
        ds = Dataset(y=(rng.random(n) < 0.3).astype(float), X=X,
                     column_names=(INTERCEPT_NAME, "x", "z"),
                     weights=rng.uniform(0.5, 2.0, n), spec=toy_spec)
        path = tmp_path / "round.csv"
        write_csv(ds, path)
        back = load_csv(path, toy_spec, weight_column="weight")
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.weights, ds.weights)
