import math

import numpy as np
import pytest

from prevratio import (DataError, Dataset, DegenerateDenominatorError,
                       INTERCEPT_NAME, StratifiedTable, crude_pr, crude_table,
                       fit_glm, mantel_haenszel_pr, schouten_expand,
                       schouten_pr, stratified_from_dataset)
from conftest import table_dataset


def stratify_by_row_loop(ds):
    """Reference cross-tabulation: one dict entry per covariate pattern."""
    exposure, covs = ds.X[:, 1], ds.X[:, 2:]
    patterns = {}
    for i in range(ds.n):
        cells = patterns.setdefault(tuple(covs[i]), [0.0, 0.0, 0.0, 0.0])
        w = float(ds.weights[i])
        if exposure[i] == 1.0:
            cells[0 if ds.y[i] == 1.0 else 1] += w
        else:
            cells[2 if ds.y[i] == 1.0 else 3] += w
    return tuple(tuple(patterns[key]) for key in sorted(patterns))


def stratify_by_lexsort(ds):
    """Reference stratifier with one sort key per covariate, as it once was."""
    exposure, covs = ds.X[:, 1], ds.X[:, 2:]
    order = np.lexsort(covs.T[::-1]) if covs.shape[1] else np.arange(ds.n)
    ranked = covs[order]
    starts = np.ones(ds.n, dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    stratum = np.empty(ds.n, dtype=np.intp)
    stratum[order] = np.cumsum(starts) - 1
    cell = np.where(exposure == 1.0, 0, 2) + (ds.y != 1.0)
    sums = np.bincount(4 * stratum + cell, weights=ds.weights,
                       minlength=4 * int(starts.sum()))
    return tuple(tuple(row) for row in sums.reshape(-1, 4).tolist())


class TestStratifiedTable:
    def test_requires_a_stratum(self):
        with pytest.raises(DataError):
            StratifiedTable(strata=())

    def test_rejects_negative_and_empty(self):
        with pytest.raises(DataError):
            StratifiedTable(strata=((1.0, -2.0, 3.0, 4.0),))
        with pytest.raises(DataError):
            StratifiedTable(strata=((0.0, 0.0, 0.0, 0.0),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_naming_the_stratum(self, value):
        with pytest.raises(DataError, match="stratum 1 has a non-finite count"):
            StratifiedTable(strata=((1.0, 2.0, 3.0, 4.0), (1.0, 2.0, value, 4.0)))

    def test_pooled_sums_cells(self):
        t = StratifiedTable(strata=((1.0, 2.0, 3.0, 4.0), (10.0, 20.0, 30.0, 40.0)))
        assert t.pooled().strata == ((11.0, 22.0, 33.0, 44.0),)

    def test_from_csv(self, tmp_path):
        path = tmp_path / "strata.csv"
        path.write_text("stratum,a,b,c,d\n1,10,90,5,95\n2,30,20,15,35\n")
        t = StratifiedTable.from_csv(path)
        assert t.strata == ((10.0, 90.0, 5.0, 95.0), (30.0, 20.0, 15.0, 35.0))

    def test_from_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("stratum,a,b,c\n1,1,2,3\n")
        with pytest.raises(DataError, match="d"):
            StratifiedTable.from_csv(path)

    def test_from_csv_non_numeric_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("stratum,a,b,c,d\n1,1,2,3,4\n2,x,2,3,4\n")
        with pytest.raises(DataError, match="line 3"):
            StratifiedTable.from_csv(path)

    def test_from_csv_non_finite_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("stratum,a,b,c,d\n1,1,2,3,4\n2,1,2,nan,4\n")
        with pytest.raises(DataError, match="line 3: column 'c' is nan, not a finite number"):
            StratifiedTable.from_csv(path)

    def test_from_csv_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty.csv: file is empty"):
            StratifiedTable.from_csv(path)

    def test_from_csv_reads_the_first_of_two_like_named_columns(self, tmp_path):
        # as load_csv does; blank lines hold no stratum
        path = tmp_path / "strata.csv"
        path.write_text("stratum,a,b,c,d,a\n1,10,90,5,95,0\n\n2,30,20,15,35,0\n\n")
        assert StratifiedTable.from_csv(path).strata == ((10.0, 90.0, 5.0, 95.0),
                                                         (30.0, 20.0, 15.0, 35.0))


class TestCrudePr:
    def test_hand_formula(self):
        est = crude_pr(StratifiedTable(((40.0, 60.0, 20.0, 80.0),)))
        assert est.point == pytest.approx(2.0, abs=1e-14)
        assert est.interval.se == pytest.approx(math.sqrt(0.055), abs=1e-14)
        z = 1.959963984540054
        assert est.interval.lower == pytest.approx(
            2.0 * math.exp(-z * math.sqrt(0.055)), rel=1e-9)

    def test_equal_proportions_give_unit_ratio(self):
        est = crude_pr(StratifiedTable(((10.0, 30.0, 5.0, 15.0),)))
        assert est.point == pytest.approx(1.0, abs=1e-14)

    def test_zero_unexposed_cases_is_error(self):
        with pytest.raises(DegenerateDenominatorError):
            crude_pr(StratifiedTable(((5.0, 5.0, 0.0, 10.0),)))

    def test_zero_exposed_cases_is_error(self):
        with pytest.raises(DegenerateDenominatorError):
            crude_pr(StratifiedTable(((0.0, 10.0, 5.0, 5.0),)))

    def test_empty_margin_is_error(self):
        with pytest.raises(DataError):
            crude_pr(StratifiedTable(((0.0, 0.0, 5.0, 5.0),)))

    def test_multi_stratum_input_rejected(self):
        t = StratifiedTable(((1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 2.0, 2.0)))
        with pytest.raises(DataError):
            crude_pr(t)


class TestMantelHaenszel:
    def test_single_stratum_identical_to_crude(self):
        t = StratifiedTable(((7.0, 11.0, 3.0, 13.0),))
        mh = mantel_haenszel_pr(t)
        cr = crude_pr(t)
        assert mh.point == cr.point
        assert mh.interval.lower == cr.interval.lower
        assert mh.interval.upper == cr.interval.upper
        assert mh.interval.se == cr.interval.se

    def test_two_stratum_hand_example(self):
        t = StratifiedTable(((10.0, 90.0, 5.0, 95.0), (30.0, 20.0, 15.0, 35.0)))
        mh = mantel_haenszel_pr(t)
        # (10*100/200 + 30*50/100) / (5*100/200 + 15*50/100) = 20/10
        assert mh.point == pytest.approx(2.0, abs=1e-14)

    def test_duplicated_stratum_same_point_narrower_ci(self):
        one = StratifiedTable(((12.0, 28.0, 6.0, 34.0),))
        two = StratifiedTable(((12.0, 28.0, 6.0, 34.0),) * 2)
        est1 = mantel_haenszel_pr(one)
        est2 = mantel_haenszel_pr(two)
        assert est2.point == pytest.approx(est1.point, abs=1e-14)
        assert est2.interval.width < est1.interval.width
        assert est2.interval.se == pytest.approx(est1.interval.se / math.sqrt(2),
                                                 rel=1e-12)

    def test_greenland_robins_variance_hand_sum(self):
        strata = ((10.0, 90.0, 5.0, 95.0), (30.0, 20.0, 15.0, 35.0))
        num = den = var = 0.0
        for a, b, c, d in strata:
            t = a + b + c + d
            num += a * (c + d) / t
            den += c * (a + b) / t
            var += (a + c) * (a + b) * (c + d) / t**2 - a * c / t
        se = math.sqrt(var / (num * den))
        mh = mantel_haenszel_pr(StratifiedTable(strata))
        assert mh.interval.se == pytest.approx(se, abs=1e-14)

    def test_zero_sum_is_error(self):
        t = StratifiedTable(((0.0, 10.0, 0.0, 10.0),) * 2)
        with pytest.raises(DegenerateDenominatorError):
            mantel_haenszel_pr(t)


class TestSchoutenExpand:
    def make(self, y):
        y = np.asarray(y, dtype=float)
        n = len(y)
        x = np.tile([1.0, 0.0], n)[:n]
        return Dataset(y=y, X=np.column_stack([np.ones(n), x]),
                       column_names=(INTERCEPT_NAME, "x"))

    def test_no_events_identity(self):
        ds = self.make([0.0] * 6)
        out = schouten_expand(ds)
        assert out.n == 6
        assert np.array_equal(out.y, ds.y)
        assert np.array_equal(out.X, ds.X)

    def test_three_events_in_ten_rows(self):
        ds = self.make([1.0, 1.0, 1.0] + [0.0] * 7)
        out = schouten_expand(ds)
        assert out.n == 13
        assert out.y.sum() == 3.0

    def test_double_expansion_adds_again(self):
        ds = self.make([1.0, 1.0] + [0.0] * 4)
        once = schouten_expand(ds)
        twice = schouten_expand(once)
        assert once.n == 8
        assert twice.n == 10

    def test_duplicates_carry_covariates_and_weights(self):
        y = np.array([1.0, 0.0, 1.0])
        X = np.column_stack([np.ones(3), [1.0, 0.0, 0.0], [0.3, -0.2, 1.7]])
        ds = Dataset(y=y, X=X, column_names=(INTERCEPT_NAME, "x", "z"),
                     weights=np.array([2.0, 1.0, 5.0]))
        out = schouten_expand(ds)
        assert out.n == 5
        assert np.array_equal(out.X[3], X[0])
        assert np.array_equal(out.X[4], X[2])
        assert out.y[3] == 0.0 and out.y[4] == 0.0
        assert np.array_equal(out.weights, [2.0, 1.0, 5.0, 2.0, 5.0])


class TestSchoutenPr:
    def test_single_binary_predictor_matches_crude(self):
        ds = table_dataset(40, 60, 20, 80, weighted=False)
        est = schouten_pr(ds)
        assert est.point == pytest.approx(2.0, abs=1e-8)
        assert est.metadata["expanded_rows"] == 260
        assert "caveat" in est.metadata

    def test_no_events_propagates_fit_error(self):
        n = 8
        ds = Dataset(y=np.zeros(n),
                     X=np.column_stack([np.ones(n), np.tile([1.0, 0.0], 4)]),
                     column_names=(INTERCEPT_NAME, "x"))
        from prevratio import NonConvergenceError
        with pytest.raises(NonConvergenceError):
            schouten_pr(ds)

    def test_close_to_log_binomial_on_toy_data(self, toy_ds):
        from prevratio import log_binomial_pr
        sch = schouten_pr(toy_ds)
        lb = log_binomial_pr(toy_ds)
        assert sch.point == pytest.approx(lb.point, abs=0.05)


class TestDuplicationInvariance:
    def test_whole_dataset_duplication(self):
        one = StratifiedTable(((15.0, 25.0, 8.0, 32.0),))
        two = StratifiedTable(((30.0, 50.0, 16.0, 64.0),))
        c1, c2 = crude_pr(one), crude_pr(two)
        assert c2.point == c1.point
        assert c2.interval.se == pytest.approx(c1.interval.se / math.sqrt(2),
                                               rel=1e-12)


class TestDatasetTabulation:
    def test_crude_table_counts_with_weights(self):
        ds = table_dataset(9, 21, 4, 16)
        assert crude_table(ds).strata == ((9.0, 21.0, 4.0, 16.0),)

    def test_crude_table_needs_binary_exposure(self):
        n = 4
        X = np.column_stack([np.ones(n), np.array([0.0, 0.5, 1.0, 0.0])])
        ds = Dataset(y=np.array([1.0, 0.0, 1.0, 0.0]), X=X,
                     column_names=(INTERCEPT_NAME, "x"))
        with pytest.raises(DataError):
            crude_table(ds)

    def test_stratified_from_dataset_splits_on_patterns(self):
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        x = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        g = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        w = np.array([10.0, 90.0, 5.0, 95.0, 30.0, 20.0, 15.0, 35.0])
        ds = Dataset(y=y, X=np.column_stack([np.ones(8), x, g]),
                     column_names=(INTERCEPT_NAME, "x", "g"), weights=w)
        t = stratified_from_dataset(ds)
        assert t.strata == ((10.0, 90.0, 5.0, 95.0), (30.0, 20.0, 15.0, 35.0))
        assert mantel_haenszel_pr(t).point == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("n_covariates", [0, 1, 3])
    def test_stratified_matches_row_loop(self, n_covariates):
        rng = np.random.default_rng(21 + n_covariates)
        n = 500
        covs = (rng.random((n, n_covariates)) < 0.4).astype(float)
        covs[(rng.random(covs.shape) < 0.1) & (covs == 0.0)] = -0.0  # same pattern as 0.0
        X = np.column_stack([np.ones(n), (rng.random(n) < 0.5).astype(float), covs])
        names = (INTERCEPT_NAME, "x") + tuple(f"c{j}" for j in range(n_covariates))
        ds = Dataset(y=(rng.random(n) < 0.3).astype(float), X=X, column_names=names,
                     weights=rng.uniform(0.1, 3.0, n))
        assert stratified_from_dataset(ds).strata == stratify_by_row_loop(ds)

    @pytest.mark.parametrize("n_covariates", [0, 1, 6, 64, 65])
    def test_stratified_matches_lexsort(self, n_covariates):
        rng = np.random.default_rng(40 + n_covariates)
        n = 3000
        # sparse covariates when there are many, so patterns repeat
        share = 0.4 if n_covariates < 10 else 0.02
        covs = (rng.random((n, n_covariates)) < share).astype(float)
        X = np.column_stack([np.ones(n), (rng.random(n) < 0.5).astype(float), covs])
        names = (INTERCEPT_NAME, "x") + tuple(f"c{j}" for j in range(n_covariates))
        ds = Dataset(y=(rng.random(n) < 0.3).astype(float), X=X, column_names=names,
                     weights=rng.uniform(0.1, 3.0, n))
        table = stratified_from_dataset(ds)
        assert table.strata == stratify_by_lexsort(ds)
        assert 1 < table.k < n or n_covariates == 0

    def test_stratified_requires_binary_covariates(self, toy_ds):
        with pytest.raises(DataError, match="binary"):
            stratified_from_dataset(toy_ds)
