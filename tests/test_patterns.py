"""The pattern table: all-0/1 designs fitted, tabulated and resampled on their distinct rows."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from prevratio import (INTERCEPT_NAME, Dataset, FitResult, PrevRatioError, bootstrap_prs,
                       crude_table, fit_glm, stratified_from_dataset)
from prevratio.classical import _schouten_response
from prevratio.data import _resample
from prevratio.glm import DEVIANCE_TOL, _irls, expit, fit_stack
from prevratio.methods import dataset_fits
from prevratio.ratios import _percentile_interval

# each fit kind of the registry, and a method that reads it
KINDS = {"binomial-logit": "MPR", "binomial-log": "LogBinomial",
         "poisson-log": "RobustPoisson", "Schouten": "Schouten"}


def binary_dataset(rng, n, k, *, weighted, share=None):
    """0/1 exposure and ``k`` 0/1 covariates; y from a gentle log-linear model."""
    share = rng.uniform(0.2, 0.8, k + 1) if share is None else np.full(k + 1, share)
    X = np.column_stack([np.ones(n)] + [(rng.random(n) < s).astype(float) for s in share])
    mu = 0.2 * np.exp(X[:, 1:] @ rng.normal(0.0, 0.15, k + 1))
    y = (rng.random(n) < mu).astype(float)
    names = (INTERCEPT_NAME, "x") + tuple(f"c{j}" for j in range(k))
    return Dataset(y=y, X=X, column_names=names,
                   weights=rng.uniform(0.1, 3.0, n) if weighted else None)


def row_fit(ds, kind):
    """The fit of ``kind`` on the dataset's own rows, as fit_glm made it without a table.

    Gives the stacked fits of a stack of one.
    """
    y, w = _schouten_response(ds.y, ds.weights) if kind == "Schouten" else (ds.y, ds.weights)
    family = "binomial-logit" if kind == "Schouten" else kind
    return fit_stack(ds.X[None], y[None], w[None], family, ds.column_names)


def fit_or_error(fits):
    """The FitResult of a stack of one, or the error that stopped it."""
    return fits.errors[0] if fits.errors[0] is not None else fits.one()


def converged_at(fit):
    """The iteration at which the deviance criterion fired, read off the deviance path."""
    path = fit.deviance_path
    return next(t for t in range(1, len(path))
                if abs(path[t] - path[t - 1]) / (abs(path[t]) + 0.1) < DEVIANCE_TOL)


def polish_ulps(fit):
    """The deviance change of each polish step, in units in the last place of the deviance."""
    path = np.array(fit.deviance_path[converged_at(fit):])
    return np.abs(np.diff(path)) / np.spacing(np.abs(path[1:]))


def rel(a, b, floor=0.0):
    """Largest difference relative to the largest entry of ``b``, or to ``floor`` if larger."""
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), floor))


def same_bits(a, b):
    return (a.iterations == b.iterations and a.deviance_path == b.deviance_path
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("beta", "vcov", "fitted")))


def row_key_reference(ds):
    """Distinct (design, y) rows in the table's order, and each row's one, by np.unique."""
    rows = np.column_stack([ds.X[:, 1:53], ds.y, ds.X[:, 53:]])
    return np.unique(rows, axis=0, return_inverse=True)


class TestTable:
    @pytest.mark.parametrize("n, k", [(5000, 3), (300, 6), (40, 8), (2000, 0), (500, 20)])
    def test_distinct_rows_summed_weights(self, n, k):
        # keys of 2 to 22 bits, sorted as 8-, 16- and 32-bit integers
        ds = binary_dataset(np.random.default_rng(n + k), n, k, weighted=True)
        table = ds._patterns
        unique, inverse = row_key_reference(ds)
        assert np.array_equal(table.index, inverse.ravel())
        assert np.array_equal(np.column_stack([table.rows.X[:, 1:], table.rows.y]), unique)
        assert np.array_equal(table.rows.X[table.index], ds.X)
        assert table.rows.weights.tolist() == [
            float(sum(ds.weights[table.index == j].tolist(), 0.0)) for j in range(table.rows.n)]
        assert table.rows.column_names == ds.column_names
        assert ds._patterns is table  # built once

    @pytest.mark.parametrize("k", [52, 53, 60])
    def test_more_columns_than_a_float_key_holds(self, k):
        rng = np.random.default_rng(k)
        n = 400
        ds = binary_dataset(rng, n, k, weighted=False, share=0.03)
        # pairs of rows that differ only past the first key, or only in y
        X, y = np.array(ds.X), np.array(ds.y)
        X[1], y[1] = X[0], y[0]
        X[1, -1] = 1.0 - X[0, -1]
        X[3], y[3] = X[2], 1.0 - y[2]
        ds = Dataset(y=y, X=X, column_names=ds.column_names)
        table = ds._patterns
        unique, inverse = row_key_reference(ds)
        assert np.array_equal(table.index, inverse.ravel())
        assert np.array_equal(table.rows.X[table.index], ds.X)
        assert np.array_equal(table.rows.y[table.index], ds.y)
        assert len({int(i) for i in table.index[:4]}) == 4

    def test_fits_with_more_than_52_binary_columns(self):
        rng = np.random.default_rng(5)
        ds = binary_dataset(rng, 6000, 55, weighted=False, share=0.5)
        ds = Dataset(y=ds.y, X=ds.X, column_names=ds.column_names,
                     weights=np.tile([1.0, 2.0], 3000))
        assert ds._patterns is not None
        fit = fit_glm(ds, "binomial-logit")
        rows = row_fit(ds, "binomial-logit").one()
        assert len(fit.fitted) == ds.n
        assert rel(fit.beta, rows.beta) < 1e-12
        assert rel(fit.vcov, rows.vcov) < 1e-10

    @pytest.mark.parametrize("where", [0, 4095, 4096, 9999])
    def test_one_non_binary_value_means_no_table(self, where):
        ds = binary_dataset(np.random.default_rng(1), 10_000, 3, weighted=False)
        X = np.array(ds.X)
        X[where, 3] = 0.5
        assert Dataset(y=ds.y, X=X, column_names=ds.column_names)._patterns is None

    def test_continuous_design_fits_its_rows(self, toy_ds):
        # no table: every fit is the fit_stack call on the rows, bit for bit
        assert toy_ds._patterns is None
        fits = dataset_fits(toy_ds, list(KINDS.values()))
        for kind, stack in fits.items():
            fit = stack.one()
            assert same_bits(fit, row_fit(toy_ds, kind).one())
            if kind != "Schouten":
                assert same_bits(fit_glm(toy_ds, kind), fit)


@st.composite
def designs(draw):
    """A random all-0/1 design; now and then a collinear column or a constant outcome."""
    n, k = draw(st.integers(20, 2000)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = binary_dataset(rng, n, k, weighted=draw(st.booleans()))
    flaw = draw(st.sampled_from(["", "", "", "collinear", "constant"]))
    if flaw == "collinear":
        X = np.array(ds.X)
        X[:, -1] = 1.0 - X[:, 1]  # with the exposure it adds up to the intercept
        ds = Dataset(y=ds.y, X=X, column_names=ds.column_names, weights=ds.weights)
    elif flaw == "constant":
        ds = Dataset(y=np.full(n, float(rng.random() < 0.5)), X=ds.X,
                     column_names=ds.column_names, weights=ds.weights)
    return ds


def well_posed(fit):
    """A fit away from separation and, for the log link, from the boundary mu = 1."""
    if isinstance(fit, PrevRatioError):
        return "collinear" in str(fit) or "no variation" in str(fit)
    return np.max(np.abs(fit.beta)) < 8.0 and (fit.family_link != "binomial-log"
                                               or fit.fitted.max() < 0.95)


class TestFitsOnTheTable:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(designs())
    def test_table_fits_match_the_row_fits(self, ds):
        assert ds._patterns is not None
        rows = {kind: fit_or_error(row_fit(ds, kind)) for kind in KINDS}
        assume(all(well_posed(fit) for fit in rows.values()))
        table = {kind: fit_or_error(fits)
                 for kind, fits in dataset_fits(ds, list(KINDS.values())).items()}
        for kind, fit in table.items():
            reference = rows[kind]
            if kind != "Schouten":  # fit_glm reads the same table as the registry
                try:
                    alone = fit_glm(ds, kind)
                except PrevRatioError as exc:
                    alone = exc
                assert type(alone) is type(fit)
                assert same_bits(alone, fit) if isinstance(fit, FitResult) else (
                    str(alone) == str(fit))
            if isinstance(reference, PrevRatioError):
                assert (type(fit), str(fit)) == (type(reference), str(reference))
                continue
            assert isinstance(fit, FitResult)
            assert len(fit.fitted) == ds.n
            # the same Newton steps and the same polish steps: the polish stops
            # at a deviance change of at most 4 ulps, which the summation order
            # decides only when the change itself is of rounding size
            assert converged_at(fit) == converged_at(reference)
            if fit.iterations != reference.iterations:
                stopped, went_on = sorted((fit, reference), key=lambda f: f.iterations)
                assert went_on.iterations == stopped.iterations + 1
                last = len(polish_ulps(stopped)) - 1
                assert polish_ulps(stopped)[last] <= 4 < polish_ulps(went_on)[last] <= 64
            # Fisher scoring on the log link converges linearly, so there one
            # polish step more or less moves the estimates in the 10th digit
            loose = kind == "binomial-log" and fit.iterations != reference.iterations
            # (relative to 1 at least: a constant outcome gives Schouten beta = 0)
            assert rel(fit.beta, reference.beta, 1.0) < (1e-8 if loose else 1e-12)
            assert rel(fit.vcov, reference.vcov) < (1e-8 if loose else 1e-10)
            assert rel(fit.fitted, reference.fitted) < (1e-8 if loose else 1e-12)

    def test_large_table_takes_the_row_fits_steps(self):
        # the design of the benchmark's seed-0 strata input: 6 binary
        # covariates, rows with an empty field dropped. With the polish ended
        # only at an unchanged deviance, the table's logit fit took 6
        # iterations against 5 on the rows, and Schouten's 5 against 4
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(1,)))
        n, shares = 300_000, np.array([0.5, 0.4, 0.3, 0.5, 0.6, 0.35])
        x = (rng.random(n) < 0.4).astype(float)
        C = (rng.random((n, 6)) < shares).astype(float)
        eta = -1.5 + 0.6 * x + C @ np.array([0.30, -0.20, 0.25, 0.15, -0.10, 0.20])
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        kept = ~(rng.random((n, 8)) < 0.002).any(axis=1)
        ds = Dataset(y=y[kept], X=np.column_stack([np.ones(n), x, C])[kept],
                     column_names=(INTERCEPT_NAME, "x") + tuple(f"c{j}" for j in range(6)))
        table = {kind: fits.one() for kind, fits in dataset_fits(ds, list(KINDS.values())).items()}
        assert {kind: (fit.iterations, row_fit(ds, kind).one().iterations)
                for kind, fit in table.items()} == {
            "binomial-logit": (5, 5), "binomial-log": (6, 6), "poisson-log": (5, 5),
            "Schouten": (4, 4)}


def cells_by_row_loop(ds):
    """Crude cells and Mantel-Haenszel strata summed row by row, strata in sorted order."""
    strata, crude = {}, [0.0] * 4
    for row, y, w in zip(ds.X.tolist(), ds.y.tolist(), ds.weights.tolist()):
        cell = (0 if row[1] == 1.0 else 2) + (y != 1.0)
        cells = strata.setdefault(tuple(row[2:]), [0.0] * 4)
        cells[cell] += w
        crude[cell] += w
    return tuple(tuple(strata[key]) for key in sorted(strata)), (tuple(crude),)


class TestTables:
    @pytest.mark.parametrize("k", [0, 1, 6])
    def test_unit_weights_bit_identical(self, k):
        ds = binary_dataset(np.random.default_rng(70 + k), 30_000, k, weighted=False)
        strata, crude = cells_by_row_loop(ds)
        assert stratified_from_dataset(ds).strata == strata
        assert crude_table(ds).strata == crude

    @pytest.mark.parametrize("k", [0, 1, 6])
    def test_weighted_cells(self, k):
        ds = binary_dataset(np.random.default_rng(80 + k), 30_000, k, weighted=True)
        strata, crude = cells_by_row_loop(ds)
        # a stratum's cell is one pattern, summed in row order; a crude cell
        # adds up patterns
        assert stratified_from_dataset(ds).strata == strata
        assert np.allclose(crude_table(ds).strata, crude, rtol=1e-12, atol=0.0)


def row_bootstrap(ds, fit, reps, seed):
    """CPR and MPR percentile intervals with every resample refitted on its drawn rows."""
    draws = {"CPR": [], "MPR": []}
    for r in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        counts = np.bincount(rng.integers(0, ds.n, size=ds.n), minlength=ds.n)
        keep = np.flatnonzero(counts)
        drawn = Dataset(y=ds.y[keep], X=ds.X[keep], column_names=ds.column_names,
                        weights=ds.weights[keep] * counts[keep])
        newton = _irls(drawn.X[None], drawn.y[None], drawn.weights[None], "binomial-logit",
                       drawn.column_names, fit.beta[None])
        assert newton.errors == [None]
        beta = newton.beta[0]
        means = drawn.weights @ drawn.X / drawn.weights.sum()
        means[1] = 0.0
        for name, X, w in (("CPR", means[None], np.ones(1)), ("MPR", drawn.X, drawn.weights)):
            eta = X @ beta - X[:, 1] * beta[1]
            draws[name].append(float(w @ expit(eta + beta[1]) / (w @ expit(eta))))
    return draws


class TestBootstrap:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_the_row_path(self, weighted):
        ds = binary_dataset(np.random.default_rng(3), 800, 3, weighted=weighted)
        fit = fit_glm(ds, "binomial-logit")
        out = bootstrap_prs(fit, ds, ("CPR", "MPR"), 100, seed=9)
        draws = row_bootstrap(ds, fit, 100, 9)
        for name in ("CPR", "MPR"):
            reference = _percentile_interval(out[name].point, np.array(draws[name]), 0.95)
            iv = out[name].interval
            for field in ("lower", "upper", "se"):
                assert getattr(iv, field) == pytest.approx(getattr(reference, field), rel=1e-12)

    def test_same_bits_for_any_worker_count(self, workers):
        ds = binary_dataset(np.random.default_rng(4), 5000, 6, weighted=True)
        fit = fit_glm(ds, "binomial-logit")
        runs = []
        for k in (1, 2, 3):
            workers(k)
            out = bootstrap_prs(fit, ds, ("CPR", "MPR"), 120, seed=2)
            runs.append([(est.interval, est.metadata["failure_reasons"]) for est in out.values()])
        assert runs[0] == runs[1] == runs[2]

    @settings(max_examples=60, deadline=None)
    @given(designs(), st.integers(0, 2**32 - 1))
    def test_resample_table_is_the_one_it_would_build(self, ds, seed):
        # the resample is the table that the drawn rows, repeated by count, build
        counts = np.bincount(np.random.default_rng(seed).integers(0, ds.n, size=ds.n),
                             minlength=ds.n)
        keep = np.flatnonzero(counts)
        drawn = Dataset(y=ds.y[keep], X=ds.X[keep], column_names=ds.column_names,
                        weights=ds.weights[keep] * counts[keep])
        table = drawn._patterns.rows
        block = _resample(ds, counts)
        sub = Dataset(y=block.y[0], X=block.X[0], column_names=block.column_names,
                      weights=block.weights[0])
        for f in ("y", "X", "weights"):
            assert getattr(sub, f).tobytes() == getattr(table, f).tobytes()
        assert sub.column_names == ds.column_names
        # and its own table is itself
        assert np.array_equal(sub._patterns.index, np.arange(sub.n))
        assert sub._patterns.rows.weights.tobytes() == sub.weights.tobytes()
