import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prevratio import (Dataset, INTERCEPT_NAME, InvalidArgumentError, NonConvergenceError,
                       NonIdentifiableError, ToyConfig, fit_glm,
                       predict_prevalence, separation_check, simulate_toy)
from prevratio.glm import fit_stack
from conftest import table_dataset, random_logistic_dataset

LOG2 = math.log(2.0)
LOGIT_02 = math.log(0.2 / 0.8)
LOG_83 = math.log(8.0 / 3.0)


class TestSaturatedFits:
    """On a 2x2 table every family reproduces the cell proportions exactly."""

    def test_logistic_coefficients(self):
        fit = fit_glm(table_dataset(40, 60, 20, 80), "binomial-logit")
        assert fit.beta[0] == pytest.approx(LOGIT_02, abs=1e-12)
        assert fit.beta[1] == pytest.approx(LOG_83, abs=1e-12)

    def test_log_binomial_coefficients(self):
        fit = fit_glm(table_dataset(40, 60, 20, 80), "binomial-log")
        assert fit.beta[0] == pytest.approx(math.log(0.2), abs=1e-12)
        assert fit.beta[1] == pytest.approx(LOG2, abs=1e-12)

    def test_poisson_coefficients(self):
        fit = fit_glm(table_dataset(40, 60, 20, 80), "poisson-log")
        assert fit.beta[0] == pytest.approx(math.log(0.2), abs=1e-12)
        assert fit.beta[1] == pytest.approx(LOG2, abs=1e-12)

    @pytest.mark.parametrize("family", ["binomial-logit", "binomial-log", "poisson-log"])
    def test_fitted_proportions_reproduced(self, family):
        ds = table_dataset(13, 37, 29, 21)
        fit = fit_glm(ds, family)
        p = predict_prevalence(fit, ds.X)
        assert p[0] == pytest.approx(13 / 50, abs=1e-10)
        assert p[2] == pytest.approx(29 / 50, abs=1e-10)

    def test_weighted_and_expanded_fits_agree(self):
        wfit = fit_glm(table_dataset(12, 18, 7, 23, weighted=True), "binomial-logit")
        efit = fit_glm(table_dataset(12, 18, 7, 23, weighted=False), "binomial-logit")
        assert wfit.beta == pytest.approx(efit.beta, abs=1e-10)
        assert wfit.vcov == pytest.approx(efit.vcov, abs=1e-10)


class TestIrlsBehavior:
    def test_deviance_path_non_increasing(self, toy_ds):
        for family in ("binomial-logit", "poisson-log"):
            fit = fit_glm(toy_ds, family)
            path = np.array(fit.deviance_path)
            assert np.all(np.diff(path) <= 1e-8 * (1.0 + np.abs(path[:-1])))

    def test_score_equations_hold_at_optimum(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        mu = predict_prevalence(fit, toy_ds.X)
        score = toy_ds.X.T @ (toy_ds.weights * (toy_ds.y - mu))
        assert np.abs(score).max() < 1e-6

    def test_poisson_score_equations(self, toy_ds):
        fit = fit_glm(toy_ds, "poisson-log")
        mu = predict_prevalence(fit, toy_ds.X)
        score = toy_ds.X.T @ (toy_ds.weights * (toy_ds.y - mu))
        assert np.abs(score).max() < 1e-6

    def test_row_permutation_invariance(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        perm = np.random.default_rng(4).permutation(toy_ds.n)
        fit_p = fit_glm(toy_ds.take_rows(perm), "binomial-logit")
        assert fit_p.beta == pytest.approx(fit.beta, abs=1e-10)
        assert fit_p.vcov == pytest.approx(fit.vcov, abs=1e-10)

    def test_coef_lookup_by_name(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        assert fit.coef("x") == fit.beta[1]
        with pytest.raises(KeyError):
            fit.coef("missing")

    def test_duplicating_rows_halves_vcov(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        doubled = toy_ds.take_rows(np.concatenate([np.arange(toy_ds.n)] * 2))
        fit2 = fit_glm(doubled, "binomial-logit")
        assert fit2.beta == pytest.approx(fit.beta, abs=1e-10)
        assert fit2.vcov == pytest.approx(fit.vcov / 2.0, rel=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_fits_satisfy_scores(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_logistic_dataset(rng, 120, 2)
        if ds.y.sum() in (0, ds.n):
            return
        try:
            fit = fit_glm(ds, "binomial-logit")
        except NonConvergenceError:
            return
        mu = predict_prevalence(fit, ds.X)
        score = ds.X.T @ (ds.y - mu)
        assert np.abs(score).max() < 1e-6 * ds.n


class TestFailureModes:
    def test_unknown_family(self, toy_ds):
        with pytest.raises(InvalidArgumentError, match="'binomial-probit'"):
            fit_glm(toy_ds, "binomial-probit")
        with pytest.raises(InvalidArgumentError, match="'binomial-probit'"):
            fit_stack(toy_ds.X[None], toy_ds.y[None], toy_ds.weights[None],
                      "binomial-probit", toy_ds.column_names)

    def test_constant_outcome_raises(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        ds = Dataset(y=np.ones(6), X=X, column_names=(INTERCEPT_NAME, "x"))
        with pytest.raises(NonConvergenceError):
            fit_glm(ds, "binomial-logit")

    def test_collinear_column_named(self):
        n = 40
        rng = np.random.default_rng(11)
        x = (rng.random(n) < 0.5).astype(float)
        X = np.column_stack([np.ones(n), x, 2.0 * x])
        y = (rng.random(n) < 0.4).astype(float)
        ds = Dataset(y=y, X=X, column_names=(INTERCEPT_NAME, "x", "x2"))
        with pytest.raises(NonIdentifiableError, match="x2"):
            fit_glm(ds, "binomial-logit")

    def test_log_binomial_infeasible_data_raises(self):
        # strong continuous covariate pushes fitted prevalence to 1
        rng = np.random.default_rng(42)
        n = 300
        x = (rng.random(n) < 0.5).astype(float)
        z = 2.0 * np.array([rng.normal() for _ in range(n)])
        p = 1.0 / (1.0 + np.exp(-(-0.3 + 0.7 * x + 2.2 * z)))
        y = (rng.random(n) < p).astype(float)
        ds = Dataset(y=y, X=np.column_stack([np.ones(n), x, z]),
                     column_names=(INTERCEPT_NAME, "x", "z"))
        with pytest.raises(NonConvergenceError):
            fit_glm(ds, "binomial-log")
        assert np.isfinite(fit_glm(ds, "binomial-logit").beta).all()

    def test_separation_warning(self):
        # exposure perfectly predicts the outcome
        y = np.array([1.0] * 10 + [0.0] * 10)
        x = np.array([1.0] * 10 + [0.0] * 10)
        ds = Dataset(y=y, X=np.column_stack([np.ones(20), x]),
                     column_names=(INTERCEPT_NAME, "x"))
        try:
            fit = fit_glm(ds, "binomial-logit")
        except NonConvergenceError:
            return
        assert separation_check(fit)


class TestPredict:
    def test_logistic_inverse_link(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        p = predict_prevalence(fit, toy_ds.X)
        eta = toy_ds.X @ fit.beta
        assert p == pytest.approx(1.0 / (1.0 + np.exp(-eta)), abs=1e-12)
        assert np.all((p > 0) & (p < 1))

    def test_log_link_rejects_probability_above_one(self):
        fit = fit_glm(table_dataset(40, 60, 20, 80), "binomial-log")
        X_far = np.array([[1.0, 5.0]])
        with pytest.raises(ValueError):
            predict_prevalence(fit, X_far)
