import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from prevratio import (Dataset, INTERCEPT_NAME, IntervalEstimate, InvalidArgumentError,
                       PrevRatioError, ToyConfig,
                       fit_glm, interval_from_log_scale, normal_quantile,
                       predict_prevalence, sandwich_vcov, simulate_toy,
                       wald_ci_log_scale)
from conftest import table_dataset


class TestNormalQuantile:
    def test_matches_reference_inverse_cdf(self):
        for p in (0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999):
            assert normal_quantile(p) == pytest.approx(float(ndtri(p)), abs=1e-9)

    def test_known_value(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)

    def test_symmetry(self):
        assert normal_quantile(0.3) == pytest.approx(-normal_quantile(0.7), abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)


class TestIntervalEstimate:
    def test_width(self):
        iv = IntervalEstimate(point=2.0, se=0.1, lower=1.5, upper=2.5, level=0.95)
        assert iv.width == pytest.approx(1.0)

    def test_point_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            IntervalEstimate(point=3.0, se=0.1, lower=1.0, upper=2.0, level=0.95)

    def test_nonpositive_bounds_rejected(self):
        with pytest.raises(ValueError):
            IntervalEstimate(point=1.0, se=0.1, lower=0.0, upper=2.0, level=0.95)

    def test_negative_se_rejected(self):
        with pytest.raises(ValueError):
            IntervalEstimate(point=1.0, se=-0.1, lower=0.5, upper=2.0, level=0.95)

    def test_level_domain(self):
        with pytest.raises(ValueError):
            IntervalEstimate(point=1.0, se=0.1, lower=0.5, upper=2.0, level=1.0)


class TestWaldCiLogScale:
    def test_zero_se_degenerate(self):
        iv = wald_ci_log_scale(1.0, 0.0, 0.95)
        assert (iv.lower, iv.point, iv.upper) == (1.0, 1.0, 1.0)

    def test_direct_formula_evaluation(self):
        # 2 * exp(+-1.9599639845 * 0.4 / 2), evaluated independently below
        z = float(ndtri(0.975))
        iv = wald_ci_log_scale(2.0, 0.4, 0.95)
        assert iv.lower == pytest.approx(2.0 * math.exp(-z * 0.2), abs=1e-12)
        assert iv.upper == pytest.approx(2.0 * math.exp(z * 0.2), abs=1e-12)
        assert round(iv.lower, 5) == 1.35142
        assert round(iv.upper, 5) == 2.95985

    def test_wider_level_contains_narrower(self):
        narrow = wald_ci_log_scale(2.0, 0.4, 0.95)
        wide = wald_ci_log_scale(2.0, 0.4, 0.99)
        assert wide.lower < narrow.lower
        assert wide.upper > narrow.upper

    @pytest.mark.parametrize("build, args", [
        ("log", (800.0, 1.0)),       # exp overflows
        ("log", (-800.0, 1.0)),      # every bound underflows to 0
        ("log", (0.0, 500.0)),       # the lower bound underflows to 0
        ("ratio", (2.0, 1e6)),       # exp(half) overflows
        ("ratio", (1e-300, 1e-298)),  # the lower bound underflows to 0
        ("ratio", (1e308, 1e308)),   # the upper bound is inf
    ])
    def test_unrepresentable_bounds_are_typed(self, build, args):
        fn = interval_from_log_scale if build == "log" else wald_ci_log_scale
        with pytest.raises(InvalidArgumentError, match="not representable") as err:
            fn(*args)
        assert isinstance(err.value, ValueError) and isinstance(err.value, PrevRatioError)

    def test_nonpositive_point_rejected(self):
        with pytest.raises(ValueError):
            wald_ci_log_scale(0.0, 0.1, 0.95)
        with pytest.raises(ValueError):
            wald_ci_log_scale(-2.0, 0.1, 0.95)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.05, max_value=50.0),
           st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.01, max_value=20.0))
    def test_scaling_equivariance(self, point, se, c):
        base = wald_ci_log_scale(point, se, 0.95)
        scaled = wald_ci_log_scale(c * point, c * se, 0.95)
        assert scaled.lower == pytest.approx(c * base.lower, rel=1e-10)
        assert scaled.upper == pytest.approx(c * base.upper, rel=1e-10)


class TestIntervalFromLogScale:
    def test_matches_exponentiated_bounds(self):
        z = float(ndtri(0.975))
        iv = interval_from_log_scale(math.log(2.0), 0.3, 0.95)
        assert iv.point == pytest.approx(2.0, abs=1e-12)
        assert iv.lower == pytest.approx(2.0 * math.exp(-z * 0.3), rel=1e-12)
        assert iv.upper == pytest.approx(2.0 * math.exp(z * 0.3), rel=1e-12)


class TestSandwich:
    def hand_sandwich(self, fit, ds):
        # explicit per-row summation, no shared linear algebra helpers
        mu = predict_prevalence(fit, ds.X)
        p = ds.X.shape[1]
        meat = np.zeros((p, p))
        for i in range(ds.n):
            xi = ds.X[i]
            r = ds.weights[i] * (ds.y[i] - mu[i])
            meat += np.outer(xi, xi) * r * r
        return fit.vcov @ meat @ fit.vcov

    def test_four_row_hand_summation(self):
        ds = table_dataset(3, 1, 1, 2, weighted=False)
        fit = fit_glm(ds, "binomial-logit")
        got = sandwich_vcov(fit, ds)
        assert got == pytest.approx(self.hand_sandwich(fit, ds), rel=1e-10)

    def test_weighted_rows_use_squared_prior_weights(self):
        ds = table_dataset(8, 5, 4, 9, weighted=True)
        fit = fit_glm(ds, "poisson-log")
        got = sandwich_vcov(fit, ds)
        assert got == pytest.approx(self.hand_sandwich(fit, ds), rel=1e-10)

    def test_saturated_poisson_matches_closed_form(self):
        a, b, c, d = 40, 60, 20, 80
        ds = table_dataset(a, b, c, d, weighted=False)
        fit = fit_glm(ds, "poisson-log")
        robust = sandwich_vcov(fit, ds)
        closed = math.sqrt(1 / a - 1 / (a + b) + 1 / c - 1 / (c + d))
        assert math.sqrt(robust[1, 1]) == pytest.approx(closed, abs=1e-10)

    def test_large_sample_agreement_with_model_vcov(self):
        ds = simulate_toy(ToyConfig(n=10_000, seed=21))
        fit = fit_glm(ds, "binomial-logit")
        robust = sandwich_vcov(fit, ds)
        model_se = np.sqrt(np.diag(fit.vcov))
        robust_se = np.sqrt(np.diag(robust))
        assert np.all(np.abs(robust_se / model_se - 1.0) < 0.10)

    def test_symmetric_and_psd(self, toy_ds):
        fit = fit_glm(toy_ds, "poisson-log")
        S = sandwich_vcov(fit, toy_ds)
        assert np.abs(S - S.T).max() < 1e-10
        assert np.linalg.eigvalsh(S).min() > -1e-10

    def test_requires_converged_fit(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        bad = type(fit)(**{**fit.__dict__, "converged": False})
        with pytest.raises(ValueError):
            sandwich_vcov(bad, toy_ds)
