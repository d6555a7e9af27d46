import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from prevratio import (DegenerateDenominatorError, IntervalEstimate, InvalidArgumentError,
                       ToyConfig, fit_glm, normal_quantile, predict_prevalence,
                       ratio_interval, sandwich_vcov, simulate_toy)
from prevratio.methods import METHODS as REGISTRY
from prevratio.methods import block_fits, dataset_fits, estimate
from prevratio.simulate import _simulate_block
from prevratio.variance import _hc0, _sandwich
from conftest import stack_of_one, table_dataset


class TestNormalQuantile:
    def test_matches_reference_inverse_cdf(self):
        for p in (0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999):
            assert normal_quantile(p) == pytest.approx(float(ndtri(p)), abs=1e-9)

    def test_known_value(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)

    def test_symmetry(self):
        assert normal_quantile(0.3) == pytest.approx(-normal_quantile(0.7), abs=1e-12)

    def test_bits_are_normal_dist_inv_cdf(self):
        # one value through the package's one inverse normal gives NormalDist's
        # bits: both tails, the centre and its edges, and the smallest positive float
        grid = [5e-324, 1e-310, np.finfo(float).tiny, 1e-100, 1e-10, 0.075,
                np.nextafter(0.075, 0.0), np.nextafter(0.075, 1.0), np.nextafter(0.925, 0.0),
                0.925, np.nextafter(0.925, 1.0), 1.0 - 2.0**-53,
                *np.linspace(0.0, 1.0, 2001)[1:-1]]
        got = np.array([normal_quantile(p) for p in grid])
        want = np.array([NormalDist().inv_cdf(p) for p in grid])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert normal_quantile(5e-324) < normal_quantile(np.finfo(float).tiny)

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


BAD_LEVELS = [0.0, 1.0, 1.5, -0.5, math.nan]


class TestWaldCiLogScale:
    def test_zero_se_degenerate(self):
        iv = ratio_interval(1.0, 0.0, 0.95)
        assert (iv.lower, iv.point, iv.upper) == (1.0, 1.0, 1.0)

    def test_direct_formula_evaluation(self):
        # 2 * exp(+-1.9599639845 * 0.2), evaluated independently below
        z = float(ndtri(0.975))
        iv = ratio_interval(2.0, 0.2**2, 0.95)
        assert iv.lower == pytest.approx(2.0 * math.exp(-z * 0.2), abs=1e-12)
        assert iv.upper == pytest.approx(2.0 * math.exp(z * 0.2), abs=1e-12)
        assert round(iv.lower, 5) == 1.35142
        assert round(iv.upper, 5) == 2.95985

    def test_wider_level_contains_narrower(self):
        narrow = ratio_interval(2.0, 0.04, 0.95)
        wide = ratio_interval(2.0, 0.04, 0.99)
        assert wide.lower < narrow.lower
        assert wide.upper > narrow.upper

    # "log" cases are a coefficient's (exp(beta), var of beta), "ratio" cases a
    # delta-method ratio's (point, (se / point)**2)
    @pytest.mark.parametrize("build, args", [
        ("log", (math.inf, 1.0)),        # exp(800) overflows
        ("log", (0.0, 1.0)),             # exp(-800) underflows to 0
        ("log", (1.0, 500.0**2)),        # the lower bound underflows to 0
        ("ratio", (2.0, 5e5**2)),        # exp(half) overflows
        ("ratio", (1e-300, 100.0**2)),   # the lower bound underflows to 0
        ("ratio", (1e308, 1.0)),         # the upper bound is inf
    ])
    def test_unrepresentable_bounds_are_typed(self, build, args):
        with pytest.raises(DegenerateDenominatorError):
            ratio_interval(*args)

    def test_nonpositive_point_rejected(self):
        for point in (0.0, -2.0, math.nan):
            with pytest.raises(DegenerateDenominatorError, match="has no log-scale interval"):
                ratio_interval(point, 0.01, 0.95)

    @pytest.mark.parametrize("level", BAD_LEVELS)
    def test_level_outside_the_unit_interval_is_an_argument_error(self, level):
        # checked before the point, so a degenerate point does not mask it
        for point in (2.0, 0.0):
            with pytest.raises(InvalidArgumentError, match=r"level must be in \(0, 1\), got"):
                ratio_interval(point, 0.01, level)

    @pytest.mark.parametrize("log_var", [-1e-18, math.nan, math.inf])
    def test_unusable_variance_is_degenerate(self, log_var):
        with pytest.raises(DegenerateDenominatorError, match="log-scale variance"):
            ratio_interval(2.0, log_var, 0.95)

    def test_bounds_beyond_700_on_the_log_scale_are_degenerate(self):
        # representable bounds, but a log bound of -701: a separated fit, not an estimate
        z = float(ndtri(0.975))
        assert ratio_interval(math.exp(-600.0), (99.0 / z) ** 2).lower > 0.0
        with pytest.raises(DegenerateDenominatorError, match="overwhelms"):
            ratio_interval(math.exp(-600.0), (101.0 / z) ** 2)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.05, max_value=50.0),
           st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.01, max_value=20.0))
    def test_scaling_equivariance(self, point, log_sd, c):
        base = ratio_interval(point, log_sd**2, 0.95)
        scaled = ratio_interval(c * point, log_sd**2, 0.95)
        assert scaled.lower == pytest.approx(c * base.lower, rel=1e-10)
        assert scaled.upper == pytest.approx(c * base.upper, rel=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(), st.floats(),
           st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_any_input_gives_an_interval_or_a_degenerate_error(self, point, log_var, level):
        try:
            iv = ratio_interval(point, log_var, level)
        except DegenerateDenominatorError:
            return
        assert 0.0 < iv.lower <= iv.point <= iv.upper < math.inf
        assert iv.point == point and iv.se == math.sqrt(log_var)

    def test_level_next_to_one_keeps_its_quantile(self):
        # (1 + level) / 2 rounds to 1.0 here; the lower tail (1 - level) / 2 does not
        level = math.nextafter(1.0, 0.0)
        z = -float(ndtri((1.0 - level) / 2.0))
        assert ratio_interval(1.0, 0.01, level).upper == pytest.approx(math.exp(0.1 * z), rel=1e-12)


class TestIntervalFromLogScale:
    def test_matches_exponentiated_bounds(self):
        z = float(ndtri(0.975))
        iv = ratio_interval(2.0, 0.3**2, 0.95)
        assert iv.point == 2.0
        assert iv.se == pytest.approx(0.3, rel=1e-15)
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


class TestFittedMuIsRead:
    """The sandwich and the Schouten meat read fit.fitted, not a recomputed mu."""

    METHODS = ("CPR", "LogBinomial", "RobustPoisson", "Schouten")

    def old_sandwich(self, fit, ds):
        mu = predict_prevalence(fit, ds.X)
        return _sandwich(fit.vcov[None], ds.X[None], ((ds.weights * (ds.y - mu)) ** 2)[None])[0]

    def old_schouten(self, fit, ds, level):
        mu = predict_prevalence(fit, ds.X)
        y, w = ds.y, ds.weights
        robust = _sandwich(fit.vcov[None], ds.X[None],
                           (w**2 * ((y - mu) ** 2 + y * mu**2))[None])[0]
        return ratio_interval(math.exp(fit.beta[1]), float(robust[1, 1]), level)

    @pytest.mark.parametrize("ds", [simulate_toy(ToyConfig(n=300, seed=s)) for s in range(3)]
                             + [table_dataset(8, 5, 4, 9, weighted=True)])
    def test_block_of_one_bit_for_bit(self, ds):
        fits = dataset_fits(ds, self.METHODS)
        assert len(fits) == 4
        for stack in fits.values():
            result = stack.one()
            assert np.array_equal(sandwich_vcov(result, ds), self.old_sandwich(result, ds))
        got = estimate("Schouten", fits, ds, 0.9).interval
        want = self.old_schouten(fits["Schouten"].one(), ds, 0.9)
        for key in ("point", "se", "lower", "upper"):
            assert getattr(got, key) == getattr(want, key)

    def test_study_block_within_an_ulp(self, one_worker):
        # the stacked HC0 and Schouten meats of a study block, against the old
        # formulas on each replicate drawn alone
        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        cfg = ToyConfig(n=300, seed=2)
        block = _simulate_block(cfg, range(32))
        R = len(block.X)
        fits = block_fits(block, self.METHODS)
        assert len(fits) == 4
        datasets = [simulate_toy(cfg, replicate=j) for j in range(R)]
        for stacked in fits.values():
            robust = _hc0(stacked.vcov, stacked.fitted, block)
            for j, ds in enumerate(datasets):
                close(robust[j], self.old_sandwich(stack_of_one(stacked, j).one(), ds))
        schouten = REGISTRY["Schouten"].scores(fits["Schouten"], block, 0.9)
        for j, ds in enumerate(datasets):
            want = self.old_schouten(stack_of_one(fits["Schouten"], j).one(), ds, 0.9)
            for key in ("point", "se", "lower", "upper"):
                close(getattr(schouten, key)[j], getattr(want, key))
