import dataclasses
import math

import numpy as np
import pytest
from scipy.special import expit

from prevratio import (Dataset, DegenerateDenominatorError, FitResult,
                       INTERCEPT_NAME, InvalidArgumentError, NonConvergenceError,
                       PrEstimate, PrevRatioError,
                       StratifiedTable, ToyConfig, bootstrap_prs,
                       conditional_pr, crude_pr, fit_glm, log_binomial_pr,
                       marginal_pr, prevalence_odds_ratio, robust_poisson_pr,
                       simulate_toy)
from prevratio import glm, ratios
from prevratio.data import _resample
from prevratio.glm import _finish, _irls, _refit
from prevratio.linalg import matvec_stack, rmatvec_stack
from prevratio.ratios import _percentile_interval
from conftest import table_dataset, random_logistic_dataset


def fake_logistic_fit(beta, vcov=None, names=None):
    beta = np.asarray(beta, dtype=float)
    p = len(beta)
    names = names or (INTERCEPT_NAME, "x") + tuple(f"z{j}" for j in range(p - 2))
    return FitResult(
        family_link="binomial-logit", beta=beta,
        vcov=np.eye(p) if vcov is None else vcov,
        iterations=1, deviance=0.0, column_names=names, fitted=np.array([]),
        deviance_path=(0.0,),
    )


class TestExposureOnlyModel:
    """With no covariates every logistic-based ratio collapses to the crude PR."""

    def setup_method(self):
        self.ds = table_dataset(40, 60, 20, 80)
        self.fit = fit_glm(self.ds, "binomial-logit")

    def test_cpr_equals_crude(self):
        assert conditional_pr(self.fit, self.ds).point == pytest.approx(2.0, abs=1e-10)

    def test_mpr_equals_crude(self):
        assert marginal_pr(self.fit, self.ds).point == pytest.approx(2.0, abs=1e-10)

    def test_cpr_equals_mpr_tightly(self):
        c = conditional_pr(self.fit, self.ds).point
        m = marginal_pr(self.fit, self.ds).point
        assert abs(c - m) < 1e-10

    def test_por_is_cross_product_ratio(self):
        por = prevalence_odds_ratio(self.fit)
        assert por.point == pytest.approx(8.0 / 3.0, abs=1e-8)

    def test_zero_effect_gives_unit_por(self):
        ds = table_dataset(30, 70, 30, 70)
        fit = fit_glm(ds, "binomial-logit")
        por = prevalence_odds_ratio(fit)
        assert por.point == pytest.approx(1.0, abs=1e-10)
        assert por.interval.lower * por.interval.upper == pytest.approx(1.0, abs=1e-8)


class TestConditionalPr:
    def test_matches_scalar_formula_at_weighted_means(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        est = conditional_pr(fit, toy_ds)
        zbar = float(toy_ds.X[:, 2].mean())
        b0, b1, b2 = fit.beta
        expected = expit(b0 + b1 + b2 * zbar) / expit(b0 + b2 * zbar)
        assert est.point == pytest.approx(expected, rel=1e-12)
        assert est.metadata["conditioning"] == {"z": pytest.approx(zbar)}

    def test_at_override_moves_conditioning_point(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        est = conditional_pr(fit, toy_ds, at={"z": 1.5})
        b0, b1, b2 = fit.beta
        expected = expit(b0 + b1 + b2 * 1.5) / expit(b0 + b2 * 1.5)
        assert est.point == pytest.approx(expected, rel=1e-12)

    def test_at_rejects_intercept_and_exposure(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        with pytest.raises(ValueError):
            conditional_pr(fit, toy_ds, at={INTERCEPT_NAME: 1.0})
        with pytest.raises(ValueError):
            conditional_pr(fit, toy_ds, at={"x": 1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_at_rejects_non_finite_values(self, toy_ds, value):
        fit = fit_glm(toy_ds, "binomial-logit")
        with pytest.raises(InvalidArgumentError, match="'z' must be finite"):
            conditional_pr(fit, toy_ds, at={"z": value})
        got = bootstrap_prs(fit, toy_ds, ("CPR",), 100, seed=0, at={"z": value})
        assert isinstance(got["CPR"], InvalidArgumentError)
        assert "'z'" in str(got["CPR"])

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_level_outside_the_unit_interval_is_an_argument_error(self, toy_ds, level,
                                                                  monkeypatch):
        fit = fit_glm(toy_ds, "binomial-logit")
        message = r"level must be in \(0, 1\), got"
        for estimate in (conditional_pr, marginal_pr, lambda f, ds, lv:
                         prevalence_odds_ratio(f, lv)):
            with pytest.raises(InvalidArgumentError, match=message):
                estimate(fit, toy_ds, level)

        def no_refit(*args, **kwargs):
            raise AssertionError("the level is checked before any fit")
        monkeypatch.setattr(ratios, "_refit", no_refit)
        with pytest.raises(InvalidArgumentError, match=message):
            bootstrap_prs(fit, toy_ds, ("CPR", "MPR"), 100, seed=0, level=level)

    def test_at_errors_are_typed(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        for at, match in (({INTERCEPT_NAME: 1.0}, "intercept"), ({"x": 1.0}, "contrasted")):
            with pytest.raises(InvalidArgumentError, match=match) as err:
                conditional_pr(fit, toy_ds, at=at)
            assert isinstance(err.value, PrevRatioError)

    def test_requires_logistic_fit(self, toy_ds):
        pois = fit_glm(toy_ds, "poisson-log")
        with pytest.raises(InvalidArgumentError, match="'poisson-log'") as err:
            conditional_pr(pois, toy_ds)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("at", [None, {"z1": -0.75}, {"z0": 2.0, "z2": 0.5}])
    def test_is_the_marginal_ratio_of_the_conditioning_row(self, seed, at):
        # the CPR is the MPR of a one-row population: the conditioning point
        # with the exposure at 0
        rng = np.random.default_rng(seed)
        ds = random_logistic_dataset(rng, 400, 3)
        ds = Dataset(y=ds.y, X=ds.X, column_names=ds.column_names,
                     weights=rng.uniform(0.5, 2.0, ds.n))
        fit = fit_glm(ds, "binomial-logit")
        cpr = conditional_pr(fit, ds, at=at)
        row = np.array([1.0, 0.0, *cpr.metadata["conditioning"].values()])
        one_row_ds = Dataset(y=[1.0], X=row[None], column_names=ds.column_names)
        mpr = marginal_pr(fit, one_row_ds)
        assert cpr.interval == mpr.interval  # point, se and bounds
        assert np.array_equal(cpr.metadata["gradient"], mpr.metadata["gradient"])

    def test_degenerate_denominator(self):
        ds = table_dataset(3, 3, 3, 3)
        fit = fake_logistic_fit([-40.0, 1.0])
        with pytest.raises(DegenerateDenominatorError):
            conditional_pr(fit, ds)

    @pytest.mark.parametrize("estimator", [conditional_pr, marginal_pr])
    def test_zero_ratio_is_degenerate(self, estimator):
        # the exposed prevalence underflows to 0, so the ratio has no log scale
        ds = table_dataset(3, 3, 3, 3)
        fit = fake_logistic_fit([-5.0, -800.0])
        with pytest.raises(DegenerateDenominatorError, match="ratio of 0"):
            estimator(fit, ds)

    @pytest.mark.parametrize("estimator", [conditional_pr, marginal_pr])
    def test_tiny_ratio_has_zero_se(self, estimator):
        # pr ~ 3e-200, so pr * pr underflows to 0; the variance 0 must still divide
        ds = table_dataset(3, 3, 3, 3)
        est = estimator(fake_logistic_fit([0.0, -460.0]), ds)
        iv = est.interval
        assert iv.point == pytest.approx(2.0 * expit(-460.0), rel=1e-12)
        assert (iv.se, iv.lower, iv.upper) == (0.0, iv.point, iv.point)

    def test_por_cpr_identity(self, toy_ds):
        # POR = CPR * (1 - P0) / (1 - P1) at the conditioning point
        fit = fit_glm(toy_ds, "binomial-logit")
        cpr = conditional_pr(fit, toy_ds)
        por = prevalence_odds_ratio(fit)
        p1, p0 = cpr.metadata["p_exposed"], cpr.metadata["p_unexposed"]
        assert por.point == pytest.approx(cpr.point * (1 - p0) / (1 - p1), rel=1e-10)
        assert por.point > cpr.point


class TestMarginalPr:
    def test_matches_brute_force_averaging(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        est = marginal_pr(fit, toy_ds)
        b = fit.beta
        p1 = np.mean([float(expit(b[0] + b[1] * 1.0 + b[2] * z))
                      for z in toy_ds.X[:, 2]])
        p0 = np.mean([float(expit(b[0] + b[2] * z)) for z in toy_ds.X[:, 2]])
        assert est.point == pytest.approx(p1 / p0, rel=1e-12)

    def test_weighted_averaging(self):
        # two covariate patterns with weights standing in for copies
        y = np.array([1.0, 0.0, 1.0, 0.0])
        x = np.array([1.0, 1.0, 0.0, 0.0])
        z = np.array([0.0, 2.0, 0.0, 2.0])
        w = np.array([3.0, 1.0, 1.0, 3.0])
        ds_w = Dataset(y=y, X=np.column_stack([np.ones(4), x, z]),
                       column_names=(INTERCEPT_NAME, "x", "z"), weights=w)
        idx = np.repeat(np.arange(4), w.astype(int))
        ds_e = Dataset(y=y[idx], X=np.column_stack([np.ones(8), x[idx], z[idx]]),
                       column_names=(INTERCEPT_NAME, "x", "z"))
        fit = fake_logistic_fit([-1.0, 0.8, 0.3], names=ds_w.column_names)
        mw = marginal_pr(fit, ds_w)
        me = marginal_pr(fit, ds_e)
        assert mw.point == pytest.approx(me.point, rel=1e-14)
        assert mw.interval.se == pytest.approx(me.interval.se, rel=1e-12)

    @staticmethod
    def copied_arms(fit, ds):
        """Both arms from explicit copies of X with the exposure set (the old formula)."""
        beta, w = fit.beta, ds.weights
        out = []
        for value in (1.0, 0.0):
            X = np.array(ds.X)
            X[:, 1] = value
            p = expit(X @ beta)
            out.append((float((w * p).sum() / w.sum()),
                        (X * (w * p * (1.0 - p))[:, None]).sum(axis=0) / w.sum()))
        (p1, g1), (p0, g0) = out
        return p1 / p0, (g1 * p0 - g0 * p1) / p0**2

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_copied_design(self, seed):
        # non-unit weights and a continuous exposure
        rng = np.random.default_rng(seed)
        n = 400
        X = np.column_stack([np.ones(n), rng.standard_normal(n), rng.random(n) < 0.5,
                             rng.standard_normal(n)])
        y = (rng.random(n) < expit(X @ [-0.7, 0.4, 0.6, -0.3])).astype(float)
        ds = Dataset(y=y, X=X, column_names=(INTERCEPT_NAME, "u", "x", "z"),
                     weights=rng.uniform(0.2, 3.0, n))
        fit = fit_glm(ds, "binomial-logit")
        est = marginal_pr(fit, ds)
        pr, grad = self.copied_arms(fit, ds)
        assert est.point == pytest.approx(pr, rel=1e-12)
        assert est.metadata["gradient"] == pytest.approx(grad, rel=1e-12, abs=1e-15)
        assert est.interval.se == pytest.approx(math.sqrt(grad @ fit.vcov @ grad),
                                                rel=1e-10)

    def test_cpr_equals_mpr_when_covariates_constant(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        n = 8
        X = np.column_stack([np.ones(n),
                             np.array([1.0, 0.0] * 4),
                             np.full(n, 0.5)])
        ds_const = Dataset(y=np.array([1.0, 0.0] * 4), X=X,
                           column_names=(INTERCEPT_NAME, "x", "z"))
        c = conditional_pr(fit, ds_const).point
        m = marginal_pr(fit, ds_const).point
        assert c == m


class TestAffineRecodingInvariance:
    def test_recoding_covariate_leaves_ratios_unchanged(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        X2 = np.array(toy_ds.X)
        X2[:, 2] = 2.0 * X2[:, 2] - 3.0
        ds2 = Dataset(y=toy_ds.y, X=X2, column_names=toy_ds.column_names)
        fit2 = fit_glm(ds2, "binomial-logit")
        for est in (conditional_pr, marginal_pr):
            a = est(fit, toy_ds)
            b = est(fit2, ds2)
            assert b.point == pytest.approx(a.point, abs=1e-8)
            assert b.interval.se == pytest.approx(a.interval.se, abs=1e-8)


class TestDeltaGradients:
    """Delta-method gradients agree with central finite differences."""

    def numeric_gradient(self, pr_of_beta, beta):
        grad = np.zeros(len(beta))
        for k in range(len(beta)):
            h = 1e-5 * (1.0 + abs(beta[k]))
            up = np.array(beta)
            up[k] += h
            dn = np.array(beta)
            dn[k] -= h
            grad[k] = (pr_of_beta(up) - pr_of_beta(dn)) / (2.0 * h)
        return grad

    def cpr_of_beta(self, ds):
        xbar = (ds.X * ds.weights[:, None]).sum(axis=0) / ds.weights.sum()

        def f(beta):
            x1 = np.array(xbar)
            x1[1] = 1.0
            x0 = np.array(xbar)
            x0[1] = 0.0
            return float(expit(x1 @ beta) / expit(x0 @ beta))

        return f

    def mpr_of_beta(self, ds):
        def f(beta):
            X1 = np.array(ds.X)
            X1[:, 1] = 1.0
            X0 = np.array(ds.X)
            X0[:, 1] = 0.0
            w = ds.weights
            p1 = float((w * expit(X1 @ beta)).sum() / w.sum())
            p0 = float((w * expit(X0 @ beta)).sum() / w.sum())
            return p1 / p0

        return f

    @pytest.mark.parametrize("seed", range(6))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_logistic_dataset(rng, 250, int(rng.integers(1, 4)))
        fit = fit_glm(ds, "binomial-logit")
        cpr = conditional_pr(fit, ds)
        mpr = marginal_pr(fit, ds)
        for est, oracle in ((cpr, self.cpr_of_beta(ds)), (mpr, self.mpr_of_beta(ds))):
            grad = np.asarray(est.metadata["gradient"])
            num = self.numeric_gradient(oracle, fit.beta)
            assert np.abs(grad - num).max() <= 1e-6 * (1.0 + np.abs(num).max())


class TestModelComparators:
    def test_log_binomial_on_saturated_table_is_crude(self):
        ds = table_dataset(40, 60, 20, 80)
        est = log_binomial_pr(ds)
        assert est.point == pytest.approx(2.0, abs=1e-10)
        assert est.metadata["se_scale"] == "log"

    def test_robust_poisson_on_saturated_table(self):
        a, b, c, d = 40, 60, 20, 80
        ds = table_dataset(a, b, c, d, weighted=False)
        est = robust_poisson_pr(ds)
        assert est.point == pytest.approx(2.0, abs=1e-10)
        closed = math.sqrt(1 / a - 1 / (a + b) + 1 / c - 1 / (c + d))
        assert est.interval.se == pytest.approx(closed, abs=1e-8)

    def test_comparators_cluster_near_logistic_ratios(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        mpr = marginal_pr(fit, toy_ds).point
        assert log_binomial_pr(toy_ds).point == pytest.approx(mpr, abs=0.05)
        assert robust_poisson_pr(toy_ds).point == pytest.approx(mpr, abs=0.05)


def bootstrap_logistic(ds, estimators, reps, **kwargs):
    """``bootstrap_prs`` of the full-data logistic fit of ``ds``."""
    return bootstrap_prs(fit_glm(ds, "binomial-logit"), ds, estimators, reps, **kwargs)


def bootstrap_one(ds, estimator, reps, **kwargs):
    """One estimator's ``bootstrap_prs`` result, raising the error that stopped it."""
    result = bootstrap_logistic(ds, (estimator,), reps, **kwargs)[estimator]
    if isinstance(result, Exception):
        raise result
    return result


class TestCoefficientVariance:
    def test_negative_variance_is_degenerate(self):
        fit = fake_logistic_fit([0.0, 1.0], vcov=np.diag([1.0, -1e-18]))
        with pytest.raises(DegenerateDenominatorError, match="log-scale variance .* is -1e-18"):
            prevalence_odds_ratio(fit)

    def test_nan_variance_is_not_representable(self):
        fit = fake_logistic_fit([0.0, 1.0], vcov=np.diag([1.0, math.nan]))
        with pytest.raises(DegenerateDenominatorError, match="is nan"):
            prevalence_odds_ratio(fit)

    def test_overflowing_coefficient_is_degenerate(self):
        # exp(800) overflows before the interval is built
        with pytest.raises(DegenerateDenominatorError, match="ratio of inf"):
            prevalence_odds_ratio(fake_logistic_fit([0.0, 800.0]))


class TestBootstrap:
    def test_point_is_full_data_estimate(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        delta = marginal_pr(fit, toy_ds)
        boot = bootstrap_one(toy_ds, "MPR", 120, seed=3)
        assert boot.point == delta.point
        assert boot.metadata["interval_type"] == "percentile bootstrap"

    def test_same_seed_bit_identical(self, toy_ds):
        a = bootstrap_one(toy_ds, "CPR", 110, seed=9)
        b = bootstrap_one(toy_ds, "CPR", 110, seed=9)
        assert a.interval == b.interval

    def test_overlaps_delta_interval_with_similar_width(self, toy_ds):
        fit = fit_glm(toy_ds, "binomial-logit")
        delta = conditional_pr(fit, toy_ds)
        boot = bootstrap_one(toy_ds, "CPR", 200, seed=13)
        assert boot.interval.lower < delta.interval.upper
        assert delta.interval.lower < boot.interval.upper
        ratio = boot.interval.width / delta.interval.width
        assert 0.8 <= ratio <= 1.25

    def test_rejects_small_reps_and_bad_estimator(self, toy_ds):
        with pytest.raises(ValueError):
            bootstrap_one(toy_ds, "MPR", 99, seed=1)
        with pytest.raises(ValueError):
            bootstrap_one(toy_ds, "POR", 100, seed=1)

    def test_rejects_negative_seed_by_name(self, toy_ds):
        with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
            bootstrap_one(toy_ds, "MPR", 100, seed=-3)

    def test_unstable_resampling_raises(self):
        y = np.array([1.0, 1.0, 0.0, 0.0])
        x = np.array([1.0, 0.0, 1.0, 0.0])
        ds = Dataset(y=y, X=np.column_stack([np.ones(4), x]),
                     column_names=(INTERCEPT_NAME, "x"))
        with pytest.raises(NonConvergenceError):
            bootstrap_one(ds, "CPR", 100, seed=0)

    def test_degenerate_draws_collapse_interval(self):
        iv = _percentile_interval(2.0, np.full(150, 2.0), 0.95)
        assert (iv.lower, iv.point, iv.upper) == (2.0, 2.0, 2.0)
        assert iv.se == 0.0


def row_copy_bootstrap(ds, estimator, reps, seed, level=0.95):
    """Reference loop: copy each resample's rows, refit cold, one estimator."""
    def estimate(data):
        fit = fit_glm(data, "binomial-logit")
        if estimator == "CPR":
            return conditional_pr(fit, data, level).point
        return marginal_pr(fit, data, level).point

    draws = []
    for r in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        draws.append(estimate(ds.take_rows(rng.integers(0, ds.n, size=ds.n))))
    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(draws, [alpha, 1.0 - alpha])
    return estimate(ds), float(np.std(draws, ddof=1)), lower, upper


def failing_points(method, bad_rows):
    """``ratios._points`` with ``method``'s points failing, as a DegenerateDenominatorError
    value, on the rows for which ``bad_rows(rows)`` holds; it is asked once per call for
    ``method``, and the other estimator's points are left alone."""
    points = ratios._points

    def wrapper(name, beta, rows, at, errors):
        out = points(name, beta, rows, at, errors)
        if name == method and bad_rows(rows):
            return [DegenerateDenominatorError("forced failure")] * len(out)
        return out
    return wrapper


def on_calls(fail_calls):
    """A test of rows that holds on the given 1-based calls of it."""
    calls = []

    def bad_rows(rows):
        calls.append(None)
        return len(calls) in fail_calls
    return bad_rows


def failing_refit(bad_rows):
    """``_refit`` whose loop fails with NonConvergenceError on the blocks for which
    ``bad_rows(block)`` holds, so the failure follows the replicate, whichever
    process runs it."""
    def wrapper(fit, block):
        newton = _refit(fit, block)
        if bad_rows(block):
            newton.errors[0] = NonConvergenceError("forced failure")
        return newton
    return wrapper


def resample_of(ds, seed, replicates):
    """A test for whether rows are the resample of one of ``replicates``."""
    keys = set()
    for r in replicates:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        counts = np.bincount(rng.integers(0, ds.n, size=ds.n), minlength=ds.n)
        keys.add(_resample(ds, counts).weights.tobytes())
    return lambda rows: rows.weights.tobytes() in keys


def one_step_start(full, X, y, w):
    """A refit's start: the full-data beta plus vcov times the score on the rows X, y, w."""
    mu = glm.expit(matvec_stack(X, full.beta))
    return full.beta + full.vcov @ rmatvec_stack(X, w * (y - mu))


class TestSharedBootstrap:
    @pytest.mark.parametrize("seed", [2, 11])
    def test_matches_row_copy_refits(self, toy_ds, seed):
        # the toy data, and the same with its confounder cut at 0: an all-0/1
        # design, whose resamples are its drawn patterns
        binary = dataclasses.replace(toy_ds, X=np.column_stack([toy_ds.X[:, :2],
                                                                toy_ds.X[:, 2] > 0.0]))
        assert binary._patterns is not None
        for ds in (toy_ds, binary):
            shared = bootstrap_logistic(ds, ("CPR", "MPR"), 100, seed=seed)
            for name in ("CPR", "MPR"):
                iv = shared[name].interval
                point, se, lower, upper = row_copy_bootstrap(ds, name, 100, seed)
                assert iv.point == pytest.approx(point, rel=1e-9)
                assert iv.se == pytest.approx(se, rel=1e-9)
                assert iv.lower == pytest.approx(lower, rel=1e-9)
                assert iv.upper == pytest.approx(upper, rel=1e-9)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_draws_are_the_public_points(self, toy_ds, seed):
        # replicates compute only the point, with the public estimators' arithmetic
        full = fit_glm(toy_ds, "binomial-logit")
        estimate = {"CPR": lambda fit, data: conditional_pr(fit, data).point,
                    "MPR": lambda fit, data: marginal_pr(fit, data).point}
        draws = {name: [] for name in estimate}
        for r in range(100):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
            counts = np.bincount(rng.integers(0, toy_ds.n, size=toy_ds.n), minlength=toy_ds.n)
            block = _resample(toy_ds, counts)
            data = Dataset(y=block.y[0], X=block.X[0], column_names=block.column_names,
                           weights=block.weights[0])
            start = one_step_start(full, data.X, data.y, data.weights)
            newton = _irls(data.X[None], data.y[None], data.weights[None], "binomial-logit",
                           data.column_names, start[None])
            fit = dataclasses.replace(full, beta=newton.beta[0])
            for name, fn in estimate.items():
                draws[name].append(fn(fit, data))
        out = bootstrap_logistic(toy_ds, ("CPR", "MPR"), 100, seed=seed)
        for name, fn in estimate.items():
            assert out[name].interval == _percentile_interval(
                fn(full, toy_ds), np.array(draws[name]), 0.95)

    def test_same_seed_bit_identical(self, toy_ds):
        a = bootstrap_logistic(toy_ds, ("CPR", "MPR"), 100, seed=9)
        b = bootstrap_logistic(toy_ds, ("MPR", "CPR"), 100, seed=9)
        assert a["CPR"].interval == b["CPR"].interval
        assert a["MPR"].interval == b["MPR"].interval
        assert bootstrap_one(toy_ds, "MPR", 100, seed=9).interval == a["MPR"].interval

    def test_estimator_failure_counts_against_itself_only(self, toy_ds,
                                                          monkeypatch, one_worker):
        alone = bootstrap_logistic(toy_ds, ("MPR",), 100, seed=4)["MPR"]
        # call 1 is the full-data estimate; calls 3 and 8 are replicates
        monkeypatch.setattr(ratios, "_points", failing_points("CPR", on_calls({3, 8})))
        out = bootstrap_logistic(toy_ds, ("CPR", "MPR"), 100, seed=4)
        assert out["CPR"].metadata["failed_replicates"] == 2
        assert out["CPR"].metadata["failure_reasons"] == {
            "DegenerateDenominatorError": 2}
        assert out["MPR"].metadata["failed_replicates"] == 0
        assert out["MPR"].metadata["failure_reasons"] == {}
        assert out["MPR"].interval == alone.interval

    def test_failed_refit_counts_against_every_estimator(self, toy_ds,
                                                         monkeypatch, one_worker):
        calls = []

        def fifth(block):
            calls.append(None)
            return len(calls) == 5
        monkeypatch.setattr(ratios, "_refit", failing_refit(fifth))
        out = bootstrap_logistic(toy_ds, ("CPR", "MPR"), 100, seed=4)
        assert len(calls) == 100
        for est in out.values():
            assert est.metadata["failed_replicates"] == 1
            assert est.metadata["failure_reasons"] == {"NonConvergenceError": 1}

    def test_unstable_estimator_fails_alone(self, toy_ds, monkeypatch, one_worker):
        def patch():
            monkeypatch.setattr(ratios, "_points", failing_points(
                "CPR", on_calls(set(range(2, 102)))))
        patch()
        out = bootstrap_logistic(toy_ds, ("CPR", "MPR"), 100, seed=4)
        assert isinstance(out["CPR"], NonConvergenceError)
        assert "DegenerateDenominatorError: 100" in str(out["CPR"])
        assert isinstance(out["MPR"], PrEstimate)
        patch()
        with pytest.raises(NonConvergenceError):
            bootstrap_one(toy_ds, "CPR", 100, seed=4)

    # the three tests above, with failures keyed on the replicate's data
    # and the replicates shared between two processes (0-49 and 50-99)
    def test_estimator_failure_counts_against_itself_only_in_workers(
            self, toy_ds, monkeypatch, workers):
        workers(2)
        alone = bootstrap_logistic(toy_ds, ("MPR",), 100, seed=4)["MPR"]
        monkeypatch.setattr(ratios, "_points", failing_points(
            "CPR", resample_of(toy_ds, 4, {1, 60})))
        out = bootstrap_logistic(toy_ds, ("CPR", "MPR"), 100, seed=4)
        assert out["CPR"].metadata["failed_replicates"] == 2
        assert out["CPR"].metadata["failure_reasons"] == {
            "DegenerateDenominatorError": 2}
        assert out["MPR"].metadata["failed_replicates"] == 0
        assert out["MPR"].metadata["failure_reasons"] == {}
        assert out["MPR"].interval == alone.interval

    def test_failed_refit_counts_against_every_estimator_in_workers(
            self, toy_ds, monkeypatch, workers):
        workers(2)
        monkeypatch.setattr(ratios, "_refit", failing_refit(resample_of(toy_ds, 4, {77})))
        out = bootstrap_logistic(toy_ds, ("CPR", "MPR"), 100, seed=4)
        for est in out.values():
            assert est.metadata["failed_replicates"] == 1
            assert est.metadata["failure_reasons"] == {"NonConvergenceError": 1}

    def test_unstable_estimator_fails_alone_in_workers(self, toy_ds, monkeypatch,
                                                       workers):
        workers(2)

        def patch():
            # the rows of a resample, not the block of toy_ds's own rows
            monkeypatch.setattr(ratios, "_points", failing_points(
                "CPR", lambda rows: not np.shares_memory(rows.weights, toy_ds.weights)))
        patch()
        out = bootstrap_logistic(toy_ds, ("CPR", "MPR"), 100, seed=4)
        assert isinstance(out["CPR"], NonConvergenceError)
        assert "DegenerateDenominatorError: 100" in str(out["CPR"])
        assert isinstance(out["MPR"], PrEstimate)
        patch()
        with pytest.raises(NonConvergenceError):
            bootstrap_one(toy_ds, "CPR", 100, seed=4)

    def test_full_data_fit_passed_in(self, toy_ds, monkeypatch, one_worker):
        # every refit starts from the passed-in fit's one-step estimate; none starts cold
        full = fit_glm(toy_ds, "binomial-logit")
        expected = bootstrap_prs(full, toy_ds, ("CPR", "MPR"), 100, seed=5)
        starts = []

        def recording_loop(X, y, w, family_link, column_names, start=None):
            starts.append((X[0], y[0], w[0], start))
            return _irls(X, y, w, family_link, column_names, start)
        monkeypatch.setattr(glm, "_irls", recording_loop)
        assert bootstrap_prs(full, toy_ds, ("CPR", "MPR"), 100, seed=5) == expected
        assert len(starts) == 100
        for X, y, w, start in starts:
            assert np.array_equal(start, one_step_start(full, X, y, w)[None])

    def test_start_that_is_not_finite_falls_back_to_the_fit(self, toy_ds):
        full = fit_glm(toy_ds, "binomial-logit")
        block = _resample(toy_ds, np.arange(toy_ds.n) % 3)
        broken = dataclasses.replace(full, vcov=np.full_like(full.vcov, np.inf))
        from_fit = _irls(block.X, block.y, block.weights, "binomial-logit", block.column_names,
                         full.beta[None])
        assert np.array_equal(_refit(broken, block).beta[0], from_fit.beta[0])
        assert not np.array_equal(_refit(full, block).beta[0], _refit(broken, block).beta[0])

    def test_refits_take_three_newton_steps_and_no_covariance(self, toy_ds, monkeypatch,
                                                              one_worker):
        # from the one-step start each refit takes 3 iterations (from the
        # full-data coefficients they took 4 or 5, 430 in all), and none
        # computes its fitted mu or covariance
        full = fit_glm(toy_ds, "binomial-logit")
        iterations, finishes = [], []

        def counting_loop(*args):
            newton = _irls(*args)
            iterations.extend(newton.iterations.tolist())
            return newton

        def counting_finish(*args):
            finishes.append(None)
            return _finish(*args)
        monkeypatch.setattr(glm, "_irls", counting_loop)
        monkeypatch.setattr(glm, "_finish", counting_finish)
        bootstrap_prs(full, toy_ds, ("CPR", "MPR"), 100, seed=9)
        assert sum(iterations) == 300
        assert iterations == [3] * 100
        assert finishes == []

    def test_full_data_failure_is_per_estimator(self, toy_ds):
        out = bootstrap_logistic(toy_ds, ("CPR", "MPR"), 100, seed=4,
                            at={"z": -1000.0})
        assert isinstance(out["CPR"], DegenerateDenominatorError)
        assert isinstance(out["MPR"], PrEstimate)

    def test_rejects_bad_estimators(self, toy_ds):
        for bad in ((), ("CPR", "POR")):
            with pytest.raises(ValueError):
                bootstrap_logistic(toy_ds, bad, 100, seed=1)


class TestCrudeReference:
    def test_crude_matches_hand_formula(self):
        est = crude_pr(StratifiedTable(((40.0, 60.0, 20.0, 80.0),)))
        assert est.point == pytest.approx(2.0, abs=1e-14)
        assert est.interval.se == pytest.approx(math.sqrt(0.055), abs=1e-12)
