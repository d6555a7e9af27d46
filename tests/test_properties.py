"""Every public estimator returns a finite estimate or a typed error.

The datasets are small (4 to 60 rows) and drawn from logistic models with
extreme coefficients, 0-3 covariates that mix 0/1 and normal columns, and
no, integer or real prior weights; many are separated or degenerate. An
estimator must return a PrEstimate whose point, bounds and SE are finite,
or raise a PrevRatioError. A raw numpy error, a non-finite number or a
stray RuntimeWarning (an error under the suite's warning filters) fails.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from prevratio import (INTERCEPT_NAME, Dataset, PrEstimate, PrevRatioError, bootstrap_prs,
                       conditional_pr, crude_pr, crude_table, fit_glm, log_binomial_pr,
                       mantel_haenszel_pr, marginal_pr, parallel, prevalence_odds_ratio,
                       robust_poisson_pr, schouten_pr, stratified_from_dataset)

ESTIMATORS = {
    "CPR": lambda ds: conditional_pr(fit_glm(ds, "binomial-logit"), ds),
    "MPR": lambda ds: marginal_pr(fit_glm(ds, "binomial-logit"), ds),
    "POR": lambda ds: prevalence_odds_ratio(fit_glm(ds, "binomial-logit")),
    "LogBinomial": log_binomial_pr,
    "RobustPoisson": robust_poisson_pr,
    "Schouten": schouten_pr,
    "Crude": lambda ds: crude_pr(crude_table(ds)),
    "MantelHaenszel": lambda ds: mantel_haenszel_pr(stratified_from_dataset(ds)),
}

COEFFICIENTS = st.sampled_from([-40.0, -8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 8.0, 40.0])


@st.composite
def datasets(draw):
    n = draw(st.integers(4, 60))
    kinds = draw(st.lists(st.sampled_from(["binary", "normal"]), max_size=3))
    beta = np.array(draw(st.lists(COEFFICIENTS, min_size=2 + len(kinds),
                                  max_size=2 + len(kinds))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))).astype(float)
    Z = [(rng.random(n) < 0.5).astype(float) if kind == "binary" else rng.standard_normal(n)
         for kind in kinds]
    X = np.column_stack([np.ones(n), x, *Z])
    y = (rng.random(n) < expit(X @ beta)).astype(float)
    weights = draw(st.sampled_from([None, "integer", "real"]))
    if weights == "integer":
        weights = rng.integers(1, 6, n).astype(float)
    elif weights == "real":
        weights = rng.uniform(0.05, 5.0, n)
    names = (INTERCEPT_NAME, "x", *(f"z{j}" for j in range(len(kinds))))
    return Dataset(y=y, X=X, column_names=names, weights=weights)


def assert_finite(estimate):
    assert isinstance(estimate, PrEstimate)
    iv = estimate.interval
    assert all(math.isfinite(v) for v in (iv.point, iv.se, iv.lower, iv.upper)), estimate


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ds=datasets(), boot=st.sampled_from([False, False, True]))
def test_finite_estimate_or_typed_error(ds, boot):
    for estimator in ESTIMATORS.values():
        try:
            estimate = estimator(ds)
        except PrevRatioError:
            continue
        assert_finite(estimate)
    if not boot:
        return
    try:
        fit = fit_glm(ds, "binomial-logit")
    except PrevRatioError:
        return
    with mock.patch.object(parallel, "_worker_count", return_value=1):
        results = bootstrap_prs(fit, ds, ("CPR", "MPR"), 100, seed=0)
    for result in results.values():
        if not isinstance(result, PrevRatioError):
            assert_finite(result)
