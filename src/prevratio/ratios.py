"""Prevalence ratios derived from a fitted logistic model.

Two adjusted estimators are provided. The conditional ratio (CPR) fixes
every covariate at its weighted mean and contrasts the predicted
prevalence at exposure 1 versus exposure 0. The marginal ratio (MPR)
toggles the exposure for every observed row, averages the predicted
prevalences, and takes the ratio of the averages. Both carry first-order
delta-method standard errors propagated through the model's coefficient
covariance, with Wald intervals built on the log scale. The prevalence
odds ratio (POR) and a case-resampling percentile bootstrap round out the
module.

The exposure contrast is always 1 versus 0; for a continuous exposure
that reads as a one-unit increase from zero.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .data import Dataset, EXPOSURE_COL, INTERCEPT_NAME, covariate_means
from .errors import (DataError, DegenerateDenominatorError, InvalidArgumentError,
                     NonConvergenceError, PrevRatioError)
from .glm import FitResult, expit, fit_glm
from .linalg import matvec_stack, rmatvec_stack
from .parallel import _fork_map
from .variance import (IntervalEstimate, interval_from_log_scale,
                       normal_quantile, sandwich_vcov, wald_ci_log_scale)

METHOD_LABELS = (
    "POR", "CPR", "MPR", "LogBinomial", "RobustPoisson",
    "MantelHaenszel", "Schouten", "Crude",
)

#: estimators that bootstrap_prs can resample
BOOTSTRAP_ESTIMATORS = ("CPR", "MPR")

_MIN_DENOMINATOR = 1e-12


@dataclass(frozen=True)
class PrEstimate:
    """A labeled ratio estimate with its interval and free-form notes."""

    method: str
    interval: IntervalEstimate
    exposure: str
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHOD_LABELS:
            raise ValueError(f"unknown method label {self.method!r}")

    @property
    def point(self) -> float:
        return self.interval.point


def _require_logistic(fit: FitResult) -> None:
    if fit.family_link != "binomial-logit":
        raise ValueError(
            f"this estimator needs a binomial-logit fit, got {fit.family_link!r}"
        )
    if not fit.converged:
        raise ValueError("fit did not converge")


def _predictor_index(column_names: tuple[str, ...], predictor: str | None) -> int:
    if predictor is None:
        return EXPOSURE_COL
    if predictor not in column_names:
        raise DataError(f"no design column named {predictor!r}")
    k = column_names.index(predictor)
    if k == 0:
        raise InvalidArgumentError("the intercept is not a predictor")
    return k


def _conditioning_point(ds: Dataset, k: int,
                        at: Mapping[str, float] | None) -> np.ndarray:
    xbar = covariate_means(ds)
    if at:
        for name, value in at.items():
            j = ds.column_index(name)
            if j == 0:
                raise InvalidArgumentError("cannot condition on the intercept")
            if j == k:
                raise InvalidArgumentError(
                    f"{name!r} is the contrasted predictor; its value is set "
                    "by the 1-vs-0 contrast"
                )
            xbar[j] = float(value)
    return xbar


def _delta_interval(pr: float, grad: np.ndarray, vcov: np.ndarray,
                    level: float) -> tuple[IntervalEstimate, float]:
    var = float(grad @ vcov @ grad)
    se = math.sqrt(max(var, 0.0))
    # a near-separated fit can make se/pr so large that the log-scale
    # bounds leave the representable range; surface that as degeneracy
    z = normal_quantile((1.0 + level) / 2.0)
    if not math.isfinite(se) or z * se / pr + abs(math.log(pr)) > 700.0:
        raise DegenerateDenominatorError(
            f"delta-method standard error {se:g} overwhelms the estimate "
            f"{pr:g}; the fit looks separated"
        )
    return wald_ci_log_scale(pr, se, level), se


def _cpr_point(beta: np.ndarray, ds: Dataset, k: int, at: Mapping[str, float] | None
               ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The conditioning point with predictor k at 1 and at 0, and the prevalences there."""
    x1 = _conditioning_point(ds, k, at)
    x0 = x1.copy()
    x1[k] = 1.0
    x0[k] = 0.0
    p1 = float(expit(x1 @ beta))
    p0 = float(expit(x0 @ beta))
    if p0 < _MIN_DENOMINATOR:
        raise DegenerateDenominatorError(
            f"unexposed prevalence at the conditioning point is {p0:g}"
        )
    return x1, x0, p1, p0


def conditional_pr(fit: FitResult, ds: Dataset, level: float = 0.95, *,
                   predictor: str | None = None,
                   at: Mapping[str, float] | None = None) -> PrEstimate:
    """Prevalence ratio at fixed covariate values (weighted means by default).

    ``at`` overrides individual conditioning values by column name, for
    higher- or lower-risk scenarios than the average profile.
    """
    _require_logistic(fit)
    k = _predictor_index(ds.column_names, predictor)
    x1, x0, p1, p0 = _cpr_point(fit.beta, ds, k, at)
    pr = p1 / p0
    grad_p1 = x1 * (p1 * (1.0 - p1))
    grad_p0 = x0 * (p0 * (1.0 - p0))
    grad = (grad_p1 * p0 - grad_p0 * p1) / p0**2
    interval, se = _delta_interval(pr, grad, fit.vcov, level)
    conditioning = {name: float(v) for name, v in zip(ds.column_names, x0)
                    if name != INTERCEPT_NAME}
    conditioning.pop(ds.column_names[k], None)
    return PrEstimate(
        method="CPR",
        interval=interval,
        exposure=ds.column_names[k],
        metadata={
            "se_scale": "ratio",
            "contrast": "1 vs 0",
            "conditioning": conditioning,
            "p_exposed": p1,
            "p_unexposed": p0,
            "gradient": grad,
        },
    )


def _mpr_point(beta: np.ndarray, ds: Dataset,
               k: int) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Average prevalences with predictor k at 1 and at 0, and each row's in both arms.

    A row's linear predictor with column k set to a value is X beta
    shifted by that column's term, so X is not copied.
    """
    w = ds.weights
    wsum = float(w.sum())
    eta = matvec_stack(ds.X, beta)
    shift = ds.X[:, k] * beta[k]
    rows1 = expit(eta + (beta[k] - shift))
    rows0 = expit(eta - shift)
    p1 = float((w * rows1).sum() / wsum)
    p0 = float((w * rows0).sum() / wsum)
    if p0 < _MIN_DENOMINATOR:
        raise DegenerateDenominatorError(
            f"average unexposed prevalence is {p0:g}"
        )
    return p1, p0, rows1, rows0


def marginal_pr(fit: FitResult, ds: Dataset, level: float = 0.95, *,
                predictor: str | None = None) -> PrEstimate:
    """Ratio of average predicted prevalences with the exposure toggled.

    Averages over the observed covariate distribution use the prior
    weights when present.
    """
    _require_logistic(fit)
    k = _predictor_index(ds.column_names, predictor)
    p1, p0, rows1, rows0 = _mpr_point(fit.beta, ds, k)
    w = ds.weights
    wsum = float(w.sum())

    def gradient(value: float, p: np.ndarray) -> np.ndarray:
        slope = w * p * (1.0 - p)
        grad = rmatvec_stack(ds.X, slope)
        grad[k] = value * slope.sum()
        return grad / wsum

    pr = p1 / p0
    grad = (gradient(1.0, rows1) * p0 - gradient(0.0, rows0) * p1) / p0**2
    interval, se = _delta_interval(pr, grad, fit.vcov, level)
    return PrEstimate(
        method="MPR",
        interval=interval,
        exposure=ds.column_names[k],
        metadata={
            "se_scale": "ratio",
            "contrast": "1 vs 0",
            "p_exposed": p1,
            "p_unexposed": p0,
            "gradient": grad,
        },
    )


def prevalence_odds_ratio(fit: FitResult, level: float = 0.95, *,
                          predictor: str | None = None) -> PrEstimate:
    """exp(beta) for the exposure, with a log-scale Wald interval."""
    _require_logistic(fit)
    k = _predictor_index(fit.column_names, predictor)
    b = float(fit.beta[k])
    se_log = math.sqrt(float(fit.vcov[k, k]))
    interval = interval_from_log_scale(b, se_log, level)
    return PrEstimate(
        method="POR",
        interval=interval,
        exposure=fit.column_names[k],
        metadata={"se_scale": "log"},
    )


def log_binomial_pr(ds: Dataset, level: float = 0.95) -> PrEstimate:
    """Prevalence ratio from a binomial GLM with a log link.

    The exposure coefficient is the log PR directly, with a model-based
    Wald interval. This is the estimator that can fail to converge when
    fitted prevalences are pushed toward 1; failures propagate.
    """
    return _log_binomial_from_fit(fit_glm(ds, "binomial-log"), level)


def _log_binomial_from_fit(fit: FitResult, level: float) -> PrEstimate:
    k = EXPOSURE_COL
    b = float(fit.beta[k])
    se_log = math.sqrt(float(fit.vcov[k, k]))
    interval = interval_from_log_scale(b, se_log, level)
    return PrEstimate(
        method="LogBinomial",
        interval=interval,
        exposure=fit.column_names[k],
        metadata={"se_scale": "log", "iterations": fit.iterations},
    )


def robust_poisson_pr(ds: Dataset, level: float = 0.95) -> PrEstimate:
    """Prevalence ratio from a Poisson GLM on binary data with sandwich SEs.

    The Poisson variance is misspecified for a 0/1 outcome, so the
    model-based covariance is replaced by the HC0 sandwich before the
    Wald interval is built.
    """
    return _robust_poisson_from_fit(fit_glm(ds, "poisson-log"), ds, level)


def _robust_poisson_from_fit(fit: FitResult, ds: Dataset, level: float) -> PrEstimate:
    robust = sandwich_vcov(fit, ds)
    k = EXPOSURE_COL
    b = float(fit.beta[k])
    se_log = math.sqrt(float(robust[k, k]))
    interval = interval_from_log_scale(b, se_log, level)
    return PrEstimate(
        method="RobustPoisson",
        interval=interval,
        exposure=ds.exposure_name,
        metadata={"se_scale": "log", "variance": "HC0 sandwich"},
    )


def _percentile_interval(point: float, draws: np.ndarray,
                         level: float) -> IntervalEstimate:
    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(draws, [alpha, 1.0 - alpha])
    se = float(np.std(draws, ddof=1)) if len(draws) > 1 else 0.0
    return IntervalEstimate(point=point, se=se, lower=float(lower),
                            upper=float(upper), level=level)


def bootstrap_prs(ds: Dataset, estimators: Sequence[str], reps: int, *,
                  seed: int, level: float = 0.95,
                  at: Mapping[str, float] | None = None,
                  full_fit: FitResult | PrevRatioError | None = None
                  ) -> dict[str, PrEstimate | Exception]:
    """Case-resampling percentile bootstrap for the CPR and/or MPR.

    The point estimate stays the full-data estimate; the interval comes
    from the percentiles of the replicate estimates. Replicate r draws its
    resample from an independent substream derived from (seed, r), so the
    result does not depend on execution order; the replicates run on every
    available CPU and the result is bit for bit the same for any number of
    them. Each resample is refitted once, as the drawn rows weighted by
    how often they were drawn and starting from the full-data
    coefficients, and every requested estimator is read off that one fit.
    ``full_fit`` is the full-data logistic fit of ``ds`` (or the error that
    stopped it) when the caller already has it; by default it is fitted
    here.

    Every estimate is the point alone, computed as the public estimator
    computes it, so none fails on a delta-method SE it does not use. A
    failed refit counts against every estimator; an estimator that fails
    on its own counts against itself only. Each estimator maps to its
    estimate, or to the error that stopped it: its full-data estimate
    failed (a PrevRatioError, such as InvalidArgumentError for an
    unusable ``at``), or more than 20% of its replicates failed
    (NonConvergenceError). One estimator's failure leaves the others'
    results intact.
    """
    estimators = tuple(dict.fromkeys(estimators))
    if not estimators or any(e not in BOOTSTRAP_ESTIMATORS for e in estimators):
        raise ValueError(
            f"estimators must be 'CPR' and/or 'MPR', got {estimators!r}"
        )
    if reps < 100:
        raise ValueError(f"need at least 100 bootstrap replicates, got {reps}")

    def estimate(name: str, fit: FitResult, data: Dataset) -> float:
        # the point alone; the delta-method SE is of no use here
        if name == "CPR":
            _, _, p1, p0 = _cpr_point(fit.beta, data, EXPOSURE_COL, at)
        else:
            p1, p0, _, _ = _mpr_point(fit.beta, data, EXPOSURE_COL)
        return p1 / p0

    if full_fit is None:
        try:
            full_fit = fit_glm(ds, "binomial-logit")
        except PrevRatioError as exc:
            full_fit = exc
    if isinstance(full_fit, PrevRatioError):
        return dict.fromkeys(estimators, full_fit)
    results: dict[str, PrEstimate | Exception] = {}
    full: dict[str, float] = {}
    for name in estimators:
        try:
            full[name] = estimate(name, full_fit, ds)
        except PrevRatioError as exc:
            results[name] = exc
    if not full:
        return results

    def replicates(part: range) -> tuple[dict[str, list[float]], dict[str, Counter]]:
        draws: dict[str, list[float]] = {name: [] for name in full}
        failures: dict[str, Counter] = {name: Counter() for name in full}
        for r in part:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
            counts = np.bincount(rng.integers(0, ds.n, size=ds.n), minlength=ds.n)
            data = ds.frequency_weighted(counts)
            try:
                fit = fit_glm(data, "binomial-logit", beta0=full_fit.beta)
            except PrevRatioError as exc:
                for name in full:
                    failures[name][type(exc).__name__] += 1
                continue
            for name in full:
                try:
                    draws[name].append(estimate(name, fit, data))
                except PrevRatioError as exc:
                    failures[name][type(exc).__name__] += 1
        return draws, failures

    # each part's draws in replicate order, so the joined draws are the serial ones
    draws: dict[str, list[float]] = {name: [] for name in full}
    failures: dict[str, Counter] = {name: Counter() for name in full}
    for part_draws, part_failures in _fork_map(replicates, range(reps)):
        for name in full:
            draws[name] += part_draws[name]
            failures[name].update(part_failures[name])

    for name, point in full.items():
        n_failed = sum(failures[name].values())
        reasons = dict(sorted(failures[name].items()))
        if n_failed > 0.2 * reps:
            results[name] = NonConvergenceError(
                f"{n_failed} of {reps} bootstrap replicates failed "
                f"({', '.join(f'{k}: {v}' for k, v in reasons.items())}); "
                "resampling is unstable on this dataset"
            )
            continue
        results[name] = PrEstimate(
            method=name,
            interval=_percentile_interval(point, np.array(draws[name]), level),
            exposure=ds.exposure_name,
            metadata={
                "se_scale": "ratio",
                "interval_type": "percentile bootstrap",
                "replicates": reps,
                "failed_replicates": n_failed,
                "failure_reasons": reasons,
                "seed": seed,
            },
        )
    return {name: results[name] for name in estimators}
