"""Prevalence ratios derived from a fitted logistic model.

Two adjusted estimators are provided. The conditional ratio (CPR) fixes
every covariate at its weighted mean and contrasts the predicted
prevalence at exposure 1 versus exposure 0. The marginal ratio (MPR)
toggles the exposure for every observed row, averages the predicted
prevalences, and takes the ratio of the averages. Both carry first-order
delta-method standard errors propagated through the model's coefficient
covariance, with Wald intervals built on the log scale. The prevalence
odds ratio (POR) and a case-resampling percentile bootstrap round out the
module, together with :class:`PrEstimate` and the coefficient-ratio
helper that the log-binomial, robust-Poisson and Schouten estimates of
``methods.METHODS`` share; this module fits none of those models.

Every estimator contrasts the exposure, design column ``EXPOSURE_COL``,
at 1 versus 0; for a continuous exposure that reads as a one-unit
increase from zero.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .data import Dataset, EXPOSURE_COL, INTERCEPT_NAME, covariate_means
from .errors import (DegenerateDenominatorError, InvalidArgumentError, NonConvergenceError,
                     PrevRatioError)
from .glm import FitResult, expit, fit_glm
from .linalg import matvec_stack, rmatvec_stack
from .parallel import _fork_map
from .variance import IntervalEstimate, check_level, ratio_interval

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
            raise InvalidArgumentError(f"unknown method label {self.method!r}")

    @property
    def point(self) -> float:
        return self.interval.point


def _require_logistic(fit: FitResult) -> None:
    if fit.family_link != "binomial-logit":
        raise InvalidArgumentError(
            f"this estimator needs a binomial-logit fit, got {fit.family_link!r}"
        )


def _conditioning_point(ds: Dataset, at: Mapping[str, float] | None) -> np.ndarray:
    xbar = covariate_means(ds)
    if at:
        for name, value in at.items():
            j = ds.column_index(name)
            if j == 0:
                raise InvalidArgumentError("cannot condition on the intercept")
            if j == EXPOSURE_COL:
                raise InvalidArgumentError(
                    f"{name!r} is the contrasted predictor; its value is set "
                    "by the 1-vs-0 contrast"
                )
            value = float(value)
            if not math.isfinite(value):
                raise InvalidArgumentError(
                    f"the conditioning value of {name!r} must be finite, got {value}"
                )
            xbar[j] = value
    return xbar


def _delta_interval(pr: float, grad: np.ndarray, vcov: np.ndarray,
                    level: float) -> IntervalEstimate:
    """Log-scale Wald interval of ``pr``, with its delta-method SE on the ratio scale."""
    var = float(grad @ vcov @ grad)
    # var / pr**2 as two divisions, since pr * pr can underflow; a ratio of 0
    # fails in ratio_interval, before its variance is read
    interval = ratio_interval(pr, var / pr / pr if pr > 0.0 else 0.0, level)
    return replace(interval, se=math.sqrt(var))


def _coefficient_ratio(method: str, fit: FitResult, k: int, vcov: np.ndarray,
                       level: float, metadata: Mapping[str, Any]) -> PrEstimate:
    """exp(beta_k) of ``fit`` with a log-scale Wald interval from ``vcov``."""
    try:
        point = math.exp(fit.beta[k])
    except OverflowError:
        point = math.inf
    return PrEstimate(
        method=method,
        interval=ratio_interval(point, float(vcov[k, k]), level),
        exposure=fit.column_names[k],
        metadata=metadata,
    )


def _cpr_point(beta: np.ndarray, ds: Dataset, at: Mapping[str, float] | None
               ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The conditioning point with the exposure at 1 and at 0, and the prevalences there."""
    x1 = _conditioning_point(ds, at)
    x0 = x1.copy()
    x1[EXPOSURE_COL] = 1.0
    x0[EXPOSURE_COL] = 0.0
    p1 = float(expit(x1 @ beta))
    p0 = float(expit(x0 @ beta))
    if p0 < _MIN_DENOMINATOR:
        raise DegenerateDenominatorError(
            f"unexposed prevalence at the conditioning point is {p0:g}"
        )
    return x1, x0, p1, p0


def conditional_pr(fit: FitResult, ds: Dataset, level: float = 0.95, *,
                   at: Mapping[str, float] | None = None) -> PrEstimate:
    """Prevalence ratio at fixed covariate values (weighted means by default).

    ``at`` overrides individual conditioning values by column name, for
    higher- or lower-risk scenarios than the average profile.
    """
    _require_logistic(fit)
    x1, x0, p1, p0 = _cpr_point(fit.beta, ds, at)
    pr = p1 / p0
    grad_p1 = x1 * (p1 * (1.0 - p1))
    grad_p0 = x0 * (p0 * (1.0 - p0))
    grad = (grad_p1 * p0 - grad_p0 * p1) / p0**2
    interval = _delta_interval(pr, grad, fit.vcov, level)
    conditioning = {name: float(v) for name, v in zip(ds.column_names, x0)
                    if name != INTERCEPT_NAME}
    conditioning.pop(ds.exposure_name, None)
    return PrEstimate(
        method="CPR",
        interval=interval,
        exposure=ds.exposure_name,
        metadata={
            "se_scale": "ratio",
            "contrast": "1 vs 0",
            "conditioning": conditioning,
            "p_exposed": p1,
            "p_unexposed": p0,
            "gradient": grad,
        },
    )


def _mpr_point(beta: np.ndarray, ds: Dataset) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Average prevalences with the exposure at 1 and at 0, and each row's in both arms.

    A row's linear predictor with the exposure set to a value is X beta
    shifted by the exposure's term, so X is not copied.
    """
    w = ds.weights
    wsum = float(w.sum())
    eta = matvec_stack(ds.X, beta)
    shift = ds.X[:, EXPOSURE_COL] * beta[EXPOSURE_COL]
    rows1 = expit(eta + (beta[EXPOSURE_COL] - shift))
    rows0 = expit(eta - shift)
    p1 = float((w * rows1).sum() / wsum)
    p0 = float((w * rows0).sum() / wsum)
    if p0 < _MIN_DENOMINATOR:
        raise DegenerateDenominatorError(
            f"average unexposed prevalence is {p0:g}"
        )
    return p1, p0, rows1, rows0


def marginal_pr(fit: FitResult, ds: Dataset, level: float = 0.95) -> PrEstimate:
    """Ratio of average predicted prevalences with the exposure toggled.

    Averages over the observed covariate distribution use the prior
    weights when present.
    """
    _require_logistic(fit)
    p1, p0, rows1, rows0 = _mpr_point(fit.beta, ds)
    w = ds.weights
    wsum = float(w.sum())

    def gradient(value: float, p: np.ndarray) -> np.ndarray:
        slope = w * p * (1.0 - p)
        grad = rmatvec_stack(ds.X, slope)
        grad[EXPOSURE_COL] = value * slope.sum()
        return grad / wsum

    pr = p1 / p0
    grad = (gradient(1.0, rows1) * p0 - gradient(0.0, rows0) * p1) / p0**2
    interval = _delta_interval(pr, grad, fit.vcov, level)
    return PrEstimate(
        method="MPR",
        interval=interval,
        exposure=ds.exposure_name,
        metadata={
            "se_scale": "ratio",
            "contrast": "1 vs 0",
            "p_exposed": p1,
            "p_unexposed": p0,
            "gradient": grad,
        },
    )


def prevalence_odds_ratio(fit: FitResult, level: float = 0.95) -> PrEstimate:
    """exp(beta) for the exposure, with a log-scale Wald interval."""
    _require_logistic(fit)
    return _coefficient_ratio("POR", fit, EXPOSURE_COL, fit.vcov, level, {"se_scale": "log"})


def _percentile_interval(point: float, draws: np.ndarray,
                         level: float) -> IntervalEstimate:
    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(draws, [alpha, 1.0 - alpha])
    se = float(np.std(draws, ddof=1)) if len(draws) > 1 else 0.0
    return IntervalEstimate(point=point, se=se, lower=float(lower),
                            upper=float(upper), level=level)


def bootstrap_prs(fit: FitResult, ds: Dataset, estimators: Sequence[str], reps: int, *,
                  seed: int, level: float = 0.95,
                  at: Mapping[str, float] | None = None
                  ) -> dict[str, PrEstimate | Exception]:
    """Case-resampling percentile bootstrap for the CPR and/or MPR of ``fit``.

    ``fit`` is the full-data logistic fit of ``ds``; a fit of another
    family raises InvalidArgumentError. The point estimate stays the
    full-data estimate; the interval comes from the percentiles of the
    replicate estimates. Replicate r draws its resample from an
    independent substream derived from (seed, r), so the result does not
    depend on execution order; the replicates run on every available CPU
    and the result is bit for bit the same for any number of them. Each
    resample is refitted once, as the drawn rows weighted by how often
    they were drawn and starting from ``fit``'s coefficients, and every
    requested estimator is read off that one refit.

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
        raise InvalidArgumentError(
            f"estimators must be 'CPR' and/or 'MPR', got {estimators!r}"
        )
    if reps < 100:
        raise InvalidArgumentError(f"need at least 100 bootstrap replicates, got {reps}")
    if seed < 0:
        raise InvalidArgumentError(f"bootstrap seed must be non-negative, got {seed}")
    check_level(level)
    _require_logistic(fit)

    def estimate(name: str, beta: np.ndarray, data: Dataset) -> float:
        # the point alone; the delta-method SE is of no use here
        if name == "CPR":
            _, _, p1, p0 = _cpr_point(beta, data, at)
        else:
            p1, p0, _, _ = _mpr_point(beta, data)
        return p1 / p0

    results: dict[str, PrEstimate | Exception] = {}
    full: dict[str, float] = {}
    for name in estimators:
        try:
            full[name] = estimate(name, fit.beta, ds)
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
                refit = fit_glm(data, "binomial-logit", beta0=fit.beta)
            except PrevRatioError as exc:
                for name in full:
                    failures[name][type(exc).__name__] += 1
                continue
            for name in full:
                try:
                    draws[name].append(estimate(name, refit.beta, data))
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
