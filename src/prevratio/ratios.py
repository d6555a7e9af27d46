"""Prevalence ratios derived from a fitted logistic model.

Two adjusted estimators are provided, both from one exposure contrast.
The marginal ratio (MPR) sets the exposure to 1 and to 0 in every
observed row, averages the predicted prevalences of each arm with the
prior weights, and takes the ratio of the averages. The conditional
ratio (CPR) is the marginal ratio of a one-row population: the
conditioning point, every covariate at its weighted mean unless set.
Both carry first-order delta-method standard errors propagated through
the model's coefficient covariance, with Wald intervals built on the log
scale. The prevalence
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
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Any, Mapping, Sequence

import numpy as np

from .data import Dataset, EXPOSURE_COL, _distinct_rows, covariate_means
from .errors import (DegenerateDenominatorError, InvalidArgumentError, NonConvergenceError,
                     PrevRatioError, _failure_reasons, _outcome)
from .glm import FitResult, _check_columns, _refit, expit
from .linalg import matvec_stack, rmatvec_stack
from .parallel import _fork_map
from .variance import IntervalEstimate, check_level, ratio_interval

#: estimators that bootstrap_prs can resample
BOOTSTRAP_ESTIMATORS = ("CPR", "MPR")

_MIN_DENOMINATOR = 1e-12

# the weight of CPR's one-row population
_ONE_ROW_WEIGHT = np.ones(1)
_ONE_ROW_WEIGHT.setflags(write=False)


@cache
def _method_names() -> frozenset[str]:
    """The names of ``methods.METHODS``, which imports this module, so read on first use."""
    from .methods import METHODS
    return frozenset(METHODS)


@dataclass(frozen=True)
class PrEstimate:
    """A labeled ratio estimate with its interval and free-form notes."""

    method: str
    interval: IntervalEstimate
    exposure: str
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in _method_names():
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
    """CPR's one-row population: weighted covariate means, ``at`` applied, exposure 0."""
    x = covariate_means(ds)
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
            x[j] = value
    x[EXPOSURE_COL] = 0.0
    return x[None]


def _population(method: str, ds: Dataset, at: Mapping[str, float] | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``method`` averages its arms over, and their weights.

    For CPR that is its conditioning point, a population of one row; for
    MPR the sample, read off its pattern table when it has one.
    """
    if method == "CPR":
        return _conditioning_point(ds, at), _ONE_ROW_WEIGHT
    rows = _distinct_rows(ds)
    return rows.X, rows.weights


def _coefficient_ratio(method: str, fit: FitResult, vcov: np.ndarray,
                       level: float, metadata: Mapping[str, Any]) -> PrEstimate:
    """exp(beta) of ``fit``'s exposure with a log-scale Wald interval from ``vcov``."""
    try:
        point = math.exp(fit.beta[EXPOSURE_COL])
    except OverflowError:
        point = math.inf
    return PrEstimate(
        method=method,
        interval=ratio_interval(point, float(vcov[EXPOSURE_COL, EXPOSURE_COL]), level),
        exposure=fit.column_names[EXPOSURE_COL],
        metadata=metadata,
    )


def _arms(beta: np.ndarray, X: np.ndarray, w: np.ndarray
          ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Average prevalences of rows ``X`` at exposure 1 and at 0, and each row's in both arms.

    The averages use the weights ``w``. A row's linear predictor with the
    exposure set to a value is X beta shifted by the exposure's term, so X
    is not copied.
    """
    wsum = float(w.sum())
    eta = matvec_stack(X, beta)
    shift = X[:, EXPOSURE_COL] * beta[EXPOSURE_COL]
    rows1 = expit(eta + (beta[EXPOSURE_COL] - shift))
    rows0 = expit(eta - shift)
    p1 = float((w * rows1).sum() / wsum)
    p0 = float((w * rows0).sum() / wsum)
    if p0 < _MIN_DENOMINATOR:
        raise DegenerateDenominatorError(
            f"average unexposed prevalence is {p0:g}"
        )
    return p1, p0, rows1, rows0


def _contrast(method: str, fit: FitResult, ds: Dataset, X: np.ndarray, w: np.ndarray,
              level: float, metadata: Mapping[str, Any]) -> PrEstimate:
    """Ratio of the ``_arms`` averages of rows ``X``, with its delta-method interval.

    The SE is on the ratio scale, propagated through ``fit.vcov``; the Wald
    interval is built on the log scale.
    """
    _check_columns(fit, ds)
    p1, p0, rows1, rows0 = _arms(fit.beta, X, w)
    wsum = float(w.sum())
    slope1, slope0 = (w * p * (1.0 - p) for p in (rows1, rows0))
    grad1 = rmatvec_stack(X, slope1) / wsum
    grad0 = rmatvec_stack(X, slope0) / wsum
    # in each arm every row's exposure is the arm's value, not its own
    grad1[EXPOSURE_COL] = slope1.sum() / wsum
    grad0[EXPOSURE_COL] = 0.0
    pr = p1 / p0
    grad = (grad1 * p0 - grad0 * p1) / p0**2
    var = float(grad @ fit.vcov @ grad)
    # var / pr**2 as two divisions, since pr * pr can underflow; a ratio of 0
    # fails in ratio_interval, before its variance is read
    interval = ratio_interval(pr, var / pr / pr if pr > 0.0 else 0.0, level)
    return PrEstimate(
        method=method,
        interval=replace(interval, se=math.sqrt(var)),
        exposure=ds.exposure_name,
        metadata={
            "se_scale": "ratio",
            "contrast": "1 vs 0",
            **metadata,
            "p_exposed": p1,
            "p_unexposed": p0,
            "gradient": grad,
        },
    )


def conditional_pr(fit: FitResult, ds: Dataset, level: float = 0.95, *,
                   at: Mapping[str, float] | None = None) -> PrEstimate:
    """Prevalence ratio at fixed covariate values (weighted means by default).

    It is the marginal ratio of the one-row population at that point.
    ``at`` overrides individual conditioning values by column name, for
    higher- or lower-risk scenarios than the average profile.
    """
    _require_logistic(fit)
    x, w = _population("CPR", ds, at)
    conditioning = {name: float(v) for name, v in
                    zip(ds.column_names[EXPOSURE_COL + 1:], x[0, EXPOSURE_COL + 1:])}
    return _contrast("CPR", fit, ds, x, w, level, {"conditioning": conditioning})


def marginal_pr(fit: FitResult, ds: Dataset, level: float = 0.95) -> PrEstimate:
    """Ratio of average predicted prevalences with the exposure toggled.

    Averages over the observed covariate distribution use the prior
    weights when present; over a dataset's pattern table they are the
    averages of its distinct rows with their summed weights.
    """
    _require_logistic(fit)
    return _contrast("MPR", fit, ds, *_population("MPR", ds, None), level, {})


def prevalence_odds_ratio(fit: FitResult, level: float = 0.95) -> PrEstimate:
    """exp(beta) for the exposure, with a log-scale Wald interval."""
    _require_logistic(fit)
    return _coefficient_ratio("POR", fit, fit.vcov, level, {"se_scale": "log"})


def _percentile_interval(point: float, draws: np.ndarray,
                         level: float) -> IntervalEstimate:
    """The percentile interval of ``draws`` around the full-data ``point``.

    Raises DegenerateDenominatorError when the interval leaves the point
    out, as the replicates of a separated fit can.
    """
    alpha = (1.0 - level) / 2.0
    lower, upper = (float(q) for q in np.quantile(draws, [alpha, 1.0 - alpha]))
    if not lower <= point <= upper:
        raise DegenerateDenominatorError(
            f"the percentile bootstrap interval ({lower:g}, {upper:g}) leaves out "
            f"the full-data estimate {point:g}; the fit looks separated"
        )
    se = float(np.std(draws, ddof=1))
    return IntervalEstimate(point=point, se=se, lower=lower, upper=upper, level=level)


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
    depend on execution order; the replicates are mapped over every CPU
    and the result is bit for bit the same for any number of them. Each
    resample, :meth:`Dataset.frequency_weighted` of its draw counts, is
    refitted once, and every requested estimator is read off that one
    refit. A refit starts at the one-step estimate beta + vcov U(beta),
    from ``fit``'s coefficients and covariance and the score U on the
    resample's own rows, and runs to the resample's maximum-likelihood
    estimate; it computes the coefficients only, no covariance.

    Every estimate is the point alone, computed as the public estimator
    computes it, so none fails on a delta-method SE it does not use. A
    failed refit counts against every estimator; an estimator that fails
    on its own counts against itself only. Each estimator maps to its
    estimate, or to the error that stopped it: its full-data estimate
    failed (a PrevRatioError, such as InvalidArgumentError for an
    unusable ``at``), more than 20% of its replicates failed
    (NonConvergenceError), or its percentile interval leaves out its
    full-data estimate (DegenerateDenominatorError). One estimator's
    failure leaves the others' results intact.
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
    _check_columns(fit, ds)

    def point(name: str, beta: np.ndarray, data: Dataset) -> float:
        # the point alone, from the rows the public estimator reads; the
        # delta-method SE is of no use here
        p1, p0, _, _ = _arms(beta, *_population(name, data, at))
        return p1 / p0

    full = {name: _outcome(point, name, fit.beta, ds) for name in estimators}
    results = {name: v for name, v in full.items() if isinstance(v, PrevRatioError)}
    names = [name for name in estimators if name not in results]
    if not names:
        return results

    def replicate(r: int) -> dict[str, float | PrevRatioError]:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        counts = np.bincount(rng.integers(0, ds.n, size=ds.n), minlength=ds.n)
        data = ds.frequency_weighted(counts)
        beta = _refit(fit, data)
        return {name: _outcome(point, name, beta, data) for name in names}

    # each replicate's outcome: a failed refit, or each estimator's point or error
    outcomes = _fork_map(lambda r: _outcome(replicate, r), range(reps))
    for name in names:
        mine = [o if isinstance(o, PrevRatioError) else o[name] for o in outcomes]
        reasons = _failure_reasons(mine)
        n_failed = sum(reasons.values())
        if n_failed > 0.2 * reps:
            results[name] = NonConvergenceError(
                f"{n_failed} of {reps} bootstrap replicates failed "
                f"({', '.join(f'{k}: {v}' for k, v in reasons.items())}); "
                "resampling is unstable on this dataset"
            )
            continue
        draws = np.array([v for v in mine if not isinstance(v, PrevRatioError)])
        try:
            interval = _percentile_interval(full[name], draws, level)
        except PrevRatioError as exc:
            results[name] = exc
            continue
        results[name] = PrEstimate(
            method=name,
            interval=interval,
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
