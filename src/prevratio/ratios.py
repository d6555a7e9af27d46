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
module, together with :class:`PrEstimate` and the coefficient ratios
that the log-binomial, robust-Poisson and Schouten estimates of
``methods.METHODS`` share; this module fits none of those models. The
contrast and the coefficient ratios work on stacks of problems, as the
study scores a block of replicates; each public estimator is that code
on a stack of one.

Every estimator contrasts the exposure, design column ``EXPOSURE_COL``,
at 1 versus 0; for a continuous exposure that reads as a one-unit
increase from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Mapping, Sequence

import numpy as np

from .data import (Dataset, EXPOSURE_COL, _Block, _block_of, _column_index, _distinct_rows,
                   _means)
from .errors import (DegenerateDenominatorError, InvalidArgumentError, NonConvergenceError,
                     PrevRatioError, _fail, _failure_reasons, _outcome)
from .glm import FitResult, _check_columns, _refit, expit
from .linalg import matvec_stack, rmatvec_stack
from .parallel import _fork_map
from .variance import IntervalEstimate, _Intervals, _ratio_intervals, check_level

#: estimators that bootstrap_prs can resample
BOOTSTRAP_ESTIMATORS = ("CPR", "MPR")

_MIN_DENOMINATOR = 1e-12

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


def _conditioning_point(rows: _Block, at: Mapping[str, float] | None) -> np.ndarray:
    """CPR's one-row population of each problem: its weighted covariate means, ``at`` applied, exposure 0.

    Gives a (R, 1, p) stack.
    """
    x = _means(rows.X, rows.weights)
    if at:
        for name, value in at.items():
            j = _column_index(rows.column_names, name)
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
            x[:, j] = value
    x[:, EXPOSURE_COL] = 0.0
    return x[:, None]


def _population(method: str, rows: _Block, at: Mapping[str, float] | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``method`` averages its arms over in each problem of ``rows``, and their weights.

    For CPR that is its conditioning point, a population of one row; for
    MPR the rows themselves. A dataset's rows are its pattern table's
    when it has one (:func:`_rows`).
    """
    if method == "CPR":
        x = _conditioning_point(rows, at)
        return x, np.ones(x.shape[:-1])
    return rows.X, rows.weights


def _rows(ds: Dataset) -> _Block:
    """The rows CPR and MPR read of ``ds``: its distinct rows, as a block of one."""
    return _block_of(_distinct_rows(ds))


def _coefficient_ratios(beta: np.ndarray, vcov: np.ndarray, level: float,
                        errors: list) -> _Intervals:
    """exp(beta) of each problem's exposure with a log-scale Wald interval from its ``vcov``."""
    with np.errstate(over="ignore", invalid="ignore"):
        point = np.exp(beta[:, EXPOSURE_COL])
    return _ratio_intervals(point, vcov[:, EXPOSURE_COL, EXPOSURE_COL], level, errors)


def _estimate(method: str, intervals: _Intervals, level: float, exposure: str,
              metadata: Mapping[str, Any]) -> PrEstimate:
    """The PrEstimate of a stack of one, or its error raised."""
    return PrEstimate(method=method, interval=intervals.one(level), exposure=exposure,
                      metadata=metadata)


def _arms(beta: np.ndarray, X: np.ndarray, w: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list]:
    """Average prevalences of each problem's rows at exposure 1 and at 0, and each row's in both arms.

    ``beta`` is (R, p), ``X`` (R, m, p) and the weights ``w`` (R, m).
    Gives (R,) averages, (R, m) rows and each problem's error: a
    DegenerateDenominatorError when its unexposed average is below
    ``_MIN_DENOMINATOR``, else None. A row's linear predictor with the
    exposure set to a value is X beta shifted by the exposure's term, so X
    is not copied.
    """
    wsum = w.sum(axis=-1)
    eta = matvec_stack(X, beta)
    b = beta[:, EXPOSURE_COL, None]
    shift = X[..., EXPOSURE_COL] * b
    rows1 = expit(eta + (b - shift))
    rows0 = expit(eta - shift)
    p1 = (w * rows1).sum(axis=-1) / wsum
    p0 = (w * rows0).sum(axis=-1) / wsum
    errors = [None] * len(p0)
    _fail(errors, p0 < _MIN_DENOMINATOR,
          lambda i: DegenerateDenominatorError(f"average unexposed prevalence is {p0[i]:g}"))
    return p1, p0, rows1, rows0, errors


def _contrast(beta: np.ndarray, vcov: np.ndarray, X: np.ndarray, w: np.ndarray,
              level: float, errors: list
              ) -> tuple[_Intervals, np.ndarray, np.ndarray, np.ndarray]:
    """Ratio of each problem's ``_arms`` averages of its rows ``X``, with its delta-method interval.

    ``beta`` and ``vcov`` are the stacked fits, ``errors`` the errors the
    problems already have. The SE is on the ratio scale, propagated
    through ``vcov``; the Wald interval is built on the log scale. Gives
    the intervals and each problem's two averages and gradient.
    """
    p1, p0, rows1, rows0, arm_errors = _arms(beta, X, w)
    errors = [e or arm for e, arm in zip(errors, arm_errors)]
    with np.errstate(all="ignore"):  # failed problems compute NaN, read by no one
        wsum = w.sum(axis=-1)[:, None]
        slope1, slope0 = (w * p * (1.0 - p) for p in (rows1, rows0))
        grad1 = rmatvec_stack(X, slope1) / wsum
        grad0 = rmatvec_stack(X, slope0) / wsum
        # in each arm every row's exposure is the arm's value, not its own
        grad1[:, EXPOSURE_COL] = slope1.sum(axis=-1) / wsum[:, 0]
        grad0[:, EXPOSURE_COL] = 0.0
        pr = p1 / p0
        grad = (grad1 * p0[:, None] - grad0 * p1[:, None]) / (p0**2)[:, None]
        var = (grad[:, None] @ vcov @ grad[..., None])[:, 0, 0]
        # var / pr**2 as two divisions, since pr * pr can underflow; a ratio of 0
        # fails in _ratio_intervals, before its variance is read
        intervals = _ratio_intervals(pr, np.where(pr > 0.0, var / pr / pr, 0.0), level, errors)
        return intervals._replace(se=np.sqrt(var)), p1, p0, grad


def _contrast_estimate(method: str, fit: FitResult, ds: Dataset, x: np.ndarray,
                       w: np.ndarray, level: float, metadata: Mapping[str, Any]) -> PrEstimate:
    """The PrEstimate of ``_contrast`` on the rows ``x`` of one dataset, with ``fit``."""
    _check_columns(fit, ds)
    intervals, p1, p0, grad = _contrast(fit.beta[None], fit.vcov[None], x, w, level, [None])
    return _estimate(method, intervals, level, ds.exposure_name, {
        "se_scale": "ratio",
        "contrast": "1 vs 0",
        **metadata,
        "p_exposed": float(p1[0]),
        "p_unexposed": float(p0[0]),
        "gradient": grad[0],
    })


def conditional_pr(fit: FitResult, ds: Dataset, level: float = 0.95, *,
                   at: Mapping[str, float] | None = None) -> PrEstimate:
    """Prevalence ratio at fixed covariate values (weighted means by default).

    It is the marginal ratio of the one-row population at that point.
    ``at`` overrides individual conditioning values by column name, for
    higher- or lower-risk scenarios than the average profile.
    """
    _require_logistic(fit)
    x, w = _population("CPR", _rows(ds), at)
    conditioning = {name: float(v) for name, v in
                    zip(ds.column_names[EXPOSURE_COL + 1:], x[0, 0, EXPOSURE_COL + 1:])}
    return _contrast_estimate("CPR", fit, ds, x, w, level, {"conditioning": conditioning})


def marginal_pr(fit: FitResult, ds: Dataset, level: float = 0.95) -> PrEstimate:
    """Ratio of average predicted prevalences with the exposure toggled.

    Averages over the observed covariate distribution use the prior
    weights when present; over a dataset's pattern table they are the
    averages of its distinct rows with their summed weights.
    """
    _require_logistic(fit)
    return _contrast_estimate("MPR", fit, ds, *_population("MPR", _rows(ds), None), level, {})


def prevalence_odds_ratio(fit: FitResult, level: float = 0.95) -> PrEstimate:
    """exp(beta) for the exposure, with a log-scale Wald interval."""
    _require_logistic(fit)
    return _estimate("POR", _coefficient_ratios(fit.beta[None], fit.vcov[None], level, [None]),
                     level, fit.column_names[EXPOSURE_COL], {"se_scale": "log"})


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
        p1, p0, _, _, errors = _arms(beta[None], *_population(name, _rows(data), at))
        if errors[0] is not None:
            raise errors[0]
        return float(p1[0] / p0[0])

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

    import numpy.random  # noqa: F401 -- loaded before the fork, not at each worker's first draw
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
