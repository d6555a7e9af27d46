"""Robust (sandwich) covariance and the one Wald interval of every ratio.

The sandwich estimator is plain HC0: bread = model-based (X'WX)^-1 at the
optimum, meat = sum_i w_i^2 x_i x_i' (y_i - mu_i)^2 with w_i the prior
weight. No small-sample correction is applied, matching the default robust
Poisson implementations this package is compared against.

:func:`ratio_interval` builds the log-scale Wald interval of every ratio
the package reports, delta-method, coefficient and table-based alike, and
it alone decides that an estimate is too degenerate to have one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import Dataset
from .errors import DegenerateDenominatorError, InvalidArgumentError
from .glm import FitResult, _check_columns
from .linalg import gram_stack

_STD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Standard-normal inverse CDF, from ``statistics.NormalDist``."""
    if not 0.0 < p < 1.0:
        raise InvalidArgumentError(f"quantile probability must be in (0, 1), got {p}")
    return _STD_NORMAL.inv_cdf(p)


def check_level(level: float) -> None:
    """Raise InvalidArgumentError unless ``level`` is in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise InvalidArgumentError(f"level must be in (0, 1), got {level}")


@dataclass(frozen=True)
class IntervalEstimate:
    """A positive point estimate with its standard error and Wald bounds."""

    point: float
    se: float
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        check_level(self.level)
        if self.se < 0.0:
            raise InvalidArgumentError(f"standard error must be nonnegative, got {self.se}")
        if not (self.lower > 0.0 and self.upper > 0.0):
            raise InvalidArgumentError("ratio-scale bounds must be positive")
        if not self.lower <= self.point <= self.upper:
            raise InvalidArgumentError(
                f"interval ({self.lower}, {self.upper}) does not contain "
                f"the point estimate {self.point}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


def ratio_interval(point: float, log_var: float, level: float = 0.95) -> IntervalEstimate:
    """Wald interval point * exp(±z * se) for a ratio, with se = sqrt(log_var).

    ``log_var`` is the variance of log(point); ``se`` is kept on the log
    scale. A point that is not a finite positive number, a log variance
    that is negative or not finite, or bounds whose log lies beyond ±700
    (a separated or otherwise degenerate fit) raise
    DegenerateDenominatorError; a ``level`` outside (0, 1) raises
    InvalidArgumentError.
    """
    check_level(level)
    if not 0.0 < point < math.inf:
        raise DegenerateDenominatorError(
            f"a ratio of {point:g} has no log-scale interval"
        )
    if not 0.0 <= log_var < math.inf:
        raise DegenerateDenominatorError(
            f"the log-scale variance of the ratio {point:g} is {log_var:g}; "
            "the fit is degenerate"
        )
    se = math.sqrt(log_var)
    # (1 - level) / 2 is exact, where (1 + level) / 2 can round to 1
    z = -normal_quantile((1.0 - level) / 2.0)
    if z * se + abs(math.log(point)) > 700.0:
        raise DegenerateDenominatorError(
            f"the log-scale standard error {se:g} overwhelms the ratio "
            f"{point:g}; the fit looks separated"
        )
    return IntervalEstimate(point=point, se=se, lower=point * math.exp(-z * se),
                            upper=point * math.exp(z * se), level=level)


def sandwich_vcov(fit: FitResult, ds: Dataset) -> np.ndarray:
    """HC0 robust covariance B^-1 M B^-1 for a fit on ``ds``, at its fitted mu."""
    _check_columns(fit, ds)
    if len(fit.fitted) != ds.n:
        raise InvalidArgumentError(f"the fit has {len(fit.fitted)} rows, the dataset {ds.n}")
    return _sandwich(fit.vcov, ds.X, (ds.weights * (ds.y - fit.fitted)) ** 2)


def _sandwich(bread_inv: np.ndarray, X: np.ndarray, score_sq: np.ndarray) -> np.ndarray:
    """B^-1 M B^-1 with meat M = X' diag(score_sq) X, made exactly symmetric."""
    meat = gram_stack(X[None], score_sq[None])[0]
    vc = bread_inv @ meat @ bread_inv
    return (vc + vc.T) / 2.0
