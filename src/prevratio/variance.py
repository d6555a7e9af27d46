"""Robust (sandwich) covariance and the shared log-scale Wald interval.

The sandwich estimator is plain HC0: bread = model-based (X'WX)^-1 at the
optimum, meat = sum_i w_i^2 x_i x_i' (y_i - mu_i)^2 with w_i the prior
weight. No small-sample correction is applied, matching the default robust
Poisson implementations this package is compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import Dataset
from .glm import FitResult, predict_prevalence
from .linalg import weighted_cross_product

_STD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Standard-normal inverse CDF, from ``statistics.NormalDist``."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must be in (0, 1), got {p}")
    return _STD_NORMAL.inv_cdf(p)


@dataclass(frozen=True)
class IntervalEstimate:
    """A positive point estimate with its standard error and Wald bounds."""

    point: float
    se: float
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.se < 0.0:
            raise ValueError(f"standard error must be nonnegative, got {self.se}")
        if not (self.lower > 0.0 and self.upper > 0.0):
            raise ValueError("ratio-scale bounds must be positive")
        if not self.lower <= self.point <= self.upper:
            raise ValueError(
                f"interval ({self.lower}, {self.upper}) does not contain "
                f"the point estimate {self.point}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


def wald_ci_log_scale(point: float, se: float, level: float = 0.95) -> IntervalEstimate:
    """Wald interval for a ratio whose SE was computed on the ratio scale.

    se/point approximates the SE of log(point), so the bounds are
    point * exp(±z * se / point).
    """
    if point <= 0.0:
        raise ValueError(f"ratio point estimate must be positive, got {point}")
    if se < 0.0:
        raise ValueError(f"standard error must be nonnegative, got {se}")
    z = normal_quantile((1.0 + level) / 2.0)
    half = z * se / point
    try:
        lower = point * math.exp(-half)
        upper = point * math.exp(half)
    except OverflowError:
        raise ValueError(
            f"interval bounds for point {point:g} with se {se:g} are not "
            "representable"
        ) from None
    return IntervalEstimate(point=point, se=se, lower=lower, upper=upper,
                            level=level)


def interval_from_log_scale(log_point: float, log_se: float,
                            level: float = 0.95) -> IntervalEstimate:
    """Wald interval exp(log_point ± z * log_se); ``se`` kept on the log scale."""
    if log_se < 0.0:
        raise ValueError(f"standard error must be nonnegative, got {log_se}")
    z = normal_quantile((1.0 + level) / 2.0)
    try:
        point = math.exp(log_point)
        lower = math.exp(log_point - z * log_se)
        upper = math.exp(log_point + z * log_se)
    except OverflowError:
        raise ValueError(
            f"interval bounds for log point {log_point:g} with log se "
            f"{log_se:g} are not representable"
        ) from None
    return IntervalEstimate(point=point, se=log_se, lower=lower, upper=upper,
                            level=level)


def sandwich_vcov(fit: FitResult, ds: Dataset) -> np.ndarray:
    """HC0 robust covariance B^-1 M B^-1 for a converged fit on ``ds``."""
    if not fit.converged:
        raise ValueError("sandwich covariance requires a converged fit")
    mu = predict_prevalence(fit, ds.X)
    score_sq = (ds.weights * (ds.y - mu)) ** 2
    meat = weighted_cross_product(ds.X, score_sq)
    bread_inv = fit.vcov
    vc = bread_inv @ meat @ bread_inv
    return (vc + vc.T) / 2.0
