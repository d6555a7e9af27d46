"""Robust (sandwich) covariance and the one Wald interval of every ratio.

The sandwich estimator is plain HC0: bread = model-based (X'WX)^-1 at the
optimum, meat = sum_i w_i^2 x_i x_i' (y_i - mu_i)^2 with w_i the prior
weight. No small-sample correction is applied, matching the default robust
Poisson implementations this package is compared against.

:func:`_ratio_intervals` builds the log-scale Wald interval of every ratio
the package reports, delta-method, coefficient and table-based alike, for
a whole stack of problems at once, and it alone decides that an estimate
is too degenerate to have one; :func:`ratio_interval` is its stack of one.
Its z, like the study's normal draws, comes from :func:`_normal_quantiles`,
the package's one inverse normal CDF; :func:`normal_quantile` is that
function on one value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from statistics import _normal_dist_inv_cdf
from typing import NamedTuple

import numpy as np

from .data import Dataset, _Block, _block_of
from .errors import DegenerateDenominatorError, InvalidArgumentError, _fail
from .glm import FitResult, _check_columns
from .linalg import gram_stack

# the smallest positive float: a uniform draw of exactly 0 is read as it,
# and every other probability as itself
_U_FLOOR = np.nextafter(0.0, 1.0)
# the coefficients of Wichura's AS241 centre, numerator and denominator,
# from the highest power of r down
_AS241_NUM = (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
              4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
              1.3314166789178437745e+2, 3.3871328727963666080e+0)
_AS241_DEN = (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
              2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
              4.2313330701600911252e+1, 1.0)


def normal_quantile(p: float) -> float:
    """Standard-normal inverse CDF: :func:`_normal_quantiles` of one probability."""
    if not 0.0 < p < 1.0:
        raise InvalidArgumentError(f"quantile probability must be in (0, 1), got {p}")
    return float(_normal_quantiles(np.array([p], dtype=float))[0])


def _normal_quantiles(u: np.ndarray) -> np.ndarray:
    """Standard-normal quantiles of probabilities ``u`` in [0, 1), bit for bit Python's.

    Python's is the C function ``statistics._normal_dist_inv_cdf``, which
    takes 0 < p < 1 only, so a tail probability of 0 (a uniform draw can
    be exactly 0) is read as ``_U_FLOOR``. Its centre, |p - 0.5| <= 0.425
    (85 % of draws), is Wichura's rational function, computed here in the
    C function's order with each operation rounded once, so it gives the
    same bits. Only the tails call the C function, one value at a time.
    """
    q = u - 0.5
    r = 0.180625 - q * q
    num, den = _AS241_NUM[0] * r, _AS241_DEN[0] * r
    for a, b in zip(_AS241_NUM[1:-1], _AS241_DEN[1:-1]):
        num = (num + a) * r
        den = (den + b) * r
    z = (num + _AS241_NUM[-1]) * q / (den + _AS241_DEN[-1])
    tails = np.flatnonzero(np.abs(q) > 0.425)
    p = np.maximum(u.ravel()[tails], _U_FLOOR).tolist()
    z.ravel()[tails] = np.fromiter(map(_normal_dist_inv_cdf, p, repeat(0.0), repeat(1.0)),
                                   float, len(p))
    return z


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


class _Intervals(NamedTuple):
    """The intervals of a stack of ratios as (R,) arrays, and each problem's error or None.

    A failed problem's numbers are not read.
    """

    point: np.ndarray
    se: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    errors: list

    def one(self, level: float) -> IntervalEstimate:
        """The interval of a stack of one, or its error raised."""
        if self.errors[0] is not None:
            raise self.errors[0]
        return IntervalEstimate(point=float(self.point[0]), se=float(self.se[0]),
                                lower=float(self.lower[0]), upper=float(self.upper[0]),
                                level=level)


def ratio_interval(point: float, log_var: float, level: float = 0.95) -> IntervalEstimate:
    """Wald interval point * exp(±z * se) for a ratio, with se = sqrt(log_var).

    ``log_var`` is the variance of log(point); ``se`` is kept on the log
    scale. A point that is not a finite positive number, a log variance
    that is negative or not finite, or bounds whose log lies beyond ±700
    (a separated or otherwise degenerate fit) raise
    DegenerateDenominatorError; a ``level`` outside (0, 1) raises
    InvalidArgumentError. This is :func:`_ratio_intervals` on a stack of one.
    """
    return _ratio_intervals(np.array([point], dtype=float), np.array([log_var], dtype=float),
                            level, [None]).one(level)


def _ratio_intervals(point: np.ndarray, log_var: np.ndarray, level: float,
                     errors: list) -> _Intervals:
    """The interval of every ratio of a stack, by :func:`ratio_interval`'s rules.

    ``errors`` holds the errors the problems already have; each other
    problem gets its interval or the error of the first rule it breaks.
    """
    check_level(level)
    errors = list(errors)
    # (1 - level) / 2 is exact, where (1 + level) / 2 can round to 1
    z = -normal_quantile((1.0 - level) / 2.0)
    with np.errstate(all="ignore"):  # failed problems compute NaN, read by no one
        _fail(errors, ~((point > 0.0) & (point < math.inf)),
              lambda i: DegenerateDenominatorError(
                  f"a ratio of {point[i]:g} has no log-scale interval"))
        _fail(errors, ~((log_var >= 0.0) & (log_var < math.inf)),
              lambda i: DegenerateDenominatorError(
                  f"the log-scale variance of the ratio {point[i]:g} is {log_var[i]:g}; "
                  "the fit is degenerate"))
        se = np.sqrt(log_var)
        _fail(errors, z * se + np.abs(np.log(point)) > 700.0,
              lambda i: DegenerateDenominatorError(
                  f"the log-scale standard error {se[i]:g} overwhelms the ratio "
                  f"{point[i]:g}; the fit looks separated"))
        return _Intervals(point, se, point * np.exp(-z * se), point * np.exp(z * se), errors)


def sandwich_vcov(fit: FitResult, ds: Dataset) -> np.ndarray:
    """HC0 robust covariance B^-1 M B^-1 for a fit on ``ds``, at its fitted mu."""
    _check_columns(fit, ds)
    if len(fit.fitted) != ds.n:
        raise InvalidArgumentError(f"the fit has {len(fit.fitted)} rows, the dataset {ds.n}")
    return _hc0(fit.vcov[None], fit.fitted[None], _block_of(ds))[0]


def _hc0(vcov: np.ndarray, mu: np.ndarray, block: _Block) -> np.ndarray:
    """The HC0 covariance of each problem of a block, from its covariance and fitted mu."""
    return _sandwich(vcov, block.X, (block.weights * (block.y - mu)) ** 2)


def _sandwich(bread_inv: np.ndarray, X: np.ndarray, score_sq: np.ndarray) -> np.ndarray:
    """B^-1 M B^-1 of each problem of a stack, meat M = X' diag(score_sq) X, made exactly symmetric."""
    vc = bread_inv @ gram_stack(X, score_sq) @ bread_inv
    return (vc + vc.transpose(0, 2, 1)) / 2.0
