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
from .glm import FitResult, predict_prevalence
from .linalg import gram_stack

_STD_NORMAL = NormalDist()


# kept on NormalDist: scalar float(ndtri(p)) is 73 us vs 0.22 us, ~0.3 s per study
def normal_quantile(p: float) -> float:
    """Standard-normal inverse CDF, from ``statistics.NormalDist``."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must be in (0, 1), got {p}")
    return _STD_NORMAL.inv_cdf(p)


# Wichura's AS241 rational approximations (Applied Statistics 37:477-484):
# numerator and denominator, highest power first, for |p - 0.5| <= 0.425,
# then for the tails with r = sqrt(-log(min(p, 1 - p))) at most 5 and above 5
_AS241 = np.array((
    ((2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4,
      6.72657_70927_00870_0853e+4, 4.59219_53931_54987_1457e+4,
      1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
      1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
     (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4,
      3.93078_95800_09271_0610e+4, 2.12137_94301_58659_5867e+4,
      5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
      4.23133_30701_60091_1252e+1, 1.0)),
    ((7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2,
      2.41780_72517_74506_11770e-1, 1.27045_82524_52368_38258e+0,
      3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
      4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
     (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4,
      1.51986_66563_61645_71966e-2, 1.48103_97642_74800_74590e-1,
      6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
      2.05319_16266_37758_82187e+0, 1.0)),
    ((2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5,
      1.24266_09473_88078_43860e-3, 2.65321_89526_57612_30930e-2,
      2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
      5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
     (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7,
      1.84631_83175_10054_68180e-5, 7.86869_13114_56132_59100e-4,
      1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
      5.99832_20655_58879_37690e-1, 1.0)),
))[..., None]


def _horner(coeffs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Both polynomials of one AS241 branch at r: coeffs (2, 8, 1 or len(r))."""
    acc = coeffs[:, 0]
    for j in range(1, coeffs.shape[1]):
        acc = acc * r + coeffs[:, j]
    return acc


def ndtri(p) -> np.ndarray:
    """Standard-normal inverse CDF of every element of ``p``, each in (0, 1).

    A vectorized AS241, the algorithm of ``statistics.NormalDist.inv_cdf``
    (and so of :func:`normal_quantile`), with the same operations in the
    same order, so the two agree bit for bit. The tails take ``math.log``,
    which numpy's log does not always match in the last bit.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("quantile probabilities must be in (0, 1)")
    q = p - 0.5
    x = np.empty_like(p)
    central = np.abs(q) <= 0.425
    qc = q[central]
    num, den = _horner(_AS241[0], 0.180625 - qc * qc)
    x[central] = num * qc / den

    tail = ~central
    qt = q[tail]
    r = np.where(qt <= 0.0, p[tail], 1.0 - p[tail])
    r = np.sqrt(-np.fromiter(map(math.log, r.tolist()), float, r.size))
    inner = r <= 5.0
    num, den = _horner(np.where(inner, _AS241[1], _AS241[2]), r - np.where(inner, 1.6, 5.0))
    xt = num / den
    x[tail] = np.where(qt < 0.0, -xt, xt)
    return x


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


def ratio_interval(point: float, log_var: float, level: float = 0.95) -> IntervalEstimate:
    """Wald interval point * exp(±z * se) for a ratio, with se = sqrt(log_var).

    ``log_var`` is the variance of log(point); ``se`` is kept on the log
    scale. A point that is not a finite positive number, a log variance
    that is negative or not finite, or bounds whose log lies beyond ±700
    (a separated or otherwise degenerate fit) raise
    DegenerateDenominatorError.
    """
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
    """HC0 robust covariance B^-1 M B^-1 for a converged fit on ``ds``."""
    if not fit.converged:
        raise InvalidArgumentError("sandwich covariance requires a converged fit")
    mu = predict_prevalence(fit, ds.X)
    return _sandwich(fit.vcov, ds.X, (ds.weights * (ds.y - mu)) ** 2)


def _sandwich(bread_inv: np.ndarray, X: np.ndarray, score_sq: np.ndarray) -> np.ndarray:
    """B^-1 M B^-1 with meat M = X' diag(score_sq) X, made exactly symmetric."""
    meat = gram_stack(X[None], score_sq[None])[0]
    vc = bread_inv @ meat @ bread_inv
    return (vc + vc.T) / 2.0
