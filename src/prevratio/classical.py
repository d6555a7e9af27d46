"""Reference prevalence-ratio estimators for 2x2 tables and stratified data.

Covers the crude ratio from a single 2x2 table, the Mantel-Haenszel
pooled ratio over strata with the Greenland-Robins variance, and the
parts of the Schouten data-duplication trick, which turns a logistic
odds ratio into a risk ratio by copying every event row with the
outcome flipped to 0. The Schouten fit never builds the copies: an event
row and its copy act as one row with outcome 1/2 and twice the weight,
which has the same likelihood, score and information, so the model is
fitted on the original rows with the same numbers; ``methods`` fits it
and holds the dataset-level ``schouten_pr``.

``_cells`` alone codes and sums 2x2 cells: one stratum per problem for
the crude tables of a block (a dataset is a block of one), one per
covariate pattern for Mantel-Haenszel, over the pattern table (see
:mod:`data`) when the dataset has one. No
continuity corrections are applied anywhere: a zero cell that makes a
ratio undefined or infinite is reported as an error, not patched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, EXPOSURE_COL, _Block, _block_of, _distinct_rows, _records
from .errors import DataError, DegenerateDenominatorError, _fail
from .glm import _Fits
from .ratios import PrEstimate, _coefficient_ratios
from .variance import _Intervals, _ratio_intervals, _sandwich

_TABLE_COLUMNS = ("stratum", "a", "b", "c", "d")


@dataclass(frozen=True)
class StratifiedTable:
    """2x2 counts per stratum: a, b = exposed cases/non-cases, c, d = unexposed."""

    strata: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self):
        if len(self.strata) == 0:
            raise DataError("need at least one stratum")
        for i, cells in enumerate(self.strata):
            if len(cells) != 4:
                raise DataError(f"stratum {i} must have 4 cells, got {len(cells)}")
            if not all(math.isfinite(v) for v in cells):
                raise DataError(f"stratum {i} has a non-finite count")
            if any(v < 0 for v in cells):
                raise DataError(f"stratum {i} has a negative count")
            if sum(cells) <= 0:
                raise DataError(f"stratum {i} is empty")

    @property
    def k(self) -> int:
        return len(self.strata)

    def pooled(self) -> "StratifiedTable":
        """Collapse all strata into one table by summing cells."""
        totals = tuple(float(sum(cells[j] for cells in self.strata))
                       for j in range(4))
        return StratifiedTable(strata=(totals,))

    @classmethod
    def from_csv(cls, path) -> "StratifiedTable":
        """Read strata from a UTF-8 CSV with header stratum,a,b,c,d; blank lines are skipped."""
        strata = []
        for line, fields in _records(path, _TABLE_COLUMNS):
            if not any(fields):
                continue
            try:
                cells = tuple(float(f) for f in fields[1:])
            except ValueError as exc:
                raise DataError(f"{path}, line {line}: {exc}") from None
            for name, v in zip(_TABLE_COLUMNS[1:], cells):
                if not math.isfinite(v):
                    raise DataError(f"{path}, line {line}: column {name!r} is {v!r}, "
                                    "not a finite number")
            strata.append(cells)
        return cls(strata=tuple(strata))


def _crude_intervals(cells: np.ndarray, errors: list, level: float) -> _Intervals:
    """The ratio [a/(a+b)] / [c/(c+d)] of each 2x2 table of a (R, 4) stack, with its interval.

    ``errors`` holds the errors the tables already have; a table left
    standing with an empty exposure arm gets a DataError, and one with no
    cases among the unexposed, or among the exposed, a
    DegenerateDenominatorError, checked in that order.
    """
    errors = list(errors)
    a, b, c, d = cells.T
    n1 = a + b
    n0 = c + d
    _fail(errors, (n1 <= 0) | (n0 <= 0),
          lambda i: DataError("a 2x2 margin is empty; both exposure arms need rows"))
    _fail(errors, c == 0, lambda i: DegenerateDenominatorError(
        "no cases among the unexposed; the prevalence ratio is infinite"))
    _fail(errors, a == 0, lambda i: DegenerateDenominatorError(
        "no cases among the exposed; the prevalence ratio is 0 and has no log-scale interval"))
    with np.errstate(all="ignore"):  # failed tables compute NaN, read by no one
        return _ratio_intervals((a / n1) / (c / n0), 1.0 / a - 1.0 / n1 + 1.0 / c - 1.0 / n0,
                                level, errors)


def crude_pr(table: StratifiedTable, level: float = 0.95) -> PrEstimate:
    """Unadjusted prevalence ratio from a single 2x2 table."""
    if table.k != 1:
        raise DataError(
            f"crude_pr expects a single stratum, got {table.k}; "
            "call .pooled() to collapse first"
        )
    a, b, c, d = table.strata[0]
    return PrEstimate(
        method="Crude",
        interval=_crude_intervals(np.array(table.strata), [None], level).one(level),
        exposure="exposure",
        metadata={"se_scale": "log", "counts": {"a": a, "b": b, "c": c, "d": d}},
    )


def mantel_haenszel_pr(table: StratifiedTable,
                       level: float = 0.95) -> PrEstimate:
    """Mantel-Haenszel pooled prevalence ratio across strata.

    The log-scale variance is the Greenland-Robins estimator. With a
    single stratum this reduces to crude_pr and is computed through the
    same code path so the two agree bit for bit.
    """
    if table.k == 1:
        intervals = _crude_intervals(np.array(table.strata), [None], level)
    else:
        num = den = var_num = 0.0
        for a, b, c, d in table.strata:
            t = a + b + c + d
            num += a * (c + d) / t
            den += c * (a + b) / t
            var_num += ((a + c) * (a + b) * (c + d) / t**2 - a * c / t)
        if num <= 0 or den <= 0:
            raise DegenerateDenominatorError(
                "a Mantel-Haenszel sum is zero; the pooled ratio is undefined"
            )
        intervals = _ratio_intervals(np.array([num / den]), np.array([var_num / (num * den)]),
                                     level, [None])
    return PrEstimate(
        method="MantelHaenszel",
        interval=intervals.one(level),
        exposure="exposure",
        metadata={"se_scale": "log", "strata": table.k},
    )


def schouten_expand(ds: Dataset) -> Dataset:
    """Append a copy of every event row with the outcome flipped to 0.

    The output has n + (#events) rows; event counts are unchanged, so
    within each covariate pattern the odds of the outcome on the expanded
    data equal the risk on the original data.
    """
    events = np.flatnonzero(ds.y == 1.0)
    expanded = ds.take_rows(np.concatenate([np.arange(ds.n), events]))
    return replace(expanded, y=np.concatenate([ds.y, np.zeros(len(events))]))


def _schouten_response(y: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outcome and prior weights of the Schouten fit on the original rows.

    An event row with weight w and its copy with outcome 0 together act
    as one row with outcome 1/2 and weight 2w. Works elementwise, so on
    stacks of problems too.
    """
    return y / (1.0 + y), weights * (1.0 + y)


def _schouten_intervals(fits: _Fits, block: _Block, level: float) -> _Intervals:
    """Schouten ratios of a block from its logistic fits with ``_schouten_response``.

    The expanded data's row-level HC0 meat adds (y - mu)^2 for an event
    row and mu^2 for its copy, both with weight w^2, so it is the meat of
    the original rows with squared scores w^2 ((y - mu)^2 + y mu^2).
    """
    mu, y, w = fits.fitted, block.y, block.weights
    robust = _sandwich(fits.vcov, block.X, w**2 * ((y - mu) ** 2 + y * mu**2))
    return _coefficient_ratios(fits.beta, robust, level, fits.errors)


def _cells(x: np.ndarray, y: np.ndarray, w: np.ndarray, stratum) -> np.ndarray:
    """The (k, 4) 2x2 cells of rows with exposure x, outcome y and weight w per stratum.

    ``stratum`` numbers each row's stratum from 0, broadcast against the
    rows. Each cell adds its rows' weights in row order; the exposure must
    be 0/1.
    """
    cell = np.where(x == 1.0, 0, 2) + (y != 1.0)
    k = int(np.max(stratum)) + 1
    return np.bincount((4 * stratum + cell).ravel(), weights=w.ravel(),
                       minlength=4 * k).reshape(k, 4)


def _crude_tables(block: _Block) -> tuple[np.ndarray, list]:
    """The (R, 4) 2x2 table of each problem of a block, its covariates ignored.

    Gives the cells and each problem's error: a DataError when its
    exposure is not 0/1, else None.
    """
    x = block.X[..., EXPOSURE_COL]
    errors = [None] * len(x)
    _fail(errors, ~((x == 0.0) | (x == 1.0)).all(axis=-1),
          lambda i: DataError("a 2x2 table needs a 0/1 exposure"))
    return _cells(x, block.y, block.weights, np.arange(len(x))[:, None]), errors


def crude_table(ds: Dataset) -> StratifiedTable:
    """Collapse a dataset with a 0/1 exposure into a single 2x2 table.

    Covariates are ignored; weights enter the cells as summed prior
    weights, summed over the pattern table when the dataset has one.
    """
    cells, errors = _crude_tables(_block_of(_distinct_rows(ds)))
    if errors[0] is not None:
        raise errors[0]
    return StratifiedTable(strata=(tuple(cells[0].tolist()),))


def stratified_from_dataset(ds: Dataset) -> StratifiedTable:
    """Cross-tabulate a dataset into 2x2 strata for Mantel-Haenszel pooling.

    Requires the exposure and every covariate to be coded 0/1, so it reads
    the dataset's pattern table; strata are the distinct covariate
    patterns, in sorted order. Weights enter the cells as summed prior
    weights.
    """
    patterns = ds._patterns
    if patterns is None:
        raise DataError(
            "stratified pooling requires all-binary exposure and covariates"
        )
    rows = patterns.rows
    # a pattern is (covariates, exposure, outcome), so each cell of a stratum
    # is one pattern, whose weight adds its rows' weights in row order
    stratum = np.unique(rows.X[:, EXPOSURE_COL + 1:], axis=0, return_inverse=True)[1].ravel()
    return StratifiedTable(strata=tuple(
        tuple(row) for row in _cells(rows.X[:, EXPOSURE_COL], rows.y, rows.weights,
                                     stratum).tolist()))
