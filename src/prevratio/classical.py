"""Reference prevalence-ratio estimators for 2x2 tables and stratified data.

Covers the crude ratio from a single 2x2 table, the Mantel-Haenszel
pooled ratio over strata with the Greenland-Robins variance, and the
Schouten data-duplication trick that turns a logistic odds ratio into a
risk ratio by copying every event row with the outcome flipped to 0.

No continuity corrections are applied anywhere: a zero cell that makes a
ratio undefined or infinite is reported as an error, not patched.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, EXPOSURE_COL
from .errors import DataError, DegenerateDenominatorError
from .glm import fit_glm
from .ratios import PrEstimate
from .variance import interval_from_log_scale, sandwich_vcov

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
        """Read strata from a CSV with header stratum,a,b,c,d."""
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty file, expected a header row")
            missing = [c for c in _TABLE_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise DataError(f"{path}: missing column(s) {', '.join(missing)}")
            strata = []
            for lineno, row in enumerate(reader, start=2):
                cells = []
                for col in ("a", "b", "c", "d"):
                    raw = (row[col] or "").strip()
                    try:
                        v = float(raw)
                    except ValueError:
                        raise DataError(
                            f"{path} line {lineno}: column {col!r} has "
                            f"non-numeric value {raw!r}"
                        ) from None
                    cells.append(v)
                strata.append(tuple(cells))
        return cls(strata=tuple(strata))


def _crude_components(a: float, b: float, c: float,
                      d: float) -> tuple[float, float]:
    """Point and log-scale SE of the ratio [a/(a+b)] / [c/(c+d)]."""
    n1 = a + b
    n0 = c + d
    if n1 <= 0 or n0 <= 0:
        raise DataError("a 2x2 margin is empty; both exposure arms need rows")
    if c == 0:
        raise DegenerateDenominatorError(
            "no cases among the unexposed; the prevalence ratio is infinite"
        )
    if a == 0:
        raise DegenerateDenominatorError(
            "no cases among the exposed; the prevalence ratio is 0 and has "
            "no log-scale interval"
        )
    pr = (a / n1) / (c / n0)
    se_log = math.sqrt(1.0 / a - 1.0 / n1 + 1.0 / c - 1.0 / n0)
    return pr, se_log


def crude_pr(table: StratifiedTable, level: float = 0.95) -> PrEstimate:
    """Unadjusted prevalence ratio from a single 2x2 table."""
    if table.k != 1:
        raise DataError(
            f"crude_pr expects a single stratum, got {table.k}; "
            "call .pooled() to collapse first"
        )
    a, b, c, d = table.strata[0]
    pr, se_log = _crude_components(a, b, c, d)
    interval = interval_from_log_scale(math.log(pr), se_log, level)
    return PrEstimate(
        method="Crude",
        interval=interval,
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
        a, b, c, d = table.strata[0]
        pr, se_log = _crude_components(a, b, c, d)
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
        pr = num / den
        se_log = math.sqrt(var_num / (num * den))
    interval = interval_from_log_scale(math.log(pr), se_log, level)
    return PrEstimate(
        method="MantelHaenszel",
        interval=interval,
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
    idx = np.concatenate([np.arange(ds.n), events])
    expanded = ds.take_rows(idx)
    y = np.array(expanded.y)
    y[ds.n:] = 0.0
    return Dataset(
        y=y,
        X=expanded.X,
        column_names=ds.column_names,
        weights=expanded.weights,
        n_dropped=ds.n_dropped,
        spec=ds.spec,
    )


def schouten_pr(ds: Dataset, level: float = 0.95) -> PrEstimate:
    """Prevalence ratio via logistic regression on duplicated event rows.

    exp(beta) for the exposure on the expanded data estimates the ratio
    directly. Duplicated rows are correlated, so the model-based variance
    is wrong; a sandwich variance on the expanded data is used instead and
    the estimate is tagged with a caveat, since that correction is
    heuristic rather than exact.
    """
    expanded = schouten_expand(ds)
    fit = fit_glm(expanded, "binomial-logit")
    robust = sandwich_vcov(fit, expanded)
    k = EXPOSURE_COL
    b = float(fit.beta[k])
    se_log = math.sqrt(float(robust[k, k]))
    interval = interval_from_log_scale(b, se_log, level)
    return PrEstimate(
        method="Schouten",
        interval=interval,
        exposure=ds.exposure_name,
        metadata={
            "se_scale": "log",
            "expanded_rows": expanded.n,
            "caveat": "sandwich variance on duplicated rows; the exact "
                      "duplication-aware correction is not implemented",
        },
    )


def crude_table(ds: Dataset) -> StratifiedTable:
    """Collapse a dataset with a 0/1 exposure into a single 2x2 table.

    Covariates are ignored; weights enter the cells as summed prior
    weights.
    """
    x = ds.X[:, EXPOSURE_COL]
    if not np.isin(x, (0.0, 1.0)).all():
        raise DataError("a 2x2 table needs a 0/1 exposure")
    w = ds.weights
    a = float(w[(x == 1.0) & (ds.y == 1.0)].sum())
    b = float(w[(x == 1.0) & (ds.y == 0.0)].sum())
    c = float(w[(x == 0.0) & (ds.y == 1.0)].sum())
    d = float(w[(x == 0.0) & (ds.y == 0.0)].sum())
    return StratifiedTable(strata=((a, b, c, d),))


def stratified_from_dataset(ds: Dataset) -> StratifiedTable:
    """Cross-tabulate a dataset into 2x2 strata for Mantel-Haenszel pooling.

    Requires the exposure and every covariate to be coded 0/1; strata are
    the distinct covariate patterns. Weights enter the cells as summed
    prior weights.
    """
    X = ds.X
    exposure = X[:, EXPOSURE_COL]
    covs = X[:, EXPOSURE_COL + 1:]
    binary = np.isin(exposure, (0.0, 1.0)).all() and np.isin(covs, (0.0, 1.0)).all()
    if not binary:
        raise DataError(
            "stratified pooling requires all-binary exposure and covariates"
        )
    # strata numbered in the order sorted() gives the pattern tuples: a
    # stable sort on the last column, then on each earlier one
    order = np.lexsort(covs.T[::-1]) if covs.shape[1] else np.arange(ds.n)
    ranked = covs[order]
    starts = np.ones(ds.n, dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    stratum = np.empty(ds.n, dtype=np.intp)
    stratum[order] = np.cumsum(starts) - 1
    cell = np.where(exposure == 1.0, 0, 2) + (ds.y != 1.0)
    # bincount adds the weights in row order, as a per-row loop would
    sums = np.bincount(4 * stratum + cell, weights=ds.weights,
                       minlength=4 * int(starts.sum()))
    strata = tuple(tuple(row) for row in sums.reshape(-1, 4).tolist())
    return StratifiedTable(strata=strata)
