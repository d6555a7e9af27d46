"""The method registry: every prevalence-ratio method and how it is estimated.

Each :class:`Method` names the fit it reads (a family/link, ``"Schouten"``
for the collapsed logistic fit on :func:`classical._schouten_response`, or
``None`` for the table-based crude and Mantel-Haenszel ratios), turns that
fit into an estimate, and carries its fixed CLI note and the truth it is
scored against in the replication study (``None`` keeps it out of the
study). ``estimate``, the study and the public :func:`log_binomial_pr`,
:func:`robust_poisson_pr` and :func:`schouten_pr`, defined here, share
one path: :func:`block_fits` fits every needed fit once to a block of
datasets, one stack per fit, and :func:`estimate` reads a method's
estimate for one dataset of the block off it. The fits are independent,
so :func:`block_fits` maps a large design's fits over the CPUs with
:func:`parallel._fork_map`; a small one's, and those inside a study
block, run one after another. An all-0/1 dataset alone is fitted on its
pattern table (see :mod:`data`), as ``fit_glm`` fits it.
Adding a method means adding one entry to ``METHODS``; its name is then
a valid ``PrEstimate.method`` and one of ``METHOD_LABELS``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .classical import (_schouten_from_fit, _schouten_response, crude_pr, crude_table,
                        mantel_haenszel_pr, stratified_from_dataset)
from .data import Dataset
from .errors import PrevRatioError
from .glm import FitResult, _on_rows, fit_stack
from .parallel import _fork_map
from .ratios import (PrEstimate, _coefficient_ratio, conditional_pr, marginal_pr,
                     prevalence_odds_ratio)
from .variance import sandwich_vcov


@dataclass(frozen=True)
class Method:
    """One estimator: its names, the fit it reads, and how it is reported and scored."""

    name: str
    aliases: tuple[str, ...]  # besides the lower-cased name
    fit: str | None
    # (fit, ds, level, at) -> estimate; ``at`` is CPR's conditioning values
    from_fit: Callable[[FitResult | None, Dataset, float, Mapping[str, float] | None],
                       PrEstimate]
    note: str = ""
    target: str | None = None  # "cpr", "mpr" or "por"


# in this order the study lists the methods it can run
METHODS = {m.name: m for m in (
    Method("CPR", (), "binomial-logit",
           lambda fit, ds, level, at: conditional_pr(fit, ds, level, at=at), target="cpr"),
    Method("MPR", (), "binomial-logit",
           lambda fit, ds, level, at: marginal_pr(fit, ds, level), target="mpr"),
    Method("POR", (), "binomial-logit",
           lambda fit, ds, level, at: prevalence_odds_ratio(fit, level), target="por"),
    Method("LogBinomial", ("log-binomial",), "binomial-log",
           lambda fit, ds, level, at: _coefficient_ratio(
               "LogBinomial", fit, fit.vcov, level,
               {"se_scale": "log", "iterations": fit.iterations}),
           target="mpr"),
    Method("RobustPoisson", ("robust-poisson", "poisson"), "poisson-log",
           lambda fit, ds, level, at: _coefficient_ratio(
               "RobustPoisson", fit, sandwich_vcov(fit, ds), level,
               {"se_scale": "log", "variance": "HC0 sandwich"}),
           note="HC0 sandwich SE", target="mpr"),
    Method("Schouten", (), "Schouten",
           lambda fit, ds, level, at: _schouten_from_fit(fit, ds, level),
           note="sandwich SE on duplicated rows", target="mpr"),
    Method("Crude", (), None,
           lambda fit, ds, level, at: crude_pr(crude_table(ds), level), target="mpr"),
    Method("MantelHaenszel", ("mh", "mantel-haenszel"), None,
           lambda fit, ds, level, at: mantel_haenszel_pr(stratified_from_dataset(ds), level)),
)}

#: every accepted spelling, lower-cased with "_" read as "-", to its method
ALIASES = {alias: m.name for m in METHODS.values() for alias in (m.name.lower(), *m.aliases)}

#: the name of every method, in the registry's order
METHOD_LABELS = tuple(METHODS)

# design elements of a block from which its fits are shared out over the
# CPUs. On 2 cores, the 6 default methods of one p = 11 dataset took 17 ms
# in this process and 25 ms forked at 1.1e5 elements, and 594 against
# 295 ms at 3.3e6; the two cross between about 0.5e6 and 2e6.
_FORK_SIZE = 1_000_000


def _stack(datasets: Sequence[Dataset]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X, y and weights of same-shape datasets as (R, n, p), (R, n), (R, n) stacks.

    A block of two or more is copied with each design stored column by
    column, which halves the time of X'WX on thin stacks; a block of one
    is a view of its dataset, so a large design is not copied.
    """
    if len(datasets) == 1:
        ds = datasets[0]
        return ds.X[None], ds.y[None], ds.weights[None]
    n, p = datasets[0].X.shape
    X = np.empty((len(datasets), p, n)).transpose(0, 2, 1)
    for i, ds in enumerate(datasets):
        X[i] = ds.X
    return X, np.stack([ds.y for ds in datasets]), np.stack([ds.weights for ds in datasets])


def block_fits(block: Sequence[Dataset], methods: Sequence[str]) -> dict:
    """Every fit the methods read for a block of datasets, one fit_stack call each.

    Maps each fit name, in the order the methods first read it, to one
    result per dataset: a FitResult, or the PrevRatioError that stopped
    it. The fits of a block of at least ``_FORK_SIZE`` design elements
    run on every CPU, one fit per item of :func:`parallel._fork_map`,
    unless this process already runs a forked map, as in the study;
    others run one after another in this process. The results are the same
    either way. A block of one dataset with a pattern table is fitted on
    the table, as :func:`glm.fit_glm` fits it, with each fit's mu given
    back row by row.
    """
    patterns = block[0]._patterns if len(block) == 1 else None
    X, y, w = _stack(block if patterns is None else [patterns.rows])
    names = block[0].column_names
    kinds = [k for k in dict.fromkeys(METHODS[m].fit for m in methods) if k is not None]

    def fit(kind: str) -> list:
        return (fit_stack(X, *_schouten_response(y, w), "binomial-logit", names)
                if kind == "Schouten" else fit_stack(X, y, w, kind, names))
    fits = _fork_map(fit, kinds) if X.size >= _FORK_SIZE else list(map(fit, kinds))
    return {kind: [_on_rows(result, patterns) for result in results]
            for kind, results in zip(kinds, fits)}


def estimate(method: str, fits: dict, j: int, ds: Dataset, level: float,
             at: Mapping[str, float] | None = None) -> PrEstimate:
    """Dataset ``j``'s estimate by ``method`` from its block's fits.

    Raises the error that stopped the fit the method reads, or the
    method's own.
    """
    m = METHODS[method]
    if m.fit is None:  # a 2x2-table estimate does not know the exposure's name
        return replace(m.from_fit(None, ds, level, at), exposure=ds.exposure_name)
    fit = fits[m.fit][j]
    if isinstance(fit, PrevRatioError):
        raise fit
    return m.from_fit(fit, ds, level, at)


def log_binomial_pr(ds: Dataset, level: float = 0.95) -> PrEstimate:
    """Prevalence ratio from a binomial GLM with a log link.

    The exposure coefficient is the log PR directly, with a model-based
    Wald interval. This is the estimator that can fail to converge when
    fitted prevalences are pushed toward 1; failures propagate.
    """
    return estimate("LogBinomial", block_fits([ds], ("LogBinomial",)), 0, ds, level)


def robust_poisson_pr(ds: Dataset, level: float = 0.95) -> PrEstimate:
    """Prevalence ratio from a Poisson GLM on binary data with sandwich SEs.

    The Poisson variance is misspecified for a 0/1 outcome, so the
    model-based covariance is replaced by the HC0 sandwich before the
    Wald interval is built.
    """
    return estimate("RobustPoisson", block_fits([ds], ("RobustPoisson",)), 0, ds, level)


def schouten_pr(ds: Dataset, level: float = 0.95) -> PrEstimate:
    """Prevalence ratio via logistic regression on duplicated event rows.

    exp(beta) for the exposure on the expanded data estimates the ratio
    directly. The model is fitted on the original rows, each event row
    with outcome 1/2 and twice its prior weight, which gives the same
    coefficients as fitting :func:`schouten_expand`'s output without
    copying a row. Duplicated rows are correlated, so the model-based
    variance is wrong; the row-level HC0 sandwich of the expanded data,
    also formed on the original rows, is used instead and the estimate is
    tagged with a caveat, since that correction is heuristic rather than
    exact. ``expanded_rows`` in the metadata counts the rows of the
    expanded data.
    """
    return estimate("Schouten", block_fits([ds], ("Schouten",)), 0, ds, level)
