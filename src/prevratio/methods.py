"""The method registry: every prevalence-ratio method and how it is estimated.

Each :class:`Method` names the fit it reads (a family/link, ``"Schouten"``
for the collapsed logistic fit on :func:`classical._schouten_response`, or
``None`` for the table-based crude and Mantel-Haenszel ratios), scores a
block of problems from their stacked fits, turns one dataset's fits (a
stack of one) into an estimate, and carries its fixed CLI note and the
truth it is scored against in the study (``None`` keeps it out of it).
Every score is computed on stacks: the study scores a whole block at
once, and one dataset is a block of one. ``estimate``, the study and the
public :func:`log_binomial_pr`, :func:`robust_poisson_pr` and
:func:`schouten_pr`, defined here, share one fit path: :func:`block_fits`
fits every needed fit once to a block, one stack of arrays per fit, and
:func:`estimate` reads a method's estimate for one dataset off its fits.
The fits are independent, so :func:`block_fits` maps a large design's
fits over the CPUs with :func:`parallel._fork_map`; a small one's, and
those inside a study block, run one after another. A dataset with a
pattern table is fitted on it (see :mod:`data`), as ``fit_glm`` fits it.
Adding a method means adding one entry to ``METHODS``; its name is then
a valid ``PrEstimate.method`` and one of ``METHOD_LABELS``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Sequence

from .classical import (_crude_intervals, _crude_tables, _schouten_intervals,
                        _schouten_response, crude_pr, crude_table, mantel_haenszel_pr,
                        stratified_from_dataset)
from .data import Dataset, _Block, _block_of, _distinct_rows
from .glm import _Fits, _on_rows, fit_stack
from .parallel import _fork_map
from .ratios import (PrEstimate, _coefficient_ratios, _contrast, _estimate, _population,
                     conditional_pr, marginal_pr, prevalence_odds_ratio)
from .variance import _hc0, _Intervals


@dataclass(frozen=True)
class Method:
    """One estimator: its names, the fit it reads, and how it is scored and reported."""

    name: str
    aliases: tuple[str, ...]  # besides the lower-cased name
    fit: str | None
    # (fits, ds, level, at) -> the estimate of one dataset from its fits, a
    # stack of one; ``at`` is CPR's conditioning values
    from_fit: Callable[[_Fits | None, Dataset, float, Mapping[str, float] | None],
                       PrEstimate]
    # (fits, block, level) -> the interval of every problem of a block, from
    # its stacked fits; None for a method the study cannot score
    scores: Callable[[_Fits | None, _Block, float], _Intervals] | None = None
    note: str = ""
    target: str | None = None  # "cpr", "mpr" or "por"


def _coefficient_scores(fits: _Fits, block: _Block, level: float) -> _Intervals:
    return _coefficient_ratios(fits.beta, fits.vcov, level, fits.errors)


# in this order the study lists the methods it can run
METHODS = {m.name: m for m in (
    Method("CPR", (), "binomial-logit",
           lambda fits, ds, level, at: conditional_pr(fits.one(), ds, level, at=at),
           lambda fits, block, level: _contrast(
               fits.beta, fits.vcov, *_population("CPR", block, None), level, fits.errors)[0],
           target="cpr"),
    Method("MPR", (), "binomial-logit",
           lambda fits, ds, level, at: marginal_pr(fits.one(), ds, level),
           lambda fits, block, level: _contrast(
               fits.beta, fits.vcov, *_population("MPR", block, None), level, fits.errors)[0],
           target="mpr"),
    Method("POR", (), "binomial-logit",
           lambda fits, ds, level, at: prevalence_odds_ratio(fits.one(), level),
           _coefficient_scores, target="por"),
    Method("LogBinomial", ("log-binomial",), "binomial-log",
           lambda fits, ds, level, at: _one("LogBinomial", fits, ds, level, {
               "se_scale": "log", "iterations": int(fits.iterations[0])}),
           _coefficient_scores, target="mpr"),
    Method("RobustPoisson", ("robust-poisson", "poisson"), "poisson-log",
           lambda fits, ds, level, at: _one("RobustPoisson", fits, ds, level, {
               "se_scale": "log", "variance": "HC0 sandwich"}),
           lambda fits, block, level: _coefficient_ratios(
               fits.beta, _hc0(fits.vcov, fits.fitted, block), level, fits.errors),
           note="HC0 sandwich SE", target="mpr"),
    Method("Schouten", (), "Schouten",
           lambda fits, ds, level, at: _one("Schouten", fits, ds, level, {
               "se_scale": "log",
               "expanded_rows": ds.n + int((ds.y == 1.0).sum()),
               "caveat": "sandwich variance on duplicated rows; the exact "
                         "duplication-aware correction is not implemented"}),
           _schouten_intervals,
           note="sandwich SE on duplicated rows", target="mpr"),
    Method("Crude", (), None,
           lambda fits, ds, level, at: crude_pr(crude_table(ds), level),
           lambda fits, block, level: _crude_intervals(*_crude_tables(block), level),
           target="mpr"),
    Method("MantelHaenszel", ("mh", "mantel-haenszel"), None,
           lambda fits, ds, level, at: mantel_haenszel_pr(stratified_from_dataset(ds), level)),
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


def block_fits(block: _Block, methods: Sequence[str]) -> dict:
    """Every fit the methods read for a block, one fit_stack call each.

    Maps each fit name, in the order the methods first read it, to the
    block's fits as arrays, with the PrevRatioError that stopped each
    failed problem (see :func:`glm.fit_stack`). The fits of a block of
    at least ``_FORK_SIZE`` design elements run on every CPU, one fit per
    item of :func:`parallel._fork_map`, unless this process already runs a
    forked map, as in the study; others run one after another in this
    process. The results are the same either way.
    """
    X, y, w, names = block
    kinds = [k for k in dict.fromkeys(METHODS[m].fit for m in methods) if k is not None]

    def fit(kind: str) -> _Fits:
        return (fit_stack(X, *_schouten_response(y, w), "binomial-logit", names)
                if kind == "Schouten" else fit_stack(X, y, w, kind, names))
    fits = _fork_map(fit, kinds) if X.size >= _FORK_SIZE else list(map(fit, kinds))
    return dict(zip(kinds, fits))


def dataset_fits(ds: Dataset, methods: Sequence[str]) -> dict:
    """:func:`block_fits` for one dataset, on its pattern table when it has one.

    The dataset alone is a block of one and is not copied; each fit's mu
    is given back row by row.
    """
    fits = block_fits(_block_of(_distinct_rows(ds)), methods)
    return {kind: _on_rows(f, ds._patterns) for kind, f in fits.items()}


def estimate(method: str, fits: dict, ds: Dataset, level: float,
             at: Mapping[str, float] | None = None) -> PrEstimate:
    """``ds``'s estimate by ``method`` from its fits, as :func:`dataset_fits` gives them.

    Raises the error that stopped the fit the method reads, or the
    method's own.
    """
    m = METHODS[method]
    if m.fit is None:  # a 2x2-table estimate does not know the exposure's name
        return replace(m.from_fit(None, ds, level, at), exposure=ds.exposure_name)
    return m.from_fit(fits[m.fit], ds, level, at)


def _one(method: str, fits: _Fits, ds: Dataset, level: float,
         metadata: Mapping[str, Any]) -> PrEstimate:
    """``method``'s estimate of ``ds`` from its fits: the method's scores on a block of one."""
    return _estimate(method, METHODS[method].scores(fits, _block_of(ds), level), level,
                     ds.exposure_name, metadata)


def log_binomial_pr(ds: Dataset, level: float = 0.95) -> PrEstimate:
    """Prevalence ratio from a binomial GLM with a log link.

    The exposure coefficient is the log PR directly, with a model-based
    Wald interval. This is the estimator that can fail to converge when
    fitted prevalences are pushed toward 1; failures propagate.
    """
    return estimate("LogBinomial", dataset_fits(ds, ("LogBinomial",)), ds, level)


def robust_poisson_pr(ds: Dataset, level: float = 0.95) -> PrEstimate:
    """Prevalence ratio from a Poisson GLM on binary data with sandwich SEs.

    The Poisson variance is misspecified for a 0/1 outcome, so the
    model-based covariance is replaced by the HC0 sandwich before the
    Wald interval is built.
    """
    return estimate("RobustPoisson", dataset_fits(ds, ("RobustPoisson",)), ds, level)


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
    return estimate("Schouten", dataset_fits(ds, ("Schouten",)), ds, level)
