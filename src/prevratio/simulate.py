"""Toy data-generating process, analytic truth values, and coverage studies.

The generator draws a binary exposure X, a standard-normal confounder Z,
and a binary outcome from a logistic model whose coefficients are pinned
down by three interpretable constraints: the unexposed prevalence at
Z = 0, the prevalence ratio at Z = 0, and the confounder coefficient.
Because the model is known, the conditional PR at any z and the marginal
PR over the Z distribution have analytic values, so replication studies
can measure bias and confidence-interval coverage exactly.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .data import Dataset, INTERCEPT_NAME, ModelSpec
from .errors import PrevRatioError
from .glm import expit
from .methods import METHODS, block_fits, estimate
from .parallel import _fork_map
from .variance import ndtri

DEFAULT_STUDY_METHODS = ("CPR", "MPR", "POR", "LogBinomial",
                         "RobustPoisson", "Schouten")

# replicates drawn and fitted together, one fit_stack call per fit
_BLOCK_SIZE = 32

_U_FLOOR = np.finfo(float).tiny


@dataclass(frozen=True)
class ToyConfig:
    """Parameters of the toy cross-sectional study."""

    n: int = 1000
    p_exposure: float = 0.5
    baseline_prevalence: float = 0.20
    pr_at_z0: float = 2.0
    beta_z: float = 0.20
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not 0.0 < self.p_exposure < 1.0:
            raise ValueError("p_exposure must be in (0, 1)")
        if not 0.0 < self.baseline_prevalence < 1.0:
            raise ValueError("baseline_prevalence must be in (0, 1)")
        if self.pr_at_z0 <= 0.0:
            raise ValueError("pr_at_z0 must be positive")
        implied = self.baseline_prevalence * self.pr_at_z0
        if not 0.0 < implied < 1.0:
            raise ValueError(
                f"implied exposed prevalence at z=0 is {implied:g}, "
                "outside (0, 1)"
            )


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def dgp_coefficients(cfg: ToyConfig) -> tuple[float, float, float]:
    """Logistic coefficients (b0, b1, b2) matching the config's constraints.

    b0 makes the unexposed prevalence at z = 0 equal baseline_prevalence;
    b1 makes the PR at z = 0 equal pr_at_z0; b2 is the confounder slope.
    """
    p0 = cfg.baseline_prevalence
    p1 = p0 * cfg.pr_at_z0
    b0 = _logit(p0)
    b1 = _logit(p1) - _logit(p0)
    return b0, b1, cfg.beta_z


def true_conditional_pr(coeffs: Sequence[float], z: float) -> float:
    """Exact PR of exposure at a fixed confounder value z."""
    b0, b1, b2 = coeffs
    return float(expit(b0 + b1 + b2 * z) / expit(b0 + b2 * z))


def true_marginal_pr(coeffs: Sequence[float], nodes: int = 80) -> float:
    """Exact marginal PR over the standard-normal confounder.

    Both prevalence averages are Gauss-Hermite integrals of the logistic
    curve against the normal density; the shared normalizing constant
    cancels in the ratio. 80 nodes put the absolute error far below 1e-8.
    """
    if nodes < 40:
        raise ValueError(f"need at least 40 quadrature nodes, got {nodes}")
    b0, b1, b2 = coeffs
    x, w = np.polynomial.hermite.hermgauss(nodes)
    z = math.sqrt(2.0) * x
    num = float(w @ expit(b0 + b1 + b2 * z))
    den = float(w @ expit(b0 + b2 * z))
    return num / den


def _simulate_block(cfg: ToyConfig, replicates: Sequence[int]) -> list[Dataset]:
    """Draw one dataset per replicate from the toy process.

    Each replicate draws its three uniform vectors from its own substream;
    the normal quantiles and the outcome probabilities are then computed
    for the whole block at once, element by element, so a replicate's
    data do not depend on the rest of its block.
    """
    b0, b1, b2 = dgp_coefficients(cfg)
    u = np.empty((3, len(replicates), cfg.n))
    for i, r in enumerate(replicates):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(r,)))
        for draw in u[:, i]:
            rng.random(out=draw)
    x = (u[0] < cfg.p_exposure).astype(float)
    z = ndtri(np.maximum(u[1], _U_FLOOR))
    y = (u[2] < expit(b0 + b1 * x + b2 * z)).astype(float)
    return [
        Dataset(
            y=y[i],
            X=np.column_stack([np.ones(cfg.n), x[i], z[i]]),
            column_names=(INTERCEPT_NAME, "x", "z"),
            spec=ModelSpec(outcome="y", exposure="x", covariates=("z",)),
        )
        for i in range(len(replicates))
    ]


def simulate_toy(cfg: ToyConfig, replicate: int = 0) -> Dataset:
    """Draw one dataset from the toy process.

    Replicate r uses an independent substream derived from (seed, r), so
    any replicate can be regenerated on its own and parallel generation
    matches serial. Normals come from the inverse CDF of uniform draws,
    keeping the stream portable across BLAS/platform variation.
    """
    return _simulate_block(cfg, [replicate])[0]


@dataclass(frozen=True)
class MethodSummary:
    """Aggregate performance of one estimator across replicates."""

    method: str
    n_ok: int
    n_failed: int
    mean_estimate: float | None
    empirical_se: float | None
    mean_ci_width: float | None
    coverage: float | None

    def __post_init__(self):
        if self.coverage is not None and not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage must be in [0, 1], got {self.coverage}")
        if self.n_ok < 0 or self.n_failed < 0:
            raise ValueError("replicate counts must be nonnegative")


@dataclass(frozen=True)
class StudyReport:
    """Results of a replication study, serializable to JSON and text."""

    config: ToyConfig
    reps: int
    level: float
    methods: tuple[str, ...]
    truth: Mapping[str, Any]
    summaries: tuple[MethodSummary, ...]
    replicate_estimates: Mapping[str, tuple] = field(repr=False)
    replicate_true_cpr: tuple = field(repr=False)
    # per method, failed replicates counted by exception type
    failure_reasons: Mapping[str, Mapping[str, int]] = field(default_factory=dict)

    def summary(self, method: str) -> MethodSummary:
        for s in self.summaries:
            if s.method == method:
                return s
        raise KeyError(f"no summary for method {method!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "study": {
                "replicates": self.reps,
                "n": self.config.n,
                "level": self.level,
                "seed": self.config.seed,
                "p_exposure": self.config.p_exposure,
                "baseline_prevalence": self.config.baseline_prevalence,
                "pr_at_z0": self.config.pr_at_z0,
                "beta_z": self.config.beta_z,
            },
            "truth": dict(self.truth),
            "methods": [
                {
                    "method": s.method,
                    "n_ok": s.n_ok,
                    "n_failed": s.n_failed,
                    "mean_estimate": s.mean_estimate,
                    "empirical_se": s.empirical_se,
                    "mean_ci_width": s.mean_ci_width,
                    "coverage": s.coverage,
                }
                for s in self.summaries
            ],
            "replicate_estimates": {m: list(v) for m, v in
                                    self.replicate_estimates.items()},
            "replicate_true_cpr": list(self.replicate_true_cpr),
            "failure_reasons": {m: dict(v) for m, v in self.failure_reasons.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [
            "Replication study",
            f"  replicates: {self.reps}   n: {self.config.n}   "
            f"level: {self.level:g}   seed: {self.config.seed}",
            "  truth: marginal PR {0:.5f}   mean conditional PR at z-bar "
            "{1:.5f}   odds-ratio target {2:.5f}".format(
                self.truth["true_mpr"],
                self.truth["mean_true_cpr_at_zbar"],
                self.truth["por_target"],
            ),
            "",
            "  {:<14} {:>5} {:>7} {:>9} {:>9} {:>9} {:>9}".format(
                "method", "ok", "failed", "mean", "emp SE", "width", "coverage"
            ),
        ]
        for s in self.summaries:

            def fmt(v):
                return f"{v:9.4f}" if v is not None else "        -"

            lines.append(
                "  {:<14} {:>5} {:>7} {} {} {} {}".format(
                    s.method, s.n_ok, s.n_failed, fmt(s.mean_estimate),
                    fmt(s.empirical_se), fmt(s.mean_ci_width), fmt(s.coverage)
                )
            )
        return "\n".join(lines) + "\n"


def _block_estimates(cfg: ToyConfig, replicates: range, methods: Sequence[str],
                     level: float) -> list[tuple[Dataset, dict]]:
    """Each replicate's dataset and, per method, its estimate or the error that stopped it.

    The block's fits are dropped on return, before the next block is drawn.
    """
    block = _simulate_block(cfg, replicates)
    fits = block_fits(block, methods)
    results = []
    for j, ds in enumerate(block):
        estimates = {}
        for m in methods:
            try:
                estimates[m] = estimate(m, fits, j, ds, level)
            except PrevRatioError as exc:
                estimates[m] = exc
        results.append((ds, estimates))
    return results


def _study_rows(cfg: ToyConfig, blocks: Sequence[range], methods: Sequence[str],
                level: float) -> list[tuple[float, dict]]:
    """What the study scores of each replicate in ``blocks``, in order.

    That is the replicate's weighted mean confounder and, per method, the
    interval of its estimate or the error that stopped it.
    """
    results = []
    for replicates in blocks:
        for ds, estimates in _block_estimates(cfg, replicates, methods, level):
            zbar = float((ds.weights * ds.X[:, 2]).sum() / ds.weights.sum())
            results.append((zbar, {m: est if isinstance(est, PrevRatioError) else est.interval
                                   for m, est in estimates.items()}))
    return results


def replication_study(cfg: ToyConfig, reps: int,
                      methods: Sequence[str] | None = None,
                      level: float = 0.95) -> StudyReport:
    """Simulate, estimate, and score every method over many replicates.

    Coverage is judged against each estimator's own target: the marginal
    PR for MPR, log-binomial, robust Poisson, Schouten, and the crude
    ratio (exposure and confounder are independent here); the conditional
    PR at the replicate's weighted mean confounder for CPR; exp(b1) for
    the POR. Per-method failures are counted by exception type, never
    raised.

    Replicates are drawn in blocks of a fixed size, each from its own
    substream and bit for bit as :func:`simulate_toy` draws it alone, and
    every fit a method reads (Schouten's included) is fitted to a whole
    block at once by :func:`methods.block_fits`; each fit follows the
    same rules as fitting its replicate alone, so the numbers agree with
    one-at-a-time fits to rounding. The blocks are shared out over every
    available CPU, and the report is bit for bit the same for any number
    of them.
    """
    if reps < 100:
        raise ValueError(f"need at least 100 replicates, got {reps}")
    methods = DEFAULT_STUDY_METHODS if methods is None else tuple(methods)
    if not methods:
        raise ValueError("methods must be non-empty")
    available = tuple(name for name, m in METHODS.items() if m.target)
    for m in methods:
        if m not in available:
            raise ValueError(
                f"method {m!r} is not available in the replication study; "
                f"choose from {available}"
            )

    coeffs = dgp_coefficients(cfg)
    mpr_truth = true_marginal_pr(coeffs)
    por_truth = math.exp(coeffs[1])

    points: dict[str, list] = {m: [] for m in methods}
    widths: dict[str, list] = {m: [] for m in methods}
    covered: dict[str, list] = {m: [] for m in methods}
    failures: dict[str, Counter] = {m: Counter() for m in methods}
    cpr_truths = []

    blocks = [range(start, min(start + _BLOCK_SIZE, reps))
              for start in range(0, reps, _BLOCK_SIZE)]
    parts = _fork_map(lambda part: _study_rows(cfg, part, methods, level), blocks)
    for part in parts:
        for zbar, estimates in part:
            truths = {"cpr": true_conditional_pr(coeffs, zbar), "mpr": mpr_truth,
                      "por": por_truth}
            cpr_truths.append(truths["cpr"])
            for m, interval in estimates.items():
                if isinstance(interval, PrevRatioError):
                    points[m].append(None)
                    failures[m][type(interval).__name__] += 1
                    continue
                target = truths[METHODS[m].target]
                points[m].append(interval.point)
                widths[m].append(interval.width)
                covered[m].append(interval.lower <= target <= interval.upper)

    summaries = []
    for m in methods:
        ok = [p for p in points[m] if p is not None]
        n_ok = len(ok)
        summaries.append(MethodSummary(
            method=m,
            n_ok=n_ok,
            n_failed=reps - n_ok,
            mean_estimate=float(np.mean(ok)) if n_ok else None,
            empirical_se=float(np.std(ok, ddof=1)) if n_ok > 1 else None,
            mean_ci_width=float(np.mean(widths[m])) if n_ok else None,
            coverage=float(np.mean(covered[m])) if n_ok else None,
        ))

    truth = {
        "true_mpr": mpr_truth,
        "mean_true_cpr_at_zbar": float(np.mean(cpr_truths)),
        "por_target": por_truth,
        "true_cpr_at_z0": true_conditional_pr(coeffs, 0.0),
        "beta": list(coeffs),
    }
    return StudyReport(
        config=cfg,
        reps=reps,
        level=level,
        methods=methods,
        truth=truth,
        summaries=tuple(summaries),
        replicate_estimates={m: tuple(points[m]) for m in methods},
        replicate_true_cpr=tuple(cpr_truths),
        failure_reasons={m: dict(sorted(failures[m].items())) for m in methods},
    )
