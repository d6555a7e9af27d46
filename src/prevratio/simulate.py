"""Toy data-generating process, analytic truth values, and coverage studies.

The generator draws a binary exposure X, a standard-normal confounder Z,
and a binary outcome from a logistic model whose coefficients are pinned
down by three interpretable constraints: the unexposed prevalence at
Z = 0, the prevalence ratio at Z = 0, and the confounder coefficient.
Because the model is known, the conditional PR at any z and the marginal
PR over the Z distribution have analytic values, so replication studies
can measure bias and confidence-interval coverage exactly. A study runs
in blocks of replicates held as arrays, from their uniform draws through
their fits to their scores, with no dataset, fit or estimate made per
replicate; the confounder's normal quantiles come from the package's one
inverse normal CDF, :func:`variance._normal_quantiles`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .data import Dataset, INTERCEPT_NAME, ModelSpec, _Block, _means, _read_only
from .errors import InvalidArgumentError, _check_count, _failure_reasons
from .glm import expit
from .methods import METHODS, block_fits
from .parallel import _fork_map
from .variance import _Intervals, _normal_quantiles, check_level

DEFAULT_STUDY_METHODS = ("CPR", "MPR", "POR", "LogBinomial",
                         "RobustPoisson", "Schouten")

# replicates drawn and fitted together, one fit_stack call per fit
_BLOCK_SIZE = 32


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
        _check_count("n", self.n, 1, "n must be at least 1")
        _check_count("seed", self.seed, 0, "seed must be non-negative")
        if not 0.0 < self.p_exposure < 1.0:
            raise InvalidArgumentError("p_exposure must be in (0, 1)")
        if not 0.0 < self.baseline_prevalence < 1.0:
            raise InvalidArgumentError("baseline_prevalence must be in (0, 1)")
        if self.pr_at_z0 <= 0.0:
            raise InvalidArgumentError("pr_at_z0 must be positive")
        implied = self.baseline_prevalence * self.pr_at_z0
        if not 0.0 < implied < 1.0:
            raise InvalidArgumentError(
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
    return float(_true_cpr(coeffs, np.array([z]))[0])


def _true_cpr(coeffs: Sequence[float], z: np.ndarray) -> np.ndarray:
    """Exact PR of exposure at each confounder value of ``z``."""
    b0, b1, b2 = coeffs
    return expit(b0 + b1 + b2 * z) / expit(b0 + b2 * z)


def true_marginal_pr(coeffs: Sequence[float]) -> float:
    """Exact marginal PR over the standard-normal confounder.

    Both prevalence averages are Gauss-Hermite integrals of the logistic
    curve against the normal density; the shared normalizing constant
    cancels in the ratio. 80 nodes put the absolute error far below 1e-8.
    """
    b0, b1, b2 = coeffs
    x, w = np.polynomial.hermite.hermgauss(80)
    z = math.sqrt(2.0) * x
    num = float(w @ expit(b0 + b1 + b2 * z))
    den = float(w @ expit(b0 + b2 * z))
    return num / den


def _simulate_block(cfg: ToyConfig, replicates: Sequence[int]) -> _Block:
    """Draw one problem per replicate from the toy process, as a block.

    Each replicate draws three uniform vectors from its own substream, so
    a replicate's data do not depend on the rest of its block: the first
    sets the exposure, the second the confounder (its normal quantiles),
    and the third the outcome. Each design is written column by column,
    the layout in which X'WX of thin stacks is fastest; the block's arrays
    are read-only, so a dataset can adopt a replicate's rows.
    """
    b0, b1, b2 = dgp_coefficients(cfg)
    u = np.empty((3, len(replicates), cfg.n))
    for i, r in enumerate(replicates):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(r,)))
        for draw in u[:, i]:
            rng.random(out=draw)
    columns = np.empty((len(replicates), 3, cfg.n))
    columns[:, 0] = 1.0
    columns[:, 1] = u[0] < cfg.p_exposure
    columns[:, 2] = _normal_quantiles(u[1])
    _, x, z = columns.transpose(1, 0, 2)
    y = (u[2] < expit(b0 + b1 * x + b2 * z)).astype(float)
    return _Block(X=_read_only(columns).transpose(0, 2, 1), y=_read_only(y),
                  weights=_read_only(np.ones_like(y)), column_names=(INTERCEPT_NAME, "x", "z"))


def simulate_toy(cfg: ToyConfig, replicate: int = 0) -> Dataset:
    """Draw one dataset from the toy process.

    Replicate r uses an independent substream derived from (seed, r), so
    any replicate can be regenerated on its own and parallel generation
    matches serial; the study draws it as part of a block, bit for bit
    the same. Normals come from the inverse CDF of uniform draws,
    keeping the stream portable across BLAS/platform variation.
    """
    _check_count("replicate", replicate, 0, "replicate must be non-negative")
    block = _simulate_block(cfg, [replicate])
    return Dataset(y=block.y[0], X=block.X[0], column_names=block.column_names,
                   weights=block.weights[0],
                   spec=ModelSpec(outcome="y", exposure="x", covariates=("z",)))


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
            raise InvalidArgumentError(f"coverage must be in [0, 1], got {self.coverage}")
        if self.n_ok < 0 or self.n_failed < 0:
            raise InvalidArgumentError("replicate counts must be nonnegative")


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
            "methods": [asdict(s) for s in self.summaries],
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


def _block_rows(cfg: ToyConfig, replicates: range, methods: Sequence[str],
                level: float) -> tuple[np.ndarray, dict[str, _Intervals]]:
    """What the study scores of each replicate of one block, as arrays.

    That is the confounder at each replicate's CPR conditioning point (its
    weighted mean) and, per method, the stacked intervals of its
    estimates, with the error that stopped each failed one. The block is
    drawn, fitted and scored in one go, and only these scores outlive the
    call.
    """
    block = _simulate_block(cfg, replicates)
    fits = block_fits(block, methods)
    return (_means(block.X, block.weights)[:, 2],
            {m: METHODS[m].scores(fits.get(METHODS[m].fit), block, level) for m in methods})


def replication_study(cfg: ToyConfig, reps: int,
                      methods: Sequence[str] | None = None,
                      level: float = 0.95) -> StudyReport:
    """Simulate, estimate, and score every method over many replicates.

    Coverage is judged against each estimator's own target: the marginal
    PR for MPR, log-binomial, robust Poisson, Schouten, and the crude
    ratio (exposure and confounder are independent here); the conditional
    PR at the replicate's weighted mean confounder for CPR; exp(b1) for
    the POR. Per-method failures are counted by exception type, never
    raised. A method named twice is run once, at its first place.

    Replicates are drawn in blocks of a fixed size, each from its own
    substream and bit for bit as :func:`simulate_toy` draws it alone.
    Every fit a method reads (Schouten's included) is fitted to a whole
    block at once by :func:`methods.block_fits`, and every method scores
    the whole block from those stacked fits; no dataset, fit or estimate
    object is made per replicate. Each problem of a stack follows the same
    rules as it would alone, so every number agrees with the public
    estimator on :func:`simulate_toy`'s dataset to within a few units in
    the last place. The blocks are mapped over every available CPU, one block per
    item, and the report is bit for bit the same for any number of them.
    """
    _check_count("reps", reps, 100, "need at least 100 replicates")
    # checked here, since a PrevRatioError in a replicate is scored, not raised
    check_level(level)
    methods = DEFAULT_STUDY_METHODS if methods is None else tuple(dict.fromkeys(methods))
    if not methods:
        raise InvalidArgumentError("methods must be non-empty")
    available = tuple(name for name, m in METHODS.items() if m.target)
    for m in methods:
        if m not in available:
            raise InvalidArgumentError(
                f"method {m!r} is not available in the replication study; "
                f"choose from {available}"
            )

    coeffs = dgp_coefficients(cfg)
    mpr_truth = true_marginal_pr(coeffs)
    por_truth = math.exp(coeffs[1])

    blocks = [range(start, min(start + _BLOCK_SIZE, reps))
              for start in range(0, reps, _BLOCK_SIZE)]
    import numpy.random  # noqa: F401 -- loaded before the fork, not at each worker's first draw
    scored = _fork_map(lambda replicates: _block_rows(cfg, replicates, methods, level), blocks)
    cpr_truths = _true_cpr(coeffs, np.concatenate([zbar for zbar, _ in scored]))
    # each replicate's truth by target
    truths = {"cpr": cpr_truths, "mpr": mpr_truth, "por": por_truth}

    summaries, points, failure_reasons = [], {}, {}
    for m in methods:
        point, lower, upper = (np.concatenate([getattr(scores[m], f) for _, scores in scored])
                               for f in ("point", "lower", "upper"))
        errors = [e for _, scores in scored for e in scores[m].errors]
        points[m] = tuple(p if e is None else None for p, e in zip(point.tolist(), errors))
        failure_reasons[m] = _failure_reasons(errors)
        ok = np.array([e is None for e in errors])
        point, lower, upper = point[ok], lower[ok], upper[ok]
        truth = np.broadcast_to(truths[METHODS[m].target], ok.shape)[ok]
        n_ok = len(point)
        summaries.append(MethodSummary(
            method=m,
            n_ok=n_ok,
            n_failed=reps - n_ok,
            mean_estimate=float(np.mean(point)) if n_ok else None,
            empirical_se=float(np.std(point, ddof=1)) if n_ok > 1 else None,
            mean_ci_width=float(np.mean(upper - lower)) if n_ok else None,
            coverage=float(np.mean((lower <= truth) & (truth <= upper))) if n_ok else None,
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
        replicate_estimates=points,
        replicate_true_cpr=tuple(cpr_truths.tolist()),
        failure_reasons=failure_reasons,
    )
