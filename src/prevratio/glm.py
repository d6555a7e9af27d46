"""Generalized linear model fitting by iteratively reweighted least squares.

Three family/link pairs are supported: ``binomial-logit``, ``binomial-log``
(the log-binomial model, which estimates risk ratios directly but can fail
to converge because the log link does not keep probabilities below one),
and ``poisson-log`` (used with a sandwich variance as the robust-Poisson
estimator on binary outcomes).

Each accepted IRLS step is guarded by step-halving so the deviance never
increases; for the log link, halving also keeps every fitted probability
strictly below one. Convergence uses the relative deviance change
|dev_t - dev_{t-1}| / (|dev_t| + 0.1) < tol. After the criterion fires, up
to two extra guarded Newton steps polish the optimum: the deviance rule
certifies the step *before* last, so the polish buys several more correct
digits in beta at negligible cost (saturated-model identities downstream
rely on that precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

from .data import Dataset, ModelSpec
from .errors import NonConvergenceError, NonIdentifiableError, RankDeficientError
from .linalg import spd_inverse, spd_solve, weighted_cross_product

MAX_ITERATIONS = 100
DEVIANCE_TOL = 1e-8
_MAX_HALVINGS = 20
_POLISH_STEPS = 2
# accepted steps may not increase deviance beyond float-noise slack
_DEV_SLACK = 1e-11
# log link feasibility: mu < 1 - 1e-10, i.e. eta <= log(1 - 1e-10)
_LOG_LINK_ETA_MAX = math.log1p(-1e-10)


def _softplus(eta: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, eta)


def _logit_deviance(y, eta, w) -> float:
    # -2 log-likelihood for 0/1 outcomes; stable in eta
    return float(2.0 * np.sum(w * (_softplus(eta) - y * eta)))


def _logbin_deviance(y, eta, w) -> float:
    # requires eta < 0 so that mu = exp(eta) < 1
    log1m_mu = np.log(-np.expm1(eta))
    return float(-2.0 * np.sum(w * (y * eta + (1.0 - y) * log1m_mu)))


def _poisson_deviance(y, eta, w) -> float:
    mu = np.exp(eta)
    return float(2.0 * np.sum(w * (mu - y - y * eta)))


@dataclass(frozen=True)
class _Family:
    name: str
    inverse_link: Callable[[np.ndarray], np.ndarray]
    irls_weight: Callable[[np.ndarray], np.ndarray]   # (dmu/deta)^2 / Var(mu)
    dlink_dmu: Callable[[np.ndarray], np.ndarray]
    deviance: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    start_intercept: Callable[[float], float]
    eta_max: float  # feasibility bound on the linear predictor


_FAMILIES = {
    "binomial-logit": _Family(
        name="binomial-logit",
        inverse_link=expit,
        irls_weight=lambda mu: mu * (1.0 - mu),
        dlink_dmu=lambda mu: 1.0 / (mu * (1.0 - mu)),
        deviance=_logit_deviance,
        start_intercept=lambda ybar: math.log(ybar / (1.0 - ybar)),
        eta_max=math.inf,
    ),
    "binomial-log": _Family(
        name="binomial-log",
        inverse_link=np.exp,
        irls_weight=lambda mu: mu / (1.0 - mu),
        dlink_dmu=lambda mu: 1.0 / mu,
        deviance=_logbin_deviance,
        # shrink toward zero so the all-rows linear predictor starts feasible
        start_intercept=lambda ybar: math.log(0.9 * ybar),
        eta_max=_LOG_LINK_ETA_MAX,
    ),
    "poisson-log": _Family(
        name="poisson-log",
        inverse_link=np.exp,
        irls_weight=lambda mu: mu,
        dlink_dmu=lambda mu: 1.0 / mu,
        deviance=_poisson_deviance,
        start_intercept=math.log,
        eta_max=math.inf,
    ),
}


@dataclass(frozen=True)
class FitResult:
    """Fitted GLM: coefficients, model-based covariance, and diagnostics."""

    family_link: str
    beta: np.ndarray
    vcov: np.ndarray
    converged: bool
    iterations: int
    deviance: float
    n_used: int
    column_names: tuple[str, ...]
    fitted: np.ndarray  # response-scale fitted values for the training rows
    deviance_path: tuple[float, ...]
    spec: ModelSpec | None = None

    def coef(self, name: str) -> float:
        if name not in self.column_names:
            raise KeyError(f"no coefficient named {name!r}")
        return float(self.beta[self.column_names.index(name)])


def _feasible(eta: np.ndarray, fam: _Family) -> bool:
    return bool(np.all(np.isfinite(eta)) and np.all(eta <= fam.eta_max))


def fit_glm(ds: Dataset, family_link: str, *, tol: float = DEVIANCE_TOL,
            max_iter: int = MAX_ITERATIONS,
            beta0: np.ndarray | None = None) -> FitResult:
    """Maximum-likelihood fit of ``family_link`` to ``ds`` via IRLS.

    ``beta0`` starts the iteration from given coefficients instead of the
    intercept-only start; resampling loops pass the full-data estimate,
    which is close to every replicate's optimum. Its linear predictor must
    be feasible for the family.

    Raises NonIdentifiableError for collinear designs and
    NonConvergenceError when the iteration limit is hit or no feasible
    non-increasing step exists (the log-binomial failure mode).
    """
    if family_link not in _FAMILIES:
        raise ValueError(f"unknown family/link {family_link!r}")
    fam = _FAMILIES[family_link]
    X, y, pw = ds.X, ds.y, ds.weights
    n, p = X.shape

    ybar = float(np.average(y, weights=pw))
    if not 0.0 < ybar < 1.0:
        raise NonConvergenceError(
            f"outcome has no variation (weighted mean {ybar:g}); coefficients diverge"
        )
    if beta0 is None:
        beta = np.zeros(p)
        beta[0] = fam.start_intercept(ybar)
        eta = X @ beta
    else:
        beta = np.array(beta0, dtype=float)
        if beta.shape != (p,) or not np.all(np.isfinite(beta)):
            raise ValueError(
                f"beta0 must be {p} finite coefficients, got shape {beta.shape}"
            )
        eta = X @ beta
        if not _feasible(eta, fam):
            raise ValueError(f"beta0 is not a feasible start for {family_link}")
    dev = fam.deviance(y, eta, pw)
    path = [dev]

    def newton_step(beta, eta, dev):
        """One guarded IRLS update; returns (beta, eta, dev) or None if stuck."""
        mu = fam.inverse_link(eta)
        w_work = pw * fam.irls_weight(mu)
        z = eta + (y - mu) * fam.dlink_dmu(mu)
        try:
            normal = weighted_cross_product(X, w_work)
            rhs = X.T @ (w_work * z)
            proposal = spd_solve(normal, rhs)
        except RankDeficientError as exc:
            raise NonIdentifiableError(
                f"design matrix is collinear (column {exc.column}, "
                f"{ds.column_names[exc.column]!r})"
            ) from exc
        cand = proposal
        for _ in range(_MAX_HALVINGS + 1):
            eta_cand = X @ cand
            if _feasible(eta_cand, fam):
                dev_cand = fam.deviance(y, eta_cand, pw)
                if dev_cand <= dev + _DEV_SLACK * (1.0 + abs(dev)):
                    return cand, eta_cand, dev_cand
            cand = 0.5 * (cand + beta)
        return None

    converged = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        step = newton_step(beta, eta, dev)
        if step is None:
            raise NonConvergenceError(
                f"{family_link}: no feasible non-increasing step after "
                f"{_MAX_HALVINGS} halvings (iteration {iterations}); "
                "fitted probabilities are pressed against 1",
                iterations=iterations, deviance=dev,
            )
        beta, eta, dev_new = step
        path.append(dev_new)
        change = abs(dev_new - dev)
        dev = dev_new
        if change / (abs(dev) + 0.1) < tol:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(
            f"{family_link}: IRLS did not converge in {max_iter} iterations "
            f"(deviance {dev:.6g})",
            iterations=iterations, deviance=dev,
        )

    for _ in range(_POLISH_STEPS):
        try:
            step = newton_step(beta, eta, dev)
        except NonIdentifiableError:
            break  # working weights can degenerate once converged; keep result
        if step is None:
            break
        beta, eta, dev_new = step
        iterations += 1
        path.append(dev_new)
        if dev_new == dev:
            dev = dev_new
            break
        dev = dev_new

    mu = fam.inverse_link(eta)
    w_work = pw * fam.irls_weight(mu)
    vcov = spd_inverse(weighted_cross_product(X, w_work))
    return FitResult(
        family_link=family_link,
        beta=beta,
        vcov=vcov,
        converged=converged,
        iterations=iterations,
        deviance=dev,
        n_used=n,
        column_names=ds.column_names,
        fitted=mu,
        deviance_path=tuple(path),
        spec=ds.spec,
    )


def predict_prevalence(fit: FitResult, X: np.ndarray) -> np.ndarray:
    """Response-scale predictions for new design rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(fit.beta):
        raise ValueError(
            f"design has shape {X.shape}, expected (*, {len(fit.beta)})"
        )
    eta = X @ fit.beta
    if fit.family_link == "binomial-logit":
        return expit(eta)
    mu = np.exp(eta)
    if fit.family_link == "binomial-log" and np.any(mu >= 1.0):
        raise ValueError(
            "binomial-log prediction >= 1: not a valid prevalence"
        )
    return mu


def separation_check(fit: FitResult) -> list[str]:
    """Advisory warnings about (quasi-)separation and saturated fits."""
    warnings = []
    for name, b in zip(fit.column_names, fit.beta):
        if abs(b) > 15.0:
            warnings.append(
                f"coefficient for {name!r} is {b:.2f}; possible separation"
            )
    if fit.family_link.startswith("binomial"):
        lo, hi = float(np.min(fit.fitted)), float(np.max(fit.fitted))
        if lo < 1e-8 or hi > 1.0 - 1e-8:
            warnings.append(
                f"fitted prevalences reach [{lo:.3g}, {hi:.3g}]; "
                "delta-method intervals may be unreliable"
            )
    return warnings
