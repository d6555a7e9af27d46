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

:func:`fit_stack` runs these rules on a stack of same-shape problems at
once, each problem with its own masks, iterations and errors; resampling
loops use it to spread numpy's per-call overhead over many small fits.
:func:`fit_glm` is the same kernel on a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, ModelSpec
from .errors import (NonConvergenceError, NonIdentifiableError, PrevRatioError,
                     RankDeficientError)
from .linalg import (cholesky_stack, gram_stack, inverse_from_factor, matvec_stack,
                     rmatvec_stack)

MAX_ITERATIONS = 100
DEVIANCE_TOL = 1e-8
_MAX_HALVINGS = 20
_POLISH_STEPS = 2
# accepted steps may not increase deviance beyond float-noise slack
_DEV_SLACK = 1e-11
# log link feasibility: mu < 1 - 1e-10, i.e. eta <= log(1 - 1e-10)
_LOG_LINK_ETA_MAX = math.log1p(-1e-10)
# a Poisson mean exp(eta) must stay finite
_POISSON_ETA_MAX = math.log(np.finfo(float).max)
# step status codes besides a rank-deficient column (>= 0)
_ACCEPTED = -1
_STUCK = -2


def expit(x) -> np.ndarray:
    """Logistic function, as 1 / (1 + e) for x >= 0 and e / (1 + e) below.

    With e = exp(-|x|) nothing overflows for any x. The numerator is
    exp(min(x, 0)), which is 1 or e bit for bit, so no branch is taken.
    """
    x = np.asarray(x, dtype=float)
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def _softplus(eta: np.ndarray) -> np.ndarray:
    # log(1 + exp(eta)), stable in eta
    return np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))


# deviances of a stack: y, eta, w (R, n) -> (R,)
def _logit_deviance(y, eta, w) -> np.ndarray:
    # -2 log-likelihood for 0/1 outcomes; stable in eta
    return 2.0 * np.sum(w * (_softplus(eta) - y * eta), axis=-1)


def _logbin_deviance(y, eta, w) -> np.ndarray:
    # requires eta < 0 so that mu = exp(eta) < 1
    log1m_mu = np.log(-np.expm1(eta))
    return -2.0 * np.sum(w * (y * eta + (1.0 - y) * log1m_mu), axis=-1)


def _poisson_deviance(y, eta, w) -> np.ndarray:
    mu = np.exp(eta)
    return 2.0 * np.sum(w * (mu - y - y * eta), axis=-1)


@dataclass(frozen=True)
class _Family:
    name: str
    inverse_link: Callable[[np.ndarray], np.ndarray]
    irls_weight: Callable[[np.ndarray], np.ndarray]   # (dmu/deta)^2 / Var(mu)
    # irls_weight * dlink/dmu, which scales the score w (y - mu); None where it is 1
    score_scale: Callable[[np.ndarray], np.ndarray] | None
    deviance: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    start_intercept: Callable[[np.ndarray], np.ndarray]
    eta_max: float  # feasibility bound on the linear predictor


_FAMILIES = {
    "binomial-logit": _Family(
        name="binomial-logit",
        inverse_link=expit,
        irls_weight=lambda mu: mu * (1.0 - mu),
        score_scale=None,
        deviance=_logit_deviance,
        start_intercept=lambda ybar: np.log(ybar / (1.0 - ybar)),
        eta_max=math.inf,
    ),
    "binomial-log": _Family(
        name="binomial-log",
        inverse_link=np.exp,
        irls_weight=lambda mu: mu / (1.0 - mu),
        score_scale=lambda mu: 1.0 / (1.0 - mu),
        deviance=_logbin_deviance,
        # shrink toward zero so the all-rows linear predictor starts feasible
        start_intercept=lambda ybar: np.log(0.9 * ybar),
        eta_max=_LOG_LINK_ETA_MAX,
    ),
    "poisson-log": _Family(
        name="poisson-log",
        inverse_link=np.exp,
        irls_weight=lambda mu: mu,
        score_scale=None,
        deviance=_poisson_deviance,
        start_intercept=np.log,
        eta_max=_POISSON_ETA_MAX,
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


def _feasible(eta: np.ndarray, fam: _Family) -> np.ndarray:
    return np.isfinite(eta).all(axis=-1) & (eta <= fam.eta_max).all(axis=-1)


def _deviance(fam: _Family, y, eta, w, feasible: np.ndarray) -> np.ndarray:
    """Deviance of each problem with a feasible linear predictor; inf for the rest."""
    if feasible.all():
        return fam.deviance(y, eta, w)
    dev = np.full(len(eta), np.inf)
    dev[feasible] = fam.deviance(y[feasible], eta[feasible], w[feasible])
    return dev


def _collinear(column_names: tuple[str, ...], column: int) -> NonIdentifiableError:
    err = NonIdentifiableError(
        f"design matrix is collinear (column {column}, {column_names[column]!r})"
    )
    err.__cause__ = RankDeficientError(column)
    return err


def _newton_direction(fam: _Family, X, y, w, eta) -> tuple[np.ndarray, np.ndarray]:
    """The IRLS step of each problem, and its status: _ACCEPTED or a bad column.

    The step is the score form (X'WX)^-1 X'(w (y - mu) s(mu)), with
    s = irls_weight * dlink/dmu, so no link derivative is divided by. A
    problem whose X'WX is rank deficient gets the column as its status and
    a step of no use.
    """
    mu = fam.inverse_link(eta)
    score = y - mu
    score *= w
    if fam.score_scale is not None:
        score *= fam.score_scale(mu)
    rhs = rmatvec_stack(X, score)[..., None]
    L, status = cholesky_stack(gram_stack(X, w * fam.irls_weight(mu)))
    if (status >= 0).any():
        L[status >= 0] = np.eye(L.shape[-1])  # a stand-in, so the stack solves
    return status, np.linalg.solve(L.transpose(0, 2, 1), np.linalg.solve(L, rhs))[..., 0]


def _newton_step(fam: _Family, X, y, w, beta, eta, dev):
    """One guarded IRLS update for each problem of a stack.

    Returns ``(status, beta, eta, dev)``; status is _ACCEPTED (the other
    three hold the accepted step), _STUCK (no feasible non-increasing step
    within the halvings) or the rank-deficient column of X'WX.
    """
    status, step = _newton_direction(fam, X, y, w, eta)
    cand = beta + step
    eta_new = np.empty_like(eta)
    dev_new = np.full(len(eta), np.inf)
    todo = np.flatnonzero(status < 0)
    status[todo] = _STUCK
    for _ in range(_MAX_HALVINGS + 1):
        if not todo.size:
            break
        sub = slice(None) if todo.size == len(eta) else todo
        eta_c = matvec_stack(X[sub], cand[sub])
        dev_c = _deviance(fam, y[sub], eta_c, w[sub], _feasible(eta_c, fam))
        ok = dev_c <= dev[sub] + _DEV_SLACK * (1.0 + np.abs(dev[sub]))
        won = todo[ok]
        status[won] = _ACCEPTED
        eta_new[won] = eta_c[ok]
        dev_new[won] = dev_c[ok]
        todo = todo[~ok]
        cand[todo] = 0.5 * (cand[todo] + beta[todo])
    return status, cand, eta_new, dev_new


def fit_stack(X: np.ndarray, y: np.ndarray, weights: np.ndarray, family_link: str,
              column_names: tuple[str, ...], *, beta0: np.ndarray | None = None,
              spec: ModelSpec | None = None, tol: float = DEVIANCE_TOL,
              max_iter: int = MAX_ITERATIONS) -> list[FitResult | PrevRatioError]:
    """Fit ``family_link`` by IRLS to every problem of a stack at once.

    ``X`` is (R, n, p), ``y`` and ``weights`` are (R, n), and ``beta0``,
    if given, is (R, p). Every problem keeps its own step halving,
    convergence test, polish steps, iteration count and deviance path, as
    if fitted alone, and gets its own result: a FitResult, or the
    NonConvergenceError or NonIdentifiableError that stopped it. Weights
    may be zero, so rows that only pad problems to one length count for
    nothing. This is the IRLS implementation behind :func:`fit_glm`.
    """
    if family_link not in _FAMILIES:
        raise ValueError(f"unknown family/link {family_link!r}")
    fam = _FAMILIES[family_link]
    R, n, p = X.shape
    results: list = [None] * R

    ybar = np.sum(y * weights, axis=-1) / np.sum(weights, axis=-1)
    done = ~((ybar > 0.0) & (ybar < 1.0))
    for i in np.flatnonzero(done):
        results[i] = NonConvergenceError(
            f"outcome has no variation (weighted mean {ybar[i]:g}); coefficients diverge"
        )
    if beta0 is None:
        beta = np.zeros((R, p))
        beta[:, 0] = fam.start_intercept(np.where(done, 0.5, ybar))
    else:
        beta = np.array(beta0, dtype=float)
        if beta.shape != (R, p) or not np.all(np.isfinite(beta)):
            raise ValueError(
                f"beta0 must be {p} finite coefficients per problem, got shape {beta.shape}"
            )
    eta = matvec_stack(X, beta)
    feasible = _feasible(eta, fam)
    if not feasible[~done].all():
        raise ValueError(f"beta0 is not a feasible start for {family_link}")
    dev = _deviance(fam, y, eta, weights, feasible)
    paths = [[d] for d in dev.tolist()]
    iterations = np.zeros(R, dtype=int)
    polish = np.full(R, -1)  # polish steps left once converged; -1 while iterating

    def fail(i: int, err: PrevRatioError) -> None:
        results[i] = err
        done[i] = True

    while True:
        for i in np.flatnonzero(~done & (polish < 0) & (iterations >= max_iter)):
            fail(i, NonConvergenceError(
                f"{family_link}: IRLS did not converge in {max_iter} iterations "
                f"(deviance {dev[i]:.6g})",
                iterations=int(iterations[i]), deviance=float(dev[i])))
        act = np.flatnonzero(~done)
        if not act.size:
            break
        sub = slice(None) if act.size == R else act
        iterating = polish[act] < 0
        iterations[act[iterating]] += 1
        status, beta_new, eta_new, dev_new = _newton_step(
            fam, X[sub], y[sub], weights[sub], beta[sub], eta[sub], dev[sub])
        accepted = status == _ACCEPTED
        acc = act[accepted]
        previous = dev[acc]
        beta[acc] = beta_new[accepted]
        eta[acc] = eta_new[accepted]
        dev[acc] = dev_new[accepted]
        for i, d in zip(acc.tolist(), dev[acc].tolist()):
            paths[i].append(d)

        # iterating: a failed step stops the fit; an accepted one is tested
        for j in np.flatnonzero(iterating & ~accepted):
            i = act[j]
            if status[j] >= 0:
                fail(i, _collinear(column_names, int(status[j])))
            else:
                fail(i, NonConvergenceError(
                    f"{family_link}: no feasible non-increasing step after "
                    f"{_MAX_HALVINGS} halvings (iteration {iterations[i]}); "
                    "fitted probabilities are pressed against 1",
                    iterations=int(iterations[i]), deviance=float(dev[i])))
        tested = iterating[accepted]
        i_tested = acc[tested]
        change = np.abs(dev[i_tested] - previous[tested])
        converged = change / (np.abs(dev[i_tested]) + 0.1) < tol
        polish[i_tested[converged]] = _POLISH_STEPS

        # polishing: stop at a failed step (weights can degenerate once
        # converged), at an unchanged deviance, or after the last step
        done[act[~iterating & ~accepted]] = True
        i_polished = acc[~tested]
        iterations[i_polished] += 1
        polish[i_polished] -= 1
        done[i_polished[(dev[i_polished] == previous[~tested])
                        | (polish[i_polished] == 0)]] = True

    fitted = np.flatnonzero([r is None for r in results])
    if fitted.size:
        sub = slice(None) if fitted.size == R else fitted
        mu = fam.inverse_link(eta[sub])
        L, bad = cholesky_stack(gram_stack(X[sub], weights[sub] * fam.irls_weight(mu)))
        L[bad >= 0] = np.eye(p)
        vcov = inverse_from_factor(L)
        for j, i in enumerate(fitted):
            if bad[j] >= 0:
                results[i] = _collinear(column_names, int(bad[j]))
                continue
            results[i] = FitResult(
                family_link=family_link,
                beta=beta[i].copy(),
                vcov=vcov[j],
                converged=True,
                iterations=int(iterations[i]),
                deviance=float(dev[i]),
                n_used=n,
                column_names=column_names,
                fitted=mu[j],
                deviance_path=tuple(paths[i]),
                spec=spec,
            )
    return results


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
    result = fit_stack(ds.X[None], ds.y[None], ds.weights[None], family_link,
                       ds.column_names, spec=ds.spec, tol=tol, max_iter=max_iter,
                       beta0=None if beta0 is None else np.asarray(beta0, dtype=float)[None])[0]
    if isinstance(result, PrevRatioError):
        raise result
    return result


def predict_prevalence(fit: FitResult, X: np.ndarray) -> np.ndarray:
    """Response-scale predictions for new design rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(fit.beta):
        raise ValueError(
            f"design has shape {X.shape}, expected (*, {len(fit.beta)})"
        )
    eta = matvec_stack(X, fit.beta)
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
