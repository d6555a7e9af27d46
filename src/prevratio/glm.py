"""Generalized linear model fitting by iteratively reweighted least squares.

Three family/link pairs are supported: ``binomial-logit``, ``binomial-log``
(the log-binomial model, which estimates risk ratios directly but can fail
to converge because the log link does not keep probabilities below one),
and ``poisson-log`` (used with a sandwich variance as the robust-Poisson
estimator on binary outcomes).

Each accepted IRLS step is guarded by step-halving so the deviance never
increases; for the log link, halving also keeps every fitted probability
strictly below one. Convergence uses the relative deviance change
|dev_t - dev_{t-1}| / (|dev_t| + 0.1) < DEVIANCE_TOL, within MAX_ITERATIONS
iterations. After the criterion fires, up to two extra guarded Newton steps
polish the optimum: the deviance rule certifies the step *before* last, so
the polish buys several more correct digits in beta at negligible cost
(saturated-model identities downstream rely on that precision). The polish
stops early at a step that moves the deviance by at most 4 units in its
last place, a change of rounding size; so a fit takes the same steps
whichever order its rows are summed in.

:func:`fit_stack` runs these rules on a stack of same-shape problems at
once, each problem with its own masks, iterations and errors, and gives
the stack's fits back as arrays; the study uses it to spread numpy's
per-call overhead over many small fits. :func:`fit_glm` is the same
kernel on a stack of one, whose FitResult ``_Fits.one`` makes. On a
dataset with a pattern table (every design column 0/1) it fits the
distinct rows with their summed weights, which have the same likelihood,
and gives the fitted prevalences back row by row. A bootstrap refit runs
the Newton loop alone, from a one-step estimate, and reads only the
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import Dataset, _distinct_rows, _Patterns
from .errors import (InvalidArgumentError, NonConvergenceError, NonIdentifiableError,
                     PrevRatioError, RankDeficientError)
from .linalg import (cholesky_stack, gram_stack, inverse_from_factor, matvec_stack,
                     rmatvec_stack)

MAX_ITERATIONS = 100
DEVIANCE_TOL = 1e-8
_MAX_HALVINGS = 20
_POLISH_STEPS = 2
# a polish step that moves the deviance by at most this many ulps ends the polish
_POLISH_ULPS = 4
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
    inverse_link: Callable[[np.ndarray], np.ndarray]
    irls_weight: Callable[[np.ndarray], np.ndarray]   # (dmu/deta)^2 / Var(mu)
    # irls_weight * dlink/dmu, which scales the score w (y - mu); None where it is 1
    score_scale: Callable[[np.ndarray], np.ndarray] | None
    deviance: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    start_intercept: Callable[[np.ndarray], np.ndarray]
    eta_max: float  # feasibility bound on the linear predictor


_FAMILIES = {
    "binomial-logit": _Family(
        inverse_link=expit,
        irls_weight=lambda mu: mu * (1.0 - mu),
        score_scale=None,
        deviance=_logit_deviance,
        start_intercept=lambda ybar: np.log(ybar / (1.0 - ybar)),
        eta_max=math.inf,
    ),
    "binomial-log": _Family(
        inverse_link=np.exp,
        irls_weight=lambda mu: mu / (1.0 - mu),
        score_scale=lambda mu: 1.0 / (1.0 - mu),
        deviance=_logbin_deviance,
        # shrink toward zero so the all-rows linear predictor starts feasible
        start_intercept=lambda ybar: np.log(0.9 * ybar),
        eta_max=_LOG_LINK_ETA_MAX,
    ),
    "poisson-log": _Family(
        inverse_link=np.exp,
        irls_weight=lambda mu: mu,
        score_scale=None,
        deviance=_poisson_deviance,
        start_intercept=np.log,
        eta_max=_POISSON_ETA_MAX,
    ),
}

#: every family/link that fit_stack and fit_glm accept
FAMILY_LINKS = tuple(_FAMILIES)


@dataclass(frozen=True)
class FitResult:
    """Fitted GLM: coefficients, model-based covariance, and diagnostics."""

    family_link: str
    beta: np.ndarray
    vcov: np.ndarray
    iterations: int
    deviance: float
    column_names: tuple[str, ...]
    # mu of each row of the fitted dataset, also when the fit ran on its
    # pattern table; the sandwich, the Schouten meat and separation_check read it
    fitted: np.ndarray
    deviance_path: tuple[float, ...]

    def coef(self, name: str) -> float:
        if name not in self.column_names:
            raise KeyError(f"no coefficient named {name!r}")
        return float(self.beta[self.column_names.index(name)])


class _Fits(NamedTuple):
    """Stacked fits: beta (R, p), vcov (R, p, p), fitted (R, n), iterations and deviance (R,).

    ``errors`` holds each problem's error or None; a failed problem's
    beta, vcov, fitted and deviance are NaN.
    """

    family_link: str
    column_names: tuple[str, ...]
    beta: np.ndarray
    vcov: np.ndarray
    fitted: np.ndarray
    iterations: np.ndarray
    deviance: np.ndarray
    deviance_paths: list  # each problem's deviances, from its start
    errors: list

    def one(self) -> FitResult:
        """The FitResult of a stack of one, or its error raised."""
        if self.errors[0] is not None:
            raise self.errors[0]
        return FitResult(family_link=self.family_link, beta=self.beta[0], vcov=self.vcov[0],
                         iterations=int(self.iterations[0]), deviance=float(self.deviance[0]),
                         column_names=self.column_names, fitted=self.fitted[0],
                         deviance_path=tuple(self.deviance_paths[0]))


def _check_columns(fit: FitResult, ds: Dataset) -> None:
    """Raise InvalidArgumentError unless ``fit``'s design columns are ``ds``'s."""
    if tuple(fit.column_names) != ds.column_names:
        raise InvalidArgumentError(
            f"the fit's columns {fit.column_names} are not the dataset's {ds.column_names}")


def _feasible(eta: np.ndarray, fam: _Family) -> np.ndarray:
    finite = np.isfinite(eta).all(axis=-1)
    return finite if fam.eta_max == math.inf else finite & (eta <= fam.eta_max).all(axis=-1)


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


def _score(fam: _Family, X, y, w, mu) -> np.ndarray:
    """X'(w (y - mu) s(mu)) of each problem, with s = irls_weight * dlink/dmu."""
    score = y - mu
    score *= w
    if fam.score_scale is not None:
        score *= fam.score_scale(mu)
    return rmatvec_stack(X, score)


def _newton_direction(fam: _Family, X, y, w, eta) -> tuple[np.ndarray, np.ndarray]:
    """The IRLS step of each problem, and its status: _ACCEPTED or a bad column.

    The step is the score form (X'WX)^-1 X'(w (y - mu) s(mu)), so no link
    derivative is divided by. A problem whose X'WX is rank deficient gets
    the column as its status and a step of no use.
    """
    mu = fam.inverse_link(eta)
    rhs = _score(fam, X, y, w, mu)[..., None]
    L, status = cholesky_stack(gram_stack(X, w * fam.irls_weight(mu)))
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
        if ok.all() and todo.size == len(eta):  # every problem's full step: nothing to copy
            status[:] = _ACCEPTED
            return status, cand, eta_c, dev_c
        won = todo[ok]
        status[won] = _ACCEPTED
        eta_new[won] = eta_c[ok]
        dev_new[won] = dev_c[ok]
        todo = todo[~ok]
        cand[todo] = 0.5 * (cand[todo] + beta[todo])
    return status, cand, eta_new, dev_new


class _Newton(NamedTuple):
    """Where the Newton loop left each problem of a stack."""

    errors: list  # the error that stopped each problem, or None
    beta: np.ndarray
    eta: np.ndarray
    dev: np.ndarray
    iterations: np.ndarray
    paths: list  # each problem's deviances, one per accepted step after the start


def _irls(X: np.ndarray, y: np.ndarray, weights: np.ndarray, family_link: str,
          column_names: tuple[str, ...], start: np.ndarray | None = None) -> _Newton:
    """The Newton loop of :func:`fit_stack`: its start, steps, tests and polish.

    Without ``start`` each problem starts at its intercept-only fit, which
    is feasible for every family. ``start`` (R, p) is :func:`_refit`'s:
    finite coefficients of a logistic fit, for which any is feasible.
    """
    if family_link not in _FAMILIES:
        raise InvalidArgumentError(f"unknown family/link {family_link!r}")
    fam = _FAMILIES[family_link]
    R, _, p = X.shape
    errors: list = [None] * R

    ybar = np.sum(y * weights, axis=-1) / np.sum(weights, axis=-1)
    done = ~((ybar > 0.0) & (ybar < 1.0))
    for i in np.flatnonzero(done):
        errors[i] = NonConvergenceError(
            f"outcome has no variation (weighted mean {ybar[i]:g}); coefficients diverge"
        )
    if start is None:
        beta = np.zeros((R, p))
        beta[:, 0] = fam.start_intercept(np.where(done, 0.5, ybar))
    else:
        beta = start.copy()
    eta = matvec_stack(X, beta)
    dev = fam.deviance(y, eta, weights)
    paths = [[d] for d in dev.tolist()]
    iterations = np.zeros(R, dtype=int)
    polish = np.full(R, -1)  # polish steps left once converged; -1 while iterating

    def fail(i: int, err: PrevRatioError) -> None:
        errors[i] = err
        done[i] = True

    while True:
        for i in np.flatnonzero(~done & (polish < 0) & (iterations >= MAX_ITERATIONS)):
            fail(i, NonConvergenceError(
                f"{family_link}: IRLS did not converge in {MAX_ITERATIONS} iterations "
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
        if acc.size == R:  # every problem stepped: take the new arrays as they are
            previous, beta, eta, dev = dev, beta_new, eta_new, dev_new
        else:
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
        converged = change / (np.abs(dev[i_tested]) + 0.1) < DEVIANCE_TOL
        polish[i_tested[converged]] = _POLISH_STEPS

        # polishing: stop at a failed step (weights can degenerate once
        # converged), at a deviance change of rounding size, or after the last step
        done[act[~iterating & ~accepted]] = True
        i_polished = acc[~tested]
        iterations[i_polished] += 1
        polish[i_polished] -= 1
        settled = (np.abs(dev[i_polished] - previous[~tested])
                   <= _POLISH_ULPS * np.spacing(np.abs(dev[i_polished])))
        done[i_polished[settled | (polish[i_polished] == 0)]] = True
    return _Newton(errors, beta, eta, dev, iterations, paths)


def _finish(X: np.ndarray, weights: np.ndarray, family_link: str,
            column_names: tuple[str, ...], newton: _Newton) -> _Fits:
    """The stack's fits: each problem's mu and covariance, or NaN and the error that stopped it."""
    fam = _FAMILIES[family_link]
    R, n, p = X.shape
    errors = list(newton.errors)
    vcov, fitted = np.full((R, p, p), np.nan), np.full((R, n), np.nan)
    ok = np.flatnonzero([e is None for e in errors])
    if ok.size:
        sub = slice(None) if ok.size == R else ok
        mu = fam.inverse_link(newton.eta[sub])
        L, bad = cholesky_stack(gram_stack(X[sub], weights[sub] * fam.irls_weight(mu)))
        vcov[sub], fitted[sub] = inverse_from_factor(L), mu
        for j in np.flatnonzero(bad >= 0):
            errors[ok[j]] = _collinear(column_names, int(bad[j]))
    failed = np.array([e is not None for e in errors])
    newton.beta[failed] = vcov[failed] = fitted[failed] = newton.dev[failed] = np.nan
    return _Fits(family_link, column_names, newton.beta, vcov, fitted, newton.iterations,
                 newton.dev, newton.paths, errors)


def fit_stack(X: np.ndarray, y: np.ndarray, weights: np.ndarray, family_link: str,
              column_names: tuple[str, ...]) -> _Fits:
    """Fit ``family_link`` by IRLS to every problem of a stack at once.

    ``X`` is (R, n, p) and ``y`` and ``weights`` are (R, n). Each problem
    starts at its intercept-only fit and keeps its own step halving,
    convergence test, polish steps, iteration count and deviance path, as
    if fitted alone. The stack's fits come back as arrays, a failed
    problem's NaN beside the NonConvergenceError or NonIdentifiableError
    that stopped it. The polish ends after ``_POLISH_STEPS`` steps, or sooner at a step that
    changes the deviance by at most ``_POLISH_ULPS`` units in its last
    place. Weights may be zero, so rows that only pad problems to one
    length count for nothing. This is the IRLS implementation behind
    :func:`fit_glm`; :func:`_refit` runs its Newton loop alone.
    """
    return _finish(X, weights, family_link, column_names,
                   _irls(X, y, weights, family_link, column_names))


def fit_glm(ds: Dataset, family_link: str) -> FitResult:
    """Maximum-likelihood fit of ``family_link`` to ``ds`` via IRLS.

    Raises NonIdentifiableError for collinear designs and
    NonConvergenceError when the iteration limit is hit or no feasible
    non-increasing step exists (the log-binomial failure mode).
    """
    patterns = ds._patterns
    rows = ds if patterns is None else patterns.rows
    fits = fit_stack(rows.X[None], rows.y[None], rows.weights[None], family_link,
                     ds.column_names)
    return _on_rows(fits, patterns).one()


def _refit(fit: FitResult, ds: Dataset) -> np.ndarray:
    """The coefficients of ``fit``'s model on ``ds``, a resample of the data ``fit`` fits.

    The Newton loop starts at the one-step estimate beta + vcov U(beta),
    with beta and vcov from ``fit`` and U the score on the resample's own
    (distinct) rows; a start that is not finite falls back to beta. It
    runs to the resample's maximum-likelihood estimate as :func:`fit_glm`
    does, but computes neither the fitted mu nor the covariance. Raises
    the error that stops the loop, as fit_glm does.
    """
    fam = _FAMILIES[fit.family_link]
    rows = _distinct_rows(ds)
    mu = fam.inverse_link(matvec_stack(rows.X, fit.beta))
    start = fit.beta + fit.vcov @ _score(fam, rows.X, rows.y, rows.weights, mu)
    if not np.isfinite(start).all():
        start = fit.beta
    newton = _irls(rows.X[None], rows.y[None], rows.weights[None], fit.family_link,
                   fit.column_names, start[None])
    if newton.errors[0] is not None:
        raise newton.errors[0]
    return newton.beta[0]


def _on_rows(fits: _Fits, patterns: _Patterns | None) -> _Fits:
    """``fits``, a fit to ``patterns.rows``, with the fitted mu of each row they stand for."""
    return fits if patterns is None else fits._replace(fitted=fits.fitted[:, patterns.index])


def predict_prevalence(fit: FitResult, X: np.ndarray) -> np.ndarray:
    """Response-scale predictions for new design rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(fit.beta):
        raise InvalidArgumentError(
            f"design has shape {X.shape}, expected (*, {len(fit.beta)})"
        )
    mu = _FAMILIES[fit.family_link].inverse_link(matvec_stack(X, fit.beta))
    if fit.family_link == "binomial-log" and np.any(mu >= 1.0):
        raise InvalidArgumentError(
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
