"""Dense symmetric positive-definite helpers used by the model fitters.

Matrices are plain 2-D float numpy arrays (row-major). The solver is
LAPACK's Cholesky (dpotrf/dpotrs); the rank-deficiency check reads the
pivots off the factor, so it names the column a column-by-column
factorization would stop at.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import RankDeficientError

# max |A[i,j] - A[j,i]| allowed relative to 1 + max|A|
_SYM_TOL = 1e-10
# pivot <= _PIVOT_REL * max diagonal flags a rank-deficient column
_PIVOT_REL = 1e-12
# the text of scipy's own finiteness checks
_NOT_FINITE = "array must not contain infs or NaNs"


def weighted_cross_product(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X'WX for a diagonal weight vector ``w``, constructed symmetric."""
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if w.shape != (X.shape[0],):
        raise ValueError(
            f"weight vector has length {w.shape[0] if w.ndim == 1 else w.shape}, "
            f"expected {X.shape[0]}"
        )
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    A = X.T @ (w[:, None] * X)
    return (A + A.T) / 2.0


def _require_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = 1.0 + (np.max(np.abs(A)) if A.size else 0.0)
    if np.max(np.abs(A - A.T), initial=0.0) > _SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    return A


def _cholesky(A: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L' = A; raises RankDeficientError on bad pivots.

    The bad column is the first whose squared pivot is at most the
    threshold, or else the one at which LAPACK found A not positive
    definite.
    """
    A = _require_symmetric(A)
    if np.isnan(A).any():
        raise ValueError(_NOT_FINITE)
    threshold = _PIVOT_REL * max(float(np.max(np.diag(A))) if A.size else 0.0, 0.0)
    L, info = dpotrf(A, lower=1)
    factored = L.shape[0] if info == 0 else info - 1
    # not (> threshold) also catches a NaN pivot from an infinite entry
    bad = np.flatnonzero(~(np.diag(L)[:factored] ** 2 > threshold))
    if bad.size:
        raise RankDeficientError(int(bad[0]))
    if info != 0:
        raise RankDeficientError(info - 1)
    return L


def spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A via Cholesky."""
    b = np.asarray(b, dtype=float)
    L = _cholesky(A)
    if b.shape[0] != L.shape[0]:
        raise ValueError(f"right-hand side has length {b.shape[0]}, expected {L.shape[0]}")
    if not np.isfinite(b).all():
        raise ValueError(_NOT_FINITE)
    x, _ = dpotrs(L, b, lower=1)
    return x


def spd_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix, returned symmetric."""
    L = _cholesky(A)
    inv, _ = dpotrs(L, np.eye(L.shape[0]), lower=1)
    return (inv + inv.T) / 2.0
