"""Row-blocked design products and stacked Cholesky helpers.

Every product over the n rows of a design (X'WX, X beta and X'v) runs
block by block over a fixed number of rows, small enough that a block
and its weighted copy stay in a core's cache. The blocks are the same
for every problem of a stack, so no problem's sums depend on the rest of
its stack, and no product copies a long design whole. They also keep
every BLAS call below the size at which OpenBLAS starts threads. The
``prevratio`` command loads OpenBLAS with one thread anyway; a library
caller's OpenBLAS keeps its threads, which would contend with the forked
workers.

Matrices are plain float numpy arrays in stacks of shape (R, p, p), as
the batched IRLS kernel uses them. The factorization is numpy's
Cholesky, one call per stack. The rank-deficiency check reads the pivots
off the factor, so it names the column a column-by-column factorization
would stop at; :func:`cholesky_stack` alone gives such a matrix the
identity as its factor, so a stack always solves.
"""

from __future__ import annotations

import numpy as np

# pivot <= _PIVOT_REL * max diagonal flags a rank-deficient column
_PIVOT_REL = 1e-12
# rows per block of every n-row product: fixed, so no problem's sums depend on
# its stack; at p = 11 a block and its weighted copy (0.7 MB) fit in L2
_BLOCK_ROWS = 4096


def gram_stack(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X'WX for every problem of a stack: X (R, n, p), w (R, n) -> (R, p, p).

    Each result is made exactly symmetric. An entry that overflows is inf
    or NaN, with no warning; :func:`cholesky_stack` flags its column.
    """
    R, n, p = X.shape
    A = np.zeros((R, p, p))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK_ROWS):
            block = X[:, start:start + _BLOCK_ROWS]
            A += np.matmul(block.transpose(0, 2, 1), w[:, start:start + _BLOCK_ROWS, None] * block)
        return (A + A.transpose(0, 2, 1)) / 2.0


def matvec_stack(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """X beta: X (n, p), beta (p,) -> (n,), or per problem (R, n, p), (R, p) -> (R, n)."""
    out = np.empty(X.shape[:-1])
    for start in range(0, X.shape[-2], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        out[..., rows] = np.matmul(X[..., rows, :], beta[..., None])[..., 0]
    return out


def rmatvec_stack(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X'v: X (n, p), v (n,) -> (p,), or per problem (R, n, p), (R, n) -> (R, p)."""
    out = np.zeros(X.shape[:-2] + X.shape[-1:])
    for start in range(0, X.shape[-2], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        out += np.matmul(v[..., None, rows], X[..., rows, :])[..., 0, :]
    return out


def _leading_factor(A: np.ndarray) -> np.ndarray:
    """Cholesky factor of ``A``, or of its largest leading block that has one.

    The block stops before the first leading minor that is not positive
    definite (LAPACK's ``info``); the columns past it are zero.
    """
    L = np.zeros_like(A)
    for k in range(len(A), 0, -1):
        try:
            L[:k, :k] = np.linalg.cholesky(A[:k, :k])
            return L
        except np.linalg.LinAlgError:
            continue
    return L


def cholesky_stack(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a (R, p, p) stack and each matrix's bad column.

    ``bad[i]`` is -1 when A[i] is positive definite with every squared
    pivot above the threshold, a multiple of its largest finite diagonal
    entry. Otherwise it is the first column whose diagonal entry is not
    finite or whose squared pivot is at most the threshold, or else the
    column at which A[i] stops being positive definite, and its factor is
    the identity, a stand-in so the stack solves. The stack is factored in
    one call; only when that fails are the matrices factored one by one.
    """
    diagonal = np.diagonal(A, axis1=1, axis2=2)
    finite = np.isfinite(diagonal)
    threshold = _PIVOT_REL * np.max(diagonal, axis=1, where=finite, initial=0.0)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        L = np.stack([_leading_factor(a) for a in A])
    # unfactored columns have a zero pivot; not (> threshold) also catches
    # a NaN pivot from an infinite entry
    weak = ~finite | ~(np.diagonal(L, axis1=1, axis2=2) ** 2 > threshold[:, None])
    bad = np.where(weak.any(axis=1), np.argmax(weak, axis=1), -1)
    L[bad >= 0] = np.eye(A.shape[-1])
    return L, bad


def inverse_from_factor(L: np.ndarray) -> np.ndarray:
    """(L L')^-1 for a stack of lower Cholesky factors, made exactly symmetric."""
    L_inv = np.linalg.inv(L)
    inv = np.matmul(L_inv.transpose(0, 2, 1), L_inv)
    return (inv + inv.transpose(0, 2, 1)) / 2.0
