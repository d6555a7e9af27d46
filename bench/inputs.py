"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical files on any machine with the same numpy. Alongside each
file the generator returns the analytic targets the correctness gate
checks the program's estimates against. The outcome model is logistic and
correctly specified for the logistic fit, so:

* MPR target: sample average of the true exposed prevalence over the kept
  rows, divided by the same average with the exposure switched off;
* CPR target: the true prevalence ratio at the kept rows' covariate means;
* POR target: exp(exposure coefficient).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# estimate-large / bootstrap generator: binary exposure, 4 binary and 6
# standard-normal covariates (design p = 11), about 25 % prevalence. The
# normal-covariate slopes are kept small so the log-binomial fit stays
# inside its feasible region at 3e5 rows.
MIXED_P_EXPOSURE = 0.4
MIXED_BINARY_P = (0.5, 0.3, 0.4, 0.2)
MIXED_BINARY_COEF = (0.30, -0.20, 0.25, 0.15)
MIXED_NORMAL_COEF = (0.12, -0.10, 0.08, 0.05, -0.06, 0.10)
MIXED_EXPOSURE_COEF = 0.70
MIXED_INTERCEPT = -1.60

# strata generator: binary exposure and 6 binary covariates (64 strata)
STRATA_P_EXPOSURE = 0.4
STRATA_BINARY_P = (0.5, 0.4, 0.3, 0.5, 0.6, 0.35)
STRATA_BINARY_COEF = (0.30, -0.20, 0.25, 0.15, -0.10, 0.20)
STRATA_EXPOSURE_COEF = 0.60
STRATA_INTERCEPT = -1.50
STRATA_MISSING_P = 0.002


@dataclass(frozen=True)
class GeneratedInput:
    """A generated CSV plus what the gate needs to judge estimates on it."""

    path: Path
    covariates: tuple[str, ...]
    n_rows: int
    n_kept: int
    n_dropped: int
    targets: dict = field(default_factory=dict)

    @property
    def n_bytes(self) -> int:
        return self.path.stat().st_size

    def sha256(self) -> str:
        return hashlib.sha256(self.path.read_bytes()).hexdigest()


def _write_csv(path: Path, columns, body: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.write(body)
        # on disk before timing starts, so write-back does not overlap a run
        fh.flush()
        os.fsync(fh.fileno())


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _expit(eta: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-eta))


def _targets(b0: float, bx: float, C: np.ndarray, g: np.ndarray) -> dict:
    """Analytic MPR/CPR/POR targets over the kept covariate rows ``C``."""
    base = b0 + C @ g
    mpr = float(_expit(base + bx).mean() / _expit(base).mean())
    at_means = b0 + C.mean(axis=0) @ g
    cpr = float(_expit(at_means + bx) / _expit(at_means))
    return {"MPR": mpr, "CPR": cpr, "POR": math.exp(bx)}


def mixed_csv(path: Path, n: int, seed: int) -> GeneratedInput:
    """y, x, b1..b4 (binary), z1..z6 (normal); every field written as %.6f."""
    rng = _rng(seed, 0)
    x = (rng.random(n) < MIXED_P_EXPOSURE).astype(float)
    B = (rng.random((n, len(MIXED_BINARY_P))) < np.array(MIXED_BINARY_P)).astype(float)
    # rounded before use so the file holds exactly the covariates that drove y
    Z = np.round(rng.standard_normal((n, len(MIXED_NORMAL_COEF))), 6)
    C = np.column_stack([B, Z])
    g = np.array(MIXED_BINARY_COEF + MIXED_NORMAL_COEF)
    prob = _expit(MIXED_INTERCEPT + MIXED_EXPOSURE_COEF * x + C @ g)
    y = (rng.random(n) < prob).astype(float)

    covariates = tuple(f"b{j + 1}" for j in range(B.shape[1])) + \
        tuple(f"z{j + 1}" for j in range(Z.shape[1]))
    data = np.column_stack([y, x, C])
    fmt = ",".join(["%.6f"] * data.shape[1]) + "\n"
    _write_csv(path, ("y", "x") + covariates, "".join(fmt % tuple(row) for row in data.tolist()))
    return GeneratedInput(
        path=path, covariates=covariates, n_rows=n, n_kept=n, n_dropped=0,
        targets=_targets(MIXED_INTERCEPT, MIXED_EXPOSURE_COEF, C, g),
    )


def strata_csv(path: Path, n: int, seed: int) -> GeneratedInput:
    """y, x, c1..c6, all 0/1 integers, with ~0.2 % of fields left empty."""
    rng = _rng(seed, 1)
    x = (rng.random(n) < STRATA_P_EXPOSURE).astype(np.int64)
    C = (rng.random((n, len(STRATA_BINARY_P))) < np.array(STRATA_BINARY_P)).astype(np.int64)
    g = np.array(STRATA_BINARY_COEF)
    prob = _expit(STRATA_INTERCEPT + STRATA_EXPOSURE_COEF * x + C @ g)
    y = (rng.random(n) < prob).astype(np.int64)

    data = np.column_stack([y, x, C])
    missing = rng.random(data.shape) < STRATA_MISSING_P
    kept = ~missing.any(axis=1)
    covariates = tuple(f"c{j + 1}" for j in range(C.shape[1]))
    cells = np.where(missing, "", data.astype(str))
    _write_csv(path, ("y", "x") + covariates,
               "".join(",".join(row) + "\n" for row in cells.tolist()))
    n_kept = int(kept.sum())
    return GeneratedInput(
        path=path, covariates=covariates, n_rows=n, n_kept=n_kept,
        n_dropped=n - n_kept,
        targets=_targets(STRATA_INTERCEPT, STRATA_EXPOSURE_COEF,
                         C[kept].astype(float), g),
    )
