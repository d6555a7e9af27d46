"""Study data: outcome, design matrix, prior weights, and CSV ingestion.

A :class:`Dataset` always carries an all-ones intercept as design column 0
and the exposure as design column 1; covariates follow in declaration
order. Arrays are frozen after construction so datasets can be shared
across concurrent estimator runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError

FAMILY_LINKS = ("binomial-logit", "binomial-log", "poisson-log")

#: index of the exposure column in every design matrix built here
EXPOSURE_COL = 1

#: name given to design column 0
INTERCEPT_NAME = "(Intercept)"


@dataclass(frozen=True)
class ModelSpec:
    """Names the outcome, exposure, and covariates, plus the family/link."""

    outcome: str
    exposure: str
    covariates: tuple[str, ...] = ()
    family_link: str = "binomial-logit"

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if self.exposure in self.covariates:
            raise DataError(f"exposure {self.exposure!r} also listed as a covariate")
        if self.outcome == self.exposure or self.outcome in self.covariates:
            raise DataError(f"outcome {self.outcome!r} must be distinct from predictors")
        if self.family_link not in FAMILY_LINKS:
            raise DataError(
                f"unknown family/link {self.family_link!r}; expected one of {FAMILY_LINKS}"
            )

    @property
    def predictors(self) -> tuple[str, ...]:
        return (self.exposure,) + self.covariates


def _frozen_array(values, dtype=float, ndim=1) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.ndim != ndim:
        raise DataError(f"expected a {ndim}-D array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Outcome vector, design matrix with named columns, and prior weights."""

    y: np.ndarray
    X: np.ndarray
    column_names: tuple[str, ...]
    weights: np.ndarray | None = None  # default: all ones
    n_dropped: int = 0
    spec: ModelSpec | None = None

    def __post_init__(self):
        y = _frozen_array(self.y)
        X = _frozen_array(self.X, ndim=2)
        weights = self.weights
        if weights is None:
            weights = np.ones(len(y))
        weights = _frozen_array(weights)
        names = tuple(self.column_names)
        if len(y) == 0:
            raise DataError("dataset has no rows")
        if X.shape[0] != len(y):
            raise DataError(f"X has {X.shape[0]} rows but y has {len(y)}")
        if weights.shape[0] != len(y):
            raise DataError(f"weights length {weights.shape[0]} does not match n={len(y)}")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise DataError("outcome values must all be 0 or 1")
        if len(names) != X.shape[1]:
            raise DataError(
                f"{len(names)} column names for {X.shape[1]} design columns"
            )
        if not np.isfinite(X).all():
            bad = int(np.flatnonzero(~np.isfinite(X).all(axis=0))[0])
            raise DataError(f"design column {names[bad]!r} has non-finite values")
        if not np.all(X[:, 0] == 1.0):
            raise DataError("design column 0 must be the all-ones intercept")
        if not np.isfinite(weights).all():
            raise DataError("prior weights must be finite")
        if not np.all(weights > 0):
            raise DataError("prior weights must be strictly positive")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def exposure_name(self) -> str:
        return self.column_names[EXPOSURE_COL]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise DataError(f"no design column named {name!r}") from None

    def take_rows(self, idx: np.ndarray) -> "Dataset":
        """New Dataset from the given row indices (used by resampling)."""
        return replace(self, y=self.y[idx], X=self.X[idx], weights=self.weights[idx])

    def frequency_weighted(self, counts: np.ndarray) -> "Dataset":
        """Rows with a nonzero count, each prior weight multiplied by its count.

        The weighted likelihood equals that of the dataset with row i
        repeated counts[i] times, without copying the repeats.
        """
        keep = np.flatnonzero(counts)
        return replace(self, y=self.y[keep], X=self.X[keep],
                       weights=self.weights[keep] * counts[keep])


def set_exposure_value(ds: Dataset, value: float) -> Dataset:
    """Copy of ``ds`` with the exposure column overwritten by a constant."""
    X = np.array(ds.X)
    X[:, EXPOSURE_COL] = float(value)
    return replace(ds, X=X)


def covariate_means(ds: Dataset) -> np.ndarray:
    """Weighted mean of every design column (element 0 is exactly 1)."""
    w = ds.weights
    return (ds.X * w[:, None]).sum(axis=0) / w.sum()


def load_csv(path, spec: ModelSpec, *, weight_column: str | None = None) -> Dataset:
    """Read a comma-delimited file into a Dataset for ``spec``.

    The file must have a header row; referenced columns must exist. Empty
    fields are treated as missing and rows with any missing value in a
    referenced column are dropped (the count lands in ``n_dropped``).
    """
    wanted = [spec.outcome, spec.exposure, *spec.covariates]
    if weight_column is not None:
        wanted.append(weight_column)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        indices = {}
        for name in wanted:
            if name not in header:
                raise DataError(f"{path}: no column named {name!r}")
            indices[name] = header.index(name)

        rows: list[list[float]] = []
        dropped_lines: list[int] = []
        for line_no, record in enumerate(reader, start=2):
            fields = [record[indices[name]].strip() if indices[name] < len(record) else ""
                      for name in wanted]
            if any(f == "" for f in fields):
                dropped_lines.append(line_no)
                continue
            try:
                values = [float(f) for f in fields]
            except ValueError as exc:
                raise DataError(f"{path}, line {line_no}: {exc}") from None
            if values[0] not in (0.0, 1.0):
                raise DataError(
                    f"{path}, line {line_no}: outcome {spec.outcome!r} is "
                    f"{values[0]!r}, expected 0 or 1"
                )
            rows.append(values)

    n_dropped = len(dropped_lines)
    if not rows:
        raise DataError(f"{path}: no complete rows after dropping {n_dropped} with missing values")

    data = np.array(rows)
    if not np.isfinite(data).all():
        row, col = (int(i) for i in np.argwhere(~np.isfinite(data))[0])
        line_no = row + 2
        for dropped in dropped_lines:  # ascending; each one shifts the row down
            if dropped <= line_no:
                line_no += 1
        raise DataError(
            f"{path}, line {line_no}: column {wanted[col]!r} is "
            f"{float(data[row, col])!r}, not a finite number"
        )
    y = data[:, 0]
    n_predictors = 1 + len(spec.covariates)
    X = np.column_stack([np.ones(len(rows)), data[:, 1:1 + n_predictors]])
    weights = data[:, -1] if weight_column is not None else None
    names = (INTERCEPT_NAME, spec.exposure, *spec.covariates)
    return Dataset(y=y, X=X, column_names=names, weights=weights,
                   n_dropped=n_dropped, spec=spec)


def write_csv(ds: Dataset, path, *, weight_column: str = "weight") -> None:
    """Write a Dataset back to CSV (outcome, predictors, prior weights).

    Floats are written with full round-trip precision so a reload yields
    bit-identical arrays.
    """
    outcome = ds.spec.outcome if ds.spec is not None else "y"
    header = [outcome, *ds.column_names[1:], weight_column]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(ds.n):
            writer.writerow([repr(float(ds.y[i])),
                             *(repr(float(v)) for v in ds.X[i, 1:]),
                             repr(float(ds.weights[i]))])
