"""Study data: outcome, design matrix, prior weights, and CSV ingestion.

A :class:`Dataset` always carries an all-ones intercept as design column 0
and the exposure as design column 1; covariates follow in declaration
order. Arrays are frozen after construction so datasets can be shared
across concurrent estimator runs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from functools import partial

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


def covariate_means(ds: Dataset) -> np.ndarray:
    """Weighted mean of every design column (element 0 is exactly 1)."""
    w = ds.weights
    return (ds.X * w[:, None]).sum(axis=0) / w.sum()


def load_csv(path, spec: ModelSpec, *, weight_column: str | None = None) -> Dataset:
    """Read a comma-delimited file into a Dataset for ``spec``.

    The file must have a header row; referenced columns must exist. Empty
    fields are treated as missing and rows with any missing value in a
    referenced column are dropped (the count lands in ``n_dropped``).

    numpy's C parser reads the referenced columns. Files it cannot read
    exactly as the csv module would (quotes, short rows, whitespace-only,
    non-numeric or non-finite fields, a non-0/1 outcome, a blank first
    data line, a letter n in a file with empty fields) are read row by row
    instead, which gives the same arrays and the errors that cite the file
    line.
    """
    wanted = [spec.outcome, spec.exposure, *spec.covariates]
    if weight_column is not None:
        wanted.append(weight_column)
    parsed = _parse_columns(path, wanted)
    data, n_dropped = parsed if parsed is not None else _parse_rows(path, spec, wanted)

    y = data[:, 0]
    n_predictors = 1 + len(spec.covariates)
    X = np.column_stack([np.ones(len(data)), data[:, 1:1 + n_predictors]])
    weights = data[:, -1] if weight_column is not None else None
    names = (INTERCEPT_NAME, spec.exposure, *spec.covariates)
    return Dataset(y=y, X=X, column_names=names, weights=weights,
                   n_dropped=n_dropped, spec=spec)


_SCAN_CHARS = 1 << 20


def _parse_columns(path, wanted: list[str]) -> tuple[np.ndarray, int] | None:
    """The ``wanted`` columns via ``np.loadtxt``, or None to defer to the row loop.

    Returns ``(data, n_dropped)`` only when it equals what ``_parse_rows``
    returns. The file is read once in chunks to count its records and look
    for quotes, then parsed from disk, so a file without empty fields is
    never held in memory whole.
    """
    with open(path) as handle:  # universal newlines, as np.loadtxt reads the file
        first = handle.readline()
        if not first or '"' in first:
            return None
        header = next(csv.reader([first]), [])
        if any(name not in header for name in wanted):
            return None
        chunk = handle.read(_SCAN_CHARS)
        # no records, or a blank first one (np.loadtxt warns on all-blank input)
        if not chunk or chunk[0] == "\n":
            return None
        n_records, quoted = 0, False
        while chunk:
            n_records += chunk.count("\n")
            quoted = quoted or '"' in chunk
            last = chunk[-1]
            chunk = handle.read(_SCAN_CHARS)
    n_records += last != "\n"
    if quoted:
        return None

    read = partial(np.loadtxt, delimiter=",", usecols=[header.index(name) for name in wanted],
                   comments=None, ndmin=2)
    try:
        data = read(path, skiprows=1)
    except ValueError:  # an empty field, or input only the row loop can judge
        with open(path) as handle:
            handle.readline()
            body = _spell_missing_as_nan(handle.read())
        if body is None:
            return None
        try:
            data = read(io.StringIO(body))
        except ValueError:
            return None
        data = data[~np.isnan(data).any(axis=1)]
    y = data[:, 0]
    if len(data) == 0 or not np.isfinite(data).all() or not np.all((y == 0.0) | (y == 1.0)):
        return None
    # every record the row loop keeps is a row here; np.loadtxt skips blank
    # lines, which the row loop drops, so they count as dropped either way
    return data, n_records - len(data)


def _spell_missing_as_nan(body: str) -> str | None:
    """``body`` with every empty field written as ``nan``.

    None when ``body`` has an n or N: its own nan or inf would then be
    taken for a missing field rather than rejected.
    """
    if "n" in body or "N" in body:
        return None
    # ",," twice: replace() does not rescan the comma it just wrote, so ",,,"
    # keeps one empty field after the first pass
    for old, new in ((",,", ",nan,"), (",,", ",nan,"), ("\n,", "\nnan,"), (",\n", ",nan\n")):
        body = body.replace(old, new)
    if body.startswith(","):
        body = "nan" + body
    if body.endswith(","):
        body += "nan"
    return body


def _parse_rows(path, spec: ModelSpec, wanted: list[str]) -> tuple[np.ndarray, int]:
    """The ``wanted`` columns read record by record with the csv module.

    Returns ``(data, n_dropped)``; raises DataError citing the file line
    for a non-numeric or non-finite field and for a non-0/1 outcome.
    """
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
    return data, n_dropped


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
