"""Study data: outcome, design matrix, prior weights, and CSV ingestion.

A :class:`Dataset` always carries an all-ones intercept as design column 0
and the exposure as design column 1; covariates follow in declaration
order. Arrays are frozen after construction so datasets can be shared
across concurrent estimator runs.

When every design column is coded 0/1, as with categorical covariates,
the rows take at most 2**p distinct values, and every likelihood, table
and average the package forms over the rows is a sum over those
patterns. A dataset builds its pattern table once, on first use: the
distinct rows as a dataset whose prior weights are the summed weights of
their rows, and each row's pattern. The fits, the 2x2 tables, the
covariate means, MPR's average and the bootstrap's resamples (the drawn
patterns themselves) read it. One scan of the design, block by block,
is the 0/1 check; a design with any other value has no table, and those
steps read the rows.

:func:`load_csv` reads a numeric file with numpy's C parser, and a file
that parser cannot settle exactly with the csv module, row by row. When
empty fields were filled in memory and every record is one digit per
field, as in 0/1- or 0-9-coded categorical data, it reads the filled
body as a grid of bytes instead. The file's own shape selects the
reader, and every reader gives the same arrays.
"""

from __future__ import annotations

import csv
import io
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .linalg import _BLOCK_ROWS, matvec_stack, rmatvec_stack

#: index of the exposure column in every design matrix built here
EXPOSURE_COL = 1

#: name given to design column 0
INTERCEPT_NAME = "(Intercept)"


@dataclass(frozen=True)
class ModelSpec:
    """Names the outcome, the exposure, and the covariates."""

    outcome: str
    exposure: str
    covariates: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if self.exposure in self.covariates:
            raise DataError(f"exposure {self.exposure!r} also listed as a covariate")
        for name in self.covariates:
            if self.covariates.count(name) > 1:
                raise DataError(f"covariate {name!r} listed twice")
        if self.outcome == self.exposure or self.outcome in self.covariates:
            raise DataError(f"outcome {self.outcome!r} must be distinct from predictors")

    @property
    def predictors(self) -> tuple[str, ...]:
        return (self.exposure,) + self.covariates


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only, so a Dataset can adopt it without a copy."""
    arr.setflags(write=False)
    return arr


def _frozen_array(values, ndim=1) -> np.ndarray:
    """``values`` as a read-only float64 array.

    A float64 array that no one can write to, neither itself nor any array
    in its base chain, is taken as it is; anything else is copied.
    """
    adopt, base = type(values) is np.ndarray and values.dtype == np.float64, values
    while adopt and base is not None:
        adopt = type(base) is np.ndarray and not base.flags.writeable
        base = base.base
    if adopt:
        arr = values
    else:
        arr = _read_only(np.array(values, dtype=float))
    if arr.ndim != ndim:
        raise DataError(f"expected a {ndim}-D array, got shape {arr.shape}")
    return arr


# design columns per float pattern key: with y they make 53 bits, the
# integers a float64 holds exactly
_KEY_COLUMNS = 52


class _Patterns(NamedTuple):
    """The distinct rows of a dataset, and the one each of its rows has."""

    rows: "Dataset"  # prior weights: the summed weights of each pattern's rows
    index: np.ndarray  # (n,) the pattern of each row


@dataclass(frozen=True)
class Dataset:
    """Outcome vector, design matrix with named columns, and prior weights.

    An all-0/1 design also has a pattern table, its distinct rows with
    summed weights, built on first use (see the module docstring).
    """

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
        return _column_index(self.column_names, name)

    @cached_property
    def _patterns(self) -> _Patterns | None:
        """The pattern table when every design column is 0/1, else None."""
        return _pattern_table(self)

    def take_rows(self, idx: np.ndarray) -> "Dataset":
        """New Dataset from the given row indices, in their order, repeats included."""
        return replace(self, y=_read_only(self.y[idx]), X=_read_only(self.X[idx]),
                       weights=_read_only(self.weights[idx]))

    def frequency_weighted(self, counts: np.ndarray) -> "Dataset":
        """The resample that draws row i counts[i] times, without copying the repeats.

        Its weighted likelihood equals that of the dataset with row i
        repeated counts[i] times. A dataset with a pattern table returns
        the drawn patterns, each weighted by the sum of its rows' prior
        weights times their counts; any other returns the rows with a
        nonzero count, each prior weight multiplied by its count.
        """
        rows, weights = self, self.weights * counts
        if self._patterns is not None:
            # undrawn rows add 0.0, so each sum is the one the drawn rows' table has
            rows = self._patterns.rows
            weights = np.bincount(self._patterns.index, weights, minlength=rows.n)
        keep = np.flatnonzero(weights)
        return replace(self, y=_read_only(rows.y[keep]), X=_read_only(rows.X[keep]),
                       weights=_read_only(weights[keep]))


def _column_index(column_names: tuple[str, ...], name: str) -> int:
    try:
        return column_names.index(name)
    except ValueError:
        raise DataError(f"no design column named {name!r}") from None


class _Block(NamedTuple):
    """Same-shape problems as stacks, X (R, n, p), y and weights (R, n), with one set of names."""

    X: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    column_names: tuple[str, ...]


def _block_of(ds: Dataset) -> _Block:
    """The rows of ``ds`` as a block of one, views of its arrays."""
    return _Block(ds.X[None], ds.y[None], ds.weights[None], ds.column_names)


def _distinct_rows(ds: Dataset) -> Dataset:
    """The pattern rows of ``ds``, with summed weights, or ``ds`` itself without a table."""
    return ds if ds._patterns is None else ds._patterns.rows


def _pattern_table(ds: Dataset) -> _Patterns | None:
    """The distinct rows of ``ds``, ordered by key, when its design is all 0/1; else None.

    The design is checked block by block, so a continuous one is turned
    down at its first block of rows. A row's key is the binary number its
    design columns make, the first column in the top bit, one exact float
    key per 52 columns with y as the lowest bit of the first. The keys are
    sorted, and the pattern weights add up their rows' weights in row order.
    """
    X, y, n = ds.X, ds.y, ds.n
    blocks = (X[s:s + _BLOCK_ROWS, 1:] for s in range(0, n, _BLOCK_ROWS))
    if not all(((block == 0.0) | (block == 1.0)).all() for block in blocks):
        return None
    keys = []
    for start in range(1, max(X.shape[1], 2), _KEY_COLUMNS):  # a y key without columns too
        columns = X[:, start:start + _KEY_COLUMNS]
        keys.append(matvec_stack(columns, 2.0 ** np.arange(columns.shape[1] - 1, -1, -1)))
    keys[0] = 2.0 * keys[0] + y
    # in the narrowest type that holds them, which sorts fastest (by radix up to 16 bits)
    keys = [key.astype(np.min_scalar_type(int(key.max()))) for key in keys]
    order = np.lexsort(keys[::-1])
    starts = np.zeros(n, dtype=bool)
    starts[0] = True
    for key in keys:
        ranked = key[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    index = np.empty(n, dtype=np.intp)
    index[order] = np.cumsum(starts) - 1
    first = order[starts]
    rows = replace(ds, y=_read_only(y[first]), X=_read_only(X[first]),
                   weights=_read_only(np.bincount(index, ds.weights, minlength=len(first))))
    return _Patterns(rows, _read_only(index))


def covariate_means(ds: Dataset) -> np.ndarray:
    """Weighted mean of every design column (element 0 is exactly 1).

    The sums run over the pattern table when the dataset has one.
    """
    rows = _distinct_rows(ds)
    return _means(rows.X, rows.weights)


def _means(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted column means of rows X (n, p), or of each problem of a stack (R, n, p)."""
    totals = rmatvec_stack(X, w)
    return totals / totals[..., :1]  # column 0 is all ones, so its total is the weight sum


def load_csv(path, spec: ModelSpec, *, weight_column: str | None = None) -> Dataset:
    """Read a comma-delimited file into a Dataset for ``spec``.

    The file must be UTF-8 with a header row; referenced columns must
    exist. Empty fields are treated as missing and rows with any missing
    value in a referenced column are dropped (the count lands in ``n_dropped``).

    numpy's C parser reads the referenced columns, as integers when the
    file is integer-coded. When an empty referenced field stops it, the
    empty fields are filled in memory, and a filled body whose every
    record holds one digit per field, as many fields as the header has
    names, is read as a grid of bytes, bit-identical to that parser's
    values. Files the C parser cannot read exactly as the csv module
    would (quotes below a one-line header, short rows, whitespace-only,
    non-numeric or non-finite fields, a non-0/1 outcome, a blank first
    data line) are read row by row instead, which gives the same arrays
    and the errors that cite the file line.
    """
    wanted = [spec.outcome, spec.exposure, *spec.covariates]
    if weight_column is not None:
        wanted.append(weight_column)
    parsed = _parse_columns(path, wanted)
    data, n_dropped = parsed if parsed is not None else _parse_rows(path, spec, wanted)

    # the outcome column becomes the intercept, so X is a view of ``data``,
    # which the Dataset adopts
    y = _read_only(data[:, 0].copy())
    data[:, 0] = 1.0
    _read_only(data)
    X = data[:, :2 + len(spec.covariates)]
    weights = data[:, -1] if weight_column is not None else None
    names = (INTERCEPT_NAME, spec.exposure, *spec.covariates)
    return Dataset(y=y, X=X, column_names=names, weights=weights,
                   n_dropped=n_dropped, spec=spec)


@contextmanager
def _open_text(path, newline: str | None = None):
    """``path`` as UTF-8 text less a leading byte-order mark; DataError if not UTF-8."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason}); save it as UTF-8") from None


_SCAN_CHARS = 1 << 20


def _parse_columns(path, wanted: list[str]) -> tuple[np.ndarray, int] | None:
    """The ``wanted`` columns via a byte grid or ``np.loadtxt``, or None to defer to the row loop.

    Returns ``(data, n_dropped)`` only when it equals what ``_parse_rows``
    returns. The file is read once in chunks to count its records and look
    for quotes, then parsed from disk, so a file without empty fields is
    never held in memory whole. When that parse fails, the file is read once
    more, a 0 written into each empty field (see ``_fill_empty_fields``), and
    the filled body parsed as a grid of one-digit fields (see
    ``_digit_grid``) or, when it is not one, from memory. Integer-coded
    files parse as int32 (see ``_loadtxt``).
    """
    with _open_text(path) as handle:  # universal newlines, as np.loadtxt reads the file
        first = handle.readline()  # np.loadtxt skips this line
        header = next(csv.reader([first]))  # a quoted name that runs on keeps a line end
        if any(name not in header for name in wanted) or header[-1].endswith("\n"):
            return None
        chunk = handle.read(_SCAN_CHARS)
        # no records, or a blank first one (np.loadtxt warns on all-blank input)
        if not chunk or chunk[0] == "\n":
            return None
        n_records, quoted, ascii_text, ints, last = 0, False, first.isascii(), True, ""
        while chunk:
            n_records += chunk.count("\n")
            quoted = quoted or '"' in chunk
            ascii_text = ascii_text and chunk.isascii()
            # the int32 parse (see _loadtxt) would read a "-0", which may
            # straddle two chunks, as +0; a "." is a float that would stop it,
            # maybe only after most of the file. A search for "-0" takes
            # 2 ms a MB in text full of 0s, one for "-" alone 0.02 ms.
            ints = (ints and "." not in chunk and last + chunk[0] != "-0"
                    and ("-" not in chunk or "-0" not in chunk))
            last = chunk[-1]
            chunk = handle.read(_SCAN_CHARS)
    n_records += last != "\n"
    if quoted:
        return None

    usecols = [header.index(name) for name in wanted]
    parse = partial(_loadtxt, usecols=usecols)
    dtypes = (np.int32, np.float64) if ints and ascii_text else (np.float64,)
    # the first dtype alone from disk: an empty referenced field fails it,
    # and the file then goes to the fill, not to a float parse from disk
    # that would fail at the same field
    data, keep = parse(path, dtypes[:1]), None
    if data is None:  # an empty field, a value int32 cannot hold, or a row-loop case
        source, keep = _fill_empty_fields(path, usecols)
        if source is not path:
            data = _digit_grid(source, len(header), usecols)
        if data is None:
            # the path, returned when no referenced field is empty, has failed as dtypes[0]
            data = parse(source, dtypes if source is not path else dtypes[1:])
        del source  # a filled body is freed before the kept rows are copied
    if data is None:
        return None
    if keep is not None:
        data = data[keep]
    data = data.astype(np.float64, copy=False)
    y = data[:, 0]
    if len(data) == 0 or not np.isfinite(data).all() or not np.all((y == 0.0) | (y == 1.0)):
        return None
    # every record the row loop keeps is a row here; np.loadtxt skips blank
    # lines, which the row loop drops, so they count as dropped either way
    return data, n_records - len(data)


def _digit_grid(body: bytes, n_fields: int, usecols: list[int]) -> np.ndarray | None:
    """The ``usecols`` of ``body`` when each of its lines is ``n_fields`` one-digit fields.

    Such a line is 2 * ``n_fields`` bytes, a digit and a comma a field with
    a newline for the last comma, so the body is a grid of byte pairs. The
    values, as uint16, are those the int32 parse reads; any other body,
    blank lines included, gives None.
    """
    if len(body) % (2 * n_fields):
        return None
    pairs = np.frombuffer(body, dtype="<u2").reshape(-1, n_fields)
    # a pair less the same field's pair in a line of 0s is its digit, and
    # is above 9 for any other pair, as uint16 wraps below 0
    digits = pairs - np.frombuffer(b"0," * (n_fields - 1) + b"0\n", dtype="<u2")
    return digits[:, usecols] if digits.max() <= 9 else None


def _loadtxt(source, dtypes: tuple, usecols: list[int]) -> np.ndarray | None:
    """The ``usecols`` of every non-blank line of ``source``, or None.

    ``source`` is a path, whose header line is skipped, or the UTF-8 bytes
    of a body, which hold no byte-order mark ("utf-8-sig" reads bytes 3-5x
    slower). It is parsed as each of ``dtypes`` in turn, and the first parse
    that reads it whole is returned. numpy rejects a float or an integer
    outside int32, and every int32 is exact as a float64, so an int32
    parse gives the float parse's values. ``np.int32`` must not be tried
    on text that holds "-0", which parses as 0 where float gives -0.0, or
    a non-ASCII character, some of which numpy's integer parser takes for
    digits.
    """
    for dtype in dtypes:
        text = io.BytesIO(source) if isinstance(source, bytes) else source
        try:
            with warnings.catch_warnings():
                # numpy releases from 1.23 until the deprecation expired read
                # a float, or an integer outside int32, into an integer
                # column through a float, cast, with a DeprecationWarning
                warnings.simplefilter("error", DeprecationWarning)
                return np.loadtxt(text, dtype=dtype, delimiter=",", usecols=usecols,
                                  comments=None, ndmin=2, skiprows=int(text is source),
                                  encoding="utf-8")
        except (ValueError, DeprecationWarning):
            pass
    return None


def _fill_empty_fields(path, usecols: list[int]) -> tuple[bytes, np.ndarray] | tuple[str, None]:
    """The file's body with a 0 in every empty field, and which of its rows to keep.

    A row is a non-blank line of the body, as ``np.loadtxt`` returns them;
    it is kept unless one of its filled fields is in ``usecols``. When none
    is, the file parses as it stands, since ``np.loadtxt`` converts only
    ``usecols``: the result is then ``(path, None)``. The file is read
    whole, once, and every step over its bytes is a numpy one.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    if b"\r" in raw:  # universal newlines, as the text scan read the file
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not raw.endswith(b"\n"):  # so that every line ends in one
        raw += b"\n"
    text = np.frombuffer(raw, dtype=np.uint8)
    comma, newline = text == ord(","), text == ord("\n")
    ends = np.flatnonzero(newline)  # ends[0] ends the header
    # a field is empty where a comma or a line end follows a comma, or a
    # comma starts a line; ``at`` is where each empty field sits
    empty = comma[1:] | newline[1:]
    empty &= comma[:-1]
    empty |= newline[:-1] & comma[1:]
    del newline
    at = np.flatnonzero(empty) + 1
    del empty
    at = at[at > ends[0]]
    line = np.searchsorted(ends, at)  # the header is line 0
    line_start = ends[line - 1] + 1
    # a field's column is the count of commas before it on its line: the
    # sum of comma over [line_start, at), which reduceat takes window by
    # window, as its int32 copy of comma would be four times the file
    columns = np.empty(len(at), dtype=np.int32)
    # the first empty field of each window of _SCAN_CHARS bytes, by line start
    firsts = np.flatnonzero(np.diff(line_start // _SCAN_CHARS, prepend=-1))
    for i, j in zip(firsts, [*firsts[1:], len(at)]):
        lo = line_start[i]
        spans = np.column_stack([line_start[i:j], at[i:j]]).ravel() - lo
        columns[i:j] = np.add.reduceat(comma[lo:at[j - 1] + 1], spans, dtype=np.int32)[::2]
    columns[at == line_start] = 0  # reduceat gives comma[line_start] for an empty span
    del comma
    referenced = np.isin(columns, usecols)
    if not referenced.any():
        return path, None
    blank = ends[1:][np.diff(ends) == 1]  # the ends of blank lines, which np.loadtxt skips
    keep = np.ones(len(ends) - 1 - len(blank), dtype=bool)
    keep[(line - 1 - np.searchsorted(blank, at))[referenced]] = False
    filled = np.insert(text[ends[0] + 1:], at - ends[0] - 1, ord("0"))
    del text, raw
    return filled.tobytes(), keep


def _records(path, wanted):
    """``(line, fields)`` of every csv record below the header, ``line`` the one it starts on.

    ``fields`` are the record's ``wanted`` fields, stripped, with "" for
    those a short record lacks; of two columns with the same name the first
    is read. Raises DataError for an empty file or a missing column.
    """
    with _open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: file is empty")
        missing = [name for name in wanted if name not in header]
        if missing:
            raise DataError(f"{path}: no column named {missing[0]!r}")
        columns = [header.index(name) for name in wanted]
        line = reader.line_num + 1
        for record in reader:
            yield line, [record[i].strip() if i < len(record) else "" for i in columns]
            line = reader.line_num + 1


def _parse_rows(path, spec: ModelSpec, wanted: list[str]) -> tuple[np.ndarray, int]:
    """The ``wanted`` columns read record by record with the csv module.

    Returns ``(data, n_dropped)``; raises DataError citing the file line
    for a non-numeric or non-finite field and for a non-0/1 outcome.
    """
    rows: list[list[float]] = []
    lines: list[int] = []  # the line each kept row starts on
    n_dropped = 0
    for line, fields in _records(path, wanted):
        if "" in fields:
            n_dropped += 1
            continue
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise DataError(f"{path}, line {line}: {exc}") from None
        if values[0] not in (0.0, 1.0):
            raise DataError(
                f"{path}, line {line}: outcome {spec.outcome!r} is "
                f"{values[0]!r}, expected 0 or 1"
            )
        rows.append(values)
        lines.append(line)

    if not rows:
        raise DataError(f"{path}: no complete rows after dropping {n_dropped} with missing values")

    data = np.array(rows)
    if not np.isfinite(data).all():
        row, col = (int(i) for i in np.argwhere(~np.isfinite(data))[0])
        raise DataError(
            f"{path}, line {lines[row]}: column {wanted[col]!r} is "
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
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in (ds.y[i], *ds.X[i, 1:], ds.weights[i])]
                         for i in range(ds.n))
