"""load_csv against the csv-module row loop it replaced.

``row_loop_load_csv`` is that loop, kept here as the oracle: for every
input the loader must return bit-identical arrays and the same
``n_dropped``, or raise a DataError with the same text.
"""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import prevratio.data as data_module
from prevratio import DataError, Dataset, INTERCEPT_NAME, ModelSpec, load_csv

SPEC = ModelSpec(outcome="y", exposure="x", covariates=("z",))


def row_loop_load_csv(path, spec, *, weight_column=None):
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

        rows = []
        dropped_lines = []
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
        for dropped in dropped_lines:
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


def load_or_error(loader, path, spec, weight_column):
    try:
        return loader(path, spec, weight_column=weight_column)
    except DataError as exc:
        return str(exc)


def assert_same_as_row_loop(path, spec=SPEC, weight_column=None):
    want = load_or_error(row_loop_load_csv, path, spec, weight_column)
    got = load_or_error(load_csv, path, spec, weight_column)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for name in ("y", "X", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.n_dropped == want.n_dropped
    assert got.column_names == want.column_names


def write(path, text):
    with open(path, "w", newline="") as fh:  # keep \r\n as written
        fh.write(text)
    return path


CASES = {
    "plain": "y,x,z\n1,1,0.5\n0,0,-1.5\n1,1,2.0\n",
    "empty referenced": "y,x,z,u\n1,1,0.5,3\n0,,1.0,4\n1,0,,5\n,1,2.0,6\n0,1,2.0,7\n",
    "empty unreferenced": "y,x,z,u,v\n1,1,0.5,,\n0,0,1.0,4,\n1,1,2,,,\n",
    "empty run": "y,x,z,u\n1,,,5\n0,1,2,3\n1,0,1,2\n",
    "empty everywhere": "y,x,z,u\n,,,\n1,1,0.5,\n0,,,\n1,0,3,8\n",
    "empty last field, no trailing newline": "y,x,z\n1,1,0.5\n0,0,",
    "empty first field, first row": "y,x,z\n,1,0.5\n0,0,1\n",
    "empty with letters in unreferenced column": "y,x,z,u\n1,1,0.5,abc\n0,,1,2\n1,0,2,3\n",
    "blank lines": "y,x,z\n1,1,0.5\n\n0,0,1\n\n",
    "blank first line": "y,x,z\n\n1,1,0.5\n0,0,1\n",
    "only blank lines": "y,x,z\n\n\n",
    "whitespace padded": "y,x,z\n 1 ,\t1,0.5 \n0, 0 ,  -1.5\n",
    "whitespace only field": "y,x,z\n1, ,0.5\n0,0,1\n1,1,2\n",
    "whitespace only line": "y,x,z\n1,1,0.5\n   \n0,0,1\n",
    "no-break space": "y,x,z\n1,1,\xa00.5\n0,0,1\n",
    "quoted fields": 'y,x,z\n"1",1,0.5\n0,"0",1\n',
    "quoted comma and newline": 'y,x,z,u\n1,1,0.5,"a,b"\n0,0,1,"c\nd"\n1,0,2,e\n',
    "quoted header": '"y","x","z"\n1,1,0.5\n0,0,1\n',
    "quoted newline in unreferenced field": 'y,x,z,u\n1,1,0.5,"a\n0,0,1,b"\n1,0,2,c\n',
    "quoted comma shifts columns": 'u,v,y,x,z\n"a,1",1,0,5,9\n0,0,1,1,2\n',
    "crlf": "y,x,z\r\n1,1,0.5\r\n0,,1\r\n1,0,2\r\n",
    "crlf blank line": "y,x,z\r\n1,1,0.5\r\n\r\n0,0,1\r\n",
    "lone cr": "y,x,z\r1,1,0.5\r0,0,1\r",
    "short row": "y,x,z,u\n1,1,0.5,3\n0,0\n1,0,2,4\n",
    "long row": "y,x,z\n1,1,0.5,7,8\n0,0,1\n",
    "hash in field": "y,x,z\n1,1,#0.5\n0,0,1\n",
    "hash in unreferenced field": "y,x,z,u\n1,1,0.5,#c\n0,0,1,x\n",
    "hash line": "y,x,z\n#1,1,0.5\n0,0,1\n",
    "nan": "y,x,z\n1,1,0.5\n0,0,nan\n",
    "inf with empty field": "y,x,z\n1,1,inf\n0,,1\n",
    "NaN and Infinity": "y,x,z\n1,1,NaN\n0,0,-Infinity\n",
    "overflow to inf": "y,x,z\n1,1,1e999\n0,0,1\n",
    "overflow with empty field": "y,x,z\n1,1,1e999\n0,,1\n1,0,2\n",
    "outcome 2": "y,x,z\n1,1,0.5\n2,0,1\n",
    "outcome 2 with empty field": "y,x,z\n1,,0.5\n2,0,1\n",
    "outcome negative zero": "y,x,z\n-0,1,0.5\n1,-0,1\n",
    "non-numeric": "y,x,z\n1,1,0.5\n0,oops,1.0\n",
    "underscore digits": "y,x,z\n1,1,1_000\n0,0,1\n",
    "number spellings": "y,x,z\n1.,+1,.5\n0.0,0e0,-2.5E-3\n",
    "no trailing newline": "y,x,z\n1,1,0.5\n0,0,1",
    "header only": "y,x,z\n",
    "header only, no newline": "y,x,z",
    "empty file": "",
    "blank header": "\ny,x,z\n1,1,0.5\n",
    "missing column": "y,x\n1,1\n0,0\n",
    "duplicate header name": "y,x,z,z\n1,1,0.5,9\n0,0,1,8\n",
    "all rows dropped": "y,x,z\n1,1,\n0,,1.0\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_row_loop(tmp_path, name):
    assert_same_as_row_loop(write(tmp_path / "d.csv", CASES[name]))


@pytest.mark.parametrize("text", [
    "y,x,z,w\n1,1,0.5,2\n0,0,1,3.5\n1,1,2,0.25\n",
    "y,x,z,w\n1,1,0.5,\n0,0,1,3.5\n1,,2,0.25\n",
    "y,x,z,w\n1,1,0.5,nan\n0,0,1,3\n",
    "y,x,z,w\n1,1,0.5,0\n0,0,1,3\n",
])
def test_weight_column_matches_row_loop(tmp_path, text):
    assert_same_as_row_loop(write(tmp_path / "d.csv", text), weight_column="w")


def test_weight_column_may_repeat_a_covariate(tmp_path):
    path = write(tmp_path / "d.csv", "y,x,z\n1,1,0.5\n0,0,1.5\n")
    assert_same_as_row_loop(path, weight_column="z")


@pytest.mark.parametrize("name", [
    "plain", "empty referenced", "empty unreferenced", "empty run", "empty everywhere",
    "empty last field, no trailing newline", "empty first field, first row", "blank lines",
    "crlf", "crlf blank line", "no trailing newline", "whitespace padded", "long row",
    "number spellings"])
def test_numeric_files_skip_the_row_loop(tmp_path, monkeypatch, name):
    def row_loop(*args):
        raise AssertionError("row loop used")
    monkeypatch.setattr(data_module, "_parse_rows", row_loop)
    ds = load_csv(write(tmp_path / "d.csv", CASES[name]), SPEC)
    assert ds.n > 0


# fields a generated file may hold; a referenced column sees all of them
FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["", "", " ", " 1 ", "nan", "-inf", "1e999", "x", "#", '"1"', "1_0"]),
)
OUTCOMES = st.one_of(st.sampled_from(["0", "1", "0.0", "1.0", "-0", "1e0"]),
                     st.sampled_from(["", "2", "0.5"]))


@st.composite
def csv_texts(draw):
    n_rows = draw(st.integers(0, 8))
    lines = []
    for _ in range(n_rows):
        if draw(st.integers(0, 19)) == 0:
            lines.append("")  # blank line
            continue
        fields = [draw(OUTCOMES)] + [draw(FIELDS) for _ in range(3)]
        if draw(st.integers(0, 9)) == 0:
            fields = fields[:draw(st.integers(1, 3))]  # ragged
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = newline.join(["y,x,z,w", *lines])
    return text + newline if draw(st.booleans()) else text


@st.composite
def numeric_csv_texts(draw):
    """Finite floats written with repr, an occasional empty field."""
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    weight = st.floats(min_value=1e-300, max_value=1e300).map(repr)
    rows = draw(st.lists(st.tuples(
        st.sampled_from(["0", "1"]),
        *[st.one_of(values, st.just("")) for values in (finite, finite, weight)]),
        min_size=1, max_size=12))
    return "y,x,z,w\n" + "".join(",".join(row) + "\n" for row in rows)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_texts(), weighted=st.booleans())
def test_random_files_match_row_loop(tmp_path_factory, text, weighted):
    path = write(tmp_path_factory.mktemp("csv") / "d.csv", text)
    assert_same_as_row_loop(path, weight_column="w" if weighted else None)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=numeric_csv_texts())
def test_repr_floats_round_trip(tmp_path_factory, text):
    path = write(tmp_path_factory.mktemp("csv") / "d.csv", text)
    assert_same_as_row_loop(path, weight_column="w")
