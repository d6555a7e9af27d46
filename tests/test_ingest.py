"""load_csv against the csv-module row loop it replaced.

``row_loop_load_csv`` is that loop, kept here as the oracle: for every
input the loader must return bit-identical arrays and the same
``n_dropped``, or raise a DataError with the same text.
"""

import csv
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import prevratio.data as data_module
from prevratio import DataError, Dataset, INTERCEPT_NAME, ModelSpec, StratifiedTable, load_csv

SPEC = ModelSpec(outcome="y", exposure="x", covariates=("z",))


def row_loop_load_csv(path, spec, *, weight_column=None):
    wanted = [spec.outcome, spec.exposure, *spec.covariates]
    if weight_column is not None:
        wanted.append(weight_column)
    with open(path, encoding="utf-8", newline="") as handle:
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

        # a record starts on the line after the one the previous record ends on
        rows, lines, n_dropped, end = [], [], 0, reader.line_num
        for record in reader:
            line_no, end = end + 1, reader.line_num
            fields = [record[indices[name]].strip() if indices[name] < len(record) else ""
                      for name in wanted]
            if any(f == "" for f in fields):
                n_dropped += 1
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
            lines.append(line_no)

    if not rows:
        raise DataError(f"{path}: no complete rows after dropping {n_dropped} with missing values")

    data = np.array(rows)
    if not np.isfinite(data).all():
        row, col = (int(i) for i in np.argwhere(~np.isfinite(data))[0])
        raise DataError(
            f"{path}, line {lines[row]}: column {wanted[col]!r} is "
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
    assert_same_outcome(got, want)


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert_same_dataset(got, want)


def assert_same_dataset(got, want):
    for name in ("y", "X", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.n_dropped == want.n_dropped
    assert got.column_names == want.column_names


def write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:  # keep \r\n as written
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
    "empty with n in unreferenced column": "y,x,z,u\n1,1,0.5,none\n0,,1,NA\n1,0,2,3\n",
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
    "quoted header name runs on": 'y,x,z,"u\nv"\n1,1,0.5,2\n0,0,1,3\n',
    # the row loop reads the rest of the file into the name the quote opens
    "quoted header name never closes": 'y,x,z,"u\n1,1,0.5,2\n0,0,1,3\n',
    "quote in a header name, then one that never closes":
        'y,x,z,u",v,"w\n1,1,0.5,2,3,4\n0,0,1,1,1,1\n',
    "quoted newline in unreferenced field": 'y,x,z,u\n1,1,0.5,"a\n0,0,1,b"\n1,0,2,c\n',
    # errors below a record that spans lines cite the line the bad record starts on
    "quoted newline, then non-numeric": 'y,x,z,u\n1,1,0.5,"a\nb"\n0,0,oops,c\n',
    "quoted newline, then outcome 2": 'y,x,z,u\n1,"1\n",0.5,a\n2,0,1,b\n',
    "quoted newline, then inf after empty field": 'y,x,z,u\n1,1,0.5,"a\nb"\n0,0,,c\n1,0,inf,d\n',
    "quoted newline in header, then non-numeric": 'y,x,z,"u\nv"\n1,1,0.5,2\n0,0,oops,3\n',
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
    # integer-coded files, at and beyond the int32 limits
    "int": "y,x,z\n1,1,0\n0,0,-3\n1,1,2\n",
    "int negative zero": "y,x,z\n1,-0,1\n0,0,-00\n1,1, -0 \n",
    "int negative zero with empty field": "y,x,z\n1,-0,1\n0,,1\n1,1,0\n",
    "int signs and padding": "y,x,z\n1,+1,007\n0, 1 ,\t2\n1,0,0000000000000000000001\n",
    "int no-break space": "y,x,z\n1,1\xa0,1\n0,0,\xa02\n",
    "int non-ascii digit lookalike": "y,x,z\n1,1,\u01fe1\n0,0,1\n",
    "int non-ascii digit lookalike with empty field": "y,x,z\n1,,1\n0,0,\u01fe1\n",
    "int32 limits": "y,x,z\n1,2147483647,-2147483647\n0,0,-2147483648\n",
    "int beyond int32": "y,x,z\n1,2147483648,9007199254740993\n0,0,9223372036854775808\n",
    "int beyond int32 with empty field": "y,x,z\n1,,2147483648\n0,0,9007199254740993\n",
    "int empty at line start": "y,x,z\n,1,1\n0,0,1\n1,1,0\n",
    "int empty at line start, unreferenced": "u,y,x,z\n,1,1,0\n5,0,0,1\n,1,1,1\n",
    "int empty at line start, next unreferenced": "y,u,x,z\n,5,1,0\n0,5,0,1\n1,,1,1\n",
    "int empty at line end": "y,x,z\n1,1,\n0,0,1\n1,1,0\n",
    "int empty run": "y,x,z,u,v\n1,,,,\n0,0,1,,\n1,1,0,3,\n",
    "int empty unreferenced": "y,u,x,v,z\n1,,1,,0\n0,,0,5,1\n1,2,1,,1\n",
    "int empty crlf": "y,x,z\r\n1,1,\r\n0,0,1\r\n,1,0\r\n1,1,1\r\n",
    "int empty lone cr": "y,x,z\r1,,1\r0,0,1\r",
    "int empty last, no trailing newline": "y,x,z\n1,1,1\n0,0,",
    "int empty header field": "y,,x,z\n1,,1,0\n0,7,0,\n1,,1,1\n",
    "blank lines with empty fields": "y,x,z\n1,1,1\n\n0,,1\n\n\n1,0,0\n0,1,\n\n",
    "crlf blank lines with empty fields": "y,x,z\r\n1,1,1\r\n\r\n0,,1\r\n1,0,0\r\n",
    "int nan with empty field": "y,x,z\n1,1,nan\n0,,1\n1,0,1\n",
    "int inf after empty field": "y,x,z\n1,,1\n0,0,-inf\n1,1,0\n",
    "nan in a dropped row": "y,x,z\n1,,nan\n0,0,1\n1,1,0\n",
    "int outcome 2 with empty field": "y,x,z\n1,,1\n2,0,1\n",
    "int whitespace only field with empty field": "y,x,z\n1,,1\n0, ,1\n1,1,0\n",
    "int short row with empty field": "y,x,z\n1,,1\n0,0\n1,1,0\n",
    # one digit per field, which is read as a grid of bytes once the empty fields are filled
    "digits": "y,x,z\n1,1,0\n0,0,1\n1,1,9\n",
    "digits, no trailing newline": "y,x,z\n1,1,0\n0,,1",
    "digits with empty field": "y,x,z,u\n1,1,0,5\n0,,1,5\n1,1,9,\n",
    # filled, 18 bytes that are three 3-field grid lines in size only
    "digits, filled body the size of a grid": "y,x,z\n1,,0\n1,1,0,1\n0,0\n",
    "digits, quoted header": '"y","x","z"\n1,,0\n0,0,1\n',
    # 8 bytes as it stands, a 4-field grid line, under a 5-name header
    "digits, grid width from the header": "y,x,note,z,w\n0,0,,,0\n",
    "digits, empty field last": "y,x,z\n" + "1,0,1\n0,1,0\n" * 50 + "1,1,\n",
    "digits crlf": "y,x,z\r\n1,1,0\r\n0,0,1\r\n1,1,9\r\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_row_loop(tmp_path, name):
    assert_same_as_row_loop(write(tmp_path / "d.csv", CASES[name]))


@pytest.mark.parametrize("name, message", [
    ("quoted newline, then non-numeric", "line 4: could not convert string to float: 'oops'"),
    ("quoted newline, then inf after empty field",
     "line 5: column 'z' is inf, not a finite number"),
])
def test_error_cites_the_line_its_record_starts_on(tmp_path, name, message):
    # the field in error sits on line 4 or 5, below a quoted field that spans two lines
    path = write(tmp_path / "d.csv", CASES[name])
    with pytest.raises(DataError) as info:
        load_csv(path, SPEC)
    assert str(info.value) == f"{path}, {message}"


@pytest.mark.parametrize("chunk_chars", [1, 2, 3, 5])
def test_small_scan_chunks_match_row_loop(tmp_path, monkeypatch, chunk_chars):
    # a quote or a line end split between two chunks of the text scan
    monkeypatch.setattr(data_module, "_SCAN_CHARS", chunk_chars)
    for name in sorted(CASES):
        try:
            assert_same_as_row_loop(write(tmp_path / "d.csv", CASES[name]))
        except AssertionError as exc:
            raise AssertionError(name) from exc


@pytest.mark.parametrize("text", [
    "y,x,z\n1,1,2147483648\n0,0,1\n",
    "y,x,z\n1,1,15e-1\n0,0,1\n",
    "y,x,z\n1,,1\n0,0,2147483648\n1,1,0\n",
])
def test_int_parse_through_a_float_falls_back(tmp_path, monkeypatch, text):
    # numpy releases from 1.23 until that deprecation expired read a float,
    # or an integer outside int32, into an int32 column through a float,
    # cast, with a DeprecationWarning hidden by default; the loader parses
    # float64 alone, so such a release reads these files as any other does
    loadtxt = np.loadtxt

    def through_a_float(*args, dtype=np.float64, **kwargs):
        data = loadtxt(*args, dtype=np.float64, **kwargs)
        if dtype is not np.int32:
            return data
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return data.astype(np.int64).astype(np.int32)  # wraps, as the cast did

    monkeypatch.setattr(np, "loadtxt", through_a_float)
    assert_same_as_row_loop(write(tmp_path / "d.csv", text))


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


INTEGER_CASES = [
    "int", "int negative zero", "int negative zero with empty field", "int signs and padding",
    "int no-break space", "int32 limits", "int beyond int32", "int beyond int32 with empty field",
    "int empty at line start", "int empty at line start, unreferenced",
    "int empty at line start, next unreferenced", "int empty at line end", "int empty run",
    "int empty unreferenced", "int empty crlf", "int empty lone cr",
    "int empty last, no trailing newline", "int empty header field", "nan in a dropped row"]


@pytest.mark.parametrize("name", [
    "plain", "empty referenced", "empty unreferenced", "empty run", "empty everywhere",
    "empty last field, no trailing newline", "empty first field, first row", "blank lines",
    "crlf", "crlf blank line", "no trailing newline", "whitespace padded", "long row",
    "number spellings", *INTEGER_CASES, "blank lines with empty fields",
    "crlf blank lines with empty fields", "empty with letters in unreferenced column",
    "empty with n in unreferenced column", "quoted header", "digits",
    "digits, no trailing newline", "digits with empty field"])
def test_numeric_files_skip_the_row_loop(tmp_path, monkeypatch, name):
    def row_loop(*args):
        raise AssertionError("row loop used")
    monkeypatch.setattr(data_module, "_parse_rows", row_loop)
    ds = load_csv(write(tmp_path / "d.csv", CASES[name]), SPEC)
    assert ds.n > 0


@pytest.mark.parametrize("name, dtypes", [
    ("plain", ["float64"]),
    ("int", ["float64"]),
    ("int empty unreferenced", ["float64"]),  # nothing filled, so the body as it stands
    ("int empty at line end", []),  # the filled body is a grid
    ("empty referenced", ["float64", "float64"]),
    ("int beyond int32", ["float64"]),
    ("digits", []),  # no empty field, and the body is a grid as it stands
    ("digits with empty field", []),
    ("digits, no trailing newline", []),
    ("digits, quoted header", []),
    ("int empty crlf", []),  # the fill writes "\n" line ends
    ("blank lines with empty fields", ["float64"]),  # a blank line is no grid line
    ("digits, empty field last", []),
    ("digits crlf", []),
])
def test_one_failed_parse_before_the_fill(tmp_path, monkeypatch, name, dtypes):
    # at most one parse fails before the fill. A body of at most two
    # characters a field is filled and read as a grid, or parsed from memory
    # when it is not one; any other body is parsed from disk, and once more
    # from memory, filled, when an empty field fails it
    calls = []
    loadtxt = np.loadtxt

    def recording(*args, dtype=np.float64, **kwargs):
        calls.append(np.dtype(dtype).name)
        return loadtxt(*args, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    load_csv(write(tmp_path / "d.csv", CASES[name]), SPEC)
    assert calls == dtypes


@pytest.mark.parametrize("name", ["digits", "digits with empty field", "plain"])
def test_design_is_row_major(tmp_path, name):
    # BLAS sums a column-major design in another order, so the fits would
    # round otherwise
    ds = load_csv(write(tmp_path / "d.csv", CASES[name]), SPEC)
    assert ds.X.strides == (8 * ds.X.shape[1], 8)


# spreadsheet programs write a UTF-8 byte-order mark before the header
BOM = "\ufeff"


@pytest.mark.parametrize("name", ["plain", "int", "empty referenced", "int empty at line end",
                                  "crlf", "blank lines with empty fields", "quoted header",
                                  "digits with empty field"])
def test_byte_order_mark_on_the_fast_path(tmp_path, monkeypatch, name):
    def row_loop(*args):
        raise AssertionError("row loop used")
    monkeypatch.setattr(data_module, "_parse_rows", row_loop)
    assert_same_dataset(load_csv(write(tmp_path / "bom.csv", BOM + CASES[name]), SPEC),
                        load_csv(write(tmp_path / "d.csv", CASES[name]), SPEC))


@pytest.mark.parametrize("text", [
    'y,x,z\n1,1,"0.5"\n0,,1\n1,0,2\n',  # a quoted field sends the file to the row loop
    '"y",x,z\n1,1,"0.5"\n0,0,1\n',  # and a quoted first name, right after the mark
])
def test_byte_order_mark_in_the_row_loop(tmp_path, monkeypatch, text):
    paths = []
    parse_rows = data_module._parse_rows

    def recording(path, *args):
        paths.append(path)
        return parse_rows(path, *args)

    monkeypatch.setattr(data_module, "_parse_rows", recording)
    bom, plain = write(tmp_path / "bom.csv", BOM + text), write(tmp_path / "d.csv", text)
    assert_same_dataset(load_csv(bom, SPEC), load_csv(plain, SPEC))
    assert paths == [bom, plain]


# a non-ASCII name in a column the model does not read, with its ASCII twin
NON_ASCII = "y,x,z,S\u00e3o\n1,1,0.5,3\n0,0,1,4\n1,1,2,5\n"
ASCII_TWIN = "y,x,z,Sao\n1,1,0.5,3\n0,0,1,4\n1,1,2,5\n"


def test_non_ascii_name_on_the_fast_path(tmp_path, monkeypatch):
    def row_loop(*args):
        raise AssertionError("row loop used")
    monkeypatch.setattr(data_module, "_parse_rows", row_loop)
    assert_same_dataset(load_csv(write(tmp_path / "a.csv", NON_ASCII), SPEC),
                        load_csv(write(tmp_path / "b.csv", ASCII_TWIN), SPEC))


def test_utf8_whatever_the_locale(tmp_path):
    # files are read as UTF-8 under an ASCII locale too, without UTF-8 mode
    files = [write(tmp_path / name, text) for name, text in [
        ("bom.csv", BOM + CASES["plain"]), ("plain.csv", CASES["plain"]),
        ("name.csv", NON_ASCII), ("twin.csv", ASCII_TWIN)]]
    code = ("import sys; from prevratio import ModelSpec, load_csv\n"
            "spec = ModelSpec('y', 'x', ('z',))\n"
            "for path in sys.argv[1:]:\n"
            "    ds = load_csv(path, spec)\n"
            "    print(ds.y.tobytes().hex(), ds.X.tobytes().hex(), ds.n_dropped)\n")
    src = os.path.dirname(os.path.dirname(data_module.__file__))
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    out = subprocess.run([sys.executable, "-c", code, *map(str, files)], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert len(out) == 4 and out[0] == out[1] and out[2] == out[3]


def test_a_file_that_is_not_utf8_is_a_data_error(tmp_path):
    # a Latin-1 export: "\xe3" starts a UTF-8 sequence that "o" does not continue
    for text in (CASES["plain"].replace("z", "S\xe3o"), "y,x,z,u\n1,1,0.5,S\xe3o\n"):
        path = tmp_path / "latin1.csv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DataError, match="latin1.csv: not UTF-8 text"):
            load_csv(path, ModelSpec(outcome="y", exposure="x"))
    path.write_bytes("stratum,a,b,c,d\nS\xe3o,1,2,3,4\n".encode("latin-1"))
    with pytest.raises(DataError, match="latin1.csv: not UTF-8 text"):
        StratifiedTable.from_csv(path)


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


# integer fields within int32
INTEGER_FIELDS = st.one_of(
    st.integers(-3, 3).map(str),
    st.integers(-2**31, 2**31 - 1).map(str),
    st.sampled_from(["", "", "+1", "007", " 1 "]),
)
# at most one per file: the "-0" spellings, integers beyond int32 and non-integers
SPECIAL_FIELDS = st.sampled_from(["-0", "-00", " -0 ", "2147483648", "-2147483649",
                                  str(2**53 + 1), str(2**63), "nan", "1.5"])


@st.composite
def integer_csv_texts(draw):
    """Integer-coded files: empty fields, blank lines, an unreferenced text column."""
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.integers(0, 9)) == 0:
            rows.append([])  # blank line
            continue
        rows.append([draw(st.sampled_from(["0", "1", "0", "1", ""])), draw(INTEGER_FIELDS),
                     draw(st.sampled_from(["", "", "abc", "n/a", "-"])),
                     *[draw(INTEGER_FIELDS) for _ in range(2)]])
    if draw(st.integers(0, 2)) == 0:
        row = draw(st.sampled_from(rows))
        if row:
            row[draw(st.sampled_from([0, 1, 3, 4]))] = draw(SPECIAL_FIELDS)
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = newline.join(["y,x,note,z,w", *map(",".join, rows)])
    return text + newline if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=integer_csv_texts(), weighted=st.booleans())
def test_integer_files_match_row_loop(tmp_path_factory, text, weighted):
    path = write(tmp_path_factory.mktemp("csv") / "d.csv", text)
    assert_same_as_row_loop(path, weight_column="w" if weighted else None)


# one-character fields: the digits of a grid, and one near miss per file
GRID_MISSES = st.sampled_from([
    "10", "01", " 1", "-", "a", ".", " ", "", "2", "extra field", "missing field"])


@st.composite
def one_character_csv_texts(draw):
    """One-digit and empty fields, CRLF, blank lines, a byte-order mark, a quoted header."""
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 14)) == 0:
            rows.append([])  # blank line
            continue
        rows.append([draw(st.sampled_from(["0", "1", "0", "1", ""])),
                     *[draw(st.sampled_from(["0", "1", "5", "9", ""])) for _ in range(3)],
                     draw(st.sampled_from(["1", "2", "9", ""]))])
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        miss = draw(GRID_MISSES)
        if miss == "extra field":
            row.append("1")
        elif miss == "missing field":
            del row[len(row) - 1:]
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = miss
    header = draw(st.sampled_from(["y,x,note,z,w", '"y","x","note","z","w"']))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = newline.join([header, *map(",".join, rows)])
    return text + newline if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=one_character_csv_texts(), weighted=st.booleans(), mark=st.booleans())
def test_one_character_files_match_row_loop(tmp_path_factory, text, weighted, mark):
    # the oracle reads a byte-order mark into the first name, so it reads
    # the file without one, at the same path, which its errors cite
    path, weight_column = tmp_path_factory.mktemp("csv") / "d.csv", "w" if weighted else None
    want = load_or_error(row_loop_load_csv, write(path, text), SPEC, weight_column)
    got = load_or_error(load_csv, write(path, BOM * mark + text), SPEC, weight_column)
    assert_same_outcome(got, want)


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
