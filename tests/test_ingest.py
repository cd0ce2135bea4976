"""The field reader and the row parser read every file alike.

``load_csv`` reads every file, a CSV or a bare count file, by the field
reader (``_field_rows``) if it takes the file, by the row parser
(``_csv_rows``) if not.  Each check here compares the result, or the
message, with the row parser's.
"""

import contextlib
import json
import string
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unbcount import cli, datasets
from unbcount.datasets import load_csv
from unbcount.distributions import UnbParams, unb_sample
from unbcount.errors import DataError


def outcome(path, response, covariates, delimiter):
    try:
        data = load_csv(path, response, covariates, delimiter=delimiter)
    except DataError as exc:
        return str(exc)
    return data


def check(path, response, covariates=(), delimiter=","):
    """Assert that load_csv and the row parser agree on the file; return
    whether the field reader (``_field_rows``) took it."""
    real, taken = datasets._field_rows, []

    def spy(*args):
        values = real(*args)
        taken.append(values is not None)
        return values

    with mock.patch.object(datasets, "_field_rows", spy):
        got = outcome(path, response, covariates, delimiter)
    with mock.patch.object(datasets, "_field_rows", return_value=None):
        want = outcome(path, response, covariates, delimiter)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.column_names == want.column_names and got.n == want.n
        for name in want.column_names:
            assert np.array_equal(got.columns[name], want.columns[name])
        assert got.dropped_rows == want.dropped_rows
    return bool(taken) and taken[0]


def write(directory, text, name="d.csv"):
    path = Path(directory) / name
    path.write_bytes(text.encode("utf-8"))
    return path


# Missing cells the field reader takes, in any case and padding, and the
# empty or blank ones it leaves to the row parser.
REGULAR = ["NA", "NULL", "nan", "NaN", " nan ", "na", "Na", "null", " NA", "NA ",
           "\tnull ", "NAN"]
IRREGULAR = ["", " "]
TEXT = st.text("abnNAlLuU_xyz", min_size=1, max_size=6)
# Delimiters of the agreement tests: ASCII punctuation but the quote, tab
# and space.
DELIMITERS = [c for c in string.punctuation if c != '"'] + ["\t", " "]


@st.composite
def tables(draw, missing, delimiters=DELIMITERS):
    number = st.one_of(st.integers(0, 30).map(str),
                       st.floats(-1e6, 1e6, allow_nan=False).map(repr),
                       st.integers(0, 9).map(lambda v: f" {v} "))
    count = st.one_of(st.integers(0, 30).map(str), st.sampled_from(missing))
    cell = st.one_of(number, st.sampled_from(missing))
    delimiter = draw(st.sampled_from(delimiters))
    names = draw(st.permutations(["id", "y", "a", "b", "u"]))
    makers = {"id": TEXT, "y": count, "a": cell, "b": cell, "u": cell}
    rows = [delimiter.join(names)]
    pad = "\t" if delimiter == " " else " "  # cells are padded by the other
    for _ in range(draw(st.integers(1, 25))):
        rows.append(delimiter.join(draw(makers[name]).replace(delimiter, pad)
                                   for name in names))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(rows) + (newline if draw(st.booleans()) else "")
    covariates = draw(st.lists(st.sampled_from(["a", "b"]), unique=True))
    return text, covariates, delimiter


@settings(max_examples=100, deadline=None)
@given(tables(REGULAR, [",", ";", "|", "\t", " "]))
def test_field_reader_takes_regular_files(table):
    # Missing tokens in any case and padding in selected and unselected
    # columns, padded numbers, and a text column with "NA" in it: the
    # field reader takes every such file, and agrees with the row parser.  (A delimiter such as "." or
    # "-" would split the numbers.)
    text, covariates, delimiter = table
    with tempfile.TemporaryDirectory() as tmp:
        assert check(write(tmp, text), "y", covariates, delimiter)


@settings(max_examples=150, deadline=None)
@given(tables(REGULAR + IRREGULAR))
def test_field_reader_agrees_with_the_row_parser(table):
    # Empty and blank cells too: a file the field reader takes or declines
    # reads as the row parser reads it.
    text, covariates, delimiter = table
    with tempfile.TemporaryDirectory() as tmp:
        check(write(tmp, text), "y", covariates, delimiter)


CASES = {
    # name: (text, covariates, delimiter, taken by the field reader)
    "blank_line": ("y,a\n0,1\n\n2,3\n", ["a"], ",", False),
    "trailing_blank_line": ("y\n0\n1\n\n", [], ",", False),
    "blank_line_crlf": ("y\r\n0\r\n\r\n1\r\n", [], ",", False),
    "whitespace_line": ("y,a\n0,1\n   \n2,3\n", ["a"], ",", False),
    "whitespace_line_one_column": ("y\n0\n \t \n2\n", [], ",", False),
    "all_empty_cells": ("y,a,b,c\n0,1,2,3\n,,,\n1,2,3,4\n", ["a"], ",", False),
    "empty_cell": ("y,a\n0,1\n3,\n", ["a"], ",", False),
    "empty_unselected_cells": ("y,a,b\n0,,1\n3,,2\n4,na,3\n", ["b"], ",", True),
    "lower_case_tokens": ("y,a\n0,na\n1,null\nNull,2\n", ["a"], ",", True),
    "padded_tokens": ("y,a\n0, NA\n1,NULL \n", ["a"], ",", True),
    "crlf": ("y,a\r\n0,1\r\nNA,2\r\n3,NULL\r\n4,5\r\n", ["a"], ",", True),
    "crlf_empty_cell": ("y,a\r\n0,1\r\n3,\r\n4,5\r\n", ["a"], ",", False),
    "bare_cr": ("y,a\r0,1\r2,3\r", ["a"], ",", False),
    "bare_cr_inside_a_line": ("y,a\n0,1\r2,3\n4,5\n", ["a"], ",", False),
    "bare_cr_one_column": ("y\n0\r2\n3\n", [], ",", False),
    "final_bare_cr": ("y\n0\nNA\r", [], ",", True),
    "no_final_newline": ("y,a\n0,1\n2,NA\n3,4", ["a"], ",", True),
    "token_ends_the_file": ("y,a\n0,1\n3,NA", ["a"], ",", True),
    "empty_last_cell_no_final_newline": ("y,a\n0,1\n3,", ["a"], ",", False),
    "quoted_cell": ('y,a\n0,"1"\n2,3\n', ["a"], ",", False),
    "quoted_delimiter": ('id,y\n"a,b",1\nc,2\n', [], ",", False),
    "quoted_delimiter_right_width": ('y,id,z\n1,"a,b"\n', [], ",", False),
    "quoted_newline": ('y,id\n1,"a\n2,b"\n', [], ",", False),
    "short_and_long_rows": ("y,a,b\n0,1\n2,3,4,5\n", ["a"], ",", False),
    "256_extra_delimiters": ("y,a\n0,1" + "," * 256 + "\n1,2\n", ["a"], ",", False),
    "300_columns": (",".join(f"c{j}" for j in range(299)) + ",y\n"
                    + "1," * 299 + "2\n", [], ",", True),
    "semicolon": ("y;a\n0;NA\n2; 3 \n1;NULL\n", ["a"], ";", True),
    "tab": ("y\ta\n0\tNA\n2\t3\n1\tnan\n4\t 5\n", ["a"], "\t", True),
    "tab_empty_cells": ("y\ta\n0\t\n2\t3\n \tnull\n4\t 5\n", ["a"], "\t", False),
    "non_numeric": ("y,a\n0,1\n1,zork\n", ["a"], ",", False),
    "token_inside_text": ("id,y,a\nbanana,0,1\nNAN A,2,2\nNULL,3,NA\nxNA,4,NULL\n",
                          ["a"], ",", True),
    "token_inside_a_cell": ("y,a\n0,1\n1,xNA\n", ["a"], ",", False),
    "signed_token": ("y,a\n0,1\n1,-NA\n", ["a"], ",", False),
    "underscore_number": ("y,a\n0,1_000\n", ["a"], ",", True),
    "signed_exponent_padded_inf": ("y,a,b\n0,-1.5,+2e3\n1, 3 ,inf\n2,-Infinity,1E-2\n"
                                   "3,\t.5,-0\n", ["a", "b"], ",", True),
    "bad_cells_in_two_columns": ("y,a,b\n0,1,2\n1,2,zork\n2,x,3\n", ["a", "b"], ",",
                                 False),
    "negative_response": ("y,a\n0,NA\n1,1\n-1,2\n", ["a"], ",", True),
    "all_dropped": ("y,a\nNA,1\n2,NULL\n", ["a"], ",", True),
    "header_only": ("y,a\n", ["a"], ",", True),
}


@pytest.mark.parametrize("name", CASES)
def test_irregular_files_match_the_row_parser(tmp_path, name):
    text, covariates, delimiter, taken = CASES[name]
    assert check(write(tmp_path, text), "y", covariates, delimiter) is taken


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbfy,x\n1,2\n0,NA\n")
    assert check(path, "y", ["x"])
    data = load_csv(path, "y", ["x"])
    assert data.column_names == ("y", "x") and data.n == 1


@pytest.mark.parametrize("row_parser", [False, True])
@pytest.mark.parametrize("rows", [0, 5000])
def test_non_utf8_file_is_a_data_error(tmp_path, row_parser, rows):
    # 5000 rows put the Latin-1 byte past what the header read decodes.
    path = tmp_path / "d.csv"
    path.write_bytes(b"id,y\n" + b"a,1\n" * rows + b"caf\xe9,2\n")
    patch = mock.patch.object(datasets, "_field_rows", return_value=None)
    with patch if row_parser else contextlib.nullcontext():
        with pytest.raises(DataError, match=r"d\.csv: not UTF-8 text"):
            load_csv(path, "y")


def test_latin1_cell_exits_2(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_bytes(b"y,x\n1,caf\xe9\n2,3\n")
    code = cli.main(["summarize", "--input", str(path), "--response", "y"])
    err = capsys.readouterr().err
    assert code == 2 and "not UTF-8 text" in err and str(path) in err


# A cell past the csv module's field limit of 131072 bytes, behind a blank
# line that hands the file to the row parser.
BIG_CELL = "y,x\n1,2\n\n2," + "9" * 200001 + "\n"


@pytest.mark.parametrize("command", ["summarize", "fit"])
@pytest.mark.parametrize("input_is", ["directory", "big_cell"])
def test_unreadable_input_exits_2(tmp_path, capsys, command, input_is):
    path = tmp_path if input_is == "directory" else write(tmp_path, BIG_CELL)
    code = cli.main([command, "--input", str(path), "--response", "y"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


def test_load_nmes_big_cell_is_a_data_error(tmp_path):
    header = ",".join((datasets.NMES_RESPONSE, *datasets.NMES_COVARIATES))
    row = "1,0,0,2,6.9,1,1,2.5,0,1,"
    path = write(tmp_path, f"{header}\n{row}0\n\n{row}{'9' * 200001}\n")
    with pytest.raises(DataError, match=r"d\.csv: field larger than field limit"):
        datasets.load_nmes(path)


def test_messy_file_summarizes_as_its_clean_twin(tmp_path, capsys):
    clean = write(tmp_path, "y,x,g\n0,0.5,1\n2,1.5,0\n1,-1,1\n3,2,0\n", "clean.csv")
    messy = tmp_path / "messy.csv"
    messy.write_bytes(b'\xef\xbb\xbfy,x,g\r\n0,0.5,1\r\nNULL,9,1\r\n\r\n'
                      b'2,"1.5",0\r\n,7,0\r\n1,-1,1\r\n3,2,0\r\n')
    outs = []
    for path in (clean, messy):
        code = cli.main(["summarize", "--input", str(path), "--response", "y",
                         "--group-by", "g", "--format", "json"])
        assert code == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0] == outs[1]


# The error of a file whose first line is neither a number nor a missing
# value, with no response named.
HEADER_ROW = "a response column is required: line 1 is a header row, not a count"

COUNT_FILES = {
    # name: (text, counts load_csv reads, or the error it raises)
    "plain": ("3\n0\n1\n", [3, 0, 1]),
    "blank_lines": ("3\n\n0\n\n\n1\n", [3, 0, 1]),
    "padded_lines": (" 3 \n\t0\n1  \n", [3, 0, 1]),
    "no_final_newline": ("3\n0\n1", [3, 0, 1]),
    "crlf": ("3\r\n0\r\n1\r\n", [3, 0, 1]),
    "underscore": ("1_000\n2\n", [1000, 2]),
    "two_numbers_a_line": ("1 2\n3 4\n", HEADER_ROW),
    "comma": ("1,2\n", HEADER_ROW),
    "fraction": ("1\n2.5\n",
                 "row 2: response 'count' value 2.5 is not a non-negative integer"),
    "header": ("y\n1\n2\n", HEADER_ROW),
    "leading_blank_line": ("\n1\n2\n", HEADER_ROW),
    "leading_na": ("NA\n1\n2\n", [1, 2]),
    "leading_null": ("null\n1\n2\n", [1, 2]),
    "byte_order_mark": ("\ufeff4\n5\n", [4, 5]),
}


@pytest.mark.parametrize("name", COUNT_FILES)
def test_count_file(tmp_path, name):
    text, want = COUNT_FILES[name]
    path = write(tmp_path, text, "c.txt")
    check(path, None)
    if isinstance(want, str):
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: {want}"
    else:
        got = load_csv(path).columns["count"]
        assert got.dtype == np.int64 and got.tolist() == want


def test_simulate_writes_one_integer_a_line(tmp_path, capsys):
    # 40000 draws take three write blocks, the last one short
    out = tmp_path / "y.txt"
    assert cli.main(["simulate", "--r", "1", "--p", "0.6", "--n", "40000",
                     "--seed", "11", "--output", str(out)]) == 0
    draws = unb_sample(UnbParams(1.0, 0.6), 40000, 11)
    assert out.read_bytes() == ("\n".join(str(int(v)) for v in draws) + "\n").encode()
    assert load_csv(out).columns["count"].tolist() == draws.tolist()
