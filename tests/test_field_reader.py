"""The field reader, count files read and written, and the pmfs of
``compare``.

``datasets._field_rows`` reads a CSV body or a count file a block of lines
at a time; the checks here rerun the row-parser agreement checks of
test_ingest.py with blocks of a few bytes, compare count files read by
``load_csv`` with the row parser, and pin the fast paths to the values
``float`` gives.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_ingest as ingest
from unbcount import cli, datasets
from unbcount import estimation as est
from unbcount.distributions import UnbParams, unb_sample
from unbcount.errors import DataError

# Bytes per block small enough that every few lines, and the header, fall
# in blocks of their own.
TINY_BLOCK = 5


@pytest.fixture
def tiny_blocks():
    with mock.patch.object(datasets, "_BLOCK", TINY_BLOCK):
        yield


def test_regular_files_across_block_edges(tiny_blocks):
    ingest.test_field_reader_takes_regular_files()


def test_row_parser_agreement_across_block_edges(tiny_blocks):
    ingest.test_field_reader_agrees_with_the_row_parser()


@pytest.mark.parametrize("name", ingest.CASES)
def test_irregular_files_across_block_edges(tiny_blocks, tmp_path, name):
    ingest.test_irregular_files_match_the_row_parser(tmp_path, name)


@pytest.mark.parametrize("name", ingest.COUNT_FILES)
def test_count_files_across_block_edges(tiny_blocks, tmp_path, name):
    ingest.test_count_file(tmp_path, name)


def test_many_blocks_read_as_one(tmp_path):
    # Blocks end at the line feed at or after _BLOCK bytes: a file of many
    # blocks reads as with one block the size of the file.
    rng = np.random.default_rng(7)
    y = rng.integers(0, 40, 3000)
    x = rng.normal(size=y.size)
    rows = [f"{a},{b!r},NA\r\n" if a % 7 else f"NULL,{b!r},1\r\n"
            for a, b in zip(y.tolist(), x.tolist())]
    body = ("y,x,z\r\n" + "".join(rows)).encode()
    got = {}
    for block in (1 << 12, len(body)):
        with mock.patch.object(datasets, "_BLOCK", block):
            got[block] = datasets._field_rows(body, ",", 3, [0, 1], skip=1)
    many, one = got.values()
    assert many.shape == (y.size, 2) and len(body) > 16 * (1 << 12)
    assert np.array_equal(many, one, equal_nan=True)
    assert np.array_equal(many[:, 0], np.where(y % 7, y, np.nan), equal_nan=True)
    assert np.array_equal(many[:, 1], x)


@st.composite
def decimals(draw):
    """Plain decimals of up to _DIGITS bytes, the fast path's fields."""
    digits = draw(st.text("0123456789", min_size=1, max_size=datasets._DIGITS - 1))
    cut = draw(st.integers(0, len(digits)))
    return draw(st.sampled_from([digits, digits[:cut] + "." + digits[cut:]]))


@settings(max_examples=200, deadline=None)
@given(st.lists(decimals(), min_size=1, max_size=30))
def test_decimal_fields_read_as_float_reads_them(fields):
    # Digit arithmetic takes every such field, and gives float's value.
    chunk = np.frombuffer("".join(fields).encode(), np.uint8)
    length = np.array([len(f) for f in fields])
    start = np.cumsum(length) - length
    values = np.empty(len(fields))
    plain = datasets._decimal_values(chunk, start, length, values)
    assert plain.all() and values.tolist() == [float(f) for f in fields]


def read_counts(path):
    """The file's count column and dropped rows by ``load_csv``, or its
    error message."""
    try:
        data = datasets.load_csv(path)
    except DataError as exc:
        return str(exc)
    return data.columns["count"], data.dropped_rows


def line_loop(path):
    """``read_counts`` by the row parser alone."""
    with mock.patch.object(datasets, "_field_rows", return_value=None):
        return read_counts(path)


LINES = st.one_of(
    st.integers(0, 10 ** 18).map(str),
    st.integers(0, 99).map(lambda v: f" {v}\t"),
    st.sampled_from(["", " ", "1_000", "2.5", "7.0", "-1", "nan", "NA", "1e3",
                     "+4", "x", "0" * 17 + "3"]))


@settings(max_examples=200, deadline=None)
@given(st.lists(LINES, min_size=1, max_size=20), st.sampled_from(["\n", "\r\n"]),
       st.booleans(), st.booleans())
def test_count_file_reader_agrees_with_the_line_loop(lines, newline, bom, final):
    # Digits of any length, padding, underscores, blank lines, CRLF, a
    # byte-order mark and a missing final line feed read as the line loop
    # reads them.
    text = newline.join(lines) + (newline if final else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.txt"
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode())
        got, want = read_counts(path), line_loop(path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got[0].dtype == want[0].dtype == np.int64
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_count_file_reader_takes_simulate_output(tmp_path):
    path = tmp_path / "y.txt"
    path.write_bytes(b"0\n9\n10\n123456789012345\n")
    real, taken = datasets._field_rows, []

    def spy(*args, **kwargs):
        rows = real(*args, **kwargs)
        taken.append(rows is not None)
        return rows

    with mock.patch.object(datasets, "_field_rows", spy):
        got = datasets.load_csv(path).columns["count"]
    assert taken == [True] and got.tolist() == [0, 9, 10, 123456789012345]


def test_count_lines_edge_values(tmp_path):
    values = np.array([0, 9, 10, 99, 100, 10 ** 18 - 1, 10 ** 18, 2 ** 63 - 1, 7],
                      dtype=np.int64)
    path = tmp_path / "c.txt"
    datasets.write_counts(path, values)
    assert path.read_bytes() == "".join(f"{v}\n" for v in values.tolist()).encode()
    datasets.write_counts(path, values[:1])
    assert path.read_bytes() == b"0\n"


@pytest.mark.parametrize("values", [[1, -1], [1.5], [np.nan]])
def test_write_counts_takes_counts_only(tmp_path, values):
    with pytest.raises(DataError, match="^counts must be non-negative integers$"):
        datasets.write_counts(tmp_path / "c.txt", values)


@pytest.mark.parametrize("r, p, seed", [(1.0, 0.6, 1), (0.5, 0.02, 3)])
def test_compare_pmfs_at_distinct_counts(tmp_path, r, p, seed):
    # The marginal per-observation pmfs are each fit's log pmf at the
    # distinct counts, from its last kernel pass, spread to the
    # observations; they agree with the kernel run at every observation at
    # the law's (eta, r), whose round trip through the law's parameters
    # moves eta by a few ulps.  UP's eta is log(lam / 2).
    y = unb_sample(UnbParams(r, p), 3000, seed)
    path = tmp_path / "y.txt"
    datasets.write_counts(path, y)
    config = cli._build_parser().parse_args(
        ["compare", "--input", str(path), "--models", "unb,nb,up,geometric"])
    _, fits, pmfs = cli._fit_models(config, pmfs=True)
    inverse = np.unique(y, return_inverse=True)[1]
    for model, fit, pmf in zip(config.models, fits, pmfs):
        assert np.array_equal(pmf, np.exp(fit.log_pmf)[inverse]), model
        family = est._FAMILIES[model]
        if model == "up":
            eta, shape = np.log(fit.params.lam / 2), None
        else:
            eta, shape = family.eta_of(fit.params)
        lp = family.logpmf_grad(eta, shape, y)[0]
        assert np.max(np.abs(np.log(pmf) - lp)) <= 1e-13, model

