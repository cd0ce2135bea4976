"""CSV and count-file ingestion, the count-file writer, and summaries.

Delimited files, and bare count files (one count a line, no header), are
loaded into an immutable column store.  The survey file used for the
published regression comparison (4406 people, a hospital-stays response,
ten coded covariates) is such a CSV, in one canonical column set, which
its loader reads by the same rules.  It is not bundled:
``scripts/fetch_nmes.py`` documents how to obtain it and converts the
circulating exports of that archive to the canonical file, and every test
keyed to it skips with a notice unless the ``UNB_NMES_DIR`` environment
variable points at a prepared copy.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError

__all__ = [
    "Dataset",
    "GroupSummary",
    "load_csv",
    "write_csv",
    "write_counts",
    "summarize",
    "frequency_table",
    "covariate_summary",
    "response_counts",
    "NMES_RESPONSE",
    "NMES_COVARIATES",
    "NMES_ENV_VAR",
    "load_nmes",
    "nmes_path_from_env",
]

NMES_RESPONSE = "HOSP"
NMES_COVARIATES = ("EXCELHLTH", "POORHLTH", "NUMCHRON", "AGE", "MALE",
                   "MARRIED", "FAMINC", "EMPLOYED", "PRIVINS", "MEDICAID")
NMES_ENV_VAR = "UNB_NMES_DIR"
NMES_FILENAME = "nmes.csv"


def _rounded_counts(values):
    """The values rounded to integers, and the mask of those that are not
    within 1e-9 of an integer in [0, 2**63), the range of int64 (non-finite
    values among them): the one count check of the package.  An integer
    array comes back as it is, checked by sign, and a uint64 one also
    against 2**63; any other array, bools among them, is read as floats."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return values, (values >= 2 ** 63 if values.dtype == np.uint64 else values < 0)
    values = values.astype(float, copy=False)
    ints = np.rint(values)
    with np.errstate(invalid="ignore"):
        return ints, ~(np.abs(values - ints) <= 1e-9) | (ints < 0) | (ints >= 2.0 ** 63)


def _counts(values, what: str) -> np.ndarray:
    """``values`` as int64 counts, by :func:`_rounded_counts`; DataError
    naming ``what`` if any is not a count."""
    ints, bad = _rounded_counts(values)
    if np.any(bad):
        raise DataError(f"{what} must be non-negative integers")
    return ints.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Dataset:
    """Immutable column store; all columns share length n.

    The regression fitters keep the setup of their last (response,
    covariates) spec on the dataset, one design, and every family's fit of
    that spec reuses it while each column it was built from is the same
    object.  After a fit those columns are the setup's own read-only arrays
    in ``columns``, of any dtype passed: its int64 counts and the design's
    float64 columns.  So a write into one raises ValueError, a write through
    an array passed in as a column does not reach the dataset, and a column
    replaced in ``columns`` is read afresh."""

    column_names: tuple
    columns: dict
    n: int
    dropped_rows: tuple = field(default_factory=tuple)
    _regression_setup: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise DataError("dataset must contain at least one row")
        for name in self.column_names:
            col = self.columns[name]
            if len(col) != self.n:
                raise DataError(f"column {name!r} has length {len(col)}, expected {self.n}")


@dataclass(frozen=True)
class GroupSummary:
    group_label: str
    n: int
    max: int
    min: int
    mean: float
    variance: float
    dispersion_index: Optional[float]
    zero_proportion: float


# The tokens of a missing cell, in any case, besides an empty one
_MISSING = ("NA", "NAN", "NULL")


def _cell_value(text: str) -> float:
    """A cell's value, by the one rule of both readers: ``float``'s (`` 3 ``,
    ``1e5``, ``1_000``, ``inf``), else NaN for a ``_MISSING`` token in any
    case and padding; ValueError for any other text, a blank one too."""
    try:
        return float(text)
    except ValueError:
        if text.strip().upper() in _MISSING:
            return math.nan
        raise


def _parse_cell(token: str, column: str, line_no: int, path) -> float:
    token = token.strip()
    if token == "":
        return math.nan
    try:
        return _cell_value(token)
    except ValueError:
        raise DataError(f"{path}: line {line_no}: cannot parse {token!r} "
                        f"in column {column!r} as a number") from None


@contextlib.contextmanager
def _utf8_text(path):
    """``path`` open for the csv module as UTF-8 text, with or without a
    byte-order mark.  A file that cannot be read, bytes that are not UTF-8
    and a row the csv module rejects raise DataError naming it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from None


def load_csv(path, response: Optional[str] = None, covariates=(),
             delimiter: str = ",") -> Dataset:
    """Load a delimited text file with a header row, or a bare count file:
    one whose first line :func:`_cell_value` reads, a number or a missing
    value (dropped as any such row), one count a line and no header, as
    :func:`write_counts` writes it, whose one column is named
    ``response``, or ``"count"`` if that is None.

    Only the selected columns (response plus covariates) are parsed and
    stored, and only they are validated: the response must be
    non-negative integers and is stored as int64 counts, the covariates as
    floats, and rows with missing values in any selected column are
    dropped, each recorded as a (row, column) diagnostic on the returned
    dataset.  Diagnostics and errors number a row by its line in the file.
    The file is UTF-8 text, with or without a byte-order mark.

    The rows are read by a field reader, or, for a file it declines, such
    as one with quoted cells, blank lines or ragged rows, by a row parser
    that gives the same results and messages: both read a cell by
    :func:`_cell_value`, an empty one as missing, and any other as an error.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with _utf8_text(path) as fh:
        first = fh.readline()
        if not first:
            raise DataError(f"{path}: file is empty, expected a header row")
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            _cell_value(first)  # a missing-value token is a data line too
        except ValueError:
            header = [h.strip() for h in next(reader)]
            if len(set(header)) != len(header):
                raise DataError(f"{path}: duplicate column names in header")
            if response is None:
                raise DataError(f"{path}: a response column is required: "
                                "line 1 is a header row, not a count")
            skip = 1
        else:
            response = "count" if response is None else response
            header, skip = [response], 0
        selected = list(dict.fromkeys([response, *covariates]))
        for name in selected:
            if name not in header:
                raise DataError(f"{path}: column {name!r} not found "
                                f"(available: {', '.join(header)})")
        idx = [header.index(name) for name in selected]
        values = _field_rows(path.read_bytes().removeprefix(codecs.BOM_UTF8),
                             delimiter, len(header), idx, skip)
        if values is None:
            values, lines = _csv_rows(path, reader, selected, idx, len(header),
                                      skip + 1)
        else:
            # Consecutive lines: a range, not one more array of every row
            lines = range(skip + 1, len(values) + skip + 1)
    missing = np.isnan(values)
    drop = missing.any(axis=1)
    dropped = tuple((lines[i], selected[j]) for i, j in zip(
        np.flatnonzero(drop).tolist(), missing[drop].argmax(axis=1).tolist()))
    # Rows are copied only when some are dropped
    keep = ~drop if dropped else slice(None)
    columns = {name: values[keep, j] for j, name in enumerate(selected)}
    resp = columns[response]
    if not resp.size:
        raise DataError(f"{path}: no usable data rows")
    ints, bad = _rounded_counts(resp)
    bad = np.flatnonzero(bad)
    if bad.size:
        row = lines[np.flatnonzero(~drop)[bad[0]]]
        raise DataError(f"{path}: row {row}: response {response!r} value "
                        f"{float(resp[bad[0]])} is not a non-negative integer")
    columns[response] = ints.astype(np.int64)
    return Dataset(column_names=tuple(selected), columns=columns,
                   n=resp.size, dropped_rows=dropped)


def _csv_rows(path, reader, selected, idx, width, first):
    """The selected cells of the rows left in ``reader``, NaN where missing,
    and the list of each row's file line, the first being line ``first``.
    Blank rows, and rows whose cells are all blank, are skipped."""
    raw = [[] for _ in selected]
    lines = []
    for line_no, row in enumerate(reader, start=first):
        if len(row) == 0 or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != width:
            raise DataError(
                f"{path}: line {line_no}: expected {width} fields, got {len(row)}")
        for col, i, name in zip(raw, idx, selected):
            col.append(_parse_cell(row[i], name, line_no, path))
        lines.append(line_no)
    return np.array(raw, dtype=float).T, lines


# Bytes per block of the field reader: every array it makes but its result
# is bounded by a multiple of this, whatever the size of the file.
_BLOCK = 1 << 17
# A field of at most this many bytes, digits and a decimal point, is read
# by digit arithmetic: its digits are below 2**53, exact in a float.
_DIGITS = 15
# 1, 10, ..., 10**18: a non-negative int64 has one digit more than the
# number of these after the first at or below it.
_TENS = 10 ** np.arange(19, dtype=np.int64)
# Counts formatted per write by write_counts: the text of every count at
# once would be the largest allocation of a large write.
_WRITE_BLOCK = 1 << 14


def _field_rows(body, delimiter, width, idx, skip):
    """The fields ``idx`` of each line of ``body`` after the first ``skip``,
    as floats, NaN for a missing value; None for a body this reader cannot
    take exactly as the row parser does.

    Lines are cut at their delimiters, a block of whole lines at a time,
    and each selected field is read by its byte offsets: up to ``_DIGITS``
    bytes of ASCII digits, with at most one decimal point, by digit
    arithmetic, a whole ``NA`` or ``NULL`` field by a byte comparison, and
    any other by the row parser's rule, :func:`_cell_value`.  Declined: a
    delimiter that is not one ASCII byte, or is a quote or a line break,
    bytes that are not UTF-8, quotes, a carriage return other than before a
    line feed or at the end, lines of another width than ``width`` (blank
    lines among them, when ``width`` > 1), an empty or blank selected field
    (the row parser skips a row whose cells are all blank, and this reader
    sees only the selected ones) and any field that rule rejects, so that
    the row parser names the first bad line.
    """
    if not delimiter.isascii() or delimiter in '"\r\n' or b'"' in body:
        return None
    if not body.isascii():
        try:
            body.decode("utf-8")
        except UnicodeDecodeError:
            return None
    if not body.endswith(b"\n"):
        body += b"\n"
    if b"\r" in body and body.count(b"\r") != body.count(b"\r\n"):
        return None
    cuts = [0]
    for _ in range(skip):
        cuts[0] = body.find(b"\n", cuts[0]) + 1
    while cuts[-1] < len(body):
        cuts.append(body.find(b"\n", min(cuts[-1] + _BLOCK, len(body)) - 1) + 1)
    chunks = [np.frombuffer(body, np.uint8, end - pos, pos)
              for pos, end in zip(cuts, cuts[1:])]
    lines = [np.count_nonzero(chunk == 10) for chunk in chunks]
    out = np.empty((len(idx), sum(lines)))
    row = 0
    for chunk, n in zip(chunks, lines):
        if not _block_fields(chunk, n, delimiter, width, idx, out[:, row:row + n]):
            return None
        row += n
    return out.T


def _block_fields(chunk, n, delimiter, width, idx, out):
    """Fill row j of ``out`` with field ``idx[j]`` of each of the ``n`` lines
    of ``chunk``, which ends with a line feed; False for a block
    :func:`_field_rows` declines."""
    line_feed = chunk == 10
    sep = np.flatnonzero(line_feed | (chunk == ord(delimiter)))
    # With n * width separators, every width-th one a line feed, every line
    # has width - 1 delimiters.
    if sep.size != n * width:
        return False
    sep = sep.reshape(n, width)
    if not line_feed[sep[:, -1]].all():
        return False
    for j, i in enumerate(idx):
        start = sep[:, i - 1] + 1 if i else np.r_[0, sep[:-1, -1] + 1]
        stop = sep[:, i]
        if i == width - 1:
            stop = stop - (chunk[stop - 1] == 13)
        length = stop - start
        if not length.all():
            return False
        col = out[j]
        rest = np.flatnonzero(~_decimal_values(chunk, start, length, col))
        if not rest.size:
            continue
        missing = (_is_token(chunk, start[rest], length[rest], b"NA")
                   | _is_token(chunk, start[rest], length[rest], b"NULL"))
        col[rest[missing]] = np.nan
        rest = rest[~missing]
        if rest.size:
            text = chunk.tobytes()
            try:
                col[rest] = [_cell_value(text[a:a + m].decode()) for a, m in
                             zip(start[rest].tolist(), length[rest].tolist())]
            except ValueError:  # a field the row parser rejects, or blank
                return False
    return True


def _decimal_values(chunk, start, length, out):
    """Write to ``out`` the value of each field of at most ``_DIGITS``
    bytes, ASCII digits with at most one decimal point among them, and
    return the mask of those fields.  The digits as an integer below 2**53
    over a power of ten up to 10**14, both exact in a float, give the
    correctly rounded quotient: float's value."""
    byte = chunk[start]
    digit = byte - np.uint8(48)
    point = byte == 46
    plain = ((digit <= 9) | (point & (length > 1))) & (length <= _DIGITS)
    value = digit.astype(np.int64)
    value[point] = 0
    scale = np.zeros(start.size, np.int8)
    # The fields' bytes after the first, a position at a time.
    live = np.flatnonzero(plain & (length > 1))
    for k in range(1, _DIGITS):
        if not live.size:
            break
        byte = chunk[start[live] + k]
        digit = byte - np.uint8(48)
        is_digit = digit <= 9
        is_point = (byte == 46) & ~point[live]
        good = is_digit | is_point
        plain[live[~good]] = False
        value[live] = np.where(is_digit, value[live] * 10 + digit, value[live])
        scale[live] += is_digit & point[live]
        point[live] |= is_point
        live = live[good & (length[live] > k + 1)]
    out[:] = value
    frac = np.flatnonzero(scale)
    out[frac] /= _TENS[scale[frac]]
    return plain


def _is_token(chunk, start, length, token):
    """The mask of the fields that are ``token``."""
    hit = length == len(token)
    for k, byte in enumerate(token):
        hit &= chunk[np.where(hit, start + k, 0)] == byte
    return hit


def write_counts(path, values):
    """Write the counts ``values`` to ``path`` in decimal, one a line: a
    bare count file, which :func:`load_csv` reads back."""
    values = _counts(values, "counts")
    with open(path, "wb") as fh:
        for i in range(0, values.size, _WRITE_BLOCK):
            block = values[i:i + _WRITE_BLOCK]
            ends = np.cumsum(np.searchsorted(_TENS[1:], block, side="right") + 2)
            text = np.full(ends[-1], ord("\n"), np.uint8)
            # Digits from the last, while any count has digits left
            pos, rest = ends - 2, block
            while pos.size:
                text[pos] = ord("0") + rest % 10
                pos, rest = pos - 1, rest // 10
                left = rest > 0
                pos, rest = pos[left], rest[left]
            fh.write(text.tobytes())


def write_csv(dataset: Dataset, path, delimiter: str = ","):
    """Write the dataset back out; round-trips with :func:`load_csv`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(dataset.column_names)
        for i in range(dataset.n):
            writer.writerow([repr(float(dataset.columns[c][i]))
                             for c in dataset.column_names])


def response_counts(dataset: Dataset, name: str) -> np.ndarray:
    """Column ``name`` as int64 counts, the column itself if it holds them."""
    if name not in dataset.columns:
        raise DataError(f"column {name!r} not found in dataset")
    return _counts(dataset.columns[name], f"column {name!r}")


def _moments(x: np.ndarray) -> tuple:
    """Mean, ddof-1 variance (0 for n = 1), dispersion index and zero share."""
    mean = float(np.mean(x))
    var = float(np.var(x, ddof=1)) if x.size > 1 else 0.0
    disp = var / mean if mean > 0 else None
    return mean, var, disp, float(np.mean(x == 0))


def _one_summary(label: str, x: np.ndarray) -> GroupSummary:
    mean, var, disp, zero = _moments(x)
    return GroupSummary(group_label=label, n=x.size, max=int(np.max(x)),
                        min=int(np.min(x)), mean=mean, variance=var,
                        dispersion_index=disp, zero_proportion=zero)


def summarize(dataset: Dataset, response: str,
              group_by: Optional[str] = None) -> list:
    """Overall or per-group descriptive summaries of a count response.

    The grouping column must be binary coded (values 0/1); groups are
    reported 1 first.
    """
    x = response_counts(dataset, response)
    if group_by is None:
        return [_one_summary("all", x)]
    if group_by not in dataset.columns:
        raise DataError(f"column {group_by!r} not found in dataset")
    g = dataset.columns[group_by]
    ones, zeros = g == 1.0, g == 0.0
    if not np.all(ones | zeros):
        raise DataError(f"group column {group_by!r} must be binary coded (0/1)")
    return [_one_summary(f"{group_by}={v}", x[mask])
            for v, mask in ((1, ones), (0, zeros)) if mask.any()]


def frequency_table(dataset: Dataset, response: str) -> list:
    """(value, count, relative frequency) rows for each observed count."""
    x = response_counts(dataset, response)
    values, counts = np.unique(x, return_counts=True)
    n = x.size
    return [(int(v), int(c), c / n) for v, c in zip(values, counts)]


def covariate_summary(dataset: Dataset, covariates) -> dict:
    """Sample mean and standard deviation per covariate column."""
    out = {}
    for name in covariates:
        if name not in dataset.columns:
            raise DataError(f"column {name!r} not found in dataset")
        col = dataset.columns[name]
        std = float(np.std(col, ddof=1)) if col.size > 1 else 0.0
        out[name] = (float(np.mean(col)), std)
    return out


# ---------------------------------------------------------------------------
# Survey-file support


def load_nmes(path) -> Dataset:
    """Load the prepared survey file ``path``, or ``NMES_FILENAME`` in the
    directory ``path``: a CSV with the canonical columns, read by
    :func:`load_csv` with ``HOSP`` as the response and the ten covariates,
    under its rules: ``HOSP`` is int64 counts, rows with a missing cell are
    dropped and recorded, and errors name the line.  An export of the
    archive in other names or factor codes is converted to this file by
    ``scripts/fetch_nmes.py``.
    """
    path = Path(path)
    if path.is_dir():
        path = path / NMES_FILENAME
    return load_csv(path, NMES_RESPONSE, NMES_COVARIATES)


def nmes_path_from_env() -> Optional[Path]:
    """The prepared survey file ``NMES_FILENAME`` in the directory UNB_NMES_DIR
    names, whether or not it is there (a reader then names the missing
    file), or None when the variable is unset or empty."""
    root = os.environ.get(NMES_ENV_VAR)
    return Path(root) / NMES_FILENAME if root else None
