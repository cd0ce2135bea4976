"""CSV ingestion and descriptive summaries.

Generic delimited files are loaded into an immutable column store; the
survey file used for the published regression comparison (a 4406-person
subsample with a hospital-stays response and ten coded covariates) gets a
dedicated loader that normalises the various circulating exports of that
archive to one canonical column set.  The survey file is not bundled:
``scripts/fetch_nmes.py`` documents how to obtain and convert it, and
every test keyed to it skips with a notice when the ``UNB_NMES_DIR``
environment variable does not point at a prepared copy.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError

__all__ = [
    "Dataset",
    "GroupSummary",
    "load_csv",
    "write_csv",
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
    within 1e-9 of a non-negative integer (non-finite values among them):
    the one count check of the package."""
    values = np.asarray(values, dtype=float)
    ints = np.rint(values)
    with np.errstate(invalid="ignore"):
        return ints, ~(np.abs(values - ints) <= 1e-9) | (ints < 0)


@dataclass(frozen=True)
class Dataset:
    """Immutable column store; all columns share length n."""

    column_names: tuple
    columns: dict
    n: int
    dropped_rows: tuple = field(default_factory=tuple)

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


def _parse_cell(token: str, column: str, line_no: int) -> float:
    token = token.strip()
    if token == "" or token.upper() in ("NA", "NAN", "NULL"):
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise DataError(
            f"line {line_no}: cannot parse {token!r} in column {column!r} as a number"
        ) from None


@contextlib.contextmanager
def _utf8_text(path):
    """``path`` open for the csv module as UTF-8 text, with or without a
    byte-order mark; bytes that are not UTF-8 raise DataError naming it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_csv(path, response: str, covariates=(), delimiter: str = ",") -> Dataset:
    """Load a delimited text file with a header row.

    Only the selected columns (response plus covariates) are parsed and
    stored, and only they are validated: the response must be
    non-negative integers, and rows with missing values in any selected
    column are dropped, each recorded as a (row, column) diagnostic on the
    returned dataset.  Diagnostics and errors number a row by its line in
    the file, the header being line 1.  The file is UTF-8 text, with or
    without a byte-order mark.

    A regular file is read by numpy's reader (:func:`_numpy_rows`); a file
    it declines, such as one with quoted cells, blank lines or ragged rows,
    by a row parser (:func:`_csv_rows`) that gives the same results and
    messages.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with _utf8_text(path) as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        selected = list(dict.fromkeys([response, *covariates]))
        for name in selected:
            if name not in header:
                raise DataError(f"{path}: column {name!r} not found "
                                f"(available: {', '.join(header)})")
        idx = [header.index(name) for name in selected]
        values = _numpy_rows(path, delimiter, len(header), idx)
        if values is None:
            values, lines = _csv_rows(path, reader, selected, idx, len(header))
        else:
            lines = np.arange(2, values.shape[0] + 2)
    missing = np.isnan(values)
    drop = missing.any(axis=1)
    dropped = tuple(zip(lines[drop].tolist(),
                        [selected[j] for j in missing[drop].argmax(axis=1)]))
    keep = ~drop
    lines = lines[keep]
    if not lines.size:
        raise DataError(f"{path}: no usable data rows")
    columns = {name: values[keep, j] for j, name in enumerate(selected)}
    resp = columns[response]
    bad = np.nonzero(_rounded_counts(resp)[1])[0]
    if bad.size:
        raise DataError(
            f"{path}: row {lines[bad[0]]}: response {response!r} value "
            f"{float(resp[bad[0]])} is not a non-negative integer")
    return Dataset(column_names=tuple(selected), columns=columns,
                   n=resp.size, dropped_rows=dropped)


def _csv_rows(path, reader, selected, idx, width):
    """The selected cells of the rows left in ``reader``, NaN where missing,
    and the file line of each row.  Blank rows, and rows whose cells are all
    blank, are skipped."""
    raw = [[] for _ in selected]
    lines = []
    for line_no, row in enumerate(reader, start=2):
        if len(row) == 0 or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != width:
            raise DataError(
                f"{path}: line {line_no}: expected {width} fields, got {len(row)}")
        for col, i, name in zip(raw, idx, selected):
            col.append(_parse_cell(row[i], name, line_no))
        lines.append(line_no)
    values = np.array(raw, dtype=float).T
    return values, np.array(lines, dtype=int)


# Delimiters that numpy's reader splits a row at where csv's does.
_NUMPY_DELIMITERS = frozenset(",;|:\t ")


def _numpy_rows(path, delimiter, width, idx):
    """The selected cells of every data row of the file by numpy's reader,
    NaN where missing, row i being line i + 2 of the file; None for a file
    the reader cannot take exactly as :func:`_csv_rows` does.

    Whole ``NA`` and ``NULL`` fields are spelled ``nan`` on the file's bytes
    first; numpy reads ``nan`` itself.  Declined: a delimiter outside
    ``_NUMPY_DELIMITERS``, quoted cells (csv reads them, numpy does not),
    blank lines (numpy skips them, which shifts the line numbers), rows of
    the wrong width (numpy reads ``usecols`` of a ragged row), more than
    256 columns, and any selected cell it cannot read: among them an empty
    cell, ``NA`` in another case or padded, which the row parser reads as
    missing, and a carriage return inside a line.
    """
    if delimiter not in _NUMPY_DELIMITERS:
        return None
    body = path.read_bytes()
    if b'"' in body or b"\n\n" in body or b"\n\r\n" in body:
        return None
    d = delimiter.encode()
    arr = np.frombuffer(body, np.uint8)
    starts = np.flatnonzero(arr[:-1] == 10) + 1  # data lines; the header is line 1
    # Each line's delimiters, counted in one byte: with the total, that
    # pins every count when width <= 256, without a wider copy of the body.
    # A wider file never matches the one-byte counts.
    if (not starts.size
            or body.count(d) != (starts.size + 1) * (width - 1)
            or np.any(np.add.reduceat(arr == d[0], starts, dtype=np.uint8)
                      != width - 1)):
        return None
    del arr
    # A pattern that begins with a lookbehind costs twenty times as much as
    # one that begins with its literal, so the field's start is checked here
    # (a match at the file's start is in the header, which numpy skips).
    def whole_field(m):
        s, i = m.string, m.start()
        return b"nan" if s[i - 1] in d + b"\n" else m.group()

    body = re.sub(b"N(?:A|ULL)(?=[" + re.escape(d) + b"\r\n]|\\Z)",
                  whole_field, body)
    try:
        return np.loadtxt(io.BytesIO(body), delimiter=delimiter, usecols=idx,
                          comments=None, quotechar=None, skiprows=1, ndmin=2,
                          encoding="utf-8")
    except ValueError:  # a cell it cannot read, or not UTF-8
        return None


def write_csv(dataset: Dataset, path, delimiter: str = ","):
    """Write the dataset back out; round-trips with :func:`load_csv`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(dataset.column_names)
        for i in range(dataset.n):
            writer.writerow([repr(float(dataset.columns[c][i]))
                             for c in dataset.column_names])


def response_counts(dataset: Dataset, name: str) -> np.ndarray:
    if name not in dataset.columns:
        raise DataError(f"column {name!r} not found in dataset")
    ints, bad = _rounded_counts(dataset.columns[name])
    if np.any(bad):
        raise DataError(f"column {name!r} is not a non-negative integer column")
    return ints.astype(np.int64)


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
    values = np.unique(g)
    if not np.all(np.isin(values, (0.0, 1.0))):
        raise DataError(f"group column {group_by!r} must be binary coded (0/1)")
    out = []
    for v in sorted(values, reverse=True):
        mask = g == v
        out.append(_one_summary(f"{group_by}={int(v)}", x[mask]))
    return out


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


def _load_mapping() -> dict:
    override = os.environ.get("UNB_NMES_MAPPING")
    if override:
        with open(override, encoding="utf-8") as fh:
            return json.load(fh)
    with resources.files("unbcount").joinpath("nmes_mapping.json").open(
            encoding="utf-8") as fh:
        return json.load(fh)


def _coerce_numeric(values: list) -> Optional[np.ndarray]:
    out = np.empty(len(values))
    for i, tok in enumerate(values):
        tok = tok.strip().strip('"')
        if tok == "":
            return None
        low = tok.lower()
        if low in ("yes", "true", "male"):
            out[i] = 1.0
        elif low in ("no", "false", "female"):
            out[i] = 0.0
        else:
            try:
                out[i] = float(tok)
            except ValueError:
                return None
    return out


def load_nmes(path) -> Dataset:
    """Load a prepared survey CSV, normalising column names.

    Accepts either the canonical columns (HOSP plus the ten covariates) or
    any export whose raw names appear in the shipped mapping file; factor
    columns from R exports (health status, gender, yes/no indicators) are
    recoded to 0/1.  The file is UTF-8 text, with or without a byte-order
    mark.
    """
    path = Path(path)
    if path.is_dir():
        path = path / NMES_FILENAME
    if not path.exists():
        raise DataError(f"no such file: {path}")
    mapping = _load_mapping()
    with _utf8_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().strip('"') for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) < len(header):
                raise DataError(f"{path}: line {line_no}: expected {len(header)} "
                                f"fields, got {len(row)}")
            rows.append(row)
    raw = {name: [row[i] for row in rows] for i, name in enumerate(header)}

    columns = {}
    canonical = (NMES_RESPONSE, *NMES_COVARIATES)
    for target in canonical:
        spec = mapping["columns"][target]
        found = None
        for cand in spec["candidates"]:
            if cand in raw:
                found = _coerce_numeric(raw[cand])
                if found is not None:
                    break
        if found is None and "derive" in spec:
            src = spec["derive"]["from"]
            if src in raw:
                target_level = spec["derive"]["equals"].lower()
                found = np.array(
                    [1.0 if tok.strip().strip('"').lower() == target_level else 0.0
                     for tok in raw[src]])
        if found is None:
            raise DataError(
                f"cannot locate column {target!r} in {path}; edit the mapping "
                f"file (see scripts/fetch_nmes.py --help)")
        columns[target] = found

    scale = mapping.get("scale", {})
    for name, factor in scale.items():
        if name in columns:
            columns[name] = columns[name] * float(factor)

    n = len(columns[NMES_RESPONSE])
    return Dataset(column_names=canonical, columns=columns, n=n)


def nmes_path_from_env() -> Optional[Path]:
    """Directory with the prepared survey file, from UNB_NMES_DIR."""
    root = os.environ.get(NMES_ENV_VAR)
    if not root:
        return None
    p = Path(root) / NMES_FILENAME
    return p if p.exists() else None
