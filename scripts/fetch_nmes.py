#!/usr/bin/env python3
"""Fetch and prepare the 1987-88 medical expenditure survey subsample.

The file is not redistributed with this package.  It lives in the Journal
of Applied Econometrics 1997 Data Archive (Deb and Trivedi study):

    http://qed.econ.queensu.ca/jae/1997-v12.3/deb-trivedi/
    http://www.econ.queensu.ca/jae/1997-v12.3/deb-trivedi/

This script tries to download the archive, convert it to the canonical
CSV layout (HOSP response plus ten covariate columns, 4406 rows), write
`nmes.csv` plus a SHA-256 checksum into the target directory, and prints
the environment variable to export so the conditional reproduction tests
run.

If the download fails (no network, archive layout changed), prepare the
file manually by either route and re-run with --from-csv:

  R> data("DebTrivedi", package = "pscl")      # or package "MixAll"
  R> write.csv(DebTrivedi, "debtrivedi.csv", row.names = FALSE)

  R> data("NMES1988", package = "AER")
  R> write.csv(NMES1988, "nmes1988.csv", row.names = FALSE)

  $ python scripts/fetch_nmes.py --from-csv debtrivedi.csv --dest data/nmes

The conversion finds each canonical column under the names those
exports give it (the script's EXPORT_COLUMNS table) and recodes their factor
columns (health status, gender, yes/no flags) to 0/1.  The written file is
read back by `unbcount.datasets.load_nmes`, which applies the package's
CSV rules to it.
"""

import argparse
import csv
import hashlib
import io
import sys
import urllib.request
import zipfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from unbcount.datasets import (  # noqa: E402
    NMES_COVARIATES,
    NMES_ENV_VAR,
    NMES_FILENAME,
    NMES_RESPONSE,
    load_nmes,
)
from unbcount.errors import DataError  # noqa: E402

ARCHIVE_URLS = [
    "http://qed.econ.queensu.ca/jae/1997-v12.3/deb-trivedi/dt-data.zip",
    "http://qed.econ.queensu.ca/jae/1997-v12.3/deb-trivedi/dt.zip",
    "http://www.econ.queensu.ca/jae/1997-v12.3/deb-trivedi/dt-data.zip",
]

# The columns of the archive's whitespace-delimited raw file, in order.
RAW_COLUMNS = (
    "ofp", "ofnp", "opp", "opnp", "emr", "hosp", "exclhlth", "poorhlth",
    "numchron", "adldiff", "noreast", "midwest", "west", "age", "black",
    "male", "married", "school", "faminc", "employed", "privins", "medicaid",
)

# Each canonical column: the names an export may give it, in order of
# preference (the raw archive, pscl::DebTrivedi, AER::NMES1988), and for a
# factor column the level that codes 1; any other word in a factor column
# codes 0, and a number is kept as it is.  AGE stays in decades and FAMINC
# in $10,000 units, as in the archive.
EXPORT_COLUMNS = {
    "HOSP": (("HOSP", "hosp", "hospital"), None),
    "EXCELHLTH": (("EXCELHLTH", "EXCLHLTH", "exclhlth", "excelhlth", "health"),
                  "excellent"),
    "POORHLTH": (("POORHLTH", "poorhlth", "health"), "poor"),
    "NUMCHRON": (("NUMCHRON", "numchron", "chronic"), None),
    "AGE": (("AGE", "age"), None),
    "MALE": (("MALE", "male", "gender"), "male"),
    "MARRIED": (("MARRIED", "married"), "yes"),
    "FAMINC": (("FAMINC", "faminc", "income"), None),
    "EMPLOYED": (("EMPLOYED", "employed"), "yes"),
    "PRIVINS": (("PRIVINS", "PRINVINS", "privins", "insurance"), "yes"),
    "MEDICAID": (("MEDICAID", "medicaid"), "yes"),
}


def _download(url: str, timeout: float = 60.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read()


def _raw_to_csv(blob: bytes, dest: Path) -> Path:
    """Convert a whitespace-delimited raw archive file to a named CSV."""
    text = blob.decode("ascii", errors="replace")
    rows = []
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if len(fields) != len(RAW_COLUMNS):
            raise SystemExit(
                f"raw file has {len(fields)} columns per row, expected "
                f"{len(RAW_COLUMNS)}; edit RAW_COLUMNS in this script to "
                f"match the archive README and retry")
        rows.append(fields)
    out = dest / "raw_named.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_COLUMNS)
        writer.writerows(rows)
    return out


def _cell(token: str, level) -> str:
    """An export's cell as canonical text: a factor column's word as 1 for
    its level and 0 otherwise, a number as its integer text or its repr,
    both of which load_csv reads back as the same float, and a missing
    cell, or any other text of a numeric column, as it is, for load_csv to
    drop or reject."""
    token = token.strip()
    try:
        value = float(token)
    except ValueError:
        if level is None or token.upper() in ("", "NA", "NULL"):
            return token
        return "1" if token.lower() == level else "0"
    return str(int(value)) if value.is_integer() else repr(value)


def _canonicalize(source_csv: Path, dest: Path) -> Path:
    """Write the canonical file for the export ``source_csv`` into ``dest``."""
    names = (NMES_RESPONSE, *NMES_COVARIATES)
    with open(source_csv, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        columns = []
        for name in names:
            candidates, level = EXPORT_COLUMNS[name]
            found = next((c for c in candidates if c in header), None)
            if found is None:
                raise SystemExit(
                    f"{source_csv}: no column for {name} (looked for "
                    f"{', '.join(candidates)}; found: {', '.join(header)}); "
                    f"edit EXPORT_COLUMNS in this script")
            columns.append((header.index(found), level))
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise SystemExit(f"{source_csv}: line {line_no}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            rows.append([_cell(row[i], level) for i, level in columns])
    out = dest / NMES_FILENAME
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(rows)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--dest", default="data/nmes",
                    help="directory for the prepared file (default data/nmes)")
    ap.add_argument("--from-csv", dest="from_csv",
                    help="skip the download and convert this CSV export instead")
    args = ap.parse_args()
    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)

    source = None
    if args.from_csv:
        source = Path(args.from_csv)
        if not source.exists():
            raise SystemExit(f"no such file: {source}")
    else:
        for url in ARCHIVE_URLS:
            try:
                print(f"trying {url} ...")
                blob = _download(url)
            except Exception as exc:  # noqa: BLE001 - report and move on
                print(f"  failed: {exc}")
                continue
            if blob[:2] == b"PK":
                with zipfile.ZipFile(io.BytesIO(blob)) as zf:
                    member = next((m for m in zf.namelist()
                                   if m.lower().endswith((".dat", ".asc", ".txt"))),
                                  None)
                    if member is None:
                        print("  no data member found in archive")
                        continue
                    blob = zf.read(member)
            source = _raw_to_csv(blob, dest)
            break
        if source is None:
            print("\ndownload failed. Prepare an export manually (see --help) "
                  "and re-run with --from-csv.", file=sys.stderr)
            return 1

    out = _canonicalize(source, dest)
    try:
        check = load_nmes(out)
    except DataError as exc:
        raise SystemExit(f"the converted file does not load: {exc}") from None
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    (dest / "nmes.sha256").write_text(f"{digest}  {NMES_FILENAME}\n")
    print(f"\nwrote {out} ({check.n} rows)")
    print(f"sha256: {digest}")
    if check.n != 4406:
        print(f"warning: expected 4406 rows, got {check.n}; "
              "the reproduction tests key on the published subsample")
    print(f"\nexport {NMES_ENV_VAR}={dest.resolve()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
