#!/usr/bin/env python3
"""Reproduce the published survey-data tables: the covariate means and stdevs of
the survey file in --nmes-dir or $UNB_NMES_DIR, then `unbcount summarize`, `compare`
and `regress` on it.  Exits 2 on a missing cell, else the runs' largest exit code.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from unbcount import cli  # noqa: E402
from unbcount import datasets as ds  # noqa: E402
from unbcount.errors import DataError  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmes-dir", dest="path", type=lambda d: Path(d, ds.NMES_FILENAME),
                    default=ds.nmes_path_from_env(), help="directory of nmes.csv")
    path = ap.parse_args(argv).path
    if path is None:
        ap.error(f"set {ds.NMES_ENV_VAR} or pass --nmes-dir (scripts/fetch_nmes.py)")
    try:
        data = ds.load_nmes(path)
        if data.dropped_rows:  # every table is on the same, complete rows
            row, column = data.dropped_rows[0]
            raise DataError(f"{path}: row {row}: column {column!r} is missing")
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_DATA
    print(f"loaded {data.n} rows\n\n  {'covariate':<10} {'mean':>10} {'stdev':>10}")
    for name, (mean, std) in ds.covariate_summary(data, ds.NMES_COVARIATES).items():
        print(f"  {name:<10} {mean:>10.6g} {std:>10.6g}")
    base = ["--input", str(path), "--response", ds.NMES_RESPONSE]
    cov = ["--covariates", ",".join(ds.NMES_COVARIATES)]
    codes = []
    for run in (["summarize"], ["summarize", "--group-by", "MALE"],
                ["summarize", "--group-by", "POORHLTH"],
                ["compare", "--models", "unb,nb,up"],
                ["regress", *cov, "--models", "up,nb,unb"],
                ["compare", *cov, "--models", "unb,nb,up"]):
        print()
        codes.append(cli.main(run + base))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
