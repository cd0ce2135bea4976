#!/usr/bin/env python3
"""Record a benchmark trajectory point: BENCH_<n>.json at the repo root.

Runs ``perfbench/run.py --trace 0`` unchanged, RUNS times on each of the
three workloads for SECONDS at SEED, the workloads in alternation, and
writes

  machine    the facts of the run's ``machine:`` line;
  seed, seconds, runs and commit (git HEAD);
  workloads  per workload, the median and quartiles of each gated metric
             over the runs, with the runs' values, and whether every run
             was correct with no failed op;
  checksums  the log-likelihoods of ``fit_mle`` on the 26
             ``gen.marginal_samples()`` and of the UNB, NB and UP
             regressions on ``gen.nmes_dataset(0..5)``, through the public
             API.

tests/test_bench_checksums.py recomputes the checksums of the latest file
and fails on a move above CHECKSUM_RTOL.  It refuses to run while src/,
scripts/ or perfbench/ differ from the commit, so that the file's metrics
are that commit's.  Usage:

    python scripts/bench_record.py --number 29
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import unbcount  # noqa: E402

WORKLOADS = ("marginal_grid", "nmes_regress", "cli_batch")
GATED = ("setup_s", "ops_per_s_cal", "op_p50_s_cal", "peak_rss_mb")
# Every trajectory point is recorded under these, so that points compare.
SEED, SECONDS, RUNS = 1, 10.0, 5
# A log-likelihood that moves by more than this is a change of behaviour,
# not of speed.
CHECKSUM_RTOL = 1e-9
REGRESSIONS = {"unb": unbcount.fit_unb_regression, "nb": unbcount.fit_nb_regression,
               "up": unbcount.fit_up_regression}


def checksums() -> dict:
    """name -> log-likelihood of every seeded fit the file records."""
    out = {f"fit_mle/{label}": unbcount.fit_mle(sample).log_likelihood
           for label, sample in gen.marginal_samples().items()}
    spec = unbcount.RegressionSpec("y", gen.COVARIATES)
    for index in range(6):
        covs, y = gen.nmes_dataset(index)
        columns = {"y": np.asarray(y, dtype=float),
                   **{c: covs[:, j] for j, c in enumerate(gen.COVARIATES)}}
        data = unbcount.Dataset(column_names=tuple(columns), columns=columns, n=len(y))
        for model, fit in REGRESSIONS.items():
            out[f"regress_{model}/dataset{index}"] = fit(data, spec).log_likelihood
    return out


def moved(recorded: dict, now: dict, rtol: float = CHECKSUM_RTOL) -> dict:
    """name -> (recorded, now) for every checksum that is missing on either
    side or differs by more than rtol relative."""
    return {k: (recorded.get(k), now.get(k)) for k in recorded.keys() | now.keys()
            if k not in recorded or k not in now
            or abs(now[k] - recorded[k]) > rtol * abs(recorded[k])}


def bench_run(workload: str) -> tuple:
    """(machine facts, final JSON object) of one run.py run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    facts = next(json.loads(line[len("machine: "):]) for line in lines
                 if line.startswith("machine: "))
    return facts, json.loads(lines[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "runs": [float(v) for v in values]}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", required=True, type=int, help="writes BENCH_<number>.json")
    args = parser.parse_args(argv)
    if git("status", "--porcelain", "--", "src", "scripts", "perfbench"):
        parser.error("src/, scripts/ or perfbench/ differ from HEAD: commit them first")
    results = {w: [] for w in WORKLOADS}
    facts = None
    for _ in range(RUNS):
        for workload in WORKLOADS:
            facts, final = bench_run(workload)
            results[workload].append(final)
            print(workload, json.dumps(final), file=sys.stderr)
    record = {
        "machine": facts, "seed": SEED, "seconds": SECONDS, "runs": RUNS,
        "commit": git("rev-parse", "HEAD"),
        "workloads": {w: {"correct": all(f["correct"] and not f["failed"] for f in finals),
                          **{m: quartiles([f["metrics"][m]["value"] for f in finals])
                             for m in GATED}}
                      for w, finals in results.items()},
        "checksums": checksums(),
    }
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
