#!/usr/bin/env python3
"""Seeded simulation experiments behind the test-suite thresholds.

Runs three studies and prints their realised numbers:

  coverage : 95% CI coverage of (r, p) over MLE replications
  lr       : size and power of the geometric-submodel deviance test
  vuong    : sign of the regression Vuong statistic on data generated
             from the uniform-negative-binomial model

The defaults mirror the values frozen into tests/; pass --quick for a
fast smoke run.  Stdout depends only on the seeds; the wall time goes to
stderr.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from unbcount import distributions as dist  # noqa: E402
from unbcount import estimation as est  # noqa: E402
from unbcount import regression as reg  # noqa: E402
from unbcount.datasets import Dataset  # noqa: E402


def coverage_study(reps: int, n: int, r: float, p: float, seed0: int) -> int:
    params = dist.UnbParams(r, p)
    hits = 0
    for k in range(reps):
        fit = est.fit_mle(dist.unb_sample(params, n, seed0 + k))
        (rlo, rhi), (plo, phi) = fit.conf_intervals
        hits += (rlo <= r <= rhi) and (plo <= p <= phi)
    return hits


def lr_study(reps: int, n: int, gen, seed0: int, alpha: float = 0.05) -> int:
    rejections = 0
    for k in range(reps):
        res = est.lr_test_geometric(gen(n, seed0 + k))
        rejections += res.p_value < alpha
    return rejections


def vuong_study(reps: int, n: int, seed0: int) -> int:
    positive = 0
    for k in range(reps):
        rng = np.random.default_rng(seed0 + k)
        z = rng.normal(0.0, 1.0, n)
        mu = np.exp(0.2 + 0.4 * z)
        r_true = 0.9
        p = r_true / (2.0 * mu + r_true)
        lam = rng.gamma(r_true, (1.0 - p) / p)
        y = rng.integers(0, rng.poisson(lam) + 1)
        data = Dataset(column_names=("y", "z"),
                       columns={"y": y.astype(float), "z": z}, n=n)
        spec = reg.RegressionSpec(response="y", covariates=("z",))
        f_unb = reg.fit_unb_regression(data, spec)
        f_nb = reg.fit_nb_regression(data, spec)
        v = reg.vuong_test(reg.per_observation_pmf(f_unb, data, spec),
                           reg.per_observation_pmf(f_nb, data, spec))
        positive += v.z > 0
    return positive


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="smaller replication counts")
    args = ap.parse_args()
    reps = 20 if args.quick else 100
    n_cov = 5000 if args.quick else 20000
    n_lr = 2000 if args.quick else 10000

    t0 = time.time()
    hits = coverage_study(reps, n_cov, 3.0, 0.5, seed0=1000)
    print(f"coverage: {hits}/{reps} replications had both true parameters "
          f"inside the 95% CIs (n={n_cov})")

    size = lr_study(reps, n_lr,
                    lambda n, s: dist.unb_sample(dist.UnbParams(2.0, 0.5), n, s),
                    seed0=3000)
    print(f"lr size:  {size}/{reps} rejections at 5% under the geometric null "
          f"(n={n_lr})")

    power = lr_study(reps, n_lr,
                     lambda n, s: dist.unb_sample(dist.UnbParams(6.0, 0.5), n, s),
                     seed0=4000)
    print(f"lr power: {power}/{reps} rejections at 5% under r=6 "
          f"(n={n_lr})")

    vreps = 5 if args.quick else 20
    pos = vuong_study(vreps, 3000, seed0=5000)
    print(f"vuong:    {pos}/{vreps} replications preferred the generating model "
          "(positive z against the negative binomial)")
    print(f"total time {time.time() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
