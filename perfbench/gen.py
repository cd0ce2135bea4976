"""Seeded input generators for the three benchmark workloads.

Every input is drawn with numpy and written to disk before the timed
process starts; the program under test only ever sees the files.  The
``cli_batch`` inputs follow ``--seed``; the ``marginal_grid`` and
``nmes_regress`` inputs come from fixed panels, for the reasons given
below.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# marginal_grid cells: (name, r, p, n, extra counts appended to each sample).
# q = 1 - p <= 0.75 takes the kernel's series route, q > 0.75 its recurrence
# route.  Every draw comes from the fixed PANEL_SEED, not --seed, because
# the cost of one draw's fit varies up to tenfold with the draw.  Near the
# recurrence kernel's cancellation (the ROADMAP's first open item) a draw
# with a count far above the rest sends the fit on to Nelder-Mead at 5-10
# times the cost of its neighbours.  On the series route the fit of one
# draw took 0.05 s to 0.5 s (its iteration count): with seeded series
# draws, 4 per cell, the ten-seed spread of the series ops' share of a
# pass was 0.35 against 0.09 for the panel ops of the same runs, and
# ops_per_s spread 0.20.  A fixed panel keeps the work of a pass the same
# in every run.  In it, recur_r1_p0.05-d0 (max 141) ends in Nelder-Mead and
# converges; the other draws converge under L-BFGS-B.
SERIES_CELLS = (
    ("series_r0.5_p0.3", 0.5, 0.3, 20_000),
    ("series_r2_p0.5", 2.0, 0.5, 20_000),
    ("series_r5_p0.7", 5.0, 0.7, 20_000),
    ("series_r20_p0.6", 20.0, 0.6, 20_000),
)
RECURRENCE_CELLS = (
    ("recur_r0.9_p0.1", 0.9, 0.1, 20_000),
    ("recur_r1.5_p0.2", 1.5, 0.2, 20_000),
    ("recur_r3_p0.15", 3.0, 0.15, 20_000),
    ("recur_r1_p0.05", 1.0, 0.05, 20_000),
)
PANEL_SEED = 7
# ROADMAP's failing case, drawn exactly as there: unb_sample(UnbParams(1.5,
# 0.2), 2000, seed=7) plus one count of 200.  The fit ends in Nelder-Mead
# with converged=False and loglik -4509.35 where the true value is -4515.48.
CONTAMINATED = ("contaminated_r1.5_p0.2", 1.5, 0.2, 2_000, 200, 7)
# A natural draw of that lone-outlier shape, found among seeded recurrence
# draws (seed 34): UNB(0.9, 0.1), n = 20 000, whose largest count 109
# stands alone (next 66).  Its fit runs L-BFGS-B three times, ends in Nelder-Mead and
# converges, at about 0.9 s against 0.1 s for the cell's other draws.
OUTLIER = ("outlier_r0.9_p0.1", 0.9, 0.1, 20_000, (34, 1, 4, 0))
# Draws per cell: more on the series route, whose fits vary most in cost.
SERIES_DRAWS = 4
RECURRENCE_DRAWS = 2

# NMES-shaped regression (Deb & Trivedi 1997 subsample shape).  The
# datasets come from PANEL_SEED, not --seed: the cost of one op varied 2x
# between seeded datasets (1.9 s to 3.9 s, the UNB fit's iteration count),
# which no affordable number of datasets per run averaged below the
# run-to-run bounds.  Of panel datasets 0-5, the UP fit of 1 and 2 stops on
# L-BFGS-B's ftol test with a gradient norm of 1.6e-6 and 1.1e-6, above the
# 1e-6 gate (converged=False, values correct); every fit of the others
# converges.  The timed pass holds 0 and 4, the two with the widest margin
# (largest gradient norm 5.9e-7 and 4.0e-7); dataset 1 is a known-defect
# probe (KNOWN_DEFECTS).
NMES_ROWS = 4406
NMES_PANEL = (0, 4)
NMES_PROBE = 1
NMES_LABELS = {f"dataset{i}": i for i in NMES_PANEL + (NMES_PROBE,)}

# Ops that fail at the parent of the benchmark because of a known defect of
# the program.  They are left out of the timed loop and out of ``correct``
# and ``failed``, which cover only ops that should succeed, and are run once
# per run apart from it, checked by the oracle and reported by name, so the
# defect shows in every run and its fix shows as a change.
KNOWN_DEFECTS = {
    "marginal_grid": {
        CONTAMINATED[0]: "recurrence-kernel cancellation near x = 200 at "
                         "q = 0.8: ends in Nelder-Mead, converged=False, "
                         "loglik off by 6 nats",
    },
    "nmes_regress": {
        f"dataset{NMES_PROBE}": "UP regression stops at gradient norm 1.6e-6, "
                                "above the 1e-6 gate: converged=False",
    },
    "cli_batch": {
        "fit_nb_probe": "NB MLE on 200k UNB(1, 0.6) counts stops unconverged "
                        "on some draws: converged=False, exit code 3",
    },
}

RESPONSE = "HOSP"
COVARIATES = ("EXCELHLTH", "POORHLTH", "NUMCHRON", "AGE", "MALE",
              "MARRIED", "FAMINC", "EMPLOYED", "PRIVINS", "MEDICAID")
# Slopes of the log-link mean; the intercept is set so the mean is TARGET_MEAN.
SLOPES = np.array([-0.5, 0.6, 0.25, 0.05, 0.1, 0.05, 0.005, -0.05, 0.15, 0.2])
TARGET_MEAN = 0.3
TRUE_R = 1.2

# 100k rows, not 200k: an op then takes 1-2 s, so a run holds six passes
# and each op's median over them.  The build machine switches for seconds
# at a time between two speeds about 40% apart; with three passes of 200k
# rows the ten-seed spread of ops_per_s was 0.18, with six of 100k 0.06.
# Parse cost is linear in rows.
CSV_ROWS = 100_000
CSV_NA_SHARE = 0.005
# The simulate op's seed is fixed.  The next op fits the simulated counts,
# and its NB fit stops unconverged for some seeds (simulate seed 809 among
# about 80 tried; 4 of 80 draws of the same law made here), so the op
# failed or not by --seed.  That defect is the workload's known-defect
# probe instead: a fit of a fixed draw of the same law (NB_PROBE_STREAM) on
# which it shows.
SIM_ARGS = {"r": 1.0, "p": 0.6, "n": 200_000, "seed": PANEL_SEED}
NB_PROBE_STREAM = (PANEL_SEED, 4, 25)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def unb_draws(rng: np.random.Generator, r: float, p, n: int) -> np.ndarray:
    """UNB variates: N ~ NB(r, p) as a gamma-Poisson mixture, X ~ U{0..N}."""
    q = 1.0 - np.asarray(p, dtype=float)
    lam = rng.gamma(shape=r, scale=q / (1.0 - q), size=n)
    latent = rng.poisson(lam)
    return rng.integers(0, latent + 1)


def marginal_samples() -> dict:
    """label -> sample: SERIES_DRAWS draws of every series cell and
    RECURRENCE_DRAWS of every recurrence cell, then the lone-outlier draw
    and the contaminated sample."""
    out = {}
    for d in range(max(SERIES_DRAWS, RECURRENCE_DRAWS)):
        for i, (name, r, p, n) in enumerate(SERIES_CELLS + RECURRENCE_CELLS):
            series = i < len(SERIES_CELLS)
            if d < (SERIES_DRAWS if series else RECURRENCE_DRAWS):
                out[f"{name}-d{d}"] = unb_draws(_rng(PANEL_SEED, 1, i, d), r, p, n)
    name, r, p, n, stream = OUTLIER
    out[name] = unb_draws(_rng(*stream), r, p, n)
    name, r, p, n, extra, fixed = CONTAMINATED
    out[name] = np.append(unb_draws(np.random.default_rng(fixed), r, p, n), extra)
    return out


def nmes_design(rng: np.random.Generator, n: int) -> np.ndarray:
    """n x 10 covariates in NMES_COVARIATES order with survey-like marginals."""
    health = rng.random(n)
    excel = (health < 0.08).astype(float)
    poor = (health > 0.87).astype(float)
    numchron = np.minimum(rng.poisson(1.5, n), 8).astype(float)
    age = np.round(rng.uniform(6.6, 10.9, n), 1)
    male = (rng.random(n) < 0.40).astype(float)
    married = (rng.random(n) < 0.55).astype(float)
    faminc = np.round(rng.gamma(2.0, 1.25, n), 4)
    employed = (rng.random(n) < 0.10).astype(float)
    privins = (rng.random(n) < 0.78).astype(float)
    medicaid = ((rng.random(n) < 0.09) & (privins == 0.0)
                | (rng.random(n) < 0.02)).astype(float)
    return np.column_stack([excel, poor, numchron, age, male, married,
                            faminc, employed, privins, medicaid])


def nmes_response(rng: np.random.Generator, covs: np.ndarray) -> np.ndarray:
    lin = covs @ SLOPES
    intercept = np.log(TARGET_MEAN) - np.log(np.mean(np.exp(lin)))
    mu = np.exp(intercept + lin)
    p = TRUE_R / (2.0 * mu + TRUE_R)
    return unb_draws(rng, TRUE_R, p, covs.shape[0])


def nmes_dataset(index: int, n: int = NMES_ROWS):
    rng = _rng(PANEL_SEED, 2, index)
    covs = nmes_design(rng, n)
    return covs, nmes_response(rng, covs)


def cli_table(seed: int, n: int = CSV_ROWS):
    """(covariates, response with NaN for NA cells) of the CLI CSV."""
    rng = _rng(seed, 3)
    covs = nmes_design(rng, n)
    y = nmes_response(rng, covs).astype(float)
    y[rng.random(n) < CSV_NA_SHARE] = np.nan
    return covs, y


def nb_probe_counts() -> np.ndarray:
    sim = SIM_ARGS
    return unb_draws(_rng(*NB_PROBE_STREAM), sim["r"], sim["p"], sim["n"])


def _csv_bytes(covs: np.ndarray, y: np.ndarray) -> bytes:
    def text(col, as_int):
        if as_int:
            return col.astype(np.int64).astype(str).tolist()
        return [repr(float(v)) for v in col]

    ycol = ["NA" if v != v else str(int(v)) for v in y]
    cols = [ycol] + [text(covs[:, j], COVARIATES[j] not in ("AGE", "FAMINC"))
                     for j in range(covs.shape[1])]
    lines = [",".join((RESPONSE,) + COVARIATES)]
    lines.extend(",".join(row) for row in zip(*cols))
    return ("\n".join(lines) + "\n").encode()


def write_inputs(workload: str, seed: int, dest: Path) -> dict:
    """Write the workload's inputs under ``dest``; return a manifest."""
    dest.mkdir(parents=True, exist_ok=True)
    if workload == "marginal_grid":
        arrays = marginal_samples()
    elif workload == "nmes_regress":
        arrays = {}
        for i in NMES_LABELS.values():
            arrays[f"covs{i}"], arrays[f"y{i}"] = nmes_dataset(i)
    elif workload == "cli_batch":
        arrays = {}
        (dest / "table.csv").write_bytes(_csv_bytes(*cli_table(seed)))
        (dest / "nb_probe.txt").write_text(
            "".join(f"{v}\n" for v in nb_probe_counts().tolist()))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    files = {}
    for name, arr in arrays.items():
        # .npy rather than .npz: zip members carry the wall-clock time.
        np.save(dest / f"{name}.npy", arr)
        files[name] = f"{name}.npy"
    if workload == "cli_batch":
        files.update(csv="table.csv", nb_probe="nb_probe.txt")
    digests = {k: hashlib.sha256((dest / v).read_bytes()).hexdigest()
               for k, v in files.items()}
    manifest = {"workload": workload, "seed": seed, "files": files,
                "sha256": digests}
    (dest / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest
