"""The command line end to end on files under tmp_path: through cli.main,
and in fresh ``python -m unbcount.cli`` processes for the import surface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unbcount
from unbcount import cli
from unbcount.distributions import UnbParams, unb_sample


def run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    return (code, *capsys.readouterr())


def simulated(path, capsys, r, p, n, seed):
    argv = ["simulate", "--r", r, "--p", p, "--n", n, "--seed", seed, "--output", path]
    assert run(argv, capsys)[0] == cli.EXIT_OK
    return np.loadtxt(path, dtype=np.int64)


def write_table(path, y, x, ids=()):
    rows = [",".join([str(a), repr(float(b)), *c]) for a, b, *c in zip(y, x, *ids)]
    path.write_text(",".join(["y", "x", *("id" for _ in ids)]) + "\n" + "\n".join(rows) + "\n")


def test_count_file_twin_with_crlf_and_a_blank_line_fits_alike(tmp_path, capsys):
    # The twin is read by the CSV row parser, not the field reader.
    plain, twin = tmp_path / "y.txt", tmp_path / "y_crlf.txt"
    simulated(plain, capsys, 2, 0.5, 2000, 1)
    rows = plain.read_text().splitlines()
    rows[5:5] = [""]
    twin.write_bytes(("\r\n".join(rows) + "\r\n").encode())
    fits = [run(["fit", "--input", path, "--models", "unb,nb,up,geometric",
                 "--format", "json"], capsys) for path in (plain, twin)]
    assert fits[0] == fits[1] and fits[0][0] == cli.EXIT_OK
    assert run(["compare", "--input", plain, "--models", "unb,nb,up"], capsys)[0] == 0


# (y, x, g) rows, one of them an NA response, which is dropped.
TABLE = "y,x,g\n" + "\n".join("""
0,0.2,1 1,-0.5,0 0,-0.4,0 2,-2.4,1 0,1.8,1 0,1.1,1 0,-0.3,0 0,0.8,1
NA,0.5,1 3,0.3,1 0,-0.6,1 0,1.0,0 0,-0.3,0 5,-0.3,1 1,-0.8,1 0,0.5,1
1,-0.1,1 2,0.5,0 3,-0.6,1 1,0.1,0 0,-0.9,0 0,0.8,0 1,0.2,1 1,0.3,0 6,0.4,1
1,-1.0,0 1,0.8,1 11,2.1,0 5,-1.6,0 1,-1.7,0 1,-1.5,1""".split()) + "\n"


def test_small_table_and_its_hash_delimited_twin(tmp_path, capsys):
    table, hashed = tmp_path / "table.csv", tmp_path / "table_hash.csv"
    table.write_text(TABLE)
    hashed.write_text(TABLE.replace(",", "#"))
    models = ["--covariates", "x", "--models", "unb,nb,up"]
    for argv in (["summarize", "--group-by", "g"], ["regress", *models], ["compare", *models]):
        assert run([*argv, "--input", table, "--response", "y"], capsys)[0] == cli.EXIT_OK
    clean, twin = (run(["summarize", "--input", path, "--response", "y", "--group-by", "g",
                        "--format", "json", *delimiter], capsys)
                   for path, delimiter in ((table, []), (hashed, ["--delimiter", "#"])))
    assert clean == twin and clean[0] == cli.EXIT_OK
    assert sum(g["n"] for g in json.loads(clean[1])["groups"]) == 30


def test_slow_tail_regression_converges(tmp_path, capsys):
    # r = 0.5, p = 0.02: per-row tails over several blocks of the k-table.
    y = simulated(tmp_path / "tail.txt", capsys, 0.5, 0.02, 400, 3)
    write_table(tmp_path / "tail.csv", y, np.random.default_rng(3).normal(size=y.size))
    code, out, _ = run(["regress", "--input", tmp_path / "tail.csv", "--response", "y",
                        "--covariates", "x", "--models", "unb,nb", "--format", "json"],
                       capsys)
    assert code == cli.EXIT_OK
    assert [fit["converged"] for fit in json.loads(out)["results"]] == [True, True]


def test_many_rows_and_a_quoted_twin_print_the_same(tmp_path, capsys):
    # 50000 rows span several blocks of the CSV field reader; one quoted
    # cell of an unselected column hands the twin to the row parser.
    y = simulated(tmp_path / "many.txt", capsys, 1, 0.6, 50000, 4)
    x = np.random.default_rng(4).normal(size=y.size)
    ids = [f"r{i}" for i in range(y.size)]
    write_table(tmp_path / "many.csv", y, x, [ids])
    ids[1000] = '"r,1000"'
    write_table(tmp_path / "many_quoted.csv", y, x, [ids])
    for argv in (["summarize"], ["regress", "--covariates", "x"]):
        plain, quoted = (run([*argv, "--input", tmp_path / name, "--response", "y",
                              "--format", "json"], capsys)
                         for name in ("many.csv", "many_quoted.csv"))
        assert plain == quoted and plain[0] == cli.EXIT_OK


def test_commands_without_special_functions_import_no_scipy(tmp_path):
    # python -X importtime lists on stderr every module the process imports.
    (tmp_path / "table.csv").write_text(TABLE)
    src = str(Path(unbcount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    for code, *argv in ((0, "summarize", "--input", "table.csv", "--response", "y"),
                        (0, "simulate", "--r", "2", "--p", "0.5", "--n", "100",
                         "--seed", "1", "--output", "imp.txt"),
                        (2, "fit", "--seed", "1")):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "unbcount.cli",
                               *argv], cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == code and "scipy" not in proc.stderr, proc.stderr


def counts(values):
    return "".join(f"{int(c)}\n" for c in values)


ZERO = ("error: all responses are zero: the likelihood increases as the mean goes "
        "to 0 and no maximum exists\n")
BOUND = "not converged, on log r = 8"

# The data outcomes, each with one exit code: name -> (the input's text,
# the run, its exit code, and its stderr or each model's state).  ROADMAP
# items 2 and 15 will change the two rows that exit 3.
OUTCOMES = {
    "outlier_count": (
        lambda: counts([*unb_sample(UnbParams(2.0, 0.5), 2000, 1), 10 ** 5]),
        ["fit", "--models", "unb,nb,up"], 0,
        {"unb": "converged", "nb": "converged", "up": "converged"}),
    "optimum_on_a_bound": (lambda: counts([0] * 39 + [1] * 9 + [2] * 2),
                           ["fit", "--models", "unb"], 3, {"unb": BOUND}),
    "all_zero_counts": (lambda: counts([0] * 50), ["fit", "--models", "unb,nb"], 2, ZERO),
    "all_zero_response": (
        lambda: "y,x\n" + "".join(f"0,{i / 10}\n" for i in range(20)),
        ["regress", "--response", "y", "--covariates", "x"], 2, ZERO),
    "under_dispersed": (
        lambda: counts(np.random.default_rng(1).binomial(4, 0.5, 1000)),
        ["fit", "--models", "unb,nb,up"], 3, {"unb": BOUND, "nb": BOUND, "up": "converged"}),
    "rank_deficient_design": (
        lambda: "y,x,z\n" + "".join(f"{i % 4},{i / 10},{i / 5}\n" for i in range(30)),
        ["regress", "--response", "y", "--covariates", "x,z"], 2,
        "error: design matrix is rank deficient (3 columns, rank 2)\n"),
}


def state(fit):
    at_bound = fit["estimates"].get("r") == pytest.approx(math.exp(8.0), rel=1e-12)
    return "converged" if fit["converged"] else BOUND if at_bound else "not converged"


@pytest.mark.parametrize("name", OUTCOMES)
def test_data_outcome_exit_code(tmp_path, capsys, name):
    text, argv, want_code, want = OUTCOMES[name]
    (tmp_path / "data.csv").write_text(text())
    code, out, err = run([*argv, "--input", tmp_path / "data.csv", "--format", "json"],
                         capsys)
    assert code == want_code
    if isinstance(want, str):
        assert (out, err) == ("", want)
    else:
        assert err == ""
        assert {fit["model"]: state(fit) for fit in json.loads(out)["results"]} == want
