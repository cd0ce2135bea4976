"""scripts/reproduce_tables.py is the command line on the survey file: its
stdout is the covariate table and then the output of six CLI runs, byte for
byte; a row with a missing cell exits 2 and a fit that does not converge 3."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from unbcount import cli
from unbcount import regression as reg
from unbcount.datasets import (NMES_COVARIATES, NMES_ENV_VAR, covariate_summary,
                               load_nmes)

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reproduce_tables.py"
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

COVARIATES = ["--covariates", ",".join(NMES_COVARIATES)]
RUNS = [["summarize"],
        ["summarize", "--group-by", "MALE"],
        ["summarize", "--group-by", "POORHLTH"],
        ["compare", "--models", "unb,nb,up"],
        ["regress", *COVARIATES, "--models", "up,nb,unb"],
        ["compare", *COVARIATES, "--models", "unb,nb,up"]]


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    """The benchmark's first NMES-shaped panel as a canonical-header survey
    file, in a directory of its own."""
    covs, y = gen.nmes_dataset(0)
    rows = [",".join((gen.RESPONSE,) + gen.COVARIATES)]
    rows += [",".join([str(int(a))] + [repr(float(v)) for v in c])
             for a, c in zip(y, covs)]
    directory = tmp_path_factory.mktemp("nmes")
    (directory / "nmes.csv").write_text("\n".join(rows) + "\n")
    return directory


def run_script(*args, nmes_dir=None):
    env = {k: v for k, v in os.environ.items() if k != NMES_ENV_VAR}
    if nmes_dir is not None:
        env[NMES_ENV_VAR] = str(nmes_dir)
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          env=env, timeout=300)


def test_stdout_is_the_cli_output(panel, capsys):
    first, second = (run_script("--nmes-dir", str(panel)) for _ in range(2))
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    out = first.stdout.decode()

    path = panel / "nmes.csv"
    tail = ""
    for run in RUNS:
        assert cli.main([*run, "--input", str(path), "--response", gen.RESPONSE]) == 0
        tail += "\n" + capsys.readouterr().out
    assert out.endswith(tail)

    data = load_nmes(path)
    head = out[:-len(tail)].splitlines()
    assert head[:2] == [f"loaded {data.n} rows", ""]
    assert head[2].split() == ["covariate", "mean", "stdev"]
    rows = [line.split() for line in head[3:]]
    assert [row[0] for row in rows] == list(NMES_COVARIATES)
    summary = covariate_summary(data, NMES_COVARIATES)
    for name, mean, std in rows:
        assert (float(mean), float(std)) == pytest.approx(summary[name], rel=1e-5)


def test_missing_cell_exits_2_naming_its_line(panel, tmp_path):
    lines = (panel / "nmes.csv").read_text().splitlines()
    age = lines[0].split(",").index("AGE")
    cells = lines[41].split(",")
    cells[age] = ""
    lines[41] = ",".join(cells)
    (tmp_path / "nmes.csv").write_text("\n".join(lines) + "\n")
    # UNB_NMES_DIR stands in for --nmes-dir
    proc = run_script(nmes_dir=tmp_path)
    assert proc.returncode == 2 and proc.stdout == b""
    assert "row 42: column 'AGE' is missing" in proc.stderr.decode()


def load_script(name):
    """scripts/<name>.py, imported into this process."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_a_fit_not_converged_exits_3(panel, monkeypatch, capsys):
    script = load_script("reproduce_tables")
    fit_nb = reg.fit_nb_regression

    def not_converged(*args):
        fit = fit_nb(*args)
        fit.converged = False
        return fit

    monkeypatch.setattr(reg, "fit_nb_regression", not_converged)
    assert script.main(["--nmes-dir", str(panel)]) == 3
    assert capsys.readouterr().out.count("model nb  [NOT CONVERGED]") == 1


def test_a_missing_survey_file_is_named(tmp_path):
    # UNB_NMES_DIR set to a directory without the file: the file is named,
    # not the variable.  Unset: the variable is named.  The survey fixtures
    # skip in both cases.
    missing = run_script(nmes_dir=tmp_path)
    assert missing.returncode == 2 and missing.stdout == b""
    assert missing.stderr.decode() == f"error: no such file: {tmp_path / 'nmes.csv'}\n"
    unset = run_script()
    assert unset.returncode == 2
    assert f"set {NMES_ENV_VAR} or pass --nmes-dir" in unset.stderr.decode()
    for nmes_dir in (tmp_path, None):
        env = {k: v for k, v in os.environ.items() if k != NMES_ENV_VAR}
        if nmes_dir is not None:
            env[NMES_ENV_VAR] = str(nmes_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "tests/test_acceptance.py::test_criterion_11_covariate_free_logliks",
             "tests/test_datasets.py::TestNmesConditional::test_row_count"],
            cwd=ROOT, env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0 and b"2 skipped" in proc.stdout, proc.stdout


def test_an_r_export_twin_reproduces_alike(panel, tmp_path, monkeypatch, capsys):
    # The panel as an R export: lower-case names, a health factor, gender
    # and yes/no flags and one unselected column, for fetch_nmes.py to convert.
    with open(panel / "nmes.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    flag = {"0.0": "no", "1.0": "yes"}
    export = [["ofp", "hosp", "health", "numchron", "age", "gender", "married",
               "faminc", "employed", "privins", "medicaid"]]
    for (hosp, excel, poor, numchron, age, male, married, faminc, employed,
         privins, medicaid) in rows:
        health = "excellent" if excel == "1.0" else "poor" if poor == "1.0" else "average"
        export.append(["3", hosp, health, numchron, age, "male" if male == "1.0" else "female",
                       flag[married], faminc, flag[employed], flag[privins], flag[medicaid]])
    with open(tmp_path / "export.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(export)
    monkeypatch.setattr(sys, "argv", ["fetch_nmes.py", "--from-csv",
                                      str(tmp_path / "export.csv"), "--dest", str(tmp_path)])
    assert load_script("fetch_nmes").main() == 0
    capsys.readouterr()
    outs = []
    for directory in (panel, tmp_path):
        assert load_script("reproduce_tables").main(["--nmes-dir", str(directory)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
