import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unbcount
from unbcount import cli, datasets
from unbcount.distributions import UnbParams, unb_sample


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_counts(path, counts):
    path.write_text("\n".join(str(int(c)) for c in counts) + "\n", encoding="utf-8")
    return str(path)


def fresh_python(code, *args):
    """The stdout of ``code`` run with ``args`` in a fresh interpreter that
    imports this checkout of the package.  Test modules that import scipy
    load it into this process, so import checks need a fresh one."""
    src = str(Path(unbcount.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120, check=True)
    return out.stdout


def test_import_leaves_scipy_optimize_unloaded():
    # The fits run on the package's own Newton method, not scipy.optimize.
    # Importing the package and its CLI loads numpy and no scipy module at
    # all; scipy.special comes in at a fit's first special-function call.
    out = fresh_python(
        "import sys, unbcount, unbcount.cli; print('scipy.optimize' in sys.modules)")
    assert out.strip() == "False"


def test_import_loads_no_scipy():
    out = fresh_python(
        "import sys; before = set(sys.modules); import unbcount, unbcount.cli; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] == 'scipy'), 'scipy' in before)")
    assert out.strip() == "[] False"


# Runs each argv of the JSON list argv[1] through cli.main, its output and
# exit status to stdout, then whether scipy is loaded, on its own last line.
RUN_MAIN = """
import json, sys
from unbcount import cli
for argv in json.loads(sys.argv[1]):
    try:
        cli.main(argv)
    except SystemExit:
        pass
print('scipy' in sys.modules)
"""


def test_commands_without_special_functions_leave_scipy_unloaded(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("y,g\n0,1\n2,0\nNA,1\n1,1\n", encoding="utf-8")
    runs = [["summarize", "--input", str(table), "--response", "y", "--group-by", "g"],
            ["simulate", "--r", "2", "--p", "0.5", "--n", "50", "--seed", "1",
             "--output", str(tmp_path / "y.txt")],
            ["--help"],
            ["fit", "--input", str(table), "--bogus"]]
    out = fresh_python(RUN_MAIN, json.dumps(runs))
    assert (tmp_path / "y.txt").exists() and "usage:" in out
    assert out.splitlines()[-1] == "False"


def test_fit_loads_scipy_and_prints_the_in_process_fit(tmp_path, capsys):
    path = write_counts(tmp_path / "c.txt", unb_sample(UnbParams(2.0, 0.5), 300, 5))
    argv = ["fit", "--input", path, "--models", "unb", "--format", "json"]
    *lines, loaded = fresh_python(RUN_MAIN, json.dumps([argv])).splitlines()
    assert loaded == "True"
    code, want, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads("\n".join(lines)) == json.loads(want)


def test_special_names_are_scipy_functions():
    import scipy.special

    from unbcount import _special

    assert _special.gammaln is scipy.special.gammaln
    assert vars(_special)["gammaln"] is scipy.special.gammaln
    for name in ("no_such_function", "__path__"):
        with pytest.raises(AttributeError):
            getattr(_special, name)


def text_and_json(argv, capsys):
    """The text output of ``argv`` and its JSON output, parsed; both exit 0."""
    code, text_out, _ = run_cli(argv, capsys)
    assert code == 0
    code, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    return text_out, json.loads(json_out)


def assert_compare_agrees(text_out, body):
    words = " ".join(text_out.split())
    for row in body["fits"]:
        assert (f"{row['model']} {row['log_likelihood']:.6g} {row['aic']:.6g}"
                in words)
    assert len(body["vuong"]) == 2
    for row in body["vuong"]:
        assert not row["degenerate"]
        assert (f"vuong {row['reference']} vs {row['against']}: "
                f"z={row['z']:.6g} p={row['p_value']:.6g}") in text_out


class TestSimulate:
    def test_reproducible_bytes(self, tmp_path, capsys):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        for out in (out1, out2):
            code, _, _ = run_cli(["simulate", "--r", "3", "--p", "0.5",
                                  "--n", "10", "--seed", "7",
                                  "--output", str(out)], capsys)
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        meta = json.loads((tmp_path / "a.txt.meta.json").read_text())
        assert meta["params"] == {"r": 3.0, "p": 0.5}
        assert meta["seed"] == 7 and meta["n"] == 10

    def test_zero_proportion_geometric(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code, _, _ = run_cli(["simulate", "--r", "2", "--p", "0.5",
                              "--n", "100000", "--seed", "3",
                              "--output", str(out)], capsys)
        assert code == 0
        counts = np.loadtxt(out)
        zero_prop = float(np.mean(counts == 0))
        assert abs(zero_prop - 0.5) <= 3.0 * math.sqrt(0.25 / 100000)

    def test_mean(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        code, _, _ = run_cli(["simulate", "--r", "3", "--p", "0.5",
                              "--n", "100000", "--seed", "5",
                              "--output", str(out)], capsys)
        assert code == 0
        counts = np.loadtxt(out)
        assert abs(counts.mean() - 1.5) <= 3.0 * math.sqrt(3.25 / 100000)

    def test_missing_args(self, capsys):
        code, _, err = run_cli(["simulate", "--r", "3"], capsys)
        assert code == 2
        assert "requires" in err


class TestFit:
    def test_geometric_file_recovers_r_near_2(self, tmp_path, capsys):
        counts = unb_sample(UnbParams(2.0, 0.5), 20000, 99)
        path = write_counts(tmp_path / "c.txt", counts)
        code, out, _ = run_cli(["fit", "--input", path, "--models", "unb",
                                "--format", "json"], capsys)
        assert code == 0
        body = json.loads(out)
        rec = body["results"][0]
        assert 1.8 <= rec["estimates"]["r"] <= 2.2
        assert rec["converged"]

    def test_bare_counts_round_to_the_nearest_integer(self, tmp_path):
        # the package's one count check: within 1e-9 of 3 reads as 3
        path = tmp_path / "c.txt"
        path.write_text("1\n2.9999999999\n0\n", encoding="utf-8")
        assert datasets.load_csv(path).columns["count"].tolist() == [1, 3, 0]

    def test_empty_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        code, _, err = run_cli(["fit", "--input", str(path), "--response", "y"],
                               capsys)
        assert code == 2
        assert "empty" in err

    @pytest.mark.parametrize("delimiter", ["tab", "\\t"])
    def test_tab_separated_file(self, tmp_path, capsys, delimiter):
        path = tmp_path / "c.tsv"
        path.write_text("id\ty\na\t0\nb\t2\nc\t1\nd\t3\ne\t4\n", encoding="utf-8")
        code, out, _ = run_cli(["fit", "--input", str(path), "--response", "y",
                                "--models", "geometric", "--delimiter", delimiter,
                                "--format", "json"], capsys)
        assert code == 0
        rec = json.loads(out)["results"][0]
        assert rec["estimates"]["p"] == pytest.approx(1.0 / 3.0, rel=1e-9)  # 1/(1 + mean)

    def test_unknown_model_exit_2(self, tmp_path, capsys):
        path = write_counts(tmp_path / "c.txt", [0, 1, 2, 1, 0, 3])
        code, _, err = run_cli(["fit", "--input", path, "--models", "zeta"],
                               capsys)
        assert code == 2

    def test_text_and_json_agree(self, tmp_path, capsys):
        counts = unb_sample(UnbParams(3.0, 0.5), 3000, 17)
        path = write_counts(tmp_path / "c.txt", counts)
        code, text_out, _ = run_cli(["fit", "--input", path, "--models", "unb"],
                                    capsys)
        assert code == 0
        code, json_out, _ = run_cli(["fit", "--input", path, "--models", "unb",
                                     "--format", "json"], capsys)
        assert code == 0
        rec = json.loads(json_out)["results"][0]
        for value in (rec["estimates"]["r"], rec["estimates"]["p"],
                      rec["log_likelihood"], rec["aic"]):
            assert f"{value:.6g}" in text_out

    def test_determinism(self, tmp_path, capsys):
        counts = unb_sample(UnbParams(3.0, 0.5), 2000, 23)
        path = write_counts(tmp_path / "c.txt", counts)
        argv = ["fit", "--input", path, "--models", "unb,nb", "--format", "json"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_convergence_exit_code(self, tmp_path, capsys, monkeypatch):
        from unbcount import estimation as est
        real_fit = est.fit_mle

        def fake_fit(counts, level=0.95):
            fit = real_fit(counts, level=level)
            fit.converged = False
            return fit

        monkeypatch.setattr(est, "fit_mle", fake_fit)
        counts = unb_sample(UnbParams(3.0, 0.5), 500, 29)
        path = write_counts(tmp_path / "c.txt", counts)
        code, out, _ = run_cli(["fit", "--input", path, "--models", "unb"], capsys)
        assert code == 3
        assert "NOT CONVERGED" in out


class TestRegress:
    def _make_csv(self, tmp_path, n=800, seed=31):
        rng = np.random.default_rng(seed)
        z = rng.normal(0.0, 1.0, n)
        mu = np.exp(0.3 + 0.5 * z)
        r = 2.0
        p = r / (2.0 * mu + r)
        lam = rng.gamma(r, (1.0 - p) / p)
        y = rng.integers(0, rng.poisson(lam) + 1)
        path = tmp_path / "reg.csv"
        lines = ["y,z"] + [f"{yi},{zi}" for yi, zi in zip(y, z)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_fit_and_output(self, tmp_path, capsys):
        path = self._make_csv(tmp_path)
        code, out, _ = run_cli(["regress", "--input", path, "--response", "y",
                                "--covariates", "z", "--format", "json"], capsys)
        assert code == 0
        rec = json.loads(out)["results"][0]
        assert rec["coefficients"] == ["intercept", "z", "r"]
        assert abs(rec["estimates"][1] - 0.5) < 0.2
        assert rec["converged"]

    def test_collinear_design_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text("y,ones\n0,1\n1,1\n2,1\n0,1\n1,1\n2,1\n", encoding="utf-8")
        code, _, err = run_cli(["regress", "--input", str(path), "--response", "y",
                                "--covariates", "ones"], capsys)
        assert code == 2
        assert "rank" in err

    @pytest.mark.parametrize("command", [["regress"], ["compare", "--models", "unb,nb"]])
    def test_all_zero_response_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "zero.csv"
        z = np.random.default_rng(3).normal(0.0, 1.0, 200)
        path.write_text("y,z\n" + "".join(f"0,{zi}\n" for zi in z), encoding="utf-8")
        code, out, err = run_cli([*command, "--input", str(path), "--response", "y",
                                  "--covariates", "z"], capsys)
        assert code == 2 and out == ""
        assert "all responses are zero" in err

    def test_requires_covariates(self, tmp_path, capsys):
        path = self._make_csv(tmp_path)
        code, _, err = run_cli(["regress", "--input", path, "--response", "y"],
                               capsys)
        assert code == 2

    def test_text_and_json_agree(self, tmp_path, capsys):
        path = self._make_csv(tmp_path)
        argv = ["regress", "--input", path, "--response", "y", "--covariates", "z",
                "--models", "unb,nb,up"]
        text_out, body = text_and_json(argv, capsys)
        for rec in body["results"]:
            assert f"model {rec['model']}\n" in text_out
            for i, name in enumerate(rec["coefficients"]):
                row = [rec[k][i] for k in ("estimates", "std_errors", "wald_t",
                                           "p_values")]
                # r's row has no Wald test: null in JSON, "-" in text
                cells = ["-" if v is None else f"{v:.6g}" for v in row]
                assert " ".join([name] + cells) in " ".join(text_out.split())
                assert (row[2] is None) == (name == "r")
            assert (f"loglik {rec['log_likelihood']:.6g}   aic {rec['aic']:.6g}"
                    in text_out)

    def test_compare_text_and_json_agree(self, tmp_path, capsys):
        path = self._make_csv(tmp_path)
        argv = ["compare", "--input", path, "--response", "y", "--covariates", "z",
                "--models", "unb,nb,up"]
        text_out, body = text_and_json(argv, capsys)
        assert "(regression fits)" in text_out
        assert_compare_agrees(text_out, body)


class TestCompare:
    def test_self_comparison_degenerate(self, tmp_path, capsys):
        counts = unb_sample(UnbParams(3.0, 0.5), 1500, 37)
        path = write_counts(tmp_path / "c.txt", counts)
        code, out, _ = run_cli(["compare", "--input", path,
                                "--models", "unb,unb", "--format", "json"],
                               capsys)
        assert code == 0
        body = json.loads(out)
        assert body["vuong"][0]["degenerate"] is True

    def test_model_count_validation(self, tmp_path, capsys):
        counts = unb_sample(UnbParams(3.0, 0.5), 100, 41)
        path = write_counts(tmp_path / "c.txt", counts)
        code, _, err = run_cli(["compare", "--input", path, "--models", "unb"],
                               capsys)
        assert code == 2

    def test_three_way(self, tmp_path, capsys):
        counts = unb_sample(UnbParams(3.0, 0.5), 4000, 43)
        path = write_counts(tmp_path / "c.txt", counts)
        code, out, _ = run_cli(["compare", "--input", path,
                                "--models", "unb,nb,up", "--format", "json"],
                               capsys)
        assert code == 0
        body = json.loads(out)
        assert len(body["fits"]) == 3
        assert len(body["vuong"]) == 2
        assert body["vuong"][0]["reference"] == "unb"


    def test_marginal_vuong_z_from_weighted_per_value_logpmfs(self, tmp_path, capsys):
        from unbcount import distributions as dist
        from unbcount import estimation as est
        counts = unb_sample(UnbParams(3.0, 0.5), 4000, 43)
        path = write_counts(tmp_path / "c.txt", counts)
        code, out, _ = run_cli(["compare", "--input", path,
                                "--models", "unb,nb,up", "--format", "json"],
                               capsys)
        assert code == 0
        xs, w = np.unique(counts, return_counts=True)
        logpmf = {
            "unb": lambda f, x: dist.unb_logpmf(f.params, x),
            "nb": lambda f, x: dist.nb_logpmf(f.params, x),
            "up": lambda f, x: dist.up_logpmf(f.params, x),
        }
        lp = {}
        for model, fit in (("unb", est.fit_mle(counts)), ("nb", est.fit_nb_mle(counts)),
                           ("up", est.fit_up_mle(counts))):
            lp[model] = np.array([logpmf[model](fit, int(x)) for x in xs])
        for row in json.loads(out)["vuong"]:
            m = lp["unb"] - lp[row["against"]]
            n = w.sum()
            omega = math.sqrt(np.dot(w, m ** 2) / n - (np.dot(w, m) / n) ** 2)
            assert row["z"] == pytest.approx(np.dot(w, m) / (omega * math.sqrt(n)),
                                             rel=1e-9)

    def test_text_and_json_agree(self, tmp_path, capsys):
        counts = unb_sample(UnbParams(3.0, 0.5), 3000, 47)
        path = write_counts(tmp_path / "c.txt", counts)
        argv = ["compare", "--input", path, "--models", "unb,nb,up"]
        text_out, body = text_and_json(argv, capsys)
        assert "(marginal fits)" in text_out
        assert_compare_agrees(text_out, body)


class TestSummarize:
    def test_tiny_file(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("y\n0\n0\n1\n2\n5\n", encoding="utf-8")
        code, out, _ = run_cli(["summarize", "--input", str(path),
                                "--response", "y", "--format", "json"], capsys)
        assert code == 0
        body = json.loads(out)
        g = body["groups"][0]
        assert g["n"] == 5
        assert g["mean"] == pytest.approx(1.6)
        assert g["zero_proportion"] == pytest.approx(0.4)
        freq = {row["value"]: row["rel_freq"] for row in body["frequencies"]}
        assert freq[0] == pytest.approx(0.4)

    def test_unknown_group_column(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("y\n0\n1\n", encoding="utf-8")
        code, _, err = run_cli(["summarize", "--input", str(path),
                                "--response", "y", "--group-by", "g"], capsys)
        assert code == 2

    def test_grouped(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("y,g\n0,1\n2,1\n1,0\n3,0\n", encoding="utf-8")
        code, out, _ = run_cli(["summarize", "--input", str(path),
                                "--response", "y", "--group-by", "g",
                                "--format", "json"], capsys)
        assert code == 0
        body = json.loads(out)
        assert [g["group"] for g in body["groups"]] == ["g=1", "g=0"]

    def test_grouped_beside_text_column(self, tmp_path, capsys):
        # Only the response and the group column are parsed; a row whose
        # group is NA is dropped.
        path = tmp_path / "s.csv"
        path.write_text("id,y,g\nalice,0,1\nbob,2,1\ncarol,1,0\ndave,3,0\neve,4,NA\n",
                        encoding="utf-8")
        code, out, _ = run_cli(["summarize", "--input", str(path), "--response", "y",
                                "--group-by", "g", "--format", "json"], capsys)
        assert code == 0
        assert {g["group"]: g["n"] for g in json.loads(out)["groups"]} == {"g=1": 2,
                                                                          "g=0": 2}
        code, _, _ = run_cli(["fit", "--input", str(path), "--response", "y",
                              "--models", "geometric"], capsys)
        assert code == 0


class TestFlags:
    """Each subcommand declares only the flags it reads."""

    @pytest.mark.parametrize("command, flag", [
        ("fit", ["--seed", "1"]),
        ("regress", ["--seed", "1"]),
        ("compare", ["--seed", "1"]),
        ("summarize", ["--seed", "1"]),
        ("summarize", ["--level", "0.9"]),
        ("regress", ["--level", "0.9"]),
        ("compare", ["--level", "0.9"]),
        ("simulate", ["--format", "json"]),
        ("fit", ["--covariates", "x"]),
    ])
    def test_removed_flag_exit_2(self, tmp_path, capsys, command, flag):
        if command == "simulate":
            argv = ["simulate", "--r", "2", "--p", "0.5", "--n", "5",
                    "--output", str(tmp_path / "s.txt")]
        else:
            argv = [command, "--input", write_counts(tmp_path / "c.txt", [0, 1, 2])]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "s.txt").exists()

    def test_level_in_fit_output_only(self, tmp_path, capsys):
        counts = unb_sample(UnbParams(3.0, 0.5), 500, 53)
        path = write_counts(tmp_path / "c.txt", counts)
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("y,x\n" + "".join(f"{c},{i % 7 / 7}\n"
                                                for i, c in enumerate(counts)),
                            encoding="utf-8")
        runs = {
            "fit": ["fit", "--input", path],
            "compare": ["compare", "--input", path],
            "regress": ["regress", "--input", str(csv_path), "--response", "y",
                        "--covariates", "x"],
            "compare_regression": ["compare", "--input", str(csv_path),
                                   "--response", "y", "--covariates", "x"],
        }
        for name, argv in runs.items():
            code, out, _ = run_cli(argv + ["--format", "json"], capsys)
            assert code == 0
            assert ("level" in json.loads(out)) == (name == "fit"), name

    @pytest.mark.parametrize("command", [["fit"], ["regress", "--covariates", "x"]])
    def test_empty_model_list_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "t.csv"
        path.write_text("y,x\n0,1\n1,2\n2,0\n", encoding="utf-8")
        code, out, err = run_cli([*command, "--input", str(path), "--response", "y",
                                  "--models", ","], capsys)
        assert code == 2 and out == ""
        assert "no model" in err

    @pytest.mark.parametrize("delimiter", [";;", "", "\n"])
    def test_delimiter_not_one_character_exit_2(self, tmp_path, capsys, delimiter):
        path = tmp_path / "s.csv"
        path.write_text("y\n0\n1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli.main(["summarize", "--input", str(path), "--response", "y",
                      "--delimiter", delimiter])
        assert exc.value.code == 2
        assert "one character" in capsys.readouterr().err
