import json
import math

import numpy as np
import pytest

from unbcount import cli
from unbcount.distributions import UnbParams, unb_sample


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_counts(path, counts):
    path.write_text("\n".join(str(int(c)) for c in counts) + "\n", encoding="utf-8")
    return str(path)


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
