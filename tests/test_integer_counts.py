"""Integer counts go straight to the fits.  The count check's integer path
against its float path; counts of 2**63 or more, which int64 cannot hold;
the CLI's one parser per process; summarize's group check; and the
kernel's first tail block, sized to the tail's decay."""

import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import unbcount
from unbcount import cli
from unbcount import datasets as ds
from unbcount import distributions as dist
from unbcount import estimation as est
from unbcount.datasets import Dataset, _rounded_counts
from unbcount.distributions import UnbParams, unb_sample
from unbcount.errors import DataError
from unbcount.regression import RegressionSpec, build_design

INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32, np.uint64)


@st.composite
def int_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    elements = st.integers(max(info.min, -2 ** 53 + 1), min(info.max, 2 ** 53 - 1))
    return draw(hnp.arrays(dtype, st.integers(1, 40), elements=elements))


@settings(max_examples=200, deadline=None)
@given(values=int_arrays())
def test_integer_path_agrees_with_float_path(values):
    # Below 2**53 every integer is a float exactly: both paths give the same
    # integers and flag the same entries, the negative ones.
    ints, bad = _rounded_counts(values)
    f_ints, f_bad = _rounded_counts(values.astype(np.float64))
    assert ints.dtype == values.dtype
    assert np.array_equal(ints, f_ints)
    assert np.array_equal(bad, f_bad)
    assert np.array_equal(bad, values < 0)


def test_bools_keep_the_float_path():
    ints, bad = _rounded_counts(np.array([True, False, True]))
    assert ints.dtype == np.float64
    assert ints.tolist() == [1.0, 0.0, 1.0]
    assert not bad.any()


def test_uint64_counts_of_2_63_or_more_are_bad():
    _, bad = _rounded_counts(np.array([0, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1],
                                      dtype=np.uint64))
    assert bad.tolist() == [False, False, True, True]


@pytest.mark.parametrize("fitter", [est.fit_mle, est.fit_nb_mle, est.fit_up_mle,
                                    est.fit_geometric])
def test_fits_take_int64_and_float64_alike(fitter):
    y = unb_sample(UnbParams(1.5, 0.4), 2000, 17)
    a, b = fitter(y), fitter(y.astype(np.float64))
    assert a.params == b.params
    assert a.log_likelihood == b.log_likelihood
    assert a.std_errors == b.std_errors
    assert np.array_equal(a.cov_matrix, b.cov_matrix)
    assert a.diagnostics["evaluations"] == b.diagnostics["evaluations"]


def test_moments_and_loglik_take_int64_and_float64_alike():
    y = unb_sample(UnbParams(1.5, 0.4), 2000, 18)
    assert est.sample_moments(y) == est.sample_moments(y.astype(np.float64))
    params = UnbParams(1.5, 0.4)
    assert est.unb_loglik(params, y) == est.unb_loglik(params, y.astype(np.float64))


def test_uint64_count_beyond_int64_is_a_data_error():
    with pytest.raises(DataError, match="non-negative integers"):
        est.fit_geometric(np.array([1, 2 ** 64 - 1, 3], dtype=np.uint64))


def test_count_file_beyond_int64_exits_2_without_warning(tmp_path, capsys):
    # 10**20 is read as a float, which int64 cannot hold: its row is named
    # as a negative count's is, and nothing casts it.
    for line, value in (("100000000000000000000", "1e+20"), ("-1", "-1.0")):
        path = tmp_path / "c.txt"
        path.write_text(f"1\n{line}\n3\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["fit", "--input", str(path)])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {path}: row 2: response 'count' value {value} "
            "is not a non-negative integer\n")


def test_csv_response_beyond_int64_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("y,x\n1,0.5\n1e20,1.5\n", encoding="utf-8")
    assert cli.main(["fit", "--input", str(path), "--response", "y"]) == cli.EXIT_DATA
    assert "not a non-negative integer" in capsys.readouterr().err
    data = Dataset(column_names=("y", "x"),
                   columns={"y": np.array([1.0, 1e20]), "x": np.array([0.5, 1.5])}, n=2)
    with pytest.raises(DataError, match="non-negative integer"):
        ds.response_counts(data, "y")
    with pytest.raises(DataError, match="non-negative integers"):
        build_design(data, RegressionSpec(response="y", covariates=("x",)))


def test_cached_parser_shares_no_state(tmp_path, capsys):
    counts = tmp_path / "c.txt"
    ds.write_counts(counts, unb_sample(UnbParams(2.0, 0.5), 200, 1))
    table = tmp_path / "t.csv"
    table.write_text("y,x\n0,1\n2,3\n", encoding="utf-8")
    assert cli._build_parser() is cli._build_parser()
    # fit names the bare column "count" on its own namespace
    assert cli.main(["fit", "--input", str(counts), "--models", "geometric"]) == 0
    assert "response=count" in capsys.readouterr().out
    assert cli.main(["summarize", "--input", str(table)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == (f"error: {table}: a response column is "
                                       "required: line 1 is a header row, not a count\n")


def test_successive_runs_match_fresh_interpreters(tmp_path):
    counts = tmp_path / "c.txt"
    ds.write_counts(counts, unb_sample(UnbParams(1.2, 0.3), 3000, 5))
    runs = {"fit": ["fit", "--input", str(counts), "--models", "unb,nb,up,geometric",
                    "--format", "json"],
            "compare": ["compare", "--input", str(counts), "--models", "unb,nb,up",
                        "--format", "json"]}
    in_process = {}
    for name, argv in runs.items():
        outs = []
        for i in range(2):
            out = tmp_path / f"{name}{i}.json"
            assert cli.main(argv + ["--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        in_process[name] = outs[0]
    src = str(Path(unbcount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    for name, argv in runs.items():
        out = tmp_path / f"{name}.fresh.json"
        subprocess.run([sys.executable, "-m", "unbcount.cli", *argv, "--output", str(out)],
                       env=env, timeout=120, check=True)
        assert out.read_bytes() == in_process[name], name


def unique_summarize(dataset, response, group_by):
    """summarize's group split by the sorted distinct levels of the column:
    the reference of its two comparisons."""
    x = ds.response_counts(dataset, response)
    g = dataset.columns[group_by]
    values = np.unique(g)
    if not np.all(np.isin(values, (0.0, 1.0))):
        raise DataError(f"group column {group_by!r} must be binary coded (0/1)")
    return [ds._one_summary(f"{group_by}={int(v)}", x[g == v])
            for v in sorted(values, reverse=True)]


@pytest.mark.parametrize("groups", [
    ["1", "1", "1", "1", "1"],
    ["0", "0", "0", "0", "0"],
    ["-0.0", "1", "-0", "0", "1"],
    ["-0.0", "-0.0", "-0.0", "-0.0", "-0.0"],
])
def test_summarize_groups_match_the_sorted_levels(tmp_path, capsys, monkeypatch, groups):
    path = tmp_path / "s.csv"
    path.write_text("y,g\n" + "".join(f"{y},{g}\n" for y, g in zip([0, 2, 1, 3, 5], groups)),
                    encoding="utf-8")
    argv = ["summarize", "--input", str(path), "--response", "y", "--group-by", "g",
            "--format", "json"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.setattr(ds, "summarize", unique_summarize)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == out
    assert [g["group"] for g in json.loads(out)["groups"]] == [
        f"g={v}" for v in (1, 0) if any(float(g) == v for g in groups)]


@pytest.mark.parametrize("level", ["2", "0.5", "-1"])
def test_summarize_group_not_binary_exits_2(tmp_path, capsys, level):
    path = tmp_path / "s.csv"
    path.write_text(f"y,g\n0,1\n2,0\n1,{level}\n", encoding="utf-8")
    assert cli.main(["summarize", "--input", str(path), "--response", "y",
                     "--group-by", "g"]) == cli.EXIT_DATA
    assert "must be binary coded" in capsys.readouterr().err


def fixed_first_width(r, lq, x):
    """The padded first tail block, the reference of the ragged one sized to
    each row's decay: max(32, 1024 // rows) terms for every row."""
    return np.full(np.shape(x), max(32, 1024 // np.size(x)))


def test_tail_seed_sized_to_decay_is_shorter_where_the_tail_is_steep():
    assert dist._first_width(2.0, np.log([0.3]), np.array([10.0]))[0] < 64
    # a bound over 1024 terms, or terms that do not fall from x, take the
    # padded width
    assert dist._first_width(2.0, np.log([0.999]), np.array([10.0]))[0] == 1024
    assert dist._first_width(50.0, np.log([0.999]), np.array([10.0]))[0] == 1024
    # each row is sized alone, however many rows there are
    lq, x = np.log(np.append(np.full(39, 0.3), 0.999)), np.append(np.full(39, 1000.0), 10.0)
    widths = dist._first_width(50.0, lq, x)
    alone = dist._first_width(50.0, lq[:1], x[:1])[0]
    assert alone < 64 and np.array_equal(widths, np.append(np.full(39, alone), 32))


def test_tail_seed_sized_to_decay_keeps_the_kernel(monkeypatch):
    # The shared-p pass at x, and a per-row pass whose one tail row is x
    # (the row of p = 0.5 at 0 takes the head), each against the same pass
    # with the fixed first block: values and derivatives within 1e-14
    # relative.
    def passes(r, q, x):
        p = 1.0 - q
        out = []
        for grad in (False, True):
            shared = dist._unb_logpmf(r, p, np.array([x]), grad=grad)
            rows = dist._unb_logpmf(r, np.array([p, 0.5]), np.array([x, 0.0]), grad=grad)
            out += [np.ravel(shared), np.array(rows)[..., 0].ravel()]
        return np.concatenate(out)

    for r, q, x in itertools.product([0.05, 0.5, 1.0, 1.9, 2.0, 5.0, 20.0, 2900.0],
                                     [0.01, 0.3, 0.7, 0.95, 0.999], [0.0, 10.0, 1000.0]):
        sized = passes(r, q, x)
        with monkeypatch.context() as m:
            m.setattr(dist, "_first_width", fixed_first_width)
            fixed = passes(r, q, x)
        assert np.all(np.isfinite(sized)), (r, q, x)
        np.testing.assert_allclose(sized, fixed, rtol=1e-14, atol=0, err_msg=str((r, q, x)))
