"""Tests of the benchmark itself: inputs, oracle, span arithmetic, tail."""

import pickle
from pathlib import Path

import numpy as np
import pytest

import gen
import oracle
import run
import tracing
import worker
from unbcount import distributions


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = gen.write_inputs(workload, 5, tmp_path / "a")
    again = gen.write_inputs(workload, 5, tmp_path / "b")
    other = gen.write_inputs(workload, 6, tmp_path / "c")
    assert first["sha256"] == again["sha256"]
    for name, rel in first["files"].items():
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    # marginal_grid and nmes_regress draw from fixed panels only (see gen.py).
    assert (first["sha256"] == other["sha256"]) == (workload != "cli_batch")


def test_contaminated_cell_is_the_roadmap_failing_sample():
    expected = distributions.unb_sample(distributions.UnbParams(1.5, 0.2), 2000, seed=7)
    got = gen.marginal_samples()["contaminated_r1.5_p0.2"]
    np.testing.assert_array_equal(got, np.append(expected, 200))


def test_known_defect_probes_name_inputs_outside_the_timed_panel():
    marginal = gen.KNOWN_DEFECTS["marginal_grid"]
    assert set(marginal) == {gen.CONTAMINATED[0]}
    assert set(marginal) <= set(gen.marginal_samples())
    nmes = gen.KNOWN_DEFECTS["nmes_regress"]
    assert set(nmes) == {f"dataset{gen.NMES_PROBE}"} <= set(gen.NMES_LABELS)
    assert gen.NMES_PROBE not in gen.NMES_PANEL
    cli = gen.KNOWN_DEFECTS["cli_batch"]
    assert set(cli) <= {label for label, _ in worker.cli_argvs(Path("in"))}


def test_cli_table_has_na_cells_and_nmes_marginals():
    covs, y = gen.cli_table(3, n=20_000)
    assert 0.0 < np.mean(np.isnan(y)) < 0.02
    excel, poor = covs[:, 0], covs[:, 1]
    assert abs(excel.mean() - 0.08) < 0.01 and abs(poor.mean() - 0.13) < 0.01
    assert 0.2 < np.nanmean(y) < 0.4


def _kernel_logpmf(r, p, x):
    lp, _ = distributions.unb_logpmf_kernel(r, p, np.array([float(x)]))
    return float(lp[0])


def test_oracle_accepts_known_good_point():
    assert oracle.close(_kernel_logpmf(2.0, 0.5, 10), oracle.unb_logpmf(2.0, 0.5, 10))


def test_oracle_rejects_known_bad_kernel_point():
    # The subtractive recurrence cancels at this q > 0.75 point.
    reported = _kernel_logpmf(1.5, 0.2, 150)
    expected = float(oracle.unb_logpmf(1.5, 0.2, 150))
    assert not oracle.close(reported, expected)
    assert abs(reported - expected) > 100.0


def test_check_marginal_flags_a_wrong_loglik():
    sample = np.array([0, 1, 1, 2, 5])
    lp = [float(oracle.unb_logpmf(2.0, 0.5, x)) for x in range(6)]
    out = {"r": 2.0, "p": 0.5, "pmf": np.exp(lp), "cdf": float(np.sum(np.exp(lp))),
           "loglik": sum(lp[x] for x in sample)}
    assert oracle.check_marginal(sample, out) == []
    out["loglik"] *= 1.0 + 1e-8
    assert len(oracle.check_marginal(sample, out)) == 1


def test_self_time_on_synthetic_tree():
    spans = tracing.Spans()
    root = spans.add("cli.main", -1, 0.0, 10.0)
    a = spans.add("datasets.load_csv", root, 1.0, 4.0)
    spans.add("specfun.series_2f1_raw", a, 2.0, 3.0)
    spans.add("distributions.nb_pmf", root, 5.0, 6.0)
    arr = spans.arrays()
    got = tracing.self_times(arr["parent"], arr["end"] - arr["start"])
    np.testing.assert_allclose(got, [6.0, 2.0, 1.0, 1.0])
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == pytest.approx(6.0)
    assert metrics["datasets.load_s"] == pytest.approx(3.0)
    assert metrics["distributions.scalar_calls"] == 1


def test_evals_outside_optimizer_counts_kernel_calls_per_unb_fit():
    spans = tracing.Spans()
    fit = spans.add("regression.fit_unb_regression", -1, 0.0, 10.0)
    mm = spans.add("estimation.fit_mm", fit, 0.0, 1.0)
    spans.add(tracing.KERNEL, mm, 0.1, 0.2, (10.0, 1.0, 0.0))
    opt = spans.add("regression.optimizer", fit, 1.0, 6.0, (7.0, 9.0, 0.0))
    for t in (2.0, 3.0, 4.0):
        spans.add(tracing.KERNEL, opt, t, t + 0.5, (10.0, 0.0, 0.0))
    spans.add(tracing.KERNEL, fit, 7.0, 7.5, (10.0, 0.0, 2.0))
    m = tracing.layer_metrics(spans)
    assert m["regression.evals_per_fit"] == 5
    assert m["regression.evals_outside_optimizer"] == 2
    assert m["regression.optimizer_nit"] == 7
    assert m["regression.outside_optimizer_s"] == pytest.approx(5.0)
    assert m["distributions.kernel_recurrence_share"] == pytest.approx(0.02)
    assert m["distributions.kernel_floored"] == 2
    assert set(m) | {"trace.overhead"} == set(tracing.UNITS)


def test_op_tail_omitted_below_twenty_ops():
    assert run.op_tail([0.1] * 19) is None
    pct, value, beyond = run.op_tail([float(i) for i in range(1, 21)])
    assert (pct, value, beyond) == (50.0, 10.0, 10)
    pct, value, beyond = run.op_tail([float(i) for i in range(1, 101)])
    assert (pct, value, beyond) == (90.0, 90.0, 10)


def test_op_latency_is_the_median_over_the_ops_runs():
    records = [{"label": label, "latency": t} for label, t in
               (("a", 1.0), ("b", 4.0), ("a", 9.0), ("b", 6.0), ("a", 2.0))]
    assert run.per_op_latency(records) == {"a": 2.0, "b": 5.0}


def test_read_events_keeps_the_records_before_a_cut(tmp_path):
    path = tmp_path / "events.pkl"
    recs = [{"label": "a", "latency": float(i), "out": None, "error": None}
            for i in range(4)]
    body = b"".join(pickle.dumps(r) for r in recs)
    path.write_bytes(body[:-5])  # a worker stopped while writing
    events = worker.read_events(path)
    assert [r["latency"] for r in events["records"]] == [0.0, 1.0, 2.0]
    assert events["passes"] is None and events["peak_rss_mb"] is None


def test_tracer_restores_every_patched_name():
    modules = {m: __import__(f"unbcount.{m}", fromlist=["_"]) for m in
               ("specfun", "distributions", "estimation", "regression",
                "datasets", "cli")}
    before = {(m, k): v for m, mod in modules.items() for k, v in vars(mod).items()}
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        sample = gen.unb_draws(np.random.default_rng(0), 2.0, 0.5, 500)
        fit = modules["estimation"].fit_mle(sample)
    finally:
        tracer.uninstall()
    after = {(m, k): v for m, mod in modules.items() for k, v in vars(mod).items()}
    assert before == after
    m = tracing.layer_metrics(tracer.spans)
    assert m["estimation.fits"] == 1 and m["estimation.converged_share"] == float(fit.converged)
    assert m["estimation.evals_outside_optimizer"] == 13


def test_calibrated_figures_scale_by_the_median_reference_time():
    class Accept:
        def check(self, rec):
            return [], []

    children = [{"records": [{"label": "a", "latency": t},
                             {"label": "b", "latency": 2.0 * t}],
                 "passes": 1, "ref_start": ref, "ref_end": ref}
                for t, ref in ((1.0, 0.1), (1.0, 0.3), (3.0, 0.4))]
    out = run.summarize_loop(children, Accept(), "w", 0)
    assert out["op_p50_s"] == pytest.approx(1.5)  # median of a 1.0, b 2.0
    scale = run.REF_NOMINAL_S / 0.3  # median of the six reference times
    assert out["op_p50_s_cal"] == pytest.approx(1.5 * scale)
    assert out["ops_per_s_cal"] == pytest.approx(2 / (3.0 * scale))
