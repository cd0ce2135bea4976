"""The shared-p pass of the UNB kernel on the benchmark's marginal panel.

Every marginal fit, unb_pmf/unb_cdf value and marginal CLI command reads
_unb_logpmf at one p: one pass over k for all counts.  At the optimum of
each of the 26 panel fits (perfbench/gen.py's marginal_samples), over its
distinct counts and over every 64-count block of unb_logpmf up to its
largest count, that pass must agree with the per-row pass and build its
k-table once.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from unbcount import distributions as _dist
from unbcount.estimation import fit_mle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

SAMPLES = gen.marginal_samples()


@pytest.fixture(scope="module")
def optima():
    """label -> (r, p, distinct counts, the 64-count blocks up to the largest)."""
    out = {}
    for label, sample in SAMPLES.items():
        params = fit_mle(sample).params
        xs = np.unique(sample).astype(float)
        blocks = [np.arange(64 * b, 64 * b + 64, dtype=float)
                  for b in range(int(xs[-1]) // 64 + 1)]
        out[label] = (params.r, params.p, xs, blocks)
    return out


@pytest.mark.parametrize("label", list(SAMPLES))
def test_shared_pass_matches_per_row_pass(label, optima):
    # One more row at another p keeps the per-row pass from collapsing
    # into the shared one; it is dropped from the comparison.
    r, p, xs, blocks = optima[label]
    for x in [xs, *blocks]:
        rows = _dist._unb_logpmf(r, np.append(np.full(x.size, p), 0.5), np.append(x, 0.0),
                                 grad=True)
        shared = (_dist._unb_logpmf(r, p, x), *_dist._unb_logpmf(r, p, x, grad=True))
        for d, (got, want) in enumerate(zip(shared, rows[:1] + rows)):
            np.testing.assert_allclose(got, want[:-1], rtol=1e-12, atol=0,
                                       err_msg=f"{label} x={x[0]:g}.. entry {d}")


@pytest.mark.parametrize("label", list(SAMPLES))
def test_shared_pass_builds_one_table(label, optima, monkeypatch):
    # The table is sized once, for the head and the tail seed's block at
    # the largest count; a seed that extends it again reads k-factors twice.
    grown = []
    upto = _dist._KTable.upto

    def record(table, n):
        if n > table.lg.size:
            grown.append(n)
        return upto(table, n)

    monkeypatch.setattr(_dist._KTable, "upto", record)
    r, p, xs, blocks = optima[label]
    for x in [xs, *blocks]:
        for grad in (False, True):
            grown.clear()
            _dist._unb_logpmf(r, p, x, grad=grad)
            assert len(grown) == 1, (x[0], grad, grown)
