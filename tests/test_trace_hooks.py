"""The span tracer of perfbench/tracing.py finds every name it wraps.

The tracer replaces module attributes (fitters, kernels, optimisers) where
their callers look them up; a name bound elsewhere at import would escape
it.  Nothing here changes the tracer itself.
"""

import sys
from pathlib import Path

import numpy as np

from unbcount import cli, datasets, distributions, estimation, regression, specfun
from unbcount.distributions import UnbParams, unb_sample
from unbcount.regression import RegressionSpec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

MODULES = {"specfun": specfun, "distributions": distributions,
           "estimation": estimation, "regression": regression,
           "datasets": datasets, "cli": cli}


def test_tracer_sees_kernels_optimizer_and_fits():
    before = {(m, k): v for m, mod in MODULES.items() for k, v in vars(mod).items()}
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        y = unb_sample(UnbParams(2.0, 0.5), 300, 1)
        estimation.fit_mle(y)
        z = np.random.default_rng(1).normal(0.0, 1.0, y.size)
        data = datasets.Dataset(column_names=("y", "z"),
                                columns={"y": y.astype(float), "z": z}, n=y.size)
        regression.fit_unb_regression(data, RegressionSpec("y", ("z",)))
    finally:
        tracer.uninstall()
    after = {(m, k): v for m, mod in MODULES.items() for k, v in vars(mod).items()}
    assert before == after
    names = tracer.spans.names
    recorded = {names[i] for i in tracer.spans.name}
    assert {tracing.KERNEL, "estimation.optimizer", "estimation.fit_mle",
            "estimation.fit_mm", "regression.fit_unb_regression"} <= recorded
    m = tracing.layer_metrics(tracer.spans)
    assert m["estimation.fits"] == 1 and m["regression.fits"] == 1
    assert m["distributions.kernel_calls"] > 0 and m["estimation.optimizer_calls"] > 0
    # Each optimiser evaluation is one kernel call, made directly under the
    # optimiser's span: the kernel spans cover every evaluation.
    arr = tracer.spans.arrays()
    kernel, optimizer = names.index(tracing.KERNEL), names.index("estimation.optimizer")
    opt_ids = np.nonzero(arr["name"] == optimizer)[0]
    under = np.bincount(arr["parent"][(arr["name"] == kernel) & (arr["parent"] >= 0)],
                        minlength=arr["name"].size)
    assert np.array_equal(under[opt_ids], arr["attrs"][opt_ids, 1].astype(int))
