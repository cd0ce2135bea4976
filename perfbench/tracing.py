"""Span tracing of unbcount's public functions, installed from outside.

Each traced name is replaced where its caller looks it up (a module
attribute), so the program itself is unchanged.  A span records its name,
parent, start and end, and up to three numeric attributes (element counts,
series terms, optimiser iterations, ...).  Spans are kept in flat arrays
in memory and written out when the run ends; the per-layer metrics are
derived from them afterwards.
"""

from __future__ import annotations

import json
import math
import os
import time
from array import array

import numpy as np

# specfun names, by the module whose attribute lookup reaches them.  The
# wrappers inside specfun itself give the term counts of gauss_2f1, which
# returns a bare float.
SPECFUN_WRAPS = {
    "distributions": ("series_2f1_raw", "gauss_2f1", "confluent_1f1"),
    "estimation": ("series_2f1_raw", "digamma", "kampe_theta1"),
    "specfun": ("series_2f1_raw", "series_2f1_euler", "gauss_2f1_eval",
                "confluent_1f1_eval", "lerch_phi_eval", "kampe_theta1_eval"),
}
SCALAR_FUNCS = ("unb_pmf", "unb_logpmf", "unb_cdf", "nb_pmf", "up_logpmf",
                "geom_pmf")
ESTIMATION_FITS = ("fit_mle", "fit_nb_mle", "fit_up_mle", "fit_geometric")
REGRESSION_FITS = ("fit_unb_regression", "fit_nb_regression",
                   "fit_up_regression")
KERNEL = "distributions.unb_logpmf_kernel"
DP_KERNEL = "distributions.unb_dlogpmf_dp_kernel"


class Spans:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.attrs = (array("d"), array("d"), array("d"))
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, parent: int, start: float, end: float,
            attrs=(0.0, 0.0, 0.0)) -> int:
        """Append a closed span; tests build span trees with it."""
        sid = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        for col, v in zip(self.attrs, attrs):
            col.append(v)
        return sid

    def wrap(self, fn, name: str, attrs=None):
        """Return ``fn`` wrapped in a span; ``attrs(args, kwargs, result)``
        gives up to three numbers recorded on the span."""
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter
        cols = (self.name, self.parent, self.start, self.end) + self.attrs

        def traced(*args, **kwargs):
            sid = len(cols[2])
            cols[0].append(nid)
            cols[1].append(stack[-1])
            cols[3].append(math.nan)
            for col in cols[4:]:
                col.append(0.0)
            stack.append(sid)
            cols[2].append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                cols[3][sid] = clock()
                stack.pop()
            if attrs is not None:
                for col, v in zip(cols[4:], attrs(args, kwargs, result)):
                    col[sid] = v
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "attrs": np.stack([np.frombuffer(a, dtype=np.float64)
                               for a in self.attrs]).T.copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


class _ModuleProxy:
    """Stands in for a module object; overrides some attributes."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _kernel_attrs(args, kwargs, result):
    p = np.asarray(args[1] if len(args) > 1 else kwargs["p"], dtype=float)
    x = np.asarray(args[2] if len(args) > 2 else kwargs["x"])
    shape = np.broadcast_shapes(p.shape, x.shape)
    rec = np.broadcast_to(1.0 - p > 0.75, shape)
    return (float(math.prod(shape)), float(np.count_nonzero(rec)),
            float(result[1]))


def _dp_kernel_attrs(args, kwargs, result):
    return (float(np.size(result)), 0.0, 0.0)


def _terms_attrs(args, kwargs, result):
    return (float(getattr(result, "terms", 0)), 0.0, 0.0)


def _optimizer_attrs(args, kwargs, result):
    nelder = kwargs.get("method") == "Nelder-Mead"
    return (float(getattr(result, "nit", 0) or 0),
            float(getattr(result, "nfev", 0) or 0), float(nelder))


def _fit_attrs(args, kwargs, result):
    return (float(bool(result.converged)), 0.0, 0.0)


def _regression_attrs(args, kwargs, result):
    diag = result.diagnostics
    return (float(bool(result.converged)), float(diag.get("eta_clamped", 0)),
            float(diag.get("pmf_floored", 0)))


def _load_attrs(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return (float(result.n + len(result.dropped_rows)),
            float(os.path.getsize(path)), float(len(result.dropped_rows)))


def _output_bytes(argv) -> int:
    if "--output" not in argv:
        return 0
    out = argv[argv.index("--output") + 1]
    return sum(os.path.getsize(p) for p in (out, out + ".meta.json")
               if os.path.exists(p))


def _cli_attrs(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    return (float(result != 0), float(_output_bytes(argv)), 0.0)


class Tracer:
    """Installs span wrappers into the unbcount modules and removes them."""

    def __init__(self, modules: dict):
        self.spans = Spans()
        self.modules = modules
        self._saved = []

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _wrap(self, mod_name, attr, span_name, attrs=None):
        module = self.modules[mod_name]
        self._patch(module, attr,
                    self.spans.wrap(getattr(module, attr), span_name, attrs))

    def install(self) -> None:
        m = self.modules
        for mod_name, names in SPECFUN_WRAPS.items():
            for name in names:
                self._wrap(mod_name, name, f"specfun.{name}", _terms_attrs)
        self._wrap("distributions", "unb_logpmf_kernel", KERNEL, _kernel_attrs)
        self._wrap("distributions", "unb_dlogpmf_dp_kernel", DP_KERNEL,
                   _dp_kernel_attrs)
        for name in SCALAR_FUNCS:
            self._wrap("distributions", name, f"distributions.{name}")
        for name in ESTIMATION_FITS:
            self._wrap("estimation", name, f"estimation.{name}", _fit_attrs)
        self._wrap("estimation", "fit_mm", "estimation.fit_mm")
        self._wrap("regression", "fit_mm", "estimation.fit_mm")
        for name in REGRESSION_FITS:
            self._wrap("regression", name, f"regression.{name}",
                       _regression_attrs)
        self._wrap("regression", "vuong_test", "regression.vuong_test")
        for mod_name in ("estimation", "regression"):
            real = m[mod_name]._opt
            proxy = _ModuleProxy(
                real,
                minimize=self.spans.wrap(real.minimize, f"{mod_name}.optimizer",
                                         _optimizer_attrs),
                minimize_scalar=self.spans.wrap(real.minimize_scalar,
                                                f"{mod_name}.optimizer",
                                                _optimizer_attrs))
            self._patch(m[mod_name], "_opt", proxy)
        self._wrap("datasets", "load_csv", "datasets.load_csv", _load_attrs)
        self._wrap("datasets", "summarize", "datasets.summarize")
        self._wrap("datasets", "frequency_table", "datasets.frequency_table")
        self._wrap("cli", "main", "cli.main", _cli_attrs)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# Deriving the per-layer metrics from the spans


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    return dur - child


def _within(parent: np.ndarray, name: np.ndarray, idx: np.ndarray,
            targets: set, stops: set) -> np.ndarray:
    """For each span in ``idx``, whether an ancestor's name id is in
    ``targets`` with no ``stops`` ancestor nearer to it."""
    out = np.zeros(idx.size, dtype=bool)
    for j, sid in enumerate(idx):
        a = parent[sid]
        while a >= 0 and name[a] not in stops:
            if name[a] in targets:
                out[j] = True
                break
            a = parent[a]
    return out


# Units of the per-layer metrics.  Counts and times are divided by the
# number of ops traced, so they do not grow when the program gets faster;
# the evaluation counts of fits are per fit; shares and rates stand as is.
_PER_FIT = ("estimation.evals_outside_optimizer", "regression.evals_per_fit",
            "regression.evals_outside_optimizer")
_RATIOS = ("distributions.kernel_recurrence_share",
           "estimation.converged_share", "regression.converged_share",
           "trace.overhead")
_RATES = {"datasets.rows_per_s": "1/s", "datasets.bytes_per_s": "B/s"}
_SECONDS = ("specfun.self_s", "distributions.kernel_self_s",
            "distributions.dp_kernel_self_s", "distributions.scalar_self_s",
            "estimation.fit_s", "estimation.optimizer_s", "regression.fit_s",
            "regression.optimizer_s", "regression.outside_optimizer_s",
            "regression.vuong_s", "datasets.load_s", "datasets.summary_s",
            "cli.self_s")
_COUNTS = ("specfun.calls", "specfun.terms", "distributions.kernel_calls",
           "distributions.kernel_elems", "distributions.kernel_floored",
           "distributions.dp_kernel_calls", "distributions.scalar_calls",
           "estimation.fits", "estimation.optimizer_calls",
           "estimation.fallback_calls", "estimation.optimizer_nit",
           "estimation.optimizer_nfev", "regression.fits",
           "regression.optimizer_nit", "regression.optimizer_nfev",
           "regression.eta_clamped", "regression.pmf_floored",
           "datasets.dropped_rows", "cli.nonzero_exits")
UNITS = {**{k: "count/op" for k in _COUNTS}, **{k: "s/op" for k in _SECONDS},
         **{k: "count/fit" for k in _PER_FIT}, **{k: "ratio" for k in _RATIOS},
         **_RATES, "cli.output_bytes": "B/op"}


def layer_metrics(spans: Spans, ops: int = 1) -> dict:
    """Per-layer metrics of a traced loop that ran ``ops`` ops."""
    out = _layer_totals(spans)
    return {k: v / ops if UNITS[k].endswith("/op") else v
            for k, v in out.items()}


def _layer_totals(spans: Spans) -> dict:
    arr = spans.arrays()
    name, parent, attrs = arr["name"], arr["parent"], arr["attrs"]
    dur = arr["end"] - arr["start"]
    self_s = self_times(parent, dur)
    names = spans.names

    def ids(pred):
        return {i for i, n in enumerate(names) if pred(n)}

    def mask(id_set):
        return np.isin(name, list(id_set)) if id_set else np.zeros(name.size, bool)

    def entries(id_set):
        """Spans of the set whose parent is outside it: calls into a layer."""
        m = mask(id_set)
        parent_in = m[np.maximum(parent, 0)] & (parent >= 0)
        return m & ~parent_in

    out = {}
    sf = ids(lambda n: n.startswith("specfun."))
    sf_mask = mask(sf)
    has_sf_child = np.zeros(name.size, bool)
    kids = sf_mask & (parent >= 0)
    has_sf_child[parent[kids]] = True
    out["specfun.calls"] = int(np.count_nonzero(entries(sf)))
    out["specfun.terms"] = int(attrs[sf_mask & ~has_sf_child, 0].sum())
    out["specfun.self_s"] = float(self_s[sf_mask].sum())

    km = mask(ids(lambda n: n == KERNEL))
    elems = attrs[km, 0].sum()
    out["distributions.kernel_calls"] = int(np.count_nonzero(km))
    out["distributions.kernel_elems"] = int(elems)
    out["distributions.kernel_self_s"] = float(self_s[km].sum())
    out["distributions.kernel_recurrence_share"] = (
        float(attrs[km, 1].sum() / elems) if elems else 0.0)
    out["distributions.kernel_floored"] = int(attrs[km, 2].sum())
    dm = mask(ids(lambda n: n == DP_KERNEL))
    out["distributions.dp_kernel_calls"] = int(np.count_nonzero(dm))
    out["distributions.dp_kernel_self_s"] = float(self_s[dm].sum())

    sc = ids(lambda n: n in {f"distributions.{f}" for f in SCALAR_FUNCS})
    out["distributions.scalar_calls"] = int(np.count_nonzero(entries(sc)))
    out["distributions.scalar_self_s"] = float(self_s[mask(sc)].sum())

    kernel_idx = np.nonzero(km)[0]

    def fit_block(prefix, fit_names, unb_name):
        fits = ids(lambda n: n in {f"{prefix}.{f}" for f in fit_names})
        opt = ids(lambda n: n == f"{prefix}.optimizer")
        fm, om = mask(fits), mask(opt)
        n_fits = int(np.count_nonzero(fm))
        unb = ids(lambda n: n == f"{prefix}.{unb_name}")
        n_unb = int(np.count_nonzero(mask(unb)))
        inside = _within(parent, name, kernel_idx, unb, set())
        outside = _within(parent, name, kernel_idx, unb, opt)
        block = {
            "fits": n_fits,
            "fit_s": float(dur[fm].sum()),
            "optimizer_s": float(dur[om].sum()),
            "optimizer_nit": int(attrs[om, 0].sum()),
            "optimizer_nfev": int(attrs[om, 1].sum()),
            "evals_per_fit": inside.sum() / n_unb if n_unb else 0.0,
            "evals_outside_optimizer": outside.sum() / n_unb if n_unb else 0.0,
            "converged_share": float(attrs[fm, 0].mean()) if n_fits else 0.0,
        }
        return block, fm, om

    est, fm, om = fit_block("estimation", ESTIMATION_FITS, "fit_mle")
    out["estimation.fits"] = est["fits"]
    out["estimation.fit_s"] = est["fit_s"]
    out["estimation.optimizer_calls"] = int(np.count_nonzero(om))
    out["estimation.fallback_calls"] = int(np.count_nonzero(attrs[om, 2] > 0))
    for key in ("optimizer_nit", "optimizer_nfev", "optimizer_s",
                "evals_outside_optimizer", "converged_share"):
        out[f"estimation.{key}"] = est[key]

    reg, fm, om = fit_block("regression", REGRESSION_FITS,
                            "fit_unb_regression")
    for key in ("fits", "fit_s", "optimizer_s", "optimizer_nit",
                "optimizer_nfev", "evals_per_fit", "evals_outside_optimizer"):
        out[f"regression.{key}"] = reg[key]
    out["regression.outside_optimizer_s"] = reg["fit_s"] - reg["optimizer_s"]
    out["regression.converged_share"] = reg["converged_share"]
    out["regression.eta_clamped"] = int(attrs[fm, 1].sum())
    out["regression.pmf_floored"] = int(attrs[fm, 2].sum())
    out["regression.vuong_s"] = float(
        dur[mask(ids(lambda n: n == "regression.vuong_test"))].sum())

    lm = mask(ids(lambda n: n == "datasets.load_csv"))
    load_s = float(dur[lm].sum())
    out["datasets.load_s"] = load_s
    out["datasets.rows_per_s"] = float(attrs[lm, 0].sum() / load_s) if load_s else 0.0
    out["datasets.bytes_per_s"] = float(attrs[lm, 1].sum() / load_s) if load_s else 0.0
    out["datasets.dropped_rows"] = int(attrs[lm, 2].sum())
    out["datasets.summary_s"] = float(dur[mask(ids(
        lambda n: n in ("datasets.summarize", "datasets.frequency_table")))].sum())

    cm = mask(ids(lambda n: n == "cli.main"))
    out["cli.self_s"] = float(self_s[cm].sum())
    out["cli.output_bytes"] = int(attrs[cm, 1].sum())
    out["cli.nonzero_exits"] = int(attrs[cm, 0].sum())
    return out
