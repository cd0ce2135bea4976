"""Batch command line: fit, regress, compare, simulate, summarize.

Every run is reproducible byte for byte: `simulate`'s seed defaults to 0,
text tables print 6 significant digits, and JSON output carries full double
precision with sorted keys.  Exit codes: 0 success, 2 input or data
error, 3 convergence failure (diagnostics are still printed).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import datasets as ds
from . import distributions as dist
from . import estimation as est
from . import regression as reg
from .errors import DataError, DegenerateVuongError, NonConvergenceError, UnbError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CONVERGENCE = 3

# Fitters by model name, looked up on their module at each call.
FIT_MODELS = {"unb": "fit_mle", "nb": "fit_nb_mle", "up": "fit_up_mle",
              "geometric": "fit_geometric"}
REG_MODELS = {"unb": "fit_unb_regression", "nb": "fit_nb_regression",
              "up": "fit_up_regression"}


def _num(x) -> str:
    return "-" if x is None else f"{x:.6g}"


def _jsonable(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _emit(config: argparse.Namespace, payload: dict, text_lines: list):
    body = {"schema_version": SCHEMA_VERSION, "command": config.subcommand,
            **payload}
    if config.fmt == "json":
        out = json.dumps(_jsonable(body), sort_keys=True, indent=2)
    else:
        out = "\n".join(text_lines)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _load_counts(config: argparse.Namespace) -> ds.Dataset:
    """--input by ``load_csv``; its response column becomes --response."""
    if not config.input:
        raise DataError("--input is required")
    columns = config.covariates + ((config.group_by,) if config.group_by else ())
    data = ds.load_csv(config.input, config.response, columns,
                       delimiter=config.delimiter)
    config.response = data.column_names[0]
    return data


def _fit_models(config: argparse.Namespace, *, pmfs: bool = False, **options):
    """Fits of each of --models to --input, in order: the regression fitters
    when --covariates are given, the marginal fitters, with ``options``,
    otherwise.  Every fitter is resolved before the first fit.  Returns the
    data, the fits and, with ``pmfs``, each fit's per-observation pmf."""
    if not config.models:
        raise DataError("--models names no model")
    regression = bool(config.covariates)
    module, names = (reg, REG_MODELS) if regression else (est, FIT_MODELS)
    for model in config.models:
        if model not in names:
            raise DataError(f"unknown model {model!r}; choose from {', '.join(names)}")
    fitters = [getattr(module, names[m]) for m in config.models]
    data = _load_counts(config)
    if regression:
        spec = reg.RegressionSpec(response=config.response,
                                  covariates=config.covariates)
        fits = [fitter(data, spec) for fitter in fitters]
    else:
        counts = data.columns[config.response]
        fits = [fitter(counts, **options) for fitter in fitters]
    if not pmfs:
        return data, fits, None
    if regression:
        return data, fits, [reg.per_observation_pmf(fit, data, spec) for fit in fits]
    # The fits' log pmfs at the distinct counts, spread to the observations
    # through their places among those counts.
    inverse = est._distinct(counts)[1]
    return data, fits, [np.exp(fit.log_pmf)[inverse] for fit in fits]


def _exit_code(fits) -> int:
    return EXIT_OK if all(fit.converged for fit in fits) else EXIT_CONVERGENCE


def _mark(converged) -> str:
    return "" if converged else "  [NOT CONVERGED]"


def cmd_fit(config: argparse.Namespace) -> int:
    data, fits, _ = _fit_models(config, level=config.level)
    results = []
    lines = [f"fit: response={config.response} n={data.n}", ""]
    for model, fit in zip(config.models, fits):
        pd = asdict(fit.params)
        results.append({
            "model": model,
            "estimates": pd,
            "std_errors": list(fit.std_errors),
            "conf_intervals": [list(ci) for ci in fit.conf_intervals],
            "log_likelihood": fit.log_likelihood,
            "aic": fit.aic,
            "converged": fit.converged,
            "method": fit.method,
        })
        lines.append(f"model {model} ({fit.method})" + _mark(fit.converged))
        for (name, value), se, ci in zip(pd.items(), fit.std_errors,
                                         fit.conf_intervals):
            lines.append(f"  {name:<10} {_num(value):>12}  se={_num(se):>10}"
                         f"  ci=[{_num(ci[0])}, {_num(ci[1])}]")
        lines += [f"  loglik     {_num(fit.log_likelihood):>12}",
                  f"  aic        {_num(fit.aic):>12}", ""]
    _emit(config, {"level": config.level, "results": results}, lines)
    return _exit_code(fits)


def _regression_record(fit: reg.RegressionFit) -> dict:
    """r's row, where there is one, has no Wald test: None, printed ``-``."""
    has_r = fit.r is not None
    return {
        "model": fit.model,
        "coefficients": list(fit.coef_names) + ["r"] * has_r,
        "estimates": list(fit.beta) + [fit.r] * has_r,
        "std_errors": list(fit.std_errors),
        "wald_t": list(fit.wald_t) + [None] * has_r,
        "p_values": list(fit.p_values) + [None] * has_r,
        "log_likelihood": fit.log_likelihood,
        "aic": fit.aic,
        "converged": fit.converged,
    }


def _regression_lines(rec: dict) -> list:
    lines = [f"model {rec['model']}" + _mark(rec["converged"]),
             f"  {'coefficient':<12} {'estimate':>12} {'se':>12} "
             f"{'wald_t':>10} {'p_value':>10}"]
    for i, name in enumerate(rec["coefficients"]):
        lines.append(f"  {name:<12} {_num(rec['estimates'][i]):>12} "
                     f"{_num(rec['std_errors'][i]):>12} "
                     f"{_num(rec['wald_t'][i]):>10} {_num(rec['p_values'][i]):>10}")
    return lines + [f"  loglik {_num(rec['log_likelihood'])}   "
                    f"aic {_num(rec['aic'])}", ""]


def cmd_regress(config: argparse.Namespace) -> int:
    if not config.covariates:
        raise DataError("--covariates is required for regress")
    data, fits, _ = _fit_models(config)
    results = [_regression_record(fit) for fit in fits]
    lines = [f"regress: response={config.response} "
             f"covariates={','.join(config.covariates)} n={data.n}", ""]
    for rec in results:
        lines.extend(_regression_lines(rec))
    _emit(config, {"results": results}, lines)
    return _exit_code(fits)


def cmd_compare(config: argparse.Namespace) -> int:
    if not (2 <= len(config.models) <= 3):
        raise DataError("compare needs two or three models; the first is the reference")
    _, fits, pmfs = _fit_models(config, pmfs=True)
    aic_rows, vuong_rows = [], []
    lines = [f"compare: response={config.response} "
             f"({'regression' if config.covariates else 'marginal'} fits)", "",
             f"  {'model':<10} {'loglik':>14} {'aic':>14}"]
    for model, fit in zip(config.models, fits):
        aic_rows.append({"model": model, "log_likelihood": fit.log_likelihood,
                         "aic": fit.aic, "converged": fit.converged})
        lines.append(f"  {model:<10} {_num(fit.log_likelihood):>14} "
                     f"{_num(fit.aic):>14}" + _mark(fit.converged))
    lines.append("")
    reference = config.models[0]
    for other, pmf in zip(config.models[1:], pmfs[1:]):
        entry = {"reference": reference, "against": other}
        line = f"  vuong {reference} vs {other}: "
        try:
            v = reg.vuong_test(pmfs[0], pmf)
        except DegenerateVuongError as exc:
            entry.update({"degenerate": True, "note": str(exc)})
            line += f"degenerate ({exc})"
        else:
            entry.update({"z": v.z, "omega": v.omega, "p_value": v.p_value,
                          "n": v.n, "degenerate": False})
            line += f"z={_num(v.z)} p={_num(v.p_value)}"
        vuong_rows.append(entry)
        lines.append(line)
    _emit(config, {"fits": aic_rows, "vuong": vuong_rows}, lines)
    return _exit_code(fits)


def cmd_simulate(config: argparse.Namespace) -> int:
    if config.r is None or config.p is None or config.n is None:
        raise DataError("simulate requires --r, --p and --n")
    if not config.output:
        raise DataError("simulate requires --output")
    params = dist.UnbParams(config.r, config.p)
    draws = dist.unb_sample(params, config.n, config.seed)
    try:
        ds.write_counts(config.output, draws)
        sidecar = {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate",
            "params": {"r": config.r, "p": config.p},
            "n": config.n,
            "seed": config.seed,
        }
        with open(config.output + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(_jsonable(sidecar), fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise DataError(f"cannot write {config.output}: {exc}") from exc
    print(f"wrote {config.n} draws to {config.output} (seed={config.seed})")
    return EXIT_OK


def cmd_summarize(config: argparse.Namespace) -> int:
    data = _load_counts(config)
    groups = ds.summarize(data, config.response, config.group_by)
    freq = ds.frequency_table(data, config.response)
    lines = [f"summarize: response={config.response} n={data.n}", "",
             f"  {'group':<14} {'n':>6} {'max':>4} {'min':>4} {'mean':>10} "
             f"{'variance':>10} {'ID':>8} {'zero':>8}"]
    recs = []
    for g in groups:
        recs.append({
            "group": g.group_label, "n": g.n, "max": g.max, "min": g.min,
            "mean": g.mean, "variance": g.variance,
            "dispersion_index": g.dispersion_index,
            "zero_proportion": g.zero_proportion,
        })
        lines.append(f"  {g.group_label:<14} {g.n:>6} {g.max:>4} {g.min:>4} "
                     f"{_num(g.mean):>10} {_num(g.variance):>10} "
                     f"{_num(g.dispersion_index):>8} {_num(g.zero_proportion):>8}")
    lines += ["", f"  {'value':>6} {'count':>8} {'rel_freq':>10}"]
    for value, count, rel in freq:
        lines.append(f"  {value:>6} {count:>8} {_num(rel):>10}")
    _emit(config, {"groups": recs,
                   "frequencies": [{"value": v, "count": c, "rel_freq": r}
                                   for v, c, r in freq]}, lines)
    return EXIT_OK


def _names(text: str) -> tuple:
    """A comma-separated list, blanks dropped."""
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _delimiter(text: str) -> str:
    """One character other than a line break; ``tab`` and ``\\t`` name the tab."""
    text = "\t" if text == "\\t" or text.lower() == "tab" else text
    if len(text) != 1 or text in "\r\n":
        raise argparse.ArgumentTypeError(
            f"must be one character other than a line break, got {text!r}")
    return text


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args
    gives each run a namespace of its own."""
    parser = argparse.ArgumentParser(
        prog="unbcount",
        description="Count-model toolkit: uniform-negative-binomial fitting, "
                    "regression, and model comparison on CSV data.")
    # _load_counts reads both; fit and summarize have no --covariates, and
    # only summarize has --group-by
    parser.set_defaults(covariates=(), group_by=None)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_input(p, run, *, models=None, covariates=False, level=False):
        """The flags of a subcommand that reads --input and prints a report."""
        p.set_defaults(run=run)
        p.add_argument("--input", help="input CSV path")
        p.add_argument("--response", help="response column name")
        if covariates:
            p.add_argument("--covariates", type=_names, default="",
                           help="comma-separated covariate column names")
        if models:
            p.add_argument("--models", type=_names, default=models,
                           help="comma-separated model list")
        if level:
            p.add_argument("--level", type=float, default=0.95,
                           help="confidence level (default 0.95)")
        p.add_argument("--format", dest="fmt", choices=("text", "json"),
                       default="text")
        p.add_argument("--output", help="write output to this path instead of stdout")
        p.add_argument("--delimiter", type=_delimiter, default=",",
                       help="field delimiter (e.g. ',', ';', tab or \\t)")

    add_input(sub.add_parser("fit", help="fit marginal count models"),
              cmd_fit, models="unb", level=True)
    add_input(sub.add_parser("regress", help="fit log-link count regressions"),
              cmd_regress, models="unb", covariates=True)
    add_input(sub.add_parser("compare",
                             help="AIC table plus Vuong tests, first model "
                                  "is the reference"),
              cmd_compare, models="unb,nb", covariates=True)
    sim = sub.add_parser("simulate", help="draw a synthetic sample")
    sim.set_defaults(run=cmd_simulate)
    sim.add_argument("--r", type=float)
    sim.add_argument("--p", type=float)
    sim.add_argument("--n", type=int)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", required=False)
    summ = sub.add_parser("summarize", help="descriptive summaries and "
                                            "relative-frequency table")
    add_input(summ, cmd_summarize)
    summ.add_argument("--group-by", dest="group_by",
                      help="binary 0/1 column to split the summaries by")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (DataError, UnbError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
