"""Batch command line: fit, regress, compare, simulate, summarize.

Every run is reproducible byte for byte: the seed defaults to 0, text
tables print 6 significant digits, and JSON output carries full double
precision with sorted keys.  Exit codes: 0 success, 2 input or data
error, 3 convergence failure (diagnostics are still printed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import Optional

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

# Draws formatted per write by `simulate`.
_WRITE_BLOCK = 1 << 14

# Fitters by model name, looked up on their module at each call.
FIT_MODELS = {"unb": "fit_mle", "nb": "fit_nb_mle", "up": "fit_up_mle",
              "geometric": "fit_geometric"}
REG_MODELS = {"unb": "fit_unb_regression", "nb": "fit_nb_regression",
              "up": "fit_up_regression"}


def _num(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.6g}"


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
    body = {"schema_version": SCHEMA_VERSION, "command": config.subcommand}
    body.update(payload)
    if config.fmt == "json":
        out = json.dumps(_jsonable(body), sort_keys=True, indent=2)
    else:
        out = "\n".join(text_lines)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _raw_count_file(path) -> Optional[np.ndarray]:
    """A headerless single column of counts (as written by `simulate`)."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            first = fh.readline().strip()
            if not first:
                return None
            float(first)
            fh.seek(0)
            vals = _count_column(fh)
    except (OSError, ValueError):
        return None
    ints, bad = ds._rounded_counts(vals)
    return None if np.any(bad) else ints.astype(np.int64)


def _count_column(fh) -> np.ndarray:
    """The numbers of a text file, one a line, blank lines skipped.  numpy's
    reader takes the file; where it declines, a loop over the lines reads
    it as ``float`` does (``1_000`` among others) or raises ValueError."""
    try:
        vals = np.loadtxt(fh, comments=None, ndmin=2)
        if vals.shape[1] == 1:
            return vals[:, 0]
    except ValueError:
        pass
    fh.seek(0)
    return np.array([float(v) for v in map(str.strip, fh) if v])


def _load_counts(config: argparse.Namespace):
    if not config.input:
        raise DataError("--input is required")
    columns = config.covariates + ((config.group_by,) if config.group_by else ())
    if not columns:
        raw = _raw_count_file(config.input)
        if raw is not None:
            name = config.response or "count"
            config.response = name
            data = ds.Dataset(column_names=(name,),
                              columns={name: raw.astype(float)}, n=raw.size)
            return data, raw
    if not config.response:
        raise DataError("--response is required")
    data = ds.load_csv(config.input, config.response, columns,
                       delimiter=config.delimiter)
    return data, ds.response_counts(data, config.response)


def _fitter(module, names: dict, model: str):
    if model not in names:
        raise DataError(f"unknown model {model!r}; choose from {', '.join(names)}")
    return getattr(module, names[model])


def cmd_fit(config: argparse.Namespace) -> int:
    _, counts = _load_counts(config)
    fitters = [_fitter(est, FIT_MODELS, m) for m in config.models]
    results = []
    lines = [f"fit: response={config.response} n={counts.size}", ""]
    all_converged = True
    for model, fitter in zip(config.models, fitters):
        fit = fitter(counts, level=config.level)
        all_converged &= fit.converged
        pd = asdict(fit.params)
        rec = {
            "model": model,
            "estimates": pd,
            "std_errors": list(fit.std_errors) if fit.std_errors else None,
            "conf_intervals": [list(ci) for ci in fit.conf_intervals]
            if fit.conf_intervals else None,
            "log_likelihood": fit.log_likelihood,
            "aic": fit.aic,
            "converged": fit.converged,
            "method": fit.method,
        }
        results.append(rec)
        lines.append(f"model {model} ({fit.method})"
                     + ("" if fit.converged else "  [NOT CONVERGED]"))
        names = list(pd)
        for i, name in enumerate(names):
            se = fit.std_errors[i] if fit.std_errors else None
            ci = fit.conf_intervals[i] if fit.conf_intervals else None
            line = f"  {name:<10} {_num(pd[name]):>12}"
            if se is not None:
                line += f"  se={_num(se):>10}"
            if ci is not None:
                line += f"  ci=[{_num(ci[0])}, {_num(ci[1])}]"
            lines.append(line)
        lines.append(f"  loglik     {_num(fit.log_likelihood):>12}")
        lines.append(f"  aic        {_num(fit.aic):>12}")
        lines.append("")
    _emit(config, {"level": config.level, "results": results}, lines)
    return EXIT_OK if all_converged else EXIT_CONVERGENCE


def _regression_record(fit: reg.RegressionFit) -> dict:
    coef_names = list(fit.coef_names)
    if fit.r is not None:
        coef_names = coef_names + ["r"]
    estimates = list(fit.beta) + ([fit.r] if fit.r is not None else [])
    return {
        "model": fit.model,
        "coefficients": coef_names,
        "estimates": estimates,
        "std_errors": list(fit.std_errors),
        "wald_t": list(fit.wald_t),
        "p_values": list(fit.p_values),
        "log_likelihood": fit.log_likelihood,
        "aic": fit.aic,
        "converged": fit.converged,
    }


def _regression_lines(fit: reg.RegressionFit) -> list:
    lines = [f"model {fit.model}"
             + ("" if fit.converged else "  [NOT CONVERGED]"),
             f"  {'coefficient':<12} {'estimate':>12} {'se':>12} "
             f"{'wald_t':>10} {'p_value':>10}"]
    rec = _regression_record(fit)
    for i, name in enumerate(rec["coefficients"]):
        lines.append(f"  {name:<12} {_num(rec['estimates'][i]):>12} "
                     f"{_num(rec['std_errors'][i]):>12} "
                     f"{_num(rec['wald_t'][i]):>10} {_num(rec['p_values'][i]):>10}")
    lines.append(f"  loglik {_num(fit.log_likelihood)}   aic {_num(fit.aic)}")
    lines.append("")
    return lines


def cmd_regress(config: argparse.Namespace) -> int:
    if not config.covariates:
        raise DataError("--covariates is required for regress")
    data, _ = _load_counts(config)
    spec = reg.RegressionSpec(response=config.response,
                              covariates=config.covariates)
    results = []
    lines = [f"regress: response={config.response} "
             f"covariates={','.join(config.covariates)} n={data.n}", ""]
    all_converged = True
    for model in config.models:
        fit = _fitter(reg, REG_MODELS, model)(data, spec)
        all_converged &= fit.converged
        results.append(_regression_record(fit))
        lines.extend(_regression_lines(fit))
    _emit(config, {"level": config.level, "results": results}, lines)
    return EXIT_OK if all_converged else EXIT_CONVERGENCE


def cmd_compare(config: argparse.Namespace) -> int:
    if not (2 <= len(config.models) <= 3):
        raise DataError("compare needs two or three models; the first is the reference")
    data, counts = _load_counts(config)
    use_regression = bool(config.covariates)
    pmfs = {}
    aic_rows = []
    all_converged = True
    for model in config.models:
        if use_regression:
            spec = reg.RegressionSpec(response=config.response,
                                      covariates=config.covariates)
            fit = _fitter(reg, REG_MODELS, model)(data, spec)
            pmfs[model] = reg.per_observation_pmf(fit, data, spec)
        else:
            fit = _fitter(est, FIT_MODELS, model)(counts, level=config.level)
            family = est._FAMILIES[model]
            eta, r = family.eta_of(fit.params)
            pmfs[model] = np.exp(family.logpmf(eta, r, counts)[0])
        ll, aic, conv = fit.log_likelihood, fit.aic, fit.converged
        all_converged &= conv
        aic_rows.append({"model": model, "log_likelihood": ll, "aic": aic,
                         "converged": conv})

    reference = config.models[0]
    vuong_rows = []
    for other in config.models[1:]:
        entry = {"reference": reference, "against": other}
        try:
            v = reg.vuong_test(pmfs[reference], pmfs[other])
            entry.update({"z": v.z, "omega": v.omega, "p_value": v.p_value,
                          "n": v.n, "degenerate": False})
        except DegenerateVuongError as exc:
            entry.update({"degenerate": True, "note": str(exc)})
        vuong_rows.append(entry)

    lines = [f"compare: response={config.response} "
             f"({'regression' if use_regression else 'marginal'} fits)", "",
             f"  {'model':<10} {'loglik':>14} {'aic':>14}"]
    for row in aic_rows:
        lines.append(f"  {row['model']:<10} {_num(row['log_likelihood']):>14} "
                     f"{_num(row['aic']):>14}"
                     + ("" if row["converged"] else "  [NOT CONVERGED]"))
    lines.append("")
    for entry in vuong_rows:
        if entry.get("degenerate"):
            lines.append(f"  vuong {entry['reference']} vs {entry['against']}: "
                         f"degenerate ({entry['note']})")
        else:
            lines.append(f"  vuong {entry['reference']} vs {entry['against']}: "
                         f"z={_num(entry['z'])} p={_num(entry['p_value'])}")
    _emit(config, {"level": config.level, "fits": aic_rows, "vuong": vuong_rows},
          lines)
    return EXIT_OK if all_converged else EXIT_CONVERGENCE


def cmd_simulate(config: argparse.Namespace) -> int:
    if config.r is None or config.p is None or config.n is None:
        raise DataError("simulate requires --r, --p and --n")
    if not config.output:
        raise DataError("simulate requires --output")
    params = dist.UnbParams(config.r, config.p)
    draws = dist.unb_sample(params, config.n, config.seed)
    try:
        with open(config.output, "w", encoding="utf-8") as fh:
            # A block at a time: the text of every draw at once would be
            # the run's largest allocation.
            for i in range(0, draws.size, _WRITE_BLOCK):
                block = draws[i:i + _WRITE_BLOCK].tolist()
                fh.write("\n".join(map(str, block)) + "\n")
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
    data, _ = _load_counts(config)
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
    lines.append("")
    lines.append(f"  {'value':>6} {'count':>8} {'rel_freq':>10}")
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
    return "\t" if text == "\\t" or text.lower() == "tab" else text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unbcount",
        description="Count-model toolkit: uniform-negative-binomial fitting, "
                    "regression, and model comparison on CSV data.")
    # fit, regress and compare read group_by; summarize reads covariates
    parser.set_defaults(covariates=(), group_by=None)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, *, covariates=True, models=None):
        p.add_argument("--input", help="input CSV path")
        p.add_argument("--response", help="response column name")
        if covariates:
            p.add_argument("--covariates", type=_names, default="",
                           help="comma-separated covariate column names")
        if models:
            p.add_argument("--models", type=_names, default=models,
                           help="comma-separated model list")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--level", type=float, default=0.95,
                       help="confidence level (default 0.95)")
        p.add_argument("--format", dest="fmt", choices=("text", "json"),
                       default="text")
        p.add_argument("--output", help="write output to this path instead of stdout")
        p.add_argument("--delimiter", type=_delimiter, default=",",
                       help="field delimiter (e.g. ',', ';', tab or \\t)")

    add_common(sub.add_parser("fit", help="fit marginal count models"),
               models="unb")
    add_common(sub.add_parser("regress", help="fit log-link count regressions"),
               models="unb")
    add_common(sub.add_parser("compare",
                              help="AIC table plus Vuong tests, first model "
                                   "is the reference"),
               models="unb,nb")
    sim = sub.add_parser("simulate", help="draw a synthetic sample")
    sim.add_argument("--r", type=float)
    sim.add_argument("--p", type=float)
    sim.add_argument("--n", type=int)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", required=False)
    sim.add_argument("--format", dest="fmt", choices=("text", "json"),
                     default="text")
    summ = sub.add_parser("summarize", help="descriptive summaries and "
                                            "relative-frequency table")
    add_common(summ, covariates=False)
    summ.add_argument("--group-by", dest="group_by",
                      help="binary 0/1 column to split the summaries by")
    return parser


_DISPATCH = {
    "fit": cmd_fit,
    "regress": cmd_regress,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
    "summarize": cmd_summarize,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.subcommand](args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (DataError, UnbError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
