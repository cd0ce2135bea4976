"""Timed closed loop for one workload, run in a process of its own.

Usage: python3 worker.py SPEC.json

The worker imports unbcount once and then forks a child for each pass,
so every pass runs in a fresh process without paying the import again.
One client issues one op at a time.  Each untraced child makes one pass
over the workload's op list: at least ``min_passes`` of them, and more,
up to twice as many, until ``seconds`` of op time are done, while less
than ``budget_s`` of op time is done and ``deadline`` (a
``time.monotonic`` value) has not passed.  Then, as the spec asks, a
probe child makes one pass over the workload's known-defect ops
(``gen.KNOWN_DEFECTS``), which the others leave out, and a traced child
makes whole passes until ``seconds`` of op time are done.  A child still
running at the deadline is killed and reaped.  Every op record, with the
outputs the oracle needs, is appended to the child's events file in
``spec["out"]`` as a pickle as soon as it exists, so a stopped child
still leaves what it did.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import pickle
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy import special

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402
import tracing  # noqa: E402

MODULES = ("specfun", "distributions", "estimation", "regression",
           "datasets", "cli")
POLL_S = 0.05
# A fixed computation that does not touch unbcount, timed at the start and
# at the end of every pass: interpreted Python (parse and sum a text) and
# vectorised numpy and scipy.special, the mix the ops run.  run.py scales
# each pass's op latencies by a nominal time over this one, which cancels
# the machine's drift (see README.md).
REF_TEXT = ",".join(str(v) for v in range(20_000))
REF_X = np.random.default_rng(0).random(4406) * 10.0
REF_REPEATS = 22


def import_unbcount(src: str) -> dict:
    sys.path.insert(0, src)
    pkg = importlib.import_module("unbcount")
    if not Path(pkg.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"unbcount imported from {pkg.__file__}, not {src}")
    return {m: importlib.import_module(f"unbcount.{m}") for m in MODULES}


def marginal_ops(m: dict, inputs: Path) -> list:
    dist, est = m["distributions"], m["estimation"]

    def make(sample):
        top = int(sample.max())

        def op():
            fit = est.fit_mle(sample)
            pmf = np.array([dist.unb_pmf(fit.params, x) for x in range(top + 1)])
            cdf = dist.unb_cdf(fit.params, top)
            return {"r": fit.params.r, "p": fit.params.p,
                    "loglik": fit.log_likelihood, "converged": fit.converged,
                    "method_trail": fit.diagnostics.get("messages", []),
                    "pmf": pmf, "cdf": cdf}
        return op

    files = json.loads((inputs / "manifest.json").read_text())["files"]
    return [(label, make(np.load(inputs / name))) for label, name in files.items()]


def nmes_ops(m: dict, inputs: Path) -> list:
    reg, ds = m["regression"], m["datasets"]
    spec = reg.RegressionSpec(gen.RESPONSE, gen.COVARIATES)
    fitters = (("unb", "fit_unb_regression"), ("nb", "fit_nb_regression"),
               ("up", "fit_up_regression"))

    def make(data):
        def op():
            fits = {k: getattr(reg, f)(data, spec) for k, f in fitters}
            pmfs = {k: reg.per_observation_pmf(fit, data, spec)
                    for k, fit in fits.items()}
            vuong = {other: reg.vuong_test(pmfs["unb"], pmfs[other]).z
                     for other in ("nb", "up")}
            return {"fits": {k: {"beta": f.beta, "r": f.r,
                                 "loglik": f.log_likelihood,
                                 "converged": f.converged,
                                 "grad_norm": f.diagnostics["grad_norm"]}
                             for k, f in fits.items()},
                    "pmfs": pmfs, "vuong_z": vuong}
        return op

    ops = []
    for label, i in gen.NMES_LABELS.items():
        covs = np.load(inputs / f"covs{i}.npy")
        y = np.load(inputs / f"y{i}.npy")
        columns = {gen.RESPONSE: y.astype(float)}
        columns.update({c: covs[:, j] for j, c in enumerate(gen.COVARIATES)})
        data = ds.Dataset(column_names=(gen.RESPONSE,) + gen.COVARIATES,
                          columns=columns, n=y.size)
        ops.append((label, make(data)))
    return ops


def cli_argvs(inputs: Path):
    """The CLI invocations of one pass, then the known-defect probe.  Each
    op adds ``--output`` to a file of its own; ``{prev}`` is the previous
    op's output, the simulated count file."""
    sim = gen.SIM_ARGS
    csv = str(inputs / "table.csv")
    return [
        ("summarize", ["summarize", "--input", csv, "--response", gen.RESPONSE,
                       "--group-by", "MALE", "--format", "json"]),
        ("fit_csv", ["fit", "--input", csv, "--response", gen.RESPONSE,
                     "--models", "unb,nb,up,geometric", "--format", "json"]),
        ("compare_csv", ["compare", "--input", csv, "--response", gen.RESPONSE,
                         "--models", "unb,nb,up", "--format", "json"]),
        ("simulate", ["simulate", "--r", str(sim["r"]), "--p", str(sim["p"]),
                      "--n", str(sim["n"]), "--seed", str(sim["seed"])]),
        ("fit_counts", ["fit", "--input", "{prev}", "--models",
                        "unb,nb,up,geometric", "--format", "json"]),
        ("fit_nb_probe", ["fit", "--input", str(inputs / "nb_probe.txt"),
                          "--models", "unb,nb,up,geometric", "--format",
                          "json"]),
    ]


def cli_ops(m: dict, inputs: Path, name: str) -> list:
    cli = m["cli"]
    out_dir = inputs / f"cli_out-{name}"
    out_dir.mkdir(exist_ok=True)
    counter = [0]
    last = [None]

    def make(argv):
        def op():
            counter[0] += 1
            out = str(out_dir / f"op{counter[0]}.out")
            args = [last[0] if a == "{prev}" else a for a in argv]
            args += ["--output", out]
            last[0] = out
            return {"exit": cli.main(args), "argv": args, "output": out}
        return op

    return [(label, make(argv)) for label, argv in cli_argvs(inputs)]


def run_loop(ops: list, emit, seconds: float) -> int:
    """Whole passes over ``ops``, at least one, until ``seconds`` of op time
    are done.  Returns the ops run."""
    op_time = 0.0
    for n_pass in itertools.count(1):
        for label, op in ops:
            start = time.perf_counter()
            try:
                out, error = op(), None
            except Exception:  # an op that raises is a failed op, not a crash
                out, error = None, traceback.format_exc()
            latency = time.perf_counter() - start
            op_time += latency
            emit({"label": label, "latency": latency, "out": out,
                  "error": error})
        if op_time >= seconds:
            emit({"passes": n_pass})
            return n_pass * len(ops)


def reference(warm: bool = False) -> float:
    """Seconds the reference computation takes now.  ``warm`` runs it once
    untimed first: a freshly forked child pays copy-on-write page faults on
    its first writes, and a pass's first reference read 8% above its last
    (median of 160 passes)."""
    if warm:
        reference()
    start = time.perf_counter()
    for _ in range(REF_REPEATS):
        acc = 0.0
        for v in [float(s) for s in REF_TEXT.split(",")]:
            acc += v * 0.5
        for _ in range(20):
            special.gammaln(REF_X + acc % 1.0).sum()
            np.log1p(np.exp(-REF_X)).sum()
    return time.perf_counter() - start


def read_events(path: Path) -> dict:
    """One child's event stream: its op records, passes (None when it was
    stopped), reference times at its start and end, peak RSS and per-layer
    metrics."""
    out = {"records": [], "passes": None, "ref_start": None, "ref_end": None,
           "peak_rss_mb": None, "layers": None}
    if not path.exists():
        return out
    with open(path, "rb") as fh:
        while True:
            try:
                event = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):
                break  # the end, or a write cut short by the stop
            if "label" in event:
                out["records"].append(event)
            elif "passes" in event:
                out["passes"] = event["passes"]
            else:
                out.update(event)
    return out


def workload_ops(modules: dict, spec: dict, name: str, probe: bool) -> list:
    """The ops of one child: the workload's known-defect ops when ``probe``,
    every other op otherwise."""
    inputs = Path(spec["inputs"])
    workload = spec["workload"]
    if workload == "marginal_grid":
        ops = marginal_ops(modules, inputs)
    elif workload == "nmes_regress":
        ops = nmes_ops(modules, inputs)
    else:
        ops = cli_ops(modules, inputs, name)
    known = gen.KNOWN_DEFECTS.get(workload, {})
    return [(label, op) for label, op in ops if (label in known) == probe]


def run_child(spec: dict, name: str, body) -> dict:
    """Fork a child that calls ``body(emit)``; wait for it, killing it at
    the deadline; return its events."""
    path = Path(spec["out"]) / f"events-{name}.pkl"
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with open(path, "wb") as fh:
                def emit(event):
                    pickle.dump(event, fh)
                    fh.flush()

                body(emit)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    while not os.waitpid(pid, os.WNOHANG)[0]:
        if time.monotonic() >= spec["deadline"]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            break
        time.sleep(POLL_S)
    return read_events(path)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    modules = import_unbcount(spec["src"])

    def plain_pass(name):
        def body(emit):
            ops = workload_ops(modules, spec, name, False)
            emit({"ref_start": reference(warm=True)})
            run_loop(ops, emit, 0.0)
            emit({"ref_end": reference()})
            emit({"peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0})
        return body

    def probe_pass(emit):
        run_loop(workload_ops(modules, spec, "probe", True), emit, 0.0)

    def traced_loop(emit):
        ops = workload_ops(modules, spec, "trace", False)
        emit({"ref_start": reference(warm=True)})
        tracer = tracing.Tracer(modules)
        tracer.install()
        try:
            n_ops = run_loop(ops, emit, spec["seconds"])
        finally:
            tracer.uninstall()
        emit({"ref_end": reference()})
        tracer.spans.save(spec["spans"])
        emit({"layers": tracing.layer_metrics(tracer.spans, n_ops)})

    passes, op_time = 0, 0.0
    while ((passes < spec["min_passes"] or op_time < spec["seconds"])
           and passes < 2 * spec["min_passes"] and op_time < spec["budget_s"]
           and time.monotonic() < spec["deadline"]):
        name = f"pass{passes}"
        events = run_child(spec, name, plain_pass(name))
        op_time += sum(r["latency"] for r in events["records"])
        passes += 1
    if spec["probe"] and time.monotonic() < spec["deadline"]:
        run_child(spec, "probe", probe_pass)
    if spec["trace"] and time.monotonic() < spec["deadline"]:
        run_child(spec, "trace", traced_loop)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
