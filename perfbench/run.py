"""Benchmark of unbcount: seeded workloads, oracle checks, end-to-end and
per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload marginal_grid --seed 1 --seconds 10 --trace 0

``--workload all`` runs the three workloads in turn.

Steps: write the workload's inputs from the seed (``gen``); time several
fresh-interpreter imports of unbcount (``setup_s``, their median); run the
closed loop in a worker process of its own, which imports unbcount once
and forks a fresh child for each pass over the op list, so the peak
resident set excludes the generator (``worker``); check every output
against mpmath (``oracle``); print a report and, as the last line of
standard output, one JSON object.  An op's latency is its median over the
passes; ``ops_per_s`` is ops per pass over the sum of those, ``op_p50_s``
their median.  The report also gives ``op_tail_s`` over every op run and
``failed_share``.
A workload's known-defect ops (``gen.KNOWN_DEFECTS``) run once, in a probe
child after the timed passes; they are reported by name but left out of
the timed loop, ``correct`` and ``failed``.
``--trace 1`` adds a traced child after them and reports the per-layer
metrics instead of the end-to-end ones, with the probe counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import signal
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("marginal_grid", "nmes_regress", "cli_batch")
SETUP_REPEATS = 3
# Untraced passes in a run: at least this many, and more, up to twice as
# many, until --seconds of op time are done.  A pass is one child process.
MIN_PASSES = {"marginal_grid": 4, "nmes_regress": 3, "cli_batch": 5}
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A run must end within 180 s.  No untraced pass starts once
# LOOP_BUDGET_S of op time is done, so a program several times slower
# still gives figures, from fewer passes; any child still running
# RUN_LIMIT_S after the run began is stopped, and the ops it finished are
# still reported.  The worker itself is killed, with its process group,
# KILL_GRACE_S after that.
LOOP_BUDGET_S = 75.0
RUN_LIMIT_S = 160.0
KILL_GRACE_S = 5.0
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import unbcount, unbcount.cli; "
              "print(repr(time.perf_counter() - t))")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Nominal time of worker.reference(), about its median on the build
# machine.  The gated latencies are measured ones scaled by this over the
# median reference time of the run's passes.
REF_NOMINAL_S = 0.2
GATED = ("setup_s", "ops_per_s_cal", "op_p50_s_cal", "peak_rss_mb")
PROBE_UNITS = {"known_defect.failed": "count", "known_defect.rejected": "count"}


def child_env() -> dict:
    """Environment for child interpreters: one BLAS thread.

    One client runs one op at a time.  With two OpenBLAS threads on a
    2-core machine the UNB regression burned 1.7x its wall time in CPU and
    repeated fits of one dataset varied by +-12%; with one thread they ran
    faster and varied by +-4%.
    """
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    return env


def machine_facts() -> dict:
    import mpmath
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": {v: env[v] for v in BLAS_VARS},
        "git_commit": commit,
        "note": ("page cache not dropped and CPUs not pinned (both need "
                 "privileges the benchmark does not take): cli_batch file "
                 "reads are warm-cache"),
    }


def measure_setup(src: Path, env: dict) -> list:
    """Import time of unbcount with every submodule, in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src)],
                              capture_output=True, text=True, env=env,
                              timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def op_tail(latencies: list):
    """(percentile, value, ops beyond) for the highest ladder percentile
    with at least ten ops beyond it (nearest rank); None below 20 ops."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    for pct in reversed(TAIL_LADDER):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return None


class Checker:
    """Runs the oracle on each op's output once per distinct output."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.cache = {}
        if workload == "marginal_grid":
            self.samples = gen.marginal_samples()
        elif workload == "nmes_regress":
            self.data = {label: gen.nmes_dataset(i)
                         for label, i in gen.NMES_LABELS.items()}
        else:
            self.covs, self.y = gen.cli_table(seed)
            keep = ~np.isnan(self.y)
            self.csv_counts = self.y[keep].astype(np.int64)
            self.estimates = {}

    def _cached(self, key, fn):
        if key not in self.cache:
            self.cache[key] = fn()
        return self.cache[key]

    def check(self, rec: dict):
        """(failure reasons, oracle mismatches) of one op record."""
        if rec["error"] is not None:
            last = rec["error"].strip().splitlines()[-1]
            return [f"raised {last}"], [f"raised {last}"]
        out, label = rec["out"], rec["label"]
        if self.workload == "marginal_grid":
            key = (label, hashlib.sha256(pickle.dumps(out)).hexdigest())
            bad = self._cached(key, lambda: oracle.check_marginal(
                self.samples[label], out))
            fails = [] if out["converged"] else [
                "converged=False (" + " / ".join(out["method_trail"]) + ")"]
            return fails + bad, bad
        if self.workload == "nmes_regress":
            key = (label, hashlib.sha256(pickle.dumps(out)).hexdigest())
            bad = self._cached(key, lambda: oracle.check_nmes(
                *self.data[label], out))
            fails = [f"{m} converged=False (grad_norm {f['grad_norm']:.3g})"
                     for m, f in out["fits"].items() if not f["converged"]]
            return fails + bad, bad
        return self._check_cli(rec)

    def _check_cli(self, rec: dict):
        out, label = rec["out"], rec["label"]
        fails = [] if out["exit"] == 0 else [f"exit code {out['exit']}"]
        path = Path(out["output"])
        if not path.exists():
            return fails + ["no output file"], ["no output file"]
        body = path.read_bytes()
        key = (label, hashlib.sha256(body).hexdigest(),
               json.dumps(self.estimates, sort_keys=True))
        text = body.decode()
        if label == "summarize":
            bad = self._cached(key, lambda: oracle.check_summarize(
                text, self.y, self.covs[:, gen.COVARIATES.index("MALE")]))
        elif label == "fit_csv":
            bad = self._cached(key, lambda: oracle.check_fit(text, self.csv_counts))
            if not bad:
                self.estimates = {r["model"]: r["estimates"]
                                  for r in json.loads(text)["results"]}
        elif label == "compare_csv":
            bad = self._cached(key, lambda: oracle.check_compare(
                text, self.csv_counts, self.estimates))
        elif label == "simulate":
            sim = gen.SIM_ARGS
            meta = json.loads(Path(str(path) + ".meta.json").read_text())
            bad = self._cached(key, lambda: oracle.check_simulate(
                self._counts_file(path), meta, sim["r"], sim["p"], sim["n"],
                sim["seed"]))
        else:  # fit_counts, fit_nb_probe: fits of the count file --input names
            src = Path(out["argv"][out["argv"].index("--input") + 1])
            bad = self._cached(key, lambda: oracle.check_fit(
                text, self._counts_file(src)))
        return fails + bad, bad

    def _counts_file(self, path: Path) -> np.ndarray:
        return self._cached(("file", str(path)), lambda: np.array(
            path.read_text().split(), dtype=np.int64))


def run_worker(spec: dict, work: Path, env: dict) -> dict:
    """Run the worker on ``spec``; the events of its children, however far
    they got: ``passes`` (a list), ``probe`` and ``trace`` (None when that
    child did not run)."""
    path = work / "spec.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(path)],
                            env=env, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, spec["deadline"] + KILL_GRACE_S
                              - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop_group(proc)
    out = Path(spec["out"])
    n_passes = len(list(out.glob("events-pass*.pkl")))
    named = {name: worker.read_events(out / f"events-{name}.pkl")
             if (out / f"events-{name}.pkl").exists() else None
             for name in ("probe", "trace")}
    return {"passes": [worker.read_events(out / f"events-pass{i}.pkl")
                       for i in range(n_passes)], **named}


def stop_group(proc: subprocess.Popen) -> None:
    """Kill the worker and any child of it; wait until all have ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    end = time.monotonic() + KILL_GRACE_S
    while time.monotonic() < end:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def per_op_latency(records: list) -> dict:
    """label -> median latency of the op over ``records``."""
    runs = {}
    for rec in records:
        runs.setdefault(rec["label"], []).append(rec["latency"])
    return {label: statistics.median(v) for label, v in runs.items()}


def summarize_loop(children: list, checker: Checker, workload: str, seed: int):
    """Failures and timings of the ops of ``children`` (their events)."""
    failed, rejected = [], []
    for events in children:
        for rec in events["records"]:
            fails, bad = checker.check(rec)
            name = f"{workload} {rec['label']} seed {seed}"
            if fails:
                failed.append(f"{name}: " + "; ".join(fails))
            if bad:
                rejected.append(name)
        if events["passes"] is None:
            failed.append(f"{workload} seed {seed}: op still running when the "
                          f"run was stopped at {RUN_LIMIT_S:g} s")
    records = [rec for ev in children for rec in ev["records"]]
    lat = [rec["latency"] for rec in records]
    per_op = list(per_op_latency(records).values())
    refs = [r for ev in children for r in (ev["ref_start"], ev["ref_end"]) if r]
    # Latencies as on a machine on which the reference takes REF_NOMINAL_S.
    scale = REF_NOMINAL_S / statistics.median(refs)
    stopped = sum(ev["passes"] is None for ev in children)
    return {"ops": len(lat) + stopped, "stopped": stopped,
            "children": len(children),
            "passes": sum(ev["passes"] or 0 for ev in children),
            "elapsed_s": sum(lat),
            "ops_per_s": len(per_op) / sum(per_op),
            "op_p50_s": statistics.median(per_op),
            "ops_per_s_cal": len(per_op) / (scale * sum(per_op)),
            "op_p50_s_cal": scale * statistics.median(per_op),
            "pass_s_cal": scale * sum(per_op), "refs": refs,
            "op_tail": op_tail(lat), "failed": failed, "rejected": rejected,
            "latencies": lat}


def summarize_probe(events, checker: Checker, workload: str) -> dict:
    """label -> (failure reasons, oracle mismatches, latency) of each
    known-defect op; one the probe child did not finish counts as failed."""
    done = {rec["label"]: rec for rec in (events or {}).get("records", [])}
    out = {}
    for label in gen.KNOWN_DEFECTS.get(workload, {}):
        if label in done:
            out[label] = (*checker.check(done[label]), done[label]["latency"])
        else:
            out[label] = ([f"not finished within the {RUN_LIMIT_S:g} s run "
                           "limit"], [], None)
    return out


def run(args) -> int:
    began = time.monotonic()
    src = ROOT / "src"
    if not (src / "unbcount" / "__init__.py").is_file():
        print(f"error: no unbcount sources under {src}", file=sys.stderr)
        return 2
    out_root = ROOT / ".perfbench_out"
    work = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    manifest = gen.write_inputs(args.workload, args.seed, inputs)
    env = child_env()
    setup = measure_setup(src, env)

    spec = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "min_passes": MIN_PASSES[args.workload],
            "budget_s": LOOP_BUDGET_S, "deadline": began + RUN_LIMIT_S,
            "probe": bool(gen.KNOWN_DEFECTS.get(args.workload)),
            "trace": bool(args.trace), "src": str(src), "inputs": str(inputs),
            "out": str(work), "spans": str(out_root / f"spans-{args.workload}.npz")}
    children = run_worker(spec, work, env)
    passes = children["passes"]
    if not any(ev["records"] for ev in passes):
        print(f"error: no op of {args.workload} finished within "
              f"{RUN_LIMIT_S:g} s", file=sys.stderr)
        return 1

    checker = Checker(args.workload, args.seed)
    plain = summarize_loop(passes, checker, args.workload, args.seed)
    loops = [plain]
    traced_child, traced = children["trace"], None
    if traced_child is not None and traced_child["records"]:
        traced = summarize_loop([traced_child], checker, args.workload,
                                args.seed)
        loops.append(traced)
    attempted = sum(lp["ops"] for lp in loops)
    failed = [f for lp in loops for f in lp["failed"]]
    rejected = [f for lp in loops for f in lp["rejected"]]
    correct = not rejected
    probe = summarize_probe(children["probe"], checker, args.workload)
    # A pass stopped before its end reported no peak of its own; the
    # largest reaped process's peak then stands in for it.
    peaks = [ev["peak_rss_mb"] for ev in passes if ev["peak_rss_mb"]]
    peak = max(peaks) if peaks else (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)

    report = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s_cal": (plain["ops_per_s_cal"], "1/s"),
        "op_p50_s_cal": (plain["op_p50_s_cal"], "s"),
        "ops_per_s": (plain["ops_per_s"], "1/s"),
        "op_p50_s": (plain["op_p50_s"], "s"),
        "failed_share": (len(plain["failed"]) / plain["ops"], "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{plain['ops']} ops in {plain['passes']} passes, one child "
             f"process each, {plain['elapsed_s']:.2f} s of op "
             "time, closed loop, 1 client"
             + (f", {plain['stopped']} pass(es) STOPPED at the run limit"
                if plain["stopped"] else "")
             + f"; setup runs {[round(t, 4) for t in setup]}"]
    for name, (value, unit) in report.items():
        lines.append(f"  {name:<14} {value:.6g} {unit}")
    lines.append(f"  reference      median {statistics.median(plain['refs']):.4g} s "
                 f"of {len(plain['refs'])} (nominal {REF_NOMINAL_S:g} s; the "
                 "_cal figures scale latencies by nominal over median)")
    tail = plain["op_tail"]
    n_lat = len(plain["latencies"])
    lines.append(f"  {'op_tail_s':<14} "
                 + (f"{tail[1]:.6g} s (p{tail[0]:g} of {n_lat} ops, "
                    f"{tail[2]} beyond)" if tail else
                    f"omitted ({n_lat} ops < 20)"))
    layers = None
    if traced is not None and traced_child["layers"]:
        layers = dict(traced_child["layers"])
        # Same statistic on both sides: per-op median calibrated latency.
        layers["trace.overhead"] = plain["pass_s_cal"] / traced["pass_s_cal"]
        layers["known_defect.failed"] = float(sum(
            bool(fails) for fails, _, _ in probe.values()))
        layers["known_defect.rejected"] = float(sum(
            bool(bad) for _, bad, _ in probe.values()))
        lines.append("  per-layer (traced child: "
                     f"{traced['ops']} ops in {traced['passes']} passes, "
                     f"{traced['elapsed_s']:.2f} s):")
        lines.extend(f"    {k} = {v:.6g}" for k, v in layers.items())
    lines.append(f"failed ops ({len(failed)} of {attempted}):")
    lines.extend(f"  {f}" for f in failed)
    lines.append(f"oracle rejected {len(rejected)} of {attempted} ops"
                 + (": " + ", ".join(sorted(set(rejected))) if rejected else ""))
    if probe:
        lines.append(f"known defects ({len(probe)} ops run once in a probe "
                     "child, outside the timed loop, correct and failed):")
    for label, (fails, _, latency) in probe.items():
        reason = gen.KNOWN_DEFECTS[args.workload][label]
        lines.append(f"  {label} [{reason}]: "
                     + ("FAILS: " + "; ".join(fails) if fails else
                        "now passes the oracle and every gate")
                     + (f" ({latency:.3f} s)" if latency is not None else ""))
    facts = machine_facts()
    lines.append("machine: " + json.dumps(facts, sort_keys=True))
    print("\n".join(lines))

    if args.trace:
        if layers is None:
            print("error: the traced child did not finish", file=sys.stderr)
            return 1
        units = {**tracing.UNITS, **PROBE_UNITS}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in report.items()
                   if k in GATED}
    final = {"correct": correct, "attempted": attempted, "failed": len(failed),
             "metrics": metrics}

    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{work.name}.json").write_text(json.dumps({
        "final": final, "report": {k: v[0] for k, v in report.items()},
        "op_tail": tail, "setup_runs": setup, "failed_ops": failed,
        "oracle_rejected": rejected,
        "known_defects": {label: fails for label, (fails, _, _) in probe.items()},
        "latencies": plain["latencies"],
        "pass_latencies": [[(r["label"], r["latency"]) for r in ev["records"]]
                           for ev in passes],
        "pass_refs": [(ev["ref_start"], ev["ref_end"]) for ev in passes],
        "manifest": manifest, "machine": facts}, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(final))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload != "all":
        return run(args)
    for workload in WORKLOADS:
        code = run(argparse.Namespace(**{**vars(args), "workload": workload}))
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
