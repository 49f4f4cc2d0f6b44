"""Benchmark entry point: run one workload for one seed and print metrics.

    python3 bench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric from
a separately traced round.  Earlier lines record the environment, each
metric's unit and direction, and workload details.  See README.md in this
directory for the workloads and the metric mapping.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s", "s", "lower"),
    ("aux_s", "s", "lower"),
    ("recovery_corr", "corr", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
TRACE_METRICS = (
    ("evaluate.ri_pearson", "ri"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it, by the
    nearest-rank rule: (percentile, value, samples beyond), or None when
    there are ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    ordered = sorted(samples)
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n - rank


def pin_environment() -> dict:
    """Pin BLAS to one thread and leave LOCUS_THREADS unset; must run
    before numpy is imported.

    One thread, not one per core: the matrices are small, and on a 2-core
    box two BLAS threads made the same tune call take anywhere from 1.3 s
    to 2.4 s, against 5% spread with one thread and no loss in the median.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("LOCUS_THREADS", None)
    return {var: os.environ.get(var) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LOCUS_THREADS")}


def git_commit(root: str) -> str:
    """Commit of the checkout from .git, or "unknown" outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_record(env: dict, nproc: int) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": nproc, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "commit": git_commit(ROOT), **env}


def warm_up() -> None:
    """Import every layer and touch BLAS/LAPACK once before timing."""
    from locus import evaluate, preprocess, solver, synth
    dataset, truth = synth.generate(synth.SyntheticSpec(
        node_count=12, q=3, n_subjects=20, sigma=0.5, seed=0))
    model = solver.fit(preprocess.whiten(dataset, 3), 3,
                       solver.SolverConfig(phi=0.01, rho=0.9, max_iter=3))
    evaluate.match_sources(truth.sources, model.source_matrix())


def timed(fn) -> float:
    """CPU seconds of this process spent in fn (see workloads.py)."""
    start = time.process_time()
    fn()
    return time.process_time() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, ledger, seconds: int) -> tuple[dict, dict]:
    setup = [timed(workload.setup) for _ in range(workload.setup_repeats)]
    samples = workload.run(ledger, time.perf_counter() + seconds)
    score = workload.score(ledger)
    op = samples["op"]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s": statistics.median(op),
        "aux_s": statistics.median(samples["aux"]),
        "recovery_corr": score["recovery_corr"],
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {"setup_runs": len(setup), "op_samples": len(op),
               "ops_per_s": len(op) / sum(op),
               "aux_samples": len(samples["aux"]),
               **samples["details"], **score.get("details", {})}
    tail = tail_percentile(op)
    if tail is not None:
        details[f"op_p{tail[0]}_s"] = tail[1]
        details["op_tail_beyond"] = tail[2]
    return metrics, details


def traced(workload, ledger) -> tuple[dict, dict]:
    """One untraced round, then traced set-up and one traced round."""
    from layers import instrument, layer_metrics
    from spans import Tracer, summarize

    workload.setup()
    untraced_s = timed(lambda: workload.traced_round(ledger))
    with Tracer("locus") as tracer:
        instrument(tracer)
        workload.setup()
        start = time.process_time()
        samples = workload.traced_round(ledger)
        traced_s = time.process_time() - start
    score = workload.score(ledger)
    summary = summarize(tracer.spans)
    metrics = {name: value for name, (value, _) in
               layer_metrics(summary, tracer.counts,
                             tracer.warning_counts).items()}
    ri = score.get("details", {}).get("ri_pearson", 0.0)
    metrics.update({
        "evaluate.ri_pearson": ri,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "trace.spans": len(tracer.spans),
    })
    details = {"untraced_round_s": untraced_s, "traced_round_s": traced_s,
               "absent": ",".join(tracer.absent) or "none",
               **samples["details"]}
    return metrics, details


def per_layer_units() -> dict:
    from layers import LAYER_METRICS
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    units.update(dict(TRACE_METRICS))
    return units


def result_line(ledger, values: dict, units: dict) -> str:
    for name in values:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
    return json.dumps({
        "correct": ledger.correct, "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    env = pin_environment()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "locus", "__init__.py")):
        print(f"error: no locus package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        from workloads import WORKLOADS, Ledger
    except ImportError as err:
        print(f"error: cannot import the locus library from {src}: {err}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    warnings.simplefilter("ignore")
    signal.signal(signal.SIGTERM, _terminate)
    print("env " + json.dumps(environment_record(env, nproc)), flush=True)
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        warm_up()
        ledger = Ledger()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            values, details = traced(workload, ledger)
            units = per_layer_units()
            directions = {}
        else:
            values, details = end_to_end(workload, ledger, args.seconds)
            units = {name: unit for name, unit, _ in END_TO_END}
            directions = {name: better for name, _, better in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    for key, value in details.items():
        print(f"detail {key} = {value}")
    for name, unit in units.items():
        better = directions.get(name)
        suffix = f" ({better} is better)" if better else ""
        print(f"metric {name} = {values[name]!r} {unit}{suffix}")
    for problem in ledger.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(result_line(ledger, values, units), flush=True)
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
