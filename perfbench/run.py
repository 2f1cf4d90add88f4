"""Benchmark of cmfun: three closed-loop workloads against its public API.

Run from the repository root:

    python3 perfbench/run.py --workload cli-check --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for the ops and why each was chosen):

- ``cli-check``: in-process ``cmfun.cli.main``; all ``check`` suites in a
  seed-shuffled order, ``eval`` for every key, one ``sample``.
- ``inversion``: ``semigroup_check``, ``semigroup_density(1)``, one
  ``cmfun invert beta-pow-c --diag`` and scalar ``laplace_invert`` calls.
- ``measures``: the catalog measure constructors, ``stieltjes_eval`` and
  ``stieltjes_via_kernel`` queries, ``series_eval_three_ways`` and one
  default-size ``hypotheses_check``.

One process, one client, one thread: each op starts when the previous one
has returned, and BLAS thread pools are pinned to one thread.  A pass runs
every op of the workload once; passes repeat until ``--seconds`` would be
exceeded.  Every op's result is checked against a reference computed before
timing starts (``reference.py``); failures listed in
``known_failures.json`` are counted but do not make the run incorrect.

``op_ms_p50`` and ``op_ms_p90`` are percentiles across the ops of a pass
of each op's median latency over the passes.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (``tracer.py``).  The line before the
last holds provenance, every end-to-end metric (also ``op_ms_p50``,
``op_ms_p90``, ``fail_ratio`` and ``worst_err_ratio``, which the result line
leaves out, see GATED) with sample counts, failure reasons and, for
cli-check, the wall time of each suite.  The last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``failed`` counts failures that are not registered as known.
"""

import os

# pinned before numpy is imported anywhere in this process or its children
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from ops import load_registry, run_op  # noqa: E402
from tracer import Tracer, metric_unit  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
MIN_PASSES = 3          # so that the median pass is never the first one
SETUP_CODE = "import cmfun.cli; cmfun.cli.build_parser()"

UNITS = {"setup_s": "s", "pass_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
         "peak_rss_mb": "MB"}
# The end-to-end metrics of the result line.  op_ms_p50 and op_ms_p90 are
# printed on the line before it only: a single pure-Python op can run twice
# as slowly during a burst of interference on a shared core, so their spread
# from run to run is too wide to gate a change on.
GATED = ("setup_s", "pass_s", "peak_rss_mb")


def import_cmfun():
    """Import cmfun from this checkout's sources, never from elsewhere."""
    pkg = SRC / "cmfun"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: cmfun sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import cmfun
    import cmfun.cli  # noqa: F401  (also loads every layer module)
    if Path(cmfun.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported cmfun from {cmfun.__file__}")
    return cmfun


def time_setup():
    """Wall time of a fresh interpreter that imports the CLI and builds its
    parser, as every ``cmfun`` invocation does; the median of several."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def provenance(seed):
    import mpmath
    import scipy
    sha = "unknown"
    if shutil.which("git") and (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "cmfun").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_sha": sha,
            "src_sha256": digest.hexdigest(), "seed": seed,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "jobs": "default", "clients": 1}


class Pass:
    def __init__(self, seconds, outcomes, layer_metrics):
        self.seconds = seconds
        self.outcomes = outcomes
        self.layer_metrics = layer_metrics   # None for an untraced pass

    @property
    def traced(self):
        return self.layer_metrics is not None


def run_passes(ops, seconds, tracer=None):
    """Repeat passes over ``ops`` while the next one still fits in
    ``seconds``, and at least MIN_PASSES times; with a tracer, untraced
    and traced passes alternate."""
    passes = []
    t0 = time.perf_counter()
    op_id = 0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            tracer.start_pass()
        start = time.perf_counter()
        outcomes = []
        for op in ops:
            outcomes.append(run_op(op, tracer if traced else None, op_id))
            op_id += 1
        pass_s = time.perf_counter() - start
        metrics = None
        if traced:
            tracer.uninstall()
            metrics = tracer.pass_metrics()
        passes.append(Pass(pass_s, outcomes, metrics))
        elapsed = time.perf_counter() - t0
        typical = statistics.median(p.seconds for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


def summarize(passes):
    outcomes = [o for p in passes for o in p.outcomes]
    unexpected = [o for o in outcomes if o.failed and not o.known]
    known = [o for o in outcomes if o.known]
    reasons = Counter(f"{o.op.kind}:{o.failure}" for o in outcomes if o.failed)
    finite = [o.err_ratio for o in outcomes if not o.failed]
    return {
        "attempted": len(outcomes),
        "failed_unexpected": len(unexpected),
        "failed_known": len(known),
        "fail_ratio": {"value": (len(unexpected) + len(known)) / len(outcomes),
                       "unit": "ratio"},
        "worst_err_ratio": {
            "value": max([o.err_ratio for o in unexpected] + finite,
                         default=0.0),
            "unit": "ratio", "over": "ops that did not fail as registered"},
        "failure_reasons": dict(sorted(reasons.items())),
        "unexpected_failures": sorted({o.op.label + " -> " + o.failure
                                       for o in unexpected}),
    }


def op_latencies_ms(passes):
    """Each op's median latency over the passes, in ms: one sample per op.

    The median over passes keeps a burst of interference during one pass
    from moving the percentiles taken across ops.
    """
    per_op = zip(*(p.outcomes for p in passes))
    return [statistics.median(o.seconds for o in outs) * 1e3
            for outs in per_op]


def suite_wall_times(passes):
    per_suite = defaultdict(list)
    for p in passes:
        for o in p.outcomes:
            if o.op.kind == "check":
                per_suite[o.op.params["suite"]].append(o.seconds)
    return {k: statistics.median(v) for k, v in sorted(per_suite.items())}


def kind_times(passes):
    """Median over passes of the seconds each kind of op took in a pass."""
    per_kind = defaultdict(list)
    for p in passes:
        totals = defaultdict(float)
        for o in p.outcomes:
            totals[o.op.kind] += o.seconds
        for kind, total in totals.items():
            per_kind[kind].append(total)
    return {k: statistics.median(v) for k, v in sorted(per_kind.items())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cmfun = import_cmfun()
    setup_s, setup_samples = time_setup()
    WORK.mkdir(exist_ok=True)
    ops = build_ops(args.workload, cmfun, args.seed, load_registry(), WORK)
    tracer = Tracer() if args.trace else None
    passes = run_passes(ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = summarize(passes)
    untraced = [p for p in passes if not p.traced]
    op_ms = op_latencies_ms(untraced)
    pass_s = statistics.median(p.seconds for p in untraced)
    end_to_end = {"setup_s": setup_s, "pass_s": pass_s,
                  "op_ms_p50": float(np.percentile(op_ms, 50)),
                  "op_ms_p90": float(np.percentile(op_ms, 90)),
                  "peak_rss_mb": peak_rss_mb}
    correct = summary["failed_unexpected"] == 0
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "provenance": provenance(args.seed),
            "passes": len(passes), "ops_per_pass": len(ops),
            "pass_s_samples": [p.seconds for p in untraced],
            "setup_s_samples": setup_samples,
            "kind_s": kind_times(untraced),
            **{k: {"value": v, "unit": UNITS[k]}
               for k, v in end_to_end.items()},
            **summary}
    for name in ("op_ms_p50", "op_ms_p90"):
        info[name]["samples"] = len(op_ms)
        info[name]["passes_per_sample"] = len(untraced)
    info["pass_s"]["samples"] = len(untraced)
    if args.workload == "cli-check":
        info["suite_wall_s"] = suite_wall_times(untraced)

    if args.trace:
        traced = [p for p in passes if p.traced]
        layer = {name: statistics.median(p.layer_metrics[name] for p in traced)
                 for name in traced[0].layer_metrics}
        layer["trace.overhead_ratio"] = (
            statistics.median(p.seconds for p in traced) / pass_s)
        coverage = tracer.coverage_error()
        info["trace_coverage_error"] = coverage
        info["traced_passes"] = len(traced)
        correct = correct and coverage < 1e-9
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.csv"
        tracer.write_spans(spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {k: {"value": v, "unit": metric_unit(k)}
                   for k, v in layer.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": UNITS[k]}
                   for k in GATED}

    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed_unexpected"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
