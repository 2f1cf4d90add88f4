"""Smoke test of the benchmark itself; run from the repository root:

    python3 perfbench/smoke.py

It runs one op of each kind and checks that each passes or fails only as
registered.  It checks that a deliberately corrupted reference makes an op
fail and the run incorrect.  It then runs ``run.py`` briefly, untraced and
traced, and checks that every metric in ``BENCHMARK.json`` is printed with
its unit, and that the ungated end-to-end metrics are printed too.
Exits non-zero on the first failed expectation.
"""

import json
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy is imported
import reference
import workloads
from ops import load_registry, run_op
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def expect(cond, message):
    if not cond:
        raise SystemExit(f"smoke: FAILED: {message}")


def one_op_per_kind(cmfun, registry):
    ops = {}
    for name in workloads.WORKLOADS:
        for op in workloads.build_ops(name, cmfun, 7, registry, run.WORK):
            ops.setdefault(op.kind, op)
    # the cheapest suite stands for the check kind
    ops["check"] = next(op for op in workloads.build_ops(
        "cli-check", cmfun, 7, registry, run.WORK)
        if op.params.get("suite") == "hamburger")
    return ops


def check_ops(cmfun, registry):
    tracer = Tracer()
    tracer.install()
    try:
        for i, (kind, op) in enumerate(sorted(one_op_per_kind(
                cmfun, registry).items())):
            out = run_op(op, tracer, i)
            expect(not out.failed or out.known,
                   f"{op.label} failed unexpectedly: {out.failure}")
            print(f"smoke: {kind:22s} {out.seconds * 1e3:9.1f} ms  "
                  f"err/tol {out.err_ratio:.3g}  {out.failure or 'ok'}")
    finally:
        tracer.uninstall()
    expect(tracer.coverage_error() < 1e-9,
           "layer self times do not cover the traced op time")


def check_corrupted_reference(cmfun, registry):
    true_reference = reference.eval_reference
    reference.eval_reference = lambda key, x: (
        lambda v, rtol, atol: (v * (1.0 + 1e-6), rtol, atol))(
            *true_reference(key, x))
    try:
        op = workloads._eval_op(cmfun, "digamma", [0.5, 2.0])
    finally:
        reference.eval_reference = true_reference
    out = run_op(op)
    expect(out.failed and not out.known and out.failure == "tolerance",
           f"corrupted reference not reported as a failed op: {out}")
    summary = run.summarize([run.Pass(out.seconds, [out], None)])
    expect(summary["failed_unexpected"] == 1, "summary missed the failure")


def check_printed_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "inversion",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        expect(proc.returncode == 0, f"run.py --trace {trace} failed:\n"
               + proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"result keys {sorted(result)}")
        expect(result["correct"] and result["failed"] == 0,
               f"run not correct: {info['unexpected_failures']}")
        printed = result["metrics"]
        expect({m["name"] for m in declared} == set(printed),
               f"--trace {trace} printed {sorted(printed)}")
        for m in declared:
            expect(printed[m["name"]]["unit"] == m["unit"],
                   f"unit of {m['name']}")
        for name, unit in (("fail_ratio", "ratio"), ("worst_err_ratio", "ratio"),
                           ("op_ms_p50", "ms"), ("op_ms_p90", "ms")):
            expect(info[name]["unit"] == unit, f"{name} not printed")
        print(f"smoke: --trace {trace} prints all {len(declared)} metrics")


def main():
    cmfun = run.import_cmfun()
    registry = load_registry()
    run.WORK.mkdir(exist_ok=True)
    check_ops(cmfun, registry)
    check_corrupted_reference(cmfun, registry)
    check_printed_metrics()
    print("smoke: ok")


if __name__ == "__main__":
    main()
