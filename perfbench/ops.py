"""Ops, their outcome, and the registry of known failures.

An op is one call into cmfun whose result is checked against a reference
computed before timing starts.  ``run_op`` never lets an exception escape:
it records the exception type and counts the op as failed.  A failure that
matches an entry of ``known_failures.json`` for the op's parameters is a
known failure; any other failure makes the run incorrect.
"""

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

REGISTRY_PATH = Path(__file__).resolve().parent / "known_failures.json"


class CheckFailed(Exception):
    """The op returned, but its result is wrong; the message is the reason
    (compared with a registry entry's ``outcome``)."""


@dataclass
class Op:
    kind: str                       # what is measured, e.g. "stieltjes_eval"
    label: str                      # one line naming the op and its inputs
    call: Callable[[], object]      # the timed call into cmfun
    check: Callable[[object], float]  # error over tolerance; raises CheckFailed
    params: dict = field(default_factory=dict)
    known_failure: Optional[dict] = None  # registry entry for these params


@dataclass
class Outcome:
    op: Op
    seconds: float
    err_ratio: float = 0.0
    failure: Optional[str] = None   # exception type or CheckFailed reason

    @property
    def failed(self):
        return self.failure is not None

    @property
    def known(self):
        return self.failed and self.op.known_failure is not None and \
            self.failure == self.op.known_failure["outcome"]


def err_ratio(value, ref, rtol, atol=0.0):
    """|value - ref| / (atol + rtol |ref|); inf for a non-finite value."""
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return math.inf
    return abs(value - ref) / (atol + rtol * abs(ref))


def run_op(op, tracer=None, op_id=None):
    """Time ``op.call`` (inside a harness span when tracing), then check."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.call()
        else:
            result = tracer.run_op(op_id, op.label, op.call)
    except Exception as exc:  # a failing op is data, not a benchmark error
        return Outcome(op, time.perf_counter() - t0,
                       err_ratio=math.inf, failure=type(exc).__name__)
    seconds = time.perf_counter() - t0
    if tracer is not None and hasattr(result, "output_bytes"):
        tracer.counts["cli.output_bytes"] += result.output_bytes()
    try:
        ratio = float(op.check(result))
    except CheckFailed as exc:
        return Outcome(op, seconds, err_ratio=math.inf, failure=str(exc))
    if not ratio <= 1.0:
        return Outcome(op, seconds, err_ratio=ratio, failure="tolerance")
    return Outcome(op, seconds, err_ratio=ratio)


def load_registry():
    with open(REGISTRY_PATH) as fh:
        return json.load(fh)["known_failures"]


def match_known(registry, kind, params):
    """The registry entry whose region contains ``params``, if any.

    A region maps parameter names to closed intervals [lo, hi] or to a
    list of allowed string values.
    """
    for entry in registry:
        if entry["kind"] != kind:
            continue
        inside = True
        for name, bounds in entry["region"].items():
            value = params.get(name)
            if isinstance(bounds[0], str):
                inside = inside and value in bounds
            else:
                inside = inside and value is not None and \
                    bounds[0] <= value <= bounds[1]
        if inside:
            return entry
    return None
