"""Span tracer for the benchmark's traced run.

``Tracer.install()`` wraps the public functions of every cmfun module in
this process only.  Each wrapper is bound wherever the original was: on its
own module and on every module that imported it by name (``laplace`` holds
``nielsen_beta_complex``, most modules hold ``quad``/``quad_to_inf``).  The
``stieltjes`` methods of the tail classes are wrapped on the classes.

Every wrapped call records a span (name, start, end, parent, op id) while an
op is open.  A layer's self time is the duration of its spans minus the part
covered by their child spans, so the self times of all layers plus the
harness span of an op add up to the op's traced wall time.

A layer's ``calls`` counts entries into the layer: wrapped calls whose
caller is not already in the same layer.  Callables handed to the
monotonicity checkers, to ``quad`` and to the inversion routines are wrapped
too, to count integrand and transform evaluations and to charge their time
to the layer that defined them.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYER_OF_MODULE = {
    "cmfun.cli": "cli",
    "cmfun.suites": "suites",
    "cmfun.monotonicity": "monotonicity",
    "cmfun.specfun": "specfun",
    "cmfun._series": "specfun",
    "cmfun._quadrature": "quadrature",
    "cmfun.stieltjes": "stieltjes",
    "cmfun.laplace": "laplace",
    "cmfun.cesaro": "cesaro",
    "cmfun.barnes": "barnes",
    "cmfun.densities": "densities",
}
HARNESS = "harness"
TAIL_CLASSES = ("GapTail", "PeriodicTail", "SmoothCoefTail", "AtomTail")
CONSTRUCTORS = {"measure_alternating", "measure_integer_atoms",
                "measure_gamma_ratio", "measure_genus1_log_ratio",
                "measure_gamma_reciprocal_ratio", "measure_cesaro"}
INVERSION_KERNELS = {"euler_inversion", "gaver_stehfest",
                     "euler_inversion_grid", "stehfest_grid"}


class Tracer:
    """Spans and counts of one process; see the module docstring."""

    def __init__(self):
        self.spans = []       # (id, name, layer, start, end, self_s, parent, op)
        self._stack = []      # open frames: [id, name, layer, start, child_s]
        self._next_id = 0
        self._undo = []
        self.op_id = None
        self.start_pass()

    # -- spans ---------------------------------------------------------------

    def start_pass(self):
        """Reset the per-pass counters (spans are kept for the whole run)."""
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.spread_max = 0.0
        self._seen_scalar = set()

    def enter(self, name, layer):
        frame = [self._next_id, name, layer, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "span stack out of order"
        span_id, name, layer, start, child_s = frame
        dur = end - start
        self_s = dur - child_s
        self.self_s[layer] += self_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += dur
        self.spans.append((span_id, name, layer, start, end, self_s,
                           parent[0] if parent else None, self.op_id))
        return dur

    def current_layer(self):
        return self._stack[-1][2] if self._stack else None

    def run_op(self, op_id, label, fn):
        """Call ``fn`` inside a harness span that owns every span it opens."""
        self.op_id = op_id
        frame = self.enter(label, HARNESS)
        try:
            return fn()
        finally:
            self.exit(frame)
            self.op_id = None

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every public cmfun function and rebind all references."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "cmfun" or name.startswith("cmfun.")}
        originals = {}
        for mod_name, layer in LAYER_OF_MODULE.items():
            mod = modules[mod_name]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod_name
                        and not name.startswith("_")):
                    originals[id(obj)] = (obj, self._wrap(obj, layer, name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        st = modules["cmfun.stieltjes"]
        for cls_name in TAIL_CLASSES:
            cls = getattr(st, cls_name)
            orig = cls.__dict__["stieltjes"]
            self._undo.append((cls, "stieltjes", orig))
            setattr(cls, "stieltjes",
                    self._wrap(orig, "stieltjes", cls_name + ".stieltjes"))

    def uninstall(self):
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        tracer = self
        probe_args = (layer == "monotonicity" or name in INVERSION_KERNELS
                      or name in ("quad", "quad_to_inf"))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            entry = tracer.current_layer() != layer
            if entry:
                tracer.counts[layer + ".calls"] += 1
            if probe_args:
                args, kwargs = tracer._probe_callables(name, layer, entry,
                                                       args, kwargs)
            frame = tracer.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                dur = tracer.exit(frame)
                tracer._account(fn, name, layer, entry, args, kwargs, None,
                                exc, dur)
                raise
            dur = tracer.exit(frame)
            tracer._account(fn, name, layer, entry, args, kwargs, result,
                            None, dur)
            return result

        traced.perfbench_traced = True
        return traced

    def _probe_callables(self, name, layer, entry, args, kwargs):
        if layer == "monotonicity":
            # nested checker calls re-evaluate the same f; count it once
            prefix = "monotonicity.f" if entry else None
        elif name == "quad":
            prefix = "quadrature.integrand"
        elif name in INVERSION_KERNELS:
            prefix = "laplace.transform"
        else:
            prefix = None
        args = tuple(self._probe(a, layer, prefix) for a in args)
        kwargs = {k: self._probe(v, layer, prefix) for k, v in kwargs.items()}
        return args, kwargs

    def _probe(self, f, owner_layer, prefix):
        if not (inspect.isfunction(f) or inspect.isbuiltin(f)):
            return f
        f_layer = None
        if not getattr(f, "perfbench_traced", False):
            f_layer = LAYER_OF_MODULE.get(getattr(f, "__module__", None))
        spanned = f_layer is not None and f_layer != owner_layer
        if prefix is None and not spanned:
            return f
        tracer = self
        label = getattr(f, "__qualname__", "callable")

        def probe(*a, **k):
            if prefix is not None:
                tracer.counts[prefix + "_calls"] += 1
                tracer.counts[prefix + "_points"] += np.size(a[0]) if a else 1
            if not spanned:
                return f(*a, **k)
            frame = tracer.enter(label, f_layer)
            try:
                return f(*a, **k)
            finally:
                tracer.exit(frame)

        return probe

    def _account(self, fn, name, layer, entry, args, kwargs, result, exc,
                 dur):
        c = self.counts
        if layer == "specfun" and entry:
            x = args[0] if args else None
            c["specfun.points"] += np.size(x)
            if np.ndim(x) == 0:
                c["specfun.scalar_calls"] += 1
                c["specfun.scalar_s"] += dur
                try:
                    key = (name, args, tuple(sorted(kwargs.items())))
                    if key in self._seen_scalar:
                        c["specfun.repeats"] += 1
                    else:
                        self._seen_scalar.add(key)
                except TypeError:
                    pass
            else:
                c["specfun.vector_points"] += np.size(x)
                c["specfun.vector_s"] += dur
        elif layer == "quadrature":
            if entry and exc is not None and type(exc).__name__.endswith(
                    "ConvergenceError"):
                c["quadrature.failed"] += 1
        elif layer == "suites":
            if name == "run_suite" and exc is None:
                items = result["items"]
                c["suites.items"] += len(items)
                c["suites.items_failed"] += sum(not it["passed"] for it in items)
        elif layer == "stieltjes":
            if name in CONSTRUCTORS:
                c["stieltjes.construct_calls"] += 1
                c["stieltjes.construct_s"] += dur
            elif name == "stieltjes_eval" and np.ndim(
                    args[1] if len(args) > 1 else kwargs.get("x")) == 0:
                c["stieltjes.eval_calls"] += 1
                c["stieltjes.eval_s"] += dur
            elif name == "stieltjes_via_kernel":
                c["stieltjes.kernel_calls"] += 1
                c["stieltjes.kernel_s"] += dur
            elif name.endswith(".stieltjes"):
                c["stieltjes.tail_s"] += dur
        elif layer == "laplace":
            if name == "laplace_invert_diag":
                c["laplace.t_points"] += 1
                c["laplace.invert_s"] += dur
                if exc is None:
                    self.spread_max = max(self.spread_max, float(result[1]))
            elif name == "semigroup_density":
                c["laplace.invert_s"] += dur
                if exc is None:
                    c["laplace.t_points"] += len(result.t)
                    self.spread_max = max(self.spread_max,
                                          float(result.method_spread))
            elif name == "convolve_densities":
                c["laplace.convolve_s"] += dur
        elif layer == "cesaro":
            if name == "hypotheses_check":
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                c["cesaro.hypotheses_calls"] += 1
                c["cesaro.probe_terms"] += int(bound.arguments["n_probe"])
                c["cesaro.hypotheses_s"] += dur
            elif name == "series_eval_three_ways":
                c["cesaro.three_way_s"] += dur

    # -- per-pass metrics ----------------------------------------------------

    def pass_metrics(self):
        """The per-layer metrics of the pass since ``start_pass``."""
        c, s = self.counts, self.self_s

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        return {
            "cli.calls": c["cli.calls"],
            "cli.self_s": s["cli"],
            "cli.output_bytes": c["cli.output_bytes"],
            "suites.items": c["suites.items"],
            "suites.items_failed": c["suites.items_failed"],
            "suites.self_s": s["suites"],
            "monotonicity.calls": c["monotonicity.calls"],
            "monotonicity.self_s": s["monotonicity"],
            "monotonicity.f_calls": c["monotonicity.f_calls"],
            "monotonicity.f_points": c["monotonicity.f_points"],
            "monotonicity.points_per_f_call": ratio(
                c["monotonicity.f_points"], c["monotonicity.f_calls"]),
            "specfun.calls": c["specfun.calls"],
            "specfun.points": c["specfun.points"],
            "specfun.self_s": s["specfun"],
            "specfun.scalar_calls": c["specfun.scalar_calls"],
            "specfun.scalar_call_us": ratio(
                c["specfun.scalar_s"], c["specfun.scalar_calls"], 1e6),
            "specfun.vector_point_ns": ratio(
                c["specfun.vector_s"], c["specfun.vector_points"], 1e9),
            "specfun.repeat_ratio": ratio(c["specfun.repeats"],
                                          c["specfun.scalar_calls"]),
            "quadrature.calls": c["quadrature.calls"],
            "quadrature.integrand_calls": c["quadrature.integrand_calls"],
            "quadrature.panels": c["quadrature.integrand_points"] / 15.0,
            "quadrature.failed": c["quadrature.failed"],
            "quadrature.self_s": s["quadrature"],
            "stieltjes.construct_calls": c["stieltjes.construct_calls"],
            "stieltjes.construct_s": c["stieltjes.construct_s"],
            "stieltjes.eval_calls": c["stieltjes.eval_calls"],
            "stieltjes.eval_ms": ratio(c["stieltjes.eval_s"],
                                       c["stieltjes.eval_calls"], 1e3),
            "stieltjes.tail_s": c["stieltjes.tail_s"],
            "stieltjes.kernel_calls": c["stieltjes.kernel_calls"],
            "stieltjes.kernel_ms": ratio(c["stieltjes.kernel_s"],
                                         c["stieltjes.kernel_calls"], 1e3),
            "laplace.t_points": c["laplace.t_points"],
            "laplace.transform_points": c["laplace.transform_points"],
            "laplace.nodes_per_t": ratio(c["laplace.transform_points"],
                                         c["laplace.t_points"]),
            "laplace.invert_s": c["laplace.invert_s"],
            "laplace.convolve_s": c["laplace.convolve_s"],
            "laplace.method_spread_max": self.spread_max,
            "cesaro.hypotheses_calls": c["cesaro.hypotheses_calls"],
            "cesaro.probe_terms": c["cesaro.probe_terms"],
            "cesaro.hypotheses_s": c["cesaro.hypotheses_s"],
            "cesaro.three_way_s": c["cesaro.three_way_s"],
            "barnes.self_s": s["barnes"],
            "densities.self_s": s["densities"],
        }

    def coverage_error(self):
        """Largest |sum of self times - op wall time| / op wall time over
        the ops traced so far (0 when the accounting is complete)."""
        total = defaultdict(float)
        wall = {}
        for _, _, layer, start, end, self_s, parent, op in self.spans:
            total[op] += self_s
            if layer == HARNESS and parent is None:
                wall[op] = end - start
        return max((abs(total[op] - w) / w for op, w in wall.items() if w > 0),
                   default=0.0)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,layer,start,end,self_s,parent,op\n")
            for span in self.spans:
                fh.write(",".join("" if v is None else str(v)
                                  for v in span) + "\n")


def metric_unit(name):
    """The unit of a per-layer metric, from its name."""
    suffix = name.rsplit(".", 1)[-1]
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("_ms"):
        return "ms"
    if suffix.endswith("_us"):
        return "us"
    if suffix.endswith("_ns"):
        return "ns"
    if suffix.endswith("_bytes"):
        return "bytes"
    if suffix == "points_per_f_call":
        return "points/call"
    if suffix == "nodes_per_t":
        return "nodes/t"
    if suffix.endswith("_ratio") or suffix.endswith("_max"):
        return "ratio"
    return "count"
