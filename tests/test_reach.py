"""Reach or remove: every function and class the package exports runs
when the check suites and each CLI command run, apart from ``EXEMPT``.

The run happens in a fresh interpreter traced from before ``import cmfun``,
so module-level constructions (``suites._SQUARE``, ``barnes._Q_MEASURE``)
count as reached.  A class is reached when any function it defines runs:
a method, a property or a dataclass's generated ``__init__``.  The error
classes define no code of their own and are left to the exit-code tests.

Run as a script, this module prints the unreached exports as JSON."""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# each export no suite or command reaches, with the ROADMAP items that will
# reach or remove it
EXEMPT = {
    # reached only by the benchmark
    "CmKernel": "items 2 and 11",
    "stieltjes_via_kernel": "items 2 and 11",
    "measure_alternating": "items 2 and 11",
    "laplace_invert": "items 2 and 11",
    # paper constructions awaiting an item
    "sigma_continuous": "items 2 and 11",
    "tau_continuous": "items 2 and 11",
    "measure_integer_atoms": "items 2 and 11",
}


def traced(run):
    """The code objects of every Python function called while run() runs."""
    codes = set()

    def hook(frame, event, arg):  # a global trace hook sees only calls
        codes.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        run()
    finally:
        sys.settrace(previous)
    return codes


def own_code(obj):
    """The code objects of a function, or of the functions, properties and
    cached properties a class defines."""
    if inspect.isfunction(obj):
        return {obj.__code__}
    found = set()
    for member in vars(obj).values():
        for fn in (member, getattr(member, "__func__", None),
                   getattr(member, "fget", None),
                   getattr(member, "func", None)):
            if inspect.isfunction(fn):
                found.add(fn.__code__)
    return found


def unreached(namespace, codes):
    """Sorted public functions and classes of ``namespace`` with code of
    their own, none of which is in ``codes``."""
    return sorted(name for name, obj in vars(namespace).items()
                  if not name.startswith("_")
                  and (inspect.isfunction(obj) or inspect.isclass(obj))
                  and own_code(obj) and not own_code(obj) & codes)


def run_cli():
    """Import the package, then run every suite and each CLI command."""
    from cmfun import cli, suites
    argvs = ([["check", suite, "--seed", "5"] for suite in suites.SUITES]
             + [["eval", key, "0.1", "1", "40"] for key in cli._EVAL_KEYS]
             + [["invert", "beta-pow-c", "--c", "0.5"],
                ["semigroup", "0.5", "0.5"],
                ["sample", "--family", "nu", "--a", "0.5", "--count", "100"]])
    for argv in argvs:
        code = cli.main(argv + ["--out", os.devnull])
        assert code == 0, (argv, code)


def test_every_export_is_reached_or_exempt():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, __file__], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    assert json.loads(out.stdout) == sorted(EXEMPT)


def test_an_unreached_export_is_reported():
    from cmfun import laplace, specfun
    exports = types.SimpleNamespace(
        digamma=specfun.digamma, trigamma=specfun.trigamma,
        PeriodicStep=laplace.PeriodicStep,
        SampledDensity=laplace.SampledDensity, DomainError=specfun.DomainError)
    codes = traced(lambda: (specfun.digamma(2.0),
                            laplace.PeriodicStep([1.0, 2.0], [1.0, 1.0])))
    assert unreached(exports, codes) == ["SampledDensity", "trigamma"]


if __name__ == "__main__":
    codes = traced(run_cli)
    import cmfun
    print(json.dumps(unreached(cmfun, codes)))
