"""Import hygiene: every name a module of cmfun imports is used in that
module, every import sits at module level, no module-level definition is
left unread (public ones may be exported instead), and the CLI runs on
numpy alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cmfun"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import math\nimport os\nmath.pi\n") == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source):
    """(line, function name) of each import statement inside a function."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [(node.lineno, fn.name) for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return sorted(set(found))


def test_detects_an_import_in_a_function():
    source = ("import math\n"
              "def f():\n"
              "    def g():\n"
              "        from os import path\n"
              "    return math.pi\n")
    assert function_imports(source) == [(4, "f"), (4, "g")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert function_imports(path.read_text()) == []


def private_definitions(source):
    """(line, name) of each private name bound at module level."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def references(source):
    """Every name the source reads, as a name, an attribute or an import."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced_privates(sources):
    """(module, line, name) of the module-level private names that none of
    ``sources`` (module name -> source) reads."""
    used = set().union(*map(references, sources.values()))
    return sorted((module, line, name) for module, source in sources.items()
                  for line, name in private_definitions(source)
                  if name not in used)


def test_detects_an_unreferenced_private_name():
    sources = {"a.py": ("_USED = 1\n_DEAD, _X = 2, 3\n"
                        "def _helper():\n    return _USED\n"
                        "class _Gone:\n    pass\n"),
               "b.py": "from .a import _helper\n_X\n"}
    assert unreferenced_privates(sources) == [("a.py", 2, "_DEAD"),
                                              ("a.py", 5, "_Gone")]


def test_private_names_are_referenced():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_privates(sources) == []


def public_definitions(source):
    """(line, name) of each public function or class at module level."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def orphaned_publics(sources):
    """(module, line, name) of the public module-level functions and classes
    that no module of ``sources`` reads or imports (``__init__.py``
    imports what the package exports)."""
    used = set().union(*map(references, sources.values()))
    return sorted((module, line, name) for module, source in sources.items()
                  for line, name in public_definitions(source)
                  if name not in used)


def test_detects_an_orphaned_public_name():
    sources = {"a.py": ("def kept():\n    return helper()\n"
                        "def helper():\n    pass\n"
                        "class Gone:\n    pass\n"
                        "def exported():\n    pass\n"),
               "__init__.py": "from .a import exported\n"}
    assert orphaned_publics(sources) == [("a.py", 1, "kept"),
                                         ("a.py", 5, "Gone")]


def test_public_names_are_exported_or_read():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert orphaned_publics(sources) == []


def test_cli_runtime_is_numpy_only():
    # a fresh interpreter, since the test session itself imports both
    code = ("import sys, cmfun.cli; print(sorted({'scipy', 'mpmath', "
            "'concurrent.futures'} & set(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout.strip() == "[]"
