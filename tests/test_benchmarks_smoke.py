"""The kernel microbenchmarks under ``benchmarks/`` sit outside
``testpaths``; this runs each of them once, untimed, so they cannot rot.
It also checks that every module, memo table and traced callable that
the ``perfbench`` harness names still exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_microbenchmarks_run():
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--benchmark-disable",
         "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _perfbench_modules():
    """The maclab modules ``perfbench/child.py::_import_maclab`` imports by
    name before every benchmark run."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    (fn,) = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "_import_maclab"]
    (names,) = [node.iter for node in ast.walk(fn)
                if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)]
    return [ast.literal_eval(elt) for elt in names.elts]


def test_perfbench_imports_exist():
    """A module deleted from the package fails here."""
    modules = _perfbench_modules()
    assert "checks" in modules
    for name in modules:
        importlib.import_module(f"maclab.{name}")


# prints the loaded module names on one line; itself imports nothing
_PRINT_MODULES = "print(*sorted(__import__('sys').modules))"


def _fresh_modules(code: str) -> list:
    """One set of loaded module names per ``_PRINT_MODULES`` line of
    ``code``, run in a fresh interpreter with ``src`` on the path."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [set(line.split()) for line in proc.stdout.splitlines()]


def test_import_loads_no_dataclasses_and_hashlib_only_on_cache_use():
    """Importing the benchmark's module list loads neither ``dataclasses``
    (with ``inspect``) nor ``hashlib`` (with OpenSSL); a cache with a
    directory loads ``hashlib`` on its first entry and round-trips it."""
    (bare,) = _fresh_modules(_PRINT_MODULES)
    imports = "".join(f"import maclab.{name}\n" for name in _perfbench_modules())
    imported, used = _fresh_modules(imports + _PRINT_MODULES + """
import tempfile
from maclab.cache import ResultCache
with tempfile.TemporaryDirectory() as d:
    cache = ResultCache(d)
    cache.put("op", {"n": 2}, {"value": [1, 2]})
    assert cache.get("op", {"n": 2}) == {"value": [1, 2]}
""" + _PRINT_MODULES)
    added = imported - bare
    assert "maclab.checks" in added and "maclab.cli" in added
    assert not added & {"dataclasses", "inspect", "hashlib"}, added
    assert "hashlib" in used


def _tracer_constant(name):
    """The literal value of the module-level ``name`` of ``perfbench/tracer.py``."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (value,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)]
    return ast.literal_eval(value)


def test_perfbench_traced_callables_exist():
    """``perfbench/tracer.py::LAYERS`` names the callables the tracer
    wraps as ``layer.[Class.]name``, found as the tracer finds them: the
    owner by attribute, the callable in the owner's own namespace.  A
    callable that is deleted, renamed or moved into a base class fails
    here instead of dropping out of a traced run."""
    layers = _tracer_constant("LAYERS")
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"maclab.{layer}")
        for name in names:
            *path, leaf = name.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part, None)
                assert owner is not None, f"{layer}.{name}"
            assert callable(vars(owner).get(leaf)), f"{layer}.{name}"


def test_perfbench_memo_tables_exist():
    """``perfbench/tracer.py::MEMOS`` names the memo tables whose
    ``len()`` the tracer reports as ``*.size``; a table that is renamed
    or loses ``len()`` fails here instead of dropping the metric."""
    memos = _tracer_constant("MEMOS")
    assert memos
    for module, table in memos:
        assert len(getattr(importlib.import_module(f"maclab.{module}"), table)) >= 0
