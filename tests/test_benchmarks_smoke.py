"""The kernel microbenchmarks under ``benchmarks/`` sit outside
``testpaths``; this runs each of them once, untimed, so they cannot rot.
It also checks that every module the ``perfbench`` harness imports
still exists."""

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


def test_perfbench_imports_exist():
    """``perfbench/child.py::_import_maclab`` imports maclab modules by
    name before every benchmark run; a deleted module fails here."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    (fn,) = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "_import_maclab"]
    (names,) = [node.iter for node in ast.walk(fn)
                if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)]
    modules = [ast.literal_eval(elt) for elt in names.elts]
    assert "checks" in modules
    for name in modules:
        importlib.import_module(f"maclab.{name}")
