"""Microbenchmark of start-up: a fresh interpreter that imports every
maclab module the benchmark harness imports before it times anything.

Each round starts ``python -c`` from the repository root and calls
``perfbench/child.py::_import_maclab``, the import that ``perfbench``
counts in ``setup_s``, so a round costs interpreter start-up plus the
import.  The interpreter inherits this process's environment, so
``PYTHONDONTWRITEBYTECODE`` decides whether the sources are compiled in
every round or read from cached bytecode.

Not part of the test suite.  Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IMPORT = ("import sys; sys.path.insert(0, 'perfbench'); from child import _import_maclab; "
          "_import_maclab('.'); print('maclab.cli' in sys.modules)")


def import_maclab():
    proc = subprocess.run([sys.executable, "-c", IMPORT], cwd=ROOT, env=os.environ,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_fresh_interpreter_imports_maclab(benchmark):
    assert benchmark.pedantic(import_maclab, rounds=20) == "True"
