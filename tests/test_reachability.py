"""Every function and method of the package is reached by the verifier.

A fresh process runs every registered check at its defaults (they reach
what the acceptance ranges reach) and every CLI subcommand without a
cache, then twice with one (a miss and a hit), under cProfile.  A
top-level ``maclab`` function, or a method, classmethod, staticmethod
or property getter of a ``maclab`` class (dunder methods left out),
that none of these calls must be on the allow-list below, with the
reason it stays.

Run as a script, this module prints the missed functions as JSON.
"""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# module.function or module.Class.method -> why it stays although the
# verifier does not call it
ALLOWED = {
    "baker.c_N_recursive": "perfbench's tracer LAYERS names it; the tests' c_N value",
    "baker.c_N_closed_alt": "perfbench's tracer LAYERS names it; the tests' c_N value",
    "macdonald.apply_D1N": "perfbench's tracer LAYERS names it; the tests' operator reference",
    "qcalc.pochhammer": "perfbench's tracer LAYERS names it; the tests' Pochhammer reference",
    "parallel.pmap": "perfbench's child.py imports the module and LAYERS names it",
    "algebra.FactoredRational.is_monomial": "pochhammer's test for a monomial argument",
    "algebra.FactoredRational.is_one": "the value type's test for 1, which the tests assert",
    "algebra.FactoredRational.scale": "scales a value; the planted faults double one with it",
    "algebra.FactoredRational.canonical_str": "a witness of a FAILED check, and repr",
    "series.QTSeries.canonical_str": "a witness of a FAILED vanishing, and repr",
    "series.XSeries.canonical_str": "repr of a series",
    "baker._Scan.fail": "records the error of a failing termination scan",
    "memo.cached": "runs at import only, as the decorator that declares every table",
    "memo.clear_all": "empties every table for a cold rerun: criterion 12, benchmarks, tests",
}

# every subcommand and output mode; the last one is an out-of-range argument
CLI_RUNS = [
    ["macdonald", "--n", "3", "--lambda", "2,1"],
    ["macdonald", "--n", "3", "--lambda", "2,1", "--oracle", "--output", "json"],
    ["macdonald", "--n", "1", "--lambda", "2,1"],
    ["baker", "--n", "2", "--truncation", "2"],
    ["baker", "--n", "2", "--truncation", "2", "--specialize", "2"],
    ["laumon", "j", "--n", "2", "--degree", "2"],
    ["laumon", "limit", "--n", "2", "--order", "2"],
    ["laumon", "verify", "shir", "--degree", "1"],
    ["global", "h", "--n", "2", "--weight", "1", "--order", "1"],
    ["global", "verify", "h0", "--max-n", "2"],
    ["verify", "cordiff", "--max-n", "2", "--max-weight-sum", "1", "--output", "json"],
]


def _methods(cls):
    """(name, function) of the plain methods, classmethods, staticmethods
    and property getters of ``cls``, dunder methods left out."""
    for name, member in vars(cls).items():
        fn = getattr(member, "fget", None) or getattr(member, "__func__", member)
        if inspect.isfunction(fn) and not (name.startswith("__") and name.endswith("__")):
            yield name, fn


def package_functions() -> dict:
    """code object -> ``module.name`` of every function defined at the
    top level of a ``maclab`` module, seen through its memo wrapper, and
    -> ``module.Class.name`` of every method of a class defined there."""
    import maclab

    out = {}
    for info in pkgutil.iter_modules(maclab.__path__):
        module = importlib.import_module(f"maclab.{info.name}")
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for name, fn in _methods(value):
                    out.setdefault(fn.__code__, f"{info.name}.{value.__name__}.{name}")
                continue
            fn = inspect.unwrap(value) if callable(value) else None
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                out.setdefault(fn.__code__, f"{info.name}.{fn.__name__}")
    return out


def missed() -> list:
    """The functions and methods that no check and no CLI run reaches."""
    import cProfile

    from maclab.checks import check_names, run_check
    from maclab.cli import main

    functions = package_functions()
    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as cache_dir, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        profile.enable()
        for name in check_names():
            run_check(name)
        main(["checks"])
        for argv in CLI_RUNS:
            for extra in ([], ["--cache-dir", cache_dir], ["--cache-dir", cache_dir]):
                main(argv + extra)
        profile.disable()
    reached = {entry.code for entry in profile.getstats()}
    return sorted(name for code, name in functions.items() if code not in reached)


def test_every_unreached_function_is_allowed():
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    env.pop("MACLAB_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, __file__], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(ALLOWED)


if __name__ == "__main__":
    print(json.dumps(missed()))
