"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json SPAWN_TIME

SPEC holds the case list, the trace flag and a scratch directory; RESULT
receives set-up time, the timings of the case list and one record per
case.  SPAWN_TIME is the parent's ``time.monotonic()`` just before it
started this process, so set-up time counts interpreter start-up.

Untraced repetitions also sample the host's speed while they run (see
:class:`HostSpeed`), so that the runner can report times at a fixed
reference speed.
"""

import importlib
import json
import os
import resource
import signal
import sys
import time
import traceback

PROBE_LOOPS = 50_000
# seconds between two in-case speed samples
SAMPLE_EVERY_S = 0.2
# samples taken just before and just after each case
BOUNDARY_SAMPLES = 3


def _probe() -> float:
    """CPU seconds a fixed pure-Python loop takes: the host's speed,
    inverted.  CPU time, not wall time, so that a probe that shares a core
    with pool workers reads the host's speed, not its share of the core."""
    t = time.thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.thread_time() - t


class HostSpeed:
    """Samples how fast the host runs this process while a case runs.

    The host shares its cores with other machines, and its speed drifts by
    up to a factor of two over seconds to minutes.  A sample is one
    :func:`_probe`.  ``BOUNDARY_SAMPLES`` are taken just before and just
    after each case, and ``SIGALRM`` takes one every ``SAMPLE_EVERY_S``
    while it runs.  Forked pool workers inherit the handler but not the
    timer.
    """

    def __init__(self):
        signal.signal(signal.SIGALRM, self._in_case)

    def _in_case(self, *_):
        t = time.perf_counter()
        self.samples.append(_probe())
        self.spent += time.perf_counter() - t

    def start(self) -> None:
        self.samples = [_probe() for _ in range(BOUNDARY_SAMPLES)]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> tuple:
        """(the case's samples, and the wall and CPU seconds taken by those
        made since the case started, to be taken off its own times)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(BOUNDARY_SAMPLES):
            self._in_case()
        return self.samples, self.spent, sum(self.samples[BOUNDARY_SAMPLES:])


def _import_maclab(root):
    """Import every maclab module from ``root/src``."""
    sys.path.insert(0, os.path.join(root, "src"))
    for name in ("algebra", "series", "qcalc", "tableaux", "macdonald", "baker",
                 "laumon", "euler", "parallel", "cache", "reports", "checks", "cli"):
        importlib.import_module(f"maclab.{name}")


def _cpu_s():
    self_, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def _run_cli(case, cache_dir):
    """The cache pass: the same CLI call twice against an empty cache."""
    import contextlib
    import io

    from maclab import cli

    argv = ["macdonald", "--n", str(case["n"]), "--lambda", ",".join(map(str, case["lambda"])),
            "--output", "json", "--cache-dir", cache_dir]
    runs = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        runs.append((code, out.getvalue()))
    (cold_code, cold), (warm_code, warm) = runs
    return {"exit_codes": [cold_code, warm_code], "warm_equals_cold": warm == cold}


def _run_check(case):
    from maclab import checks

    report = checks.run_check(case["check"], workers=case["workers"], **case["params"])
    return {"canonical": report.canonical_json()}


def main(argv):
    spec_path, result_path, spawned = argv[1], argv[2], float(argv[3])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    _import_maclab(root)
    setup_s = time.monotonic() - spawned
    setup_probe_s = sorted(_probe() for _ in range(3))[1]

    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    speed = None if tracer else HostSpeed()
    records = []
    for i, case in enumerate(spec["cases"]):
        if speed:
            speed.start()
        cpu0, t0 = _cpu_s(), time.monotonic()
        try:
            if case["kind"] == "cli":
                rec = _run_cli(case, os.path.join(spec["scratch"], f"cache-{i}"))
            else:
                rec = _run_check(case)
        except Exception:  # a raised case is a failed verdict, never a crash of the run
            rec = {"error": traceback.format_exc()}
        spent_wall = spent_cpu = 0.0
        if speed:
            rec["probe_s"], spent_wall, spent_cpu = speed.stop()
        rec["wall_s"] = time.monotonic() - t0 - spent_wall
        rec["cpu_s"] = _cpu_s() - cpu0 - spent_cpu
        records.append(rec)

    result = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "verdict_s": sum(rec["wall_s"] for rec in records),
        "cpu_s": sum(rec["cpu_s"] for rec in records),
        # ru_maxrss is in KiB on Linux; children = the largest pool worker
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024,
        "cases": records,
    }
    if tracer is not None:
        tracer.remove()
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        if spec.get("spans"):
            result["spans"] = tracer.write_spans(spec["spans"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv)
