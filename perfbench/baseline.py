"""Record a baseline: repeated runs of every workload, plus one traced run.

    python3 perfbench/baseline.py

Runs ``perfbench/run.py`` on every workload of BENCHMARK.json with seeds 1
to 10, and once more with ``--trace 1`` at seed 1.  Writes to
``perfbench/baseline.json``, per workload, the median and quartiles of
every end-to-end metric over the runs, their spread (quartile distance
over median) against the bound in BENCHMARK.json, and the traced run's
per-layer table.  Prints the spreads, and the range of the runs' median
host-speed sample (see ``child.HostSpeed``), as it goes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench-out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "facts": detail["facts"]}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    doc = {"runs_per_workload": len(SEEDS), "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        entry = {"seeds": SEEDS, "correct": all(r["result"]["correct"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "facts": [r["facts"] for r in runs], "end_to_end": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": metric["bound"], "values": values}
            print(f"{workload:20s} {name:12s} median {med:10.4f} {metric['unit']:3s} "
                  f"spread {(q3 - q1) / med:.3f} (bound {metric['bound']})", flush=True)
        probes = [r["facts"]["host_probe_s"][1] for r in runs]
        print(f"{workload:20s} host probe {min(probes):.4f} .. {max(probes):.4f} s", flush=True)
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry["traced"] = {"seed": SEEDS[0], "facts": traced["facts"],
                           "correct": traced["result"]["correct"],
                           "per_layer": {k: m["value"] for k, m in
                                         traced["result"]["metrics"].items()}}
        doc["workloads"][workload] = entry
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
