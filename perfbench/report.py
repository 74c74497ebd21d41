"""Run every workload over several seeds and print one table of all metrics.

    python3 perfbench/report.py --seeds 1-10 --write perfbench/baseline.json

For each workload it makes one untraced run per seed, each of BENCHMARK.json's
``run_seconds``, and reports, for each end-to-end metric, the median over
seeds, the quartiles and their distance as a share of the median (the
spread).  It then makes two traced runs with the first seed, prints the
per-layer metrics (accuracy included) and checks that every count repeats
exactly.  ``--write`` saves all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
TRACED_RUNS = 2


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr[-500:]}")
    for line in lines[:-1]:
        if "ERROR" in line:
            print(f"    {line.strip()}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-1", help="seed range LO-HI")
    parser.add_argument("--write", help="save the results as JSON here")
    args = parser.parse_args()
    lo, hi = args.seeds.split("-")
    seeds = list(range(int(lo), int(hi) + 1))

    report = {"seeds": seeds, "seconds": SECONDS, "workloads": {}}
    for name in workloads.NAMES:
        print(f"== {name}", flush=True)
        untraced = [run(name, seed, 0) for seed in seeds]
        traced = [run(name, seeds[0], 1) for _ in range(TRACED_RUNS)]
        entry = {
            "correct": all(r["correct"] for r in untraced + traced),
            "failed": sum(r["failed"] for r in untraced + traced),
            "end_to_end": {},
            "per_layer": traced[0]["metrics"],
        }
        for metric, first in untraced[0]["metrics"].items():
            stats = spread([r["metrics"][metric]["value"] for r in untraced])
            entry["end_to_end"][metric] = {"unit": first["unit"], **stats}
            print(f"  {metric:<36} median {stats['median']:<14.6g} {first['unit']:<8} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} spread {stats['spread']:.3f}")
        for metric, value in entry["per_layer"].items():
            repeats = {r["metrics"][metric]["value"] for r in traced}
            exact = "" if value["unit"] != "count" or len(repeats) == 1 else "  NOT REPEATED"
            print(f"  {metric:<36} {value['value']:<14.6g} {value['unit']}{exact}")
        print(f"  correct={entry['correct']} failed={entry['failed']}", flush=True)
        report["workloads"][name] = entry

    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
