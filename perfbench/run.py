"""Benchmark of the ucpscatter command line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from src/.
One closed-loop client runs the workload's CLI command in a fresh process,
one command at a time, with the CLI's default worker count, until
``--seconds`` have passed.  Each process reports the time it took to import
``ucpscatter.cli`` (setup_s), the time of ``main()`` (points_per_s) and its
peak memory (peak_rss_mb); each is the median over the commands.  After
timing, every output is checked against the reference in refmodel.py.

The machine's speed drifts by up to 2x over tens of seconds on shared
hosts, so calibrate.py, a fixed pure-Python workload, runs before and after
each command, and both timings are scaled to a machine on which it takes
CAL_REF_S.  The unscaled figures are printed for people.

With ``--trace 1`` it runs the command in one process under tracer.py instead
and reports per-layer counts and self times, and the accuracy figures.

The last line of stdout is the result as JSON: ``correct``, ``attempted`` and
``failed`` count (spec, k) points, and ``metrics`` maps each metric name to
its value and unit.  The lines before it are the same figures for people.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

MIN_COMMANDS = 5
MIN_SETUP = 15
# no new work starts after this long, so every run ends inside 180 s
HARD_STOP_S = 100.0
COMMAND_TIMEOUT_S = 60.0

# calibrate.py's time on an idle machine of the kind this was tuned on; each
# timing is scaled by CAL_REF_S / (calibrate.py's time around that command)
CAL_REF_S = 0.1

SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import ucpscatter.cli\n"
    "print(time.perf_counter() - t)\n"
)

# per-layer metrics from the traced run: name -> traced functions summed
SELF_S = {
    "geometry.self_s": [
        "geometry.segment_length", "geometry.gap_length", "geometry.gamma1",
        "geometry.gamma2", "geometry.super_period",
    ],
    "special.self_s": ["special.q_pochhammer", "special.chebyshev_u"],
    "geometry.UcpSpec.self_s": ["geometry.UcpSpec"],
    "geometry.build_segments.self_s": ["geometry.build_segments"],
    "oracle.region_sequence.self_s": ["oracle.region_sequence"],
    "oracle.transmission_oracle.self_s": ["oracle.transmission_oracle"],
    "scattering.bloch_sequence.self_s": ["scattering.bloch_sequence"],
    "scattering.transmission_ucp.self_s": ["scattering.transmission_ucp"],
    "analysis.saturation_scan.self_s": ["analysis.saturation_scan"],
}
CALLS = {
    "geometry.calls": SELF_S["geometry.self_s"],
    "special.q_pochhammer.calls": ["special.q_pochhammer"],
    "geometry.UcpSpec.calls": ["geometry.UcpSpec"],
    "scattering.barrier_matrix.calls": ["scattering.barrier_matrix"],
    "scattering.matmul.calls": ["scattering.matmul"],
    "oracle.propagation_matrix.calls": ["oracle.propagation_matrix"],
    "scattering.transmission_ucp.calls": ["scattering.transmission_ucp"],
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(cmd: list[str], env: dict, timeout: float) -> tuple[int | None, str, str]:
    """Run a process in its own session, then kill whatever is left of its group.

    The kill also runs after a normal exit, so nothing the command leaves
    running (pool workers, a detached helper) shares the next calibration.
    """
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, err, code = None, None, None
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    if code is None:
        out, err = proc.communicate()
    return code, out, err


def _setup_sample(env: dict) -> float | None:
    code, out, _ = _run([sys.executable, "-c", SETUP_CODE], env, COMMAND_TIMEOUT_S)
    try:
        return float(out) if code == 0 else None
    except ValueError:
        return None


def _calibrate(env: dict) -> float:
    code, out, err = _run([sys.executable, str(HERE / "calibrate.py")], env, COMMAND_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"calibrate.py failed: {err.strip()[-300:]}")
    return float(out)


def _command(w: workloads.Workload, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "clirun.py"), *w.argv]
    code, out, err = _run(cmd, env, COMMAND_TIMEOUT_S)
    report = {}
    for line in err.splitlines():
        if line.startswith("PERFBENCH "):
            report = json.loads(line[len("PERFBENCH "):])
    ok = code == 0 and "main_s" in report
    return {"ok": ok, "code": code, "output": out, "stderr": err, **report}


def _verdicts(w: workloads.Workload, outputs: list[str | None]) -> list[workloads.Verdict | None]:
    """Checks each distinct output once; identical commands must print the same.

    None stands for a command that failed outright and stays None.
    """
    seen: dict[str, workloads.Verdict] = {}
    for out in outputs:
        if out is not None and out not in seen:
            seen[out] = workloads.check(w, out)
            if len(seen) > 1:
                seen[out].errors.append("output differs between identical commands")
    return [None if out is None else seen[out] for out in outputs]


def _tally(w: workloads.Workload, verdicts: list[workloads.Verdict | None]) -> dict:
    """Point totals over commands.

    ``failed`` counts every point of a command that failed or printed
    malformed output, plus points off the reference by more than the
    workload's gate_tol; ``failed_share`` counts points off by more than 1e-6.
    """
    good = [v for v in verdicts if v is not None and not v.errors]
    checked = sum(v.points for v in good)
    failed_points = sum(v.failed_points for v in good)
    failed = (len(verdicts) - len(good)) * w.points + sum(v.gated_points for v in good)
    all_good = len(good) == len(verdicts)
    return {
        "attempted": len(verdicts) * w.points,
        "failed": failed,
        "checked": checked,
        "failed_points": failed_points,
        "failed_share": failed_points / checked if all_good else 1.0,
        "max_dlog10T": max(v.max_dlog10t for v in good) if all_good else math.inf,
        "errors": [e for v in verdicts if v is not None for e in v.errors],
    }


def timed_run(w: workloads.Workload, seconds: float, env: dict) -> tuple[dict, dict, list[str]]:
    _setup_sample(env)  # fills the byte-code cache, which users do not pay per call
    # calibrate.py runs before and after every command; the mean of the two is
    # that command's slowness relative to the reference machine
    cals = [_calibrate(env)]
    commands = []
    start = time.perf_counter()
    while len(commands) < MIN_COMMANDS or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > HARD_STOP_S:
            break
        commands.append(_command(w, env))
        cals.append(_calibrate(env))
    for c, before, after in zip(commands, cals, cals[1:]):
        c["slowness"] = (before + after) / 2.0 / CAL_REF_S
    # every command starts with a fresh import of ucpscatter.cli
    setup = [c["import_s"] / c["slowness"] for c in commands if "import_s" in c]
    while len(setup) < MIN_SETUP and time.perf_counter() - start < HARD_STOP_S:
        sample = _setup_sample(env)
        cals.append(_calibrate(env))
        slowness = (cals[-2] + cals[-1]) / 2.0 / CAL_REF_S
        setup.append(None if sample is None else sample / slowness)

    ok = [c for c in commands if c["ok"]]
    tally = _tally(w, _verdicts(w, [c["output"] if c["ok"] else None for c in commands]))
    notes = [f"exit {c['code']}: {c['stderr'].strip()[-300:]}" for c in commands if not c["ok"]]
    good_setup = [s for s in setup if s is not None]
    if len(good_setup) < len(setup):
        notes.append(f"{len(setup) - len(good_setup)} of {len(setup)} imports failed")
    metrics = {
        "setup_s": (statistics.median(good_setup) if good_setup else math.inf, "s"),
        "points_per_s": (
            statistics.median(w.points / c["main_s"] * c["slowness"] for c in ok)
            if ok else 0.0,
            "1/s",
        ),
        "peak_rss_mb": (
            statistics.median(c["peak_kib"] / 1024.0 for c in ok) if ok else math.inf, "MiB"
        ),
    }
    tally["info"] = {
        "commands": len(commands),
        "import_samples": len(setup),
        "calibration_s": statistics.median(cals),
        "unscaled_points_per_s": statistics.median(w.points / c["main_s"] for c in ok) if ok else 0.0,
        "unscaled_setup_s": statistics.median(c["import_s"] for c in ok) if ok else 0.0,
    }
    return {"correct": not notes and not tally["failed"], **tally}, metrics, notes


def traced_run(w: workloads.Workload, seconds: float, env: dict, seed: int) -> tuple[dict, dict, list[str]]:
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{w.name}-{seed}.json"
    cmd = [sys.executable, str(HERE / "tracer.py"), "--seconds", repr(seconds),
           "--trace-out", str(trace_path), "--", *w.argv]
    code, out, err = _run(cmd, env, HARD_STOP_S + COMMAND_TIMEOUT_S - 10.0)
    try:
        result = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if code != 0 or result is None:
        tally = _tally(w, [None])
        return {"correct": False, **tally}, {}, [f"traced run failed ({code}): {err.strip()[-300:]}"]

    rounds = result["rounds"]
    notes = []
    if any(c != 0 for r in rounds for c in r["codes"]):
        notes.append(f"exit codes {[r['codes'] for r in rounds]}")
    if not result["identical_outputs"]:
        notes.append("traced and untraced outputs differ")
    if result["child_cpu_s"] > 0.0:
        notes.append("work ran in child processes, so the trace is incomplete")
    counts = [{k: v[0] for k, v in r["stats"].items()} for r in rounds]
    if any(c != counts[0] for c in counts):
        notes.append("call counts differ between identical traced commands")
    tally = _tally(w, _verdicts(w, [result["output"]]))

    def self_s(keys: list[str]) -> float:
        return statistics.median(sum(r["stats"].get(k, [0, 0.0])[1] for k in keys) for r in rounds)

    metrics = {name: (self_s(keys), "s") for name, keys in SELF_S.items()}
    metrics.update(
        (name, (sum(counts[0].get(k, 0) for k in keys), "count")) for name, keys in CALLS.items()
    )
    cli_keys = [k for k in rounds[0]["stats"] if k.startswith("cli.")]
    metrics["cli.self_s"] = (self_s(cli_keys), "s")
    metrics["cli.bytes_out"] = (rounds[0]["bytes_out"], "bytes")
    metrics["trace.overhead_s"] = (
        statistics.median(r["traced_s"] - r["plain_s"] for r in rounds), "s"
    )
    metrics["max_dlog10T"] = (tally["max_dlog10T"], "decades")
    metrics["failed_share"] = (tally["failed_share"], "ratio")
    tally["info"] = {"rounds": len(rounds), "trace_file": str(trace_path.relative_to(ROOT))}
    return {"correct": not notes and not tally["failed"], **tally}, metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description="ucpscatter CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "ucpscatter" / "cli.py").is_file():
        print(f"perfbench: no ucpscatter sources under {SRC}", file=sys.stderr)
        return 2
    w = workloads.make(args.workload, args.seed)
    env = _env()
    if args.trace:
        tally, metrics, notes = traced_run(w, args.seconds, env, args.seed)
    else:
        tally, metrics, notes = timed_run(w, args.seconds, env)

    print(f"workload={w.name} seed={w.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in tally.get("info", {}).items()))
    print("  ucpscatter " + " ".join(w.argv))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:<24.10g} {unit}")
    print(f"  accuracy: {tally['failed_points']}/{tally['checked']} points fail the reference, "
          f"max |dlog10 T| = {tally['max_dlog10T']:.3g}; the run fails beyond {w.gate_tol:.3g}")
    for line in notes + tally["errors"][:5]:
        print(f"  ERROR {line}")
    print(json.dumps({
        "correct": bool(tally["correct"]),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
