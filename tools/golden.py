"""Byte-identity guard: run a fixed set of CLI commands and hash their output.

The set is 77 commands: the benchmark workloads (perfbench/workloads.py,
crossval seeds 1-40 and sweep, grid and deep seeds 1-10) and the seven
examples of README.md, each run in a fresh process.  One line is printed per
command: its name, its exit code, and the sha256 of its stdout and of its
stderr.  Run it on two trees and diff the output:

    python tools/golden.py > new.txt
    python tools/golden.py --src ../parent/src > old.txt
    diff old.txt new.txt

Every command exits 0 except the README's validate example, which exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEEDS = {"crossval": range(1, 41), "sweep": range(1, 11), "grid": range(1, 11),
         "deep": range(1, 11)}

_SWEEP = ["--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5", "--beta", "1", "--G", "6",
          "--kmin", "0.5", "--kmax", "20", "--nk", "500", "--scale", "log"]
README = {
    "readme-transmission": ["transmission", *_SWEEP],
    "readme-transmission-both": ["transmission", *_SWEEP, "--engine", "both"],
    "readme-grid": ["grid", "--L", "5", "--V", "25", "--G", "4", "--alpha-range", "0:1:11",
                    "--beta-range", "0:2:11", "--rho", "2.5", "--k", "1.0,2.5,5.0"],
    "readme-geometry": ["geometry", "--L", "1", "--V", "1", "--rho", "3", "--alpha", "1",
                        "--beta", "0", "--G", "4"],
    "readme-scaling": ["scaling", "--L", "1", "--V0", "10", "--rho", "1.75", "--alpha", "0.5",
                       "--beta", "0.25", "--G", "5", "--kmin", "50", "--kmax", "500",
                       "--nk", "1200"],
    "readme-saturation": ["saturation", "--L", "5", "--V", "25", "--rho", "2.5",
                          "--alpha", "0.5", "--beta", "1", "--gmin", "3", "--gmax", "8",
                          "--kmin", "0.5", "--kmax", "10", "--nk", "150"],
    "readme-validate": ["validate", "--L", "5", "--V", "25", "--rho", "2.718", "--alpha", "2",
                        "--beta", "-0.1", "--G", "20"],
}


def commands() -> dict[str, list[str]]:
    """Name -> CLI argv of every command of the set, in a fixed order."""
    argvs = {f"{name}-{seed}": workloads.make(name, seed).argv
             for name, seeds in SEEDS.items() for seed in seeds}
    return {**argvs, **README}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree whose ucpscatter runs (default: this one's)")
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": os.path.abspath(args.src)}
    for name, argv in commands().items():
        done = subprocess.run([sys.executable, "-m", "ucpscatter.cli", *argv], env=env,
                              capture_output=True)
        print(name, done.returncode, hashlib.sha256(done.stdout).hexdigest(),
              hashlib.sha256(done.stderr).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
