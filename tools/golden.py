"""Byte-identity guard: run a fixed set of CLI commands and hash their output.

The set is 98 commands: the benchmark workloads (perfbench/workloads.py,
crossval seeds 1-40 and sweep, grid and deep seeds 1-10), the seven examples
of README.md, five grids that hold each kind of invalid cell, --version,
--help, --help before a command and each command's --help, four command
lines the parser refuses, a saturation scan past the stage where every
width is 0, and two commands that read a config file (a JSON spec with one
flag overridden on the command line, and a key = value stage of 2.5), each
run in a fresh process.  One line is printed
per command: its name, its exit code, and the sha256 of its stdout and of its
stderr.  Run it on two trees and diff the output:

    python tools/golden.py > new.txt
    python tools/golden.py --src ../parent/src > old.txt
    diff old.txt new.txt

Every command exits 0 with nothing on stderr, except the README's validate
example, the four error-* commands, saturation-past-underflow and
config-bad-value, which exit 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

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

_GRID = ["grid", "--L", "5", "--V", "25", "--G", "4", "--k", "1.0,2.5,5.0"]
INVALID_CELLS = {
    "invalid-grid-rho-crosses-1": [*_GRID, "--alpha", "0.5", "--beta", "1",
                                   "--rho-range", "0.5:1.5:3"],
    "invalid-grid-zero-corner": [*_GRID, "--alpha-range", "0:1:3", "--beta-range", "0:1:3",
                                 "--rho", "2.5"],
    # the stage bounds are 1, 2, 3, 4 and 9: the first three fall below G = 4
    "invalid-grid-negative-beta": [*_GRID, "--alpha", "1", "--beta-range=-0.5:-0.1:5",
                                   "--rho-range", "2:3:2"],
    "invalid-grid-beta-nan": [*_GRID, "--alpha-range", "0.5:1:2", "--beta", "nan",
                              "--rho", "2.5"],
    "invalid-grid-alpha-minus-zero": [*_GRID, "--alpha", "-0.0", "--beta-range", "0:1:2",
                                      "--rho", "2.5"],
}


# the commands are named here, not read from the package, so that any tree runs the same set
HELP = {"version": ["--version"], "help": ["--help"],
        "help-before-command": ["--help", "validate"],
        **{f"help-{name}": [name, "--help"] for name in
           ("transmission", "grid", "geometry", "scaling", "saturation", "validate")}}

_SPEC = ["--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5", "--beta", "1", "--G", "6"]
# the parser's usage errors, each printed with the usage of the parser that refuses it
ERRORS = {
    "error-unknown-command": ["bogus"],
    "error-no-command": [],
    "error-flag-before-command": ["--bogus", "validate", *_SPEC],
    "error-flag-after-command": ["validate", *_SPEC, "--bogus", "1"],
}

# the README's saturation spec from stage 3 past 1077, where its widths underflow to 0
REFUSED = {
    "saturation-past-underflow": ["saturation", "--L", "5", "--V", "25", "--rho", "2.5",
                                  "--alpha", "0.5", "--beta", "1", "--gmin", "3", "--gmax",
                                  "1200", "--kmin", "0.5", "--kmax", "10", "--nk", "10"],
}


# name -> (config file name, its text, the argv that reads it); the file is
# written into a temporary directory, whose path is in no output
CONFIGS = {
    "config-json": ("run.json", json.dumps({"L": 5, "V": 25, "rho": 2.5, "alpha": 0.5, "beta": 1,
                                            "G": 6, "kmin": 0.5, "kmax": 20, "nk": 50,
                                            "scale": "log"}),
                    ["transmission", "--G", "4"]),
    "config-bad-value": ("run.cfg", "L = 5\nV = 25\nrho = 2.5\nalpha = 0.5\nbeta = 1\nG = 2.5\n",
                         ["validate"]),
}


def commands(config_dir: pathlib.Path) -> dict[str, list[str]]:
    """Name -> CLI argv of every command of the set, in a fixed order.  The
    config files are written into config_dir."""
    argvs = {f"{name}-{seed}": workloads.make(name, seed).argv
             for name, seeds in SEEDS.items() for seed in seeds}
    configs = {}
    for name, (file, text, argv) in CONFIGS.items():
        (config_dir / file).write_text(text)
        configs[name] = [*argv, "--config", str(config_dir / file)]
    return {**argvs, **README, **INVALID_CELLS, **HELP, **ERRORS, **REFUSED, **configs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree whose ucpscatter runs (default: this one's)")
    args = parser.parse_args()
    # help text is wrapped to COLUMNS, so it is fixed
    env = {**os.environ, "PYTHONPATH": os.path.abspath(args.src), "COLUMNS": "80"}
    with tempfile.TemporaryDirectory() as config_dir:
        for name, argv in commands(pathlib.Path(config_dir)).items():
            done = subprocess.run([sys.executable, "-m", "ucpscatter.cli", *argv], env=env,
                                  capture_output=True)
            print(name, done.returncode, hashlib.sha256(done.stdout).hexdigest(),
                  hashlib.sha256(done.stderr).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
