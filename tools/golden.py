"""Byte-identity guard: run a fixed set of CLI commands and hash their output.

Each table below names its commands and states each one's exit code next to
its argv.  Every command runs in a fresh process.  One line is printed per
command: its name, its exit code, and the sha256 of its stdout and of its
stderr.  Run it on two trees and diff the output:

    python tools/golden.py > new.txt
    python tools/golden.py --src ../parent/src > old.txt
    diff old.txt new.txt

After the last line it checks two rules: every command exits with its stated
code, and no command whose stated code is 0 writes to stderr (so a numpy
warning that leaks there is caught).  It writes one line to stderr per command
that breaks a rule, and then exits 1.
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

SEEDS = {"crossval": range(1, 41), "sweep": range(1, 11), "grid": range(1, 11),
         "deep": range(1, 11)}

_SWEEP = ["--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5", "--beta", "1", "--G", "6",
          "--kmin", "0.5", "--kmax", "20", "--nk", "500", "--scale", "log"]
# each table: name -> (exit code, argv)
README = {
    "readme-transmission": (0, ["transmission", *_SWEEP]),
    "readme-transmission-both": (0, ["transmission", *_SWEEP, "--engine", "both"]),
    "readme-grid": (0, ["grid", "--L", "5", "--V", "25", "--G", "4", "--alpha-range", "0:1:11",
                        "--beta-range", "0:2:11", "--rho", "2.5", "--k", "1.0,2.5,5.0"]),
    "readme-geometry": (0, ["geometry", "--L", "1", "--V", "1", "--rho", "3", "--alpha", "1",
                            "--beta", "0", "--G", "4"]),
    "readme-scaling": (0, ["scaling", "--L", "1", "--V0", "10", "--rho", "1.75", "--alpha",
                           "0.5", "--beta", "0.25", "--G", "5", "--kmin", "50", "--kmax", "500",
                           "--nk", "1200"]),
    "readme-saturation": (0, ["saturation", "--L", "5", "--V", "25", "--rho", "2.5",
                              "--alpha", "0.5", "--beta", "1", "--gmin", "3", "--gmax", "8",
                              "--kmin", "0.5", "--kmax", "10", "--nk", "150"]),
    # G = 20 is one stage past the bound of (alpha, beta) = (2, -0.1)
    "readme-validate": (2, ["validate", "--L", "5", "--V", "25", "--rho", "2.718", "--alpha",
                            "2", "--beta", "-0.1", "--G", "20"]),
}

# each invalid cell is flagged in its row, and the grid exits 0
_GRID = ["grid", "--L", "5", "--V", "25", "--G", "4", "--k", "1.0,2.5,5.0"]
INVALID_CELLS = {
    "invalid-grid-rho-crosses-1": (0, [*_GRID, "--alpha", "0.5", "--beta", "1",
                                       "--rho-range", "0.5:1.5:3"]),
    "invalid-grid-zero-corner": (0, [*_GRID, "--alpha-range", "0:1:3", "--beta-range", "0:1:3",
                                     "--rho", "2.5"]),
    # the stage bounds are 1, 2, 3, 4 and 9: the first three fall below G = 4
    "invalid-grid-negative-beta": (0, [*_GRID, "--alpha", "1", "--beta-range=-0.5:-0.1:5",
                                       "--rho-range", "2:3:2"]),
    "invalid-grid-beta-nan": (0, [*_GRID, "--alpha-range", "0.5:1:2", "--beta", "nan",
                                  "--rho", "2.5"]),
    "invalid-grid-alpha-minus-zero": (0, [*_GRID, "--alpha", "-0.0", "--beta-range", "0:1:2",
                                          "--rho", "2.5"]),
}


# the commands are named here, not read from the package, so that any tree runs the same
# set; help and version text go to stdout
HELP = {"version": (0, ["--version"]), "help": (0, ["--help"]),
        "help-before-command": (0, ["--help", "validate"]),
        **{f"help-{name}": (0, [name, "--help"]) for name in
           ("transmission", "grid", "geometry", "scaling", "saturation", "validate")}}

_SPEC = ["--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5", "--beta", "1", "--G", "6"]
# the parser's usage errors, each printed with the usage of the parser that refuses it
ERRORS = {
    "error-unknown-command": (2, ["bogus"]),
    "error-no-command": (2, []),
    "error-flag-before-command": (2, ["--bogus", "validate", *_SPEC]),
    "error-flag-after-command": (2, ["validate", *_SPEC, "--bogus", "1"]),
}

# the README's saturation spec from stage 3 past 1077, where its widths underflow to 0
REFUSED = {
    "saturation-past-underflow": (2, ["saturation", "--L", "5", "--V", "25", "--rho", "2.5",
                                      "--alpha", "0.5", "--beta", "1", "--gmin", "3", "--gmax",
                                      "1200", "--kmin", "0.5", "--kmax", "10", "--nk", "10"]),
}


# name -> (exit code, config file name, its text, the argv that reads it); the
# file is written into a temporary directory, whose path is in no output
CONFIGS = {
    "config-json": (0, "run.json", json.dumps({"L": 5, "V": 25, "rho": 2.5, "alpha": 0.5,
                                               "beta": 1, "G": 6, "kmin": 0.5, "kmax": 20,
                                               "nk": 50, "scale": "log"}),
                    ["transmission", "--G", "4"]),
    "config-bad-value": (2, "run.cfg", "L = 5\nV = 25\nrho = 2.5\nalpha = 0.5\nbeta = 1\n"
                                       "G = 2.5\n", ["validate"]),
}


def commands(config_dir: pathlib.Path) -> dict[str, tuple[int, list[str]]]:
    """Name -> (exit code, CLI argv) of every command of the set, in a fixed
    order.  The config files are written into config_dir."""
    # imported here, so that reading the tables leaves sys.path as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    # every benchmark workload exits 0
    argvs = {f"{name}-{seed}": (0, workloads.make(name, seed).argv)
             for name, seeds in SEEDS.items() for seed in seeds}
    configs = {}
    for name, (code, file, text, argv) in CONFIGS.items():
        (config_dir / file).write_text(text)
        configs[name] = (code, [*argv, "--config", str(config_dir / file)])
    return {**argvs, **README, **INVALID_CELLS, **HELP, **ERRORS, **REFUSED, **configs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree whose ucpscatter runs (default: this one's)")
    args = parser.parse_args()
    # help text is wrapped to COLUMNS, so it is fixed
    env = {**os.environ, "PYTHONPATH": os.path.abspath(args.src), "COLUMNS": "80"}
    broken = []
    with tempfile.TemporaryDirectory() as config_dir:
        for name, (code, argv) in commands(pathlib.Path(config_dir)).items():
            done = subprocess.run([sys.executable, "-m", "ucpscatter.cli", *argv], env=env,
                                  capture_output=True)
            print(name, done.returncode, hashlib.sha256(done.stdout).hexdigest(),
                  hashlib.sha256(done.stderr).hexdigest(), flush=True)
            if done.returncode != code:
                broken.append(f"golden: {name} exited {done.returncode}, expected {code}")
            elif code == 0 and done.stderr:
                broken.append(f"golden: {name} exited 0 but wrote to stderr")
    for line in broken:
        print(line, file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
