"""Byte-identity guard: run a fixed set of CLI commands and hash their output.

Each table below names its commands and states each one's exit code next to
its argv.  Every command runs in a fresh process.  One line is printed per
command: its name, its exit code, and the sha256 of its stdout and of its
stderr.  Run it on two trees and diff the output:

    python tools/golden.py > new.txt
    python tools/golden.py --src ../parent/src > old.txt
    diff old.txt new.txt

Then one more process on the same tree calls the library functions, with the
seeded arguments of _library(), and prints one line per entry: its name and
the sha256 of every result float's .hex() and of each refusal's type and
text.  The entries in CPU_DEPENDENT may differ between CPUs of one tree; CI
compares every other library line under numpy's baseline dispatch too.

After the last line it checks two rules: every command, and the library
process, exits with its stated code (0 for the library process), and no
command whose stated code is 0 writes to stderr (so a numpy warning that
leaks there is caught).  It writes one line to stderr per command that breaks
a rule, and then exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import random
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

# a refused k grid under each command that makes one: a count below scaling's
# 50, a window with kmin > kmax, and a count below saturation's 2
K_GRID_REFUSED = {
    "k-grid-scaling-count": (2, [*README["readme-scaling"][1][:-1], "10"]),
    "k-grid-transmission-window": (2, ["transmission", *_SPEC, "--kmin", "2", "--kmax", "1",
                                       "--nk", "50"]),
    "k-grid-saturation-count": (2, [*README["readme-saturation"][1][:-1], "1"]),
}


# the CLI paths that no command above takes: the oracle alone, an explicit
# linear k grid, saturation on a log k grid, a validate that passes (G = 19
# is the bound of readme-validate's (alpha, beta) = (2, -0.1)), and barriers
# whose entries near a double's limit (cosh(kappa w_1) ~ 1e308): the sizes
# the rescale tests add up, the oracle's at L = 2128 and the closed form's at
# L = 2130, pass a double, and no warning may reach stderr
_SWEEP_50 = ["--kmin", "0.5", "--kmax", "20", "--nk", "50"]
_NEAR_LIMIT = ["--V", "2", "--rho", "3", "--alpha", "1", "--beta", "0", "--G", "1",
               "--kmin", "0.999999", "--kmax", "1.000001", "--nk", "2", "--engine", "both"]
PATHS = {
    "transmission-oracle": (0, ["transmission", *_SPEC, *_SWEEP_50, "--engine", "oracle"]),
    "transmission-linear": (0, ["transmission", *_SPEC, *_SWEEP_50, "--scale", "linear"]),
    "saturation-log": (0, [*README["readme-saturation"][1], "--scale", "log"]),
    "validate-last-stage": (0, ["validate", "--L", "5", "--V", "25", "--rho", "2.718",
                                "--alpha", "2", "--beta", "-0.1", "--G", "19"]),
    "transmission-near-limit-oracle": (0, ["transmission", "--L", "2128", *_NEAR_LIMIT]),
    "transmission-near-limit-closed-form": (0, ["transmission", "--L", "2130", *_NEAR_LIMIT]),
}


# commands at the edge of what main reads itself, without argparse: a flag
# given twice (the last value wins), the = form of each kind of value, a spaced
# negative height (a well), a count written with an underscore, and a negative
# count joined by =, which the command refuses with exit 2, not the parser
READER = {
    "reader-repeated-flag": (0, ["transmission", "--G", "3", *_SPEC, *_SWEEP_50]),
    "reader-equals-forms": (0, ["transmission", *(f"{flag}={value}" for flag, value in
                                                  zip(_SPEC[::2], _SPEC[1::2])),
                                "--kmin=0.5", "--kmax=20", "--nk=50", "--scale=log",
                                "--engine=both"]),
    "reader-equals-forms-grid": (0, [*_GRID[:-2], "--k=1.0,2.5,5.0", "--alpha-range=0:1:3",
                                     "--beta=1", "--rho=2.5"]),
    "reader-spaced-negative-height": (0, ["transmission", "--L", "5", "--V", "-25",
                                          *_SPEC[4:], *_SWEEP_50]),
    "reader-underscore-count": (0, ["transmission", *_SPEC, *_SWEEP_50[:-1], "5_0"]),
    "reader-negative-count": (2, ["transmission", *_SPEC, *_SWEEP_50[:-2], "--nk=-1"]),
}


# name -> (exit code, config file name, its text, the argv that reads it); the
# file is written into a temporary directory, whose path is in no output
CONFIGS = {
    "config-json": (0, "run.json", json.dumps({"L": 5, "V": 25, "rho": 2.5, "alpha": 0.5,
                                               "beta": 1, "G": 6, "kmin": 0.5, "kmax": 20,
                                               "nk": 50, "scale": "log"}),
                    ["transmission", "--G", "4"]),
    # a comment line and a blank line are skipped
    "config-key-value": (0, "run.txt", "# the README spec\nL = 5\nV = 25\n\nrho = 2.5\n"
                                       "alpha = 0.5\nbeta = 1\nkmin = 0.5\nkmax = 20\n"
                                       "nk = 50\nscale = log\n", ["transmission", "--G", "6"]),
    "config-bad-value": (2, "run.cfg", "L = 5\nV = 25\nrho = 2.5\nalpha = 0.5\nbeta = 1\n"
                                       "G = 2.5\n", ["validate"]),
}


# (alpha, beta) families: general Cantor, SVC, two mixed ones, and a negative
# beta whose stages are bounded (alpha + beta g > 0 up to g = 19)
_FAMILIES = [(1.0, 0.0), (0.0, 1.0), (0.5, 1.0), (1.0, 0.25), (2.0, -0.1)]


def _spec(rng: random.Random, max_stage: int, opaque: bool = False):
    """A seeded spec of stage <= max_stage, V of either sign up to 1e4 in size.
    An opaque one is thick and high (L >= 10, V >= 100) at stage >= 4: at
    k <= 10 its blocks often pass 2**500, so the rescale runs."""
    from ucpscatter import UcpSpec

    alpha, beta = rng.choice(_FAMILIES)
    L = 10 ** rng.uniform(1 if opaque else -1, 2.5)
    V = 10 ** rng.uniform(2, 4) if opaque else rng.choice([-1, 1]) * 10 ** rng.uniform(-1, 4)
    G = rng.randint(4 if opaque else 0, max_stage if beta >= 0 else min(max_stage, 19))
    return UcpSpec(L=L, V=V, rho=rng.uniform(1.5, 5.0), alpha=alpha, beta=beta, G=G)


def _ks(rng: random.Random, n: int, opaque: bool = False) -> list[float]:
    return [10 ** (rng.uniform(-1, 1) if opaque else rng.uniform(-2, 2)) for _ in range(n)]


def _spp_call(rng: random.Random):
    """transmission_spp's arguments: N <= 5 at up to five orders, about a
    quarter of the gaps negative (a spacing below the block's span)."""
    V, width = rng.choice([-1, 1]) * 10 ** rng.uniform(-1, 4), 10 ** rng.uniform(-2, 0.5)
    Ns, ss, span = [], [], width
    for _ in range(rng.randint(0, 5)):
        Ns.append(rng.randint(1, 5))
        ss.append(span * rng.uniform(0.5, 2.5))
        span = (Ns[-1] - 1) * ss[-1] + span
    return V, width, Ns, ss, _ks(rng, 1)[0]


# the entries whose bits may move with the CPU: fit_scaling takes np.logspace
# (numpy's SIMD power) and np.polyfit (LAPACK)
CPU_DEPENDENT = {"fit_scaling"}


def _library() -> dict[str, list]:
    """Entry name -> its calls, each (function, args), drawn from a fixed seed:
    G <= 40, every other call's specs opaque.  The last call of each entry
    raises its first bad point's error."""
    import ucpscatter as u

    rng = random.Random(20231)
    library = {name: [] for name in ("bloch_sequence", "transmission_spp",
                                     "transmission_ucp_arrays", "saturation_scan",
                                     "transmission_oracle_arrays")}
    for i in range(40):
        opaque = i % 2 == 1
        library["bloch_sequence"].append(
            (u.bloch_sequence, (_spec(rng, 40, opaque), _ks(rng, 1, opaque)[0])))
        library["transmission_spp"].append((u.transmission_spp, _spp_call(rng)))
        spec = _spec(rng, 40, opaque)
        if spec.G:
            library["saturation_scan"].append(
                (u.saturation_scan, (spec, rng.randint(0, spec.G - 1), _ks(rng, 20, opaque))))
        if i < 10:  # mixed stages, an opaque spec next to an ordinary one
            specs = [_spec(rng, 40, j % 2 == 1) for j in range(rng.randint(1, 6))]
            library["transmission_ucp_arrays"].append(
                (u.transmission_ucp_arrays, (specs, _ks(rng, rng.randint(1, 8), opaque))))
            library["transmission_oracle_arrays"].append(
                (u.transmission_oracle_arrays, (_spec(rng, 8), _ks(rng, 20))))
    spec = _spec(rng, 40)
    for name, call in [
        ("bloch_sequence", (u.bloch_sequence, (spec, -1.0))),
        ("transmission_spp", (u.transmission_spp, (25.0, 1.0, [2, 3], [3.0, math.inf], 2.0))),
        ("transmission_ucp_arrays", (u.transmission_ucp_arrays, ([spec] * 2, [2.0, -1.0, 0.0]))),
        ("saturation_scan", (u.saturation_scan, (spec, -1, [2.0]))),
        ("transmission_oracle_arrays", (u.transmission_oracle_arrays,
                                        (_spec(rng, 8), [2.0, 0.0, -1.0]))),
    ]:
        library[name].append(call)
    return {**library, **_more_library(random.Random(20232)),
            "number-types": _number_types(random.Random(20233)),
            **_arrays_library(random.Random(20234)), **_first_refusal_library(),
            **_asymptote_refusal_library()}


def _more_library(rng: random.Random) -> dict[str, list]:
    """The entries of the analysis functions, the geometry lengths and lists,
    closed-form T below 1e-300 and the oracle's rescale schedule, drawn from
    their own seed so that the entries above keep their calls.  The last call
    of each entry but the oracle's is refused."""
    import numpy as np
    import ucpscatter as u

    specs = [_spec(rng, 40) for _ in range(12)]
    small = [_spec(rng, 10) for _ in range(4)]  # G <= 10: 2**G barriers listed
    heights = [10 ** rng.uniform(-1, 2) for _ in specs]
    lows = [10 ** rng.uniform(1.5, 2.5) for _ in range(6)]
    windows = [(k, k * 10 ** rng.uniform(0.5, 1.5)) for k in lows]
    ks = [10 ** rng.uniform(2, 4.5) for _ in specs]  # most pass the guard V_G/k^2 < 0.1
    # thick, high barriers at k <= 1: log10 T runs to about -2600
    opaque = [u.UcpSpec(L=50.0 * (j + 1), V=1e4, rho=3.0, alpha=1.0, beta=0.0, G=2 + j)
              for j in range(3)]
    # (alpha, beta) with beta < 0 of every size down to 1e-6, which bounds the stage
    bounded = [(10 ** rng.uniform(-2, 1), -(10 ** rng.uniform(-6, 1))) for _ in range(8)]
    return {
        "fit_scaling": [*((u.fit_scaling, (spec, v0, window, rng.randint(50, 200)))
                          for spec, v0, window in zip(specs, heights, windows)),
                        (u.fit_scaling, (specs[0], 1.0, (50.0, 500.0), 49))],
        "reflection_asymptote": [*((u.reflection_asymptote, call)
                                   for call in zip(specs, heights, ks)),
                                 (u.reflection_asymptote, (specs[0], 1.0, 1e-300))],
        "constant_area_height": [*((u.constant_area_height, call)
                                   for call in zip(specs, heights)),
                                 (u.constant_area_height, (specs[0], 0.0))],
        "segment_length": [*((u.segment_length, (spec, rng.randint(0, spec.G)))
                             for spec in specs), (u.segment_length, (specs[0], -1))],
        "gap_length": [*((u.gap_length, (spec, rng.randint(1, spec.G))) for spec in specs
                         if spec.G), (u.gap_length, (specs[0], 0))],
        "super_period": [*((u.super_period, (spec, rng.randint(1, spec.G))) for spec in specs
                           if spec.G), (u.super_period, (specs[0], specs[0].G + 1))],
        "max_valid_stage": [*((u.max_valid_stage, pair) for pair in bounded + _FAMILIES),
                            (u.max_valid_stage, (0.0, 0.0))],
        "build_segments": [*((u.build_segments, (spec,)) for spec in small),
                           (u.build_segments, (u.UcpSpec(L=1.7976931348623157e308, V=1e150,
                                                         rho=10.0, alpha=2.0, beta=-0.5,
                                                         G=3),))],
        "region_sequence": [*((u.region_sequence, (spec,)) for spec in small),
                            (u.region_sequence, (dataclasses.replace(small[0], G=17),))],
        "transmission_ucp_arrays-below-1e-300": [
            (u.transmission_ucp_arrays, (opaque, [0.25, 0.5, 1.0])),
            (u.transmission_ucp_arrays, (opaque, [1.0, 1e-200]))],
        # the rescale case of tests/test_batch.py's ORACLE_BITS
        "transmission_oracle_arrays-rescale": [
            (u.transmission_oracle_arrays, (u.UcpSpec(L=300.0, V=5000.0, rho=2.2, alpha=0.4,
                                                      beta=0.3, G=12), np.linspace(0.05, 60, 37)))],
    }


def _arrays_library(rng: random.Random) -> dict[str, list]:
    """The arrays entries of bloch_sequence, transmission_spp and
    reflection_asymptote, from their own seed: G <= 64, every other Bloch
    call's spec opaque, and up to 8 k a call, none in some, each k drawn as the
    one-point calls above draw theirs.  The last call of
    each entry raises its first bad k's error."""
    import ucpscatter as u

    library = {name: [] for name in ("bloch_sequence_arrays", "transmission_spp_arrays",
                                     "reflection_asymptote_arrays")}
    for i in range(20):
        opaque = i % 2 == 1
        spec = _spec(rng, 64, opaque)
        library["bloch_sequence_arrays"].append(
            (u.bloch_sequence_arrays, (spec, _ks(rng, rng.randint(0, 8), opaque))))
        V, width, Ns, ss, _ = _spp_call(rng)
        library["transmission_spp_arrays"].append(
            (u.transmission_spp_arrays, (V, width, Ns, ss, _ks(rng, rng.randint(0, 8)))))
        # most pass the guard V_G/k^2 < 0.1, as in _more_library
        library["reflection_asymptote_arrays"].append(
            (u.reflection_asymptote_arrays, (_spec(rng, 40), 10 ** rng.uniform(-1, 2),
                                             [10 ** rng.uniform(2, 4.5)
                                              for _ in range(rng.randint(0, 4))])))
    spec = _spec(rng, 40)
    for name, call in [
        ("bloch_sequence_arrays", (u.bloch_sequence_arrays, (spec, [2.0, -1.0, 0.0]))),
        ("transmission_spp_arrays", (u.transmission_spp_arrays,
                                     (25.0, 1.0, [2, 3], [3.0, 9.0], [2.0, math.nan, -1.0]))),
        ("reflection_asymptote_arrays", (u.reflection_asymptote_arrays,
                                         (spec, 1.0, [1e4, 1e-300, -1.0]))),
    ]:
        library[name].append(call)
    return library


def _first_refusal_library() -> dict[str, list]:
    """One call per arrays entry whose first k is refused as its gap's k*d
    overflows a double, and a later k as negative: each raises the gap's
    error, the one-point call's at its first refused k.  The k are written
    out, so no line depends on the CPU."""
    import ucpscatter as u

    # d_1 = 1e308 against l_1 = 5e297: kappa l_1 fits a double at each k below
    wide = u.UcpSpec(L=1e308, V=1.0, rho=2.0, alpha=1.4426950409e-10, beta=0.0, G=1)
    calls = {
        "transmission_ucp_arrays": (u.transmission_ucp_arrays, ([wide], [10.0, -1.0])),
        "transmission_oracle_arrays": (u.transmission_oracle_arrays, (wide, [10.0, -1.0])),
        "bloch_sequence_arrays": (u.bloch_sequence_arrays, (wide, [10.0, -1.0])),
        "transmission_spp_arrays": (u.transmission_spp_arrays,
                                    (1.0, 1.0, [2], [1e308], [2.0, -1.0])),
        # V_G = 1e10: k = 1e6 passes the guard V_G/k^2 < 0.1
        "reflection_asymptote_arrays": (u.reflection_asymptote_arrays,
                                        (wide, 1.0, [1e6, -1.0])),
    }
    return {f"{name}-gap-first": [call] for name, call in calls.items()}


def _asymptote_refusal_library() -> dict[str, list]:
    """The asymptote's entry where its Bloch pass refuses a k: after 2000
    k that pass the guard, and after a k whose asymptote overflows first.
    The k are written out, so no line depends on the CPU."""
    import ucpscatter as u

    spec = u.UcpSpec(L=1e11, V=1.0, rho=3.0, alpha=1.0, beta=0.0, G=6)
    ks = [10 ** (2 + 2 * j / 1999) for j in range(2000)]
    # l_G = 1e200 or near it: every asymptote overflows, and k = 1e200 is refused
    huge = [u.UcpSpec(L=1e200, V=1.0, rho=2.0, alpha=1.0, beta=0.0, G=G) for G in (1, 0)]
    return {
        "reflection_asymptote_arrays-refused-last":
            [(u.reflection_asymptote_arrays, (spec, 1.0, [*ks, 1e300]))],
        "reflection_asymptote_arrays-overflow-first":
            [(u.reflection_asymptote_arrays, (s, 1.0, [10.0, 1e200])) for s in huge],
    }


def _staged(function, spec, G, *args):
    """function(spec at stage G, *args), the spec built in the call, so that a
    source tree that refuses G's type refuses this call and no other."""
    return function(dataclasses.replace(spec, G=G), *args)


def _number_types(rng: random.Random) -> list:
    """Calls whose number arguments come as every type a number may be, from
    their own seed: spec fields as ints, bools, np.int64, np.float32, np.float64
    and 0-d arrays (G as an int, an np.int64, an np.uint8 or a 0-d int array),
    k as an int, an np.float32 and a 0-d array, and the width of
    transmission_spp as an int, an np.float32, an np.float64 or a 0-d array.
    The last call is refused."""
    import numpy as np
    import ucpscatter as u

    integers = [round, lambda x: np.int64(round(x))]
    types = [*integers, bool, np.float32, np.float64, np.array]
    k_types = [round, np.float32, np.array, float]

    def typed(x, lowest=None):
        """x as a drawn type; a field with a lowest value is never a bool, and
        an integer drawn for it is at least that."""
        number = rng.choice(types if lowest is None else [t for t in types if t is not bool])
        return max(number(x), lowest) if lowest and number in integers else number(x)

    calls = []
    for _ in range(24):
        base = _spec(rng, 40)
        alpha, beta = typed(base.alpha), typed(base.beta)
        bound = u.max_valid_stage(alpha, beta)
        G = rng.randint(0, 40 if bound is None else min(40, bound))
        spec = u.UcpSpec(L=typed(base.L, lowest=1), V=typed(base.V), rho=typed(base.rho, lowest=2),
                         alpha=alpha, beta=beta, G=G)
        stage = rng.choice([int, np.int64, np.uint8, np.array])(spec.G)
        k = rng.choice(k_types)(_ks(rng, 1)[0] * 10)
        V, width, Ns, ss, k_spp = _spp_call(rng)
        width = rng.choice([np.float32, np.float64, np.array, lambda w: max(1, round(w))])(width)
        calls += [(u.max_valid_stage, (alpha, beta)),
                  (_staged, (u.transmission_ucp, spec, stage, k)),
                  (_staged, (u.bloch_sequence, spec, stage, k)),
                  (u.transmission_ucp_arrays, ([spec, base], [k, rng.choice(k_types)(2.5)])),
                  (u.constant_area_height, (spec, rng.choice([10 ** rng.uniform(-1, 2), 3]))),
                  (u.transmission_spp, (typed(V), width, Ns, ss, k_spp))]
    return [*calls, (u.max_valid_stage, (np.int64(0), False))]


def _hexes(result) -> list[str]:
    """Every number of a result (floats, arrays, result records, and tuples of
    them), in order, as float .hex()."""
    import numpy as np

    if result is None:  # max_valid_stage's unbounded stage
        return ["None"]
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    if isinstance(result, (tuple, list)):
        return [h for item in result for h in _hexes(item)]
    return [float(x).hex() for x in np.ravel(result).tolist()]


def print_library_lines() -> None:
    """Print one line per _library() entry: its name and the sha256 of its
    calls' outcomes.  Runs in the process that golden.py starts on the tree."""
    from ucpscatter import OracleInfeasibleError

    for name, calls in _library().items():
        digest = hashlib.sha256()
        for function, args in calls:
            try:
                digest.update(" ".join(_hexes(function(*args))).encode())
            except (ValueError, OracleInfeasibleError) as exc:
                digest.update(f"{type(exc).__name__}: {exc}".encode())
            digest.update(b"\n")
        print(f"library-{name}", digest.hexdigest(), flush=True)


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
    return {**argvs, **README, **INVALID_CELLS, **HELP, **ERRORS, **REFUSED, **K_GRID_REFUSED,
            **PATHS, **READER, **configs}


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
    # the library lines, from the same tree; tools/ joins the path for "import golden"
    env["PYTHONPATH"] += os.pathsep + str(ROOT / "tools")
    done = subprocess.run([sys.executable, "-c", "import golden; golden.print_library_lines()"],
                          env=env, capture_output=True, text=True)
    print(done.stdout, end="", flush=True)
    if done.returncode != 0:
        broken.append(f"golden: the library calls exited {done.returncode}, expected 0")
    elif done.stderr:
        broken.append("golden: the library calls exited 0 but wrote to stderr")
    for line in broken:
        print(line, file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
