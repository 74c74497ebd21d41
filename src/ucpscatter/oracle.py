"""Brute-force ground truth: direct transfer-matrix product over the
explicit barrier/gap sequence, with no super-periodicity mathematics.

The sequence comes from the geometry module's one top-down width chain: at
stage g each barrier of width w becomes a barrier, a gap and a barrier of
widths c, w - 2c and c, with c = w (1 - rho**-(alpha + beta*g)) / 2, so no
width is a difference of absolute offsets.

The product is the real transfer matrix [[A, kB], [C/k, D]] of (psi, psi'/k)
in spatial order: a barrier of width w is
[[cos(kappa w), (k/kappa) sin(kappa w)], [-(kappa/k) sin(kappa w), cos(kappa w)]]
and a gap of width d the rotation by kd.  Being unimodular, it gives
T = 1/(1 + |m12|^2) with |m12| = hypot((A - D)/2, (kB + C/k)/2), assembled in
the log domain by the closed form's own code.

Every barrier has the width w_G and every gap is a rotation, so the product
is taken one cell at a time: a cell is a barrier times the rotation of the gap
after it, built once per distinct gap width, and the last barrier follows the
2**G - 1 cells, 2**G product steps for the 2**(G + 1) - 1 regions.  No window
wider than one cell is shared (that would rebuild the closed form's doubling),
so the cost stays O(2**G).  Where the barrier's C/k overflows, the barrier is
held as 2**-2 of itself, and that shift is counted once for all 2**G barriers.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .geometry import UcpSpec, _listed_widths, _spec
from .scattering import ScatterResult, _barrier_rows, _k_array, _libm, _results

__all__ = ["region_sequence", "transmission_oracle", "transmission_oracle_arrays"]

_DET_DRIFT_TOL = 1e-9
# after each step the sum of the product's entries is kept below _PRODUCT_MAX
# divided by the largest entry of any factor, so each entry of the next step,
# x f00 + y f10 or x f01 + y f11, stays within 2**1021
_PRODUCT_MAX = 2.0**1020
_SLACK = 1.0 + 2.0**-40  # far above the rounding of one 2x2 product


def region_sequence(spec: UcpSpec) -> tuple[tuple[float, bool], ...]:
    """(width, is_barrier) of every region of the stage-G system, in order.

    2**G barriers of width w_G, with the stage-g gap between the two halves of
    each stage-(g-1) barrier (see the module docstring); the barrier widths
    are those of build_segments, bit for bit.  Raises OracleInfeasibleError,
    before anything is allocated, for G above DEFAULT_STAGE_CAP.
    """
    widths = _listed_widths(_spec(spec))
    regions = ((widths[-1], True),)
    for g in range(spec.G, 0, -1):  # stage g-1's barrier: two stage-g halves and a gap
        regions = regions + ((widths[g - 1] - 2.0 * widths[g], False),) + regions
    return regions


def transmission_oracle(spec: UcpSpec, k: float) -> ScatterResult:
    """Transmission by multiplying out all 2**G barrier matrices explicitly.

    One point of transmission_oracle_arrays; pass every k there for speed.
    """
    return ScatterResult(*(x.item() for x in transmission_oracle_arrays(spec, [k])))


def transmission_oracle_arrays(spec: UcpSpec,
                               ks: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T, R and log10 T at each k, three float arrays over ks in input order,
    by multiplying out all 2**G barrier matrices explicitly.

    Independent of the closed form: the geometry comes from region_sequence
    and the product runs over every cell in spatial order, never using
    self-similarity.  The product is held as one array of its columns (A, C/k)
    and (kB, D) over every k, so a step costs four flat multiplies and adds of
    the 2x2 product's own terms in its own order.  The factors are one cell per
    distinct gap width, the barrier (held as 2**-shift of itself, its shift
    counted once for all 2**G barriers) times the gap's rotation, and the
    barrier itself for the last step; every step grows the norm bound by its
    factor's and may run the rescale test.  numpy does the + - x, the gaps' cos
    and sin (its float64 cos and sin round as the C library's, which math.cos
    and math.sin call), the rescale test and the rescale.  Raises
    OracleInfeasibleError for G above DEFAULT_STAGE_CAP (the closed form
    remains available there).
    """
    spec = _spec(spec)
    regions = region_sequence(spec)  # the stage cap is checked before k is
    k = _k_array(ks)
    n = k.size
    if n == 0:
        return _results(k, k)
    gaps = dict.fromkeys(width for width, is_barrier in regions if not is_barrier)
    # refuses each bad k
    cos_m1, k_sin, em_sin = _barrier_rows(k, spec.V, regions[0][0], max(gaps, default=0.0))
    with np.errstate(over="ignore"):  # where C/k overflows, the barrier is held as 2**-2 of itself
        shift = np.where(np.isfinite(2.0 * em_sin - k_sin), 0, 2)
    scale = np.ldexp(1.0, -shift)
    cos_z, k_sin, em_sin = (1.0 + cos_m1) * scale, k_sin * scale, em_sin * scale
    c_k = 2.0 * em_sin - k_sin
    # the barrier's entries (f00, f01, f10, f11) of every k, then one cell per
    # distinct gap width in order of first use: the barrier times the gap's
    # rotation, each entry formed as a product step forms it.  A cell's entry is
    # at most the hypot of a barrier row, which is below |2 eps_- sin| once a
    # tunnelling barrier's sinh passes 1, so the cells fit a double wherever C/k does
    entries = [(cos_z, k_sin, c_k, cos_z)]
    for width in gaps:
        kd = k * width
        cos_kd, sin_kd = np.cos(kd), np.sin(kd)
        entries.append((cos_z * cos_kd + k_sin * -sin_kd, cos_z * sin_kd + k_sin * cos_kd,
                        c_k * cos_kd + cos_z * -sin_kd, c_k * sin_kd + cos_z * cos_kd))
    size = np.abs(entries)  # (factor, entry, k)
    limit = _PRODUCT_MAX / size.max(axis=(0, 1))
    floor = float(limit.min())
    # each factor's growth: sqrt(norm_1 * norm_inf) of its largest column and row
    # sums, the largest over every k, times _SLACK; a sum past a double is an
    # inf growth, which runs the rescale test at every step
    s00, s01, s10, s11 = size.transpose(1, 0, 2)
    with np.errstate(over="ignore"):
        norm_1, norm_inf = np.maximum(s00 + s10, s01 + s11), np.maximum(s00 + s01, s10 + s11)
    growths = (np.sqrt(norm_1) * np.sqrt(norm_inf)).max(axis=1) * _SLACK
    # each factor keyed by its gap width (None for the last barrier) as (diag, off,
    # growth): diag = (f00, f00, f11, f11) and off = (f01, f01, f10, f10) over the
    # product's (x, y) below
    factors = {}
    for key, (f00, f01, f10, f11), growth in zip([None, *gaps], entries, growths.tolist()):
        factors[key] = (np.concatenate((f00, f00, f11, f11)),
                        np.concatenate((f01, f01, f10, f10)), growth)
    # the product [[A, kB], [C/k, D]] of every k as one vector z = (x, y) of its
    # two columns, x = (A, C/k) and y = (kB, D), and views of them made once
    z = np.repeat([1.0, 0.0, 0.0, 1.0], n)
    x, y = z[:2 * n], z[2 * n:]
    a, c, b, d = product = z.reshape(4, n)
    diag, off = np.empty(4 * n), np.empty(4 * n)
    diag_x, diag_y, off_x, off_y = diag[:2 * n], diag[2 * n:], off[:2 * n], off[2 * n:]
    # the true product is 2**exp2 * product: each of the 2**G barriers adds its shift
    exp2 = shift << spec.G
    # bound >= the Frobenius norm of every k's product, so |a| + |b| + |c| + |d|
    # <= 2 bound: the rescale test is skipped while 4 bound stays within every
    # limit (a NaN bound never skips it).  A step P -> P F has |P F|_F <= |P|_F |F|_2,
    # and |F|_2**2 <= |F|_1 |F|_inf, so a factor's growth bounds its step; it reads
    # the entries that the step multiplies by, so _SLACK covers only the rounding
    # of the norms and of the step's products
    bound = math.sqrt(2.0)
    # each gap's cell in spatial order (regions alternate barrier, gap), then the last barrier
    for width in [*(width for width, _ in regions[1::2]), None]:
        f_diag, f_off, growth = factors[width]
        # (x, y) = (x f00 + y f10, x f01 + y f11), out passed by position: it is faster
        np.multiply(z, f_diag, diag)
        np.multiply(z, f_off, off)
        np.add(diag_x, off_y, x)
        np.add(off_x, diag_y, y)
        bound *= growth
        if not 4.0 * bound <= floor:  # a k may need a rescale: test each
            size = np.abs([a, b, c, d])
            with np.errstate(over="ignore"):  # entries that fit a double, a sum that does not
                total = size[0] + size[1] + size[2] + size[3]
            big = total > limit  # the next factors could overflow: rescale exactly
            e = np.where(big, np.frexp(size.max(axis=0))[1] + 1, 0)
            scale = np.ldexp(1.0, -e)
            product *= scale
            total *= scale
            exp2 += e
            bound = float(total.max())
    drift = _det_drift(a, b, c, d, exp2)
    drifting = drift > _DET_DRIFT_TOL
    for k_i, drift_i in zip(k[drifting].tolist(), drift[drifting].tolist()):
        warnings.warn(f"oracle determinant drift {drift_i:.3e} at G={spec.G}, k={k_i:g}",
                      stacklevel=2)
    return _results(_libm(math.hypot, (a - d) / 2.0, (b + c) / 2.0), exp2)


def _det_drift(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
               exp2: np.ndarray) -> np.ndarray:
    """|det - 1| of each k's product 2**exp2 * [[a, b], [c, d]], relative to
    its largest entry squared.

    det - 1 cancels catastrophically when entries are ~cosh(|kappa| w) large,
    so the drift is judged on entries scaled first to stay finite; unit is
    the identity at the product's scale.
    """
    unit = np.ldexp(1.0, -exp2)
    inv = 1.0 / np.maximum.reduce([unit, np.abs(a), np.abs(b), np.abs(c), np.abs(d)])
    return np.abs(a * inv * (d * inv) - b * inv * (c * inv) - unit * inv * (unit * inv))
