"""Brute-force ground truth: direct transfer-matrix product over the
explicit barrier/gap sequence, with no super-periodicity mathematics.

The sequence comes from the geometry module's one top-down width chain: at
stage g each barrier of width w becomes a barrier, a gap and a barrier of
widths c, w - 2c and c, with c = w (1 - rho**-(alpha + beta*g)) / 2, so no
width is a difference of absolute offsets.

The product is the real transfer matrix [[A, kB], [C/k, D]] of (psi, psi'/k),
accumulated region by region in spatial order: a barrier of width w contributes
[[cos(kappa w), (k/kappa) sin(kappa w)], [-(kappa/k) sin(kappa w), cos(kappa w)]]
and a gap of width d the rotation by kd.  Being unimodular, it gives
T = 1/(1 + |m12|^2) with |m12| = hypot((A - D)/2, (kB + C/k)/2), assembled in
the log domain by the closed form's own code.
"""

from __future__ import annotations

import logging
import math
from typing import Sequence

import numpy as np

from .geometry import UcpSpec, _listed_widths
from .scattering import ScatterResult, _barrier_rows, _gap_phase, _results

__all__ = ["region_sequence", "transmission_oracle", "transmission_oracle_arrays"]

logger = logging.getLogger(__name__)

_DET_DRIFT_TOL = 1e-9
# after each barrier the product's entries are kept below _PRODUCT_MAX divided
# by the barrier's largest entry; a gap is a rotation, so the next barrier
# takes them no further than 2**1021
_PRODUCT_MAX = 2.0**1020
_SLACK = 1.0 + 2.0**-40  # far above the rounding of one 2x2 product


def region_sequence(spec: UcpSpec) -> tuple[tuple[float, bool], ...]:
    """(width, is_barrier) of every region of the stage-G system, in order.

    2**G barriers of width w_G, with the stage-g gap between the two halves of
    each stage-(g-1) barrier (see the module docstring); the barrier widths
    are those of build_segments, bit for bit.  Raises OracleInfeasibleError,
    before anything is allocated, for G above DEFAULT_STAGE_CAP.
    """
    widths = _listed_widths(spec)
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
    and the product runs region by region, never using self-similarity.  The
    product is held as one array of its columns (A, C/k) and (kB, D) over
    every k, so a region costs four flat multiplies and adds of the 2x2
    product's own terms in its own order.  numpy does the + - x, the
    gaps' cos and sin (its float64 cos and sin round as the C library's, which
    math.cos and math.sin call), the rescale test and the rescale.  Raises
    OracleInfeasibleError for G above DEFAULT_STAGE_CAP (the closed form
    remains available there).
    """
    regions = region_sequence(spec)  # the stage cap is checked before k is
    k = np.asarray(ks, dtype=float)
    n = k.size
    if n == 0:
        return _results(k, k, k)
    # each distinct region's factor, built in order of first use (so the first
    # bad region raises first) as (diag, off, growth, limit, floor, shift), f_ij
    # its entry (i, j) of every k: diag = (f00, f00, f00, f00) and off = (f01,
    # f01, f10, f10); f11 is f00 in both kinds
    factors = dict.fromkeys(regions)
    for region in factors:
        width, is_barrier = region
        if is_barrier:
            cos_m1, k_sin, em_sin = _barrier_rows(k, spec.V, width)  # checks k
            cos_z = 1.0 + cos_m1
            with np.errstate(over="ignore"):
                c_k = 2.0 * em_sin - k_sin
            shift = None  # where C/k overflows, the factor is held as 2**-2 of itself
            if not np.isfinite(c_k).all():
                shift = np.where(np.isfinite(c_k), 0, 2)
                scale = np.ldexp(1.0, -shift)
                cos_z, k_sin, em_sin = cos_z * scale, k_sin * scale, em_sin * scale
                c_k = 2.0 * em_sin - k_sin
            entries = np.array([[cos_z, k_sin], [c_k, cos_z]])
            limit = _PRODUCT_MAX / np.abs(entries).reshape(4, n).max(axis=0)
            size_1 = np.abs(entries).sum(axis=0).max(axis=0)  # largest column sum
            size_inf = np.abs(entries).sum(axis=1).max(axis=0)  # largest row sum
            growth = float((np.sqrt(size_1) * np.sqrt(size_inf)).max())  # >= spectral norm
            f00, f01, f10 = cos_z, k_sin, c_k
            rest = (growth * _SLACK, limit, float(limit.min()), shift)
        else:
            kd = _gap_phase(k, width)
            f00, f01 = np.cos(kd), np.sin(kd)
            f10, rest = -f01, (_SLACK, None, None, None)
        factors[region] = (np.tile(f00, 4), np.concatenate((f01, f01, f10, f10)), *rest)
    # the product [[A, kB], [C/k, D]] of every k as one vector z = (x, y) of its
    # two columns, x = (A, C/k) and y = (kB, D), and views of them made once
    z = np.repeat([1.0, 0.0, 0.0, 1.0], n)
    x, y = z[:2 * n], z[2 * n:]
    a, c, b, d = product = z.reshape(4, n)
    diag, off = np.empty(4 * n), np.empty(4 * n)
    diag_x, diag_y, off_x, off_y = diag[:2 * n], diag[2 * n:], off[:2 * n], off[2 * n:]
    exp2 = np.zeros(n, dtype=np.int64)  # the true product is 2**exp2 * product
    # bound >= the Frobenius norm of every k's product, so |a| + |b| + |c| + |d|
    # <= 2 bound: the rescale test is skipped while 4 bound stays within every
    # limit (a NaN bound never skips it).  A gap (a rotation) keeps the norm, a
    # barrier multiplies it by at most its spectral norm, and _SLACK covers the
    # rounding of each product.
    bound = math.sqrt(2.0)
    for f_diag, f_off, growth, limit, floor, shift in map(factors.__getitem__, regions):
        # (x, y) = (x f00 + y f10, x f01 + y f11), out passed by position: it is faster
        np.multiply(z, f_diag, diag)
        np.multiply(z, f_off, off)
        np.add(diag_x, off_y, x)
        np.add(off_x, diag_y, y)
        bound *= growth
        if shift is not None:
            exp2 += shift
        if limit is not None and not 4.0 * bound <= floor:  # a k may need a rescale: test each
            size = np.abs([a, b, c, d])
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
        logger.warning("oracle determinant drift %.3e at G=%d, k=%g", drift_i, spec.G, k_i)
    return _results((a - d) / 2.0, (b + c) / 2.0, exp2)


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
