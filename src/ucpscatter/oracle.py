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

import cmath
import logging
import math
from typing import Sequence

import numpy as np

from .geometry import DEFAULT_STAGE_CAP, OracleInfeasibleError, UcpSpec, _listed_widths
from .scattering import (ScatterResult, TransferMatrix, _barrier_rows, _each, _require_positive_k,
                         _results)

__all__ = [
    "OracleInfeasibleError",
    "region_sequence",
    "propagation_matrix",
    "transmission_oracle",
    "transmission_oracle_batch",
    "DEFAULT_STAGE_CAP",
]

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


def propagation_matrix(k: float, d: float) -> TransferMatrix:
    """Free-space transfer matrix diag(e^{ikd}, e^{-ikd}); identity at d = 0."""
    _require_positive_k(k)
    phase = cmath.exp(1j * k * d)
    return TransferMatrix(phase, 0.0, 0.0, 1.0 / phase)


def transmission_oracle(spec: UcpSpec, k: float) -> ScatterResult:
    """Transmission by multiplying out all 2**G barrier matrices explicitly.

    One point of transmission_oracle_batch; pass arrays there for speed.
    """
    return transmission_oracle_batch(spec, [k])[0]


def transmission_oracle_batch(spec: UcpSpec, ks: Sequence[float]) -> list[ScatterResult]:
    """Transmission at each k, in input order, by multiplying out all 2**G
    barrier matrices explicitly.

    Independent of the closed form: the geometry comes from region_sequence
    and the product runs region by region, never using self-similarity.  The
    product's entries are arrays over k: numpy does the + - x, the rescale
    test and the rescale; sines and cosines are taken per element by
    math.sin and math.cos, so each result equals the one-point call.  Raises
    OracleInfeasibleError for G above DEFAULT_STAGE_CAP (the closed form
    remains available there).
    """
    regions = region_sequence(spec)  # the stage cap is checked before k is
    k = np.asarray(ks, dtype=float)
    n = k.size
    if n == 0:
        return []
    # [[A, kB], [C/k, D]] of every k: product[i, j] is an array over k,
    # updated in place through its two column views
    product = np.array([[np.ones(n), np.zeros(n)], [np.zeros(n), np.ones(n)]])
    column_0, column_1 = product[:, :1], product[:, 1:]
    term_0, term_1 = np.empty_like(product), np.empty_like(product)
    exp2 = np.zeros(n, dtype=np.int64)  # the true product is 2**exp2 * product
    # bound >= the Frobenius norm of every k's product, so |a| + |b| + |c| + |d|
    # <= 2 bound: the rescale test is skipped while 4 bound stays within every
    # limit (a NaN bound never skips it).  A gap (a rotation) keeps the norm, a
    # barrier multiplies it by at most its spectral norm, and _SLACK covers the
    # rounding of each product.
    bound = math.sqrt(2.0)
    factors = {}  # the regions repeat a few widths, so each factor is built once
    for region in regions:
        factor = factors.get(region)
        if factor is None:
            width, is_barrier = region
            if is_barrier:
                cos_m1, k_sin, em_sin, _ = _barrier_rows(k, spec.V, width)  # checks k
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
                factor = (entries[0], entries[1], growth * _SLACK, limit, float(limit.min()),
                          shift)
            else:
                kd = k * width
                cos_kd, sin_kd = _each(math.cos, kd), _each(math.sin, kd)
                factor = (np.array([cos_kd, sin_kd]), np.array([-sin_kd, cos_kd]), _SLACK,
                          None, None, None)
            factors[region] = factor
        row_0, row_1, growth, limit, floor, shift = factor
        # product[i, j] = product[i, 0] * row_0[j] + product[i, 1] * row_1[j]
        np.multiply(column_0, row_0, out=term_0)
        np.multiply(column_1, row_1, out=term_1)
        np.add(term_0, term_1, out=product)
        bound *= growth
        if shift is not None:
            exp2 += shift
        if limit is not None and not 4.0 * bound <= floor:  # a k may need a rescale: test each
            size = np.abs(product).reshape(4, n)
            total = size[0] + size[1] + size[2] + size[3]
            big = total > limit
            if big.any():  # the next factors could overflow: rescale exactly
                e = np.where(big, np.frexp(size.max(axis=0))[1] + 1, 0)
                scale = np.ldexp(1.0, -e)
                product *= scale
                total *= scale
                exp2 += e
            bound = float(total.max())
    for k_i, (a, b, c, d), e in zip(k.tolist(), product.reshape(4, n).T.tolist(), exp2.tolist()):
        # det - 1 cancels catastrophically when entries are ~cosh(|kappa| w)
        # large, so the drift is judged relative to the largest entry squared,
        # on entries scaled first to stay finite; unit is the identity at the
        # product's scale
        unit = 2.0**-e
        inv = 1.0 / max(unit, abs(a), abs(b), abs(c), abs(d))
        drift = abs(a * inv * (d * inv) - b * inv * (c * inv) - unit * inv * (unit * inv))
        if drift > _DET_DRIFT_TOL:
            logger.warning("oracle determinant drift %.3e at G=%d, k=%g", drift, spec.G, k_i)
    (a, b), (c, d) = product
    return _results((a - d) / 2.0, (b + c) / 2.0, exp2)
