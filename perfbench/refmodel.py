"""Independent reference for log10 T of a unified Cantor barrier system.

Nothing here comes from ``ucpscatter``.  The geometry is taken directly from
the removal rule (stage g deletes the middle fraction rho**-(alpha + beta*g)
of every segment), and the transmission comes from the self-similar doubling
construction for Cantor multilayers (Jaggard & Sun, Opt. Lett. 1990):

    block_G     = one barrier of width l_G
    block_{g-1} = block_g . gap(d_g) . block_g,   g = G..1

Each block is the real (psi, psi') transfer matrix [[A, B], [C, D]] of its
region, written in the dimensionless form [[A, kB], [C/k, D]].  In the
plane-wave basis its off-diagonal element is m12 = ((A - D) - i(kB + C/k))/2,
so T = 1/(1 + |m12|**2) without ever dividing by a small number.  Blocks are
kept normalised with a separate natural-log scale, so T far below the double
underflow limit keeps its log10.

Everything is vectorised with numpy over broadcast (spec, k) arrays.
"""

from __future__ import annotations

import math

import numpy as np

_LN10 = math.log(10.0)
# kappa * width above which a barrier's cosh and sinh are scaled by e**-z
_THICK = 30.0


def removal_lengths(L, rho, alpha, beta, G: int):
    """Segment length l_G and the gaps d_1..d_G opened at each stage."""
    seg = np.asarray(L, dtype=float)
    gaps = []
    for g in range(1, G + 1):
        frac = np.asarray(rho, dtype=float) ** -(np.asarray(alpha) + np.asarray(beta) * g)
        gaps.append(seg * frac)
        seg = seg * (1.0 - frac) / 2.0
    return seg, gaps


def is_valid(L: float, rho: float, alpha: float, beta: float, G: int) -> bool:
    """Well-formedness of a spec: the removal fraction stays below 1 at every stage."""
    if not (L > 0.0 and rho > 1.0) or (alpha == 0.0 and beta == 0.0):
        return False
    return all(alpha + beta * g > 0.0 for g in range(1, G + 1))


def _region(k, V, width):
    """Transfer matrix of a flat region as ((1, A - 1, kB, C/k, D - 1), scale).

    Blocks are held as ident * I + E: the identity part is kept apart so a
    region much thinner than a wavelength keeps its deviation from I, which
    is what 2**G copies of it multiply up.  A thick barrier has every entry
    divided by e**scale, with scale = kappa * width, so cosh and sinh cannot
    overflow.
    """
    q2 = k * k - V  # kappa**2; negative below the barrier top
    q = np.sqrt(np.abs(q2))
    z = q * width
    above = q2 >= 0.0
    thick = ~above & (z > _THICK)
    z_trig = np.where(above, z, 0.0)
    z_hyp = np.where(above, 0.0, np.minimum(z, _THICK))  # thick ones are redone below
    half = np.where(above, np.sin(z_trig / 2.0), np.sinh(z_hyp / 2.0))
    cos_m1 = np.where(above, -2.0, 2.0) * half * half  # cos z - 1 (cosh below)
    # sin(kappa w)/kappa (sinh below the top), with the kappa -> 0 limit w
    sin_ratio = np.where(z_trig > 0.0, np.sin(z_trig) / np.where(z_trig > 0.0, z_trig, 1.0), 1.0)
    sinh_ratio = np.where(z_hyp > 0.0, np.sinh(z_hyp) / np.where(z_hyp > 0.0, z_hyp, 1.0), 1.0)
    s_over = np.where(above, sin_ratio, sinh_ratio) * width

    scale = np.where(thick, z, 0.0)
    ident = np.exp(-scale)
    decay = ident * ident  # e**(-2z)
    cos_m1 = np.where(thick, (1.0 + decay) / 2.0 - ident, cos_m1)
    s_over = np.where(thick, (1.0 - decay) / (2.0 * np.where(thick, q, 1.0)), s_over)
    # C = -kappa**2 * sin(kappa w)/kappa in both regimes
    return (ident, cos_m1, k * s_over, -q2 * s_over / k, cos_m1), scale


def _product(left, right):
    i1, a1, b1, c1, d1 = left
    i2, a2, b2, c2, d2 = right
    return (
        i1 * i2,
        i1 * a2 + i2 * a1 + (a1 * a2 + b1 * c2),
        i1 * b2 + i2 * b1 + (a1 * b2 + b1 * d2),
        i1 * c2 + i2 * c1 + (c1 * a2 + d1 * c2),
        i1 * d2 + i2 * d1 + (c1 * b2 + d1 * d2),
    )


def _normalise(block, log_scale):
    m = np.maximum.reduce([np.abs(x) for x in block])
    return tuple(x / m for x in block), log_scale + np.log(m)


def log10_transmission(L, V, rho, alpha, beta, G: int, k) -> np.ndarray:
    """log10 T for the stage-G system, broadcast over every array argument."""
    L, V, rho, alpha, beta, k = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (L, V, rho, alpha, beta, k))
    )
    seg, gaps = removal_lengths(L, rho, alpha, beta, G)
    block, log_scale = _region(k, V, seg)
    for g in range(G, 0, -1):
        gap, _ = _region(k, 0.0, gaps[g - 1])
        block = _product(_product(block, gap), block)
        block, log_scale = _normalise(block, 2.0 * log_scale)
    _, a, b, c, d = block
    # ln |m12|**2 = ln(((A - D)**2 + (kB + C/k)**2) / 4) + 2 * log_scale;
    # A - D needs no identity part, so it keeps its digits when T ~ 1
    core = ((a - d) ** 2 + (b + c) ** 2) / 4.0
    with np.errstate(divide="ignore"):
        log_x = np.log(core) + 2.0 * log_scale
    # log10 T = -log1p(X)/ln 10 without forming X when it over- or underflows
    log1p_x = np.where(
        log_x > 36.0,
        log_x + np.log1p(np.exp(-np.abs(log_x))),
        np.log1p(np.exp(np.minimum(log_x, 36.0))),
    )
    return -log1p_x / _LN10


def saturation_metrics(L, V, rho, alpha, beta, stages, ks) -> list[float]:
    """max_k |log10 T_g - log10 T_{g+1}| for consecutive stages g."""
    profiles = [log10_transmission(L, V, rho, alpha, beta, g, ks) for g in stages]
    return [float(np.max(np.abs(p - q))) for p, q in zip(profiles, profiles[1:])]
