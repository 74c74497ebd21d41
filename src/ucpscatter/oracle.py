"""Brute-force ground truth: direct transfer-matrix product over the
explicit barrier/gap sequence, with no super-periodicity mathematics.

The product is the real transfer matrix [[A, kB], [C/k, D]] of (psi, psi'/k),
accumulated region by region in spatial order: a barrier of width w contributes
[[cos(kappa w), (k/kappa) sin(kappa w)], [-(kappa/k) sin(kappa w), cos(kappa w)]]
and a gap of width d the rotation by kd.  Being unimodular, it gives
T = 1/(1 + |m12|^2) with |m12| = hypot(A - D, kB + C/k) / 2, assembled in the
log domain as the closed form's is.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
from dataclasses import dataclass

from .geometry import (DEFAULT_STAGE_CAP, OracleInfeasibleError, SegmentGeometry, UcpSpec,
                       build_segments)
from .scattering import (_LN2, ScatterResult, TransferMatrix, _assemble, _barrier_terms,
                         _require_positive_k)

__all__ = [
    "OracleInfeasibleError",
    "Region",
    "RegionSequence",
    "region_sequence",
    "propagation_matrix",
    "transmission_oracle",
    "DEFAULT_STAGE_CAP",
]

logger = logging.getLogger(__name__)

_DET_DRIFT_TOL = 1e-9
_TAIL_EPS = 1e-9  # relative: the final barrier ends at span up to roundoff
# after each barrier the product's entries are kept below _PRODUCT_MAX divided
# by the barrier's largest entry; a gap is a rotation, so the next barrier
# takes them no further than 2**1021
_PRODUCT_MAX = 2.0**1020


@dataclass(frozen=True)
class Region:
    kind: str  # "barrier" | "gap"
    width: float


@dataclass(frozen=True)
class RegionSequence:
    regions: tuple[Region, ...]


def region_sequence(geometry: SegmentGeometry) -> RegionSequence:
    """Alternating barrier/gap list spanning [0, span]; zero widths elided."""
    regions: list[Region] = []
    pos = 0.0
    for off, w in geometry.barriers:
        gap = off - pos
        if gap > 0.0:
            regions.append(Region("gap", gap))
        if w > 0.0:
            regions.append(Region("barrier", w))
        pos = off + w
    # the construction places the last barrier flush against the right edge,
    # so any remaining tail is floating-point residue unless it is sizable
    tail = geometry.span - pos
    if tail > _TAIL_EPS * geometry.span:
        regions.append(Region("gap", tail))
    return RegionSequence(tuple(regions))


def propagation_matrix(k: float, d: float) -> TransferMatrix:
    """Free-space transfer matrix diag(e^{ikd}, e^{-ikd}); identity at d = 0."""
    _require_positive_k(k)
    phase = cmath.exp(1j * k * d)
    return TransferMatrix(phase, 0.0, 0.0, 1.0 / phase)


@functools.lru_cache(maxsize=4)
def _regions(spec: UcpSpec) -> tuple[tuple[float, bool], ...]:
    """(width, is_barrier) of every region of the stage-G system, in order."""
    regions = region_sequence(build_segments(spec)).regions
    return tuple((r.width, r.kind == "barrier") for r in regions)


def transmission_oracle(spec: UcpSpec, k: float) -> ScatterResult:
    """Transmission by multiplying out all 2**G barrier matrices explicitly.

    Independent of the closed form: the geometry comes from build_segments
    and the product runs region by region.  Raises OracleInfeasibleError for
    G above DEFAULT_STAGE_CAP (the closed form remains available there).
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0  # A, kB, C/k, D
    exp2 = 0  # the product is 2**exp2 * [[a, b], [c, d]]
    factors = {}  # the regions repeat a few widths, so each factor is built once
    for region in _regions(spec):  # build_segments checks the stage cap before k is checked
        factor = factors.get(region)
        if factor is None:
            width, is_barrier = region
            if is_barrier:
                cos_m1, k_sin, em_sin, _ = _barrier_terms(k, spec.V, width)  # checks k
                cos_z, k_sin = 1.0 + cos_m1.real, k_sin.real
                entries = (cos_z, k_sin, 2.0 * em_sin.real - k_sin, cos_z)
                factor = (*entries, _PRODUCT_MAX / max(map(abs, entries)))
            else:
                cos_kd, sin_kd = math.cos(k * width), math.sin(k * width)
                factor = (cos_kd, sin_kd, -sin_kd, cos_kd, None)
            factors[region] = factor
        fa, fb, fc, fd, limit = factor
        a, b, c, d = a * fa + b * fc, a * fb + b * fd, c * fa + d * fc, c * fb + d * fd
        if limit is not None and abs(a) + abs(b) + abs(c) + abs(d) > limit:
            # the next factors could overflow: rescale exactly
            e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1] + 1
            f = 2.0**-e
            a, b, c, d = a * f, b * f, c * f, d * f
            exp2 += e
    # det - 1 cancels catastrophically when entries are ~cosh(|kappa| w) large,
    # so the drift is judged relative to the largest entry squared, on entries
    # scaled first to stay finite; unit is the identity at the product's scale
    unit = 2.0**-exp2
    inv = 1.0 / max(unit, abs(a), abs(b), abs(c), abs(d))
    drift = abs(a * inv * (d * inv) - b * inv * (c * inv) - unit * inv * (unit * inv))
    if drift > _DET_DRIFT_TOL:
        logger.warning("oracle determinant drift %.3e at G=%d, k=%g", drift, spec.G, k)
    m12_abs = math.hypot(a - d, b + c) / 2.0
    return _assemble(None if m12_abs == 0.0 else 2.0 * (math.log(m12_abs) + exp2 * _LN2))
