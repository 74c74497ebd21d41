"""Brute-force ground truth: direct transfer-matrix product over the
explicit barrier/gap sequence, with no super-periodicity mathematics.

Amplitudes are referenced locally at each region boundary, so a barrier of
width w contributes barrier_matrix(k, V, w) composed with diag(e^{-ikw},
e^{ikw}) and a gap of width d contributes diag(e^{-ikd}, e^{ikd}); the total
is accumulated in spatial order.  Being unimodular, it gives T = 1/(1 + |m12|^2),
assembled in the log domain as the closed form's is.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
from dataclasses import dataclass

from .geometry import SegmentGeometry, UcpSpec, build_segments
from .scattering import (_LN2, ScatterResult, TransferMatrix, _assemble,
                         _require_positive_k, barrier_matrix)

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

DEFAULT_STAGE_CAP = 16
_DET_DRIFT_TOL = 1e-9
_TAIL_EPS = 1e-9  # relative: the final barrier ends at span up to roundoff
# the running product is kept below _PRODUCT_MAX / |factor| so that the next
# product by the factor stays below 2**1021
_PRODUCT_MAX = 2.0**1020


class OracleInfeasibleError(RuntimeError):
    """Raised when the requested stage has too many barriers to enumerate."""


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


def transmission_oracle(
    spec: UcpSpec, k: float, stage_cap: int = DEFAULT_STAGE_CAP
) -> ScatterResult:
    """Transmission by multiplying out all 2**G barrier matrices explicitly.

    Independent of the closed form: the geometry comes from build_segments
    and the product runs region by region.  Raises OracleInfeasibleError for
    G above stage_cap (the closed form remains available there).
    """
    if spec.G > stage_cap:
        raise OracleInfeasibleError(
            f"oracle infeasible: stage G={spec.G} exceeds cap {stage_cap} "
            f"({2 ** spec.G} barriers)"
        )
    # t = [[t11, t12], [t21, t22]] multiplies as TransferMatrix.__matmul__ does, less the
    # zero off-diagonal terms of the diagonal propagation_matrix(k, -width)
    t11, t12, t21, t22 = 1.0, 0.0, 0.0, 1.0
    exp2 = 0  # the product is 2**exp2 * t
    factors = {}  # the regions repeat a few widths, so each factor is built once
    for region in _regions(spec):
        factor = factors.get(region)
        if factor is None:
            width, is_barrier = region
            b = barrier_matrix(k, spec.V, width) if is_barrier else None
            limit = _PRODUCT_MAX / abs(b.m22) if is_barrier else None
            p = propagation_matrix(k, -width)  # local-boundary convention: strip the global phase
            factor = factors[region] = (b, limit, p.m11, p.m22)
        b, limit, phase, inverse = factor
        if b is not None:
            t11, t12, t21, t22 = (
                t11 * b.m11 + t12 * b.m21,
                t11 * b.m12 + t12 * b.m22,
                t21 * b.m11 + t22 * b.m21,
                t21 * b.m12 + t22 * b.m22,
            )
            if abs(t22) > limit:  # the next product by b could overflow: rescale exactly
                e = math.frexp(abs(t22))[1] + 1
                f = 2.0**-e
                t11, t12, t21, t22 = t11 * f, t12 * f, t21 * f, t22 * f
                exp2 += e
        t11, t12, t21, t22 = t11 * phase, t12 * inverse, t21 * phase, t22 * inverse
    # det - 1 cancels catastrophically when entries are ~cosh(|kappa| w) large,
    # so the drift is judged relative to |m22|^2, on entries scaled first to stay
    # finite; unit is the identity at the product's scale
    unit = 2.0**-exp2
    inv = 1.0 / max(unit, abs(t22))
    drift = abs(t11 * inv * (t22 * inv) - t12 * inv * (t21 * inv) - unit * inv * (unit * inv))
    if drift > _DET_DRIFT_TOL:
        logger.warning(
            "oracle determinant drift %.3e at G=%d, k=%g", drift, spec.G, k
        )
    return _assemble(None if t12 == 0 else 2.0 * (math.log(abs(t12)) + exp2 * _LN2))
