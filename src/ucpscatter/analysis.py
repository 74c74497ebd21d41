"""Derived studies: constant-area barrier heights, large-k reflection
scaling, and saturation of the transmission profile with stage."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import UcpSpec
from .scattering import (_require_k_window, _require_positive_k, bloch_sequence,
                         transmission_ucp_arrays)

__all__ = [
    "ScalingFit",
    "SaturationReport",
    "constant_area_height",
    "reflection_asymptote",
    "fit_scaling",
    "saturation_scan",
]

# first-order Taylor validity guard for the Born-type asymptote
_ASYMPTOTE_GUARD = 0.1
# reflection dips this far below the rolling median are transmission
# resonances and excluded from envelope fits
_RESONANCE_FACTOR = 1e-3
_MEDIAN_WINDOW = 15


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log10(R) against log10(k)."""

    k_window: tuple[float, float]
    slope: float
    intercept: float
    r_squared: float
    n_used: int


@dataclass(frozen=True)
class SaturationReport:
    """Sup-norm distances between consecutive-stage transmission profiles.

    metrics[i] = max over the k-grid of |log10 T_{stages[i]} - log10 T_{stages[i]+1}|.
    """

    stages: tuple[int, ...]
    metrics: tuple[float, ...]


def constant_area_height(spec: UcpSpec, V0: float) -> float:
    """Stage-G barrier height keeping the total barrier area at L*V0.

    V_G = L * V0 / (2**G * l_G), so 2**G * l_G * V_G = L * V0 exactly.
    Raises ValueError where l_G or V_G does not fit a double.
    """
    if not V0 > 0.0:
        raise ValueError(f"V0 must be positive, got {V0}")
    l_G = spec.width_chain.l_G
    if l_G == 0.0:
        raise ValueError(f"barrier width l_G underflows a double at G={spec.G}")
    height = spec.L * V0 / math.ldexp(l_G, spec.G)
    if not math.isfinite(height):
        raise ValueError(f"constant-area height overflows a double at G={spec.G}")
    return height


def reflection_asymptote(spec: UcpSpec, V0: float, k: float) -> float:
    """First-order large-k approximation of the reflection coefficient.

    R ~ 4**G * (V_G l_G / 2)**2 / k**2 * prod Omega_i**2 with the Bloch
    phases evaluated at the constant-area height V_G.  Valid only for
    V_G / k**2 < 0.1; used for comparison against the exact reflection.
    """
    _require_positive_k(k)
    v_g = constant_area_height(spec, V0)
    if not v_g / (k * k) < _ASYMPTOTE_GUARD:
        raise ValueError(
            f"asymptote guard violated: V_G/k^2 = {v_g / (k * k):.3g} >= {_ASYMPTOTE_GUARD}"
        )
    l_g = spec.width_chain.l_G
    prod = 1.0
    for w in bloch_sequence(dataclasses.replace(spec, V=v_g), k):
        prod *= w * w
    return math.ldexp(v_g * l_g / 2.0, spec.G) ** 2 / (k * k) * prod  # 4**G (v_g l_g / 2)**2


def _rolling_median(values: np.ndarray, window: int) -> np.ndarray:
    """Median of values[i - window//2 : i + window//2 + 1] at each i, the
    windows truncated at the ends; values must hold no NaN."""
    half = window // 2
    if values.size == 0:
        return values.copy()
    # NaN fills the missing ends of the edge windows, and nanmedian skips it
    padded = np.pad(values, half, constant_values=np.nan)
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    return np.nanmedian(windows, axis=-1)


def fit_scaling(
    spec: UcpSpec,
    V0: float,
    k_window: tuple[float, float],
    n_points: int = 200,
) -> ScalingFit:
    """Fitted log-log slope of the exact reflection envelope over k_window.

    The barrier height is the constant-area V_G.  Points in resonance dips
    (R below 1e-3 times the rolling median) are excluded; the expected slope
    in the Born regime is -2.
    """
    k_min, k_max = k_window
    _require_k_window(k_min, k_max)
    if n_points < 50:
        raise ValueError(f"n_points must be >= 50, got {n_points}")
    scaled = dataclasses.replace(spec, V=constant_area_height(spec, V0))
    ks = np.logspace(math.log10(k_min), math.log10(k_max), n_points)
    refl = transmission_ucp_arrays([scaled], ks)[1][0]

    positive = refl > 0.0
    ks, refl = ks[positive], refl[positive]
    keep = refl >= _RESONANCE_FACTOR * _rolling_median(refl, _MEDIAN_WINDOW)
    ks, refl = ks[keep], refl[keep]
    if len(ks) < 10:
        raise ValueError(
            f"only {len(ks)} points survive resonance filtering; cannot fit"
        )
    x = np.log10(ks)
    y = np.log10(refl)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    return ScalingFit(
        k_window=(k_min, k_max),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        n_used=len(ks),
    )


def saturation_scan(specs: Sequence[UcpSpec], k_grid: Sequence[float]) -> SaturationReport:
    """Sup-norm of log10 T between consecutive stages over a shared k-grid.

    All specs must share (L, V, rho, alpha, beta) and have consecutive
    stages; the metric quantifies how quickly the transmission profile
    stops changing as the stage grows.
    """
    if len(specs) < 2:
        raise ValueError("need at least two stages to compare")
    if not len(k_grid):
        raise ValueError("need at least one k to compare the stages at")
    head = specs[0]
    for s in specs[1:]:
        if (s.L, s.V, s.rho, s.alpha, s.beta) != (
            head.L,
            head.V,
            head.rho,
            head.alpha,
            head.beta,
        ):
            raise ValueError("all specs must share (L, V, rho, alpha, beta)")
    stages = [s.G for s in specs]
    if stages != list(range(stages[0], stages[0] + len(stages))):
        raise ValueError(f"stages must be consecutive, got {stages}")

    profiles = transmission_ucp_arrays(specs, k_grid)[2]
    metrics = [
        float(np.max(np.abs(profiles[i] - profiles[i + 1])))
        for i in range(len(profiles) - 1)
    ]
    return SaturationReport(stages=tuple(stages[:-1]), metrics=tuple(metrics))
