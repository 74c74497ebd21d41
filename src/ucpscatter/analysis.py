"""Derived studies: constant-area barrier heights, large-k reflection
scaling, and saturation of the transmission profile with stage."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import UcpSpec, _integer, _real, _spec, _WidthTable, segment_length
from .scattering import (_bloch_phases, _k_array, _k_grid, _listed, _require_positive_k,
                         _transmission_table)

__all__ = ["ScalingFit", "SaturationReport", "constant_area_height", "reflection_asymptote",
           "reflection_asymptote_arrays", "fit_scaling", "saturation_scan"]

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
    V0 is read as a float (see geometry._real).  Raises ValueError where
    l_G or V_G does not fit a double.
    """
    spec, v0 = _spec(spec), _real(V0, "V0")
    if not v0 > 0.0:
        raise ValueError(f"V0 must be positive, got {V0}")
    l_G = segment_length(spec, spec.G)
    if l_G == 0.0:
        raise ValueError(f"barrier width l_G underflows a double at G={spec.G}")
    height = spec.L * v0 / math.ldexp(l_G, spec.G)  # 2**G l_G <= L fits a double
    if not math.isfinite(height):
        raise ValueError(f"constant-area height overflows a double at G={spec.G}")
    return height


def reflection_asymptote(spec: UcpSpec, V0: float, k: float) -> float:
    """The asymptote at one k: point 0 of reflection_asymptote_arrays(spec, V0, [k])."""
    return reflection_asymptote_arrays(spec, V0, [k]).item()


def reflection_asymptote_arrays(spec: UcpSpec, V0: float, ks: Sequence[float]) -> np.ndarray:
    """First-order large-k approximation of the reflection coefficient at
    every k, a float array of shape (len(ks),).

    R ~ 4**G * (V_G l_G / 2)**2 / k**2 * prod Omega_i**2 with the Bloch
    phases of the spec's own width chain evaluated at the constant-area
    height V_G.  Valid only for V_G / k**2 < 0.1; used for comparison against
    the exact reflection.
    Raises ValueError for V0, or else the one-point call's at the first bad k.
    A refusal costs at most one more Bloch pass, on the k before the refused
    one, and keeps the one-point order: an earlier k whose asymptote
    overflows raises first.
    """
    spec, k = _spec(spec), _k_array(ks)
    v_g = constant_area_height(spec, V0)
    refusal = None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kk = k * k  # can underflow to 0, and overflow
        ratio = v_g / kk
        bad = ~((k > 0.0) & (k < math.inf) & (ratio < _ASYMPTOTE_GUARD))
        i = int(np.argmax(bad)) if bad.any() else k.size  # the k before i pass the guard
        try:
            phases = _bloch_phases(spec.width_chain, v_g, k[:i])
        except ValueError as error:  # raised below, unless an earlier k's asymptote overflows
            refusal, i = error, error.index
            phases = _bloch_phases(spec.width_chain, v_g, k[:i])
        prod = (phases * phases).prod(axis=0)  # over q in order, as a loop takes it
        # 4**G (v_g l_g / 2)**2 / k**2 * prod
        asymptote = np.ldexp(v_g * segment_length(spec, spec.G) / 2.0, spec.G) ** 2 / kk[:i] * prod
    if not np.isfinite(asymptote).all():
        raise ValueError(f"reflection asymptote overflows a double at G={spec.G}")
    if refusal is not None:
        raise refusal
    if i < k.size:
        _require_positive_k(k[i].item())
        raise ValueError(f"asymptote guard violated: V_G/k^2 = {ratio[i].item():.3g} "
                         f">= {_ASYMPTOTE_GUARD}")
    return asymptote


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
    """Fitted log-log slope of the exact reflection envelope over k_window,
    the pair (kmin, kmax).

    The reflection is the closed form's at n_points log-spaced k, run on the
    spec's own width_chain at the constant-area height V_G.  Points in
    resonance dips (R below 1e-3 times the rolling median) are excluded; the
    expected slope in the Born regime is -2.
    """
    spec = _spec(spec)
    window = _listed(k_window, "k_window")
    if len(window) != 2:
        raise ValueError(f"k_window must be a pair (kmin, kmax), got {k_window!r}")
    k_min, k_max = window
    ks = _k_grid(k_min, k_max, n_points, "n_points", 50, log=True)
    refl = _transmission_table(spec.width_chain, [constant_area_height(spec, V0)], ks)[1][0]

    positive = refl > 0.0
    ks, refl = ks[positive], refl[positive]
    keep = refl >= _RESONANCE_FACTOR * _rolling_median(refl, _MEDIAN_WINDOW)
    ks, refl = ks[keep], refl[keep]
    if len(ks) < 10:
        raise ValueError(f"only {len(ks)} points survive resonance filtering; cannot fit")
    x, y = np.log10(ks), np.log10(refl)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    return ScalingFit(k_window=(k_min, k_max), slope=float(slope), intercept=float(intercept),
                      r_squared=r_squared, n_used=len(ks))


def saturation_scan(spec: UcpSpec, gmin: int, k_grid: Sequence[float]) -> SaturationReport:
    """Sup-norm of log10 T between consecutive stages gmin..spec.G of one spec
    over a shared k-grid: how quickly the transmission profile stops changing
    as the stage grows.

    Stage g's widths are rows 0..g of spec.width_chain, so every stage is a
    view of that one column.  None is built past the first whose l_g is 0: it
    raises the first bad point's error, and no later stage can be reached.
    """
    spec, gmin = _spec(spec), _integer(gmin, "gmin")
    if not 0 <= gmin < spec.G:
        raise ValueError(f"need an integer gmin with 0 <= gmin < G={spec.G}, got {gmin!r}")
    ks = _k_array(k_grid)
    if not ks.size:
        raise ValueError("need at least one k to compare the stages at")
    widths, gaps, (built,) = spec.width_chain  # built: G, or the first stage whose l_g is 0
    # every width from stage built on is 0: a gmin at or past it scans built alone, and raises
    g = np.arange(min(gmin, built), built + 1)
    table = _WidthTable(*(np.broadcast_to(x, (len(x), g.size)) for x in (widths, gaps)), g)
    profiles = _transmission_table(table, np.full(g.size, spec.V), ks)[2]
    metrics = np.abs(np.diff(profiles, axis=0)).max(axis=1)
    return SaturationReport(stages=tuple(g[:-1].tolist()), metrics=tuple(metrics.tolist()))
