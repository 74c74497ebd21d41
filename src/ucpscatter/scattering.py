"""Closed-form transmission machinery.

The stage-G system is a super-periodic arrangement (doubling at every order)
of a single rectangular barrier of width l_G.  Transmission follows from the
unit-cell transfer matrix together with the Bloch-phase recursion Omega_q;
the final probability is

    T_G = 1 / (1 + 4**G * |m12|**2 * prod_q Omega_q**2),

accumulated in the log domain so that transmissions far below double-precision
underflow remain representable through log10(T).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import UcpSpec, _stage_table, _StageTable, super_period
from .special import chebyshev_u

__all__ = [
    "TransferMatrix",
    "BlochSequence",
    "ScatterResult",
    "barrier_matrix",
    "bloch_sequence",
    "transmission_ucp",
    "transmission_spp",
]

_LN4 = math.log(4.0)
_LN10 = math.log(10.0)
# below this |kappa * width| the sin(kappa w)/kappa factor switches to its
# Taylor series; the 1/kappa pole of eps_minus cancels analytically
_SERIES_CUTOFF = 1e-8


@dataclass(frozen=True)
class TransferMatrix:
    """Unimodular 2x2 complex transfer matrix of a potential region."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )


@dataclass(frozen=True)
class BlochSequence:
    """Ordered Bloch phases Omega_1..Omega_G."""

    omegas: tuple[float, ...]


@dataclass(frozen=True)
class ScatterResult:
    """Transmission/reflection pair with a log-domain transmission value.

    log10_transmission stays finite and accurate even when transmission
    itself underflows to zero.
    """

    transmission: float
    reflection: float
    log10_transmission: float


def _require_positive_k(k: float) -> None:
    if not (k > 0.0 and math.isfinite(k)):
        raise ValueError(f"wavenumber k must be positive and finite, got {k}")


def barrier_matrix(k: float, V: float, width: float) -> TransferMatrix:
    """Transfer matrix of a rectangular barrier of the given height and width.

    Natural units: k = sqrt(E), kappa = sqrt(E - V) continued into the complex
    plane for E < V (cos/sin become cosh/sinh analytically).  A single complex
    code path is used for all energy regimes; the E = V point is covered by a
    series expansion of sin(kappa w)/kappa.
    """
    _require_positive_k(k)
    if not width > 0.0:
        raise ValueError(f"barrier width must be positive, got {width}")
    kappa = cmath.sqrt(complex(k * k - V, 0.0))
    z = kappa * width
    if abs(z) < _SERIES_CUTOFF:
        z2 = z * z
        sin_over_kappa = width * (1.0 - z2 / 6.0 + z2 * z2 / 120.0)
    else:
        sin_over_kappa = cmath.sin(z) / kappa
    cos_z = cmath.cos(z)
    # eps_{+-} = (k/kappa -+ kappa/k) / 2 folded into pole-free combinations:
    # eps_- sin(z) = V/(2k) * sin(z)/kappa, eps_+ sin(z) = (2k^2-V)/(2k) * sin(z)/kappa
    em_sin = V / (2.0 * k) * sin_over_kappa
    ep_sin = (2.0 * k * k - V) / (2.0 * k) * sin_over_kappa
    phase = cmath.exp(1j * k * width)
    m11 = (cos_z - 1j * ep_sin) * phase
    m12 = 1j * em_sin
    return TransferMatrix(m11, m12, -m12, (cos_z + 1j * ep_sin) / phase)


def _omegas(table: _StageTable, cell: TransferMatrix, k: float) -> list[float]:
    """The Bloch recursion of bloch_sequence, given the unit-cell matrix."""
    amp = abs(cell.m22)
    theta = math.atan2(cell.m22.imag, cell.m22.real) if amp > 0.0 else 0.0
    omegas: list[float] = []
    prefix = 1.0
    for q, (g1, g2) in enumerate(zip(table.gamma1, table.gamma2), start=1):
        lead = 2.0 ** (q - 1) * amp * math.cos(theta - k * g1) * prefix
        tail = 1.0  # prod_{p=r+1}^{q-1} Omega_p, extended as r steps down
        acc = 0.0
        for r in range(q - 1, 0, -1):
            if r != q - 1:
                tail *= omegas[r]  # Omega_{r+1}
            acc += 2.0 ** (q - r - 1) * math.cos(k * g2[r - 1]) * tail
        omega = lead - acc
        omegas.append(omega)
        prefix *= omega
    return omegas


def bloch_sequence(spec: UcpSpec, k: float) -> BlochSequence:
    """Bloch phases Omega_1..Omega_G of the stage-G system at wavenumber k.

    Uses the doubling-specific recursion

        Omega_q = 2**(q-1) |m22| cos(theta - k gamma_1(q)) prod_{p<q} Omega_p
                  - sum_{r<q} 2**(q-r-1) cos(k gamma_2(q, r))
                    prod_{r<p<q} Omega_p,

    with theta = arg(m22) of the unit-cell barrier of width l_G.  Total cost
    is O(G^2); exact zeros (transmission resonances) propagate unclamped.
    """
    table = _stage_table(spec)
    cell = barrier_matrix(k, spec.V, table.cell_width)  # checks k
    return BlochSequence(omegas=tuple(_omegas(table, cell, k)))


def _assemble(log_x: float | None) -> ScatterResult:
    """Build a ScatterResult from ln(X) where T = 1/(1+X); None means X = 0."""
    if log_x is None:
        return ScatterResult(transmission=1.0, reflection=0.0, log10_transmission=0.0)
    # log(1 + X) without forming X when it over/underflows
    if log_x > 36.0:
        log1p_x = log_x + math.log1p(math.exp(-log_x))
    elif log_x > -36.0:
        log1p_x = math.log1p(math.exp(log_x))
    else:
        log1p_x = math.exp(log_x)
    log10_t = -log1p_x / _LN10
    if log_x <= 0.0:
        reflection = math.exp(log_x - log1p_x)  # X / (1 + X), accurate when tiny
        transmission = 1.0 - reflection
    else:
        transmission = math.exp(-log1p_x)  # may underflow to 0.0 for huge X
        reflection = 1.0 - transmission
    return ScatterResult(transmission, reflection, log10_t)


def transmission_ucp(spec: UcpSpec, k: float) -> ScatterResult:
    """Closed-form transmission through the stage-G system at wavenumber k."""
    table = _stage_table(spec)
    cell = barrier_matrix(k, spec.V, table.cell_width)  # checks k
    m12_abs = abs(cell.m12)
    if m12_abs == 0.0:
        return _assemble(None)
    omegas = _omegas(table, cell, k)
    if any(w == 0.0 for w in omegas):
        return _assemble(None)
    log_x = spec.G * _LN4 + 2.0 * math.log(m12_abs)
    log_x += 2.0 * math.fsum(math.log(abs(w)) for w in omegas)
    return _assemble(log_x)


def transmission_spp(
    unit: TransferMatrix,
    Ns: Sequence[int],
    ss: Sequence[float],
    k: float,
) -> ScatterResult:
    """Transmission of a generic super-periodic arrangement of `unit`.

    Order-f repetition count Ns[f-1] at spacing ss[f-1], f = 1..g.  This is
    the general engine (arbitrary repetition counts, Chebyshev factors
    U_{N-1}) and serves as the independent check of the doubling-specific
    recursion in bloch_sequence.  Conventions: N_0 = 1, s_0 = 0; sums whose
    running variable exceeds its limit are dropped, such products are 1.
    """
    _require_positive_k(k)
    if len(Ns) != len(ss):
        raise ValueError(f"len(Ns)={len(Ns)} and len(ss)={len(ss)} must match")
    if any(n < 1 for n in Ns):
        raise ValueError("all repetition counts must be >= 1")
    g = len(Ns)
    amp = abs(unit.m22)
    theta = math.atan2(unit.m22.imag, unit.m22.real) if amp > 0.0 else 0.0
    n = [1] + list(Ns)       # n[p] = N_p with N_0 = 1
    s = [0.0] + list(ss)     # s[p] = s_p with s_0 = 0

    omegas: list[float] = []
    u_factors: list[float] = []  # U_{N_p - 1}(Omega_p), p = 1..g
    for q in range(1, g + 1):
        phase = sum((n[p] - 1) * s[p] for p in range(1, q)) - s[q]
        lead = amp * math.cos(theta - k * phase)
        for p in range(1, q):
            lead *= u_factors[p - 1]
        acc = 0.0
        for r in range(1, q - 1):
            arg = sum(n[p] * s[p] for p in range(r, q)) - sum(s[p] for p in range(r + 1, q + 1))
            term = math.cos(k * arg) * chebyshev_u(n[r] - 2, omegas[r - 1])
            for p in range(r + 1, q):
                term *= u_factors[p - 1]
            acc += term
        if q >= 2:
            acc += chebyshev_u(n[q - 1] - 2, omegas[q - 2]) * math.cos(
                k * (n[q - 1] * s[q - 1] - s[q])
            )
        omega = lead - acc
        omegas.append(omega)
        u_factors.append(chebyshev_u(n[q] - 1, omega))

    m12_abs = abs(unit.m12)
    if m12_abs == 0.0 or any(u == 0.0 for u in u_factors):
        return _assemble(None)
    log_x = 2.0 * math.log(m12_abs) + 2.0 * math.fsum(
        math.log(abs(u)) for u in u_factors
    )
    return _assemble(log_x)


def ucp_super_periods(spec: UcpSpec) -> list[float]:
    """Spacings s_1..s_G driving transmission_spp for the doubling system."""
    return [super_period(spec, f) for f in range(1, spec.G + 1)]
