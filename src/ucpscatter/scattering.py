"""Closed-form transmission machinery.

The stage-G system is a super-periodic arrangement (doubling at every order)
of a single rectangular barrier of width l_G.  transmission_ucp_batch builds
its transfer matrix by self-similar doubling, block_{g-1} = block_g . gap(d_g)
. block_g, in O(G) 2x2 products that lose no digits at any stage, for many
(spec, k) points at once, and takes T = 1/(1 + |m12|**2) in the log domain,
so that transmissions far below double-precision underflow remain
representable through log10(T).  transmission_ucp is its one-point call.

bloch_sequence and transmission_spp keep the paper's recursions: the Bloch
phases Omega_q of

    T_G = 1 / (1 + 4**G * |m12|**2 * prod_q Omega_q**2)

and their generic Chebyshev form.  In double precision they lose about q bits
at stage q, so the Omega_q, and reflection_asymptote, which uses them, hold
to about G = 16.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import UcpSpec, _stage_table
from .special import chebyshev_u

__all__ = [
    "TransferMatrix",
    "BlochSequence",
    "ScatterResult",
    "barrier_matrix",
    "bloch_sequence",
    "transmission_ucp",
    "transmission_ucp_batch",
    "transmission_spp",
]

_LN2 = math.log(2.0)
_LN10 = math.log(10.0)
# below this |kappa * width| the sin(kappa w)/kappa factor switches to its
# Taylor series; the 1/kappa pole of eps_minus cancels analytically
_SERIES_CUTOFF = 1e-8
# a doubling block is rescaled before it is squared when its size leaves
# [_RESCALE_BELOW, _RESCALE_AT].  Once rescaled, a block can shrink: where its
# largest entry far exceeds its trace, squaring it scales it by about
# trace / largest entry, so without the lower bound it underflows to 0 (T = 1)
_RESCALE_AT = 2.0**500
_RESCALE_BELOW = 2.0**-250


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


def _barrier_terms(k: float, V: float, width: float) -> tuple[complex, ...]:
    """Terms of a rectangular barrier: (cos(kappa w) - 1, k sin(kappa w)/kappa,
    eps_- sin(kappa w), eps_+ sin(kappa w)).

    Natural units: k = sqrt(E), kappa = sqrt(E - V) continued into the complex
    plane for E < V (cos/sin become cosh/sinh analytically).  cos(kappa w) - 1
    is -2 sin(kappa w / 2)**2, so a barrier much thinner than a wavelength keeps
    its digits; the E = V point is covered by a series expansion of
    sin(kappa w)/kappa.  Raises ValueError when the barrier is too opaque for
    its terms to fit in a double.
    """
    _require_positive_k(k)
    if not width > 0.0:
        raise ValueError(f"barrier width must be positive, got {width}")
    kappa = cmath.sqrt(complex(k * k - V, 0.0))
    z = kappa * width
    try:
        half = cmath.sin(z / 2.0)
        if abs(z) < _SERIES_CUTOFF:
            z2 = z * z
            sin_over_kappa = width * (1.0 - z2 / 6.0 + z2 * z2 / 120.0)
        else:
            sin_over_kappa = cmath.sin(z) / kappa
    except OverflowError:  # |Im z| above ~710: sinh exceeds a double
        half = sin_over_kappa = math.inf
    # eps_{+-} = (k/kappa -+ kappa/k) / 2 folded into pole-free combinations:
    # eps_- sin(z) = V/(2k) * sin(z)/kappa, eps_+ sin(z) = (2k^2-V)/(2k) * sin(z)/kappa
    terms = (
        -2.0 * half * half,
        k * sin_over_kappa,
        V / (2.0 * k) * sin_over_kappa,
        (2.0 * k * k - V) / (2.0 * k) * sin_over_kappa,
    )
    if not all(map(cmath.isfinite, terms)):
        raise ValueError(f"barrier too opaque: kappa*w = {z:.6g} overflows a double")
    return terms


def barrier_matrix(k: float, V: float, width: float) -> TransferMatrix:
    """Transfer matrix of a rectangular barrier of the given height and width.

    One complex code path serves every energy regime (see _barrier_terms).
    """
    cos_m1, _, em_sin, ep_sin = _barrier_terms(k, V, width)
    cos_z = 1.0 + cos_m1
    phase = cmath.exp(1j * k * width)
    m11 = (cos_z - 1j * ep_sin) * phase
    m12 = 1j * em_sin
    return TransferMatrix(m11, m12, -m12, (cos_z + 1j * ep_sin) / phase)


def bloch_sequence(spec: UcpSpec, k: float) -> BlochSequence:
    """Bloch phases Omega_1..Omega_G of the stage-G system at wavenumber k.

    Uses the doubling-specific recursion

        Omega_q = 2**(q-1) |m22| cos(theta - k gamma_1(q)) prod_{p<q} Omega_p
                  - sum_{r<q} 2**(q-r-1) cos(k gamma_2(q, r))
                    prod_{r<p<q} Omega_p,

    with theta = arg(m22) of the unit-cell barrier of width l_G.  Total cost
    is O(G^2); exact zeros (transmission resonances) propagate unclamped.
    The subtraction cancels about q bits at stage q, so in double precision
    the phases hold to about G = 16.
    """
    l_G, gaps = _stage_table(spec)
    cell = barrier_matrix(k, spec.V, l_G)  # checks k
    amp = abs(cell.m22)
    theta = math.atan2(cell.m22.imag, cell.m22.real) if amp > 0.0 else 0.0
    omegas: list[float] = []
    prefix = 1.0
    for q in range(1, spec.G + 1):
        d_q = gaps[spec.G - q]  # d_{G-q+1}
        gamma_1 = -(l_G + d_q)
        lead = 2.0 ** (q - 1) * amp * math.cos(theta - k * gamma_1) * prefix
        tail = 1.0  # prod_{p=r+1}^{q-1} Omega_p, extended as r steps down
        acc = 0.0
        for r in range(q - 1, 0, -1):
            if r != q - 1:
                tail *= omegas[r]  # Omega_{r+1}
            gamma_2 = gaps[spec.G - r] - d_q
            acc += 2.0 ** (q - r - 1) * math.cos(k * gamma_2) * tail
        omega = lead - acc
        omegas.append(omega)
        prefix *= omega
    return BlochSequence(omegas=tuple(omegas))


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


def _block_product(x: tuple[float, ...], y: tuple[float, ...]) -> tuple[float, ...]:
    """Product x . y of two doubling blocks held as in _doubling."""
    o1, p1, q1, r1, b1 = x
    o2, p2, q2, r2, b2 = y
    w1, w2 = o1 + p1, o2 + p2
    return (
        o1 * o2,
        o1 * p2 + p1 * o2 + (p1 * p2 + q1 * q2 + r1 * b2 + b1 * r2 - b1 * b2),
        w1 * q2 + q1 * w2 - r1 * b2 + b1 * r2,
        (w1 - q1) * r2 + r1 * (w2 + q2) + q1 * b2 - b1 * q2,
        (w1 + q1) * b2 + b1 * (w2 - q2),
    )


def transmission_ucp(spec: UcpSpec, k: float) -> ScatterResult:
    """Closed-form transmission through the stage-G system at wavenumber k.

    One point of transmission_ucp_batch; pass arrays there for speed.
    """
    return transmission_ucp_batch([spec], [k])[0]


def transmission_ucp_batch(specs: Sequence[UcpSpec], ks: Sequence[float]) -> list[ScatterResult]:
    """Closed-form transmission at each point (specs[i], ks[i]), in input order.

    Points of a common stage G run the doubling together (see _doubling); each
    result equals the one-point transmission_ucp(specs[i], ks[i]).
    """
    if len(specs) != len(ks):
        raise ValueError(f"len(specs)={len(specs)} and len(ks)={len(ks)} must match")
    k = np.asarray(ks, dtype=float)
    stages: dict[int, list[int]] = {}  # G -> indices of its points, in input order
    for i, spec in enumerate(specs):
        stages.setdefault(spec.G, []).append(i)
    results: list[ScatterResult] = [None] * len(specs)
    for G, idx in stages.items():
        tables = [_stage_table(specs[i]) for i in idx]
        gaps = np.array([t.gaps for t in tables], dtype=float).reshape(len(idx), G).T
        V = np.array([specs[i].V for i in idx], dtype=float)
        l_G = np.array([t.l_G for t in tables], dtype=float)
        for i, res in zip(idx, _doubling(l_G, gaps, V, k[idx])):
            results[i] = res
    return results


def _each(fn, x: np.ndarray) -> np.ndarray:
    """fn applied element by element: math.sin and math.cos round as the
    scalar code does, where np.sin and np.cos differ in the last bits."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _barrier_rows(k: np.ndarray, V, width) -> np.ndarray:
    """Real parts of _barrier_terms at each point, one row per term; V and
    width broadcast against k.  Checks each k, in order."""
    k, V, width = np.broadcast_arrays(k, V, width)
    terms = [_barrier_terms(*point) for point in zip(k.tolist(), V.tolist(), width.tolist())]
    return np.array(terms, dtype=complex).reshape(k.size, 4).real.T


def _doubling(l_G: np.ndarray, gaps: np.ndarray, V: np.ndarray,
              k: np.ndarray) -> list[ScatterResult]:
    """T at points of one stage G: l_G, V and k hold a value per point, and
    gaps[g - 1] the gap d_g of every point.

    Self-similar doubling (Jaggard & Sun, Opt. Lett. 1990): block_G is one
    barrier of width l_G and block_{g-1} = block_g . gap(d_g) . block_g, so
    the stage-G product takes O(G) 2x2 products and loses no digits to
    cancellation.  A block is the real transfer matrix [[A, kB], [C/k, D]]
    of (psi, psi'/k), held as (o, p, q, r, b) with A = o + p + q,
    D = o + p - q, kB = b and C/k = 2r - b.  The identity part o is kept
    apart, so a block much thinner than a wavelength keeps its deviation
    from I; kB is kept itself, so it keeps its digits where C/k is far larger
    (k**2 << V); and m12 = q - i r in the plane-wave basis, so R keeps its
    digits at T ~ 1.  Blocks are rescaled by powers of two as they grow
    (and, once rescaled, as they shrink).

    Each entry of a block is an array over the points.  numpy does the
    + - x, the rescale test and the rescale; sines are taken per element by
    math.sin, so every point gets the bits of a one-point call.
    """
    cos_m1, k_sin, em_sin, _ = _barrier_rows(k, V, l_G)  # checks k
    block = (np.ones(k.size), cos_m1, np.zeros(k.size), em_sin, k_sin)
    # the true block is 2**exp2 * block; exp2 doubles at every stage, and is
    # held as a float, which unlike an int64 cannot wrap
    exp2 = np.zeros(k.size)
    for d in gaps[::-1]:  # d_G first
        o, p, q, r, b = block
        size = (abs(o + p), abs(q), abs(r), abs(b))
        total = size[0] + size[1] + size[2] + size[3]
        off = (total > _RESCALE_AT) | (total < _RESCALE_BELOW)
        if off.any():
            e = np.where(off, np.frexp(np.maximum.reduce(size))[1], 0)
            scale = np.ldexp(1.0, -e)
            block = tuple(x * scale for x in block)
            exp2 += e
        kd = k * d
        half = _each(math.sin, kd / 2.0)  # the gap is a rotation by kd
        gap = (1.0, -2.0 * half * half, 0.0, 0.0, _each(math.sin, kd))
        block = _block_product(_block_product(block, gap), block)
        exp2 *= 2
    results = []
    for q, r, e in zip(block[2].tolist(), block[3].tolist(), exp2.tolist()):
        m12_abs = math.hypot(q, r)
        results.append(_assemble(None if m12_abs == 0.0 else 2.0 * (math.log(m12_abs) + e * _LN2)))
    return results


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

