"""Closed-form transmission machinery.

The stage-G system is a super-periodic arrangement (doubling at every order)
of a single rectangular barrier of width l_G.  One kernel, _repetition, builds
the transfer matrix of any super-periodic arrangement of a barrier: at order f
the block so far is repeated N_f times, block_f = (block_{f-1} . gap)^(N_f-1)
. block_{f-1}, by binary powering of real 2x2 blocks that lose no digits at
any stage, for many points at once.  It serves three results:

- transmission_ucp_batch: the doubling, N_f = 2 at every order, in one pass
  over points of any mix of stages, each joining at its own order G, with
  T = 1/(1 + |m12|**2) taken in the log domain, so that transmissions far
  below double-precision underflow remain representable through log10(T);
  transmission_ucp is its one-point call;
- bloch_sequence: the paper's Bloch phases Omega_q of

      T_G = 1 / (1 + 4**G * |m12|**2 * prod_q Omega_q**2),

  each the half-trace of the order-q unit cell (block . gap), which the
  kernel gets for free;
- transmission_spp: arbitrary repetition counts N_f at spacings s_f, the
  paper's generic (Chebyshev) form, without its Chebyshev factors.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .geometry import UcpSpec, _stage_table

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
# a Bloch phase's exponent is clipped to this before ldexp: beyond it any
# nonzero phase is +-inf or 0 anyway
_EXP_CLIP = 1 << 12


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

    Omega_q is the half-trace of the order-q unit cell, block_{G-q+1} .
    gap(d_{G-q+1}) (Yeh, Yariv & Hong, JOSA 67, 423, 1977), taken from the
    doubling itself, so it keeps its digits at every stage.  A phase too large
    for a double comes back as +-inf; exact zeros (transmission resonances)
    come back as 0.
    """
    table = _stage_table(spec)
    k = np.array([k], dtype=float)
    half_traces = []
    _repetition(k, _barrier_rows(k, spec.V, table.l_G), [(d, 2) for d in table.gaps[::-1]],
                half_traces)
    with np.errstate(over="ignore"):
        omegas = [np.ldexp(h, np.clip(e, -_EXP_CLIP, _EXP_CLIP).astype(np.int64))
                  for h, e in half_traces]
    return BlochSequence(omegas=tuple(float(w[0]) for w in omegas))


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
    """Product x . y of two doubling blocks held as in _repetition."""
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

    Every point runs in one pass of the doubling (see _repetition), whatever
    its stage: highest stage first, each point joins at its own order G.
    Each result equals the one-point transmission_ucp(specs[i], ks[i]).
    """
    if len(specs) != len(ks):
        raise ValueError(f"len(specs)={len(specs)} and len(ks)={len(ks)} must match")
    tables = [_stage_table(spec) for spec in specs]
    k = np.asarray(ks, dtype=float)
    # checks each point in input order; past it every l_G > 0, so no table is cut short
    barrier = _barrier_rows(k, np.array([s.V for s in specs], dtype=float),
                            np.array([t.l_G for t in tables], dtype=float))
    distinct = {id(t): t for t in tables}  # the points of a spec share its cached table
    sizes = [len(t.gaps) for t in distinct.values()]
    gaps = np.fromiter(chain.from_iterable(t.gaps for t in distinct.values()), float, sum(sizes))
    offset = dict(zip(distinct, (np.cumsum(sizes) - sizes).tolist()))  # where a table's gaps start
    minus_G = -np.array([s.G for s in specs], dtype=np.int64)
    # highest stage first: the points still running at order g, G_i >= g, are a prefix
    order = np.argsort(minus_G, kind="stable")
    first = np.array([offset[id(t)] for t in tables], dtype=np.int64)[order]  # d_g at first + g - 1
    minus_G = minus_G[order]
    orders = ((gaps[first[:np.searchsorted(minus_G, -g, side="right")] + (g - 1)], 2)
              for g in range(-int(minus_G[0]) if k.size else 0, 0, -1))  # d_G first
    block, exp2 = _repetition(k[order], barrier[:, order], orders)
    back = np.argsort(order)
    return _results(block[2][back], block[3][back], exp2[back])


def _each(fn, x: np.ndarray) -> np.ndarray:
    """fn applied element by element: math.sin and math.cos round as the
    scalar code does, where np.sin and np.cos differ in the last bits."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _barrier_rows(k: np.ndarray, V, width) -> np.ndarray:
    """Real parts of _barrier_terms at each point, one row per term; V and
    width broadcast against k.  Checks each point, in order; the terms are
    read as they are made, not held as objects."""
    k, V, width = np.broadcast_arrays(k, V, width)
    terms = chain.from_iterable(map(_barrier_terms, k.tolist(), V.tolist(), width.tolist()))
    return np.fromiter(terms, complex, 4 * k.size).reshape(k.size, 4).real.T


def _rescaled(block: tuple, exp2: np.ndarray) -> tuple[tuple, np.ndarray]:
    """block and exp2 with every point whose block size left [_RESCALE_BELOW,
    _RESCALE_AT] scaled by a power of two, its largest entry into [1/2, 1)."""
    o, p, q, r, b = block
    size = (abs(o), abs(o + p), abs(q), abs(r), abs(b))  # o alone can overflow o1 * o2
    total = size[0] + size[1] + size[2] + size[3] + size[4]
    off = (total > _RESCALE_AT) | (total < _RESCALE_BELOW)
    if off.any():
        e = np.where(off, np.frexp(np.maximum.reduce(size))[1], 0)
        scale = np.ldexp(1.0, -e)
        block = tuple(x * scale for x in block)
        exp2 = exp2 + e
    return block, exp2


def _power(cell: tuple, exp2: np.ndarray, m: int) -> tuple[tuple, np.ndarray]:
    """cell**m for m >= 1 by binary powering; every product is rescaled."""
    result = None
    while True:
        if m & 1:
            if result is None:
                result, result_exp2 = cell, exp2
            else:
                result, result_exp2 = _rescaled(_block_product(result, cell), result_exp2 + exp2)
        m >>= 1
        if not m:
            return result, result_exp2
        cell, exp2 = _rescaled(_block_product(cell, cell), exp2 + exp2)


def _joined(block: tuple, exp2: np.ndarray, start: tuple, n: int) -> tuple[tuple, np.ndarray]:
    """block and exp2 over the first n points: those past the block's join as
    their barrier, start, with exp2 = 0."""
    m = exp2.size
    if n == m:
        return block, exp2
    return (tuple(np.concatenate((x, s[m:n])) for x, s in zip(block, start)),
            np.concatenate((exp2, np.zeros(n - m))))


def _repetition(k: np.ndarray, barrier: np.ndarray, orders: Iterable[tuple],
                half_traces: list | None = None) -> tuple[tuple, np.ndarray]:
    """Transfer block of a super-periodic arrangement of one barrier at each
    point k, barrier its rows from _barrier_rows.

    orders holds (gap, N) per order f = 1..g: the block starts as the barrier,
    and at each order cell = block . gap(d_f) and block = cell**(N_f - 1) .
    block, N_f >= 1 (Jaggard & Sun, Opt. Lett. 1990).  A gap is one value for
    every point, or an array over the first n points: the points past the
    block's join it there as their barrier, so each point runs its own
    number of orders, and those past the last order's join at the end.  The
    doubling (N_f = 2) takes two products per order and loses no digits to
    cancellation.  A block is the real transfer matrix [[A, kB], [C/k, D]] of
    (psi, psi'/k), held as (o, p, q, r, b) with A = o + p + q, D = o + p - q,
    kB = b and C/k = 2r - b.  The identity part o is kept apart, so a block
    much thinner than a wavelength keeps its deviation from I; kB is kept
    itself, so it keeps its digits where C/k is far larger (k**2 << V);
    m12 = q - i r in the plane-wave basis, so R keeps its digits at T ~ 1;
    and o + p is the half-trace.  The block is rescaled by a power of two at
    each order, and every product of the powering as it is formed, when its
    size leaves [_RESCALE_BELOW, _RESCALE_AT].

    Returns the final block and exp2 (the true block is 2**exp2 * block),
    and appends (half-trace of the cell, its exp2) per order to half_traces
    when it is given.  Each entry is an array over the points: numpy does
    the + - x, the rescale test and the rescale; sines are taken per element
    by math.sin, so every point gets the bits of a one-point call.
    """
    cos_m1, k_sin, em_sin, _ = barrier
    start = (np.ones(k.size), cos_m1, np.zeros(k.size), em_sin, k_sin)
    # exp2 is held as a float, which unlike an int64 cannot wrap: the doubling
    # doubles it at every order
    block, exp2 = tuple(x[:0] for x in start), np.zeros(0)
    for d, n in orders:
        points = np.size(d) if np.ndim(d) else k.size
        block, exp2 = _rescaled(*_joined(block, exp2, start, points))
        kd = k[:points] * d
        half = _each(math.sin, kd / 2.0)  # the gap is a rotation by kd
        cell = _block_product(block, (1.0, -2.0 * half * half, 0.0, 0.0, _each(math.sin, kd)))
        if half_traces is not None:
            half_traces.append((cell[0] + cell[1], exp2))
        if n > 1:
            power, power_exp2 = _power(cell, exp2, n - 1)
            block, exp2 = _block_product(power, block), power_exp2 + exp2
    return _joined(block, exp2, start, k.size)


def _results(q: np.ndarray, r: np.ndarray, exp2: np.ndarray) -> list[ScatterResult]:
    """T and R of each point from |m12| = hypot(q, r) of its product, whose
    q = (A - D)/2 and r = (kB + C/k)/2 are 2**-exp2 of the true ones."""
    results = []
    for q_i, r_i, e in zip(q.tolist(), r.tolist(), exp2.tolist()):
        m12_abs = math.hypot(q_i, r_i)
        results.append(_assemble(None if m12_abs == 0.0 else 2.0 * (math.log(m12_abs) + e * _LN2)))
    return results


def transmission_spp(
    V: float,
    width: float,
    Ns: Sequence[int],
    ss: Sequence[float],
    k: float,
) -> ScatterResult:
    """Transmission of a generic super-periodic arrangement of one barrier.

    The unit is a rectangular barrier of height V and width width.  The
    order-f block is Ns[f-1] copies of the order-(f-1) block, repeated at
    spacing ss[f-1], f = 1..g, so the copies are separated by gaps
    s_f - width_{f-1}, with width_0 = width and
    width_f = (N_f - 1) s_f + width_{f-1}.  Runs the kernel of the closed
    form (see _repetition); with Ns all 2 and ss the super-periods it is the
    stage-g system.  Repetition counts must be integers >= 1 and spacings
    finite.
    """
    if len(Ns) != len(ss):
        raise ValueError(f"len(Ns)={len(Ns)} and len(ss)={len(ss)} must match")
    if not all(isinstance(n, numbers.Integral) and n >= 1 for n in Ns):
        raise ValueError(f"repetition counts must be integers >= 1, got {list(Ns)}")
    orders, span = [], width
    for f, (n, s) in enumerate(zip(Ns, ss), 1):
        if not math.isfinite(s):
            raise ValueError(f"spacing of order {f} must be finite, got {s}")
        orders.append((s - span, n))
        span = (n - 1) * s + span
    k = np.array([k], dtype=float)
    block, exp2 = _repetition(k, _barrier_rows(k, V, width), orders)
    return _results(block[2], block[3], exp2)[0]
