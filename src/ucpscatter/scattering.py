"""Closed-form transmission machinery.

The stage-G system is a super-periodic arrangement (doubling at every order)
of a single rectangular barrier of width l_G.  One kernel, _repetition, builds
the transfer matrix of any super-periodic arrangement of a barrier: at order f
the block so far is repeated N_f times, block_f = (block_{f-1} . gap)^(N_f-1)
. block_{f-1}, by binary powering of real 2x2 blocks that lose no digits at
any stage, for many points at once.  It serves three results:

- transmission_ucp_arrays: the doubling, N_f = 2 at every order, of every
  spec at every k in one pass, specs of any mix of stages each joining at its
  own order G, with T = 1/(1 + |m12|**2) taken in the log domain, so that
  transmissions far below double-precision underflow remain representable
  through log10(T); transmission_ucp (one point) and saturation_scan (one
  spec's stages) run its _transmission_table on a spec's cached width_chain;
- bloch_sequence: the paper's Bloch phases Omega_q of

      T_G = 1 / (1 + 4**G * |m12|**2 * prod_q Omega_q**2),

  each the half-trace of the order-q unit cell (block . gap), which the
  kernel gets for free;
- transmission_spp: arbitrary repetition counts N_f at spacings s_f, the
  paper's generic (Chebyshev) form, without its Chebyshev factors.

Every step runs over all points at once, and each point's numbers are those
of the per-point formulas in math and cmath, bit for bit.  numpy does the
+ - x /, sqrt (correctly rounded in both) and sin and cos (numpy's float64 sin
and cos round as the C library's, which math calls).  sinh, exp, log, log1p
and hypot come from math, through one map over the points that need them:
numpy's own versions of these differ from math's in the last bit on some
arguments, and math.hypot is not the C library's hypot.  Swapping one of them
for numpy's changes bits, and the bit-identity tests fail.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import UcpSpec, _WidthTable, _width_table

__all__ = [
    "TransferMatrix",
    "ScatterResult",
    "bloch_sequence",
    "transmission_ucp",
    "transmission_ucp_arrays",
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
# cmath.sqrt scales an argument below the smallest normal double before its sqrt
_DBL_MIN = float(np.finfo(float).tiny)
# cmath takes sinh(y) past log(DBL_MAX / 4) as sinh(y - 1) * e
_SINH_LARGE = math.log(float(np.finfo(float).max) / 4.0)
_SINH_CLIP = 710.0
# |V|/(2k^2) is the ratio of a barrier's eps_- sin(kappa w) to k sin(kappa w)/kappa.
# Past about 2**420 (2**720 for V < 0) the rescaled doubling block flushes its
# smallest entries to 0 and log10 T goes wrong, by thousands of decades past
# 2**1000: such k are refused
_MAX_V_OVER_2K2 = 2.0**400


@dataclass(frozen=True)
class TransferMatrix:
    """Unimodular 2x2 complex transfer matrix of a potential region.

    No code of the package uses it: the plane-wave matrices built from it are
    test references in tests/paper.py.  It stays only because
    perfbench/tracer.py wraps its __matmul__ (METHODS), until the benchmark
    drops that entry.
    """

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


def _require_k_window(k_min: float, k_max: float) -> None:
    """The k range of a sweep or a fit: 0 < k_min < k_max, both finite."""
    if not (0.0 < k_min < k_max and math.isfinite(k_max)):
        raise ValueError(f"need 0 < kmin < kmax < inf, got kmin={k_min}, kmax={k_max}")


def _log_k_grid(k_min: float, k_max: float, n: int) -> np.ndarray:
    return np.logspace(math.log10(k_min), math.log10(k_max), n)


def _libm(fn, *args: np.ndarray) -> np.ndarray:
    """fn from math at each point, through one map over the points."""
    return np.fromiter(map(fn, *(a.tolist() for a in args)), float, args[0].size)


def _sinh(y: np.ndarray) -> np.ndarray:
    """sinh(y) from math.sinh, taken as cmath takes it: sinh(y - 1) * e past
    _SINH_LARGE, inf where that overflows."""
    large = np.abs(y) > _SINH_LARGE
    # math.sinh raises past about +-710.48, where sinh(y - 1) * e overflows anyway
    out = _libm(math.sinh, np.where(large, y - 1.0, y).clip(-_SINH_CLIP, _SINH_CLIP))
    return out * np.where(large, math.e, 1.0)


def _barrier_rows(k: np.ndarray, V, width) -> np.ndarray:
    """Terms of a rectangular barrier at each point, one row per term:
    cos(kappa w) - 1, k sin(kappa w)/kappa and eps_- sin(kappa w).  V and
    width are values or arrays like k.

    Natural units: k = sqrt(E), kappa = sqrt(E - V), real for E >= V and
    imaginary below (cos/sin become cosh/sinh).  cos(kappa w) - 1 is
    -2 sin(kappa w / 2)**2, so a barrier much thinner than a wavelength keeps
    its digits; the E = V point is covered by a series expansion of
    sin(kappa w)/kappa.  eps_- = (k/kappa - kappa/k) / 2 is folded into the
    pole-free eps_- sin(z) = V/(2k) * sin(z)/kappa.  Each term is, bit for
    bit, the real part of the per-point complex formula in cmath (kept in
    tests/paper.py as barrier_terms): the steps are those of cmath.sqrt,
    cmath.sin and complex * and /, taken in real arithmetic, with the signed
    zero of the imaginary part where a product can be zero.

    Raises ValueError for the first bad point in input order: k not positive
    and finite, width not positive, a term that does not fit a double, or
    |V|/(2k^2) above _MAX_V_OVER_2K2.  Each term is a factor of k (k or
    V/(2k)) times one that grows as e**|Im kappa w|: the barrier is too
    opaque where that growth outweighs the factor's, and k is out of range
    otherwise.
    """
    with np.errstate(all="ignore"):  # a bad point is found below, in input order
        em = V / (2.0 * k)
        s = k * k - V
        # |kappa| as cmath.sqrt rounds it: 2 sqrt(|s|/8 + |s|/8), that is
        # sqrt(8 (|s|/8)), which differs from sqrt(|s|) where |s|/8 is
        # subnormal; below _DBL_MIN it scales |s| up first and gives sqrt(|s|)
        size = np.abs(s)
        size = np.sqrt(np.where(size < _DBL_MIN, size, size / 8.0 * 8.0))
        z = size * width  # kappa w is z for real kappa and i z for imaginary
        imaginary = s < 0.0
        # sin(kappa w / 2) is half or i half, sin(kappa w) is sin_z or i sin_z
        half, sin_z = np.sin(z / 2.0), np.sin(z)
        z_imag = z[imaginary]
        sinh = _sinh(np.concatenate((z_imag / 2.0, z_imag)))
        half[imaginary], sin_z[imaginary] = sinh[:z_imag.size], sinh[z_imag.size:]
        # -2 half**2 and +2 half**2, with cmath's -0.0 at half = 0
        cos_m1 = np.where(imaginary & (half > 0.0), 2.0, -2.0) * half * half
        sin_over_kappa = sin_z / size
        series = z < _SERIES_CUTOFF
        z2 = np.where(imaginary, -z, z) * z  # (kappa w)**2
        sin_over_kappa = np.where(series, width * (1.0 - z2 / 6.0 + z2 * z2 / 120.0),
                                  sin_over_kappa)
        rows = np.array([cos_m1, k * sin_over_kappa, em * sin_over_kappa])
        # the imaginary part of sin(kappa w)/kappa is a zero, -0.0 where
        # sin(kappa w) > 0 > cos(kappa w) for real kappa, and a zero
        # product x * sin(kappa w)/kappa takes its sign in x - 0.0 * it
        rows[1:] -= np.where(~imaginary & (sin_z > 0.0) & (np.cos(z) < 0.0), -0.0, 0.0)
        # k = inf or NaN makes every term NaN
        finite = np.isfinite(rows).all(axis=0)
        ok = (k > 0.0) & (width > 0.0) & finite & (np.abs(em) <= _MAX_V_OVER_2K2 * k)
    if not ok.all():
        i = int(np.argmin(ok))
        k_i, V_i, w_i, z_i, em_i, s_i = (
            float(x[i]) for x in np.broadcast_arrays(k, V, width, z, em, s))
        _require_positive_k(k_i)
        if not w_i > 0.0:
            raise ValueError(f"barrier width must be positive, got {w_i}")
        if finite[i]:
            raise ValueError(f"wavenumber k = {k_i:.6g} too small for a barrier of height "
                             f"{V_i:.6g}: |V|/(2k^2) exceeds 2**400")
        kappa_w = complex(0.0, z_i) if s_i < 0.0 else complex(z_i, 0.0)
        if math.isfinite(z_i) and abs(kappa_w.imag) > math.log(max(k_i, abs(em_i))):
            raise ValueError(f"barrier too opaque: kappa*w = {kappa_w:.6g} overflows a double")
        raise ValueError(f"wavenumber k = {k_i:.6g} out of range: the terms of a barrier "
                         f"of height {V_i:.6g} and width {w_i:.6g} overflow a double")
    return rows


def bloch_sequence(spec: UcpSpec, k: float) -> tuple[float, ...]:
    """Bloch phases Omega_1..Omega_G of the stage-G system at wavenumber k, a
    tuple of G floats.

    Omega_q is the half-trace of the order-q unit cell, block_{G-q+1} .
    gap(d_{G-q+1}) (Yeh, Yariv & Hong, JOSA 67, 423, 1977), taken from the
    doubling itself, so it keeps its digits at every stage.  A phase too large
    for a double comes back as +-inf; exact zeros (transmission resonances)
    come back as 0.
    """
    table = spec.width_chain
    k = np.array([k], dtype=float)
    half_traces = []
    _repetition(k, _barrier_rows(k, spec.V, table.widths[-1, 0]),
                [(d, 2) for d in table.gaps[::-1, 0].tolist()], half_traces)
    with np.errstate(over="ignore"):
        omegas = [np.ldexp(h, np.clip(e, -_EXP_CLIP, _EXP_CLIP).astype(np.int64))
                  for h, e in half_traces]
    return tuple(float(w[0]) for w in omegas)


def _block_product(x: tuple[float, ...], y: tuple[float, ...]) -> tuple[float, ...]:
    """Product x . y of two doubling blocks held as in _repetition."""
    o1, p1, q1, r1, b1 = x
    o2, p2, q2, r2, b2 = y
    w1, w2 = o1 + p1, o2 + p2
    rb, br = r1 * b2, b1 * r2
    return (
        o1 * o2,
        o1 * p2 + p1 * o2 + (p1 * p2 + q1 * q2 + rb + br - b1 * b2),
        w1 * q2 + q1 * w2 - rb + br,
        (w1 - q1) * r2 + r1 * (w2 + q2) + q1 * b2 - b1 * q2,
        (w1 + q1) * b2 + b1 * (w2 - q2),
    )


def _gap_product(x: tuple, p2: np.ndarray, b2: np.ndarray) -> tuple:
    """x . gap, _block_product(x, (1.0, p2, 0.0, 0.0, b2)) without the gap's
    exact 1 and 0 terms.  Every nonzero sum is added in the same order, so each
    entry is the same value and only the sign of a zero can differ, which no
    result reads: T comes from hypot(q, r), and a half-trace o + p has o >= +0."""
    o1, p1, q1, r1, b1 = x
    w1, w2 = o1 + p1, 1.0 + p2
    rb = r1 * b2
    return (
        o1,
        o1 * p2 + p1 + (p1 * p2 + rb - b1 * b2),
        q1 * w2 - rb,
        r1 * w2 + q1 * b2,
        (w1 + q1) * b2 + b1 * w2,
    )


def transmission_ucp(spec: UcpSpec, k: float) -> ScatterResult:
    """Closed-form transmission through the stage-G system at wavenumber k.

    One point of transmission_ucp_arrays; pass every spec and k there for speed.
    """
    results = _transmission_table(spec.width_chain, [float(spec.V)], [k])
    return ScatterResult(*(x.item() for x in results))


def transmission_ucp_arrays(specs: Sequence[UcpSpec],
                            ks: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form T, R and log10 T of every spec at every k, three float
    arrays of shape (len(specs), len(ks)): [i, j] is specs[i] at ks[j], and
    equals the one-point transmission_ucp(specs[i], ks[j]) bit for bit.

    Points of any mix of specs and stages run in one pass of the doubling
    (see _repetition), highest stage first, each spec's joining at its own
    order G, on one fresh width table of their parameters (_width_table);
    analysis.saturation_scan runs one spec's stages on its cached width_chain.
    """
    L, V, rho, alpha, beta = (np.array([getattr(s, name) for s in specs], dtype=float)
                              for name in ("L", "V", "rho", "alpha", "beta"))
    return _transmission_table(_width_table(L, rho, alpha, beta, [s.G for s in specs]), V, ks)


def _transmission_table(table: _WidthTable, V: Sequence[float],
                        ks: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """transmission_ucp_arrays of the specs whose widths are the columns of
    table, column i at the height V[i]."""
    k = np.asarray(ks, dtype=float)
    stages = table.stages
    shape = (stages.size, k.size)
    points_k = np.tile(k, shape[0])  # every point's k, spec-major: the same in any spec order
    widths = table.widths[stages, np.arange(shape[0])]  # l_G
    # spec-major, so the first bad point raised is the first (spec, k) in row-major
    # order; past it every l_G > 0, so no chain is cut short
    barrier = _barrier_rows(points_k, np.repeat(V, k.size), widths.repeat(k.size))
    # highest stage first: the running[g] specs still running at order g, G_i >= g, are a prefix
    order = np.argsort(-stages, kind="stable")
    running = np.cumsum(np.bincount(stages)[::-1])[::-1].tolist()
    orders = ((np.repeat(table.gaps[g - 1, order[:running[g]]], k.size), 2)
              for g in range(len(running) - 1 if barrier.size else 0, 0, -1))  # d_G first
    block, exp2 = _repetition(points_k, barrier.reshape(3, *shape)[:, order].reshape(3, -1),
                              orders)
    back = np.argsort(order)
    return tuple(x.reshape(shape)[back] for x in _results(block[2], block[3], exp2))


def _gap_phase(k: np.ndarray, d) -> np.ndarray:
    """k*d, the angle of a gap's rotation; ValueError where it overflows, as its sine is NaN."""
    with np.errstate(over="ignore"):
        kd = k * d
    if np.isinf(kd).any():
        raise ValueError("gap too wide: k*d overflows a double")
    return kd


def _rescaled(block: tuple, exp2: np.ndarray) -> tuple[tuple, np.ndarray]:
    """block and exp2 with every point whose block size left [_RESCALE_BELOW,
    _RESCALE_AT] scaled by a power of two, its largest entry into [1/2, 1)."""
    o, p, q, r, b = block
    size = np.array((o, o + p, q, r, b))  # o alone can overflow o1 * o2
    total = np.add.reduce(np.abs(size, out=size))  # row by row, in this order
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
    doubling (N_f = 2) takes a gap product and a block product per order and
    loses no digits to cancellation.  A block is the real transfer matrix
    [[A, kB], [C/k, D]] of (psi, psi'/k), held as (o, p, q, r, b) with
    A = o + p + q, D = o + p - q, kB = b and C/k = 2r - b.  The identity
    part o is kept apart, so a block much thinner than a wavelength keeps its
    deviation from I; kB is kept itself, so it keeps its digits where C/k is
    far larger (k**2 << V); m12 = q - i r in the plane-wave basis, so R keeps
    its digits at T ~ 1; and o + p is the half-trace.  The block is rescaled
    by a power of two at each order, and every product of the powering as it
    is formed, when its size leaves [_RESCALE_BELOW, _RESCALE_AT].

    Returns the final block and exp2 (the true block is 2**exp2 * block),
    and appends (half-trace of the cell, its exp2) per order to half_traces
    when it is given.  Each entry is an array over the points: numpy does
    the + - x, the sines (its float64 sin rounds as the C library's, which
    math.sin calls), the rescale test and the rescale.
    """
    cos_m1, k_sin, em_sin = barrier
    start = (np.ones(k.size), cos_m1, np.zeros(k.size), em_sin, k_sin)
    # exp2 is held as a float, which unlike an int64 cannot wrap: the doubling
    # doubles it at every order
    block, exp2 = tuple(x[:0] for x in start), np.zeros(0)
    for d, n in orders:
        points = np.size(d) if np.ndim(d) else k.size
        block, exp2 = _rescaled(*_joined(block, exp2, start, points))
        kd = _gap_phase(k[:points], d)
        half = np.sin(kd / 2.0)  # the gap is a rotation by kd
        cell = _gap_product(block, -2.0 * half * half, np.sin(kd))
        if half_traces is not None:
            half_traces.append((cell[0] + cell[1], exp2))
        if n > 1:
            power, power_exp2 = _power(cell, exp2, n - 1)
            block, exp2 = _block_product(power, block), power_exp2 + exp2
    return _joined(block, exp2, start, k.size)


def _results(q: np.ndarray, r: np.ndarray,
             exp2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T, R and log10 T of each point from |m12| = hypot(q, r) of its product,
    whose q = (A - D)/2 and r = (kB + C/k)/2 are 2**-exp2 of the true ones.

    T = 1/(1 + X) with X = |m12|**2 is taken from ln X, so that T far below
    double-precision underflow keeps its log10; X = 0 gives T = 1 exactly.
    Each point gets the bits of the per-point if-chain kept in tests/paper.py
    as assemble, in one pass: masks pick each branch's value, X = 0's too.
    """
    m12_abs = _libm(math.hypot, q, r)
    # X = 0: T = 1, R = 0 and log10 T = 0 exactly; ln X is taken at |m12| = 1 instead
    zero = m12_abs == 0.0
    log_x = 2.0 * (_libm(math.log, np.where(zero, 1.0, m12_abs)) + exp2 * _LN2)
    # log(1 + X) without forming X where it over/underflows: log X + log1p(1/X)
    # above 36, log1p(X) down to -36 and X below
    big = log_x > 36.0
    x_or_inverse = _libm(math.exp, np.where(big, -log_x, log_x))
    log1p_x = np.where(log_x > -36.0, _libm(math.log1p, x_or_inverse) + np.where(big, log_x, 0.0),
                       x_or_inverse)
    minus = -log1p_x
    # the smaller of T and R from its logarithm, the other as 1 minus it: R =
    # X / (1 + X) keeps its digits when tiny, and T may underflow to 0.0
    low = log_x <= 0.0
    smaller = _libm(math.exp, np.where(low, log_x - log1p_x, minus))
    larger = 1.0 - smaller
    t, refl = np.where(low, larger, smaller), np.where(low, smaller, larger)
    return np.where(zero, 1.0, t), np.where(zero, 0.0, refl), np.where(zero, 0.0, minus / _LN10)


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
    stage-g system.  V must be finite, width positive and finite, repetition
    counts integers >= 1 and spacings finite.
    """
    if not math.isfinite(V):
        raise ValueError(f"V must be finite, got {V}")
    if not (width > 0.0 and math.isfinite(width)):
        raise ValueError(f"width must be positive and finite, got {width}")
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
    return ScatterResult(*(x.item() for x in _results(block[2], block[3], exp2)))
