"""Closed-form transmission machinery.

The stage-G system is a super-periodic arrangement (doubling at every order)
of a single rectangular barrier of width l_G.  One kernel, _repetition, builds
the transfer matrix of any super-periodic arrangement of a barrier: at order f
the block so far is repeated N_f times with the gap d_f between copies, for
many points at once.  Every such arrangement is a palindrome of one symmetric
barrier, so every block is mirror-symmetric, A = D, and is held in four rows
(o, p, r, b) with A = D = o + p, kB = b and C/k = 2r - b, and a fifth, exp2,
the power of two that the rescaling has taken out: one (5, n) array, a
column per point.  The doubling (N_f = 2) takes one step S -> S . gap . S
per order; other N_f join palindromes by binary powering.  A step multiplies
r by 2 Omega, Omega the half-trace of S . gap, so |m12| = |r| is the
product of the paper's factorization

    T_G = 1 / (1 + 4**G * |m12_0|**2 * prod_q Omega_q**2),

m12_0 the barrier's, and R keeps its digits at T ~ 1.  It serves three
results:

- transmission_ucp_arrays: the doubling of every spec at every k in one
  pass, specs of any mix of stages (a spec of stage G runs the last G
  orders, and where its deepest m gaps are 0, a point of real kappa starts
  from one barrier 2**m times as wide), with T = 1/(1 + |m12|**2) taken in the log domain, so
  that transmissions far below double-precision underflow remain
  representable through log10(T); transmission_ucp (one point),
  saturation_scan (one spec's stages), fit_scaling and the CLI's sweep run
  its _transmission_table on a spec's cached width_chain;
- bloch_sequence_arrays: the Bloch phases Omega_q, the multipliers of the
  doubling's steps;
- transmission_spp_arrays: arbitrary repetition counts N_f at spacings s_f,
  the paper's generic (Chebyshev) form, without its Chebyshev factors.

Every step runs over all points at once, and the barrier's terms and the
log-domain results of each point are those of the per-point formulas in
math and cmath, bit for bit.  numpy does the + - x /, sqrt (correctly rounded
in both) and sin and cos (numpy's float64 sin and cos round as the C
library's, which math calls).  sinh, exp, log and log1p come from math,
through one map over the points that need them: numpy's own versions of
these differ from math's in the last bit on some arguments.  Swapping one of
them for numpy's changes bits, and the bit-identity tests fail.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import (_REAL_KINDS, UcpSpec, _integer, _real, _spec, _WidthTable,
                       _width_table)

__all__ = ["ScatterResult", "bloch_sequence", "bloch_sequence_arrays", "transmission_ucp",
           "transmission_ucp_arrays", "transmission_spp", "transmission_spp_arrays"]

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
# the most doubles one numpy array can hold: its size in bytes must fit an intp
_MOST_POINTS = sys.maxsize // 8


@dataclass(frozen=True)
class TransferMatrix:
    """Unimodular 2x2 complex transfer matrix of a potential region.

    It is not public, and no code of the package uses it: the plane-wave
    matrices built from it are test references in tests/paper.py.  It stays
    only because perfbench/tracer.py wraps its __matmul__ (METHODS), until
    the benchmark drops that entry.
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


def _k_grid(k_min: float, k_max: float, n: int, name: str, least: int,
            log: bool) -> np.ndarray:
    """n wavenumbers from k_min to k_max, log-spaced if log, else evenly.
    Checks, in this order: 0 < k_min < k_max, both finite; n an integer (see
    geometry._integer) named name; n >= least; and n <= _MOST_POINTS, as
    numpy cannot allocate more, and from about 2**63 points np.linspace and
    np.logspace end in an IndexError instead of saying so."""
    lo, hi = _real(k_min, "kmin"), _real(k_max, "kmax")
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"need 0 < kmin < kmax < inf, got kmin={k_min}, kmax={k_max}")
    n = _integer(n, name)
    if n < least:
        raise ValueError(f"need {name} >= {least}, got {n}")
    if n > _MOST_POINTS:
        raise ValueError(f"need {name} <= {_MOST_POINTS}, the most doubles one array "
                         f"can hold, got {n}")
    if log:
        return np.logspace(math.log10(lo), math.log10(hi), n)
    return np.linspace(lo, hi, n)


def _listed(values, name: str, of: str = "numbers") -> list:
    """The container argument name as a list, or one ValueError line if it is no container."""
    try:
        return list(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of {of}, got {values!r}") from None


def _k_array(ks: Sequence[float]) -> np.ndarray:
    """ks as a float array, which must be one-dimensional: one k per point.
    Only the kinds a number argument may be are read, so a string is not parsed."""
    k = np.asarray(ks)
    if k.dtype.kind not in _REAL_KINDS:
        raise ValueError(f"wavenumbers must be real numbers, got dtype {k.dtype.name}")
    k = k.astype(float, copy=False)
    if k.ndim != 1:
        raise ValueError(f"ks must be one-dimensional, got shape {k.shape}")
    return k


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


def _barrier_rows(k: np.ndarray, V, width, gap) -> np.ndarray:
    """Terms of a rectangular barrier at each point, one row per term:
    cos(kappa w) - 1, k sin(kappa w)/kappa and eps_- sin(kappa w).  V, width
    and gap, the widest |d| of the point's gaps, are values or arrays like k.

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

    Refuses each k here and nowhere else: raises ValueError for the first bad
    point in input order, naming the first of these that holds there: k not
    positive and finite, width not positive, a term that does not fit a
    double, |V|/(2k^2) above _MAX_V_OVER_2K2, or k*gap past a double (a
    gap's sine would be NaN).  Each term is a factor of k (k or V/(2k)) times
    one that grows as e**|Im kappa w|: the barrier is too opaque where that
    growth outweighs the factor's, and k is out of range otherwise.  The
    error's index attribute is that point's index.
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
        fits = finite & (np.abs(em) <= _MAX_V_OVER_2K2 * k)
        ok = (k > 0.0) & (width > 0.0) & fits & (k * gap < math.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        k_i, V_i, w_i, z_i, em_i, s_i = (
            float(x[i]) for x in np.broadcast_arrays(k, V, width, z, em, s))
        try:
            _require_positive_k(k_i)
            if not w_i > 0.0:
                raise ValueError(f"barrier width must be positive, got {w_i}")
            if fits[i]:  # its terms fit and are in range: only a gap's k*d is left
                raise ValueError("gap too wide: k*d overflows a double")
            if finite[i]:
                raise ValueError(f"wavenumber k = {k_i:.6g} too small for a barrier of height "
                                 f"{V_i:.6g}: |V|/(2k^2) exceeds 2**400")
            kappa_w = complex(0.0, z_i) if s_i < 0.0 else complex(z_i, 0.0)
            if math.isfinite(z_i) and abs(kappa_w.imag) > math.log(max(k_i, abs(em_i))):
                raise ValueError(f"barrier too opaque: kappa*w = {kappa_w:.6g} overflows a double")
            raise ValueError(f"wavenumber k = {k_i:.6g} out of range: the terms of a barrier "
                             f"of height {V_i:.6g} and width {w_i:.6g} overflow a double")
        except ValueError as refusal:  # the index of the point it refuses
            refusal.index = i
            raise
    return rows


def bloch_sequence(spec: UcpSpec, k: float) -> tuple[float, ...]:
    """The Bloch phases at one k: column 0 of bloch_sequence_arrays(spec, [k])."""
    return tuple(bloch_sequence_arrays(spec, [k])[:, 0].tolist())


def bloch_sequence_arrays(spec: UcpSpec, ks: Sequence[float]) -> np.ndarray:
    """Bloch phases Omega_1..Omega_G of the stage-G system at every k, a float
    array of shape (G, len(ks)) whose [q - 1, j] is Omega_q at ks[j].

    Omega_q is the half-trace of the order-q unit cell, block_{G-q+1} .
    gap(d_{G-q+1}) (Yeh, Yariv & Hong, JOSA 67, 423, 1977), the factor 2
    Omega_q by which the doubling's step multiplies r, so it keeps its digits
    at every stage.  A phase too large
    for a double comes back as +-inf; exact zeros (transmission resonances)
    come back as 0.  Raises the ValueError of the first refused k, the one
    that bloch_sequence gives there (see _barrier_rows).
    """
    return _bloch_phases(_spec(spec).width_chain, spec.V, _k_array(ks))


def _bloch_phases(table: _WidthTable, V: float, k: np.ndarray) -> np.ndarray:
    """bloch_sequence_arrays of the one-column width table at the height V.
    Every order runs, a gap of 0 too, so that there is a phase per order:
    unlike _transmission_table, it folds no zero gaps into a wider barrier."""
    half_traces = []
    # a gap per point: _repetition runs an order on as many points as its gap has
    _repetition(k, _barrier_rows(k, V, table.widths[-1, 0], table.gaps.max(initial=0.0)),
                [(np.full(k.size, d), 2) for d in table.gaps[::-1, 0].tolist()], half_traces)
    with np.errstate(over="ignore"):
        omegas = [np.ldexp(h, np.clip(e, -_EXP_CLIP, _EXP_CLIP).astype(np.int64))
                  for h, e in half_traces]
    return np.array(omegas).reshape(len(omegas), k.size)


def transmission_ucp(spec: UcpSpec, k: float) -> ScatterResult:
    """The closed form at one k: point (0, 0) of transmission_ucp_arrays([spec], [k])."""
    spec = _spec(spec)
    results = _transmission_table(spec.width_chain, [spec.V], [k])
    return ScatterResult(*(x.item() for x in results))


def transmission_ucp_arrays(specs: Sequence[UcpSpec],
                            ks: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form T, R and log10 T of every spec at every k, three float
    arrays of shape (len(specs), len(ks)): [i, j] is specs[i] at ks[j], and
    equals the one-point transmission_ucp(specs[i], ks[j]) bit for bit.

    Points of any mix of specs and stages run in one pass of the doubling
    (see _repetition), the points with most orders first, a spec of stage G
    running the last G orders, less those whose gaps are 0 at its deepest
    stages at a point of real kappa (see _transmission_table), on one fresh
    width table of their parameters (_width_table).
    """
    specs = [_spec(s, f"specs[{i}]") for i, s in enumerate(_listed(specs, "specs", "UcpSpec"))]
    L, V, rho, alpha, beta = (np.array([getattr(s, name) for s in specs], dtype=float)
                              for name in ("L", "V", "rho", "alpha", "beta"))
    return _transmission_table(_width_table(L, rho, alpha, beta, [s.G for s in specs]), V, ks)


def _transmission_table(table: _WidthTable, V: Sequence[float],
                        ks: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """transmission_ucp_arrays of the specs whose widths are the columns of
    table, column i at the height V[i].

    Where a spec's deepest m gaps, d_G down to d_{G-m+1}, are all 0 (they
    underflow), its 2**m barriers of width l_G stand side by side: a point
    of real kappa (k**2 >= V) starts from the one barrier of width 2**m l_G
    and runs the G - m orders left, as doubling a near-rotation over those
    orders loses every digit.  A point of imaginary kappa runs them all: its
    blocks grow, which the doubling keeps rescaled, where the wide barrier's
    sinh could overflow a double."""
    k = _k_array(ks)
    stages = table.stages
    shape = (stages.size, k.size)
    rows = np.arange(len(table.gaps))[:, None]
    gaps = np.where(rows < stages, table.gaps, 0.0)  # the gaps of each spec's own orders
    last = ((gaps != 0.0) * (rows + 1)).max(0, initial=0)  # each spec's orders up to its last gap
    spec = np.repeat(np.arange(shape[0]), k.size)  # every point's spec, spec-major
    points_k, points_V, points_G = np.tile(k, shape[0]), np.repeat(V, k.size), stages[spec]
    with np.errstate(over="ignore"):  # an overflowing k is refused below
        runs = np.where(points_k * points_k >= points_V, last[spec], points_G)
    # l_G, or 2**m l_G where m zero-gap orders are folded
    widths = np.ldexp(table.widths[points_G, spec], points_G - runs)
    # spec-major, so the first bad point raised is the first (spec, k) in row-major
    # order; past it every l_G > 0, so no chain is cut short
    barrier = _barrier_rows(points_k, points_V, widths, gaps.max(0, initial=0.0)[spec])
    # most orders first: the running[g] points still running at order g are a prefix
    order = np.argsort(-runs, kind="stable")
    running = np.cumsum(np.bincount(runs)[::-1])[::-1].tolist()
    orders = ((table.gaps[g - 1, spec[order[:running[g]]]], 2)
              for g in range(len(running) - 1, 0, -1))  # the deepest order first
    block = _repetition(points_k[order], barrier[:, order], orders)
    back = np.argsort(order)
    return tuple(x[back].reshape(shape) for x in _results(np.abs(block[2]), block[4]))


def _rescaled(block: tuple) -> tuple:
    """block with every point whose largest entry of (o, o + p, r, b) left
    [_RESCALE_BELOW, _RESCALE_AT] scaled by a power of two, that entry into
    [1/2, 1)."""
    o, p, r, b, exp2 = block
    size = np.maximum.reduce(np.abs((o, o + p, r, b)))  # o alone can overflow o * o
    off = (size > _RESCALE_AT) | (size < _RESCALE_BELOW)
    if off.any():
        e = np.where(off, np.frexp(size)[1], 0)
        scale = np.ldexp(1.0, -e)
        block = (o * scale, p * scale, r * scale, b * scale, exp2 + e)
    return block


def _step(x: tuple, cos_m1: np.ndarray, sin: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The doubling step x . gap . x of a block x held as in _repetition, the
    gap the rotation by kd held as cos(kd) - 1 and sin(kd), and the half-trace
    Omega = (o + p) cos kd + (r - b) sin kd of x . gap: r is 2 Omega r."""
    o, p, r, b, exp2 = x
    a, t, c = o + p, r - b, 1.0 + cos_m1
    omega = a * c + t * sin
    oo = o * o
    return (oo, cos_m1 * oo + c * (p * (o + a) + b * (r + t)) + 2.0 * sin * a * t,
            2.0 * omega * r, 2.0 * a * b * c + sin * (a - b) * (a + b), exp2 + exp2), omega


def _join(x: tuple, cos_m1: np.ndarray, sin: np.ndarray, y: tuple) -> tuple:
    """The palindrome x . gap . y of two palindromes of one block and gap, as
    _step takes them: x . gap . x is _step's block, and r is the sum over x
    and y of each one's r times the other's Omega."""
    o1, p1, r1, b1, e1 = x
    o2, p2, r2, b2, e2 = y
    a1, t1, a2, t2, c = o1 + p1, r1 - b1, o2 + p2, r2 - b2, 1.0 + cos_m1
    oo = o1 * o2
    return (oo,
            cos_m1 * oo + c * (o1 * p2 + p1 * a2 + b1 * r2 + r1 * b2 - b1 * b2)
            + sin * (a1 * t2 + a2 * t1),
            r1 * (a2 * c + t2 * sin) + r2 * (a1 * c + t1 * sin),
            c * (a1 * b2 + b1 * a2) + sin * (a1 * a2 - b1 * b2), e1 + e2)


def _power(block: tuple, cos_m1: np.ndarray, sin: np.ndarray, n: int) -> tuple:
    """The palindrome of n >= 1 copies of block with the gap between each, by
    binary powering: P_2j is _step of P_j and P_(i+j) the _join of P_i and
    P_j.  Every product is rescaled."""
    result = None
    while True:
        if n & 1:
            result = block if result is None else _rescaled(_join(result, cos_m1, sin, block))
        n >>= 1
        if not n:
            return result
        block = _rescaled(_step(block, cos_m1, sin)[0])


def _repetition(k: np.ndarray, barrier: np.ndarray, orders: Iterable[tuple],
                half_traces: list | None = None) -> np.ndarray:
    """Transfer block of a super-periodic arrangement of one barrier at each
    point k, barrier its rows from _barrier_rows.

    orders holds (gap, N) per order f = 1..g: the block starts as the barrier,
    and at each order it becomes N_f copies of itself with the gap d_f between
    each (Jaggard & Sun, Opt. Lett. 1990).  A gap holds a value for each of
    the first m points, m its size: only those run the order, and the rest
    keep their block, so each point runs its own number of orders, a point
    that runs none keeping its barrier.  The doubling (N_f = 2) takes one
    _step per order, and other N_f take _power.

    Each block is a palindrome of one symmetric barrier, so it is
    mirror-symmetric: its real transfer matrix [[A, kB], [C/k, D]] of
    (psi, psi'/k) has A = D.  It is held as (o, p, r, b) times 2**exp2 with
    A = D = o + p, kB = b and C/k = 2r - b.  The identity part o is kept
    apart, so a block much thinner than a wavelength keeps its deviation
    from I; kB is kept itself, so it keeps its digits where C/k is far larger
    (k**2 << V); and m12 = -i r in the plane-wave basis.  A step multiplies r
    by 2 Omega, Omega the half-trace of block . gap, the order's Bloch phase,
    so r, and R with it, is the product of the factorization
    |m12|_G = 2**G |m12|_0 prod_q Omega_q behind T_G = 1/(1 + 4**G |m12_0|**2
    prod_q Omega_q**2), and keeps its digits at T ~ 1.  The block is rescaled
    by a power of two at each order, and every product of the powering as it
    is formed, when its largest entry leaves [_RESCALE_BELOW, _RESCALE_AT].

    Returns the block of every point, one (5, n) array of its rows (o, p, r,
    b, exp2): row 4 is exp2, which each product and rescale updates with the
    other rows.  Appends (Omega, its exp2) per doubling order, over the points
    that ran it, to half_traces when it is given.  Each entry is an array over
    the points: numpy does the + - x, the sines (its float64 sin rounds as the
    C library's, which math.sin calls), the rescale test and the rescale.  It
    never raises: _barrier_rows has refused every bad k.
    """
    cos_m1, k_sin, em_sin = barrier
    # a fresh array, so the barrier's rows are never written; exp2 is held as
    # a float, which unlike an int64 cannot wrap: the doubling doubles it at
    # every order
    block = np.array((np.ones(k.size), cos_m1, em_sin, k_sin, np.zeros(k.size)))
    for d, n in orders:
        m = np.size(d)
        head = _rescaled(tuple(block[:, :m]))
        kd = k[:m] * d
        half = np.sin(kd / 2.0)  # the gap is a rotation by kd
        gap = (-2.0 * half * half, np.sin(kd))
        if n == 2:
            head, omega = _step(head, *gap)
            if half_traces is not None:
                half_traces.append((omega, head[4] / 2.0))  # the step doubled exp2
        else:
            head = _power(head, *gap, n)
        for row, x in zip(block, head):
            row[:m] = x
    return block


def _results(m12_abs: np.ndarray,
             exp2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T, R and log10 T of each point from |m12| of its product, 2**-exp2 of
    the true one.

    T = 1/(1 + X) with X = |m12|**2 is taken from ln X, so that T far below
    double-precision underflow keeps its log10; X = 0 gives T = 1 exactly.
    Each point gets the bits of the per-point if-chain kept in tests/paper.py
    as assemble, in one pass: masks pick each branch's value, X = 0's too.
    """
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


def transmission_spp(V: float, width: float, Ns: Sequence[int], ss: Sequence[float],
                     k: float) -> ScatterResult:
    """The generic arrangement at one k: point 0 of transmission_spp_arrays(..., [k])."""
    return ScatterResult(*(x.item() for x in transmission_spp_arrays(V, width, Ns, ss, [k])))


def transmission_spp_arrays(V: float, width: float, Ns: Sequence[int], ss: Sequence[float],
                            ks: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T, R and log10 T of a generic super-periodic arrangement of one barrier
    at every k, three float arrays of shape (len(ks),).

    The unit is a rectangular barrier of height V and width width.  The
    order-f block is Ns[f-1] copies of the order-(f-1) block, repeated at
    spacing ss[f-1], f = 1..g, so the copies are separated by gaps
    s_f - width_{f-1}, with width_0 = width and
    width_f = (N_f - 1) s_f + width_{f-1}.  Runs the kernel of the closed
    form (see _repetition), every order, a gap of 0 too; with Ns all 2 and
    ss the super-periods it is the stage-g system.  V must be finite, width positive and finite, repetition
    counts integers >= 1 and spacings finite.  V, the width and the spacings
    are read as doubles and each count as an int that fits one (see geometry).
    Raises the ValueError of the first refused k, transmission_spp's there.
    """
    height, w = _real(V, "V"), _real(width, "width")
    if not math.isfinite(height):
        raise ValueError(f"V must be finite, got {V}")
    if not 0.0 < w < math.inf:
        raise ValueError(f"width must be positive and finite, got {width}")
    Ns, ss = _listed(Ns, "Ns"), _listed(ss, "ss")
    if len(Ns) != len(ss):
        raise ValueError(f"len(Ns)={len(Ns)} and len(ss)={len(ss)} must match")
    counts = [_integer(n, f"repetition count of order {f}") for f, n in enumerate(Ns, 1)]
    if not all(n >= 1 for n in counts):
        raise ValueError(f"repetition counts must be integers >= 1, got {Ns}")
    orders, span = [], w
    for f, (n, s) in enumerate(zip(counts, ss), 1):
        _real(n, f"repetition count of order {f}")
        s_f = _real(s, f"spacing of order {f}")
        if not math.isfinite(s_f):
            raise ValueError(f"spacing of order {f} must be finite, got {s}")
        orders.append((s_f - span, n))
        span = (n - 1) * s_f + span
    k = _k_array(ks)
    gap = np.abs([d for d, _ in orders]).max(initial=0.0)
    block = _repetition(k, _barrier_rows(k, height, w, gap),
                        [(np.full(k.size, d), n) for d, n in orders])
    return _results(np.abs(block[2]), block[4])
