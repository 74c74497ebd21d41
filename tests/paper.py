"""The paper's own recursions, kept as test references.

The library computes T, the Bloch phases and the generic repetition engine
with one real-block kernel.  The paper writes them as recursions in the Bloch
phases Omega_q and, for arbitrary repetition counts, Chebyshev factors
U_{N-1}(Omega).  Those recursions cancel about q bits at stage q, so in double
precision they hold to about G = 16; evaluated with 80 digits they hold to
G = 64.  Tests import this module as plain `import paper`.

The per-point forms of the library's array code are kept here too:
barrier_terms, the terms of one barrier in complex cmath arithmetic, and
assemble, T and R of one point from ln X in math; the library's
_barrier_rows and _results must give their bits.  So is width_chain_loop,
the removal rule one spec and one stage at a time, whose bits the width
table (geometry._width_table) must give.  So are the complex
plane-wave matrices the paper multiplies, barrier_matrix and
propagation_matrix, which no engine of the library uses.  Nothing private
of the library is imported: its constants and checks are stated here.
"""

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from ucpscatter import InvalidSpecError, ScatterResult, TransferMatrix

# the library's constants, stated here rather than imported, so that a change
# to one of them in the library shows against these references
SERIES_CUTOFF = 1e-8  # below this |kappa * width|, sin(kappa w)/kappa is its series
MAX_V_OVER_2K2 = 2.0**400  # the largest |V|/(2k^2) accepted
LN10 = math.log(10.0)
STAGE_CAP = 2099  # every width is 0 from this stage on, and no later stage is built


def require_positive_k(k):
    if not (k > 0.0 and math.isfinite(k)):
        raise ValueError(f"wavenumber k must be positive and finite, got {k}")


def removal_fraction(spec, g):
    """Fraction of each segment removed at stage g: rho**-(alpha + beta*g)."""
    return spec.rho ** -(spec.alpha + spec.beta * g)


class WidthChain(NamedTuple):
    """A spec's one-column width table, as UcpSpec.width_chain holds it."""

    widths: np.ndarray  # widths[g, 0] = w_g
    gaps: np.ndarray  # gaps[g-1, 0] = d_g
    stages: np.ndarray  # the stage count, G or the first stage whose width is 0


def barrier_terms(k, V, width):
    """Terms of a rectangular barrier: (cos(kappa w) - 1, k sin(kappa w)/kappa,
    eps_- sin(kappa w)), as complex numbers.

    Natural units: k = sqrt(E), kappa = sqrt(E - V) continued into the complex
    plane for E < V (cos/sin become cosh/sinh analytically).  cos(kappa w) - 1
    is -2 sin(kappa w / 2)**2, so a barrier much thinner than a wavelength keeps
    its digits; the E = V point is covered by a series expansion of
    sin(kappa w)/kappa.  Raises ValueError when a term does not fit in a
    double, or where |V|/(2k^2) exceeds MAX_V_OVER_2K2, as _barrier_rows.
    Each term is a factor of k (k or V/(2k)) times one that grows as
    e**|Im kappa w|: the barrier is too opaque where that growth outweighs the
    factor's, and k is out of range otherwise.  Where kappa is real and
    kappa*w overflows, cmath.sin raises its own ValueError, "math domain
    error".
    """
    require_positive_k(k)
    if not width > 0.0:
        raise ValueError(f"barrier width must be positive, got {width}")
    em = V / (2.0 * k)
    kappa = cmath.sqrt(complex(k * k - V, 0.0))
    z = kappa * width
    try:
        half = cmath.sin(z / 2.0)
        if abs(z) < SERIES_CUTOFF:
            z2 = z * z
            sin_over_kappa = width * (1.0 - z2 / 6.0 + z2 * z2 / 120.0)
        else:
            sin_over_kappa = cmath.sin(z) / kappa
    except OverflowError:  # |Im z| above ~710: sinh exceeds a double
        half = sin_over_kappa = math.inf
    # eps_- = (k/kappa - kappa/k) / 2 folded into the pole-free
    # eps_- sin(z) = V/(2k) * sin(z)/kappa
    terms = (-2.0 * half * half, k * sin_over_kappa, em * sin_over_kappa)
    if all(map(cmath.isfinite, terms)):
        if abs(em) <= MAX_V_OVER_2K2 * k:
            return terms
        raise ValueError(f"wavenumber k = {k:.6g} too small for a barrier of height "
                         f"{V:.6g}: |V|/(2k^2) exceeds 2**400")
    if cmath.isfinite(z) and abs(z.imag) > math.log(max(k, abs(em))):
        raise ValueError(f"barrier too opaque: kappa*w = {z:.6g} overflows a double")
    raise ValueError(f"wavenumber k = {k:.6g} out of range: the terms of a barrier "
                     f"of height {V:.6g} and width {width:.6g} overflow a double")


def assemble(log_x):
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
    log10_t = -log1p_x / LN10
    if log_x <= 0.0:
        reflection = math.exp(log_x - log1p_x)  # X / (1 + X), accurate when tiny
        transmission = 1.0 - reflection
    else:
        transmission = math.exp(-log1p_x)  # may underflow to 0.0 for huge X
        reflection = 1.0 - transmission
    return ScatterResult(transmission, reflection, log10_t)


def barrier_matrix(k: float, V: float, width: float) -> TransferMatrix:
    """Transfer matrix of a rectangular barrier of the given height and width.

    One code path serves every energy regime: the real parts of barrier_terms,
    which are _barrier_rows' bits.
    """
    cos_m1, k_sin, em_sin = (term.real for term in barrier_terms(k, V, width))
    cos_z, ep_sin = 1.0 + cos_m1, k_sin - em_sin
    phase = cmath.exp(1j * k * width)
    m11 = (cos_z - 1j * ep_sin) * phase
    m12 = 1j * em_sin
    return TransferMatrix(m11, m12, -m12, (cos_z + 1j * ep_sin) / phase)


def propagation_matrix(k: float, d: float) -> TransferMatrix:
    """Free-space transfer matrix diag(e^{ikd}, e^{-ikd}); identity at d = 0."""
    require_positive_k(k)
    phase = cmath.exp(1j * k * d)
    return TransferMatrix(phase, 0.0, 0.0, 1.0 / phase)


def width_chain_loop(spec):
    """The removal rule, top-down, one stage at a time: every stage-g barrier
    has the width w_g = w_{g-1} (1 - rho**-(alpha + beta*g)) / 2 formed from
    its parent's (w_0 = L), and the gap opened in it is d_g = w_{g-1}
    rho**-(alpha + beta*g).  It stops at the first w_g that underflows to 0,
    and fills the stages after it, up to G or STAGE_CAP, with +0.0: the
    spec's one-column width table (UcpSpec.width_chain) as it must be."""
    widths, gaps = [spec.L], []
    for g in range(1, spec.G + 1):
        w = widths[-1]
        if w == 0.0:
            break
        removed = removal_fraction(spec, g)
        gaps.append(w * removed)
        widths.append(w * (1.0 - removed) / 2.0)
    stages = len(gaps)
    zeros = [0.0] * (min(spec.G, STAGE_CAP) - stages)
    return WidthChain(np.array([widths + zeros], dtype=float).T,
                      np.array([gaps + zeros], dtype=float).T, np.array([stages]))


def gamma1(spec, q):
    """Phase distance gamma_1(q) = -(l_G + d_{G-q+1}); always negative."""
    if not 1 <= q <= spec.G:
        raise InvalidSpecError(f"stage index {q} outside [1, {spec.G}]")
    table = spec.width_chain
    return -(table.widths[-1, 0].item() + table.gaps[spec.G - q, 0].item())


def gamma2(spec, q, r):
    """Phase distance gamma_2(q, r) = d_{G-r+1} - d_{G-q+1} for 1 <= r < q <= G."""
    if not 1 <= r < q <= spec.G:
        raise InvalidSpecError(f"gamma2 requires 1 <= r < q <= G, got q={q}, r={r}")
    gaps = spec.width_chain.gaps[:, 0].tolist()
    return gaps[spec.G - r] - gaps[spec.G - q]


def paper_bloch_sequence(spec, k):
    """Bloch phases Omega_1..Omega_G by the doubling-specific recursion

        Omega_q = 2**(q-1) |m22| cos(theta - k gamma_1(q)) prod_{p<q} Omega_p
                  - sum_{r<q} 2**(q-r-1) cos(k gamma_2(q, r))
                    prod_{r<p<q} Omega_p,

    with theta = arg(m22) of the unit-cell barrier of width l_G, in double
    precision.  O(G^2); the subtraction cancels about q bits at stage q.
    """
    l_G = spec.width_chain.widths[-1, 0].item()
    cell = barrier_matrix(k, spec.V, l_G)
    amp = abs(cell.m22)
    theta = math.atan2(cell.m22.imag, cell.m22.real) if amp > 0.0 else 0.0
    omegas = []
    prefix = 1.0
    for q in range(1, spec.G + 1):
        lead = 2.0 ** (q - 1) * amp * math.cos(theta - k * gamma1(spec, q)) * prefix
        tail = 1.0  # prod_{p=r+1}^{q-1} Omega_p, extended as r steps down
        acc = 0.0
        for r in range(q - 1, 0, -1):
            if r != q - 1:
                tail *= omegas[r]  # Omega_{r+1}
            acc += 2.0 ** (q - r - 1) * math.cos(k * gamma2(spec, q, r)) * tail
        omega = lead - acc
        omegas.append(omega)
        prefix *= omega
    return tuple(omegas)


def chebyshev_u(n, x):
    """Chebyshev polynomial of the second kind U_n(x), n >= -1.

    Forward three-term recurrence U_n = 2x U_{n-1} - U_{n-2} with seeds
    U_{-1} = 0, U_0 = 1, exact at |x| = 1 and branch-free for |x| > 1.
    """
    if n < -1:
        raise ValueError(f"chebyshev_u: n must be >= -1, got {n}")
    if n == -1:
        return 0.0
    u_prev = 0.0  # U_{-1}
    u = 1.0       # U_0
    for _ in range(n):
        u_prev, u = u, 2.0 * x * u - u_prev
    return u


def paper_transmission_spp(unit, Ns, ss, k) -> ScatterResult:
    """Transmission of a generic super-periodic arrangement of the unit cell
    `unit` (a TransferMatrix) by the paper's Chebyshev form, in double
    precision.

    Order-f repetition count Ns[f-1] at spacing ss[f-1], f = 1..g, with
    factors U_{N-1}(Omega).  Conventions: N_0 = 1, s_0 = 0; sums whose
    running variable exceeds its limit are dropped, such products are 1.
    O(g^3).  Its Chebyshev factors overflow for opaque stacks, where it
    returns log10 T = -inf.
    """
    g = len(Ns)
    amp = abs(unit.m22)
    theta = math.atan2(unit.m22.imag, unit.m22.real) if amp > 0.0 else 0.0
    n = [1] + list(Ns)       # n[p] = N_p with N_0 = 1
    s = [0.0] + list(ss)     # s[p] = s_p with s_0 = 0

    omegas = []
    u_factors = []  # U_{N_p - 1}(Omega_p), p = 1..g
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
        return assemble(None)
    log_x = 2.0 * math.log(m12_abs) + 2.0 * math.fsum(
        math.log(abs(u)) for u in u_factors
    )
    return assemble(log_x)


@functools.lru_cache(maxsize=None)
def paper_recursion(mpmath, spec, k, dps=80):
    """(log10 T, Omegas) from the paper's Bloch recursion, evaluated with dps
    digits; cached, since several tests use the same deep points.

    The recursion cancels about q bits at stage q, which 80 digits absorb up
    to G=64; its sum over r < q is carried from stage to stage, so it costs
    O(G).  The geometry comes from the removal rule, also at dps digits.  The
    Omegas are mpmath numbers.
    """
    with mpmath.workdps(dps):
        L, V, rho, alpha, beta, k = map(mpmath.mpf, (spec.L, spec.V, spec.rho, spec.alpha,
                                                     spec.beta, k))
        G, seg, gaps = spec.G, L, []  # gaps[g-1] = d_g, seg ends as l_G
        for g in range(1, G + 1):
            frac = rho ** -(alpha + beta * g)
            gaps.append(seg * frac)
            seg = seg * (1 - frac) / 2
        kappa = mpmath.sqrt(mpmath.mpc(k * k - V))
        sin_over_kappa = mpmath.sin(kappa * seg) / kappa
        m22 = (mpmath.cos(kappa * seg) + 1j * (2 * k * k - V) / (2 * k) * sin_over_kappa) \
            * mpmath.exp(-1j * k * seg)
        m12 = V / (2 * k) * sin_over_kappa
        amp, theta = abs(m22), mpmath.arg(m22)
        trig = [(mpmath.cos(k * d), mpmath.sin(k * d)) for d in gaps]
        # cos(k gamma_2(q, r)) = cos(k d_{G-r+1}) cos(k d_{G-q+1})
        # + sin(k d_{G-r+1}) sin(k d_{G-q+1}), so the sum over r < q is
        # cos(k d_{G-q+1}) c_acc + sin(k d_{G-q+1}) s_acc, with
        # (c_acc, s_acc) = sum_{r<q} 2**(q-r-1) trig[G-r] prod_{r<p<q} Omega_p
        # carried from q to q + 1 in O(1)
        omegas, prefix = [], mpmath.mpf(1)
        c_acc = s_acc = mpmath.mpf(0)
        for q in range(1, G + 1):
            gamma_1 = -(seg + gaps[G - q])
            lead = 2 ** (q - 1) * amp * mpmath.cos(theta - k * gamma_1) * prefix
            cq, sq = trig[G - q]
            omega = lead - (cq * c_acc + sq * s_acc)
            omegas.append(omega)
            prefix *= omega
            c_acc, s_acc = 2 * omega * c_acc + cq, 2 * omega * s_acc + sq
        x = 4**G * abs(m12) ** 2 * prefix**2
        return float(-mpmath.log10(1 + x)), tuple(omegas)
