"""The benchmark's reference agrees with the oracle and with 80-digit arithmetic."""

import math

import numpy as np
import pytest

import refmodel
from ucpscatter import UcpSpec, transmission_oracle

FAMILIES = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.5, 1.0), (0.5, 2.0)]
KS = np.logspace(-1.0, 2.0, 13)


@pytest.mark.parametrize("alpha,beta", FAMILIES)
@pytest.mark.parametrize("rho,G", [(2.5, 3), (3.0, 7), (4.0, 10)])
def test_matches_oracle(alpha, beta, rho, G):
    spec = UcpSpec(L=5.0, V=25.0, rho=rho, alpha=alpha, beta=beta, G=G)
    ref = refmodel.log10_transmission(5.0, 25.0, rho, alpha, beta, G, KS)
    oracle = [transmission_oracle(spec, float(k)).transmission for k in KS]
    assert np.max(np.abs(10.0**ref - oracle)) <= 1e-9


def test_broadcasts_over_specs_and_k():
    rhos = np.array([[2.5], [3.0], [4.0]])
    grid = refmodel.log10_transmission(5.0, 25.0, rhos, 0.5, 1.0, 6, KS)
    rows = [refmodel.log10_transmission(5.0, 25.0, r, 0.5, 1.0, 6, KS) for r in (2.5, 3.0, 4.0)]
    assert grid.shape == (3, len(KS))
    np.testing.assert_array_equal(grid, np.array(rows))


def test_free_space_and_barrier_top():
    assert np.max(np.abs(refmodel.log10_transmission(5.0, 0.0, 3.0, 1.0, 0.0, 8, KS))) < 1e-13
    # E = V exactly uses the kappa -> 0 limit; it must be continuous there
    at, below, above = refmodel.log10_transmission(5.0, 25.0, 2.5, 0.5, 1.0, 4, [5.0, 5.0 - 1e-9, 5.0 + 1e-9])
    assert abs(at - below) < 1e-8 and abs(at - above) < 1e-8


@pytest.mark.parametrize("L", [3.0, 100.0])
def test_single_barrier(L):
    # G = 0 is one barrier: T = 1 / (1 + V^2 sinh^2(qL) / (4 k^2 q^2))
    V, k = 100.0, 0.5
    q = math.sqrt(V - k * k)
    # ln sinh(qL) = qL - ln 2 + log1p(-e^(-2qL))
    log_x = 2.0 * (q * L - math.log(2.0) + math.log1p(-math.exp(-2.0 * q * L)))
    log_x += 2.0 * math.log(V / (2.0 * k * q))
    want = -(log_x + math.log1p(math.exp(-log_x))) / math.log(10.0)
    got = float(refmodel.log10_transmission(L, V, 3.0, 1.0, 0.0, 0, k))
    assert abs(got - want) < 1e-9 * abs(want)


def test_validity_rule():
    assert not refmodel.is_valid(1.0, 2.5, 0.0, 0.0, 3)
    assert refmodel.is_valid(1.0, math.e, 2.0, -0.1, 19)
    assert not refmodel.is_valid(1.0, math.e, 2.0, -0.1, 20)
    assert not refmodel.is_valid(1.0, 1.0, 1.0, 0.0, 3)


def _paper_log10_t(mp, L, V, rho, alpha, beta, G, k):
    """The paper's Bloch-phase recursion, evaluated in mpmath arithmetic."""
    L, V, rho, alpha, beta, k = (mp.mpf(x) for x in (L, V, rho, alpha, beta, k))
    seg, gap = [L], [None]
    for g in range(1, G + 1):
        frac = rho ** -(alpha + beta * g)
        gap.append(seg[-1] * frac)
        seg.append(seg[-1] * (1 - frac) / 2)
    width = seg[G]
    kappa = mp.sqrt(mp.mpc(k * k - V))
    s_over = mp.sin(kappa * width) / kappa
    m22 = (mp.cos(kappa * width) + 1j * (2 * k * k - V) / (2 * k) * s_over) * mp.exp(-1j * k * width)
    m12 = 1j * V / (2 * k) * s_over
    theta = mp.arg(m22)
    omegas = [None]  # omegas[q] = Omega_q
    for q in range(1, G + 1):
        gamma1 = -(width + gap[G - q + 1])
        lead = 2 ** (q - 1) * abs(m22) * mp.cos(theta - k * gamma1) * mp.fprod(omegas[1:q])
        tail = mp.fsum(
            2 ** (q - r - 1) * mp.cos(k * (gap[G - r + 1] - gap[G - q + 1])) * mp.fprod(omegas[r + 1:q])
            for r in range(1, q)
        )
        omegas.append(lead - tail)
    x = 4**G * abs(m12) ** 2 * mp.fprod(w * w for w in omegas[1:])
    return -mp.log10(1 + x)


@pytest.mark.parametrize("args", [
    (5.0, 25.0, 2.5, 0.5, 1.0, 32, 8.22),
    # 2**6 barriers, each alone far below double underflow
    (400.0, 400.0, 3.0, 3.0, 0.0, 6, 1.0),
])
def test_matches_80_digit_recursion(args):
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.dps = 80
    want = float(_paper_log10_t(ctx, *args))
    got = float(refmodel.log10_transmission(*args))
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))
