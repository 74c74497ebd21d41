"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import dataclasses
import math

import numpy as np
import pytest

import paper
from paper import barrier_matrix, propagation_matrix
from ucpscatter import (
    InvalidSpecError,
    UcpSpec,
    bloch_sequence_arrays,
    constant_area_height,
    fit_scaling,
    gap_length,
    reflection_asymptote_arrays,
    region_sequence,
    saturation_scan,
    segment_length,
    super_period,
    transmission_oracle_arrays,
    transmission_spp_arrays,
    transmission_ucp,
    transmission_ucp_arrays,
)

FAMILIES = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.5, 1.0), (0.5, 2.0)]
RHOS = [2.5, 3.0, 4.0]
K_GRID = np.logspace(math.log10(0.2), math.log10(50.0), 200)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{status}]: {label} ({detail})")


def _grid_specs(g_max: int):
    for rho in RHOS:
        for alpha, beta in FAMILIES:
            for g in range(g_max + 1):
                yield UcpSpec(L=10.0, V=25.0, rho=rho, alpha=alpha, beta=beta, G=g)


def test_criterion_1_oracle_equivalence():
    worst = 0.0
    checked = 0
    for spec in _grid_specs(6):
        lg = segment_length(spec, spec.G)
        ks = [k for k in K_GRID.tolist() if not abs(k * k - spec.V) ** 0.5 * lg < 1e-6]
        closed = transmission_ucp_arrays([spec], ks)[0][0].tolist()
        for a, b in zip(closed, transmission_oracle_arrays(spec, ks)[0].tolist()):
            worst = max(worst, abs(a - b))
        checked += len(ks)
    ok = worst <= 1e-9
    _report(1, "closed form vs oracle", ok, f"max |dT| = {worst:.3e} over {checked} points")
    assert ok


def test_criterion_2_special_case_geometry():
    worst = 0.0
    # triadic Cantor: barrier and gap both L / 3^G
    for G in range(21):
        spec = UcpSpec(L=7.0, V=1.0, rho=3.0, alpha=1.0, beta=0.0, G=G)
        lg = segment_length(spec, G)
        expected = 7.0 / 3.0**G
        worst = max(worst, abs(lg / expected - 1.0))
        if G >= 1:
            worst = max(worst, abs(gap_length(spec, G) / expected - 1.0))
    # quartic fat-fractal family: explicit product forms
    for G in range(21):
        spec = UcpSpec(L=7.0, V=1.0, rho=4.0, alpha=0.0, beta=1.0, G=G)
        lg_expected = 7.0 / 2.0**G * math.prod(1 - 4.0**-j for j in range(1, G + 1))
        worst = max(worst, abs(segment_length(spec, G) / lg_expected - 1.0))
        for g in range(1, G + 1):
            dg_expected = (
                7.0
                / (4.0**g * 2.0 ** (g - 1))
                * math.prod(1 - 4.0**-j for j in range(1, g))
            )
            worst = max(worst, abs(gap_length(spec, g) / dg_expected - 1.0))
    ok = worst <= 1e-12
    _report(2, "special-case geometry closed forms", ok, f"max rel err = {worst:.3e}")
    assert ok


def test_criterion_3_unitarity_and_unimodularity():
    T, R, _ = transmission_ucp_arrays(list(_grid_specs(6)), [0.5, 2.0, 7.7, 30.0])
    worst_unitarity = float(np.max(np.abs(T + R - 1.0)))
    # full oracle product at G=16 (65536 barriers), k above the barrier top
    spec = UcpSpec(L=10.0, V=25.0, rho=3.0, alpha=1.0, beta=0.0, G=16)
    k = 6.0
    total = propagation_matrix(k, 0.0)
    for width, is_barrier in region_sequence(spec):
        if is_barrier:
            total = total @ barrier_matrix(k, spec.V, width)
        total = total @ propagation_matrix(k, -width)
    det_err = abs(total.det() - 1.0)
    ok = worst_unitarity <= 1e-12 and det_err <= 1e-9
    _report(
        3,
        "T+R=1 and oracle det",
        ok,
        f"max |T+R-1| = {worst_unitarity:.3e}, |det-1| at G=16: {det_err:.3e}",
    )
    assert ok


def test_criterion_4_reflection_scaling():
    slopes = []
    for rho, alpha, beta in [(1.75, 0.5, 0.25), (1.5, 0.5, 0.5)]:
        for G in (5, 10):
            spec = UcpSpec(L=1.0, V=10.0, rho=rho, alpha=alpha, beta=beta, G=G)
            fit = fit_scaling(spec, 10.0, (50.0, 500.0), n_points=1200)
            slopes.append((rho, alpha, beta, G, fit.slope))
    worst = max(abs(s[-1] + 2.0) for s in slopes)
    ok = worst <= 0.1
    detail = ", ".join(f"G={g}@rho={r}: {s:.3f}" for r, _, _, g, s in slopes)
    _report(4, "log-log reflection slope -2 +/- 0.1", ok, detail)
    assert ok


def test_criterion_5_saturation():
    ks = np.linspace(0.5, 10.0, 150)
    reports = {}
    for beta in (1.0, 2.0):
        spec = UcpSpec(L=5.0, V=25.0, rho=2.5, alpha=0.5, beta=beta, G=9)
        reports[beta] = saturation_scan(spec, 3, [float(k) for k in ks])
    decreasing = all(
        all(a > b for a, b in zip(rep.metrics, rep.metrics[1:]))
        for rep in reports.values()
    )
    idx = reports[1.0].stages.index(6)
    faster = reports[2.0].metrics[idx] < reports[1.0].metrics[idx]
    ok = decreasing and faster
    _report(
        5,
        "saturation strictly decreasing, faster for larger beta",
        ok,
        f"metric(beta=1, G=6)={reports[1.0].metrics[idx]:.3e}, "
        f"metric(beta=2, G=6)={reports[2.0].metrics[idx]:.3e}",
    )
    assert ok


def test_criterion_6_validity_bound():
    ok_below = True
    try:
        for g in range(20):
            UcpSpec(L=1.0, V=1.0, rho=math.e, alpha=2.0, beta=-0.1, G=g)
    except InvalidSpecError:
        ok_below = False
    rejected = False
    diagnostic = ""
    try:
        UcpSpec(L=1.0, V=1.0, rho=math.e, alpha=2.0, beta=-0.1, G=20)
    except InvalidSpecError as exc:
        rejected = True
        diagnostic = str(exc)
    ok = ok_below and rejected and "alpha + beta*G" in diagnostic
    _report(6, "stage validity bound at G=20 for (2, -1/10, e)", ok, diagnostic or "no rejection")
    assert ok


def test_criterion_7_spp_engine_consistency():
    worst = 0.0
    ks = K_GRID[::10].tolist()
    for spec in _grid_specs(6):
        ss = [super_period(spec, f) for f in range(1, spec.G + 1)]
        l_G = segment_length(spec, spec.G)
        spp = transmission_spp_arrays(spec.V, l_G, [2] * spec.G, ss, ks)[0].tolist()
        for k, a, b in zip(ks, spp, transmission_ucp_arrays([spec], ks)[0][0].tolist()):
            # the paper's Chebyshev form, in double precision, holds at g <= 6
            c = paper.paper_transmission_spp(barrier_matrix(k, spec.V, l_G), [2] * spec.G, ss, k)
            worst = max(worst, abs(a - b) / b, abs(a - c.transmission) / c.transmission)
    # single repetition must be the bare unit cell
    worst_n1 = 0.0
    ks = [0.5, 2.0, 9.0]
    for k, got in zip(ks, transmission_spp_arrays(25.0, 1.3, [1], [2.0], ks)[0].tolist()):
        unit = barrier_matrix(k, 25.0, 1.3)
        base = 1.0 / (1.0 + abs(unit.m12) ** 2)
        worst_n1 = max(worst_n1, abs(got - base) / base)
    ok = worst <= 1e-10 and worst_n1 <= 1e-12
    _report(
        7,
        "generic repetition engine vs closed form and the Chebyshev form",
        ok,
        f"max rel diff = {worst:.3e}, N=1 reduction = {worst_n1:.3e}",
    )
    assert ok


def test_criterion_8_continuity_at_barrier_top():
    spec = UcpSpec(L=5.0, V=25.0, rho=2.5, alpha=0.5, beta=1.0, G=4)
    t_at = transmission_ucp(spec, 5.0).transmission
    t_lo = transmission_ucp(spec, 5.0 * (1.0 - 1e-6)).transmission
    t_hi = transmission_ucp(spec, 5.0 * (1.0 + 1e-6)).transmission
    worst = max(abs(t_lo - t_at), abs(t_hi - t_at))
    ok = worst <= 1e-6
    _report(8, "continuity across E=V", ok, f"max |dT| = {worst:.3e}")
    assert ok


def test_criterion_9_log_domain_correctness():
    # boundary case where the direct product still fits in extended precision
    spec = UcpSpec(L=10.0, V=25.0, rho=2.5, alpha=0.5, beta=2.0, G=10)
    k = 0.5
    cell = barrier_matrix(k, spec.V, segment_length(spec, spec.G))
    x = np.longdouble(4.0) ** spec.G * np.longdouble(abs(cell.m12)) ** 2
    for w in paper.paper_bloch_sequence(spec, k):
        x *= np.longdouble(w) ** 2
    direct = -float(np.log10(np.longdouble(1.0) + x))
    got = transmission_ucp(spec, k).log10_transmission
    boundary_err = abs(got - direct)

    finite = all(np.isfinite(x).all()
                 for x in transmission_ucp_arrays(list(_grid_specs(15)), K_GRID[::4]))
    ok = boundary_err <= 1e-8 and finite
    _report(
        9,
        "log-domain assembly",
        ok,
        f"boundary |d log10 T| = {boundary_err:.3e}, all finite to G=15: {finite}",
    )
    assert ok


def test_criterion_10_deep_stages():
    parts = {}
    # (b) the oracle, cell by cell, at the deepest stages it runs in seconds
    diffs = []
    ks = [0.5, 2.0, 4.0]
    for G in (12, 14):
        for alpha, beta in FAMILIES:
            spec = UcpSpec(L=10.0, V=25.0, rho=3.0, alpha=alpha, beta=beta, G=G)
            pairs = zip(transmission_ucp_arrays([spec], ks)[2][0].tolist(),
                        transmission_oracle_arrays(spec, ks)[2].tolist())
            diffs += [abs(a - b) for a, b in pairs]
    parts["b"] = (all(d <= 1e-9 for d in diffs), f"oracle G=12,14: {max(diffs):.2e}")
    # (c) finite at the deepest stage and the highest k
    deepest = [UcpSpec(L=10.0, V=25.0, rho=3.0, alpha=alpha, beta=beta, G=64)
               for alpha, beta in FAMILIES]
    finite = all(np.isfinite(x).all() for x in transmission_ucp_arrays(deepest, [1e5]))
    parts["c"] = (finite, f"finite at G=64, k=1e5: {finite}")
    # (d) a thick stack, far below underflow
    thick = transmission_ucp(UcpSpec(L=400.0, V=400.0, rho=3.0, alpha=3.0, beta=0.0, G=6), 1.0)
    err_d = abs(thick.log10_transmission - -5632.363816614939)
    parts["d"] = (err_d <= 1e-9, f"thick stack log10 T = {thick.log10_transmission!r}")
    # (e) saturation keeps going at deep stages until it reaches rounding
    ks = [float(k) for k in np.linspace(0.5, 10.0, 150)]
    metrics = saturation_scan(UcpSpec(L=5.0, V=25.0, rho=2.5, alpha=0.5, beta=1.0, G=32), 16,
                              ks).metrics
    decreasing = all(b < a for a, b in zip(metrics, metrics[1:]) if not a <= 1e-10)
    parts["e"] = (decreasing and metrics[-1] <= 1e-10,
                  f"saturation G=16..32: {metrics[0]:.2e} -> {metrics[-1]:.2e}")
    for part in "bcde":
        _report(10, f"deep stages ({part})", *parts[part])
    assert all(ok for ok, _ in parts.values()), parts

    # (a) the paper's recursion evaluated with 80 digits; last, so that without
    # mpmath parts (b)-(e) are still checked before the test is skipped
    mpmath = pytest.importorskip("mpmath")
    specs = [UcpSpec(L=10.0, V=25.0, rho=3.0, alpha=alpha, beta=beta, G=G)
             for G in (20, 32, 48, 64) for alpha, beta in FAMILIES]
    ks = [0.1, 2.0, 8.22, 1e5]
    rows = transmission_ucp_arrays(specs, ks)[2].tolist()
    diffs = [abs(got - paper.paper_recursion(mpmath, spec, k)[0])
             for spec, row in zip(specs, rows) for k, got in zip(ks, row)]
    ok = all(d <= 1e-9 for d in diffs)
    _report(10, "deep stages (a)", ok, f"80-digit recursion, G=20..64: {max(diffs):.2e}")
    assert ok


def test_criterion_11_bloch_phases_at_deep_stages():
    # (b) the large-k reflection asymptote, built on the Bloch phases, against
    # the exact R at G=32, in the band 3..30 sqrt(10 V_G) above its guard
    ratios = {}
    for alpha, beta, rho in [(0.0, 1.0, 3.0), (0.5, 1.0, 2.5)]:
        spec = UcpSpec(L=1.0, V=10.0, rho=rho, alpha=alpha, beta=beta, G=32)
        v_g = constant_area_height(spec, 10.0)
        ks = (np.linspace(3.0, 30.0, 101) * math.sqrt(10.0 * v_g)).tolist()
        exact = transmission_ucp_arrays([dataclasses.replace(spec, V=v_g)], ks)[1][0].tolist()
        ratios[alpha, beta] = float(np.median(reflection_asymptote_arrays(spec, 10.0, ks)
                                              / np.array(exact)))
    ok_b = all(abs(r - 1.0) <= 0.01 for r in ratios.values())
    _report(11, "Bloch phases at deep stages (b)", ok_b,
            "median asymptote / exact R at G=32: "
            + ", ".join(f"{r:.6f}" for r in ratios.values()))
    assert ok_b, ratios

    # (a) the Bloch phases against the paper's recursion with 80 digits
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for G in (32, 64):
        for alpha, beta in FAMILIES:
            spec = UcpSpec(L=10.0, V=25.0, rho=3.0, alpha=alpha, beta=beta, G=G)
            ks = [0.1, 2.0, 8.22, 1e5]
            for k, got in zip(ks, bloch_sequence_arrays(spec, ks).T.tolist()):
                want = [float(w) for w in paper.paper_recursion(mpmath, spec, k)[1]]
                assert len(got) == len(want) == G
                worst = max(worst, max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(got, want)))
    ok_a = worst <= 1e-9
    _report(11, "Bloch phases at deep stages (a)", ok_a,
            f"80-digit recursion, G=32,64: max |dOmega|/max(1, |Omega|) = {worst:.2e}")
    assert ok_a
