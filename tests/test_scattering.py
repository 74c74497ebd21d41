import cmath
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import paper
import ucpscatter.geometry as geometry
import ucpscatter.scattering as scattering
from paper import barrier_matrix
from ucpscatter import (
    UcpSpec,
    bloch_sequence,
    gap_length,
    segment_length,
    super_period,
    transmission_oracle,
    transmission_spp,
    transmission_ucp,
    transmission_ucp_arrays,
)


def single_barrier_transmission(k, V, width):
    """Independent textbook single-barrier formula (tunneling or propagating)."""
    d = k * k - V
    if d > 0:
        kap = math.sqrt(d)
        em = (k / kap - kap / k) / 2
        return 1.0 / (1.0 + em * em * math.sin(kap * width) ** 2)
    kap = math.sqrt(-d)
    em = (k * k + kap * kap) / (2 * k * kap)  # |eps_-| on imaginary kappa
    return 1.0 / (1.0 + em * em * math.sinh(kap * width) ** 2)


def test_the_references_state_the_librarys_constants():
    # paper.py states them itself, so a change to the library's value is seen
    # by the references that use it
    assert paper.SERIES_CUTOFF == scattering._SERIES_CUTOFF
    assert paper.MAX_V_OVER_2K2 == scattering._MAX_V_OVER_2K2
    assert paper.LN10 == scattering._LN10
    assert paper.STAGE_CAP == geometry._STAGE_CAP


class TestBarrierMatrix:
    def test_zero_height_is_identity(self):
        # amplitudes are referenced locally at each boundary, so a region of
        # vanished potential contributes no mixing and no extra phase
        m = barrier_matrix(2.0, 0.0, 1.5)
        assert m.m12 == 0
        assert m.m11 == pytest.approx(1.0, abs=1e-14)
        assert m.m22 == pytest.approx(1.0, abs=1e-14)

    def test_kappa_zero_limit(self):
        # at E = V the off-diagonal magnitude tends to k*w/2
        m = barrier_matrix(5.0, 25.0, 1.0)
        assert abs(m.m12) == pytest.approx(2.5, rel=1e-12, abs=0)

    def test_tunneling_single_barrier(self):
        m = barrier_matrix(3.0, 25.0, 0.5)
        t = 1.0 / abs(m.m22) ** 2
        assert t == pytest.approx(single_barrier_transmission(3.0, 25.0, 0.5), rel=1e-12, abs=0)

    def test_symmetry_structure(self):
        m = barrier_matrix(1.7, 6.0, 0.9)
        assert m.m22 == pytest.approx(m.m11.conjugate(), abs=1e-12)
        assert m.m21 == pytest.approx(m.m12.conjugate(), abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            barrier_matrix(0.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            barrier_matrix(1.0, 5.0, 0.0)

    @given(
        st.floats(0.05, 30),
        st.floats(-50, 50),
        st.floats(0.001, 5),
    )
    def test_unimodular(self, k, V, width):
        m = barrier_matrix(k, V, width)
        scale = max(1.0, abs(m.m22) ** 2)
        assert abs(m.det() - 1.0) <= 1e-10 * scale


class TestBlochSequence:
    def test_stage_zero_empty(self):
        spec = UcpSpec(L=1, V=10, rho=3, alpha=1, beta=0, G=0)
        assert bloch_sequence(spec, 2.0) == ()

    def test_stage_one_matches_hand_formula(self):
        spec = UcpSpec(L=1, V=10, rho=3, alpha=1, beta=0, G=1)
        k = 2.7
        cell = barrier_matrix(k, spec.V, segment_length(spec, 1))
        theta = cmath.phase(cell.m22)
        gamma_1 = -(segment_length(spec, 1) + gap_length(spec, 1))
        expected = abs(cell.m22) * math.cos(theta - k * gamma_1)
        seq = bloch_sequence(spec, k)
        assert seq[0] == pytest.approx(expected, rel=1e-13, abs=0)

    def test_stage_two_matches_hand_expansion(self):
        spec = UcpSpec(L=2, V=15, rho=2.5, alpha=0.5, beta=1, G=2)
        k = 3.1
        cell = barrier_matrix(k, spec.V, segment_length(spec, 2))
        amp, theta = abs(cell.m22), cmath.phase(cell.m22)
        l_2, d_1, d_2 = segment_length(spec, 2), gap_length(spec, 1), gap_length(spec, 2)
        w1 = amp * math.cos(theta - k * -(l_2 + d_2))
        w2 = 2 * amp * math.cos(theta - k * -(l_2 + d_1)) * w1 - math.cos(k * (d_2 - d_1))
        seq = bloch_sequence(spec, k)
        assert seq[0] == pytest.approx(w1, rel=1e-13, abs=0)
        assert seq[1] == pytest.approx(w2, rel=1e-12, abs=0)

    def test_reality_against_complex_path(self):
        # re-derive each Omega keeping m22 complex; imaginary residue must vanish
        spec = UcpSpec(L=10, V=25, rho=3, alpha=1, beta=0, G=6)
        k = 4.0
        G, l_G = spec.G, segment_length(spec, spec.G)
        d = [None] + [gap_length(spec, g) for g in range(1, G + 1)]  # d[g] = d_g
        cell = barrier_matrix(k, spec.V, l_G)
        m22 = cell.m22
        omegas = []
        for q in range(1, spec.G + 1):
            lead = (
                2.0 ** (q - 1)
                * (m22 * cmath.exp(-1j * k * -(l_G + d[G - q + 1]))).real
                * math.prod(omegas[: q - 1], start=1.0)
            )
            z = (
                2.0 ** (q - 1)
                * m22
                * cmath.exp(-1j * k * -(l_G + d[G - q + 1]))
                * math.prod(omegas[: q - 1], start=1.0)
            )
            # the Hermitian combination (z + conj(z))/2 is what the real path uses
            assert abs((z + z.conjugate()).imag) <= 1e-10 * max(1.0, abs(z))
            acc = 0.0
            for r in range(1, q):
                acc += (
                    2.0 ** (q - r - 1)
                    * math.cos(k * (d[G - r + 1] - d[G - q + 1]))
                    * math.prod(omegas[r:q - 1], start=1.0)
                )
            omegas.append(lead - acc)
        seq = bloch_sequence(spec, k)
        for mine, theirs in zip(omegas, seq):
            assert theirs == pytest.approx(mine, rel=1e-10, abs=1e-10)


class TestTransmissionUcp:
    def test_zero_height_transmits_fully(self):
        spec = UcpSpec(L=7, V=0, rho=2.5, alpha=0.5, beta=1, G=3)
        res = transmission_ucp(spec, 1.3)
        assert res.transmission == 1.0
        assert res.reflection == 0.0
        assert res.log10_transmission == 0.0

    def test_stage_zero_single_barrier(self):
        spec = UcpSpec(L=1, V=10, rho=3, alpha=1, beta=0, G=0)
        res = transmission_ucp(spec, 2.0)
        assert res.transmission == pytest.approx(
            single_barrier_transmission(2.0, 10.0, 1.0), rel=1e-12, abs=0
        )

    def test_unitarity(self):
        spec = UcpSpec(L=10, V=25, rho=2.5, alpha=0.5, beta=1, G=4)
        for k in (0.5, 1.0, 3.3, 4.9999, 5.0001, 12.0):
            res = transmission_ucp(spec, k)
            assert res.transmission + res.reflection == pytest.approx(1.0, abs=1e-12)
            assert 0.0 < res.transmission <= 1.0
            assert 0.0 <= res.reflection <= 1.0

    def test_continuity_at_barrier_top(self):
        spec = UcpSpec(L=5, V=25, rho=2.5, alpha=0.5, beta=1, G=4)
        t_at = transmission_ucp(spec, 5.0).transmission
        t_lo = transmission_ucp(spec, 5.0 * (1 - 1e-6)).transmission
        t_hi = transmission_ucp(spec, 5.0 * (1 + 1e-6)).transmission
        assert abs(t_lo - t_at) <= 1e-6
        assert abs(t_hi - t_at) <= 1e-6

    def test_rejects_nonpositive_k(self):
        spec = UcpSpec(L=1, V=10, rho=3, alpha=1, beta=0, G=1)
        with pytest.raises(ValueError):
            transmission_ucp(spec, 0.0)

    def test_log_domain_agrees_with_direct_product(self):
        # boundary case where the direct product still fits in doubles
        spec = UcpSpec(L=10, V=25, rho=2.5, alpha=0.5, beta=2, G=10)
        k = 0.5
        cell = barrier_matrix(k, spec.V, segment_length(spec, spec.G))
        seq = bloch_sequence(spec, k)
        x = 4.0**spec.G * abs(cell.m12) ** 2
        for w in seq:
            x *= w * w
        direct_log10_t = -math.log10(1.0 + x)
        res = transmission_ucp(spec, k)
        assert res.log10_transmission == pytest.approx(direct_log10_t, abs=1e-8)


class TestWavenumberFarBelowTheHeight:
    """Past |V|/(2k^2) = 2**420 or so the rescaled doubling block flushed its
    smallest entries to 0 and gave NaN or a wrong log10 T, exit 0; k is
    refused from 2**400 on, by both engines."""

    @pytest.mark.parametrize("spec, k", [
        (UcpSpec(25, 1e5, 3, 2, 0.5, G=10), 1e-160),  # gave -4730.29; 60 digits give -6281.19
        (UcpSpec(25, 1e5, 3, 2, 0.5, G=14), 1e-160),  # 6280 decades off
        (UcpSpec(5, 25, 2.5, 0.5, 1, G=10), 1e-150),  # 0.075 decades off
        (UcpSpec(5, 25, 2.5, 0.5, 1, G=10), 1e-155),  # 7.26 decades off
    ])
    def test_refused_by_both_engines(self, spec, k):
        for engine in (transmission_ucp, transmission_oracle):
            with pytest.raises(ValueError, match=r"^wavenumber k = 1e-1[56][05] too small "
                                                 r"for a barrier of height .*2\*\*400$"):
                engine(spec, k)

    @pytest.mark.parametrize("V", [25.0, -25.0])
    def test_bound_is_two_to_the_400(self, V):
        spec = UcpSpec(5, V, 2.5, 0.5, 1, G=10)
        k = math.sqrt(abs(V) / 2.0) * 2.0**-199.5  # |V|/(2k^2) = 2**399
        closed = transmission_ucp(spec, k).log10_transmission
        assert closed == pytest.approx(transmission_oracle(spec, k).log10_transmission, abs=1e-9)
        with pytest.raises(ValueError, match="too small"):
            transmission_ucp(spec, k / 2.0)  # 2**401


class TestReflectionNearFullTransmission:
    """R where T ~ 1, against the paper's recursion with 80 digits.  The bound
    is C (s + eps), s the reference's own relative change in R under one ulp
    of k: the worst of these 64 points is 82 (s + eps), at (0.5, 2), G=16,
    k=3e3, and the worst relative error 2.1e-9."""

    C = 1000.0

    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (0.0, 1.0), (0.5, 1.0), (0.5, 2.0)])
    def test_reflection_keeps_its_digits(self, alpha, beta):
        mpmath = pytest.importorskip("mpmath")

        def reference(spec, k):
            return -math.expm1(math.log(10.0) * paper.paper_recursion(mpmath, spec, k)[0])

        specs = [UcpSpec(L=5.0, V=25.0, rho=2.5, alpha=alpha, beta=beta, G=G)
                 for G in (8, 16, 32, 64)]
        ks = [30.0, 300.0, 3e3, 3e4]
        rows = transmission_ucp_arrays(specs, ks)[1].tolist()
        for spec, row in zip(specs, rows):
            for k, reflection in zip(ks, row):
                want = reference(spec, k)
                s = abs(reference(spec, math.nextafter(k, math.inf)) / want - 1.0)
                assert 0.0 < want < 1e-2
                assert abs(reflection / want - 1.0) <= self.C * (s + 2.0**-52), (spec, k)


class TestTransmissionSpp:
    @pytest.mark.parametrize("V, width", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                          (1.0, math.nan), (1.0, math.inf), (1.0, 0.0)])
    def test_height_and_width_checked_as_a_spec_checks_them(self, V, width):
        with pytest.raises(ValueError, match="V must be finite" if width == 1.0 else "width"):
            transmission_spp(V, width, [2], [3.0], 1.0)

    def test_order_zero_single_cell(self):
        unit = barrier_matrix(2.0, 10.0, 1.0)
        res = transmission_spp(10.0, 1.0, [], [], 2.0)
        want = 1.0 / (1.0 + abs(unit.m12) ** 2)
        assert res.transmission == pytest.approx(want, rel=1e-13, abs=0)

    @given(
        st.floats(0.1, 20),
        st.floats(-20, 40),
        st.floats(0.01, 3),
    )
    @settings(max_examples=200)
    def test_n1_is_no_repetition(self, k, V, width):
        base = transmission_spp(V, width, [], [], k)
        once = transmission_spp(V, width, [1], [0.7], k)
        assert once.transmission == pytest.approx(base.transmission, rel=1e-12, abs=1e-300)

    def test_doubling_reproduces_closed_form(self):
        spec = UcpSpec(L=10, V=25, rho=3, alpha=1, beta=0, G=4)
        for k in (0.7, 2.1, 4.4, 9.0):
            ss = [super_period(spec, f) for f in range(1, spec.G + 1)]
            spp = transmission_spp(spec.V, segment_length(spec, spec.G), [2] * spec.G, ss, k)
            ucp = transmission_ucp(spec, k)
            assert spp.log10_transmission == pytest.approx(
                ucp.log10_transmission, rel=1e-10, abs=1e-12
            )

    def test_cantor_super_period_closed_form_drives_same_result(self):
        # standard-Cantor super-periods in closed form (s_f = 2L/3^{G+1-f}),
        # fed through the generic engine instead of super_period
        spec = UcpSpec(L=1, V=25, rho=3, alpha=1, beta=0, G=3)
        k = 3.7
        ss = [2.0 * spec.L / 3.0 ** (spec.G + 1 - f) for f in range(1, spec.G + 1)]
        spp = transmission_spp(spec.V, segment_length(spec, spec.G), [2] * spec.G, ss, k)
        ucp = transmission_ucp(spec, k)
        assert spp.transmission == pytest.approx(ucp.transmission, rel=1e-10, abs=0)

    def test_svc_super_period_closed_form_drives_same_result(self):
        spec = UcpSpec(L=1, V=25, rho=4, alpha=0, beta=1, G=3)
        k = 2.9
        G = spec.G

        def lg(g):
            return spec.L / 2.0**g * math.prod(1 - 4.0**-j for j in range(1, g + 1))

        # s_f = l_{G+1-f} + l_{G-f} * 4^{-(G+1-f)}
        ss = [lg(G + 1 - f) + lg(G - f) * 4.0 ** -(G + 1 - f) for f in range(1, G + 1)]
        spp = transmission_spp(spec.V, lg(G), [2] * G, ss, k)
        ucp = transmission_ucp(spec, k)
        assert spp.transmission == pytest.approx(ucp.transmission, rel=1e-10, abs=0)

    @pytest.mark.parametrize("k", [0.3, 2.0, 6.1, 40.0])
    def test_four_copies_are_two_doublings(self, k):
        # binary powering (N = 4) against two doubling orders of the same stack
        V, w, s = 25.0, 0.4, 1.1
        four = transmission_spp(V, w, [4], [s], k)
        twice = transmission_spp(V, w, [2, 2], [s, 2.0 * s], k)
        assert four.log10_transmission == pytest.approx(
            twice.log10_transmission, rel=1e-12, abs=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transmission_spp(5.0, 1.0, [2, 2], [1.0], 1.0)
        with pytest.raises(ValueError):
            transmission_spp(5.0, 1.0, [0], [1.0], 1.0)

    @pytest.mark.parametrize("Ns", [[2.0], [2.5], ["2"], [None], [-1], [3, 0]])
    def test_counts_must_be_integers_of_at_least_one(self, Ns):
        with pytest.raises(ValueError, match="integers >= 1"):
            transmission_spp(5.0, 1.0, Ns, [1.0] * len(Ns), 1.0)

    @pytest.mark.parametrize("ss", [[math.nan], [1.0, math.inf], [2.0, -math.inf]])
    def test_spacings_must_be_finite(self, ss):
        # a NaN spacing gave T = R = nan; an infinite one a math.sin error
        with pytest.raises(ValueError, match=f"spacing of order {len(ss)} must be finite"):
            transmission_spp(25.0, 2.0, [2] * len(ss), ss, 1.3)

    def test_opaque_stack_keeps_its_digits(self):
        # 180 opaque barriers: the paper's Chebyshev factors overflow a double
        # and give log10 T = -inf; a 60-digit product gives -1142.32406637313722
        k, V, w = 1.4457632957239137, 27.169421741580173, 1.426962764909146
        Ns = [3, 5, 3, 4]
        ss = [2.8126906406232504, 7.925014387427165, 40.308627003425975, 120.34638587413593]
        assert paper.paper_transmission_spp(barrier_matrix(k, V, w), Ns, ss, k) \
            .log10_transmission == -math.inf
        got = transmission_spp(V, w, Ns, ss, k).log10_transmission
        assert got == pytest.approx(-1142.32406637313722, abs=1e-9)

    @given(
        k=st.floats(0.1, 20),
        V=st.floats(-20, 40),
        width=st.floats(0.01, 3),
        orders=st.lists(st.tuples(st.integers(1, 5), st.floats(0.0, 3.0)), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_chebyshev_form(self, k, V, width, orders):
        # the paper's Chebyshev form in double precision is exact enough at
        # these depths (N <= 5, g <= 4) wherever its factors stay finite
        Ns, ss, span = [], [], width
        for n, gap in orders:  # spacing = the block's width plus a gap
            Ns.append(n)
            ss.append(span + gap)
            span = (n - 1) * ss[-1] + span
        want = paper.paper_transmission_spp(barrier_matrix(k, V, width), Ns, ss, k)
        assume(math.isfinite(want.log10_transmission))
        got = transmission_spp(V, width, Ns, ss, k).log10_transmission
        assert abs(got - want.log10_transmission) <= 1e-10 * max(1.0, abs(want.log10_transmission))


class TestPerSpecTable:
    def test_interleaved_specs_keep_their_own_results(self):
        # A, B, A with A rebuilt as an equal but distinct object: A's result must
        # not change, and B, with the same stage, must not be served A's table
        fields = dict(L=10, V=25, alpha=1, beta=0, G=5)
        a, b = UcpSpec(rho=3, **fields), UcpSpec(rho=4, **fields)
        k = 2.3
        first = transmission_ucp(a, k)
        first_seq = bloch_sequence(a, k)
        other = transmission_ucp(b, k)
        other_seq = bloch_sequence(b, k)
        again = UcpSpec(rho=3, **fields)
        assert transmission_ucp(again, k) == first
        assert bloch_sequence(again, k) == first_seq
        assert other != first and other_seq != first_seq
        for spec, res in ((a, first), (b, other)):
            # the generic engine takes its spacings from super_period, not the table
            ss = [super_period(spec, f) for f in range(1, spec.G + 1)]
            spp = transmission_spp(spec.V, segment_length(spec, spec.G), [2] * spec.G, ss, k)
            want = spp.log10_transmission
            assert res.log10_transmission == pytest.approx(want, rel=1e-10, abs=0)
