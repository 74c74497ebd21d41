import dataclasses
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from ucpscatter import (
    OracleInfeasibleError,
    TransferMatrix,
    UcpSpec,
    build_segments,
    region_sequence,
    segment_length,
    transmission_oracle,
    transmission_oracle_arrays,
    transmission_ucp,
    transmission_ucp_arrays,
)
from paper import assemble, barrier_matrix, barrier_terms, propagation_matrix, removal_fraction


small_specs = st.builds(
    UcpSpec,
    L=st.floats(0.5, 20),
    V=st.floats(0.0, 60),
    rho=st.floats(1.2, 6),
    alpha=st.floats(0.1, 2),
    beta=st.floats(0.0, 2),
    G=st.integers(0, 6),
)


def split_loop_regions(spec):
    """The removal rule as one split per barrier and stage: the former
    region_sequence, kept as the reference of the one width chain."""
    regions = [(spec.L, True)]
    for g in range(1, spec.G + 1):
        frac = removal_fraction(spec, g)
        split = []
        for width, is_barrier in regions:
            if is_barrier:
                c = width * (1.0 - frac) / 2.0
                split += ((c, True), (width - 2.0 * c, False), (c, True))
            else:
                split.append((width, False))
        regions = split
    return tuple(regions)


def matrix_product_oracle(spec, k):
    """The oracle written as a plain product of real (psi, psi'/k) matrices
    [[A, kB], [C/k, D]], region by region, with no rescale, and
    T = 1/(1 + |m12|^2) of the product."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for width, is_barrier in region_sequence(spec):
        if is_barrier:
            cos_m1, k_sin, em_sin = barrier_terms(k, spec.V, width)
            cos_z, k_sin = 1.0 + cos_m1.real, k_sin.real
            fa, fb, fc, fd = cos_z, k_sin, 2.0 * em_sin.real - k_sin, cos_z
        else:
            cos_kd, sin_kd = math.cos(k * width), math.sin(k * width)
            fa, fb, fc, fd = cos_kd, sin_kd, -sin_kd, cos_kd
        a, b, c, d = a * fa + b * fc, a * fb + b * fd, c * fa + d * fc, c * fb + d * fd
    m12_abs = math.hypot(a - d, b + c) / 2.0
    return assemble(None if m12_abs == 0.0 else 2.0 * math.log(m12_abs))


def plane_wave_product_oracle(spec, k):
    """The oracle in the complex plane-wave basis: a plain TransferMatrix
    product with amplitudes referenced locally at each region boundary."""
    total = TransferMatrix(1.0, 0.0, 0.0, 1.0)
    for width, is_barrier in region_sequence(spec):
        if is_barrier:
            total = total @ barrier_matrix(k, spec.V, width)
        total = total @ propagation_matrix(k, -width)
    m12_abs = abs(total.m12)
    return assemble(None if m12_abs == 0.0 else 2.0 * math.log(m12_abs))


class TestPropagationMatrix:
    def test_identity_at_zero(self):
        m = propagation_matrix(2.0, 0.0)
        assert (m.m11, m.m12, m.m21, m.m22) == (1.0, 0.0, 0.0, 1.0)

    def test_diagonal_phases(self):
        m = propagation_matrix(3.0, 0.5)
        assert m.m11 == pytest.approx(complex(math.cos(1.5), math.sin(1.5)))
        assert m.m22 == pytest.approx(m.m11.conjugate())
        assert m.m12 == 0.0 and m.m21 == 0.0

    def test_group_property(self):
        a = propagation_matrix(1.7, 0.4)
        b = propagation_matrix(1.7, 1.1)
        c = propagation_matrix(1.7, 1.5)
        prod = a @ b
        assert prod.m11 == pytest.approx(c.m11, rel=1e-14, abs=0)
        assert prod.m22 == pytest.approx(c.m22, rel=1e-14, abs=0)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            propagation_matrix(0.0, 1.0)


class TestRegionSequence:
    def test_stage_zero_is_one_barrier(self):
        spec = UcpSpec(L=2, V=5, rho=3, alpha=1, beta=0, G=0)
        assert region_sequence(spec) == ((2.0, True),)

    def test_standard_cantor_stage1(self):
        spec = UcpSpec(L=1, V=5, rho=3, alpha=1, beta=0, G=1)
        regions = region_sequence(spec)
        assert [is_barrier for _, is_barrier in regions] == [True, False, True]
        assert [width for width, _ in regions] == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    @given(small_specs)
    @settings(max_examples=60)
    def test_alternating_and_span_covering(self, spec):
        regions = region_sequence(spec)
        kinds = [is_barrier for _, is_barrier in regions]
        # strictly alternating, starting and ending on a barrier
        assert kinds[0] and kinds[-1]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        assert sum(kinds) == 2**spec.G
        assert math.fsum(width for width, _ in regions) == pytest.approx(spec.L, rel=1e-12, abs=0)
        assert all(width > 0 for width, _ in regions)

    @given(small_specs)
    @settings(max_examples=60)
    def test_matches_the_interval_list(self, spec):
        # the barriers are build_segments' own widths; each gap, formed from
        # its parent barrier, matches the difference of the listed offsets
        regions = region_sequence(spec)
        barriers = build_segments(spec)
        assert [width for width, is_barrier in regions if is_barrier] == [w for _, w in barriers]
        gaps = [width for width, is_barrier in regions if not is_barrier]
        offsets = [b[0] - (a[0] + a[1]) for a, b in zip(barriers, barriers[1:])]
        assert len(gaps) == len(offsets)
        assert all(abs(g - d) <= 1e-12 * spec.L for g, d in zip(gaps, offsets))

    @given(small_specs, st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_split_loop(self, spec, G):
        spec = dataclasses.replace(spec, G=G)
        assert region_sequence(spec) == split_loop_regions(spec)

    def test_stage_cap_is_checked_before_listing(self):
        with pytest.raises(OracleInfeasibleError, match="G=20000"):
            region_sequence(UcpSpec(L=1, V=5, rho=3, alpha=1, beta=0, G=20000))


class TestTransmissionOracle:
    def test_stage_zero_matches_closed_form(self):
        spec = UcpSpec(L=1.5, V=12, rho=3, alpha=1, beta=0, G=0)
        for k in (0.7, 2.0, 3.4641, 8.0):
            assert transmission_oracle(spec, k).transmission == pytest.approx(
                transmission_ucp(spec, k).transmission, rel=1e-12, abs=0
            )

    @given(small_specs, st.floats(0.2, 15))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_closed_form(self, spec, k):
        # skip the immediate vicinity of kappa*l_G = 0 where both paths are
        # exact 1 anyway but roundoff differs in the last digits
        kappa_sq = k * k - spec.V
        lg = segment_length(spec, spec.G)
        if abs(kappa_sq) ** 0.5 * lg < 1e-6:
            return
        a = transmission_oracle(spec, k)
        b = transmission_ucp(spec, k)
        assert abs(a.transmission - b.transmission) <= 1e-9
        assert a.transmission + a.reflection == pytest.approx(1.0, abs=1e-9)

    def test_deep_tunneling_log_value(self):
        # strong suppression: compare in the log domain where the closed
        # form is stable and the oracle still fits in doubles
        spec = UcpSpec(L=10, V=100, rho=3, alpha=1, beta=0, G=4)
        k = 0.5
        a = transmission_oracle(spec, k)
        b = transmission_ucp(spec, k)
        assert a.log10_transmission == pytest.approx(b.log10_transmission, rel=1e-9, abs=0)

    def test_zero_height(self):
        spec = UcpSpec(L=4, V=0, rho=2.5, alpha=0.5, beta=1, G=3)
        res = transmission_oracle(spec, 1.1)
        assert res.transmission == pytest.approx(1.0, abs=1e-12)

    def test_stage_cap_enforced(self):
        spec = UcpSpec(L=1, V=5, rho=3, alpha=1, beta=0, G=17)
        with pytest.raises(OracleInfeasibleError, match="G=17"):
            transmission_oracle(spec, 1.0)

    @pytest.mark.parametrize("spec, k, want", [
        # k^2 << |V|: 60-digit values of the self-similar product
        (UcpSpec(L=0.3998265663677245, V=15003.279773227676, rho=4.3201757839479,
                 alpha=0.5, beta=0.5, G=11), 0.002574005810062283, -38.52193160681353),
        (UcpSpec(L=142.58, V=-357.79, rho=4.168, alpha=0, beta=1, G=11), 0.005108,
         -28.843368084673527),
    ])
    def test_keeps_digits_far_below_the_barrier_scale(self, spec, k, want):
        assert transmission_oracle(spec, k).log10_transmission == pytest.approx(want, abs=1e-10)

    def test_barrier_entries_beyond_a_double(self):
        # C/k = 2 eps_- sin - k sin/kappa overflows a double at these k (the
        # product turned NaN); the closed form gives the pinned values
        spec = UcpSpec(L=57.271623783941266, V=12828.594060047031, rho=3.402702584634892,
                       alpha=1.0820643318776448, beta=0.86216933013465, G=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = transmission_oracle_arrays(spec, [0.13068226511790876, 0.20391286626553243])
        assert got[2].tolist() == pytest.approx(
            [-4917.332228862264, -4916.8293810458545], abs=1e-9)

    @pytest.mark.parametrize("alpha, beta, G", [(1195, -119, 10), (1153, -72, 16)])
    def test_agrees_with_closed_form_where_the_first_fractions_underflow(self, alpha, beta, G):
        # rho**-(alpha + beta) is 0 in a double, and the last fraction is
        # 1/2 or 2**-5: a running factor mu * nu**j gave 0 for every fraction,
        # and the closed form was 11.2 decades off at G = 16
        spec = UcpSpec(L=5, V=25, rho=2, alpha=alpha, beta=beta, G=G)
        ks = [1.0, 4.0, 7.0]
        want = transmission_oracle_arrays(spec, ks)[2].tolist()
        got = transmission_ucp_arrays([spec], ks)[2][0].tolist()
        assert got == pytest.approx(want, abs=1e-9)

    @given(st.floats(1.5, 4), st.integers(2, 10), st.floats(0.5, 6), st.floats(1.01, 1.5),
           st.floats(0.5, 20), st.floats(-50, 100), st.lists(st.floats(0.2, 15), min_size=1,
                                                             max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_closed_form_from_a_fraction_below_a_double(self, rho, G, last, past,
                                                                    L, V, ks):
        # the exponent falls from alpha + beta, past 1075 log 2 / log rho (so
        # the first fraction is 0 in a double), to `last` at stage G
        first = past * 1075 * math.log(2) / math.log(rho)
        beta = (last - first) / (G - 1)
        spec = UcpSpec(L=L, V=V, rho=rho, alpha=first - beta, beta=beta, G=G)
        assert removal_fraction(spec, 1) == 0.0
        want = transmission_oracle_arrays(spec, ks)[2].tolist()
        got = transmission_ucp_arrays([spec], ks)[2][0].tolist()
        assert got == pytest.approx(want, abs=1e-9)

    def test_keeps_digits_at_large_k_times_span(self):
        # k L ~ 3e4: gap widths taken as differences of absolute offsets put the
        # oracle 6.0e-9 off; -7165.362184737855 is a 60-digit product over the
        # exact self-similar geometry
        spec = UcpSpec(L=251.0308363434303, V=28382.65209883983, rho=1.4714465650886817,
                       alpha=0.3461287859608727, beta=1.6709977562588991, G=10)
        got = transmission_oracle(spec, 128.1653727193095).log10_transmission
        assert got == pytest.approx(-7165.362184737855, abs=1e-10)


PRODUCT_CASES = [
    # tunnelling (k^2 < V) and above the barrier, every stage up to 6
    *[(UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=G), k)
      for G in range(7) for k in (0.3, 2.0, 4.9, 5.2, 11.0)],
    (UcpSpec(L=5, V=25, rho=2.5, alpha=0.5, beta=1, G=6), 1.7),
    (UcpSpec(L=10, V=100, rho=3, alpha=1, beta=0, G=4), 0.5),
    # T = 1 to within rounding, on both sides of 1
    (UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4), 13.047376229371563),
    (UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4), 38.22687781296883),
    (UcpSpec(L=5, V=25, rho=4, alpha=0.5, beta=0.5, G=6), 39.90667777962994),
    (UcpSpec(L=4, V=0, rho=2.5, alpha=0.5, beta=1, G=3), 1.1),
    # |m22|^2 overflows a double
    (UcpSpec(L=10, V=40000, rho=3, alpha=1, beta=0, G=4), 0.5),
]


class TestOracleProduct:
    """transmission_oracle equals the plain matrix product bit for bit, and
    the plane-wave product to rounding."""

    @staticmethod
    def assert_bitwise(spec, k):
        assert transmission_oracle(spec, k) == matrix_product_oracle(spec, k)

    @pytest.mark.parametrize("spec, k", PRODUCT_CASES)
    def test_matches_plain_product(self, spec, k):
        self.assert_bitwise(spec, k)

    @pytest.mark.parametrize("spec, k", PRODUCT_CASES)
    def test_matches_plane_wave_product(self, spec, k):
        # not a property over small_specs: near k = 0.05, V = 60 the plane-wave
        # product itself is 5e-11 off in log10 T (the real one 1e-13)
        a = transmission_oracle(spec, k).log10_transmission
        assert abs(a - plane_wave_product_oracle(spec, k).log10_transmission) <= 1e-11

    def test_near_one_points_are_near_one(self):
        # guards the T ~ 1 cases above against drifting away from T = 1; where
        # 1/|m22|^2 rounded above 1, T from |m12| keeps T <= 1 and R >= 0
        for spec, k in [
            (UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4), 38.22687781296883),
            (UcpSpec(L=5, V=25, rho=4, alpha=0.5, beta=0.5, G=6), 39.90667777962994),
        ]:
            res = transmission_oracle(spec, k)
            assert abs(res.transmission - 1.0) < 1e-13
            assert res.transmission <= 1.0 and res.reflection >= 0.0

    def test_deep_tunnelling_below_underflow(self):
        # |m22|^2 ~ 1e390 overflows a double; the entries themselves do not
        spec = UcpSpec(L=10, V=40000, rho=3, alpha=1, beta=0, G=4)
        res = transmission_oracle(spec, 0.5)
        assert res.log10_transmission == pytest.approx(-390.470484796716, abs=1e-9)
        assert res.log10_transmission == pytest.approx(
            transmission_ucp(spec, 0.5).log10_transmission, abs=1e-9
        )

    def test_entries_beyond_a_double(self, caplog):
        # the product's entries reach ~1e412: it is carried rescaled, and the
        # determinant-drift check still holds on the rescaled entries
        spec = UcpSpec(L=10, V=200000, rho=3, alpha=1, beta=0, G=4)
        with caplog.at_level("WARNING", logger="ucpscatter.oracle"):
            res = transmission_oracle(spec, 0.5)
        assert res.log10_transmission == pytest.approx(-825.4554404276181, abs=1e-9)
        assert res.log10_transmission == pytest.approx(
            transmission_ucp(spec, 0.5).log10_transmission, abs=1e-9
        )
        assert res.transmission == 0.0 and res.reflection == 1.0
        assert caplog.records == []

    @given(small_specs, st.floats(0.05, 30))
    @settings(max_examples=60, deadline=None)
    def test_matches_plain_product_property(self, spec, k):
        self.assert_bitwise(spec, k)
