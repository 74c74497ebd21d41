import dataclasses
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paper import gamma1, gamma2, q_pochhammer, removal_fraction, width_chain_loop
from ucpscatter import (
    InvalidSpecError,
    UcpSpec,
    build_segments,
    gap_length,
    max_valid_stage,
    segment_length,
    super_period,
)
from ucpscatter.geometry import _STAGE_CAP, _width_table


def cantor(L=1.0, rho=3.0, G=2, V=1.0):
    return UcpSpec(L=L, V=V, rho=rho, alpha=1.0, beta=0.0, G=G)


def svc(L=1.0, rho=4.0, G=2, V=1.0):
    return UcpSpec(L=L, V=V, rho=rho, alpha=0.0, beta=1.0, G=G)


valid_specs = st.builds(
    UcpSpec,
    L=st.floats(0.1, 50),
    V=st.floats(0.0, 100),
    rho=st.floats(1.05, 8),
    alpha=st.floats(0.05, 3),
    beta=st.floats(0.0, 3),
    G=st.integers(0, 8),
)


def top_down_lengths(spec):
    """The removal rule one stage at a time, top-down: [l_0..l_G], [d_1..d_G]."""
    widths, gaps = [spec.L], []
    for g in range(1, spec.G + 1):
        frac = removal_fraction(spec, g)
        gaps.append(widths[-1] * frac)
        widths.append(widths[-1] * (1.0 - frac) / 2.0)
    return widths, gaps


def lengths_40_digits(spec):
    """[l_0..l_G] and [d_1..d_G] of the double spec, evaluated with 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        rho, alpha, beta = map(mpmath.mpf, (spec.rho, spec.alpha, spec.beta))
        widths, gaps = [mpmath.mpf(spec.L)], []
        for g in range(1, spec.G + 1):
            frac = rho ** -(alpha + beta * g)
            gaps.append(widths[-1] * frac)
            widths.append(widths[-1] * (1 - frac) / 2)
    return widths, gaps


def split_loop_segments(spec):
    """The removal rule as one split per interval and stage: the former
    build_segments, kept as the reference of the one width chain."""
    intervals = [(0.0, spec.L)]
    for g in range(1, spec.G + 1):
        frac = removal_fraction(spec, g)
        nxt = []
        for off, w in intervals:
            child = w * (1.0 - frac) / 2.0
            nxt.append((off, child))
            nxt.append((off + w - child, child))
        intervals = nxt
    return tuple(intervals)


def stage_loop_error(alpha, beta, G):
    """The former UcpSpec stage check, one step per stage: its message, or None."""
    for g in range(1, G + 1):
        if alpha + beta * g <= 0.0:
            return (f"alpha + beta*G <= 0 at stage g={g} (alpha={alpha}, beta={beta}): "
                    "the removal fraction reaches 1 and the geometry degenerates")
    return None


def stage_loop_bound(alpha, beta):
    """The former max_valid_stage, one step per stage."""
    if alpha + beta <= 0.0:
        return 0
    if beta >= 0.0:
        return None
    g = 1
    while alpha + beta * (g + 1) > 0.0:
        g += 1
    return g


# exponent pairs whose stage bound, if any, is at most about 2e4
exponent_pairs = st.one_of(
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)).filter(
        lambda ab: ab[1] >= 0.0 or ab[0] <= -2e4 * ab[1]),
    # alpha on, or one ulp off, a multiple of -beta: rounding decides the bound
    st.builds(lambda b, n, ulp: (n * b if ulp is None else math.nextafter(n * b, ulp), -b),
              st.floats(1e-3, 10), st.integers(1, 20000),
              st.sampled_from([None, -math.inf, math.inf])),
).filter(lambda ab: ab != (0.0, 0.0))


class TestSpecValidation:
    def test_rejects_nonpositive_span(self):
        with pytest.raises(InvalidSpecError):
            UcpSpec(L=0.0, V=1, rho=3, alpha=1, beta=0, G=1)

    def test_rejects_rho_at_or_below_one(self):
        for rho in (1.0, 0.5, -2.0):
            with pytest.raises(InvalidSpecError, match="rho"):
                UcpSpec(L=1, V=1, rho=rho, alpha=1, beta=0, G=1)

    def test_rejects_both_exponents_zero(self):
        with pytest.raises(InvalidSpecError, match="both"):
            UcpSpec(L=1, V=1, rho=3, alpha=0, beta=0, G=1)

    def test_both_exponents_zero_reported_before_the_stage(self):
        # the stage bound rejects alpha = beta = 0, and is called before G is checked
        with pytest.raises(InvalidSpecError, match="both"):
            UcpSpec(L=1, V=1, rho=3, alpha=0, beta=0, G=2.5)

    def test_negative_beta_validity_bound(self):
        # alpha + beta*g > 0 holds up to g = 19 for (2, -1/10) and fails at 20
        UcpSpec(L=5, V=25, rho=math.e, alpha=2, beta=-0.1, G=19)
        with pytest.raises(InvalidSpecError, match="alpha \\+ beta\\*G"):
            UcpSpec(L=5, V=25, rho=math.e, alpha=2, beta=-0.1, G=20)

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (math.inf, -math.inf),
    ])
    def test_rejects_non_finite_exponents(self, alpha, beta):
        # every comparison with NaN is false, so the stage bound alone lets NaN through
        with pytest.raises(InvalidSpecError, match="finite"):
            UcpSpec(L=1, V=1, rho=3, alpha=alpha, beta=beta, G=2)

    @pytest.mark.parametrize("G", [3.0, 2.5, "3", "4"])
    def test_rejects_non_integer_stage(self, G):
        # the message shows a string as a string: got '4', not got 4
        with pytest.raises(InvalidSpecError, match="integer") as info:
            UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=G)
        assert str(info.value).endswith(f"got {G!r}")


class TestSpecStageBound:
    @given(exponent_pairs, st.integers(0, 300))
    @settings(max_examples=300)
    def test_same_verdict_and_text_as_the_stage_loop(self, ab, G):
        alpha, beta = ab
        want = stage_loop_error(alpha, beta, G)
        if want is None:
            UcpSpec(L=1, V=1, rho=3, alpha=alpha, beta=beta, G=G)
        else:
            with pytest.raises(InvalidSpecError) as exc:
                UcpSpec(L=1, V=1, rho=3, alpha=alpha, beta=beta, G=G)
            assert str(exc.value) == want

    def test_huge_stage_is_checked_at_once(self):
        # the stage loop took about 1 s per 10**7 stages
        start = time.perf_counter()
        UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0.5, G=10**9)
        with pytest.raises(InvalidSpecError, match="g=1000000000 "):
            UcpSpec(L=1, V=1, rho=3, alpha=1e5, beta=-1e-4, G=10**9)
        assert time.perf_counter() - start < 1.0


class TestSegmentLength:
    def test_stage_zero_is_span(self):
        assert segment_length(cantor(L=7.5), 0) == 7.5

    def test_standard_cantor_thirds(self):
        spec = cantor(G=8)
        for g in range(9):
            assert segment_length(spec, g) == pytest.approx(3.0**-g, rel=1e-13, abs=0)

    def test_svc_hand_product(self):
        # (1/4) * (3/4) * (15/16)
        assert segment_length(svc(), 2) == pytest.approx(45 / 256, rel=1e-14, abs=0)

    def test_general_cantor_closed_form(self):
        for rho in (2.1, 3.0, 5.0):
            spec = UcpSpec(L=1, V=1, rho=rho, alpha=1, beta=0, G=25)
            for g in range(26):
                expected = ((rho - 1) / (2 * rho)) ** g
                assert segment_length(spec, g) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_svc_closed_form(self):
        for rho in (3.0, 4.0, 6.0):
            spec = UcpSpec(L=1, V=1, rho=rho, alpha=0, beta=1, G=25)
            for g in range(26):
                expected = 2.0**-g * math.prod(1 - rho**-j for j in range(1, g + 1))
                assert segment_length(spec, g) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_pochhammer_ratio_form(self):
        # for alpha != 0 the product also equals
        # rho^alpha / (rho^alpha - 1) * (rho^-alpha; rho^-beta)_{g+1}
        spec = UcpSpec(L=2, V=1, rho=2.5, alpha=0.7, beta=1.3, G=6)
        ra = spec.rho**spec.alpha
        for g in range(7):
            alt = (
                spec.L
                / 2.0**g
                * ra
                / (ra - 1.0)
                * q_pochhammer(1.0 / ra, spec.rho**-spec.beta, g + 1)
            )
            assert segment_length(spec, g) == pytest.approx(alt, rel=1e-12, abs=0)

    def test_rejects_stage_out_of_range(self):
        with pytest.raises(InvalidSpecError):
            segment_length(cantor(G=2), 3)


class TestGapLength:
    def test_standard_cantor_gap_equals_segment(self):
        spec = cantor(G=6)
        for g in range(1, 7):
            assert gap_length(spec, g) == pytest.approx(3.0**-g, rel=1e-13, abs=0)

    def test_svc_first_gap(self):
        assert gap_length(svc(G=1), 1) == pytest.approx(0.25, rel=1e-14, abs=0)

    def test_direct_formula(self):
        spec = UcpSpec(L=5, V=1, rho=2.5, alpha=0.5, beta=1, G=1)
        assert gap_length(spec, 1) == pytest.approx(5 * 2.5**-1.5, rel=1e-14, abs=0)

    @given(valid_specs)
    def test_monotone_decreasing_for_positive_beta(self, spec):
        if spec.G < 2 or spec.beta <= 0:
            return
        gaps = [gap_length(spec, g) for g in range(1, spec.G + 1)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestSuperPeriod:
    def test_top_order_no_product_term(self):
        spec = UcpSpec(L=2, V=1, rho=2.2, alpha=0.8, beta=0.4, G=5)
        expected = spec.L / 2 * (1 + spec.rho ** -(spec.alpha + spec.beta))
        assert super_period(spec, spec.G) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_standard_cantor_stage2(self):
        assert super_period(cantor(G=2), 1) == pytest.approx(2 / 9, rel=1e-13, abs=0)

    def test_svc_stage1(self):
        assert super_period(svc(G=1), 1) == pytest.approx(5 / 8, rel=1e-14, abs=0)

    @given(valid_specs)
    @settings(max_examples=60)
    def test_defining_relation(self, spec):
        # s_f = l_{G+1-f} + l_{G-f} * rho**-(alpha + beta*(G+1-f))
        for f in range(1, spec.G + 1):
            m = spec.G + 1 - f
            expected = segment_length(spec, m) + segment_length(
                spec, m - 1
            ) * spec.rho ** -(spec.alpha + spec.beta * m)
            assert super_period(spec, f) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("length, g", [
    (segment_length, 2.5), (gap_length, 1.5), (super_period, 1.5), (segment_length, 2.0),
    (gap_length, np.float64(1.0)),
])
def test_a_non_integer_stage_index_is_refused(length, g):
    # numpy would read it as an array index and raise its own IndexError
    with pytest.raises(InvalidSpecError, match="integer"):
        length(cantor(G=3), g)


@pytest.mark.parametrize("length", [segment_length, gap_length, super_period])
def test_a_numpy_integer_stage_index_is_an_index(length):
    spec = cantor(G=3)
    assert length(spec, np.int64(2)) == length(spec, 2)


@pytest.mark.parametrize("length", [segment_length, gap_length, super_period])
def test_a_bool_stage_index_is_an_index(length):
    # a bool is an Integral, but numpy reads an array index of True as a mask
    spec = cantor(G=3)
    assert length(spec, True) == length(spec, 1)


class TestGammas:
    # gamma1 and gamma2 are the phase distances of the paper's recursion; they
    # live with it in tests/paper.py, built on the spec's width chain

    def test_gamma1_standard_cantor_closed_form(self):
        spec = cantor(G=4)
        for q in range(1, 5):
            expected = -spec.L / 3.0**spec.G * (1 + 3.0 ** (q - 1))
            assert gamma1(spec, q) == pytest.approx(expected, rel=1e-12, abs=0)
            assert gamma1(spec, q) < 0

    def test_gamma1_direct_substitution(self):
        spec = UcpSpec(L=3, V=1, rho=2.5, alpha=0.5, beta=1, G=3)
        expected = -(segment_length(spec, 3) + gap_length(spec, 3))
        assert gamma1(spec, 1) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_gamma1_svc_value(self):
        # -(l_2 + d_1) for the standard SVC at G=2
        assert gamma1(svc(), 2) == pytest.approx(-(45 / 256 + 1 / 4), rel=1e-13, abs=0)

    def test_gamma2_svc_value(self):
        # d_2 - d_1 = 3/128 - 1/4
        assert gamma2(svc(), 2, 1) == pytest.approx(3 / 128 - 1 / 4, rel=1e-13, abs=0)

    def test_gamma2_standard_cantor_closed_form(self):
        spec = cantor(G=5)
        for q in range(2, 6):
            for r in range(1, q):
                expected = spec.L / 3.0 ** (spec.G - r + 1) * (1 - 3.0 ** (q - r))
                assert gamma2(spec, q, r) == pytest.approx(expected, rel=1e-12, abs=0)

    @given(valid_specs)
    @settings(max_examples=60)
    def test_gamma2_is_gamma1_difference(self, spec):
        for q in range(2, spec.G + 1):
            for r in range(1, q):
                diff = gamma1(spec, q) - gamma1(spec, r)
                assert gamma2(spec, q, r) == pytest.approx(diff, rel=1e-12, abs=1e-15)

    @given(valid_specs)
    @settings(max_examples=60)
    def test_equal_to_the_length_formulas_bit_for_bit(self, spec):
        G = spec.G
        # the width table has the bits of the closed-form lengths
        table = spec.width_chain
        assert (table.widths[-1, 0], table.gaps[:, 0].tolist()) == (
            segment_length(spec, G), [gap_length(spec, g) for g in range(1, G + 1)]
        )
        for q in range(1, G + 1):
            assert gamma1(spec, q) == -(segment_length(spec, G) + gap_length(spec, G - q + 1))
            for r in range(1, q):
                assert gamma2(spec, q, r) == gap_length(spec, G - r + 1) - gap_length(
                    spec, G - q + 1
                )

    def test_gamma2_negative_for_r_below_q(self):
        spec = UcpSpec(L=1, V=1, rho=2.5, alpha=0.5, beta=1, G=6)
        for q in range(2, 7):
            for r in range(1, q):
                assert gamma2(spec, q, r) < 0

    def test_gamma2_rejects_bad_order(self):
        with pytest.raises(InvalidSpecError):
            gamma2(cantor(G=3), 2, 2)


class TestDeepStages:
    """Stages whose lengths leave a double: no overflow, and no per-stage loop
    past the first l_g that underflows."""

    @given(valid_specs, st.integers(0, 1023))
    @settings(max_examples=60)
    def test_lengths_keep_their_bits_below_stage_1024(self, spec, g):
        spec = dataclasses.replace(spec, G=g)
        widths, gaps = top_down_lengths(spec)
        assert [segment_length(spec, j) for j in range(g + 1)] == widths
        assert [gap_length(spec, j) for j in range(1, g + 1)] == gaps
        if g:
            assert super_period(spec, 1) == widths[g] + gaps[g - 1]

    @given(valid_specs, st.integers(0, 1023))
    @settings(max_examples=60, deadline=None)
    def test_lengths_hold_to_40_digits_below_stage_1024(self, spec, g):
        # the worst over 6000 draws of this strategy is 1.9e-12 for both, at
        # rho = 1.05, alpha = 0.05, beta = 0: 1 - f cancels, f/(1 - f) ~ 410
        spec = dataclasses.replace(spec, G=g)
        widths, gaps = lengths_40_digits(spec)
        for j in range(g + 1):
            l_j = segment_length(spec, j)
            if l_j >= sys.float_info.min:
                assert abs(l_j / widths[j] - 1) <= 2e-11
            d_j = gap_length(spec, j) if j else 0.0
            if d_j >= sys.float_info.min:
                assert abs(d_j / gaps[j - 1] - 1) <= 2e-11

    def test_lengths_past_stage_1024_are_zero(self):
        # 2.0**g overflows a double from g = 1024
        spec = svc(G=1100)
        assert segment_length(spec, 1100) == 0.0
        assert gap_length(spec, 1100) == 0.0
        assert super_period(spec, 1) == 0.0
        assert spec.width_chain.widths[-1, 0] == 0.0

    def test_stage_table_stops_where_l_g_underflows(self):
        spec = cantor(G=800)  # the chain rounds l_g = 3**-g to 0 from g = 678
        table = spec.width_chain
        n = int(table.stages[0])
        assert n == 678 and table.widths.shape == (801, 1) and table.gaps.shape == (800, 1)
        assert table.widths[-1, 0] == 0.0
        assert segment_length(spec, n) == 0.0 < segment_length(spec, n - 1)
        assert table.gaps[:n, 0].tolist() == [gap_length(spec, g) for g in range(1, n + 1)]
        assert all(gap_length(spec, g) == 0.0 for g in range(n + 1, 801))
        # every row past the stage count is +0.0, bit for bit
        assert not table.widths[n:].view(np.int64).any()
        assert not table.gaps[n:].view(np.int64).any()

    def test_every_span_is_zero_from_stage_2099(self):
        # the widest chain: the largest span, halved exactly at every stage
        spec = UcpSpec(L=sys.float_info.max, V=1, rho=1e300, alpha=1, beta=0, G=2099)
        assert segment_length(spec, 2099) == 0.0 < segment_length(spec, 2098)
        # so the width table builds no stage past it, at any G
        table = _width_table([spec.L], [spec.rho], [1.0], [0.0], [10**9])
        assert table.widths.shape == (_STAGE_CAP + 1, 1) == (2100, 1)
        assert table.stages.tolist() == [2099]

    def test_reading_the_chain_leaves_the_spec_as_it_was(self):
        read, fresh = svc(G=12), svc(G=12)
        assert read.width_chain.widths[-1, 0] > 0.0
        assert "width_chain" in vars(read) and "width_chain" not in vars(fresh)
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
        assert dataclasses.replace(read) == fresh
        assert dataclasses.astuple(read) == dataclasses.astuple(fresh)

    def test_stage_table_at_a_billion_stages(self):
        start = time.perf_counter()
        table = svc(G=10**9).width_chain
        assert table.widths[-1, 0] == 0.0 and table.stages[0] < 1100
        assert table.widths.shape == (_STAGE_CAP + 1, 1)
        assert time.perf_counter() - start < 1.0


def assert_same_bits(got, want):
    """Two width tables are equal bit for bit: the shapes, the stage counts, and
    every width and gap, -0.0 told from +0.0."""
    assert got.stages.tolist() == want.stages.tolist()
    for x, y in ((got.widths, want.widths), (got.gaps, want.gaps)):
        assert x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


stages = st.one_of(st.integers(0, 40),
                   st.sampled_from([677, 678, 1100, 2098, 2099, 2100, 10**9]))


@st.composite
def any_spec(draw, stage=stages):
    """A valid spec anywhere in the accepted range: spans up to the largest
    double, rho from 1 + 1 ulp, and a negative beta's stage at or below its
    bound."""
    alpha = draw(st.one_of(st.floats(-50, 2000, exclude_min=True), st.sampled_from([0.0, 1.0])))
    # beta above -alpha, so alpha + beta > 0: a sum of two doubles is 0 only
    # where they cancel exactly, and a draw is never rejected
    beta = draw(st.one_of(st.floats(max(-alpha, -1000.0), 50, exclude_min=True),
                          st.sampled_from([b for b in (0.0, 1.0, -0.5, 50.0) if b > -alpha])))
    bound = max_valid_stage(alpha, beta)
    G = draw(stage)
    return UcpSpec(
        L=draw(st.floats(5e-324, sys.float_info.max)),
        V=1.0,
        rho=draw(st.one_of(st.floats(1.0, 1e300, exclude_min=True),
                           st.sampled_from([math.nextafter(1.0, 2.0), 3.0, 1e300]))),
        alpha=alpha,
        beta=beta,
        G=G if bound is None else min(G, bound),
    )


class TestWidthTable:
    """geometry._width_table, the one statement of the removal rule, against
    the rule one spec and one stage at a time (paper.width_chain_loop)."""

    @given(any_spec())
    @settings(max_examples=150, deadline=None)
    def test_a_spec_chain_is_the_loop_bit_for_bit(self, spec):
        assert_same_bits(spec.width_chain, width_chain_loop(spec))

    @given(st.lists(any_spec(), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_each_column_is_its_spec_loop_bit_for_bit(self, specs):
        table = _width_table(*([getattr(s, name) for s in specs]
                               for name in ("L", "rho", "alpha", "beta", "G")))
        assert len(table.widths) - 1 <= _STAGE_CAP
        for i, spec in enumerate(specs):
            n = int(table.stages[i])
            chain = width_chain_loop(spec)
            assert n == chain.stages[0]
            assert table.widths[:n + 1, i].tolist() == chain.widths[:n + 1, 0].tolist()
            assert table.gaps[:n, i].tolist() == chain.gaps[:n, 0].tolist()

    @given(any_spec(st.integers(0, 40)))
    @settings(max_examples=60, deadline=None)
    def test_removal_fraction_is_the_table_fraction(self, spec):
        table = spec.width_chain
        widths, gaps = table.widths[:, 0].tolist(), table.gaps[:, 0].tolist()
        for g, gap in enumerate(gaps, 1):
            f = removal_fraction(spec, g)
            assert gap == widths[g - 1] * f
            assert widths[g] == widths[g - 1] * (1.0 - f) / 2.0

    def test_no_columns_and_no_stages(self):
        table = _width_table([], [], [], [], [])
        assert table.widths.shape == (1, 0) and table.gaps.shape == (0, 0)
        assert table.stages.tolist() == []
        table = _width_table([5.0, 7.0], [3.0, 3.0], [1.0, 1.0], [0.0, 0.0], [0, 0])
        assert table.widths.tolist() == [[5.0, 7.0]] and table.stages.tolist() == [0, 0]

    def test_mixed_stages_cut_at_their_own(self):
        # a column past its own G is cut there, whatever the others' stages
        table = _width_table([1.0] * 3, [3.0] * 3, [1.0] * 3, [0.0] * 3, [0, 800, 4])
        assert table.stages.tolist() == [0, 678, 4]
        assert len(table.widths) == 801


class TestRatioPastADouble:
    """rho**-beta above a double (a large negative beta): the lengths are the
    products of the removal fractions themselves, with no OverflowError."""

    @pytest.mark.parametrize("alpha, beta, G", [(2000, -1000, 1), (2000, -900, 2)])
    def test_lengths_are_products_of_the_removal_fractions(self, alpha, beta, G):
        spec = UcpSpec(L=1, V=1, rho=11, alpha=alpha, beta=beta, G=G)
        prods = [math.prod(1.0 - removal_fraction(spec, j) for j in range(1, g + 1))
                 for g in range(G + 1)]
        for g in range(G + 1):
            assert segment_length(spec, g) == math.ldexp(1.0, -g) * prods[g]
        assert super_period(spec, 1) == (math.ldexp(1.0, -G) * (1.0 + removal_fraction(spec, G))
                                         * prods[G - 1])
        table = spec.width_chain
        assert (table.widths[-1, 0], table.gaps[:, 0].tolist()) == (
            segment_length(spec, G), [gap_length(spec, g) for g in range(1, G + 1)]
        )

    def test_first_fractions_below_a_double(self):
        # rho**-(alpha + beta) underflows to 0 while the later fractions grow
        # to 1/2; a running factor mu * nu**j was 0 throughout and gave
        # l_G = 1.4724e-31
        spec = UcpSpec(L=1e300, V=1, rho=2, alpha=1100, beta=-1, G=1099)
        widths, gaps = lengths_40_digits(spec)
        assert float(widths[-1]) == pytest.approx(4.2522036048837170e-32, rel=1e-15, abs=0)
        assert segment_length(spec, spec.G) == pytest.approx(float(widths[-1]), rel=1e-13, abs=0)
        for g in (1097, 1098, 1099):
            assert gap_length(spec, g) == pytest.approx(float(gaps[g - 1]), rel=1e-13, abs=0)


class TestBuildSegments:
    @given(valid_specs, st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_split_loop(self, spec, G):
        spec = dataclasses.replace(spec, G=G)
        assert build_segments(spec) == split_loop_segments(spec)

    def test_offset_past_a_double_raises(self):
        # off + w_{g-1} overflowed: the last barrier's offset was inf
        spec = UcpSpec(L=1.7976931348623157e308, V=1e150, rho=10, alpha=2, beta=-0.5, G=3)
        with pytest.raises(ValueError, match="offsets overflow a double"):
            build_segments(spec)

    def test_stage_zero(self):
        barriers = build_segments(cantor(L=4.0, G=0))
        assert barriers == ((0.0, 4.0),)

    def test_standard_cantor_stage1(self):
        barriers = build_segments(cantor(G=1))
        assert barriers[0] == pytest.approx((0.0, 1 / 3))
        assert barriers[1] == pytest.approx((2 / 3, 1 / 3))

    def test_svc_stage1(self):
        barriers = build_segments(svc(G=1))
        assert barriers[0] == pytest.approx((0.0, 3 / 8))
        assert barriers[1] == pytest.approx((5 / 8, 3 / 8))

    @given(valid_specs)
    @settings(max_examples=80)
    def test_invariants(self, spec):
        barriers = build_segments(spec)
        n = len(barriers)
        assert n == 2**spec.G
        l_g = segment_length(spec, spec.G)
        tol = 1e-12 * spec.L
        prev_end = -tol
        for off, w in barriers:
            assert w == pytest.approx(l_g, abs=tol)
            assert off >= prev_end - tol
            prev_end = off + w
        assert prev_end <= spec.L + tol
        # mirror symmetry about L/2
        for (off, w), (off2, w2) in zip(barriers, reversed(barriers)):
            assert off == pytest.approx(spec.L - off2 - w2, abs=tol)
        # widths sum to 2^G * l_G
        width = math.fsum(w for _, w in barriers)
        assert width == pytest.approx(n * l_g, abs=1e-10 * spec.L)

    @given(valid_specs)
    @settings(max_examples=60)
    def test_width_plus_gaps_is_span(self, spec):
        barriers = build_segments(spec)
        gaps = []
        pos = 0.0
        for off, w in barriers:
            gaps.append(off - pos)
            pos = off + w
        gaps.append(spec.L - pos)
        total = math.fsum(w for _, w in barriers) + math.fsum(gaps)
        assert total == pytest.approx(spec.L, abs=1e-10 * spec.L)


class TestMaxValidStage:
    def test_negative_beta_bound(self):
        assert max_valid_stage(2, -0.1) == 19

    @given(exponent_pairs)
    @settings(max_examples=300)
    def test_equals_the_stage_loop(self, ab):
        assert max_valid_stage(*ab) == stage_loop_bound(*ab)

    @pytest.mark.parametrize("alpha, beta", [(1.0, -1e-6), (0.3, -3e-7), (7.0, -7e-6)])
    def test_equals_the_stage_loop_near_a_million(self, alpha, beta):
        bound = max_valid_stage(alpha, beta)
        assert 1e5 < bound <= 1e6
        assert bound == stage_loop_bound(alpha, beta)

    def test_far_bound_is_found_at_once(self):
        # the stage loop takes about two minutes to count this far
        start = time.perf_counter()
        assert max_valid_stage(1e5, -1e-4) == 999999999
        assert time.perf_counter() - start < 1.0

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_never_hangs_or_raises_for_finite_exponents(self, alpha, beta):
        if alpha == 0.0 and beta == 0.0:
            return
        bound = max_valid_stage(alpha, beta)
        if bound:  # the last valid stage: valid, and the next one not (or past a double)
            assert alpha + beta * bound > 0.0
            largest = int(sys.float_info.max)
            assert bound == largest or not alpha + beta * (bound + 1) > 0.0

    def test_bound_past_the_largest_double(self):
        # alpha + beta*g stays positive at every g a double holds
        assert max_valid_stage(1.0, -5e-324) == int(sys.float_info.max)

    def test_cantor_unbounded(self):
        assert max_valid_stage(1, 0) is None

    def test_negative_alpha_unbounded(self):
        assert max_valid_stage(-1 / 15, 2) is None

    def test_no_valid_stage(self):
        assert max_valid_stage(-3, 1) == 0
        assert max_valid_stage(0.5, -1) == 0

    def test_rejects_double_zero(self):
        with pytest.raises(InvalidSpecError):
            max_valid_stage(0, 0)

    # NaN passed as unbounded or as a bound of 1, and inf gave a 309-digit bound
    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 1.0), (1.0, math.nan), (math.nan, -1.0), (math.inf, -1.0), (1.0, -math.inf),
    ])
    def test_rejects_non_finite_exponents(self, alpha, beta):
        with pytest.raises(InvalidSpecError) as exc:
            max_valid_stage(alpha, beta)
        assert str(exc.value) == f"alpha and beta must be finite, got {alpha}, {beta}"
