import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucpscatter import (
    UcpSpec,
    constant_area_height,
    fit_scaling,
    max_valid_stage,
    reflection_asymptote,
    reflection_asymptote_arrays,
    saturation_scan,
    segment_length,
    transmission_ucp,
    transmission_ucp_arrays,
)
from ucpscatter.analysis import _MEDIAN_WINDOW, _rolling_median


specs_any = st.builds(
    UcpSpec,
    L=st.floats(0.5, 20),
    V=st.floats(0.0, 50),
    rho=st.floats(1.2, 6),
    alpha=st.floats(0.1, 2),
    beta=st.floats(0.0, 2),
    G=st.integers(0, 10),
)


class TestConstantAreaHeight:
    def test_stage_zero_is_v0(self):
        spec = UcpSpec(L=3, V=1, rho=3, alpha=1, beta=0, G=0)
        assert constant_area_height(spec, 7.5) == pytest.approx(7.5, rel=1e-14, abs=0)

    def test_standard_cantor_growth(self):
        # 2^G barriers of width L/3^G: V_G = V0 * (3/2)^G
        for G in range(7):
            spec = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=G)
            assert constant_area_height(spec, 2.0) == pytest.approx(
                2.0 * 1.5**G, rel=1e-12, abs=0
            )

    def test_svc_example(self):
        # rho=4, G=2: 4 barriers of width 45/256 -> V_2 = V0 * 256/180
        spec = UcpSpec(L=1, V=1, rho=4, alpha=0, beta=1, G=2)
        assert constant_area_height(spec, 10.0) == pytest.approx(
            2560 / 180, rel=1e-13, abs=0
        )

    def test_rejects_nonpositive_v0(self):
        spec = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=1)
        with pytest.raises(ValueError):
            constant_area_height(spec, 0.0)

    def test_height_past_a_double_is_refused(self):
        spec = UcpSpec(L=5, V=25, rho=2.5, alpha=0.5, beta=1, G=3)
        with pytest.raises(ValueError, match="overflows a double"):
            constant_area_height(spec, math.inf)

    def test_deep_stage_without_a_barrier_width_is_refused(self):
        # l_G = 3**-800 and l_G of the G = 1100 SVC stage are 0 in a double
        for spec in (UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=800),
                     UcpSpec(L=1, V=1, rho=3, alpha=0, beta=1, G=1100)):
            with pytest.raises(ValueError, match="underflows"):
                constant_area_height(spec, 10.0)

    def test_area_is_conserved_past_stage_512(self):
        spec = UcpSpec(L=1, V=1, rho=2.5, alpha=0.5, beta=1, G=600)
        area = math.ldexp(segment_length(spec, spec.G), spec.G) * constant_area_height(spec, 10.0)
        assert area == pytest.approx(10.0, rel=1e-12, abs=0)

    @given(specs_any, st.floats(0.01, 50))
    @settings(max_examples=100)
    def test_area_is_conserved(self, spec, v0):
        v_g = constant_area_height(spec, v0)
        area = 2.0**spec.G * segment_length(spec, spec.G) * v_g
        assert area == pytest.approx(spec.L * v0, rel=1e-12, abs=0)


class TestReflectionAsymptote:
    def test_ratio_approaches_one(self):
        # pointwise ratios spike at transmission resonances, so compare the
        # median ratio over k-bands instead of individual wavenumbers
        # deep stage keeps kappa*l_G small across the whole window, so the
        # only approximation error left is the Born one, which shrinks as
        # V_G / k^2
        spec = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=8)
        v0 = 25.0
        scaled = dataclasses.replace(spec, V=constant_area_height(spec, v0))

        def median_ratio(k_lo, k_hi):
            ks = np.logspace(math.log10(k_lo), math.log10(k_hi), 101)
            exact = transmission_ucp_arrays([scaled], ks)[1][0]
            return float(np.median(reflection_asymptote_arrays(spec, v0, ks) / exact))

        low, high = median_ratio(90.0, 130.0), median_ratio(350.0, 500.0)
        assert low == pytest.approx(1.0, abs=0.01)
        assert high == pytest.approx(1.0, abs=0.01)

    def test_holds_past_stage_512(self):
        # 4.0**G overflowed a double from G = 512
        spec = UcpSpec(L=1, V=1, rho=2.5, alpha=0.5, beta=1, G=600)
        v_g = constant_area_height(spec, 10.0)
        scaled = dataclasses.replace(spec, V=v_g)
        ks = np.logspace(math.log10(3.0), math.log10(30.0), 5) * math.sqrt(10.0 * v_g)
        exact = transmission_ucp_arrays([scaled], ks)[1][0].tolist()
        assert reflection_asymptote_arrays(spec, 10.0, ks).tolist() == pytest.approx(
            exact, rel=1e-4, abs=0)

    def test_guard_violation(self):
        spec = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=5)
        with pytest.raises(ValueError, match="guard"):
            reflection_asymptote(spec, 25.0, 2.0)

    @pytest.mark.parametrize("k", [0.0, -0.0, -5.0, math.nan, math.inf])
    def test_rejects_a_bad_wavenumber_first(self, k):
        # k is checked before V_G / k**2: +-0 divides by zero, and -5 passes as its square
        spec = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=5)
        with pytest.raises(ValueError, match="wavenumber k must be positive and finite"):
            reflection_asymptote(spec, 25.0, k)

    def test_v0_is_checked_before_k(self):
        # as every arrays entry, it reads the arguments other than k first
        spec = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=5)
        with pytest.raises(ValueError, match=r"^V0 must be positive, got -1.0$"):
            reflection_asymptote(spec, -1.0, -5.0)

    @pytest.mark.parametrize("spec, V0, k, message", [
        # k * k underflows to 0: the guard divided by it
        (UcpSpec(L=10, V=25, rho=3, alpha=1, beta=0, G=4), 1.0, 1e-300,
         r"guard violated: V_G/k\^2 = inf >= 0.1$"),
        # (V_G l_G / 2)**2 = (5e291)**2 overflows: ** raised OverflowError
        (UcpSpec(L=1e300, V=25, rho=3, alpha=1, beta=0, G=0), 1e-8, 1.0,
         r"overflows a double at G=0$"),
        # (V_G l_G / 2)**2 fits, but not once divided by k**2: inf was returned
        (UcpSpec(L=1e160, V=25, rho=3, alpha=1, beta=0, G=0), 1e-8, 1e-3,
         r"overflows a double at G=0$"),
    ], ids=["k-squared-underflows", "square-overflows", "asymptote-overflows"])
    def test_a_result_past_a_double_is_refused_with_one_line(self, spec, V0, k, message):
        with pytest.raises(ValueError, match=message) as refused:
            reflection_asymptote(spec, V0, k)
        assert "\n" not in str(refused.value)

    @pytest.mark.parametrize("k", [np.array(300.0), np.float32(300.0), 300])
    def test_any_real_scalar_k_gives_the_float_ks_value(self, k):
        spec = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=5)
        assert reflection_asymptote(spec, 25.0, k) == reflection_asymptote(spec, 25.0, 300.0)

    def test_a_numpy_integer_stage_gives_the_int_stages_values(self):
        # math.ldexp takes a Python int only: G = np.int64(5) raised TypeError
        spec = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=5)
        typed = dataclasses.replace(spec, G=np.int64(5))
        assert constant_area_height(typed, 25.0) == constant_area_height(spec, 25.0)
        assert reflection_asymptote(typed, 25.0, 300.0) == reflection_asymptote(spec, 25.0, 300.0)
        window = (50.0, 500.0)
        assert fit_scaling(typed, 10.0, window, 60) == fit_scaling(spec, 10.0, window, 60)

    def test_single_barrier_closed_form(self):
        # G=0: asymptote reduces to (V0 L / (2k))^2 with a cos^2 Bloch-free
        # prefactor absent -> (V0 l0 / 2)^2 / k^2
        spec = UcpSpec(L=2, V=1, rho=3, alpha=1, beta=0, G=0)
        k = 40.0
        assert reflection_asymptote(spec, 5.0, k) == pytest.approx(
            (5.0 * 2.0 / 2.0) ** 2 / k**2, rel=1e-13, abs=0
        )


class TestFitScaling:
    def test_thin_barrier_born_slope(self):
        # a single barrier thin enough that k*L stays small over the window
        # reflects like c/k^2 almost exactly
        spec = UcpSpec(L=2e-4, V=1, rho=3, alpha=1, beta=0, G=0)
        fit = fit_scaling(spec, 4.0, (50.0, 500.0), n_points=400)
        assert fit.slope == pytest.approx(-2.0, abs=0.01)
        assert fit.r_squared > 0.999
        assert fit.n_used >= 300

    def test_thick_barrier_interference_slope(self):
        # once kappa*L >> 1 the sin^2 interference term averages in and the
        # single-barrier envelope steepens to k^-4
        spec = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=0)
        fit = fit_scaling(spec, 4.0, (50.0, 500.0), n_points=400)
        assert fit.slope == pytest.approx(-4.0, abs=0.2)

    def test_fractal_envelope_slope(self):
        spec = UcpSpec(L=1, V=1, rho=1.75, alpha=0.5, beta=0.25, G=5)
        fit = fit_scaling(spec, 25.0, (50.0, 500.0), n_points=600)
        assert fit.slope == pytest.approx(-2.0, abs=0.1)

    def test_bad_window_rejected(self):
        spec = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=2)
        with pytest.raises(ValueError):
            fit_scaling(spec, 1.0, (5.0, 2.0))
        with pytest.raises(ValueError):
            fit_scaling(spec, 1.0, (1.0, 2.0), n_points=10)

    def test_window_where_every_reflection_underflows_is_refused(self):
        # R falls as V_G**2 / k**4, and is 0 in a double at every k from 1e90 up
        spec = UcpSpec(L=5, V=25, rho=2.5, alpha=0.5, beta=1, G=3)
        with pytest.raises(ValueError, match="only 0 points survive"):
            fit_scaling(spec, 10.0, (1e90, 1e100), 50)

    @pytest.mark.parametrize("n_points", [100.0, 100.5, "100"])
    def test_non_integer_point_count_rejected(self, n_points):
        # np.logspace would raise its own TypeError
        spec = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=2)
        with pytest.raises(ValueError, match="integer"):
            fit_scaling(spec, 1.0, (50.0, 500.0), n_points)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("window", [(1.0, math.inf), (math.nan, 2.0), (1.0, math.nan)])
    def test_non_finite_window_rejected(self, window):
        spec = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=2)
        with pytest.raises(ValueError, match="kmax"):
            fit_scaling(spec, 1.0, window)

    def test_reports_window(self):
        spec = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=1)
        fit = fit_scaling(spec, 2.0, (60.0, 300.0), n_points=120)
        assert fit.k_window == (60.0, 300.0)
        assert fit.n_used <= 120


def rolling_median_loop(values, window):
    """The Python loop _rolling_median replaced: windows truncated at the ends."""
    half = window // 2
    out = np.empty_like(values)
    for i in range(len(values)):
        lo = max(0, i - half)
        hi = min(len(values), i + half + 1)
        out[i] = np.median(values[lo:hi])
    return out


class TestRollingMedian:
    @given(st.integers(0, 60), st.sampled_from([1, 2, 3, 4, 7, _MEDIAN_WINDOW]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_equals_the_loop(self, n, window, seed):
        # lengths below the window included: then every window is truncated
        rng = np.random.default_rng(seed)
        values = 10.0 ** rng.uniform(-12, 0, n)
        values[rng.random(n) < 0.2] = 0.5  # ties
        assert np.array_equal(_rolling_median(values, window), rolling_median_loop(values, window))


class TestSaturationScan:
    @staticmethod
    def _spec(beta, G, rho=2.5, alpha=0.5, L=5.0, V=25.0):
        return UcpSpec(L=L, V=V, rho=rho, alpha=alpha, beta=beta, G=G)

    def test_metrics_shrink_with_stage(self):
        ks = np.linspace(0.5, 10.0, 60)
        report = saturation_scan(self._spec(1.0, 8), 4, ks)
        assert report.stages == (4, 5, 6, 7)
        assert all(a > b for a, b in zip(report.metrics, report.metrics[1:]))

    def test_faster_decay_for_larger_beta(self):
        ks = np.linspace(0.5, 10.0, 60)
        slow = saturation_scan(self._spec(1.0, 7), 6, ks)
        fast = saturation_scan(self._spec(2.0, 7), 6, ks)
        assert fast.metrics[0] < slow.metrics[0]

    def test_metric_matches_direct_computation(self):
        ks = [0.75, 1.5, 3.0]
        spec = self._spec(1.0, 3)
        report = saturation_scan(spec, 2, ks)
        direct = max(
            abs(
                transmission_ucp(dataclasses.replace(spec, G=2), k).log10_transmission
                - transmission_ucp(spec, k).log10_transmission
            )
            for k in ks
        )
        assert report.metrics[0] == pytest.approx(direct, rel=1e-14, abs=0)

    @pytest.mark.filterwarnings("error")
    def test_rejects_empty_k_grid(self):
        with pytest.raises(ValueError, match="at least one k"):
            saturation_scan(self._spec(1.0, 3), 2, [])

    def test_rejects_single_spec(self):
        # gmin = G leaves one stage, nothing to compare it with
        with pytest.raises(ValueError, match="gmin"):
            saturation_scan(self._spec(1.0, 3), 3, [1.0])

    @pytest.mark.parametrize("gmin", [4, -1, 2.0, "1"])
    def test_rejects_a_gmin_outside_the_stages(self, gmin):
        # stages gmin..G must hold two: 0 <= gmin < G, an integer; a string shows as one
        with pytest.raises(ValueError, match="gmin") as info:
            saturation_scan(self._spec(1.0, 3), gmin, [1.0])
        assert str(info.value).endswith(f"got {gmin!r}")


def old_saturation_metrics(spec, gmin, ks):
    """The scan as one spec per stage gmin..spec.G through transmission_ucp_arrays:
    the consecutive differences of log10 T, each row's largest."""
    stages = [dataclasses.replace(spec, G=g) for g in range(gmin, spec.G + 1)]
    profiles = transmission_ucp_arrays(stages, ks)[2]
    return np.abs(np.diff(profiles, axis=0)).max(axis=1)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@st.composite
def saturation_cases(draw):
    """A spec of one of the five families, or with beta < 0 at a stage up to its
    bound, at G <= 40, a gmin below G and a few k."""
    alpha, beta = draw(st.one_of(
        st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.5, 1.0), (0.5, 2.0)]),
        st.tuples(st.floats(0.5, 2.0), st.floats(-0.2, -1e-3))))
    bound = max_valid_stage(alpha, beta)
    G = draw(st.integers(1, 40 if bound is None else min(40, bound)))
    spec = UcpSpec(L=draw(st.floats(0.5, 20)), V=draw(st.floats(-50, 50)),
                   rho=draw(st.floats(1.2, 6)), alpha=alpha, beta=beta, G=G)
    ks = draw(st.lists(st.floats(0.05, 20), min_size=1, max_size=8))
    return spec, draw(st.integers(0, G - 1)), ks


@given(saturation_cases())
@settings(max_examples=150, deadline=None)
def test_saturation_scan_is_the_scan_of_one_spec_per_stage_bit_for_bit(case):
    spec, gmin, ks = case
    report = saturation_scan(spec, gmin, ks)
    assert report.stages == tuple(range(gmin, spec.G))
    assert np.array_equal(bits(report.metrics), bits(old_saturation_metrics(spec, gmin, ks)))


@pytest.mark.parametrize("gmin, gmax", [(3, 1077), (3, 1200), (1076, 1078), (1100, 1200),
                                        (3000, 3001), (2**63 - 1, 2**63), (10**23, 10**23 + 1)])
def test_a_scan_past_the_first_zero_width_raises_the_same_first_error(gmin, gmax):
    # l_g underflows to 0 first at g = 1077 here: gmin below, at and past it, past
    # the last stage any width table builds (2099), and past an int64 (which
    # ended in an IndexError)
    spec = UcpSpec(L=5.0, V=25.0, rho=2.5, alpha=0.5, beta=1.0, G=gmax)
    assert spec.width_chain.stages.tolist() == [1077]
    ks = np.linspace(0.5, 10.0, 10)
    with pytest.raises(ValueError) as old:
        old_saturation_metrics(spec, gmin, ks)
    with pytest.raises(ValueError) as new:
        saturation_scan(spec, gmin, ks)
    assert str(new.value) == str(old.value) == "barrier width must be positive, got 0.0"
