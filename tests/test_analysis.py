import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucpscatter import (
    UcpSpec,
    constant_area_height,
    fit_scaling,
    reflection_asymptote,
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
            vals = []
            for k in ks:
                exact = transmission_ucp(scaled, float(k)).reflection
                vals.append(reflection_asymptote(spec, v0, float(k)) / exact)
            return float(np.median(vals))

        low, high = median_ratio(90.0, 130.0), median_ratio(350.0, 500.0)
        assert low == pytest.approx(1.0, abs=0.01)
        assert high == pytest.approx(1.0, abs=0.01)

    def test_holds_past_stage_512(self):
        # 4.0**G overflowed a double from G = 512
        spec = UcpSpec(L=1, V=1, rho=2.5, alpha=0.5, beta=1, G=600)
        v_g = constant_area_height(spec, 10.0)
        scaled = dataclasses.replace(spec, V=v_g)
        ks = np.logspace(math.log10(3.0), math.log10(30.0), 5) * math.sqrt(10.0 * v_g)
        for k, exact in zip(ks.tolist(), transmission_ucp_arrays([scaled], ks)[1][0].tolist()):
            assert reflection_asymptote(spec, 10.0, k) == pytest.approx(exact, rel=1e-4, abs=0)

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
    def _stages(beta, g_values, rho=2.5, alpha=0.5, L=5.0, V=25.0):
        return [
            UcpSpec(L=L, V=V, rho=rho, alpha=alpha, beta=beta, G=g)
            for g in g_values
        ]

    def test_metrics_shrink_with_stage(self):
        ks = np.linspace(0.5, 10.0, 60)
        report = saturation_scan(self._stages(1.0, range(4, 9)), ks)
        assert report.stages == (4, 5, 6, 7)
        assert all(a > b for a, b in zip(report.metrics, report.metrics[1:]))

    def test_faster_decay_for_larger_beta(self):
        ks = np.linspace(0.5, 10.0, 60)
        slow = saturation_scan(self._stages(1.0, (6, 7)), ks)
        fast = saturation_scan(self._stages(2.0, (6, 7)), ks)
        assert fast.metrics[0] < slow.metrics[0]

    def test_metric_matches_direct_computation(self):
        ks = [0.75, 1.5, 3.0]
        specs = self._stages(1.0, (2, 3))
        report = saturation_scan(specs, ks)
        direct = max(
            abs(
                transmission_ucp(specs[0], k).log10_transmission
                - transmission_ucp(specs[1], k).log10_transmission
            )
            for k in ks
        )
        assert report.metrics[0] == pytest.approx(direct, rel=1e-14, abs=0)

    def test_rejects_mismatched_parameters(self):
        a = UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=1)
        b = UcpSpec(L=2, V=1, rho=3, alpha=1, beta=0, G=2)
        with pytest.raises(ValueError, match="share"):
            saturation_scan([a, b], [1.0])

    def test_rejects_nonconsecutive_stages(self):
        specs = self._stages(1.0, (2, 4))
        with pytest.raises(ValueError, match="consecutive"):
            saturation_scan(specs, [1.0])

    @pytest.mark.filterwarnings("error")
    def test_rejects_empty_k_grid(self):
        with pytest.raises(ValueError, match="at least one k"):
            saturation_scan(self._stages(1.0, (2, 3)), [])

    def test_rejects_single_spec(self):
        with pytest.raises(ValueError):
            saturation_scan(self._stages(1.0, (3,)), [1.0])
