import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from paper import chebyshev_u
from ucpscatter import q_pochhammer


class TestChebyshevU:
    # U_n is the paper's Chebyshev factor; it lives with the paper's generic
    # recursion in tests/paper.py, the reference for transmission_spp

    def test_u0_is_one(self):
        assert chebyshev_u(0, 0.37) == 1.0

    def test_u1_is_2x(self):
        assert chebyshev_u(1, 0.5) == 1.0
        assert chebyshev_u(1, -2.3) == pytest.approx(-4.6)

    def test_u2(self):
        # U_2(x) = 4x^2 - 1
        assert chebyshev_u(2, 2.0) == 15.0

    def test_seed(self):
        assert chebyshev_u(-1, 123.4) == 0.0

    def test_rejects_below_minus_one(self):
        with pytest.raises(ValueError):
            chebyshev_u(-2, 0.0)

    @given(st.floats(-3, 3), st.integers(1, 30))
    def test_recurrence_consistency(self, x, n):
        lhs = chebyshev_u(n + 1, x) - 2 * x * chebyshev_u(n, x) + chebyshev_u(n - 1, x)
        scale = max(1.0, abs(chebyshev_u(n + 1, x)))
        assert abs(lhs) <= 1e-10 * scale

    @given(st.floats(0.1, math.pi - 0.1), st.integers(0, 20))
    def test_trig_identity(self, theta, n):
        x = math.cos(theta)
        expected = math.sin((n + 1) * theta) / math.sin(theta)
        assert abs(chebyshev_u(n, x) - expected) <= 1e-9


class TestQPochhammer:
    def test_mu_zero(self):
        assert q_pochhammer(0.0, 0.5, 7) == 1.0

    def test_empty_product(self):
        assert q_pochhammer(0.9, 0.3, 0) == 1.0

    def test_third_ratio(self):
        # nu = 1 makes every factor (1 - 1/3)
        assert q_pochhammer(1 / 3, 1.0, 4) == pytest.approx((2 / 3) ** 4, rel=1e-14)

    def test_rejects_negative_p(self):
        with pytest.raises(ValueError):
            q_pochhammer(0.5, 0.5, -1)

    @given(
        st.floats(-0.99, 0.99),
        st.floats(0.01, 0.99),
        st.integers(1, 40),
    )
    def test_recursion_property(self, mu, nu, p):
        lhs = q_pochhammer(mu, nu, p)
        rhs = (1.0 - mu) * q_pochhammer(mu * nu, nu, p - 1)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def pochhammer_loop(mu, nu, p):
    """(mu; nu)_p one factor per step, to the end."""
    result, factor = 1.0, mu
    for _ in range(p):
        result *= 1.0 - factor
        factor *= nu
    return result


class TestPochhammerEarlyStop:
    @given(st.floats(-2, 2), st.floats(-1.5, 1.5), st.integers(0, 3000))
    @settings(max_examples=200)
    def test_same_bits_as_every_step(self, mu, nu, p):
        assert q_pochhammer(mu, nu, p) == pochhammer_loop(mu, nu, p)

    def test_settled_products_return_at_once(self):
        start = time.perf_counter()
        assert q_pochhammer(0.5, 1.0, 10**12) == 0.0  # the product underflows to 0
        assert q_pochhammer(0.5, 0.5, 10**12) == q_pochhammer(0.5, 0.5, 100)  # 1 - factor is 1
        assert time.perf_counter() - start < 1.0
