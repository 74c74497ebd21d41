"""Scalar special-function kernel: the q-Pochhammer product.

It is pure and stateless.  No module of the package calls it: the geometry
lengths come from the module's top-down width chain, and the product is the
tests' reference for that chain.  The module stays only because
perfbench/tracer.py imports it as a layer (LAYERS), until the benchmark
drops that layer.
"""

from __future__ import annotations

__all__ = ["q_pochhammer"]

_NO_MOVE = 2.0**-54  # 1 - x rounds to 1 for every |x| <= this


def q_pochhammer(mu: float, nu: float, p: int) -> float:
    """Finite q-Pochhammer product (mu; nu)_p = prod_{j=0}^{p-1} (1 - mu nu^j).

    The empty product (p = 0) is 1.  The loop stops once the product is 0:
    every true factor is finite, so the product stays 0 (running on, a factor
    mu nu^j that overflows for |nu| > 1 would turn it into 0 * inf = NaN).
    For |nu| <= 1 no later factor is larger than the current one, so it also
    stops once the factor can no longer move the product (|mu nu^j| <= 2**-54
    rounds 1 - mu nu^j to 1): the result is settled in O(1) steps at any p.
    """
    if p < 0:
        raise ValueError(f"q_pochhammer: p must be >= 0, got {p}")
    result = 1.0
    factor = mu
    for _ in range(p):
        if result == 0.0 or (abs(nu) <= 1.0 and abs(factor) <= _NO_MOVE):
            break
        result *= 1.0 - factor
        factor *= nu
    return result
