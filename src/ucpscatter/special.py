"""Scalar special-function kernel: the q-Pochhammer product.

It is pure and stateless.  No module of the package calls it: the geometry
lengths come from the module's top-down width chain, and the product is the
tests' reference for that chain.
"""

from __future__ import annotations

__all__ = ["q_pochhammer"]

_NO_MOVE = 2.0**-54  # 1 - x rounds to 1 for every |x| <= this


def q_pochhammer(mu: float, nu: float, p: int) -> float:
    """Finite q-Pochhammer product (mu; nu)_p = prod_{j=0}^{p-1} (1 - mu nu^j).

    The empty product (p = 0) is 1.  For |nu| <= 1 no later factor is larger
    than the current one, so the loop stops once the factor can no longer move
    the product (|mu nu^j| <= 2**-54 rounds 1 - mu nu^j to 1) or the product
    is 0: the result is the same, in O(1) steps at any p where it settles.
    """
    if p < 0:
        raise ValueError(f"q_pochhammer: p must be >= 0, got {p}")
    result = 1.0
    factor = mu
    for _ in range(p):
        if abs(nu) <= 1.0 and (abs(factor) <= _NO_MOVE or (result == 0.0 and abs(factor) < 1.0)):
            break
        result *= 1.0 - factor
        factor *= nu
    return result
