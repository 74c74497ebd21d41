"""Scalar special-function kernel: the q-Pochhammer product.

It is pure and stateless; the closed-form segment and super-period lengths
of the geometry module build on it.
"""

from __future__ import annotations

__all__ = ["q_pochhammer"]


def q_pochhammer(mu: float, nu: float, p: int) -> float:
    """Finite q-Pochhammer product (mu; nu)_p = prod_{j=0}^{p-1} (1 - mu nu^j).

    The empty product (p = 0) is 1.
    """
    if p < 0:
        raise ValueError(f"q_pochhammer: p must be >= 0, got {p}")
    result = 1.0
    factor = mu
    for _ in range(p):
        result *= 1.0 - factor
        factor *= nu
    return result
