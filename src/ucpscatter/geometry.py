"""Geometry of the unified Cantor barrier family.

A stage-G system is built from a slab of span L by removing, at every stage
g = 1..G, the middle fraction rho**-(alpha + beta*g) of each remaining
segment.  alpha=1, beta=0 reproduces the general Cantor set; alpha=0, beta=1
the general Smith-Volterra-Cantor set.

This module provides the segment/gap/spacing lengths, the width table of
each spec that the closed form reads, and the explicit interval list.  The
removal rule is applied top-down in one place, _width_table, for many specs
at once, given as parameter columns: the closed form calls it on the columns
of all its specs, and UcpSpec.width_chain, the one-column table cached on
the spec, serves the length functions, build_segments, the oracle's region
list and the closed form's one-point call.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "InvalidSpecError",
    "OracleInfeasibleError",
    "DEFAULT_STAGE_CAP",
    "UcpSpec",
    "segment_length",
    "gap_length",
    "super_period",
    "build_segments",
    "max_valid_stage",
]


DEFAULT_STAGE_CAP = 16  # the largest stage whose 2**G barriers build_segments lists
_LARGEST_STAGE = int(sys.float_info.max)  # beta * g needs g as a double: past it, g fails
# every width is 0 from this stage on: each stage at least halves a width, and
# the widest chain, L = DBL_MAX halved exactly, reaches 0 at stage 2099
_STAGE_CAP = 2099


class InvalidSpecError(ValueError):
    """Raised when a potential specification violates a well-formedness rule."""


class OracleInfeasibleError(RuntimeError):
    """Raised when the requested stage has too many barriers to enumerate."""


# the dtype kinds read as integers (bool, signed and unsigned integer) and as reals
_INTEGER_KINDS = "biu"
_REAL_KINDS = _INTEGER_KINDS + "f"


def _real(value, name: str) -> float:
    """The number argument name as a float: a bool, a Python int that fits a
    double, a float, or a numpy scalar or 0-d array of a kind in _REAL_KINDS.
    Anything else raises InvalidSpecError: a string (not parsed), None, a
    complex, a Fraction or Decimal, a list or an array among them."""
    if type(value) is float:
        return value
    if isinstance(value, (int, float)) or (isinstance(value, (np.generic, np.ndarray))
                                           and value.ndim == 0
                                           and value.dtype.kind in _REAL_KINDS):
        try:
            return float(value)
        except OverflowError:  # an int past the largest double
            raise InvalidSpecError(f"{name} must fit a double") from None
    raise InvalidSpecError(f"{name} must be a real number, got {type(value).__name__}")


def _integer(value, name: str) -> int:
    """The integer argument name as an int: a bool, an int, or a numpy scalar
    or 0-d array of a kind in _INTEGER_KINDS.  Anything else (2.0 too) raises
    InvalidSpecError: one line that names it and shows the value's repr."""
    if isinstance(value, int) or (isinstance(value, (np.generic, np.ndarray))
                                  and value.ndim == 0 and value.dtype.kind in _INTEGER_KINDS):
        return int(value)
    raise InvalidSpecError(f"{name} must be an integer, got {' '.join(repr(value).split())}")


def _spec(value, name: str = "spec") -> UcpSpec:
    """The spec argument name, which must be a UcpSpec: anything else raises
    InvalidSpecError, one line that names it and the value's type."""
    if isinstance(value, UcpSpec):
        return value
    raise InvalidSpecError(f"{name} must be a UcpSpec, got {type(value).__name__}")


class _WidthTable(NamedTuple):
    widths: np.ndarray  # widths[g, i] = w_g of column i
    gaps: np.ndarray  # gaps[g-1, i] = d_g of column i
    stages: np.ndarray  # stages[i]: column i's chain is widths[:stages[i] + 1, i]


def _width_table(L: np.ndarray, rho: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                 G: Sequence[int]) -> _WidthTable:
    """The removal rule, top-down, for the valid specs given as columns:
    every stage-g barrier has the width w_g = w_{g-1} (1 - rho**-(alpha +
    beta*g)) / 2 formed from its parent's (w_0 = L), and the gap opened in it
    is d_g = w_{g-1} rho**-(alpha + beta*g).  Every length reads this table.
    A column's stage count is its G or the first stage whose width is 0,
    whichever comes first: every later length is 0 too.  No stage past
    _STAGE_CAP is built, at any G.

    The fractions come from Python's ** (operator.pow), through one map:
    numpy's power differs from it in the last bit on some arguments.  Past a
    column's own G its exponents are 0, so no power overflows, and its widths
    there are 0.
    """
    L, rho, alpha, beta = map(np.asarray, (L, rho, alpha, beta))
    caps = [min(g, _STAGE_CAP) for g in G]
    g = np.arange(1.0, max(caps, default=0) + 1.0)[:, None]
    stages = np.array(caps, dtype=np.int64)
    with np.errstate(over="ignore"):  # beta * g overflows to +-inf, as in Python
        exponents = np.where(g > stages, 0.0, -(alpha + beta * g))
    fractions = np.fromiter(map(operator.pow, rho.tolist() * g.size, exponents.ravel().tolist()),
                            float, exponents.size).reshape(exponents.shape)
    # w_g = w_{g-1} (1 - f_g) / 2 at every stage, as one running product of
    # L, 1 - f_1, 1/2, 1 - f_2, 1/2, ..., whose steps round as the recursion's
    factors = np.empty((2 * g.size + 1, L.size))
    factors[0], factors[1::2], factors[2::2] = L, 1.0 - fractions, 0.5
    widths = np.multiply.accumulate(factors, axis=0)[::2]
    # a width that is 0 stays 0, so the first zero follows the nonzero ones
    stages = np.minimum(stages, np.add.reduce(widths[1:] != 0.0, axis=0) + 1)
    return _WidthTable(widths, widths[:-1] * fractions, stages)


@dataclass(frozen=True)
class UcpSpec:
    """Five-parameter barrier definition plus recursion stage.

    L     -- total span (natural units, hbar = 1, 2m = 1)
    V     -- barrier height (energy, natural units)
    rho   -- scaling parameter, > 1
    alpha -- removal exponent offset
    beta  -- removal exponent slope
    G     -- stage (recursion depth), >= 0

    It holds what it read: L, V, rho, alpha and beta as floats (see _real)
    and G as an int (see _integer), so UcpSpec(L=5, ...).L is 5.0.
    """

    L: float
    V: float
    rho: float
    alpha: float
    beta: float
    G: int

    def __post_init__(self) -> None:
        L, V, rho = _real(self.L, "L"), _real(self.V, "V"), _real(self.rho, "rho")
        if not 0.0 < L < math.inf:
            raise InvalidSpecError(f"L must be positive and finite, got {self.L}")
        if not math.isfinite(V):
            raise InvalidSpecError(f"V must be finite, got {self.V}")
        if not 1.0 < rho < math.inf:
            raise InvalidSpecError(f"rho must be > 1, got {self.rho}")
        alpha, beta = _real(self.alpha, "alpha"), _real(self.beta, "beta")
        bound = max_valid_stage(alpha, beta)  # rejects non-finite and 0, 0 before G is read
        G = _integer(self.G, "G")
        if G < 0:
            raise InvalidSpecError(f"G must be a non-negative integer, got {self.G!r}")
        if bound is not None and G > bound:
            raise InvalidSpecError(f"alpha + beta*G <= 0 at stage g={bound + 1} "
                                   f"(alpha={self.alpha}, beta={self.beta}): "
                                   "the removal fraction reaches 1 and the geometry degenerates")
        vars(self).update(L=L, V=V, rho=rho, alpha=alpha, beta=beta, G=G)  # frozen: no setattr

    @cached_property
    def width_chain(self) -> _WidthTable:
        """This spec's one-column _width_table, once per spec object, on first
        use (not a field: ==, hash and repr do not see it).  Its stage count
        stops at the first w_g that underflows to 0, every w_g and d_g past it
        is +0.0, and no row past _STAGE_CAP is built, at any G."""
        return _width_table([self.L], [self.rho], [self.alpha], [self.beta], [self.G])


def _check_stage(spec: UcpSpec, g: int, lowest: int = 0) -> int:
    """The stage index g as an int in [lowest, spec.G]."""
    g = _integer(g, "stage index")
    if not (lowest <= g <= spec.G):
        raise InvalidSpecError(f"stage index {g} outside [{lowest}, {spec.G}]")
    return g


def segment_length(spec: UcpSpec, g: int) -> float:
    """Length l_g = w_g of each of the 2**g barrier segments at stage g,
    (L / 2**g) * prod_{j=1..g} (1 - rho**-(alpha + beta*j))."""
    spec, g = _spec(spec), _check_stage(spec, g)
    widths = spec.width_chain.widths
    return float(widths[g, 0]) if g < len(widths) else 0.0


def gap_length(spec: UcpSpec, g: int) -> float:
    """Gap d_g opened at stage g: l_{g-1} * rho**-(alpha + beta*g)."""
    spec, g = _spec(spec), _check_stage(spec, g, lowest=1)
    gaps = spec.width_chain.gaps
    return float(gaps[g - 1, 0]) if g <= len(gaps) else 0.0


def super_period(spec: UcpSpec, f: int) -> float:
    """Periodic spacing s_f of the order-f repetition, f = 1..G.

    s_f = (L / 2**(G+1-f)) * (1 + rho**-(alpha + beta*(G+1-f)))
          * prod_{j=1..G-f} (1 - rho**-(alpha + beta*j)),
    taken as l_m + d_m with m = G+1-f.
    """
    spec = _spec(spec)
    m = spec.G + 1 - _check_stage(spec, f, lowest=1)
    return segment_length(spec, m) + gap_length(spec, m)


def _listed_widths(spec: UcpSpec) -> tuple[float, ...]:
    """w_0..w_G for listing every barrier.  Raises OracleInfeasibleError, the
    cap on listing every barrier, for G above it, before anything is listed.
    """
    if spec.G > DEFAULT_STAGE_CAP:
        raise OracleInfeasibleError(f"infeasible: stage G={spec.G} exceeds the cap "
                                    f"{DEFAULT_STAGE_CAP} for listing every barrier")
    return tuple(spec.width_chain.widths[:, 0].tolist())


def build_segments(spec: UcpSpec) -> tuple[tuple[float, float], ...]:
    """Explicit interval list of the stage-G system: the (offset, width) of
    every barrier in order, pairwise disjoint inside [0, L] and
    mirror-symmetric about L/2.

    Built top-down from the spec's width chain, the one the closed form
    reads: at stage g each interval at offset off splits into ones at
    off and off + w_{g-1} - w_g.  Raises OracleInfeasibleError, before
    anything is allocated, for G above DEFAULT_STAGE_CAP, and ValueError
    where an offset overflows a double (off + w_{g-1} can, for L near the
    largest double).
    """
    widths = _listed_widths(_spec(spec))
    offsets = [0.0]
    for w, child in zip(widths, widths[1:]):
        offsets = [x for off in offsets for x in (off, off + w - child)]
    if not all(map(math.isfinite, offsets)):
        raise ValueError(f"barrier offsets overflow a double at L={spec.L}")
    return tuple((off, widths[-1]) for off in offsets)


def max_valid_stage(alpha: float, beta: float) -> int | None:
    """Largest stage G with alpha + beta*g > 0 for every g = 1..G.

    Returns None when unbounded (beta >= 0 with alpha + beta > 0) and 0 when
    even stage 1 is impossible.  alpha + beta*g falls with g, in floating
    point too: galloping and bisection find the bound in O(log G) steps.
    Raises InvalidSpecError when either is not a number (see _real) or not
    finite (every comparison with NaN is false, so a NaN would pass as
    unbounded), or when both are 0.  It searches on their doubles, whatever
    their type, as the width table forms its exponents.
    """
    alpha, beta = _real(alpha, "alpha"), _real(beta, "beta")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise InvalidSpecError(f"alpha and beta must be finite, got {alpha}, {beta}")
    if alpha == 0.0 and beta == 0.0:
        raise InvalidSpecError("alpha and beta cannot both be zero")
    if alpha + beta <= 0.0:
        return 0
    if beta >= 0.0:
        return None
    valid, failing = 1, 2
    while failing <= _LARGEST_STAGE and alpha + beta * failing > 0.0:
        valid, failing = failing, 2 * failing
    failing = min(failing, _LARGEST_STAGE + 1)
    while failing - valid > 1:
        mid = (valid + failing) // 2
        valid, failing = (mid, failing) if alpha + beta * mid > 0.0 else (valid, mid)
    return valid
