"""The batch forms of both engines: every point equals its one-point call, and
the results stay physical over the whole range the closed form accepts."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from ucpscatter import (
    UcpSpec,
    transmission_oracle,
    transmission_oracle_batch,
    transmission_ucp,
    transmission_ucp_batch,
)


def specs(max_stage, max_span=400.0):
    return st.builds(
        UcpSpec,
        L=st.floats(0.01, max_span),
        V=st.floats(-1e3, 3e4),
        rho=st.floats(1.2, 6),
        alpha=st.floats(0.1, 3),
        beta=st.floats(0.0, 2),
        G=st.integers(0, max_stage),
    )


wavenumbers = st.floats(1e-3, 1e5)


def one_point_or_none(engine, spec, k):
    """engine(spec, k), or None for the documented opaque-barrier ValueError."""
    try:
        return engine(spec, k)
    except ValueError as exc:
        assert "too opaque" in str(exc)
        return None


@given(st.lists(st.tuples(specs(64), wavenumbers), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_closed_form_batch_equals_one_point_calls(points):
    # mixed stages, and rescaled points next to unscaled ones: no cross-talk
    single = [(spec, k, one_point_or_none(transmission_ucp, spec, k)) for spec, k in points]
    kept = [(spec, k, res) for spec, k, res in single if res is not None]
    assume(kept)
    specs_, ks, want = zip(*kept)
    assert transmission_ucp_batch(specs_, ks) == list(want)


@given(specs(64), st.lists(wavenumbers, min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_closed_form_batch_is_physical(spec, ks):
    try:
        results = transmission_ucp_batch([spec] * len(ks), ks)
    except ValueError as exc:
        assert "too opaque" in str(exc)
        assume(False)
    for res in results:
        assert 0.0 <= res.transmission <= 1.0 and 0.0 <= res.reflection <= 1.0
        assert abs(res.transmission + res.reflection - 1.0) <= 2.0**-52
        assert math.isfinite(res.log10_transmission)


# L <= 20, the range this property has run over since before the oracle formed
# each region width from its parent's; test_oracle.py pins a k L ~ 3e4 case.
# Widening it waits on the oracle's NaN for barriers near the opaque limit
# (see the FOUND line on it in CHANGES.md)
@given(specs(10, max_span=20.0), st.lists(wavenumbers, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_oracle_batch_equals_one_point_calls_and_the_closed_form(spec, ks):
    single = [one_point_or_none(transmission_oracle, spec, k) for k in ks]
    assume(None not in single)
    assert transmission_oracle_batch(spec, ks) == single
    closed = transmission_ucp_batch([spec] * len(ks), ks)
    for a, b in zip(closed, single):
        assert abs(a.log10_transmission - b.log10_transmission) <= 1e-9


def test_opaque_point_raises():
    thin = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4)
    thick = UcpSpec(L=400, V=400, rho=3, alpha=3, beta=0, G=0)
    with pytest.raises(ValueError, match="too opaque"):
        transmission_ucp_batch([thin, thick], [1.0, 1.0])
    with pytest.raises(ValueError, match="too opaque"):
        transmission_oracle_batch(thick, [2.0, 1.0])


def test_lengths_must_match():
    spec = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4)
    with pytest.raises(ValueError, match="must match"):
        transmission_ucp_batch([spec, spec], [1.0])


def test_empty_batches():
    spec = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4)
    assert transmission_ucp_batch([], []) == []
    assert transmission_oracle_batch(spec, []) == []


def test_rescaled_block_keeps_its_digits():
    # the block's largest entry (C/k) exceeds its trace by about kappa/k, so each
    # doubling shrinks the rescaled block; it used to underflow to 0 and give T = 1
    spec = UcpSpec(L=348.8892060834421, V=28908.01408952389, rho=3.495385853076268,
                   alpha=2.076663960831114, beta=0.7902933126834937, G=7)
    # a 60-digit product over the exact self-similar geometry
    res = transmission_ucp(spec, 0.0033897316930988656)
    assert res.log10_transmission == pytest.approx(-49346.58232556531, abs=1e-9)
    assert transmission_oracle(spec, 0.0033897316930988656).log10_transmission == pytest.approx(
        res.log10_transmission, abs=1e-9)
