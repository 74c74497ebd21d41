"""The batch forms of both engines: every point equals its one-point call, and
the results stay physical over the whole range the closed form accepts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ucpscatter.scattering as scattering
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


@given(st.lists(specs(64), min_size=1, max_size=6), st.data())
@settings(max_examples=30, deadline=None)
def test_one_pass_at_any_mix_of_stages_equals_one_point_calls(pool, data):
    # up to 64 points in random order, repeated specs and G = 0 points among
    # them: each joins the doubling at its own stage
    pool.append(dataclasses.replace(pool[0], G=0))
    points = data.draw(st.lists(st.tuples(st.sampled_from(pool), wavenumbers),
                                min_size=1, max_size=64))
    single = [(spec, k, one_point_or_none(transmission_ucp, spec, k)) for spec, k in points]
    kept = [(spec, k, res) for spec, k, res in single if res is not None]
    assume(kept)
    specs_, ks, want = zip(*kept)
    assert transmission_ucp_batch(specs_, ks) == list(want)


DEEP_STAGES = range(16, 33)
DEEP_K = np.linspace(0.5, 10.0, 64)


def deep_batch():
    """The points of a saturation scan over stages 16..32 at 64 k, stage by stage."""
    stages = [UcpSpec(L=5, V=25, rho=3, alpha=0.5, beta=1, G=G) for G in DEEP_STAGES]
    return [s for s in stages for _ in DEEP_K], list(DEEP_K) * len(stages)


def test_deep_batch_equals_the_batches_of_its_stages():
    specs_, ks = deep_batch()
    n = len(DEEP_K)
    per_stage = [res for i in range(0, len(ks), n)
                 for res in transmission_ucp_batch(specs_[i:i + n], ks[i:i + n])]
    assert transmission_ucp_batch(specs_, ks) == per_stage


def test_deep_batch_is_one_doubling_pass(monkeypatch):
    # two block products per order over the highest stage's 32 orders; a pass
    # per stage took sum(2 G) = 816
    calls = []
    product = scattering._block_product

    def counted(x, y):
        calls.append(1)
        return product(x, y)

    monkeypatch.setattr(scattering, "_block_product", counted)
    transmission_ucp_batch(*deep_batch())
    assert len(calls) == 2 * max(DEEP_STAGES)


def test_points_are_checked_in_input_order():
    # the opaque G = 0 point comes first in the input; the bad k, at a higher
    # stage, joins the doubling first
    thin = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4)
    thick = UcpSpec(L=400, V=400, rho=3, alpha=3, beta=0, G=0)
    with pytest.raises(ValueError, match="too opaque"):
        transmission_ucp_batch([thin, thick, thin, thin], [1.0, 1.0, -1.0, 2.0])
    with pytest.raises(ValueError, match="wavenumber"):
        transmission_ucp_batch([thin, thin, thick], [1.0, -1.0, 1.0])


def test_overflowing_identity_part_is_rescaled():
    # the constant-area height of V0 = 10 at G = 600: o1 * o2 overflowed once
    # the block was scaled up by its other entries, and T was NaN
    spec = UcpSpec(L=1, V=4.516015599358285e106, rho=3, alpha=1, beta=0, G=600)
    for res in transmission_ucp_batch([spec] * 3, [2e54, 5e54, 1e55]):
        assert 0.0 <= res.transmission <= 1.0 and 0.0 <= res.reflection <= 1.0
        assert math.isfinite(res.log10_transmission)


@given(specs(600), st.floats(0.0, 1e110), st.lists(st.floats(1e-3, 1e60), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_closed_form_has_no_nan_at_large_heights_and_wavenumbers(spec, V, ks):
    spec = dataclasses.replace(spec, V=V)
    try:
        results = transmission_ucp_batch([spec] * len(ks), ks)
    except ValueError as exc:
        assert "too opaque" in str(exc) or "barrier width" in str(exc)
        assume(False)
    for res in results:
        assert 0.0 <= res.transmission <= 1.0 and 0.0 <= res.reflection <= 1.0
        assert math.isfinite(res.log10_transmission)


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


@given(specs(10), st.lists(wavenumbers, min_size=1, max_size=4))
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
