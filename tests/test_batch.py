"""The array forms of both engines: every point equals its one-point call, and
the results stay physical over the whole range the closed form accepts."""

import dataclasses
import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ucpscatter.geometry as geometry
import ucpscatter.oracle as oracle
import ucpscatter.scattering as scattering
from paper import assemble, barrier_terms
from ucpscatter import (
    ScatterResult,
    UcpSpec,
    region_sequence,
    transmission_oracle,
    transmission_oracle_arrays,
    transmission_ucp,
    transmission_ucp_arrays,
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


def records(arrays):
    """A ScatterResult per point of T, R and log10 T arrays, nested as the arrays are."""
    if arrays[0].ndim == 2:
        return [records(rows) for rows in zip(*arrays)]
    return [ScatterResult(*point) for point in zip(*(x.tolist() for x in arrays))]


def one_point_or_none(engine, spec, k):
    """engine(spec, k), or None for the documented opaque-barrier ValueError."""
    try:
        return engine(spec, k)
    except ValueError as exc:
        assert "too opaque" in str(exc)
        return None


def assert_every_spec_at_every_k_is_its_one_point_call(pool, ks):
    """transmission_ucp_arrays over the specs of pool that no k makes too
    opaque: each [i, j] is transmission_ucp(specs[i], ks[j]), == and repr."""
    single = [[one_point_or_none(transmission_ucp, spec, k) for k in ks] for spec in pool]
    kept = [i for i, row in enumerate(single) if None not in row]
    assume(kept)
    want = [single[i] for i in kept]
    got = records(transmission_ucp_arrays([pool[i] for i in kept], ks))
    assert got == want and repr(got) == repr(want)


@given(st.lists(specs(64), min_size=1, max_size=4), st.lists(wavenumbers, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_closed_form_batch_equals_one_point_calls(pool, ks):
    # mixed stages, and rescaled points next to unscaled ones: no cross-talk
    assert_every_spec_at_every_k_is_its_one_point_call(pool, ks)


@given(st.lists(specs(64), min_size=1, max_size=6), st.data())
@settings(max_examples=30, deadline=None)
def test_one_pass_at_any_mix_of_stages_equals_one_point_calls(pool, data):
    # up to 16 specs in random order, repeated specs and G = 0 specs among
    # them, at up to 8 k: each spec joins the doubling at its own stage
    pool.append(dataclasses.replace(pool[0], G=0))
    drawn = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
    ks = data.draw(st.lists(wavenumbers, min_size=1, max_size=8))
    assert_every_spec_at_every_k_is_its_one_point_call(drawn, ks)


DEEP_STAGES = [UcpSpec(L=5, V=25, rho=3, alpha=0.5, beta=1, G=G) for G in range(16, 33)]
DEEP_K = np.linspace(0.5, 10.0, 64)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_deep_batch_equals_the_batches_of_its_stages():
    # the points of a saturation scan over stages 16..32 at 64 k
    per_stage = [transmission_ucp_arrays([spec], DEEP_K) for spec in DEEP_STAGES]
    for got, want in zip(transmission_ucp_arrays(DEEP_STAGES, DEEP_K), zip(*per_stage)):
        assert np.array_equal(bits(got), bits(np.concatenate(want)))


def test_deep_batch_is_one_doubling_pass(monkeypatch):
    # a gap product and a block product per order over the highest stage's 32
    # orders; a pass per stage took sum(2 G) = 816
    calls = []
    for name in ("_gap_product", "_block_product"):
        def counted(*args, product=getattr(scattering, name)):
            calls.append(1)
            return product(*args)

        monkeypatch.setattr(scattering, name, counted)
    transmission_ucp_arrays(DEEP_STAGES, DEEP_K)
    assert len(calls) == 2 * DEEP_STAGES[-1].G


# block entries as the doubling holds them, rescaled to below 2**500 but
# grown by a product: signed zeros and subnormals among them
block_entries = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**503]),
                          st.floats(-2.0**503, 2.0**503))


@given(st.lists(st.tuples(*[block_entries] * 5, st.floats(-2.0, 0.0), st.floats(-1.0, 1.0)),
                min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_gap_product_is_the_block_product_with_the_gap_block(points):
    # the gap (1, -2 h**2, 0, 0, sin kd) has p2 = -2 h**2 in [-2, 0] and b2 in
    # [-1, 1]: every entry is the same value, with the same bits unless zero
    *x, p2, b2 = (np.array(column) for column in zip(*points))
    got = scattering._gap_product(tuple(x), p2, b2)
    want = scattering._block_product(tuple(x), (1.0, p2, 0.0, 0.0, b2))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
        assert np.array_equal(bits(g[w != 0.0]), bits(w[w != 0.0]))


@given(st.lists(st.tuples(*[st.floats(0.0, 2.0**1000)] * 5), min_size=1, max_size=9))
@example([(1.0, 2.0**-53, 2.0**-53, 0.0, 0.0)])  # 1 + (2**-53 + 2**-53) rounds up
@settings(max_examples=100, deadline=None)
def test_the_rescale_total_adds_the_five_sizes_in_order(points):
    # _rescaled adds its five size rows with one axis-0 reduce: at one point
    # too it must add them left to right, as the sum it replaced did
    size = np.abs(np.array([list(row) for row in zip(*points)]))
    want = size[0] + size[1] + size[2] + size[3] + size[4]
    assert np.array_equal(bits(np.add.reduce(size)), bits(want))


@given(specs(64), st.lists(wavenumbers, min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_equal_spec_objects_equal_one_point_calls(spec, ks):
    # equal but distinct objects, V = 0.0 next to V = -0.0 among them: each
    # result is still its one-point call's
    zero = dataclasses.replace(spec, V=0.0)
    pool = [spec, dataclasses.replace(spec), zero, dataclasses.replace(spec, V=-0.0),
            dataclasses.replace(zero)]
    ks = [k for k in ks if one_point_or_none(transmission_ucp, spec, k) is not None
          and one_point_or_none(transmission_ucp, zero, k) is not None]
    assume(ks)
    assert_every_spec_at_every_k_is_its_one_point_call(pool, ks)


def count_width_tables(monkeypatch):
    """(columns, stages) of every width table the closed form builds from now on."""
    tables = []
    build = scattering._width_table

    def counted(L, *columns):
        table = build(L, *columns)
        tables.append((len(L), len(table.widths) - 1))
        return table

    monkeypatch.setattr(scattering, "_width_table", counted)
    return tables


@pytest.mark.parametrize("G", [16, 64])
def test_geometry_once_per_spec(monkeypatch, G):
    tables = count_width_tables(monkeypatch)
    ks = np.linspace(0.5, 10.0, 500)
    spec = UcpSpec(L=5, V=25, rho=3, alpha=0.5, beta=1, G=G)
    first = transmission_ucp_arrays([spec], ks)
    assert tables == [(1, G)]  # one table, one column of G stages
    assert np.array_equal(bits(transmission_ucp_arrays([spec], ks)), bits(first))
    assert tables == [(1, G)] * 2  # each call builds its own, once
    tables.clear()
    rebuilt = [UcpSpec(L=5, V=25, rho=3, alpha=0.5, beta=1, G=G) for _ in range(3)]
    got = transmission_ucp_arrays(rebuilt, ks)
    assert all(np.array_equal(bits(x), bits(np.repeat(y, 3, axis=0))) for x, y in zip(got, first))
    assert tables == [(3, G)]  # one column per spec object, all in one table


@pytest.mark.parametrize("G", [16, 64])
def test_one_point_call_reads_the_cached_table(monkeypatch, G):
    # the one-point call builds its spec's one-column table once, on the spec
    # object, and then reads it; an arrays call builds a fresh table of its own
    tables = []
    build = geometry._width_table

    def counted(L, *columns):
        table = build(L, *columns)
        tables.append(table.widths.shape)
        return table

    monkeypatch.setattr(geometry, "_width_table", counted)
    spec = UcpSpec(L=5, V=25, rho=3, alpha=0.5, beta=1, G=G)
    first = transmission_ucp(spec, 2.5)
    assert tables == [(G + 1, 1)]
    second = transmission_ucp(spec, 2.5)
    assert tables == [(G + 1, 1)]
    arrays = records(transmission_ucp_arrays([spec], [2.5]))[0][0]
    assert first == second == arrays and repr(first) == repr(second) == repr(arrays)


def test_closed_form_builds_no_stage_above_the_cap(monkeypatch):
    # the widest chain is 0 from stage 2099: a billion stages build 2099 of them
    tables = count_width_tables(monkeypatch)
    spec = UcpSpec(L=1, V=25, rho=3, alpha=1, beta=0, G=10**9)
    with pytest.raises(ValueError, match="barrier width must be positive"):
        transmission_ucp_arrays([spec, dataclasses.replace(spec, G=5)], [1.0])
    assert tables == [(2, 2099)]


def test_grid_shaped_call_hashes_no_spec(monkeypatch):
    # the grid workload's shape: a 14**3 cube of (alpha, beta, rho) at G = 8, 3 k
    tables = count_width_tables(monkeypatch)
    hashes = []
    monkeypatch.setattr(UcpSpec, "__hash__", lambda spec: hashes.append(1) or 0)
    axis = np.linspace(0.1, 1.4, 14).tolist()
    cube = [UcpSpec(L=5, V=25, rho=1.5 + r, alpha=a, beta=b, G=8)
            for a, b, r in itertools.product(axis, axis, axis)]
    T = transmission_ucp_arrays(cube, [0.5, 2.0, 7.0])[0]
    assert T.shape == (2744, 3)
    assert hashes == []
    assert tables == [(2744, 8)]  # one width chain per spec, all in one table
    # the specs' parameters are read, and no spec caches a chain of its own
    assert not any("width_chain" in vars(spec) for spec in cube)


def test_points_are_checked_in_input_order():
    # the first bad (spec, k) in row-major order raises, though thin, at a
    # higher stage, joins the doubling first
    thin = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4)
    thick = UcpSpec(L=400, V=400, rho=3, alpha=3, beta=0, G=0)
    with pytest.raises(ValueError, match="too opaque"):
        transmission_ucp_arrays([thick, thin], [1.0, -1.0])
    with pytest.raises(ValueError, match="wavenumber"):
        transmission_ucp_arrays([thin, thick], [1.0, -1.0])


def test_overflowing_identity_part_is_rescaled():
    # the constant-area height of V0 = 10 at G = 600: o1 * o2 overflowed once
    # the block was scaled up by its other entries, and T was NaN
    spec = UcpSpec(L=1, V=4.516015599358285e106, rho=3, alpha=1, beta=0, G=600)
    for res in records(transmission_ucp_arrays([spec], [2e54, 5e54, 1e55]))[0]:
        assert 0.0 <= res.transmission <= 1.0 and 0.0 <= res.reflection <= 1.0
        assert math.isfinite(res.log10_transmission)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the block's determinant drifts from 1 over 600 "
                   "orders and the block decays to (1, -1, 0, 0, 0): R = 0 exactly")
def test_reflection_survives_600_orders_near_full_transmission():
    spec = UcpSpec(L=1, V=4.516015599358285e106, rho=3, alpha=1, beta=0, G=600)
    assert transmission_ucp(spec, 2e54).reflection > 0.0  # about 1e-180


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="every gap underflows to 0 and the 2**1100 barriers "
                   "are one slab, yet the doubling gives T = 0")
def test_slab_of_1100_stages_transmits():
    # at L = 1e200 every d_g is 0, so the system is one slab of height 25 and
    # width L; for k**2 > V a slab transmits at least 1/(1 + V**2/(4 k**2 kappa**2))
    # at any width.  The closed form may refuse such a spec instead
    spec = UcpSpec(L=1e200, V=25, rho=1e300, alpha=1, beta=1, G=1100)
    assert not spec.width_chain.gaps.any()
    k = 12.5
    try:
        T = transmission_ucp(spec, k).transmission
    except ValueError:
        return
    kappa2 = k * k - spec.V
    assert T >= 1.0 / (1.0 + spec.V**2 / (4.0 * k * k * kappa2))


@given(specs(600), st.floats(0.0, 1e110), st.lists(st.floats(1e-3, 1e60), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_closed_form_has_no_nan_at_large_heights_and_wavenumbers(spec, V, ks):
    spec = dataclasses.replace(spec, V=V)
    try:
        results = records(transmission_ucp_arrays([spec], ks))[0]
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
        results = records(transmission_ucp_arrays([spec], ks))[0]
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
    assert records(transmission_oracle_arrays(spec, ks)) == single
    closed = records(transmission_ucp_arrays([spec], ks))[0]
    for a, b in zip(closed, single):
        assert abs(a.log10_transmission - b.log10_transmission) <= 1e-9


# T, R and log10 T of the oracle as float.hex, pinned from its (2, 2, n) product
# written row by row; no golden command reaches these paths
ORACLE_BITS = [
    # 1269 rescale tests
    (UcpSpec(L=300, V=5000, rho=2.2, alpha=0.4, beta=0.3, G=12),
     np.linspace(0.05, 60, 37), [
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0000000001084p-1022 0x1.7e6fec3765bb6p-815 "
        "0x1.30b316ad934a6p-729 0x1.1958cc75546b4p-321 0x1.3db2ce1933805p-88 "
        "0x1.7243dbaaafc39p-390",
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "0x1.0000000000000p+0",
        "-0x1.100208f914d6bp+10 -0x1.0698b3a047ac3p+10 -0x1.02ee503edeafep+10 "
        "-0x1.fad325ee7c6c9p+9 -0x1.e45f3df573c83p+9 -0x1.ef158d64a6e22p+9 "
        "-0x1.df379268cc718p+9 -0x1.d36da46d66b4cp+9 -0x1.c53a2573fbbf4p+9 "
        "-0x1.c6f5a7cda992ep+9 -0x1.bc329960795cdp+9 -0x1.9ab2b4fa8badbp+9 "
        "-0x1.95685464a0f3fp+9 -0x1.a11232466dc39p+9 -0x1.9d244973f8698p+9 "
        "-0x1.970d43c9050a5p+9 -0x1.82ca06b0d04e1p+9 -0x1.87ddc64253ec5p+9 "
        "-0x1.7a2b25299b728p+9 -0x1.61b54257cb30ep+9 -0x1.48b61a5906a75p+9 "
        "-0x1.37113b0359a1dp+9 -0x1.0d10e4105aeb5p+9 -0x1.005848d32d20dp+9 "
        "-0x1.927cba4fc2db7p+8 -0x1.d86a1a1c314c4p+8 -0x1.f1ec345964f67p+8 "
        "-0x1.d7e920be4095ap+8 -0x1.c08edebc46965p+8 -0x1.be69d79527c51p+8 "
        "-0x1.955b3e469554fp+8 -0x1.3fae187c6e872p+8 -0x1.ea548b6f54656p+7 "
        "-0x1.b6c01ecc4cc28p+7 -0x1.825bc70ba5b31p+6 -0x1.a6598e910f3efp+4 "
        "-0x1.d4f738410ea9cp+6",
    ]),
    # C/k past a double: the factor held as 2**-2 of itself
    (UcpSpec(L=57.271623783941266, V=12828.594060047031, rho=3.402702584634892,
             alpha=1.0820643318776448, beta=0.86216933013465, G=3),
     [0.13068226511790876, 0.20391286626553243], [
        "0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+0",
        "-0x1.335550cf36236p+12 -0x1.334d45250f3dep+12",
    ]),
]


@pytest.mark.parametrize("spec, ks, bits", ORACLE_BITS, ids=["rescale", "shift"])
def test_oracle_rescale_and_shift_keep_their_bits(spec, ks, bits):
    got = transmission_oracle_arrays(spec, ks)
    assert [" ".join(map(float.hex, x.tolist())) for x in got] == bits


def test_oracle_builds_each_distinct_factor_once(monkeypatch):
    spec = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=6)
    widths = []
    for name in ("_barrier_rows", "_gap_phase"):
        def counted(*args, built=getattr(oracle, name), is_barrier=name == "_barrier_rows"):
            widths.append((args[-1], is_barrier))
            return built(*args)
        monkeypatch.setattr(oracle, name, counted)
    transmission_oracle_arrays(spec, [0.5, 3.0])
    # one barrier width and G gap widths, each built once in order of first use
    assert len(widths) == spec.G + 1
    assert widths == list(dict.fromkeys(region_sequence(spec)))


# stages deep enough for gaps far below any wavelength, down to where the width chain stops
@given(specs(700, max_span=1e3), st.lists(wavenumbers, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_numpy_sin_and_cos_round_as_math(spec, ks):
    table = spec.width_chain
    gaps = table.gaps[:table.stages[0], 0]
    kd = np.multiply.outer(np.array(ks), gaps).ravel()
    for x in (kd, kd / 2.0):
        for fn in ("sin", "cos"):
            got = getattr(np, fn)(x)
            want = np.array([getattr(math, fn)(v) for v in x.tolist()])
            differ = got.view(np.int64) != want.view(np.int64)
            assert not differ.any(), (
                f"np.{fn} and math.{fn} differ in bits at {x[differ][:4].tolist()}: both "
                "engines take their gap rotations from np.sin and np.cos and rely on numpy "
                "rounding as the C library's sin and cos, which math calls; the bit-for-bit "
                "checks against math-based references (PRODUCT_CASES) rest on this")


def test_gap_phase_past_a_double_raises():
    # kappa*l_1 = 5e298 fits, but k*d_1 = 1e309 does not: np.sin would give NaN
    spec = UcpSpec(L=1e308, V=1, rho=2, alpha=1.4426950409e-10, beta=0, G=1)
    assert 0.0 <= transmission_ucp(spec, 1.0).transmission <= 1.0
    assert 0.0 <= transmission_oracle(spec, 1.0).transmission <= 1.0
    with pytest.raises(ValueError, match="gap too wide"):
        transmission_ucp_arrays([spec], [1.0, 10.0])
    with pytest.raises(ValueError, match="gap too wide"):
        transmission_oracle_arrays(spec, [1.0, 10.0])
    assert 0.0 <= scattering.transmission_spp(1.0, 1.0, [2], [1e308], 1.0).transmission <= 1.0
    with pytest.raises(ValueError, match="gap too wide"):
        scattering.transmission_spp(1.0, 1.0, [2], [1e308], 2.0)


def test_opaque_point_raises():
    thin = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4)
    thick = UcpSpec(L=400, V=400, rho=3, alpha=3, beta=0, G=0)
    with pytest.raises(ValueError, match="too opaque"):
        transmission_ucp_arrays([thin, thick], [1.0])
    with pytest.raises(ValueError, match="too opaque"):
        transmission_oracle_arrays(thick, [2.0, 1.0])


def test_empty_batches():
    spec = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4)
    for specs_, ks, shape in [([], [1.0, 2.0, 3.0], (0, 3)), ([spec], [], (1, 0)),
                              ([spec, spec], [], (2, 0)), ([], [], (0, 0))]:
        assert [x.shape for x in transmission_ucp_arrays(specs_, ks)] == [shape] * 3
    assert [x.shape for x in transmission_oracle_arrays(spec, [])] == [(0,)] * 3


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


def positive(lo, hi):
    """Floats in [lo, hi], spread evenly in log."""
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def signed(lo, hi):
    return st.tuples(positive(lo, hi), st.sampled_from([-1.0, 1.0])).map(lambda p: p[0] * p[1])


def near_kappa_w(target, k, V, c):
    """A width at which |kappa w| = c * target."""
    return c * target / (math.sqrt(abs(k * k - V)) or 1.0)


DBL_MIN = float(np.finfo(float).tiny)
zero_heights = st.sampled_from([0.0, -0.0])
barrier_points = st.one_of(
    # propagating and evanescent, V <= 0 among them, and widths down to 1e-300
    st.tuples(positive(1e-3, 1e5), st.one_of(zero_heights, st.floats(-1e3, 3e4)),
              positive(1e-3, 1e3)),
    st.tuples(positive(1e-3, 1e5), st.one_of(zero_heights, st.floats(-1e3, 3e4)),
              positive(1e-300, 1e-3)),
    # E ~ V: k**2 = V (1 + delta)
    st.builds(lambda V, delta, w: (math.sqrt(V * (1.0 + delta)), V, w),
              positive(1e-3, 1e5), signed(1e-16, 1e-4), positive(1e-6, 10.0)),
    # |kappa w| on both sides of the series cutoff
    st.builds(lambda k, V, c: (k, V, near_kappa_w(scattering._SERIES_CUTOFF, k, V, c)),
              positive(1e-3, 1e3), st.floats(-1e3, 3e4), st.floats(0.5, 2.0)),
    # |Im kappa w| where cmath's sinh switches to sinh(y - 1) * e, up to overflow
    st.builds(lambda k, gap, y: (k, k * k + gap, y / math.sqrt(gap)),
              positive(1e-3, 10.0), positive(1e-2, 1e4), st.floats(708.39, 710.5)),
    # subnormal k**2 - V
    st.builds(lambda k, c, w: (k, c * k * k, w), positive(1e-170, 1e-150),
              st.sampled_from([0.0, -0.0, 2.0, 0.5, 1.5]), positive(1e-300, 1e300)),
    # |k**2 - V| in [DBL_MIN, 8 DBL_MIN), where cmath.sqrt's |s|/8 is subnormal
    st.builds(lambda c, h, w: (math.sqrt(c * DBL_MIN), h * c * DBL_MIN, w), st.floats(1.0, 8.0),
              st.sampled_from([0.0, 2.0]), positive(1e-300, 1e300)),
    # eps_+ = 0: 2 k**2 = V
    st.builds(lambda k, w: (k, 2.0 * k * k, w), positive(1e-3, 1e3), positive(1e-6, 1e3)),
)


def reference_rows(points):
    """The rows of _barrier_rows from the per-point cmath terms, or the message
    of the first point that raises.  Where kappa is real and kappa*w overflows,
    cmath.sin's own "math domain error" became the out-of-range message."""
    rows = []
    for k, V, width in points:
        try:
            rows.append([term.real for term in barrier_terms(k, V, width)])
        except ValueError as exc:
            if str(exc) != "math domain error":
                return str(exc)
            return (f"wavenumber k = {k:.6g} out of range: the terms of a barrier "
                    f"of height {V:.6g} and width {width:.6g} overflow a double")
    return np.array(rows).reshape(len(points), 3).T


def assert_rows_as_reference(points):
    want = reference_rows(points)
    k, V, width = (np.array(column, dtype=float) for column in zip(*points))
    if isinstance(want, str):
        with pytest.raises(ValueError) as raised:
            scattering._barrier_rows(k, V, width)
        assert str(raised.value) == want
    else:
        got = scattering._barrier_rows(k, V, width)
        assert np.array_equal(bits(got), bits(want)), (got, want)


# RuntimeWarning only: with every warning an error, a failing example's report
# ends in an internal error of the Hypothesis plugin instead
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.lists(barrier_points, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_barrier_rows_are_the_complex_terms_bit_for_bit(points):
    # signed zeros too: V = +-0.0, eps_+ = 0 and underflowing products among them
    assert_rows_as_reference(points)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
def test_first_bad_point_raises_its_message(order):
    bad = [(-1.0, 25.0, 0.1),      # k <= 0
           (2.0, 25.0, 0.0),       # width <= 0
           (1.0, 1e10, 0.1),       # too opaque
           (1e200, 1.0, 1.0)]      # k out of range
    good = (1.5, 25.0, 0.1)
    points = [good] + [p for i in order for p in (bad[i], good)]
    assert_rows_as_reference(points)
    assert isinstance(reference_rows(points), str)


def test_overflowing_real_kappa_w_names_k():
    # cmath.sin raised "math domain error" here; the message now names k, as
    # for every other term that does not fit a double
    with pytest.raises(ValueError, match=r"^wavenumber k = 1e\+10 out of range"):
        scattering._barrier_rows(np.array([1.0, 1e10]), 1.0, 1e300)
    with pytest.raises(ValueError, match="math domain error"):
        barrier_terms(1e10, 1.0, 1e300)


def from_log_x(log_x, e, angle):
    """(q, r, exp2) with 2 (ln hypot(q, r) + exp2 ln 2) about log_x."""
    m12_abs = math.exp(log_x / 2.0 - e * math.log(2.0))
    return m12_abs * math.cos(angle), m12_abs * math.sin(angle), float(e)


log_x_points = st.one_of(
    # ln X on both sides of -36, 0 and 36
    st.builds(from_log_x, st.one_of(st.floats(-45.0, 45.0), st.floats(35.0, 38.0),
                                    st.floats(-38.0, -35.0), st.floats(-1.0, 1.0)),
              st.integers(-60, 60), st.floats(0.0, 2.0 * math.pi)),
    # |m12| about 1, where numpy's log rounds unlike math's most often
    st.tuples(st.floats(0.5, 1.5), st.floats(-0.5, 0.5), st.just(0.0)),
    # m12 = 0
    st.tuples(zero_heights, zero_heights, st.integers(-10**6, 10**6).map(float)),
    # |exp2| up to 1e6
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.integers(-10**6, 10**6).map(float)),
    st.tuples(signed(1e-300, 1e300), signed(1e-300, 1e300), st.integers(-2000, 2000).map(float)),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.lists(log_x_points, min_size=1, max_size=20))
# np.log and np.hypot round these unlike math.log and math.hypot
@example([(0.9695125239175644, 0.0, 0.0), (-30.580056446260382, -18.41610235034864, 0.0)])
@settings(max_examples=200, deadline=None)
def test_results_are_the_per_point_assembly_bit_for_bit(points):
    q, r, exp2 = (np.array(column) for column in zip(*points))
    want = []
    for q_i, r_i, e in points:
        m12_abs = math.hypot(q_i, r_i)
        log_x = None if m12_abs == 0.0 else 2.0 * (math.log(m12_abs) + e * math.log(2.0))
        want.append(assemble(log_x))
    got = scattering._results(q, r, exp2)
    assert np.array_equal(bits(got), bits([[dataclasses.astuple(w)[i] for w in want]
                                           for i in range(3)]))
    assert records(got) == want


def det_drift_loop(a, b, c, d, exp2):
    """The oracle's determinant drift per k, as its per-k loop computed it."""
    drifts = []
    for a_i, b_i, c_i, d_i, e in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist(), exp2.tolist()):
        unit = 2.0**-e
        inv = 1.0 / max(unit, abs(a_i), abs(b_i), abs(c_i), abs(d_i))
        drifts.append(abs(a_i * inv * (d_i * inv) - b_i * inv * (c_i * inv)
                          - unit * inv * (unit * inv)))
    return np.array(drifts)


entries = st.one_of(signed(1e-300, 1e300), st.sampled_from([0.0, -0.0, math.inf, math.nan]))


@given(st.lists(st.tuples(entries, entries, entries, entries, st.integers(0, 1074)),
                min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_det_drift_is_the_per_k_loop_bit_for_bit(rows):
    a, b, c, d, exp2 = (np.array(column) for column in zip(*rows))
    with np.errstate(all="ignore"):  # inf and NaN entries
        got = oracle._det_drift(a, b, c, d, exp2.astype(np.int64))
    assert np.array_equal(bits(got), bits(det_drift_loop(a, b, c, d, exp2)))


def test_drift_warns_once_per_k_in_input_order(monkeypatch, caplog):
    spec = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4)
    ks = [3.0, 0.5, 2.0]
    with caplog.at_level(logging.WARNING, logger="ucpscatter.oracle"):
        transmission_oracle_arrays(spec, ks)
        assert caplog.records == []
        monkeypatch.setattr(oracle, "_DET_DRIFT_TOL", -1.0)  # every drift exceeds it
        transmission_oracle_arrays(spec, ks)
    messages = [record.getMessage() for record in caplog.records]
    assert [m.rsplit(", ", 1)[1] for m in messages] == [f"k={k:g}" for k in ks]
    assert all(m.startswith("oracle determinant drift ") and " at G=4, " in m for m in messages)
