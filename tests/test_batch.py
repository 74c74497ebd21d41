"""The array forms of both engines: every point equals its one-point call, and
the results stay physical over the whole range the closed form accepts."""

import dataclasses
import itertools
import math
import pathlib
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ucpscatter.analysis as analysis
import ucpscatter.cli as cli
import ucpscatter.geometry as geometry
import ucpscatter.oracle as oracle
import ucpscatter.scattering as scattering
from paper import assemble, barrier_terms
from ucpscatter import (
    ScatterResult,
    UcpSpec,
    bloch_sequence,
    bloch_sequence_arrays,
    constant_area_height,
    fit_scaling,
    reflection_asymptote,
    reflection_asymptote_arrays,
    region_sequence,
    saturation_scan,
    transmission_oracle,
    transmission_oracle_arrays,
    transmission_spp,
    transmission_spp_arrays,
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
    # one doubling step per order over the highest stage's 32 orders, and no
    # join; a pass per stage took sum(G) = 408 steps
    calls = []
    for name in ("_step", "_join"):
        def counted(*args, product=getattr(scattering, name)):
            calls.append(1)
            return product(*args)

        monkeypatch.setattr(scattering, name, counted)
    transmission_ucp_arrays(DEEP_STAGES, DEEP_K)
    assert len(calls) == DEEP_STAGES[-1].G


def test_repetition_leaves_the_barrier_rows_as_they_are():
    # the orders run the first 2, 3 and 3 points: the last point runs none
    spec = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=3)
    k = np.array([0.5, 2.0, 7.0, 11.0])
    barrier = scattering._barrier_rows(k, spec.V, spec.width_chain.widths[-1, 0], gap=0.0)
    before = barrier.copy()
    orders = [(np.full(n, d), 2) for n, d in zip((2, 3, 3), spec.width_chain.gaps[::-1, 0])]
    half_traces = []
    block = scattering._repetition(k, barrier, orders, half_traces)
    assert np.array_equal(bits(barrier), bits(before))
    assert block.shape == (5, 4) and [h.size for h, _ in half_traces] == [2, 3, 3]
    # its block is its barrier's, (1, cos - 1, eps_- sin, k sin/kappa), at exp2 = 0
    cos_m1, k_sin, em_sin = before[:, 3]
    assert bits(block[:, 3]).tolist() == bits([1.0, cos_m1, em_sin, k_sin, 0.0]).tolist()


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
    """(columns, stages) of every width table the closed form builds from now
    on, a spec's width_chain among them."""
    tables = []
    build = geometry._width_table

    def counted(L, *columns):
        table = build(L, *columns)
        tables.append((len(L), len(table.widths) - 1))
        return table

    for module in (geometry, scattering):
        monkeypatch.setattr(module, "_width_table", counted)
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


def test_geometry_once_per_command(monkeypatch, capsys):
    # both engines of transmission --engine both read the spec's one width_chain,
    # and fit_scaling runs its spec's own chain at V_G
    tables = count_width_tables(monkeypatch)
    assert cli.main(["transmission", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5",
                     "--beta", "1", "--G", "6", "--kmin", "0.5", "--kmax", "20", "--nk", "50",
                     "--engine", "both"]) == 0
    assert capsys.readouterr().err == ""
    assert tables == [(1, 6)]
    tables.clear()
    spec = UcpSpec(L=1, V=1, rho=1.75, alpha=0.5, beta=0.25, G=5)
    fit_scaling(spec, 25.0, (50.0, 500.0), 200)
    assert tables == [(1, 5)]


def test_reflection_asymptote_reads_the_specs_own_chain(monkeypatch):
    # the Bloch phases at V_G come from the spec's width_chain, not from a second spec's
    spec = UcpSpec(L=1, V=1, rho=1.75, alpha=0.5, beta=0.25, G=5)
    ks = np.geomspace(50.0, 500.0, 40)
    expected = bits(reflection_asymptote_arrays(dataclasses.replace(spec), 1.0, ks))
    tables = count_width_tables(monkeypatch)
    assert np.array_equal(bits(reflection_asymptote_arrays(spec, 1.0, ks)), expected)
    assert tables == [(1, 5)]


# the work of each benchmark workload at seed 1, which no machine's speed moves:
# UcpSpec objects validated, width tables built, _barrier_rows calls and their
# points, and orders of the doubling (_step and _rescaled each run once per
# order, and _join not at all)
WORKLOAD_WORK = {
    "sweep": (1, 1, 1, 2000, 16),
    "crossval": (1, 1, 2, 400, 10),
    "grid": (211, 1, 1, 8190, 8),
    "deep": (2, 1, 1, 1088, 32),
}


@pytest.mark.parametrize("name", list(WORKLOAD_WORK))
def test_benchmark_workloads_do_no_more_work(name, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    tables, specs, barrier_points, orders = count_width_tables(monkeypatch), [], [], {}
    post_init, rows = UcpSpec.__post_init__, scattering._barrier_rows

    def validated(self):
        specs.append(self)
        post_init(self)

    def barrier_rows(k, *args):
        barrier_points.append(k.size)
        return rows(k, *args)

    monkeypatch.setattr(UcpSpec, "__post_init__", validated)
    for module in (scattering, oracle):  # the oracle imports _barrier_rows by name
        monkeypatch.setattr(module, "_barrier_rows", barrier_rows)
    for fn in ("_step", "_join", "_rescaled"):
        def counted(*args, fn=fn, run=getattr(scattering, fn)):
            orders[fn] = orders.get(fn, 0) + 1
            return run(*args)
        monkeypatch.setattr(scattering, fn, counted)
    assert cli.main(workloads.make(name, 1).argv) == 0
    assert capsys.readouterr().err == ""
    most_specs, most_tables, most_calls, most_points, most_orders = WORKLOAD_WORK[name]
    assert len(specs) <= most_specs
    assert len(tables) <= most_tables
    assert len(barrier_points) <= most_calls
    assert sum(barrier_points) <= most_points
    assert max(orders.values(), default=0) <= most_orders


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


def slab_bound(V, k):
    """The least T of a slab of height V at k**2 > V, at any width:
    1/(1 + V**2/(4 k**2 kappa**2))."""
    return 1.0 / (1.0 + V**2 / (4.0 * k * k * (k * k - V)))


def test_slab_of_1100_stages_transmits():
    # at L = 1e200 every d_g is 0, so the system is one slab of height 25 and
    # width L, which the closed form runs as one barrier of width 2**1100 l_G
    spec = UcpSpec(L=1e200, V=25, rho=1e300, alpha=1, beta=1, G=1100)
    assert not spec.width_chain.gaps.any()
    k = 12.5
    assert transmission_ucp(spec, k).transmission >= slab_bound(spec.V, k)


def test_slab_command_prints_at_least_the_slab_bound(capsys):
    assert cli.main(["transmission", "--L", "1e200", "--V", "25", "--rho", "1e300",
                     "--alpha", "1", "--beta", "1", "--G", "1100", "--kmin", "6.25",
                     "--kmax", "25", "--nk", "4"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line.split(",") for line in out.splitlines() if line[:1].isdigit()]
    assert [float(k) for k, *_ in rows] == [6.25, 12.5, 18.75, 25.0]
    for k, T, *_ in rows:
        assert float(T) >= slab_bound(25.0, float(k))


def test_trailing_zero_gaps_are_one_wider_barrier():
    # d_2 and d_3 underflow to 0: at k**2 >= V the stage-3 system runs as the
    # stage-1 one, whose barrier of width w_1 = 4 l_3 it runs, in one call
    # with a spec of no zero gap; below the height it runs every order, and
    # agrees with the stage-1 system to rounding
    spec = UcpSpec(L=1, V=25, rho=1e300, alpha=-1.078, beta=1.08, G=3)
    table = spec.width_chain
    assert table.gaps[1:, 0].tolist() == [0.0, 0.0] and table.gaps[0, 0] > 0.0
    assert table.widths[1, 0] == 4.0 * table.widths[3, 0]
    ks = np.geomspace(0.1, 100.0, 30)
    real = ks * ks >= spec.V
    T, R, log10_T = transmission_ucp_arrays([spec, DEEP_STAGES[0], dataclasses.replace(spec, G=1)],
                                            ks)
    for x in (T, R, log10_T):
        assert np.array_equal(bits(x[0, real]), bits(x[2, real]))
    assert log10_T[0, ~real] == pytest.approx(log10_T[2, ~real], rel=1e-14, abs=1e-14)


def test_an_opaque_slab_runs_its_zero_gap_orders():
    # a barrier of width L = 1e200 would overflow sinh, but the doubling of the
    # narrow one keeps its blocks rescaled: log10 T is that of the slab,
    # -2 kappa L / ln 10 to leading order
    spec = UcpSpec(L=1e200, V=25, rho=1e300, alpha=1, beta=1, G=1100)
    for k in (1.0, 4.0):
        kappa = math.sqrt(spec.V - k * k)
        assert transmission_ucp(spec, k).log10_transmission == pytest.approx(
            -2.0 * kappa * spec.L / math.log(10.0), rel=1e-12)


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


# T, R and log10 T of the oracle as float.hex; tools/golden.py hashes the first
# case's as library-transmission_oracle_arrays-rescale
ORACLE_BITS = [
    # 1265 rescale tests
    (UcpSpec(L=300, V=5000, rho=2.2, alpha=0.4, beta=0.3, G=12),
     np.linspace(0.05, 60, 37), [
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0000000001084p-1022 0x1.7e6fec37658b9p-815 "
        "0x1.30b316ad93707p-729 0x1.1958cc75541c2p-321 0x1.3db2ce1933513p-88 "
        "0x1.7243dbaab0f06p-390",
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
        "-0x1.100208f914d6ap+10 -0x1.0698b3a047ac3p+10 -0x1.02ee503edeafep+10 "
        "-0x1.fad325ee7c6c9p+9 -0x1.e45f3df573c83p+9 -0x1.ef158d64a6e22p+9 "
        "-0x1.df379268cc718p+9 -0x1.d36da46d66b4cp+9 -0x1.c53a2573fbbf6p+9 "
        "-0x1.c6f5a7cda992cp+9 -0x1.bc329960795cdp+9 -0x1.9ab2b4fa8bad7p+9 "
        "-0x1.95685464a0f41p+9 -0x1.a11232466dc39p+9 -0x1.9d244973f8698p+9 "
        "-0x1.970d43c9050a6p+9 -0x1.82ca06b0d04dfp+9 -0x1.87ddc64253ec4p+9 "
        "-0x1.7a2b25299b726p+9 -0x1.61b54257cb30fp+9 -0x1.48b61a5906a77p+9 "
        "-0x1.37113b0359a1dp+9 -0x1.0d10e4105aeb4p+9 -0x1.005848d32d20cp+9 "
        "-0x1.927cba4fc2db5p+8 -0x1.d86a1a1c314c5p+8 -0x1.f1ec345964f63p+8 "
        "-0x1.d7e920be40956p+8 -0x1.c08edebc46967p+8 -0x1.be69d79527c4ep+8 "
        "-0x1.955b3e469554cp+8 -0x1.3fae187c6e876p+8 -0x1.ea548b6f54658p+7 "
        "-0x1.b6c01ecc4cc26p+7 -0x1.825bc70ba5b38p+6 -0x1.a6598e910f400p+4 "
        "-0x1.d4f738410ea85p+6",
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
    k = np.array([0.5, 3.0])
    built = []  # a barrier factor's width, and a cell's gap angles k*d
    added = []  # one entry per np.add call: a product step makes two

    def barrier_rows(k, V, width, gap):
        built.append(width)
        return scattering._barrier_rows(k, V, width, gap)

    class Numpy:
        """The oracle's numpy, whose cos records the angles of each cell it builds,
        and whose add counts its calls."""
        def __getattr__(self, name):
            return getattr(np, name)

        def cos(self, kd):
            built.append(kd.tolist())
            return np.cos(kd)

        def add(self, *args):
            added.append(None)
            return np.add(*args)

    monkeypatch.setattr(oracle, "_barrier_rows", barrier_rows)
    monkeypatch.setattr(oracle, "np", Numpy())
    transmission_oracle_arrays(spec, k)
    # one barrier width and G gap widths, each built once in order of first use
    assert len(built) == spec.G + 1
    assert built == [width if is_barrier else (k * width).tolist()
                     for width, is_barrier in dict.fromkeys(region_sequence(spec))]
    # one step per barrier-gap cell, then one for the last barrier: 2**G steps
    # over the 2**(G + 1) - 1 regions
    assert len(added) == 2 * 2**spec.G


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


@pytest.mark.parametrize("engine", ["closed_form", "oracle"])
@pytest.mark.parametrize("ks", [2.0, [[1.0, 2.0]]], ids=["scalar", "2-d"])
def test_ks_must_be_one_dimensional(engine, ks):
    # a scalar gave shape (1, 1) in the closed form and numpy's TypeError in
    # the oracle, and a 2-d ks numpy's broadcast errors in both
    spec = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4)
    with pytest.raises(ValueError, match="^ks must be one-dimensional"):
        if engine == "oracle":
            transmission_oracle_arrays(spec, ks)
        else:
            transmission_ucp_arrays([spec], ks)


_ONE_D = r"^ks must be one-dimensional, got shape "


@pytest.mark.parametrize("call, message", [
    (lambda spec: transmission_ucp(spec, [1.0]), _ONE_D + r"\(1, 1\)$"),
    (lambda spec: saturation_scan(spec, 3, 2.0), _ONE_D + r"\(\)$"),
    (lambda spec: bloch_sequence(spec, [1.0]), _ONE_D + r"\(1, 1\)$"),
    (lambda spec: scattering.transmission_spp(25.0, 1.0, [2], [3.0], [1.0]),
     _ONE_D + r"\(1, 1\)$"),
    (lambda spec: reflection_asymptote(spec, 10.0, [300.0]), _ONE_D + r"\(1, 1\)$"),
    (lambda spec: bloch_sequence_arrays(spec, 2.0), _ONE_D + r"\(\)$"),
    (lambda spec: transmission_spp_arrays(25.0, 1.0, [2], [3.0], [[1.0]]), _ONE_D + r"\(1, 1\)$"),
    (lambda spec: reflection_asymptote_arrays(spec, 10.0, 300.0), _ONE_D + r"\(\)$"),
], ids=["transmission_ucp", "saturation_scan", "bloch_sequence", "transmission_spp",
        "reflection_asymptote", "bloch_sequence_arrays", "transmission_spp_arrays",
        "reflection_asymptote_arrays"])
def test_a_k_that_is_not_one_number_is_refused_as_the_arrays_entries_refuse_it(call, message):
    # each entry but the first raised a TypeError, or numpy's ValueError about an
    # inhomogeneous shape
    spec = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4)
    with pytest.raises(ValueError, match=message):
        call(spec)


# every entry that reads k, with one k or with a list of two
K_ENTRIES = {
    "transmission_ucp": transmission_ucp,
    "transmission_ucp_arrays": lambda spec, k: transmission_ucp_arrays([spec], [k, k]),
    "bloch_sequence": bloch_sequence,
    "transmission_oracle": transmission_oracle,
    "transmission_oracle_arrays": lambda spec, k: transmission_oracle_arrays(spec, [k, k]),
    "transmission_spp": lambda spec, k: scattering.transmission_spp(25.0, 1.0, [2], [3.0], k),
    "reflection_asymptote": lambda spec, k: reflection_asymptote(spec, 10.0, k),
    "saturation_scan": lambda spec, k: saturation_scan(spec, 3, [k, k]),
    "bloch_sequence_arrays": lambda spec, k: bloch_sequence_arrays(spec, [k, k]),
    "transmission_spp_arrays": lambda spec, k: transmission_spp_arrays(25.0, 1.0, [2], [3.0],
                                                                       [k, k]),
    "reflection_asymptote_arrays": lambda spec, k: reflection_asymptote_arrays(spec, 10.0, [k, k]),
}


@pytest.mark.parametrize("k", ["300", 300 + 0j, Fraction(300)], ids=["str", "complex", "Fraction"])
@pytest.mark.parametrize("entry", K_ENTRIES)
def test_a_k_that_is_not_a_real_number_is_refused(entry, k):
    # a string or a Fraction was read as the number it spells, and a complex k
    # raised numpy's TypeError; a bool k is read as 0 or 1, as a bool stage is
    spec = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4)
    with pytest.raises(ValueError, match=r"^wavenumbers must be real numbers, got dtype \w+$"):
        K_ENTRIES[entry](spec, k)


def test_empty_batches():
    spec = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4)
    for specs_, ks, shape in [([], [1.0, 2.0, 3.0], (0, 3)), ([spec], [], (1, 0)),
                              ([spec, spec], [], (2, 0)), ([], [], (0, 0))]:
        assert [x.shape for x in transmission_ucp_arrays(specs_, ks)] == [shape] * 3
    assert [x.shape for x in transmission_oracle_arrays(spec, [])] == [(0,)] * 3
    assert [x.shape for x in transmission_spp_arrays(25.0, 1.0, [2], [3.0], [])] == [(0,)] * 3
    assert bloch_sequence_arrays(spec, []).shape == (4, 0)
    assert bloch_sequence_arrays(dataclasses.replace(spec, G=0), [1.0, 2.0]).shape == (0, 2)
    assert reflection_asymptote_arrays(spec, 10.0, []).shape == (0,)


# the one-point calls that are views of an arrays entry of their own module
VIEWS = {"bloch_sequence": (scattering, (UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4), 2.0)),
         "transmission_spp": (scattering, (25.0, 1.0, [2], [3.0], 2.0)),
         "reflection_asymptote": (analysis,
                                  (UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4), 10.0, 300.0))}


@pytest.mark.parametrize("name", VIEWS)
def test_a_one_point_call_runs_its_arrays_entry_at_one_k(monkeypatch, name):
    # once, on [k]; the property tests below hold every value to the entry's
    module, args = VIEWS[name]
    entry, calls = getattr(module, name + "_arrays"), []
    monkeypatch.setattr(module, name + "_arrays", lambda *a: calls.append(a) or entry(*a))
    getattr(module, name)(*args)
    assert calls == [(*args[:-1], [args[-1]])]


# k that every one-point call refuses: not positive, not finite, or |V|/(2k^2) past 2**400
REFUSED_KS = [0.0, -0.0, -2.0, math.nan, math.inf, 1e-300]


@st.composite
def k_lists(draw, k=wavenumbers, refused=REFUSED_KS, inserts=(0, 0, 0, 1, 2)):
    """0 to 6 k drawn from k, and now and then one or two refused k inserted anywhere."""
    n = draw(st.sampled_from(range(7)))
    ks = draw(st.lists(k, min_size=n, max_size=n))
    for _ in range(draw(st.sampled_from(inserts))):
        ks.insert(draw(st.integers(0, len(ks))), draw(st.sampled_from(refused)))
    return ks


def assert_arrays_entry_is_its_one_point_calls(entry, point, per_k, ks):
    """entry(ks) is point(k) at each k, repr and so every bit, per_k(entry(ks))
    listing its values by k; or, if point refuses a k, entry(ks) raises the
    refusal of the first such k, one line."""
    points = []
    for k in ks:
        try:
            points.append(point(k))
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                entry(ks)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
            assert "\n" not in str(exc)
            return
    assert repr(per_k(entry(ks))) == repr(points)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(specs(64), k_lists())
@example(UcpSpec(L=5, V=-25, rho=3, alpha=1, beta=0, G=64), [0.5, 2.0, 7.0])
@example(UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=0), [2.0, 3.0])
@example(UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=64), [])
@settings(max_examples=100, deadline=None)
def test_bloch_sequence_arrays_is_its_one_point_calls(spec, ks):
    assert_arrays_entry_is_its_one_point_calls(
        lambda ks: bloch_sequence_arrays(spec, ks), lambda k: bloch_sequence(spec, k),
        lambda phases: [tuple(column) for column in phases.T.tolist()], ks)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.floats(-1e3, 3e4), st.floats(0.01, 3.0),
       # up to 64 orders of 1 to 5 copies, a gap of -0.5 (a spacing below the span) to 3
       st.lists(st.tuples(st.integers(1, 5), st.floats(-0.5, 3.0)), max_size=64), k_lists())
@example(-25.0, 1.0, [(2, 1.0)] * 64, [0.5, 2.0])
@example(25.0, 1.0, [], [])
@settings(max_examples=100, deadline=None)
def test_transmission_spp_arrays_is_its_one_point_calls(V, width, orders, ks):
    Ns, ss, span = [], [], width
    for n, gap in orders:
        Ns.append(n)
        ss.append(span + gap)
        span = (n - 1) * ss[-1] + span
    assert_arrays_entry_is_its_one_point_calls(
        lambda ks: transmission_spp_arrays(V, width, Ns, ss, ks),
        lambda k: transmission_spp(V, width, Ns, ss, k), records, ks)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(specs(64), st.floats(0.1, 100.0), k_lists(st.floats(0.3, 300.0)))
@example(UcpSpec(L=1, V=-1, rho=2.5, alpha=0.5, beta=1, G=64), 10.0, [3.0, 30.0])
@example(UcpSpec(L=1, V=1, rho=3, alpha=1, beta=0, G=0), 10.0, [])
# k = 0.0316 fits a double, k = 9.5e-4 is the first whose asymptote does not
@example(UcpSpec(L=1e160, V=25, rho=3, alpha=1, beta=0, G=0), 1e-8, [100.0, 3.0, 1.0])
@settings(max_examples=100, deadline=None)
def test_reflection_asymptote_arrays_is_its_one_point_calls(spec, V0, factors):
    # k from 0.3 to 300 times sqrt(10 V_G): most pass the guard V_G/k^2 < 0.1
    try:
        unit = math.sqrt(10.0 * constant_area_height(spec, V0))
    except ValueError:
        unit = 1.0
    ks = [c * unit for c in factors]
    assert_arrays_entry_is_its_one_point_calls(
        lambda ks: reflection_asymptote_arrays(spec, V0, ks),
        lambda k: reflection_asymptote(spec, V0, k), lambda asymptote: asymptote.tolist(), ks)


# d_1 = 1e308 against l_1 = 5e297: from k = 1.8 on a gap's k*d overflows, though
# kappa l_1 fits a double; below k = 1 the barrier is too opaque at V = 1
WIDE = UcpSpec(L=1e308, V=1, rho=2, alpha=1.4426950409e-10, beta=0, G=1)
ONE_RULE_SPECS = [
    WIDE,
    dataclasses.replace(WIDE, V=-1.0),  # never opaque: a small k passes 2**400 instead
    UcpSpec(L=400, V=400, rho=3, alpha=3, beta=0, G=2),  # too opaque at k = 1
    UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=3),
    UcpSpec(L=1e200, V=1, rho=2, alpha=1, beta=0, G=1),  # every asymptote overflows
]
# one refused k of each kind at some spec above: negative, NaN, |V|/(2k^2) past
# 2**400, too opaque, k*d past a double at 10 and 1e6, and k**2 past it at 1e200
MIXED_REFUSALS = [-1.0, math.nan, 1e-150, 0.5, 1.0, 10.0, 1e6, 1e200]


def spp_stage(spec):
    """transmission_spp's arguments but k for spec's stage-G system: N_f = 2 at the super-periods."""
    return (spec.V, geometry.segment_length(spec, spec.G), [2] * spec.G,
            [geometry.super_period(spec, f) for f in range(1, spec.G + 1)])


# entry name -> (the arrays call, and its one-point calls in the order of its
# points) at the specs, the first of which the entries of one spec take, and ks
ONE_RULE_ENTRIES = {
    "transmission_ucp_arrays": (
        transmission_ucp_arrays,
        lambda specs, ks: [(transmission_ucp, s, k) for s in specs for k in ks]),
    "transmission_oracle_arrays": (
        lambda specs, ks: transmission_oracle_arrays(specs[0], ks),
        lambda specs, ks: [(transmission_oracle, specs[0], k) for k in ks]),
    "bloch_sequence_arrays": (
        lambda specs, ks: bloch_sequence_arrays(specs[0], ks),
        lambda specs, ks: [(bloch_sequence, specs[0], k) for k in ks]),
    "transmission_spp_arrays": (
        lambda specs, ks: transmission_spp_arrays(*spp_stage(specs[0]), ks),
        lambda specs, ks: [(transmission_spp, *spp_stage(specs[0]), k) for k in ks]),
    "reflection_asymptote_arrays": (
        lambda specs, ks: reflection_asymptote_arrays(specs[0], 1.0, ks),
        lambda specs, ks: [(reflection_asymptote, specs[0], 1.0, k) for k in ks]),
    # its points in row-major (stage, k) order
    "saturation_scan": (
        lambda specs, ks: saturation_scan(specs[0], 0, ks),
        lambda specs, ks: [(transmission_ucp, dataclasses.replace(specs[0], G=g), k)
                           for g in range(specs[0].G + 1) for k in ks]),
}


def test_the_mixed_refusals_are_of_every_kind():
    wide, wide_below_0, thick = ONE_RULE_SPECS[:3]
    for spec, k, message in [(wide, -1.0, "must be positive and finite, got -1.0"),
                             (wide, math.nan, "must be positive and finite, got nan"),
                             (wide_below_0, 1e-150, "exceeds 2**400"),
                             (wide, 0.5, "too opaque"), (thick, 1.0, "too opaque"),
                             (wide, 10.0, "gap too wide"),
                             (ONE_RULE_SPECS[-1], 1e200, "out of range")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            transmission_ucp(spec, k)
    with pytest.raises(ValueError, match="asymptote overflows"):
        reflection_asymptote(ONE_RULE_SPECS[-1], 1.0, 10.0)


# (specs, ks) that the one rule is always checked at
ONE_RULE_CASES = [
    # a k*d overflow before a negative k: the negative k was named
    ([WIDE], [10.0, -1.0]),
    ([WIDE], [1e6, -1.0]),
    # an asymptote that overflows before a k that the Bloch pass refuses
    ([ONE_RULE_SPECS[-1]], [10.0, 1e200]),
    # k l_0 overflows, kappa l_0 does not: in a table that runs G = 1, the row past
    # the G = 0 spec's stage count holds l_0, which is no gap of its own
    ([UcpSpec(L=1.5e154, V=1e308, rho=2, alpha=1, beta=0, G=G) for G in (1, 0)], [1.3e154]),
]


def one_rule_examples(test):
    """test with an example of each of ONE_RULE_CASES."""
    for specs, ks in ONE_RULE_CASES:
        test = example(specs, ks)(test)
    return test


def first_refusal(calls):
    """The type and text of the first ValueError that calls, each (function,
    *args), raise in order; None if none raises."""
    for function, *args in calls:
        try:
            function(*args)
        except ValueError as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("entry", ONE_RULE_ENTRIES)
@given(st.lists(st.sampled_from(ONE_RULE_SPECS), min_size=1, max_size=2),
       k_lists(st.floats(1.1, 1.7), MIXED_REFUSALS, inserts=(0, 1, 2, 3)))
@one_rule_examples
@settings(max_examples=60, deadline=None)
def test_every_arrays_entry_raises_its_first_refused_points_error(entry, specs, ks):
    """The one rule: an arrays entry raises the error that the one-point call
    raises at its first refused point, whatever kind each refusal is of."""
    assume(ks or entry != "saturation_scan")  # which needs a k to compare the stages at
    arrays, points = ONE_RULE_ENTRIES[entry]
    assert first_refusal([(arrays, specs, ks)]) == first_refusal(points(specs, ks))


@pytest.mark.parametrize("entry", ONE_RULE_ENTRIES)
@pytest.mark.parametrize("specs, ks", ONE_RULE_CASES)
def test_no_arrays_entry_calls_a_one_point_view(monkeypatch, entry, specs, ks):
    # the asymptote's entry reran each k before a refused one as a one-point call
    arrays, points = ONE_RULE_ENTRIES[entry]
    want = first_refusal(points(specs, ks))

    def view(*args):
        raise AssertionError("an arrays entry called a one-point view")

    for module, name in [(scattering, "transmission_ucp"), (oracle, "transmission_oracle"),
                         (scattering, "transmission_spp"), (scattering, "bloch_sequence"),
                         (analysis, "reflection_asymptote")]:
        monkeypatch.setattr(module, name, view)
    assert first_refusal([(arrays, specs, ks)]) == want


def test_a_refused_k_costs_the_asymptote_at_most_one_more_pass(monkeypatch):
    # one refused k after 1000 guard-passing k made one pass per earlier k
    spec = UcpSpec(L=1e11, V=1, rho=3, alpha=1, beta=0, G=6)
    ks = [10 ** (2 + 2 * j / 999) for j in range(1000)]
    passes, repetition = [], scattering._repetition
    monkeypatch.setattr(scattering, "_repetition",
                        lambda *args: passes.append(args) or repetition(*args))
    with pytest.raises(ValueError) as info:
        reflection_asymptote_arrays(spec, 1.0, [*ks, 1e300])
    assert str(info.value) == ("wavenumber k = 1e+300 out of range: the terms of a barrier "
                               "of height 11.3906 and width 1.37174e+08 overflow a double")
    assert len(passes) <= 2


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
            scattering._barrier_rows(k, V, width, gap=0.0)
        assert str(raised.value) == want
    else:
        got = scattering._barrier_rows(k, V, width, gap=0.0)
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
        scattering._barrier_rows(np.array([1.0, 1e10]), 1.0, 1e300, gap=0.0)
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
    m12_abs = np.array([math.hypot(q, r) for q, r, _ in points])
    exp2 = np.array([e for _, _, e in points])
    want = []
    for m_i, e in zip(m12_abs.tolist(), exp2.tolist()):
        log_x = None if m_i == 0.0 else 2.0 * (math.log(m_i) + e * math.log(2.0))
        want.append(assemble(log_x))
    got = scattering._results(m12_abs, exp2)
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


def test_drift_warns_once_per_k_in_input_order(monkeypatch):
    spec = UcpSpec(L=5, V=25, rho=3, alpha=1, beta=0, G=4)
    ks = [3.0, 0.5, 2.0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        transmission_oracle_arrays(spec, ks)
        assert caught == []
        monkeypatch.setattr(oracle, "_DET_DRIFT_TOL", -1.0)  # every drift exceeds it
        transmission_oracle_arrays(spec, ks)
    assert all(w.category is UserWarning for w in caught)
    messages = [str(w.message) for w in caught]
    assert [m.rsplit(", ", 1)[1] for m in messages] == [f"k={k:g}" for k in ks]
    assert all(m.startswith("oracle determinant drift ") and " at G=4, " in m for m in messages)
