"""Seeded workload generation and the output checks of the benchmark."""

import contextlib
import io

import pytest

import workloads
from ucpscatter.cli import main


def _cli_output(w: workloads.Workload) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([*w.argv, "--workers", "1"]) == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_inputs_but_not_shape(name):
    a, b, c = workloads.make(name, 3), workloads.make(name, 3), workloads.make(name, 4)
    assert a == b
    assert a.argv != c.argv
    assert a.argv[0] == c.argv[0] and a.points == c.points


def test_sweep_check_flags_one_wrong_value():
    w = workloads.make("sweep", 0)
    text = _cli_output(w)
    good = workloads.check(w, text)
    assert good.errors == [] and good.points == w.points

    lines = text.splitlines()
    row = len(lines) // 2
    k, t, r, log10_t = lines[row].split(",")

    def off_by(err: float) -> workloads.Verdict:
        lines[row] = ",".join([k, t, r, repr(float(log10_t) + err)])
        return workloads.check(w, "\n".join(lines) + "\n")

    # past 1e-6 the point counts as failed; past the gate it also fails the run
    small, large = off_by(1e-5), off_by(1e-3)
    assert small.errors == [] and large.errors == []
    assert small.failed_points == large.failed_points == good.failed_points + 1
    assert small.gated_points == good.gated_points == 0
    assert large.gated_points == 1
    assert small.max_dlog10t >= 1e-5

    assert workloads.check(w, "\n".join(lines[:-1]) + "\n").errors


def test_grid_check_flags_a_wrong_validity():
    w = workloads.make("grid", 0)
    text = _cli_output(w)
    good = workloads.check(w, text)
    assert good.errors == [] and good.failed_points == 0
    # the alpha = beta = 0 corner is invalid and has no T
    assert any(line.startswith("0,0,") and line.endswith(",0,") for line in text.splitlines())

    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.endswith(",0,"))
    lines[row] = lines[row][: -len(",0,")] + ",1,0.5"
    assert workloads.check(w, "\n".join(lines) + "\n").errors
