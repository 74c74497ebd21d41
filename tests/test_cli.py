import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import math
import pathlib
import re
import sys
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ucpscatter.geometry as geometry
from ucpscatter import (InvalidSpecError, saturation_scan, transmission_oracle_arrays,
                        transmission_ucp, transmission_ucp_arrays, UcpSpec, __version__)
from ucpscatter import cli
from ucpscatter.cli import EXIT_INVALID_SPEC, EXIT_OK, EXIT_ORACLE_INFEASIBLE, main


SPEC_ARGS = [
    "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5", "--beta", "1", "--G", "3",
]
# a grid of one (beta, rho) and one k, its alpha axis left to each test
GRID_ARGS = ["grid", "--L", "5", "--V", "25", "--G", "3", "--k", "1", "--beta", "1",
             "--rho", "2.5"]


def run(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main(args + ["--out", str(out), "--workers", "1"])
    return code, out.read_text()


def main_output(argv):
    """(exit code, stdout, stderr) of one main() call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def grid_output_cell_by_cell(L, V, G, axes, ks):
    """(exit code, stdout, stderr) that grid gives, built from one UcpSpec and
    one-point transmission_ucp calls per cell and each value formatted by
    itself; a bad point's ValueError is the first in row-major order."""
    lines = [f"# L={L:.17g}", f"# V={V:.17g}", f"# G={G}", "alpha,beta,rho,k,valid,T"]
    for a, b, rho in itertools.product(axes["alpha"], axes["beta"], axes["rho"]):
        try:
            spec = UcpSpec(L=L, V=V, rho=rho, alpha=a, beta=b, G=G)
        except InvalidSpecError:
            spec = None
        for k in ks:
            cells = [format(x, ".17g") for x in (a, b, rho, k)]
            if spec is None:
                cells += ["0", ""]
            else:
                try:
                    cells += ["1", format(transmission_ucp(spec, k).transmission, ".17g")]
                except ValueError as exc:
                    return EXIT_INVALID_SPEC, "", f"invalid input: {exc}\n"
            lines.append(",".join(cells))
    return EXIT_OK, "\n".join(lines) + "\n", ""


def parse_csv(text):
    headers = [l for l in text.splitlines() if l.startswith("#")]
    body = [l for l in text.splitlines() if l and not l.startswith("#")]
    return headers, body[0].split(","), [l.split(",") for l in body[1:]]


class TestTransmission:
    def test_sweep_values_match_library(self, tmp_path):
        code, text = run(
            ["transmission", *SPEC_ARGS, "--kmin", "1", "--kmax", "4", "--nk", "4"],
            tmp_path,
        )
        assert code == EXIT_OK
        headers, cols, rows = parse_csv(text)
        assert cols == ["k", "T", "R", "log10_T"]
        assert "# L=5" in headers and "# G=3" in headers
        assert len(rows) == 4
        spec = UcpSpec(L=5, V=25, rho=2.5, alpha=0.5, beta=1, G=3)
        for row in rows:
            k = float(row[0])
            res = transmission_ucp(spec, k)
            assert float(row[1]) == res.transmission
            assert float(row[2]) == res.reflection
            assert float(row[3]) == res.log10_transmission

    @pytest.mark.parametrize("L", range(2125, 2132))
    def test_entries_near_a_doubles_limit_warn_nothing(self, L):
        # cosh(kappa w_1) nears 1e308 at k = 1: every entry fits a double, but
        # a sum of their sizes in either engine's rescale test may not
        code, out, err = main_output(
            ["transmission", "--L", str(L), "--V", "2", "--rho", "3", "--alpha", "1",
             "--beta", "0", "--G", "1", "--kmin", "0.999999", "--kmax", "1.000001", "--nk", "2",
             "--engine", "both"])
        assert (code, err) == (EXIT_OK, "")
        assert len(parse_csv(out)[2]) == 2

    def test_roundtrip_precision(self, tmp_path):
        # 17 significant digits reproduce the doubles exactly
        _, text = run(
            ["transmission", *SPEC_ARGS, "--kmin", "0.7", "--kmax", "9.3", "--nk", "11"],
            tmp_path,
        )
        _, _, rows = parse_csv(text)
        spec = UcpSpec(L=5, V=25, rho=2.5, alpha=0.5, beta=1, G=3)
        for row in rows:
            assert float(row[1]) == transmission_ucp(spec, float(row[0])).transmission

    def test_log_scale_grid(self, tmp_path):
        _, text = run(
            ["transmission", *SPEC_ARGS, "--kmin", "1", "--kmax", "100", "--nk", "3",
             "--scale", "log"],
            tmp_path,
        )
        _, _, rows = parse_csv(text)
        ks = [float(r[0]) for r in rows]
        assert ks == pytest.approx([1.0, 10.0, 100.0])

    def test_both_engine_reports_diff(self, tmp_path):
        code, text = run(
            ["transmission", *SPEC_ARGS, "--kmin", "1", "--kmax", "4", "--nk", "5",
             "--engine", "both"],
            tmp_path,
        )
        assert code == EXIT_OK
        headers, cols, rows = parse_csv(text)
        assert cols == ["k", "T", "R", "log10_T", "T_oracle", "abs_diff"]
        footer = [h for h in headers if h.startswith("# max_abs_diff=")]
        assert len(footer) == 1
        max_diff = float(footer[0].split("=")[1])
        assert max_diff <= 1e-9
        for row in rows:
            assert abs(float(row[1]) - float(row[4])) == float(row[5])

    def test_both_engines_below_double_range(self, tmp_path, capsys):
        # the oracle's product overflows a double unless it is carried rescaled
        code, text = run(
            ["transmission", "--engine", "both", "--L", "10", "--V", "200000", "--rho", "3",
             "--alpha", "1", "--beta", "0", "--G", "4", "--kmin", "0.5", "--kmax", "1",
             "--nk", "2"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        _, _, rows = parse_csv(text)
        for row in rows:
            assert all(math.isfinite(float(x)) for x in row)
        assert text.splitlines()[-1] == "# max_abs_diff=0"

    def test_nan_reaches_the_footer(self, tmp_path, monkeypatch):
        # max(0.0, nan) is 0.0: the footer must not hide a NaN point.  The
        # oracle's column also carries the other special doubles, and every
        # row's bytes are its values each formatted by itself
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, sys.float_info.max]
        real = cli.transmission_oracle_arrays

        def special(spec, ks):
            results = real(spec, ks)
            for column in results:
                column[:] = specials
            return results

        monkeypatch.setattr(cli, "transmission_oracle_arrays", special)
        code, text = run(
            ["transmission", *SPEC_ARGS, "--kmin", "1", "--kmax", "4", "--nk", "7",
             "--engine", "both"],
            tmp_path,
        )
        assert code == EXIT_OK
        _, _, rows = parse_csv(text)
        assert rows[0][5] == "nan"
        assert text.splitlines()[-1] == "# max_abs_diff=nan"
        ks = np.linspace(1.0, 4.0, 7)
        t, r, log10_t = (x[0] for x in transmission_ucp_arrays(
            [UcpSpec(L=5, V=25, rho=2.5, alpha=0.5, beta=1, G=3)], ks))
        values = zip(ks.tolist(), t.tolist(), r.tolist(), log10_t.tolist(), specials,
                     np.abs(t - specials).tolist())
        assert [",".join(row) for row in rows] == [
            ",".join(format(x, ".17g") for x in row) for row in values]

    @pytest.mark.parametrize("beta, G", [("-1000", "1"), ("-900", "2")])
    def test_ratio_past_a_double_matches_the_oracle(self, tmp_path, beta, G):
        # rho**-beta = 11**1000 overflowed a double: an OverflowError traceback
        code, text = run(
            ["transmission", "--L", "1", "--V", "1", "--rho", "11", "--alpha", "2000",
             "--beta", beta, "--G", G, "--kmin", "1", "--kmax", "2", "--nk", "2"],
            tmp_path,
        )
        assert code == EXIT_OK
        spec = UcpSpec(L=1, V=1, rho=11, alpha=2000, beta=float(beta), G=int(G))
        _, _, rows = parse_csv(text)
        log10_t = transmission_oracle_arrays(spec, [float(row[0]) for row in rows])[2]
        assert [float(row[3]) for row in rows] == pytest.approx(log10_t.tolist(), rel=0,
                                                                abs=1e-9)

    def test_zero_height_transmits_everywhere(self, tmp_path):
        _, text = run(
            ["transmission", "--L", "5", "--V", "0", "--rho", "2.5", "--alpha", "0.5",
             "--beta", "1", "--G", "3", "--kmin", "1", "--kmax", "4", "--nk", "7"],
            tmp_path,
        )
        _, _, rows = parse_csv(text)
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_worker_count_does_not_change_output(self, tmp_path):
        base = ["transmission", *SPEC_ARGS, "--kmin", "0.5", "--kmax", "12", "--nk", "40"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(base + ["--out", str(a), "--workers", "1"]) == EXIT_OK
        assert main(base + ["--out", str(b), "--workers", "4"]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_invalid_spec_exit_code(self, tmp_path, capsys):
        code = main(
            ["transmission", "--L", "5", "--V", "25", "--rho", "0.5", "--alpha", "1",
             "--beta", "0", "--G", "2", "--kmin", "1", "--kmax", "2", "--nk", "2"]
        )
        assert code == EXIT_INVALID_SPEC
        assert "invalid spec" in capsys.readouterr().err

    def test_oracle_infeasible_exit_code(self, tmp_path, capsys):
        code = main(
            ["transmission", "--L", "5", "--V", "25", "--rho", "3", "--alpha", "1",
             "--beta", "0", "--G", "17", "--kmin", "1", "--kmax", "2", "--nk", "2",
             "--engine", "oracle", "--workers", "1"]
        )
        assert code == EXIT_ORACLE_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_config_file_fills_missing_options(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "L = 5\nV = 25\nrho = 2.5\nalpha = 0.5\nbeta = 1\nG = 3\n"
            "kmin = 1\nkmax = 4\nnk = 4\n"
        )
        direct = tmp_path / "direct.csv"
        viacfg = tmp_path / "viacfg.csv"
        assert main(["transmission", *SPEC_ARGS, "--kmin", "1", "--kmax", "4",
                     "--nk", "4", "--out", str(direct), "--workers", "1"]) == EXIT_OK
        assert main(["transmission", "--config", str(cfg), "--out", str(viacfg),
                     "--workers", "1"]) == EXIT_OK
        assert direct.read_text() == viacfg.read_text()

    def test_config_comment_and_blank_lines_are_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# the spec\nL = 5\nV = 25\n\nrho = 2.5\nalpha = 0.5\nbeta = 1\n")
        k_range = ["--kmin", "1", "--kmax", "4", "--nk", "4"]
        want = main_output(["transmission", *SPEC_ARGS, *k_range])
        assert want[0] == EXIT_OK
        assert main_output(["transmission", "--G", "3", *k_range, "--config", str(cfg)]) == want

    def test_json_config_and_cli_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "L": 5, "V": 25, "rho": 2.5, "alpha": 0.5, "beta": 1, "G": 3,
            "kmin": 1, "kmax": 4, "nk": 4,
        }))
        out = tmp_path / "o.csv"
        # explicit --G wins over the config value
        assert main(["transmission", "--config", str(cfg), "--G", "0",
                     "--out", str(out), "--workers", "1"]) == EXIT_OK
        assert "# G=0" in out.read_text()


class TestGrid:
    def test_degenerate_grid_matches_point(self, tmp_path):
        code, text = run(
            ["grid", "--L", "5", "--V", "25", "--G", "3", "--alpha", "0.5",
             "--beta", "1", "--rho", "2.5", "--k", "2.0"],
            tmp_path,
        )
        assert code == EXIT_OK
        _, cols, rows = parse_csv(text)
        assert cols == ["alpha", "beta", "rho", "k", "valid", "T"]
        assert len(rows) == 1
        spec = UcpSpec(L=5, V=25, rho=2.5, alpha=0.5, beta=1, G=3)
        assert rows[0][4] == "1"
        assert float(rows[0][5]) == transmission_ucp(spec, 2.0).transmission

    def test_geometry_once_per_valid_cell(self, tmp_path, monkeypatch):
        tables, specs = [], []
        build, check = cli._width_table, UcpSpec.__post_init__
        monkeypatch.setattr(cli, "_width_table",
                            lambda L, *c: tables.append((len(L), c[-1])) or build(L, *c))
        monkeypatch.setattr(UcpSpec, "__post_init__", lambda spec: specs.append(1) or check(spec))
        # 9 cells, the (0, 0) corner invalid, 3 k each: one table of the 8 valid
        # cells at G = 4, and a UcpSpec per axis value or (alpha, beta) pair, not per cell
        code, _ = run(["grid", "--L", "5", "--V", "25", "--G", "4", "--alpha-range", "0:1:3",
                       "--beta-range", "0:1:3", "--rho", "2.5", "--k", "1,2,3"], tmp_path)
        assert code == EXIT_OK
        assert tables == [(8, [4] * 8)]
        assert len(specs) == 1 + 1 + 3 * 3  # L, V and G; the rho axis; the pairs

    def test_invalid_points_flagged_not_fatal(self, tmp_path):
        # alpha axis crosses 0 with beta = 0: the (0, 0) corner is invalid
        code, text = run(
            ["grid", "--L", "1", "--V", "5", "--G", "2", "--alpha-range", "0:1:3",
             "--beta", "0", "--rho", "3", "--k", "1.5"],
            tmp_path,
        )
        assert code == EXIT_OK
        _, _, rows = parse_csv(text)
        assert len(rows) == 3
        flags = [r[4] for r in rows]
        assert flags == ["0", "1", "1"]
        assert rows[0][5] == ""

    def test_rows_line_up_with_one_point_calls(self, tmp_path):
        # one batch call spans every valid spec of the cube: each valid row
        # must carry its own point's T, with the invalid (0, 0) rows between
        code, text = run(
            ["grid", "--L", "5", "--V", "25", "--G", "3", "--alpha-range", "0:1:3",
             "--beta-range", "0:2:3", "--rho-range", "2.5:4:2", "--k", "0.7,2.5,6"],
            tmp_path,
        )
        assert code == EXIT_OK
        _, _, rows = parse_csv(text)
        assert len(rows) == 3 * 3 * 2 * 3
        assert [r[4] for r in rows[:6]] == ["0"] * 6  # alpha = beta = 0, both rho
        valid = [r for r in rows if r[4] == "1"]
        assert len(valid) == len(rows) - 6
        for a, b, rho, k, _, t in valid:
            spec = UcpSpec(L=5, V=25, rho=float(rho), alpha=float(a), beta=float(b), G=3)
            assert float(t) == transmission_ucp(spec, float(k)).transmission

    def test_nan_exponent_flagged_not_fatal(self, tmp_path):
        code, text = run(
            ["grid", "--L", "1", "--V", "5", "--G", "2", "--alpha-range", "0.5:1:2",
             "--beta", "nan", "--rho", "3", "--k", "1.5"],
            tmp_path,
        )
        assert code == EXIT_OK
        _, _, rows = parse_csv(text)
        assert [(r[4], r[5]) for r in rows] == [("0", ""), ("0", "")]

    def test_readme_example_has_a_row_per_cell_and_k(self):
        code, out, err = main_output(
            ["grid", "--L", "5", "--V", "25", "--G", "4", "--alpha-range", "0:1:11",
             "--beta-range", "0:2:11", "--rho", "2.5", "--k", "1.0,2.5,5.0"])
        assert (code, err) == (EXIT_OK, "")
        headers, cols, rows = parse_csv(out)
        assert headers == ["# L=5", "# V=25", "# G=4"]
        assert cols == ["alpha", "beta", "rho", "k", "valid", "T"]
        assert len(rows) == 11 * 11 * 1 * 3

    def test_full_cartesian_size(self, tmp_path):
        _, text = run(
            ["grid", "--L", "1", "--V", "5", "--G", "1", "--alpha-range", "0.5:1:2",
             "--beta-range", "0:1:3", "--rho-range", "2:4:2", "--k", "1,2,3"],
            tmp_path,
        )
        _, _, rows = parse_csv(text)
        assert len(rows) == 2 * 3 * 2 * 3


    @pytest.mark.parametrize("axes", [
        # the invalid alpha = beta = 0 corner, with 0, 0.5 and 1 on both axes
        {"alpha": [0.0, 0.5, 1.0], "beta": [0.0, 0.5, 1.0], "rho": [2.5, 4.0]},
        {"alpha": [-0.0], "beta": [0.0, 1.0], "rho": [3.0]},  # -0.0 prints as -0
        {"alpha": [0.5, 1.0], "beta": [math.nan], "rho": [2.5]},
        # the extreme doubles, on axes and through T's template
        {"alpha": [5e-324], "beta": [1.0], "rho": [sys.float_info.max]},
        {"alpha": [0.0, sys.float_info.max], "beta": [1.0], "rho": [math.inf]},
        {"alpha": [-math.inf], "beta": [math.inf], "rho": [-0.0]},
    ])
    def test_bytes_match_rows_formatted_value_by_value(self, tmp_path, axes):
        ks = [0.5, 2.5, 6.0]
        argv = ["grid", "--L", "5", "--V", "25", "--G", "3", "--k", "0.5,2.5,6"]
        for name, values in axes.items():
            if len(values) == 1:
                argv.append(f"--{name}={values[0]!r}")  # = keeps -inf a value
            else:
                argv += [f"--{name}-range", f"{values[0]!r}:{values[-1]!r}:{len(values)}"]
        code, text = run(argv, tmp_path)
        assert (code, text, "") == grid_output_cell_by_cell(5.0, 25.0, 3, axes, ks)

    # NaN, +-inf and +-0.0 on every axis; rho at 1 and 1 +- 1 ulp; negative
    # betas whose stage bound (2, 3 or 4 at alpha = 1) falls on either side of G
    @given(st.fixed_dictionaries({
        "alpha": st.lists(st.sampled_from(
            [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 0.5, 1.0]), min_size=1, max_size=3),
        "beta": st.lists(st.sampled_from(
            [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -0.2, -0.25, -0.3, -0.49]),
            min_size=1, max_size=3),
        "rho": st.lists(st.sampled_from(
            [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, math.nextafter(1.0, 0.0),
             math.nextafter(1.0, 2.0), 2.5]), min_size=1, max_size=3),
    }), st.integers(0, 5), st.lists(st.sampled_from([0.5, 2.5, 6.0, 9.75]), min_size=1,
                                    max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_bytes_match_a_spec_per_cell(self, axes, G, ks):
        argv = ["grid", "--L", "5", "--V", "25", "--G", str(G),
                "--k", ",".join(map(repr, ks))]
        with mock.patch.object(cli, "_grid_axis", lambda args, name: np.array(axes[name])):
            got = main_output(argv)
        assert got == grid_output_cell_by_cell(5.0, 25.0, G, axes, ks)


class TestGeometry:
    def test_standard_cantor_stage1(self, tmp_path):
        code, text = run(
            ["geometry", "--L", "1", "--V", "5", "--rho", "3", "--alpha", "1",
             "--beta", "0", "--G", "1"],
            tmp_path,
        )
        assert code == EXIT_OK
        _, cols, rows = parse_csv(text)
        assert cols == ["index", "offset", "width"]
        assert len(rows) == 2
        assert float(rows[0][1]) == pytest.approx(0.0)
        assert float(rows[0][2]) == pytest.approx(1 / 3)
        assert float(rows[1][1]) == pytest.approx(2 / 3)


    def test_stage_above_cap_refused_before_building(self, monkeypatch, capsys):
        # 2**40 intervals must never be allocated: fail loudly if the build starts
        def unreachable(*columns):
            raise AssertionError("build_segments started building")

        monkeypatch.setattr(geometry, "_width_table", unreachable)
        code = main(["geometry", "--L", "1", "--V", "5", "--rho", "3", "--alpha", "1",
                     "--beta", "0", "--G", "40"])
        assert code == EXIT_ORACLE_INFEASIBLE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "G=40" in err


class TestScaling:
    def test_json_report(self, tmp_path):
        code, text = run(
            ["scaling", "--L", "1", "--rho", "1.75", "--alpha", "0.5", "--beta", "0.25",
             "--G", "5", "--V0", "25", "--kmin", "50", "--kmax", "500", "--nk", "300"],
            tmp_path,
        )
        assert code == EXIT_OK
        report = json.loads(text)
        assert report["k_window"] == [50.0, 500.0]
        assert report["slope"] == pytest.approx(-2.0, abs=0.15)
        assert report["n_used"] > 100

    def test_no_scale_flag(self):
        # fit_scaling always spaces k logarithmically, so the flag is not offered
        with pytest.raises(SystemExit) as exc:
            main(["scaling", "--L", "1", "--rho", "1.75", "--alpha", "0.5", "--beta", "0.25",
                  "--G", "5", "--V0", "25", "--kmin", "50", "--kmax", "500", "--nk", "300",
                  "--scale", "log"])
        assert exc.value.code == 2

    def test_no_height_flag(self):
        # the height is the constant-area V_G from --V0; --V is not taken for --V0 either
        with pytest.raises(SystemExit) as exc:
            main(["scaling", "--L", "1", "--rho", "1.75", "--alpha", "0.5", "--beta", "0.25",
                  "--G", "5", "--V0", "25", "--kmin", "50", "--kmax", "500", "--nk", "300",
                  "--V", "3"])
        assert exc.value.code == 2


class TestSaturation:
    def test_json_report(self, tmp_path):
        code, text = run(
            ["saturation", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5",
             "--beta", "1", "--gmin", "3", "--gmax", "6", "--kmin", "0.5",
             "--kmax", "10", "--nk", "40"],
            tmp_path,
        )
        assert code == EXIT_OK
        report = json.loads(text)
        assert report["stage_pairs"] == [[3, 4], [4, 5], [5, 6]]
        metrics = report["metrics"]
        assert len(metrics) == 3
        assert all(m > 0 for m in metrics)
        assert metrics[0] > metrics[-1]

    def test_log_scale_grid(self, tmp_path):
        code, text = run(
            ["saturation", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5",
             "--beta", "1", "--gmin", "3", "--gmax", "5", "--kmin", "0.5",
             "--kmax", "10", "--nk", "40", "--scale", "log"],
            tmp_path,
        )
        assert code == EXIT_OK
        spec = UcpSpec(L=5, V=25, rho=2.5, alpha=0.5, beta=1, G=5)
        ks = np.logspace(math.log10(0.5), math.log10(10), 40)
        expected = saturation_scan(spec, 3, [float(k) for k in ks])
        assert json.loads(text)["metrics"] == list(expected.metrics)

    def test_no_stage_flag(self):
        # the stages are --gmin..--gmax
        with pytest.raises(SystemExit) as exc:
            main(["saturation", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5",
                  "--beta", "1", "--gmin", "3", "--gmax", "5", "--kmin", "0.5",
                  "--kmax", "10", "--nk", "40", "--G", "3"])
        assert exc.value.code == 2


class TestValidate:
    def test_valid_spec(self, capsys):
        assert main(["validate", *SPEC_ARGS]) == EXIT_OK
        assert "valid:" in capsys.readouterr().out

    def test_invalid_stage_for_negative_beta(self, capsys):
        code = main(
            ["validate", "--L", "5", "--V", "25", "--rho", str(math.e), "--alpha", "2",
             "--beta", "-0.1", "--G", "20"]
        )
        assert code == EXIT_INVALID_SPEC
        err = capsys.readouterr().err
        assert "alpha + beta*G" in err

    def test_out_writes_file_not_stdout(self, tmp_path, capsys):
        out = tmp_path / "v.txt"
        assert main(["validate", *SPEC_ARGS, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("valid: L=5.0 V=25.0")


class TestBadInput:
    """Bad input exits 2 with a one-line diagnostic, never a traceback."""

    @staticmethod
    def assert_one_line_exit_2(argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_INVALID_SPEC
        assert err.count("\n") == 1 and err.startswith("invalid input: ")
        assert "Traceback" not in err
        return err

    def test_grid_nonpositive_k(self, capsys):
        self.assert_one_line_exit_2(
            ["grid", "--L", "5", "--V", "25", "--G", "3", "--alpha", "0.5", "--beta", "1",
             "--rho", "2.5", "--k", "0,1"],
            capsys,
        )

    @pytest.mark.parametrize("arg, kind", [
        ("--L=-5", "spec"), ("--V=nan", "spec"), ("--G=-1", "spec"), ("--k=-1,nan", "input"),
    ])
    def test_grid_bad_input_off_the_axes(self, arg, kind, capsys):
        # every point of this cube is invalid too: the bad input is reported
        # as such, not as rows of valid=0
        fixed = {"--L": "5", "--V": "25", "--G": "3", "--k": "1,2"}
        del fixed[arg.partition("=")[0]]
        argv = ["grid", *(f"{flag}={value}" for flag, value in fixed.items()), arg,
                "--alpha", "0", "--beta", "0", "--rho", "2.5"]
        assert main(argv) == EXIT_INVALID_SPEC
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"invalid {kind}: ")

    @pytest.mark.parametrize("name, text", [
        ("rho", "inf:3:2"),  # printed rho nan and two numpy RuntimeWarnings
        ("alpha", "1:nan:3"),  # printed alpha nan for every cell, the 1 endpoint too
        ("rho", "-1e308:1e308:3"),  # printed nan, inf, 1e308 for -1e308, 0, 1e308
    ])
    def test_grid_range_of_values_not_all_finite(self, capsys, name, text):
        fixed = {"alpha": "1", "beta": "0", "rho": "2.5"}
        del fixed[name]
        argv = ["grid", "--L", "5", "--V", "25", "--G", "3", "--k", "1",
                *(f"--{flag}={value}" for flag, value in fixed.items()), f"--{name}-range={text}"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.assert_one_line_exit_2(argv, capsys)
        assert f"--{name}-range" in err
        assert caught == []

    @pytest.mark.parametrize("argv, message", [
        (["validate", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5"],
         "missing required options: --beta, --G"),
        (["transmission", *SPEC_ARGS, "--kmin", "1", "--kmax", "2", "--nk", "1"],
         "need nk >= 2"),
        ([*GRID_ARGS, "--alpha-range", "0:1"], "--alpha-range must be MIN:MAX:COUNT"),
        ([*GRID_ARGS, "--alpha-range", "0:1:0"], "--alpha-range count must be >= 1"),
        # these printed Python's conversion text, which named no flag
        ([*GRID_ARGS, "--alpha-range", "a:1:3"],
         "--alpha-range must be MIN:MAX:COUNT, got 'a:1:3'"),
        ([*GRID_ARGS, "--alpha-range", "0:1:1.5"],
         "--alpha-range must be MIN:MAX:COUNT, got '0:1:1.5'"),
        ([*GRID_ARGS, "--alpha", "1", "--k", "abc"],
         "--k must be comma-separated numbers, got 'abc'"),
        (GRID_ARGS, "provide --alpha or --alpha-range"),
        (["saturation", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5",
          "--beta", "1", "--gmin", "3", "--gmax", "3", "--kmin", "1", "--kmax", "2",
          "--nk", "3"], "need gmax > gmin"),
    ], ids=["missing-options", "one-k", "range-of-two-fields", "range-count-0",
            "range-of-a-word", "range-count-not-an-int", "k-not-a-number", "no-alpha",
            "one-stage"])
    def test_option_refused_with_its_message(self, capsys, argv, message):
        assert message in self.assert_one_line_exit_2(argv, capsys)

    def test_config_json_that_is_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        err = self.assert_one_line_exit_2(["validate", *SPEC_ARGS, "--config", str(cfg)],
                                          capsys)
        assert "config JSON must be an object" in err

    def test_saturation_zero_kmin(self, capsys):
        self.assert_one_line_exit_2(
            ["saturation", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5",
             "--beta", "1", "--gmin", "3", "--gmax", "4", "--kmin", "0", "--kmax", "10",
             "--nk", "5"],
            capsys,
        )

    def test_scaling_too_few_points(self, capsys):
        self.assert_one_line_exit_2(
            ["scaling", "--L", "1", "--rho", "1.75", "--alpha", "0.5", "--beta", "0.25",
             "--G", "5", "--V0", "25", "--kmin", "50", "--kmax", "500", "--nk", "20"],
            capsys,
        )

    def test_config_non_integer_stage(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "L = 5\nV = 25\nrho = 2.5\nalpha = 0.5\nbeta = 1\nG = 2.5\n"
            "kmin = 1\nkmax = 4\nnk = 4\n"
        )
        self.assert_one_line_exit_2(["transmission", "--config", str(cfg)], capsys)

    def test_nan_exponent_is_an_invalid_spec(self, capsys):
        code = main(["transmission", "--L", "5", "--V", "25", "--rho", "3", "--alpha", "nan",
                     "--beta", "0", "--G", "2", "--kmin", "1", "--kmax", "2", "--nk", "2"])
        assert code == EXIT_INVALID_SPEC
        assert capsys.readouterr().err.startswith("invalid spec: ")

    @pytest.mark.parametrize("config", [
        '{"G": 2.5}',   # JSON values are converted as the flag converts text
        "G = 2\nengine = bogus\n",
        "G = 2\nscale = bogus\n",
    ], ids=["json-fractional-G", "bogus-engine", "bogus-scale"])
    def test_config_value_checked_like_its_flag(self, tmp_path, capsys, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        self.assert_one_line_exit_2(
            ["transmission", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5",
             "--beta", "1", "--kmin", "1", "--kmax", "4", "--nk", "4", "--config", str(cfg)],
            capsys,
        )

    def test_config_key_without_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scale = log\n")  # scaling has no --scale
        self.assert_one_line_exit_2(
            ["scaling", "--L", "1", "--rho", "1.75", "--alpha", "0.5", "--beta", "0.25",
             "--G", "5", "--V0", "25", "--kmin", "50", "--kmax", "500", "--nk", "300",
             "--config", str(cfg)],
            capsys,
        )

    @pytest.mark.parametrize("argv, config", [
        (["scaling", "--L", "1", "--rho", "1.75", "--alpha", "0.5", "--beta", "0.25",
          "--G", "5", "--V0", "25", "--kmin", "50", "--kmax", "500", "--nk", "300"],
         "V = 3\n"),  # scaling's height is the constant-area V_G from --V0
        (["saturation", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5",
          "--beta", "1", "--gmin", "3", "--gmax", "4", "--kmin", "0.5", "--kmax", "10",
          "--nk", "5"],
         "G = 3\n"),  # saturation's stages are --gmin..--gmax
    ], ids=["scaling-V", "saturation-G"])
    def test_config_key_of_a_flag_the_command_lacks(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        self.assert_one_line_exit_2([*argv, "--config", str(cfg)], capsys)

    @pytest.mark.parametrize("engine", ["closed_form", "oracle", "both"])
    def test_opaque_single_barrier(self, capsys, engine):
        # kappa*w = 8000i: sin(kappa*w) does not fit in a double
        self.assert_one_line_exit_2(
            ["transmission", "--L", "400", "--V", "400", "--rho", "3", "--alpha", "3",
             "--beta", "0", "--G", "0", "--kmin", "0.5", "--kmax", "1", "--nk", "2",
             "--engine", engine],
            capsys,
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("engine", ["closed_form", "oracle"])
    def test_gap_phase_past_a_double(self, capsys, engine):
        # k*d_1 = 1e309 at k = 10: its sine would be a NaN
        err = self.assert_one_line_exit_2(
            ["transmission", "--L", "1e308", "--V", "1", "--rho", "2", "--alpha",
             "1.4426950409e-10", "--beta", "0", "--G", "1", "--kmin", "1", "--kmax", "10",
             "--nk", "2", "--engine", engine],
            capsys,
        )
        assert "gap too wide" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["transmission", *SPEC_ARGS, "--kmin", "1", "--kmax", "inf", "--nk", "4"],
        ["transmission", *SPEC_ARGS, "--kmin", "1", "--kmax", "inf", "--nk", "4",
         "--scale", "log"],
        ["scaling", "--L", "1", "--V0", "10", "--rho", "1.75", "--alpha", "0.5",
         "--beta", "0.25", "--G", "5", "--kmin", "50", "--kmax", "inf", "--nk", "100"],
    ], ids=["linear", "log", "scaling"])
    def test_infinite_kmax(self, capsys, argv):
        # numpy's grid over an infinite window warned and held a NaN k
        assert "kmax=inf" in self.assert_one_line_exit_2(argv, capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        [*SPEC_ARGS, "--kmin", "1e-320", "--kmax", "1"],
        [*SPEC_ARGS, "--kmin", "1", "--kmax", "1.7e308"],
        # V/(2k) = 1.25e308 fits, times sinh(5)/5 it does not
        ["--L", "1", "--V", "25", "--rho", "2.5", "--alpha", "0.5", "--beta", "1", "--G", "0",
         "--kmin", "1e-307", "--kmax", "1"],
    ], ids=["V-over-2k", "k-squared", "V-over-2k-times-sinh"])
    def test_wavenumber_whose_barrier_terms_overflow(self, capsys, argv):
        # the barrier is not opaque (|kappa w| <= 5): the factors of k make the overflow
        err = self.assert_one_line_exit_2(["transmission", *argv, "--nk", "2"], capsys)
        assert "wavenumber k = " in err and "too opaque" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("G, kmin, kmax, engine", [
        ("40", "1e-300", "1e-30", "closed_form"),  # printed 1e-300,nan,nan,nan and exit 0
        *(("10", "1e-160", "1e-150", engine) for engine in ("closed_form", "oracle", "both")),
        ("14", "1e-160", "1e-150", "closed_form"),
    ])
    def test_wavenumber_far_below_the_height(self, capsys, G, kmin, kmax, engine):
        err = self.assert_one_line_exit_2(
            ["transmission", "--L", "25", "--V", "1e5", "--rho", "3", "--alpha", "2",
             "--beta", "0.5", "--G", G, "--kmin", kmin, "--kmax", kmax, "--nk", "5",
             "--engine", engine],
            capsys,
        )
        assert f"wavenumber k = {kmin} too small" in err and "2**400" in err

    def test_geometry_offset_past_a_double(self, capsys):
        # printed 7,inf,1.3391342255109273e+307 and exit 0
        err = self.assert_one_line_exit_2(
            ["geometry", "--L", "1.7976931348623157e308", "--V", "1e150", "--rho", "10",
             "--alpha", "2", "--beta", "-0.5", "--G", "3"],
            capsys,
        )
        assert "offsets overflow a double" in err

    def test_missing_config_file(self, tmp_path, capsys):
        self.assert_one_line_exit_2(
            ["validate", *SPEC_ARGS, "--config", str(tmp_path / "absent.cfg")], capsys
        )

    def test_unwritable_out(self, tmp_path, capsys):
        self.assert_one_line_exit_2(
            ["transmission", *SPEC_ARGS, "--kmin", "1", "--kmax", "4", "--nk", "4",
             "--out", str(tmp_path / "absent" / "out.csv")],
            capsys,
        )

    def test_huge_stage_for_the_oracle_is_infeasible(self, capsys):
        # 2**G has more digits than an int may format: the diagnostic must not need it
        code = main(["transmission", "--L", "1", "--V", "1", "--rho", "3", "--alpha", "1",
                     "--beta", "0", "--G", "20000", "--kmin", "1", "--kmax", "2", "--nk", "2",
                     "--engine", "oracle"])
        err = capsys.readouterr().err
        assert code == EXIT_ORACLE_INFEASIBLE
        assert err.count("\n") == 1 and "infeasible" in err and "G=20000" in err

    @pytest.mark.parametrize("argv", [
        ["transmission", "--L", "1", "--V", "1", "--rho", "3", "--alpha", "1", "--beta", "0",
         "--G", "1100", "--kmin", "1", "--kmax", "2", "--nk", "2"],
        ["transmission", "--L", "1", "--V", "1", "--rho", "3", "--alpha", "0", "--beta", "1",
         "--G", "1100", "--kmin", "1", "--kmax", "2", "--nk", "2"],
        ["saturation", "--L", "1", "--V", "1", "--rho", "3", "--alpha", "0", "--beta", "1",
         "--gmin", "1099", "--gmax", "1100", "--kmin", "1", "--kmax", "2", "--nk", "2"],
        ["scaling", "--L", "1", "--V0", "10", "--rho", "1.75", "--alpha", "0.5",
         "--beta", "0.25", "--G", "1100", "--kmin", "50", "--kmax", "500", "--nk", "100"],
        # l_G underflows at a different stage for each rho
        ["grid", "--L", "1", "--V", "1", "--G", "1100", "--alpha", "1", "--beta", "0",
         "--rho-range", "1.5:3:2", "--k", "1"],
    ], ids=["transmission-cantor", "transmission-svc", "saturation", "scaling", "grid"])
    def test_stage_past_a_double_power_of_two(self, capsys, argv):
        # 2.0**g overflowed from g = 1024; every barrier is narrower than a double holds
        assert "barrier width" in self.assert_one_line_exit_2(argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["transmission", *SPEC_ARGS, "--kmin", "1", "--kmax", "4", "--nk", "1000000000000000"],
        ["grid", "--L", "5", "--V", "25", "--G", "3", "--alpha-range", "0:1:1000000000000000",
         "--beta", "1", "--rho", "2.5", "--k", "1"],
        ["scaling", "--L", "1", "--V0", "10", "--rho", "1.75", "--alpha", "0.5",
         "--beta", "0.25", "--G", "5", "--kmin", "50", "--kmax", "500",
         "--nk", "1000000000000000"],
    ], ids=["transmission", "grid", "scaling"])
    def test_allocation_an_option_sizes_past_memory(self, capsys, argv):
        # 1e15 doubles do not fit a 47-bit address space: numpy refuses the
        # array before touching memory, and its MemoryError was a traceback
        assert "Unable to allocate" in self.assert_one_line_exit_2(argv, capsys)

    @pytest.mark.parametrize("command", ["transmission", "scaling"])
    def test_billion_stages_end_at_once(self, capsys, command):
        # one loop step per stage took minutes; the lengths settle after about 1100
        argv = {
            "transmission": ["--V", "1", "--kmin", "1", "--kmax", "2", "--nk", "2"],
            "scaling": ["--V0", "10", "--kmin", "50", "--kmax", "500", "--nk", "100"],
        }[command]
        start = time.perf_counter()
        self.assert_one_line_exit_2(
            [command, "--L", "1", "--rho", "3", "--alpha", "1", "--beta", "0",
             "--G", "1000000000", *argv],
            capsys,
        )
        assert time.perf_counter() - start < 1.0

    def test_saturation_past_underflow_ends_at_once_on_two_specs(self, capsys, monkeypatch):
        # one spec per stage took 11.5 s at --gmax 20000; l_g is 0 from stage 1077 on
        argv = ["saturation", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5",
                "--beta", "1", "--gmin", "3", "--kmin", "0.5", "--kmax", "10", "--nk", "10"]
        err = self.assert_one_line_exit_2([*argv, "--gmax", "1200"], capsys)
        assert err == "invalid input: barrier width must be positive, got 0.0\n"
        built = []

        def counted(spec, check=geometry.UcpSpec.__post_init__):
            built.append(spec.G)
            check(spec)

        monkeypatch.setattr(geometry.UcpSpec, "__post_init__", counted)
        start = time.perf_counter()
        assert self.assert_one_line_exit_2([*argv, "--gmax", "10000000"], capsys) == err
        assert time.perf_counter() - start < 1.0
        assert built == [3, 10000000]


ONE_OF_EACH_COMMAND = {
    "transmission": ["transmission", *SPEC_ARGS, "--kmin", "1", "--kmax", "4", "--nk", "4",
                     "--engine", "both"],
    "grid": ["grid", "--L", "5", "--V", "25", "--G", "3", "--alpha-range", "0:1:3",
             "--beta", "1", "--rho", "2.5", "--k", "1,2"],
    "geometry": ["geometry", *SPEC_ARGS],
    "scaling": ["scaling", "--L", "1", "--V0", "10", "--rho", "1.75", "--alpha", "0.5",
                "--beta", "0.25", "--G", "3", "--kmin", "50", "--kmax", "500", "--nk", "100"],
    "saturation": ["saturation", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5",
                   "--beta", "1", "--gmin", "2", "--gmax", "4", "--kmin", "0.5",
                   "--kmax", "10", "--nk", "20"],
    "validate": ["validate", *SPEC_ARGS],
}


@pytest.mark.parametrize("argv", ONE_OF_EACH_COMMAND.values(), ids=ONE_OF_EACH_COMMAND.keys())
def test_out_holds_the_bytes_stdout_would(argv, tmp_path, capsys):
    # main is the one writer: the same text goes to stdout or, whole, to --out
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


def main_outcome(argv):
    """(exit code, stdout, stderr) of one main() call, an argparse usage error included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command, flag, value", [
    ("transmission", "--V", "-2.5E1"),
    ("transmission", "--beta", "-1e-3"),
    ("grid", "--beta-range", "-0.5:-0.1:5"),
    ("grid", "--beta", "-1e-3"),
    ("geometry", "--alpha", "-inf"),
    ("scaling", "--beta", "-1e-3"),
    ("saturation", "--V", "-2.5E1"),
    ("validate", "--beta", "-1e-3"),
    ("validate", "--alpha", "-inf"),
])
def test_a_value_starting_with_a_minus_is_the_option_value(command, flag, value):
    # argparse alone reads any such token but a plain decimal as an unknown flag
    base = ONE_OF_EACH_COMMAND[command]
    if flag in base:
        i = base.index(flag)
        base = base[:i] + base[i + 2:]
    spaced = main_outcome([*base, flag, value])
    assert spaced == main_outcome([*base, f"{flag}={value}"])
    assert "usage:" not in spaced[2]


@pytest.mark.parametrize("argv, flag", [
    (["validate", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "2", "--beta", "--G", "3"],
     "--beta"),
    # -h is a flag of the parser too, so none of these takes it as its value
    (["validate", *SPEC_ARGS, "--out", "-h"], "--out"),
    (["validate", *SPEC_ARGS, "--config", "-h"], "--config"),
    (["validate", *SPEC_ARGS[:8], *SPEC_ARGS[10:], "--beta", "-h"], "--beta"),
], ids=["beta-before-a-flag", "out-h", "config-h", "beta-h"])
def test_a_missing_value_is_still_a_usage_error(argv, flag):
    code, out, err = main_outcome(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and f"argument {flag}: expected one argument" in err


@pytest.mark.parametrize("command, flag, form", [
    (command, "--" + name.replace("_", "-"), form)
    for command in cli.COMMANDS for name in cli.COMMANDS[command][1] for form in ("spaced", "=")
])
def test_a_double_dash_is_never_a_value(command, flag, form):
    # argparse up to 3.11 reads an explicit "--" as no value at all, []
    given = [flag, "--"] if form == "spaced" else [f"{flag}=--"]
    code, out, err = main_outcome([command, *given, *ONE_OF_EACH_COMMAND[command][1:]])
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and f"argument {flag}: expected one argument" in err


@pytest.mark.parametrize("flag", ["--out", "--config"])
@pytest.mark.parametrize("form", ["spaced", "="])
def test_an_empty_path_is_refused_as_a_missing_file(flag, form, capsys):
    given = [flag, ""] if form == "spaced" else [f"{flag}="]
    assert main([*ONE_OF_EACH_COMMAND["validate"], *given]) == EXIT_INVALID_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: [Errno 2] No such file or directory: ''\n"


def test_version_matches_pyproject(capsys):
    # read with a regex: tomllib is missing on Python 3.10
    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]*)"$', text, re.M) == [__version__]
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out == __version__ + "\n"


def help_of(parser, argv):
    """What parse_args prints for a --help in argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args(argv)
    return out.getvalue()


ROOT = pathlib.Path(__file__).resolve().parents[1]
_golden_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
GOLDEN = importlib.util.module_from_spec(_golden_spec)
_golden_spec.loader.exec_module(GOLDEN)


@pytest.mark.parametrize("source, name", [
    *(("readme", name) for name in GOLDEN.README),
    *(("workload", name) for name in ("sweep", "crossval", "grid", "deep")),
])
def test_a_well_formed_command_line_builds_no_parser(source, name, monkeypatch):
    # main reads these itself and writes what it writes with argparse's reading
    if source == "readme":
        argv = GOLDEN.README[name][1]
    else:  # the benchmark's own command line of the workload, at seed 1
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads
        argv = workloads.make(name, 1).argv
    plain = main_outcome(argv)

    def refuse(*args, **kwargs):
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert main_outcome(argv) == plain


def test_a_flag_before_the_command_is_the_one_unrecognized():
    # main gives flags to the first command name in argv
    code, out, err = main_outcome(["--bogus", "validate", *SPEC_ARGS])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("error: unrecognized arguments: --bogus")


def flags_of(command):
    """The flags that a command's --help lists, -h and --help left out."""
    text = help_of(cli.build_parser(command), [command, "--help"])
    return [f for f in dict.fromkeys(re.findall(r"--([A-Za-z][\w-]*)", text)) if f != "help"]


# a value for each flag that ONE_OF_EACH_COMMAND leaves out but --scale, which
# is added to the commands that have it, and --out, whose value is a path
ABSENT = {"workers": "1", "alpha": "0.5", "beta-range": "0:1:2", "rho-range": "2:3:2"}


def json_value(text):
    """The JSON value a config file would hold for text: a number, or else a string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in ONE_OF_EACH_COMMAND for flag in flags_of(command)
    if flag != "config"
])
def test_a_flag_in_a_config_file_acts_as_on_the_command_line(tmp_path, command, flag):
    argv = ONE_OF_EACH_COMMAND[command]
    argv = [*argv, "--scale", "log"] if "scale" in flags_of(command) else argv
    option = f"--{flag}"
    if option in argv:
        i = argv.index(option)
        value, argv = argv[i + 1], argv[:i] + argv[i + 2:]
    else:
        value = ABSENT.get(flag)
    outcomes = []
    for how in ("command-line", "json", "key-value"):
        where = tmp_path / how
        where.mkdir()
        text = str(where / "out.csv") if flag == "out" else value
        config = where / "run.cfg"
        if how == "json":  # a key as the flag's dest
            config.write_text(json.dumps({flag.replace("-", "_"): json_value(text)}))
        elif how == "key-value":  # a key as the flag is spelled
            config.write_text(f"{flag} = {text}\n")
        given = [option, text] if how == "command-line" else ["--config", str(config)]
        outcome = main_outcome([*argv, *given])
        written = (where / "out.csv").read_bytes() if flag == "out" else None
        outcomes.append((*outcome, written))
    assert outcomes[0][0] == EXIT_OK
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
