"""The contract every entry point keeps on bad input: it ends in a result or a
one-line refusal, never in a traceback.

cli.main is run on argv lists built from COMMANDS and _FLAGS, each flag given
a valid, an edge or a garbage token, and main's own reading of a command line
is held to argparse's wherever it answers; each number argument of the library
functions is given an int past the range of a double and values that are not
numbers, each integer argument every kind of integer and values that are not
integers, each container argument values that hold no numbers, and each spec
argument values that are no spec."""

import contextlib
import io
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ucpscatter import (InvalidSpecError, UcpSpec, bloch_sequence, bloch_sequence_arrays,
                        build_segments, constant_area_height, fit_scaling, gap_length,
                        max_valid_stage, reflection_asymptote, region_sequence, saturation_scan,
                        segment_length, super_period, transmission_oracle,
                        transmission_oracle_arrays, transmission_spp, transmission_spp_arrays,
                        transmission_ucp, transmission_ucp_arrays)
from ucpscatter.cli import COMMANDS, _FLAGS, _joined, _read, build_parser, main

# edge and garbage tokens that any flag may get
EDGE = ["-1e-3", "-inf", "-h", "--", "", "1e400", "nan", "-0.5:-0.1:5", "x", "--bogus"]
VALID = {float: ["5", "2.5", "0.5", "1", "-2.5E1", "0", "1e-3"], int: ["0", "2", "3", "6", "60"],
         str: ["1,2.5", "0:1:3", "2:3:2", "1"]}
# --out and --config read paths: a file in the working directory, or none
PATHS = {"out": ["out.csv", "no/such/dir.csv"], "config": ["run.cfg", "missing.cfg"]}
JUNK = ["--bogus", "-x", "--", "bogus", "-1e-3", "-h", "--version"]


def valid(flag):
    spec = _FLAGS[flag]
    return PATHS.get(flag) or spec.get("choices") or VALID[spec.get("type", str)]


def values(flag):
    return st.sampled_from([*valid(flag), *EDGE])


SPEC = dict(L="5", V="25", rho="2.5", alpha="0.5", beta="1")
K_RANGE = dict(kmin="0.5", kmax="10", nk="5")
# a value of every flag each command needs, with which it exits 0
RUNS = {"transmission": dict(SPEC, G="3", **K_RANGE),
        "grid": dict(L="5", V="25", G="3", alpha_range="0:1:3", beta="1", rho="2.5", k="1,2"),
        "geometry": dict(SPEC, G="3"),
        "scaling": dict(L="1", V0="10", rho="1.75", alpha="0.5", beta="0.25", G="3", kmin="50",
                        kmax="500", nk="60"),
        "saturation": dict(SPEC, gmin="2", gmax="4", **K_RANGE),
        "validate": dict(SPEC, G="3")}


@st.composite
def argvs(draw):
    """A command and its flags of RUNS in any order, up to four of them (or of
    another command's) given a drawn token, each spaced from its value, joined
    to it by '=', or with none; now and then junk before the command."""
    command = draw(st.sampled_from(list(COMMANDS)))
    given = dict(RUNS[command])
    names = st.sampled_from(COMMANDS[command][1]) | st.sampled_from(list(_FLAGS))
    for name in draw(st.lists(names, max_size=4)):
        given[name] = draw(values(name))
    argv = [command]
    for name, value in draw(st.permutations(list(given.items()))):
        flag = "--" + name.replace("_", "-")
        argv += draw(st.sampled_from([[flag, value]] * 16 + [[f"{flag}={value}"]] * 8 + [[flag]]))
    junk = draw(st.sampled_from([[]] * 20 + [[token] for token in JUNK]))
    return [*junk, *argv]


# an argparse usage error: the usage lines, then one error line
USAGE_ERROR = re.compile(r"usage: ucpscatter.*\n(?: .*\n)*ucpscatter[^:\n]*: error: .*\n")


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
# a -- after a flag once became its value, which argparse reads as []
@example(argv=["transmission", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5", "--beta",
               "1", "--G", "3", "--kmin", "1", "--kmax", "4", "--nk", "--"])
def test_main_exits_0_2_or_3_with_one_line_or_usage(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # --out writes to the paths it is given
    (tmp_path / "run.cfg").write_text("L = 5\nV = 25\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error, --help or --version
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert re.fullmatch(r"[^\n]+\n", err) or USAGE_ERROR.fullmatch(err), err


# odd values a flag may get next to its valid ones: signs, underscores, spaces,
# empty text, non-decimal or fractional ints, a command name, an '=' and
# flag-like text
ODD = ["-25", "-1e-3", "5_0", "-5_0", " 5 ", "", "0x10", "2.5", "log", "both", "bogus",
       "validate", "a=b", "-", "-h", "--help", "--version", "--", "---", "--bogus"]
# tokens that can stand anywhere: unknown, abbreviated, positional, help and version
STRAY = ["--bogus", "--V", "--eng", "--nk5", "-x", "x", "--", "-h", "--help", "--version",
         "-1", "5"]


@st.composite
def lines(draw):
    """A command line main reads: a command and flags drawn from its own (now
    and then from any command's), a flag possibly given twice, each with a
    valid value or an odd token, spaced, joined by '=' or with none; now and
    then a stray token anywhere."""
    command = draw(st.sampled_from(list(COMMANDS)))
    names = st.sampled_from([*COMMANDS[command][1] * 6, *_FLAGS])
    argv = [command]
    for name in draw(st.lists(names, max_size=10)):
        flag = "--" + name.replace("_", "-")
        # a valid value twice as often as an odd token
        value = draw(st.sampled_from(valid(name)) | st.sampled_from(valid(name))
                     | st.sampled_from(ODD))
        argv += draw(st.sampled_from([[flag, value]] * 8 + [[f"{flag}={value}"]] * 8 + [[flag]]))
    for _ in range(draw(st.sampled_from([0] * 6 + [1]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAY)))
    return argv


def parsed(argv):
    """vars() of the Namespace that argparse gives for the tokens main passes it."""
    command, tokens = _joined(argv)
    return vars(build_parser(command).parse_args(tokens))


# command lines the reader must answer and decline, by id
ANSWERED = {
    "spaced": ["transmission", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5",
               "--beta", "1", "--G", "3", "--kmin", "1", "--kmax", "4", "--nk", "5"],
    "joined": ["grid", "--L=5", "--V=-25", "--G=3", "--k=1,2", "--alpha-range=0:1:3",
               "--beta=1", "--rho=2.5", "--out="],
    "repeated-negative-underscore": ["saturation", "--V", "-2.5E1", "--gmin", "5_0",
                                     "--gmin", "2", "--scale=log", "--nk=-1"],
    "bare-command": ["validate"],
}
DECLINED = {
    "no-command": [], "token-before": ["--bogus", "validate"], "help": ["validate", "-h"],
    "version": ["validate", "--version"], "double-dash": ["validate", "--L", "--"],
    "unknown": ["validate", "--bogus", "1"], "abbreviated": ["scaling", "--V", "25"],
    "other-command": ["validate", "--nk", "5"], "missing": ["validate", "--L"],
    "flag-as-value": ["validate", "--L", "--V", "5"], "bad-int": ["validate", "--G", "2.5"],
    "bad-choice": ["transmission", "--scale", "bogus"], "positional": ["validate", "5"],
}


@pytest.mark.parametrize("argv", ANSWERED.values(), ids=ANSWERED.keys())
def test_the_reader_answers_a_well_formed_line_as_argparse(argv):
    assert vars(_read(_joined(argv)[1])) == parsed(argv)


@pytest.mark.parametrize("argv", DECLINED.values(), ids=DECLINED.keys())
def test_the_reader_declines_every_other_line(argv):
    assert _read(_joined(argv)[1]) is None


@settings(max_examples=400, deadline=None)
@given(argv=lines())
@example(argv=ANSWERED["repeated-negative-underscore"])
@example(argv=DECLINED["flag-as-value"])
def test_wherever_the_reader_answers_argparse_gives_the_same_namespace(argv):
    read = _read(_joined(argv)[1])
    if read is not None:
        assert vars(read) == parsed(argv)


B = 10**400  # an int past the largest double
FIELDS = dict(L=5.0, V=25.0, rho=2.5, alpha=0.5, beta=1.0, G=4)
CANTOR = UcpSpec(**FIELDS)
# each number argument covered: the refusal it must raise, and a call with its value x
ARGUMENTS = {
    **{f"UcpSpec-{name}": (InvalidSpecError, lambda x, name=name: UcpSpec(**{**FIELDS, name: x}))
       for name in ("L", "V", "rho", "alpha", "beta")},
    "max_valid_stage-beta": (InvalidSpecError, lambda x: max_valid_stage(1, x)),
    "transmission_spp-V": (ValueError, lambda x: transmission_spp(x, 1.0, [2], [3.0], 2.0)),
    "transmission_spp-width": (ValueError, lambda x: transmission_spp(25.0, x, [2], [3.0], 2.0)),
    "transmission_spp-spacing": (ValueError,
                                 lambda x: transmission_spp(25.0, 1.0, [2, 2], [3.0, x], 2.0)),
    "transmission_spp-count": (ValueError, lambda x: transmission_spp(25.0, 1.0, [x], [3.0], 2.0)),
    "constant_area_height": (ValueError, lambda x: constant_area_height(CANTOR, x)),
    "reflection_asymptote": (ValueError, lambda x: reflection_asymptote(CANTOR, x, 300.0)),
    "fit_scaling-V0": (ValueError, lambda x: fit_scaling(CANTOR, x, (50.0, 500.0), 60)),
    # kmin = 0.5, so that a kmax of 5 is a valid window
    "fit_scaling-kmax": (ValueError, lambda x: fit_scaling(CANTOR, 10.0, (0.5, x), 60)),
}
# what a number argument may not be, by id: none is read as a number
NOT_NUMBERS = {"'5'": "5", "None": None, "1j": 1j, "[1.0]": [1.0], "Fraction(5)": Fraction(5),
               "Decimal(5)": Decimal(5)}
# id -> (argument, value)
PAST_A_DOUBLE = {
    **{f"{arg}={sign}B": (arg, -B if sign else B)
       for arg, sign in [("UcpSpec-L", ""), ("UcpSpec-V", ""), ("UcpSpec-V", "-"),
                         ("UcpSpec-rho", ""), ("UcpSpec-alpha", ""), ("UcpSpec-alpha", "-"),
                         ("UcpSpec-beta", ""), ("UcpSpec-beta", "-"),
                         ("max_valid_stage-beta", "-")]},
    **{arg: (arg, B) for arg in ARGUMENTS if not arg.startswith(("UcpSpec", "max_valid"))},
    **{f"{arg}={label}": (arg, x) for arg in ARGUMENTS for label, x in NOT_NUMBERS.items()},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("arg, value", PAST_A_DOUBLE.values(), ids=PAST_A_DOUBLE.keys())
def test_an_int_past_a_double_is_refused_in_one_line(arg, value):
    kind, call = ARGUMENTS[arg]
    with pytest.raises(kind) as info:
        call(value)
    assert "\n" not in str(info.value)


# each integer argument covered: a call with its value x, the name its refusal
# gives, and an int it accepts
INTEGERS = {
    "UcpSpec-G": (lambda x: UcpSpec(**{**FIELDS, "G": x}), "G", 2),
    "segment_length": (lambda x: segment_length(CANTOR, x), "stage index", 2),
    "gap_length": (lambda x: gap_length(CANTOR, x), "stage index", 2),
    "super_period": (lambda x: super_period(CANTOR, x), "stage index", 2),
    "saturation_scan-gmin": (lambda x: saturation_scan(CANTOR, x, [1.0, 2.0]), "gmin", 2),
    "transmission_spp-count": (lambda x: transmission_spp(25.0, 1.0, [x], [3.0], 2.0),
                               "repetition count of order 1", 2),
    "fit_scaling-n_points": (lambda x: fit_scaling(CANTOR, 10.0, (50.0, 500.0), x),
                             "n_points", 60),
}
# what an integer argument may not be, by id: none is read as an integer
NOT_INTEGERS = {"2.0": 2.0, "'2'": "2", "None": None, "Fraction(2)": Fraction(2),
                "np.array([2])": np.array([2])}


def outcome(call, x):
    """call(x), or the type and text of the ValueError it raises."""
    try:
        return call(x)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [lambda n: np.True_, np.uint8, np.array],
                         ids=["np.True_", "np.uint8", "np.array"])
@pytest.mark.parametrize("arg", INTEGERS)
def test_every_kind_of_integer_is_read_as_its_int(arg, kind):
    # np.True_ is 1, which n_points refuses as it refuses 1
    call, _, n = INTEGERS[arg]
    value = kind(n)
    assert outcome(call, value) == outcome(call, int(value))


@pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
@pytest.mark.parametrize("arg", INTEGERS)
def test_a_non_integer_is_refused_by_name_in_one_line(arg, value):
    call, name, _ = INTEGERS[arg]
    with pytest.raises(InvalidSpecError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must be an integer, got ")
    assert "\n" not in str(info.value)


# each container argument covered: a call with its value x, and what it holds
CONTAINERS = {
    "Ns": (lambda x: transmission_spp(25.0, 1.0, x, [3.0], 2.0), "numbers"),
    "ss": (lambda x: transmission_spp(25.0, 1.0, [2], x, 2.0), "numbers"),
    "k_window": (lambda x: fit_scaling(CANTOR, 10.0, x, 60), "numbers"),
    "specs": (lambda x: transmission_ucp_arrays(x, [1.0]), "UcpSpec"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [None, 5.0, np.array(2.0)], ids=["None", "5.0", "np.array(2.0)"])
@pytest.mark.parametrize("arg", CONTAINERS)
def test_a_container_of_no_numbers_is_refused_by_name_in_one_line(arg, value):
    call, held = CONTAINERS[arg]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(f"{arg} must be a sequence of {held}, got ")
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("window", [(1, 2, 3), (1,)], ids=["three", "one"])
def test_a_k_window_that_is_not_a_pair_is_refused_by_name_in_one_line(window):
    # unpacking it raised Python's "too many values to unpack (expected 2)"
    with pytest.raises(ValueError) as info:
        fit_scaling(CANTOR, 10.0, window, 60)
    assert str(info.value) == f"k_window must be a pair (kmin, kmax), got {window!r}"


# each spec argument covered: a call with its value x, and the name its refusal gives
SPECS = {
    "transmission_ucp": (lambda x: transmission_ucp(x, 1.0), "spec"),
    "transmission_ucp_arrays": (lambda x: transmission_ucp_arrays([CANTOR, x], [1.0]),
                                "specs[1]"),
    "bloch_sequence": (lambda x: bloch_sequence(x, 1.0), "spec"),
    "transmission_oracle": (lambda x: transmission_oracle(x, 1.0), "spec"),
    "transmission_oracle_arrays": (lambda x: transmission_oracle_arrays(x, [1.0]), "spec"),
    "region_sequence": (region_sequence, "spec"),
    "build_segments": (build_segments, "spec"),
    "segment_length": (lambda x: segment_length(x, 1), "spec"),
    "gap_length": (lambda x: gap_length(x, 1), "spec"),
    "super_period": (lambda x: super_period(x, 1), "spec"),
    "constant_area_height": (lambda x: constant_area_height(x, 10.0), "spec"),
    "reflection_asymptote": (lambda x: reflection_asymptote(x, 10.0, 300.0), "spec"),
    "fit_scaling": (lambda x: fit_scaling(x, 10.0, (50.0, 500.0), 60), "spec"),
    "saturation_scan": (lambda x: saturation_scan(x, 1, [1.0, 2.0]), "spec"),
}
# what a spec argument may not be, by id
NOT_SPECS = {"'x'": "x", "None": None, "5.0": 5.0, "[spec]": [CANTOR]}


@pytest.mark.parametrize("value", NOT_SPECS.values(), ids=NOT_SPECS.keys())
@pytest.mark.parametrize("arg", SPECS)
def test_a_value_that_is_no_spec_is_refused_by_name_in_one_line(arg, value):
    call, name = SPECS[arg]
    with pytest.raises(InvalidSpecError) as info:
        call(value)
    assert str(info.value) == f"{name} must be a UcpSpec, got {type(value).__name__}"


# point counts past the doubles one numpy array can hold, 2**60 - 1: numpy
# ended 2**63 in an IndexError traceback
COUNTS = [2**62, 2**63, 2**64 - 1, 2**64]
TOO_MANY = f"need {{}} <= {sys.maxsize // 8}, the most doubles one array can hold, got {{}}"


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("command, scale", [("transmission", "linear"), ("transmission", "log"),
                                            ("saturation", "linear"), ("saturation", "log"),
                                            ("scaling", None)])
def test_a_count_past_one_array_exits_2_in_one_line(command, scale, n):
    given = {**RUNS[command], "nk": str(n), **({"scale": scale} if scale else {})}
    argv = [command, *(a for name, value in given.items() for a in (f"--{name}", value))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue()) == (2, "")
    name = "n_points" if command == "scaling" else "nk"
    assert err.getvalue() == "invalid input: " + TOO_MANY.format(name, n) + "\n"


@pytest.mark.parametrize("n", COUNTS)
def test_fit_scaling_refuses_a_count_past_one_array_in_one_line(n):
    with pytest.raises(ValueError) as info:
        fit_scaling(CANTOR, 10.0, (50.0, 500.0), n)
    assert str(info.value) == TOO_MANY.format("n_points", n)


MOST = sys.maxsize // 8
# fit_scaling's arguments bad in two ways, and the fault it names: the window
# first, then the count's type, then a count too small or too large, then V0
TWO_FAULTS = {
    "window-type": ((5.0, 2.0), 2.5, 10.0, "need 0 < kmin < kmax < inf, got kmin=5.0, kmax=2.0"),
    "window-few": ((5.0, 2.0), 49, 10.0, "need 0 < kmin < kmax < inf, got kmin=5.0, kmax=2.0"),
    "window-many": ((0.0, 1.0), MOST + 1, 10.0, "need 0 < kmin < kmax < inf, got kmin=0.0, "
                                                 "kmax=1.0"),
    "type-few": ((50.0, 500.0), 49.0, 10.0, "n_points must be an integer, got 49.0"),
    "type-many": ((50.0, 500.0), 2.0**64, 10.0, "n_points must be an integer, got "
                                                "1.8446744073709552e+19"),
    "few-V0": ((50.0, 500.0), 49, 0.0, "need n_points >= 50, got 49"),
    "many-V0": ((50.0, 500.0), MOST + 1, 0.0, TOO_MANY.format("n_points", MOST + 1)),
}


@pytest.mark.parametrize("window, n, V0, message", TWO_FAULTS.values(), ids=TWO_FAULTS.keys())
def test_fit_scaling_names_the_first_fault_of_its_k_grid(window, n, V0, message):
    with pytest.raises(ValueError) as info:
        fit_scaling(CANTOR, V0, window, n)
    assert str(info.value) == message


# the CLI reads --nk as an int, so only the window, a count too small and one
# too large reach the k grid: the window is named first
@pytest.mark.parametrize("nk", ["1", "10", str(MOST + 1)])
@pytest.mark.parametrize("command", ["transmission", "saturation", "scaling"])
def test_a_bad_window_is_named_before_a_bad_count_on_the_command_line(command, nk):
    given = {**RUNS[command], "kmin": "2", "kmax": "1", "nk": nk}
    argv = [command, *(a for name, value in given.items() for a in (f"--{name}", value))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (
        2, "", "invalid input: need 0 < kmin < kmax < inf, got kmin=2.0, kmax=1.0\n")


def test_a_span_past_a_double_is_refused_in_one_line():
    # each count and spacing fits a double, and the span they give does not
    with pytest.raises(ValueError) as info:
        transmission_spp(25.0, 1, [10**200, 2], [10**200, 3.0], 2.0)
    assert "\n" not in str(info.value)


# k at which |V|/(2k^2) = 2**401 for V = 25: past 2**400 the rescaled doubling
# block flushes its smallest entries to 0, so every entry that reads k refuses it
FAR_BELOW = math.sqrt(12.5) * 2.0**-200.5
TOO_SMALL = (f"wavenumber k = {FAR_BELOW:.6g} too small for a barrier of height 25: "
             "|V|/(2k^2) exceeds 2**400")
# each entry that reads k, a call with its k = x next to a k of 1
READS_K = {
    "transmission_ucp": lambda x: transmission_ucp(CANTOR, x),
    "transmission_ucp_arrays": lambda x: transmission_ucp_arrays([CANTOR], [1.0, x]),
    "transmission_oracle": lambda x: transmission_oracle(CANTOR, x),
    "transmission_oracle_arrays": lambda x: transmission_oracle_arrays(CANTOR, [1.0, x]),
    "bloch_sequence": lambda x: bloch_sequence(CANTOR, x),
    "bloch_sequence_arrays": lambda x: bloch_sequence_arrays(CANTOR, [1.0, x]),
    "transmission_spp": lambda x: transmission_spp(25.0, 1.0, [2], [3.0], x),
    "transmission_spp_arrays": lambda x: transmission_spp_arrays(25.0, 1.0, [2], [3.0], [1.0, x]),
    "saturation_scan": lambda x: saturation_scan(CANTOR, 1, [1.0, x]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", READS_K)
def test_a_k_past_2_to_the_400_below_the_height_is_refused_in_one_line(entry):
    READS_K[entry](2.0 * FAR_BELOW)  # 2**399 is read
    with pytest.raises(ValueError) as info:
        READS_K[entry](FAR_BELOW)
    assert str(info.value) == TOO_SMALL


@pytest.mark.parametrize("engine", ["closed_form", "oracle", "both"])
def test_a_sweep_from_past_2_to_the_400_exits_2_in_one_line(engine):
    given = {**RUNS["transmission"], "kmin": repr(FAR_BELOW), "kmax": "1", "nk": "2",
             "engine": engine}
    argv = ["transmission", *(a for name, value in given.items() for a in (f"--{name}", value))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (2, "", f"invalid input: {TOO_SMALL}\n")


def test_the_largest_double_as_an_int_is_still_read():
    # it converts to a double exactly: only an int past the range is refused
    top = int(1.7976931348623157e308)
    assert UcpSpec(L=top, V=-top, rho=top, alpha=1, beta=0, G=2).L == top
    assert max_valid_stage(top, -1) is not None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("number", [int, bool, np.int64, np.uint8, np.float32, np.float64,
                                    np.array])
def test_every_kind_of_real_number_is_read_as_its_float(number):
    # fields and k of each kind give the results of their float values
    spec = UcpSpec(L=number(2.3), V=number(1.7), rho=3 if number is bool else number(3.4),
                   alpha=number(1.2), beta=number(0.6), G=3)
    floats = UcpSpec(**{name: float(getattr(spec, name))
                        for name in ("L", "V", "rho", "alpha", "beta")}, G=3)
    for call in (transmission_ucp, bloch_sequence):
        assert call(spec, number(2.6)) == call(floats, float(number(2.6)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("integer", [int, bool, np.int64, np.uint8, np.array])
@pytest.mark.parametrize("number", [int, bool, np.int64, np.uint8, np.float32, np.float64,
                                    np.array])
def test_a_spec_holds_floats_and_an_int(number, integer):
    spec = UcpSpec(L=number(2.3), V=number(1.7), rho=3 if number is bool else number(3.4),
                   alpha=number(1.2), beta=number(0.6), G=integer(1))
    assert all(type(getattr(spec, name)) is float for name in ("L", "V", "rho", "alpha", "beta"))
    assert type(spec.G) is int and spec.G == 1


def test_the_stage_bound_and_the_constant_area_height_are_computed_in_doubles():
    # float32 arithmetic gave 12889036 and float32 23.625; exact int arithmetic
    # gave 10**17 - 1, where 10**17 - g > 0 in doubles up to g = 10**17 - 9
    alpha, beta = np.float32(5.1317215), np.float32(-3.9814623e-07)
    assert max_valid_stage(alpha, beta) == max_valid_stage(float(alpha), float(beta)) == 12889037
    assert max_valid_stage(10**17, -1) == 99999999999999991
    L = np.float32(3.3)
    heights = [constant_area_height(UcpSpec(L=x, V=25, rho=3, alpha=1, beta=0, G=3), 7.0)
               for x in (L, float(L))]
    assert heights == [23.624999999999993] * 2 and type(heights[0]) is float
