"""The traced benchmark run (perfbench/tracer.py) wraps names of the package
by name: every public function of each module and the methods in its
METHODS.  Installing it must keep working as the package changes, and must
not change what a command prints."""

import contextlib
import importlib.util
import io
import pathlib

from ucpscatter import cli

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

ARGV = ["transmission", "--L", "5", "--V", "25", "--rho", "2.5", "--alpha", "0.5",
        "--beta", "1", "--G", "4", "--kmin", "0.5", "--kmax", "8", "--nk", "7",
        "--engine", "both"]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_tracer_installs_and_leaves_the_output_unchanged():
    plain = run(ARGV)
    tracer = load_tracer().Tracer()
    try:
        tracer.install()  # raises if a name it wraps is gone from the package
        traced = run(ARGV)
    finally:
        tracer.uninstall()
    assert plain[0] == cli.EXIT_OK
    assert traced == plain
    assert tracer.stats["cli.main"][0] == 1  # the wrappers ran
    assert tracer.stats["oracle.transmission_oracle_batch"][0] == 1
    assert run(ARGV) == plain  # and are gone again
