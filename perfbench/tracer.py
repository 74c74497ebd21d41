"""Per-layer tracing of ``ucpscatter`` from outside the package.

``Tracer.install()`` wraps the public functions of each package module (the
layers), plus ``TransferMatrix.__matmul__`` and ``UcpSpec.__init__``, in
every namespace that imported them by name, for example both
``ucpscatter.geometry.segment_length`` and ``ucpscatter.scattering.segment_length``.
Fine-grained calls are only aggregated: a call count and the self time (time
inside the call minus time inside wrapped calls it made).  The coarse calls
in ``COARSE`` also keep a full span (name, parent span, start, end), because
a sweep makes about a million geometry calls and spans for each would not fit
in memory.

Run as a script, it is the traced run of one CLI command:

    python3 perfbench/tracer.py --seconds 10 --trace-out trace.json -- transmission ...

Everything runs in this one process, so no span is lost to pool workers: the
CLI's default worker count is made 1 by reporting one core.  Each round runs
the command once untraced and once traced; rounds repeat until ``--seconds``
have passed.  The trace file is written once, at the end, and a JSON summary
is printed on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import resource
import sys
import time

LAYERS = ("geometry", "special", "scattering", "oracle", "analysis", "cli")
METHODS = {
    "scattering.matmul": ("scattering", "TransferMatrix", "__matmul__"),
    "geometry.UcpSpec": ("geometry", "UcpSpec", "__init__"),
}


def _is_coarse(key: str) -> bool:
    return key in (
        "cli.main",
        "scattering.transmission_ucp",
        "oracle.transmission_oracle",
        "analysis.saturation_scan",
    ) or key.startswith("cli.cmd_")


def _public_functions(module) -> list[str]:
    return [
        name for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


class Tracer:
    """Counts and self time per wrapped function, spans for coarse calls."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, self seconds]
        self.spans: list[list] = []  # [key, parent index or -1, start s, end s]
        self._children = [0.0]  # time spent in wrapped children of each open call
        self._open: list[int] = []  # indices of the open coarse spans
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._origin = time.perf_counter()

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"ucpscatter.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name in _public_functions(module):
                fn = getattr(module, name)
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for key, (layer, cls_name, attr) in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, self._wrap(key, cls.__dict__[attr]))
        for module in (importlib.import_module("ucpscatter"), *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0])
        children = self._children
        clock = time.perf_counter

        if not _is_coarse(key):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                children.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat[0] += 1
                    stat[1] += elapsed - children.pop()
                    children[-1] += elapsed

            return counted

        spans, open_spans, origin = self.spans, self._open, self._origin

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = [key, open_spans[-1] if open_spans else -1, 0.0, 0.0]
            open_spans.append(len(spans))
            spans.append(span)
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stat[0] += 1
                stat[1] += (end - start) - children.pop()
                children[-1] += end - start
                span[2], span[3] = start - origin, end - origin
                open_spans.pop()

        return spanned


def _run_cli(main, argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue(), time.perf_counter() - start


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    os.cpu_count = lambda: 1  # the CLI's default worker count: no pool
    from ucpscatter import cli

    rounds, traces, outputs = [], [], set()
    child_cpu_before = _child_cpu_s()
    deadline = time.perf_counter() + args.seconds
    while True:
        plain_code, plain_text, plain_s = _run_cli(cli.main, argv)
        tracer = Tracer()
        tracer.install()
        try:
            code, text, traced_s = _run_cli(cli.main, argv)
        finally:
            tracer.uninstall()
        outputs.update((plain_text, text))
        rounds.append({
            "codes": [plain_code, code],
            "plain_s": plain_s,
            "traced_s": traced_s,
            "bytes_out": len(text.encode()),
            "stats": tracer.stats,
        })
        traces.append({"stats": tracer.stats, "spans": tracer.spans})
        if time.perf_counter() >= deadline:
            break

    with open(args.trace_out, "w") as fh:
        json.dump({"argv": argv, "rounds": traces}, fh)
    json.dump({
        "rounds": rounds,
        "output": text,
        "identical_outputs": len(outputs) == 1,
        "child_cpu_s": _child_cpu_s() - child_cpu_before,
    }, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
