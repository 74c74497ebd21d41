"""Command-line front end: transmission sweeps, parameter grids, geometry
dumps, and analysis reports as CSV/JSON for external plotting.

Exit codes: 0 success, 2 invalid input (spec, options or config), 3 stage
above the cap for enumerating every barrier (oracle or geometry).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .analysis import fit_scaling, saturation_scan
from .geometry import InvalidSpecError, UcpSpec, build_segments
from .oracle import OracleInfeasibleError, transmission_oracle_batch
from .scattering import _require_positive_k, transmission_ucp_batch

EXIT_OK = 0
EXIT_INVALID_SPEC = 2
EXIT_ORACLE_INFEASIBLE = 3

_FLOAT_FMT = ".17g"


def _fmt(x: float) -> str:
    return format(x, _FLOAT_FMT)


def _spec_arguments(parser: argparse.ArgumentParser, height: bool = True,
                    stage: bool = True) -> None:
    parser.add_argument("--L", type=float, help="total span")
    if height:
        parser.add_argument("--V", type=float, help="barrier height")
    parser.add_argument("--rho", type=float, help="scaling parameter (> 1)")
    parser.add_argument("--alpha", type=float, help="removal exponent offset")
    parser.add_argument("--beta", type=float, help="removal exponent slope")
    if stage:
        parser.add_argument("--G", type=int, help="stage (recursion depth)")


def _k_range_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kmin", type=float, help="lowest wavenumber")
    parser.add_argument("--kmax", type=float, help="highest wavenumber")
    parser.add_argument("--nk", type=int, help="number of k points (>= 2)")


def _sweep_arguments(parser: argparse.ArgumentParser) -> None:
    _k_range_arguments(parser)
    parser.add_argument("--scale", choices=["linear", "log"], help="k spacing")


def _common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, help="ignored: every command runs in one process")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--config", help="config file (JSON or key=value lines)")
    parser.set_defaults(parser=parser)  # config values are checked against these flags


def _load_config(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
        return data
    except json.JSONDecodeError:
        pass
    data = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return data


def _apply_config(args: argparse.Namespace, config: dict) -> None:
    """Fill in options the command line left unset, each typed and checked by its flag."""
    flags = {a.dest: a for a in args.parser._actions if hasattr(args, a.dest)}
    for key, value in config.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise ValueError(f"unknown config key: {key}")
        if getattr(args, flag.dest) is None:
            try:  # the conversion the same text gets on the command line
                value = flag.type(str(value)) if flag.type else str(value)
                if flag.choices is not None and value not in flag.choices:
                    raise ValueError
            except ValueError:
                raise ValueError(f"config {key}: invalid value {value!r}") from None
            setattr(args, flag.dest, value)


def _require(args: argparse.Namespace, names: Iterable[str]) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required options: {', '.join('--' + m for m in missing)}")


def _build_spec(args: argparse.Namespace) -> UcpSpec:
    _require(args, ["L", "V", "rho", "alpha", "beta", "G"])
    return UcpSpec(L=args.L, V=args.V, rho=args.rho, alpha=args.alpha, beta=args.beta, G=args.G)


def _k_grid(args: argparse.Namespace) -> np.ndarray:
    _require(args, ["kmin", "kmax", "nk"])
    if not (args.kmin > 0 and args.kmax > args.kmin and args.nk >= 2):
        raise ValueError("need 0 < kmin < kmax and nk >= 2")
    if (args.scale or "linear") == "log":
        return np.logspace(math.log10(args.kmin), math.log10(args.kmax), args.nk)
    return np.linspace(args.kmin, args.kmax, args.nk)


def _spec_header(spec: UcpSpec) -> list[str]:
    return [
        f"# L={_fmt(spec.L)}",
        f"# V={_fmt(spec.V)}",
        f"# rho={_fmt(spec.rho)}",
        f"# alpha={_fmt(spec.alpha)}",
        f"# beta={_fmt(spec.beta)}",
        f"# G={spec.G}",
    ]


def _emit(lines: Sequence[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_transmission(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    ks = _k_grid(args).tolist()
    engine = args.engine or "closed_form"

    lines = _spec_header(spec)
    lines.append(f"# engine={engine}")
    if engine == "both":
        lines.append("k,T,R,log10_T,T_oracle,abs_diff")
    else:
        lines.append("k,T,R,log10_T")
    closed = orac = None
    if engine in ("closed_form", "both"):
        closed = transmission_ucp_batch([spec] * len(ks), ks)
    if engine in ("oracle", "both"):
        orac = transmission_oracle_batch(spec, ks)
    diffs = []
    for i, (k, primary) in enumerate(zip(ks, closed if closed is not None else orac)):
        row = [
            _fmt(k),
            _fmt(primary.transmission),
            _fmt(primary.reflection),
            _fmt(primary.log10_transmission),
        ]
        if engine == "both":
            diffs.append(abs(closed[i].transmission - orac[i].transmission))
            row += [_fmt(orac[i].transmission), _fmt(diffs[-1])]
        lines.append(",".join(row))
    if engine == "both":
        # np.max, unlike max, keeps a NaN
        lines.append(f"# max_abs_diff={_fmt(float(np.max(diffs)))}")
    _emit(lines, args.out)
    return EXIT_OK


def _parse_range(text: str, name: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--{name}-range must be MIN:MAX:COUNT, got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise ValueError(f"--{name}-range count must be >= 1")
    return np.linspace(lo, hi, n) if n > 1 else np.array([lo])


def _grid_axis(args: argparse.Namespace, name: str) -> np.ndarray:
    rng = getattr(args, f"{name}_range")
    fixed = getattr(args, name)
    if rng is not None:
        return _parse_range(rng, name)
    if fixed is not None:
        return np.array([fixed])
    raise ValueError(f"provide --{name} or --{name}-range")


def cmd_grid(args: argparse.Namespace) -> int:
    _require(args, ["L", "V", "G", "k"])
    alphas = _grid_axis(args, "alpha")
    betas = _grid_axis(args, "beta")
    rhos = _grid_axis(args, "rho")
    ks = [float(t) for t in str(args.k).split(",")]
    # L, V, G and k are the same at every point of the cube: a bad one is bad
    # input, checked once (L, V and G on a Cantor spec, valid at any stage)
    UcpSpec(L=args.L, V=args.V, rho=2.0, alpha=1.0, beta=0.0, G=args.G)
    for k in ks:
        _require_positive_k(k)

    lines = [
        f"# L={_fmt(args.L)}",
        f"# V={_fmt(args.V)}",
        f"# G={args.G}",
        "alpha,beta,rho,k,valid,T",
    ]
    cube = []  # (alpha, beta, rho, spec or None when invalid)
    for a, b, r in itertools.product(map(float, alphas), map(float, betas), map(float, rhos)):
        try:
            spec = UcpSpec(L=args.L, V=args.V, rho=r, alpha=a, beta=b, G=args.G)
        except InvalidSpecError:
            spec = None
        cube.append((a, b, r, spec))
    specs = [spec for *_, spec in cube if spec is not None]
    results = iter(transmission_ucp_batch([s for s in specs for _ in ks], ks * len(specs)))
    for a, b, r, spec in cube:
        for k in ks:
            if spec is None:
                valid, t = "0", ""
            else:
                valid, t = "1", _fmt(next(results).transmission)
            lines.append(",".join([_fmt(a), _fmt(b), _fmt(r), _fmt(k), valid, t]))
    _emit(lines, args.out)
    return EXIT_OK


def cmd_geometry(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    geometry = build_segments(spec)
    lines = _spec_header(spec)
    lines.append("index,offset,width")
    for i, (off, w) in enumerate(geometry.barriers):
        lines.append(f"{i},{_fmt(off)},{_fmt(w)}")
    _emit(lines, args.out)
    return EXIT_OK


def cmd_scaling(args: argparse.Namespace) -> int:
    _require(args, ["L", "V0", "rho", "alpha", "beta", "G", "kmin", "kmax", "nk"])
    spec = UcpSpec(L=args.L, V=args.V0, rho=args.rho, alpha=args.alpha, beta=args.beta, G=args.G)
    fit = fit_scaling(spec, args.V0, (args.kmin, args.kmax), args.nk)
    report = {
        "spec": {"L": spec.L, "V0": args.V0, "rho": spec.rho, "alpha": spec.alpha,
                 "beta": spec.beta, "G": spec.G},
        "k_window": list(fit.k_window),
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "n_used": fit.n_used,
    }
    _emit([json.dumps(report, indent=2)], args.out)
    return EXIT_OK


def cmd_saturation(args: argparse.Namespace) -> int:
    _require(args, ["L", "V", "rho", "alpha", "beta", "gmin", "gmax", "kmin", "kmax", "nk"])
    if args.gmax <= args.gmin:
        raise ValueError("need gmax > gmin")
    specs = [
        UcpSpec(L=args.L, V=args.V, rho=args.rho, alpha=args.alpha, beta=args.beta, G=g)
        for g in range(args.gmin, args.gmax + 1)
    ]
    ks = _k_grid(args)
    report = saturation_scan(specs, [float(k) for k in ks])
    payload = {
        "spec": {"L": args.L, "V": args.V, "rho": args.rho, "alpha": args.alpha,
                 "beta": args.beta},
        "k_window": [args.kmin, args.kmax],
        "stage_pairs": [[g, g + 1] for g in report.stages],
        "metrics": list(report.metrics),
    }
    _emit([json.dumps(payload, indent=2)], args.out)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    _emit([f"valid: L={spec.L} V={spec.V} rho={spec.rho} alpha={spec.alpha} "
           f"beta={spec.beta} G={spec.G}"], args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucpscatter",
        description="Quantum transmission through unified Cantor barrier systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # flags are spelled in full, so a flag a command lacks (scaling's --V) is
    # an error, not an abbreviation of another (--V0)
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("transmission", help="T(k) sweep for one spec")
    _spec_arguments(p)
    _sweep_arguments(p)
    p.add_argument("--engine", choices=["closed_form", "oracle", "both"])
    _common_arguments(p)
    p.set_defaults(func=cmd_transmission)

    p = command("grid", help="T over an (alpha, beta, rho) grid at fixed k values")
    _spec_arguments(p)
    for axis in ("alpha", "beta", "rho"):
        p.add_argument(f"--{axis}-range", help=f"{axis} axis as MIN:MAX:COUNT")
    p.add_argument("--k", help="comma-separated wavenumbers")
    _common_arguments(p)
    p.set_defaults(func=cmd_grid)

    p = command("geometry", help="explicit barrier intervals as CSV")
    _spec_arguments(p)
    _common_arguments(p)
    p.set_defaults(func=cmd_geometry)

    p = command("scaling", help="log-log reflection scaling fit as JSON")
    _spec_arguments(p, height=False)  # the height is the constant-area V_G from --V0
    p.add_argument("--V0", type=float, help="stage-0 height for constant-area scaling")
    _k_range_arguments(p)  # fit_scaling always spaces k logarithmically
    _common_arguments(p)
    p.set_defaults(func=cmd_scaling)

    p = command("saturation", help="stage-to-stage transmission distances as JSON")
    _spec_arguments(p, stage=False)  # the stages are --gmin..--gmax
    p.add_argument("--gmin", type=int, help="first stage")
    p.add_argument("--gmax", type=int, help="last stage")
    _sweep_arguments(p)
    _common_arguments(p)
    p.set_defaults(func=cmd_saturation)

    p = command("validate", help="check spec well-formedness")
    _spec_arguments(p)
    _common_arguments(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(args, _load_config(args.config))
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad spec, option value, config, or file path
        kind = "spec" if isinstance(exc, InvalidSpecError) else "input"
        print(f"invalid {kind}: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    except OracleInfeasibleError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ORACLE_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
