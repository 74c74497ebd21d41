"""Command-line front end: transmission sweeps, parameter grids, geometry
dumps, and analysis reports as CSV/JSON for external plotting.

Every flag's type (or choices) and help are stated once, in _FLAGS, and each
command's flags in COMMANDS: the parser, main's own reading of a command line
and a config file's check read both.  main reads a well-formed command line
itself (the command name, then only its flags, each spelled in full with one
value), without building a parser; argparse reads every other one and writes
every help, version and usage-error byte.

Exit codes: 0 success, 2 invalid input (spec, options or config, or an
option sizing an array too large to allocate), 3 stage above the cap for
enumerating every barrier (oracle or geometry).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .analysis import fit_scaling, saturation_scan
from .geometry import (InvalidSpecError, OracleInfeasibleError, UcpSpec, _width_table,
                       build_segments)
from .oracle import transmission_oracle_arrays
from .scattering import _k_grid, _require_positive_k, _transmission_table

EXIT_OK = 0
EXIT_INVALID_SPEC = 2
EXIT_ORACLE_INFEASIBLE = 3

_FLOAT_FMT = ".17g"


def _fmt(x: float) -> str:
    return format(x, _FLOAT_FMT)


def _row_template(fields: int) -> str:
    """A %-template of fields numbers, comma-separated, each as _fmt writes it."""
    return ",".join(["%" + _FLOAT_FMT] * fields)


# every flag: the keywords of its add_argument, its type (or its choices) and
# its help; COMMANDS names each command's flags, and a config key is one of them
_FLAGS = {
    "L": dict(type=float, help="total span"),
    "V": dict(type=float, help="barrier height"),
    "rho": dict(type=float, help="scaling parameter (> 1)"),
    "alpha": dict(type=float, help="removal exponent offset"),
    "beta": dict(type=float, help="removal exponent slope"),
    "G": dict(type=int, help="stage (recursion depth)"),
    "V0": dict(type=float, help="stage-0 height for constant-area scaling"),
    "gmin": dict(type=int, help="first stage"),
    "gmax": dict(type=int, help="last stage"),
    **{f"{axis}_range": dict(help=f"{axis} axis as MIN:MAX:COUNT")
       for axis in ("alpha", "beta", "rho")},
    "k": dict(help="comma-separated wavenumbers"),
    "kmin": dict(type=float, help="lowest wavenumber"),
    "kmax": dict(type=float, help="highest wavenumber"),
    "nk": dict(type=int, help="number of k points (>= 2)"),
    "scale": dict(choices=["linear", "log"], help="k spacing"),
    "engine": dict(choices=["closed_form", "oracle", "both"]),
    "workers": dict(type=int, help="ignored: every command runs in one process"),
    "out": dict(help="output path (default: stdout)"),
    "config": dict(help="config file (JSON or key=value lines)"),
}


def _load_config(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:  # key=value lines; blank and '#' lines are skipped
        lines = [line.strip() for line in text.splitlines()]
        pairs = (line.partition("=") for line in lines if line and not line.startswith("#"))
        return {key.strip(): value.strip() for key, _, value in pairs}
    if not isinstance(data, dict):
        raise ValueError("config JSON must be an object")
    return data


def _typed(name: str, text: str):
    """text as the value of flag name, converted by its type and checked
    against its choices as argparse does; ValueError if it is not one."""
    flag = _FLAGS[name]
    value = flag.get("type", str)(text)
    if "choices" in flag and value not in flag["choices"]:
        raise ValueError(f"{value!r} is not one of the choices")
    return value


def _apply_config(args: argparse.Namespace, config: dict) -> None:
    """Fill in options the command line left unset, each typed and checked by its flag."""
    for key, value in config.items():
        name = key.replace("-", "_")
        if name not in COMMANDS[args.command][1]:
            raise ValueError(f"unknown config key: {key}")
        if getattr(args, name) is None:
            try:  # the conversion the same text gets on the command line
                setattr(args, name, _typed(name, str(value)))
            except ValueError:
                raise ValueError(f"config {key}: invalid value {value!r}") from None


def _require(args: argparse.Namespace, names: Iterable[str]) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required options: {', '.join('--' + m for m in missing)}")


def _build_spec(args: argparse.Namespace) -> UcpSpec:
    _require(args, ["L", "V", "rho", "alpha", "beta", "G"])
    return UcpSpec(L=args.L, V=args.V, rho=args.rho, alpha=args.alpha, beta=args.beta, G=args.G)


def _sweep(args: argparse.Namespace) -> list[float]:
    """The command's k: --nk >= 2 of them from --kmin to --kmax, spaced as --scale."""
    _require(args, ["kmin", "kmax", "nk"])
    return _k_grid(args.kmin, args.kmax, args.nk, "nk", 2, args.scale == "log").tolist()


def _spec_header(spec: UcpSpec) -> list[str]:
    return [f"# {name}={_fmt(getattr(spec, name))}" for name in _SPEC] + [f"# G={spec.G}"]


def cmd_transmission(args: argparse.Namespace) -> list[str]:
    spec = _build_spec(args)
    ks = _sweep(args)
    engine = args.engine or "closed_form"

    lines = [*_spec_header(spec), f"# engine={engine}", "k,T,R,log10_T"]
    if engine == "oracle":
        t, r, log10_t = transmission_oracle_arrays(spec, ks)
    else:
        t, r, log10_t = (x[0] for x in _transmission_table(spec.width_chain, [spec.V], ks))
    columns = [ks, t.tolist(), r.tolist(), log10_t.tolist()]
    footer = []
    if engine == "both":
        t_oracle = transmission_oracle_arrays(spec, ks)[0]
        diffs = np.abs(t - t_oracle)
        lines[-1] += ",T_oracle,abs_diff"
        columns += [t_oracle.tolist(), diffs.tolist()]
        # np.max, unlike max, keeps a NaN
        footer.append(f"# max_abs_diff={_fmt(float(np.max(diffs)))}")
    template = _row_template(len(columns))
    lines.extend(template % row for row in zip(*columns))
    return lines + footer


def _parse_range(text: str, name: str) -> np.ndarray:
    parts = text.split(":")
    try:  # a wrong part count and a part that does not convert fail alike
        lo, hi, n = (kind(p) for kind, p in zip((float, float, int), parts, strict=True))
    except ValueError:
        raise ValueError(f"--{name}-range must be MIN:MAX:COUNT, got {text!r}") from None
    if n < 1:
        raise ValueError(f"--{name}-range count must be >= 1")
    with np.errstate(all="ignore"):  # a non-finite axis is refused below
        axis = np.linspace(lo, hi, n) if n > 1 else np.array([lo])
    if n > 1 and not np.isfinite(axis).all():  # COUNT = 1 is a fixed value, judged per cell
        raise ValueError(f"--{name}-range needs a finite MIN, MAX and MAX - MIN, got {text!r}")
    return axis


def _grid_axis(args: argparse.Namespace, name: str) -> np.ndarray:
    rng, fixed = getattr(args, f"{name}_range"), getattr(args, name)
    if rng is not None:
        return _parse_range(rng, name)
    if fixed is None:
        raise ValueError(f"provide --{name} or --{name}-range")
    return np.array([fixed])


def _is_valid(args: argparse.Namespace, rho: float, alpha: float, beta: float) -> bool:
    """Whether UcpSpec accepts these rho, alpha and beta with the command's L, V and G."""
    try:
        UcpSpec(L=args.L, V=args.V, rho=rho, alpha=alpha, beta=beta, G=args.G)
    except InvalidSpecError:
        return False
    return True


def cmd_grid(args: argparse.Namespace) -> list[str]:
    _require(args, ["L", "V", "G", "k"])
    alphas, betas, rhos = (_grid_axis(args, name) for name in ("alpha", "beta", "rho"))
    try:
        ks = [float(t) for t in str(args.k).split(",")]
    except ValueError:
        raise ValueError(f"--k must be comma-separated numbers, got {args.k!r}") from None
    # L, V, G and k are the same at every point of the cube: a bad one is bad
    # input, checked once (L, V and G on a Cantor spec, valid at any stage)
    UcpSpec(L=args.L, V=args.V, rho=2.0, alpha=1.0, beta=0.0, G=args.G)
    for k in ks:
        _require_positive_k(k)

    # with L, V and G valid, a spec's checks fall apart into those of rho (on
    # a Cantor spec) and those of (alpha, beta, G) (at rho = 2): a cell is
    # valid iff both pass, exactly where its own UcpSpec would be
    rho_ok = [_is_valid(args, r, 1.0, 0.0) for r in rhos.tolist()]
    pair_ok = [_is_valid(args, 2.0, a, b) for a in alphas.tolist() for b in betas.tolist()]
    valid = (np.array(pair_ok)[:, None] & np.array(rho_ok)).ravel()  # cube order
    a, b, r = (x.ravel()[valid] for x in np.meshgrid(alphas, betas, rhos, indexing="ij"))
    n = a.size
    t = _transmission_table(_width_table(np.full(n, args.L), r, a, b, [args.G] * n),
                            np.full(n, args.V), ks)[0]
    # values are formatted once, by position: a float key misses NaN and merges -0.0 with 0.0
    texts = [[_fmt(x) for x in axis.tolist()] for axis in (alphas, betas, rhos)]
    # a cell's rows are "\nalpha,beta,rho," joined to these, one per k: an
    # invalid cell's, or a valid cell's with a % field for its T.  The table is
    # one template, written with one % of every T
    rows = [[""] + [f"{_fmt(k)},{ok}," + _row_template(ok) for k in ks] for ok in (0, 1)]
    table = "".join(["alpha,beta,rho,k,valid,T",
                     *(f"\n{a},{b},{r},".join(rows[ok])
                       for (a, b, r), ok in zip(itertools.product(*texts), valid.tolist()))])
    return [f"# L={_fmt(args.L)}", f"# V={_fmt(args.V)}", f"# G={args.G}",
            table % tuple(t.ravel().tolist())]


def cmd_geometry(args: argparse.Namespace) -> list[str]:
    spec = _build_spec(args)
    return [*_spec_header(spec), "index,offset,width",
            *(f"{i},{_fmt(off)},{_fmt(w)}" for i, (off, w) in enumerate(build_segments(spec)))]


def cmd_scaling(args: argparse.Namespace) -> list[str]:
    _require(args, ["L", "V0", "rho", "alpha", "beta", "G", "kmin", "kmax", "nk"])
    spec = UcpSpec(L=args.L, V=args.V0, rho=args.rho, alpha=args.alpha, beta=args.beta, G=args.G)
    fit = fit_scaling(spec, args.V0, (args.kmin, args.kmax), args.nk)
    report = {
        "spec": {"L": spec.L, "V0": args.V0, "rho": spec.rho, "alpha": spec.alpha,
                 "beta": spec.beta, "G": spec.G},
        **dataclasses.asdict(fit),
    }
    return [json.dumps(report, indent=2)]


def cmd_saturation(args: argparse.Namespace) -> list[str]:
    _require(args, ["L", "V", "rho", "alpha", "beta", "gmin", "gmax", "kmin", "kmax", "nk"])
    if args.gmax <= args.gmin:
        raise ValueError("need gmax > gmin")
    # a stage in gmin..gmax is refused iff gmin or gmax is, the first with gmin's
    # message or else gmax's: a stage bound's names the bound, not the stage
    spec = dataclasses.replace(UcpSpec(L=args.L, V=args.V, rho=args.rho, alpha=args.alpha,
                                       beta=args.beta, G=args.gmin), G=args.gmax)
    report = saturation_scan(spec, args.gmin, _sweep(args))
    payload = {
        "spec": {"L": args.L, "V": args.V, "rho": args.rho, "alpha": args.alpha,
                 "beta": args.beta},
        "k_window": [args.kmin, args.kmax],
        "stage_pairs": [[g, g + 1] for g in report.stages],
        "metrics": list(report.metrics),
    }
    return [json.dumps(payload, indent=2)]


def cmd_validate(args: argparse.Namespace) -> list[str]:
    spec = _build_spec(args)
    return [f"valid: L={spec.L} V={spec.V} rho={spec.rho} alpha={spec.alpha} "
            f"beta={spec.beta} G={spec.G}"]


_SPEC = ("L", "V", "rho", "alpha", "beta")
_K_RANGE = ("kmin", "kmax", "nk")
_COMMON = ("workers", "out", "config")
# name -> (help, its flags in help order, the command)
COMMANDS = {
    "transmission": ("T(k) sweep for one spec",
                     (*_SPEC, "G", *_K_RANGE, "scale", "engine", *_COMMON), cmd_transmission),
    "grid": ("T over an (alpha, beta, rho) grid at fixed k values",
             (*_SPEC, "G", "alpha_range", "beta_range", "rho_range", "k", *_COMMON), cmd_grid),
    "geometry": ("explicit barrier intervals as CSV", (*_SPEC, "G", *_COMMON), cmd_geometry),
    # the height is the constant-area V_G from --V0, and k is always log-spaced
    "scaling": ("log-log reflection scaling fit as JSON",
                ("L", "rho", "alpha", "beta", "G", "V0", *_K_RANGE, *_COMMON), cmd_scaling),
    # the stages are --gmin..--gmax
    "saturation": ("stage-to-stage transmission distances as JSON",
                   (*_SPEC, "gmin", "gmax", *_K_RANGE, "scale", *_COMMON), cmd_saturation),
    "validate": ("check spec well-formedness", (*_SPEC, "G", *_COMMON), cmd_validate),
}


# each command's flags as spelled on the command line, --name, to their names
_SPELLED = {command: {"--" + name.replace("_", "-"): name for name in flags}
            for command, (_, flags, _) in COMMANDS.items()}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of every command, flags and -h on command alone (none for None).
    main builds it only for a command line that _read declines, such as a help,
    a version or a usage error, with the command _joined finds."""
    parser = argparse.ArgumentParser(
        prog="ucpscatter",
        description="Quantum transmission through unified Cantor barrier systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, func) in COMMANDS.items():
        # flags are spelled in full, so a flag a command lacks (scaling's --V) is
        # an error, not an abbreviation of another (--V0)
        p = sub.add_parser(name, help=text, allow_abbrev=False, add_help=name == command)
        for spelling, flag in _SPELLED[name].items() if name == command else ():
            p.add_argument(spelling, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def _joined(argv: list[str]) -> tuple[str | None, list[str]]:
    """The command, the first command name in argv (None if there is none),
    and argv with every value joined to its flag, as --name=value.

    The one rule: in the tokens after the command, a token that follows one
    of the command's flags (each takes one value) is that flag's value, and
    is joined to it, unless it is a flag of the command, -h, --help or --.
    argparse reads --name=value as --name value, and it also takes a value
    that starts with '-' (-1e-3, -inf, -0.5:-0.1:5) as the value, where it
    would take the spaced one for a flag.  Only top-level flags, none of
    which takes a value, can come before the command, so it is the command
    argparse runs if it runs one.  --name=-- becomes --name --, which
    argparse refuses.
    """
    command = next((a for a in argv if a in COMMANDS), None)
    if command is None:
        return None, argv
    flags = _SPELLED[command]
    never = {*flags, "-h", "--help", "--"}
    tokens = argv[:argv.index(command) + 1]
    for token in argv[len(tokens):]:
        flag, _, value = token.partition("=")
        if tokens[-1] in flags and token not in never:
            tokens[-1] += "=" + token
        else:
            tokens += [flag, "--"] if flag in flags and value == "--" else [token]
    return command, tokens


def _read(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace that build_parser().parse_args(argv) returns, without a
    parser, for a well-formed argv as _joined gives it, every value joined to
    its flag: the command name first, then only its flags, each spelled in
    full as --name=value, the value converted and checked as _FLAGS states.
    A flag given twice keeps its last value, and an absent one is None.  Any
    other argv gives None: a token before the command, -h, --help,
    --version, --, an unknown or abbreviated flag, a flag with no value
    joined to it, a bad value or a positional, on each of which argparse has
    its own say."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = _SPELLED[argv[0]]
    values = dict.fromkeys(flags.values())
    for token in argv[1:]:
        flag, joined, value = token.partition("=")
        name = flags.get(flag)
        if name is None or not joined:
            return None
        try:
            values[name] = _typed(name, value)
        except ValueError:
            return None
    return argparse.Namespace(command=argv[0], func=COMMANDS[argv[0]][2], **values)


def main(argv: Sequence[str] | None = None) -> int:
    command, argv = _joined(sys.argv[1:] if argv is None else list(argv))
    args = _read(argv)
    if args is None:  # argparse reads it, and writes any help, version or usage error
        args = build_parser(command).parse_args(argv)
    try:
        if args.config is not None:
            _apply_config(args, _load_config(args.config))
        text = "\n".join(args.func(args)) + "\n"
        if args.out is not None:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    # bad spec, option value, config, or file path, or an allocation an option sized too large
    except (ValueError, OSError, MemoryError) as exc:
        kind = "spec" if isinstance(exc, InvalidSpecError) else "input"
        print(f"invalid {kind}: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    except OracleInfeasibleError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ORACLE_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
