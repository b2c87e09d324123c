"""Command-line front end.

Subcommands: gen | stft | norm | locop | spectrum | verify.  All numeric
output uses 17 significant decimal digits so golden files compare exactly.
Exit codes: 0 success, 1 verification violations, 2 usage or config errors
and requests too large for memory, 3 numeric failures (quadrature
insufficiency, conditioning, SVD).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ConditioningError,
    DomainError,
    PrecisionError,
    RangeError,
    UnboundedError,
    UsageError,
    fmt17,
    integer,
    number,
)
from .lattice import LatticeSpec, Signal, TorusGrid
from .locop import apply_operator, kernel, spectrum
from .modulation import (
    WindowSpec,
    modulation_norm,
    orlicz_modulation_norm,
    symbol_modulation_norm,
    symbol_window,
    window_signal,
)
from .orlicz import luxemburg, mixed_norm, mixed_norm_swapped
from .serialization import (
    dump_field,
    dump_kernel_json,
    dump_kernel_raw,
    dump_signal,
    dump_summary,
    load_field,
    load_kernel_json,
    load_signal,
)
from .stft import stft
from .verify import (
    DEFAULT_SEED,
    ENSEMBLES,
    CheckSpec,
    Environment,
    default_specs,
    generate_ensemble,
    report_lines,
    run_suite,
)
from .young import YoungFunction, eq5, power, quasi_young, young_from_dict


# ---------------------------------------------------------------------------
# config


@dataclass
class Config:
    """A validated verify config: grids, window, requested checks, report path."""

    seed: int
    lattice: LatticeSpec
    torus: TorusGrid
    window: WindowSpec
    checks: list  # CheckSpecs, in file order
    output: str | None


def _section(obj: dict, name: str, keys: tuple) -> dict:
    sec = obj.get(name, {})
    if not isinstance(sec, dict):
        raise UsageError(f"config {name!r} must be an object")
    extra = set(sec) - set(keys)
    if extra:
        raise UsageError(f"unknown {name} keys: {sorted(extra)}")
    return sec


def config_from_dict(obj: dict, seed: int | None = None) -> Config:
    """Validate a parsed config file; `seed`, when given, replaces the file's seed.

    A check's own seed still wins over both.
    """
    if not isinstance(obj, dict):
        raise UsageError("config must be a JSON object")
    extra = set(obj) - {"seed", "lattice", "torus", "window", "checks", "output"}
    if extra:
        raise UsageError(f"unknown config keys: {sorted(extra)}")
    lat = _section(obj, "lattice", ("n", "K", "C"))
    C = lat.get("C")
    lattice = LatticeSpec(
        integer(lat.get("n", 1), "lattice.n"),
        integer(lat.get("K", 8), "lattice.K"),
        None if C is None else integer(C, "lattice.C"),
    )
    M = _section(obj, "torus", ("M",)).get("M")
    torus = _torus(lattice, None if M is None else integer(M, "torus.M"))
    win = _section(obj, "window", ("kind", "width", "normalization"))
    width = win.get("width")
    window = WindowSpec(
        kind=win.get("kind", "gaussian"),
        width=None if width is None else number(width, "window.width"),
        normalization=win.get("normalization", "l2"),
    )
    file_seed = integer(obj.get("seed", DEFAULT_SEED), "seed")  # checked even if replaced
    seed = file_seed if seed is None else seed
    checks = obj.get("checks", [])
    if not isinstance(checks, list):
        raise UsageError("config 'checks' must be a list")
    keys = {f.name for f in fields(CheckSpec)}
    specs = []
    for c in checks:
        if not isinstance(c, dict) or "id" not in c:
            raise UsageError("each check override needs an 'id'")
        bad = set(c) - keys
        if bad:
            raise UsageError(f"unknown check keys: {sorted(bad)}")
        specs.append(CheckSpec(**{"seed": seed, **c}))
    out = obj.get("output")
    if out is not None and not isinstance(out, str):
        raise UsageError("config 'output' must be a file name")
    return Config(seed, lattice, torus, window, specs, out)


# ---------------------------------------------------------------------------
# argument helpers


def _number(token: str, what: str) -> float:
    """A numeric command-line token ("inf" included) as a float."""
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"{what}: {token!r} is not a number") from None


def _parse_window(token: str) -> WindowSpec | str:
    """A window token: gaussian[:width], kronecker, or a signal file path."""
    if token == "kronecker":
        return WindowSpec("kronecker")
    if token == "gaussian":
        return WindowSpec("gaussian")
    if token.startswith("gaussian:"):
        return WindowSpec("gaussian", width=_number(token[9:], "gaussian window width"))
    return token  # treated as a path


def _window_signal(token: str, lattice: LatticeSpec) -> Signal:
    spec = _parse_window(token)
    if isinstance(spec, WindowSpec):
        return window_signal(spec, lattice)
    with open(spec, "r", encoding="utf-8") as fh:
        sig = load_signal(fh.read())
    if sig.spec != lattice:
        raise UsageError("window file lattice does not match the input lattice")
    return sig


def _parse_young(token: str) -> YoungFunction:
    """eq5 | power:<p> | quasi:<p>:<base...> | inline JSON spec."""
    if token == "eq5":
        return eq5()
    if token.startswith("power:"):
        return power(_number(token[6:], "power exponent"))
    if token.startswith("quasi:"):
        parts = token.split(":", 2)
        if len(parts) < 3:
            raise UsageError(f"quasi needs quasi:<p>:<base>, got {token!r}")
        return quasi_young(_parse_young(parts[2]), _number(parts[1], "quasi order"))
    try:
        spec = json.loads(token)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise UsageError(f"cannot parse Young-function spec {token!r}") from exc
    return young_from_dict(spec)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _lattice_from_args(args) -> LatticeSpec:
    return LatticeSpec(args.n, args.K, args.C)


def _torus(lattice: LatticeSpec, M: int | None) -> TorusGrid:
    """The torus grid for `lattice`: M samples per axis, 6K + 1 unless given."""
    return TorusGrid(lattice.n, 6 * lattice.K + 1 if M is None else M)


def _add_grid_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=1, help="lattice dimension")
    p.add_argument("--K", type=int, default=8, help="admissible support radius")
    p.add_argument("--C", type=int, default=None, help="computation radius (default 3K)")
    p.add_argument("--M", type=int, default=None, help="torus samples per axis (default 6K+1)")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    lattice = _lattice_from_args(args)
    torus = _torus(lattice, args.M)
    if args.kind == "window":
        sig = _window_signal(args.window, lattice)
        _write(args.out, dump_signal(sig))
        return 0
    env = Environment(lattice, torus, _parse_window_spec_or_default(args.window))
    obj = generate_ensemble(args.kind, args.seed, env)
    if isinstance(obj, Signal):
        _write(args.out, dump_signal(obj))
    else:
        _write(args.out, dump_field(obj))
    return 0


def _parse_window_spec_or_default(token: str) -> WindowSpec:
    spec = _parse_window(token)
    if not isinstance(spec, WindowSpec):
        raise UsageError("gen needs a built-in window (gaussian[:w] or kronecker)")
    return spec


def _cmd_stft(args) -> int:
    sig = load_signal(_read(args.signal))
    torus = _torus(sig.spec, args.M)
    g = _window_signal(args.window, sig.spec)
    F = stft(sig, g, torus)
    _write(args.out, dump_field(F))
    return 0


def _norm_value(args) -> float:
    space = args.space
    if space.startswith("symbol-M"):
        p = _number(space[8:], f"norm space {space!r}")
        F = load_field(_read(args.input))
        G0 = symbol_window(F.spec, F.torus)
        return symbol_modulation_norm(F, G0, p)
    if space == "lphi":
        sig = load_signal(_read(args.input))
        if args.phi is None:
            raise UsageError("--phi is required for lphi")
        return luxemburg(sig.values, 1.0, _parse_young(args.phi))
    if space in ("L", "Lstar"):
        F = load_field(_read(args.input))
        if args.phi is None or args.psi is None:
            raise UsageError("--phi and --psi are required for mixed norms")
        f1, f2 = _parse_young(args.phi), _parse_young(args.psi)
        return mixed_norm(F, f1, f2) if space == "L" else mixed_norm_swapped(F, f1, f2)
    if space.startswith("M") or space.startswith("W"):
        sig = load_signal(_read(args.input))
        torus = _torus(sig.spec, args.M)
        g = _window_signal(args.window, sig.spec)
        if space == "MPhi":
            if args.phi is None:
                raise UsageError("--phi is required for MPhi")
            return orlicz_modulation_norm(
                sig, g, _parse_young(args.phi), variant="MPhi", torus=torus
            )
        if space in ("MPhiPsi", "WPhiPsi"):
            if args.phi is None or args.psi is None:
                raise UsageError("--phi and --psi are required for mixed variants")
            return orlicz_modulation_norm(
                sig,
                g,
                _parse_young(args.phi),
                _parse_young(args.psi),
                variant=space,
                torus=torus,
            )
        p = _number(space[1:], f"norm space {space!r}")
        return modulation_norm(sig, g, p, torus)
    raise UsageError(f"unknown norm space {space!r}")


def _cmd_norm(args) -> int:
    value = _norm_value(args)
    sys.stdout.write(fmt17(value) + "\n")
    return 0


def _load_operator(args):
    F = load_field(_read(args.symbol))
    g1 = _window_signal(args.g1, F.spec)
    g2 = _window_signal(args.g2, F.spec)
    return F, g1, g2


def _cmd_locop(args) -> int:
    F, g1, g2 = _load_operator(args)
    if args.apply is not None:
        f = load_signal(_read(args.apply))
        out = apply_operator(F, g1, g2, f)
        _write(args.out, dump_signal(out))
        return 0
    if args.export_kernel is not None:
        K = kernel(F, g1, g2)
        if args.format == "json":
            _write(args.export_kernel, dump_kernel_json(K))
        else:
            payload, sidecar = dump_kernel_raw(K)
            with open(args.export_kernel, "wb") as fh:
                fh.write(payload)
            _write(args.export_kernel + ".json", sidecar)
        return 0
    raise UsageError("locop needs either --apply or --export-kernel")


def _cmd_spectrum(args) -> int:
    ps = [_number(tok, "--ps") for tok in args.ps.split(",")]
    if args.kernel is not None:
        K = load_kernel_json(_read(args.kernel))
    else:
        if args.symbol is None or args.g1 is None or args.g2 is None:
            raise UsageError("spectrum needs --kernel or (--symbol --g1 --g2)")
        F, g1, g2 = _load_operator(args)
        K = kernel(F, g1, g2)
    sys.stdout.write(dump_summary(spectrum(K, ps)))
    return 0


def _cmd_verify(args) -> int:
    obj = {}
    if args.config is not None:
        try:
            obj = json.loads(_read(args.config))
        except ValueError as exc:  # also an integer past Python's digit limit
            raise UsageError(f"config is not valid JSON: {exc}") from exc
    cfg = config_from_dict(obj, seed=args.seed)
    env = Environment(cfg.lattice, cfg.torus, cfg.window)
    configured = {s.id: s for s in cfg.checks}
    if args.checks is not None:
        ids = [s.strip() for s in args.checks.split(",") if s.strip()]
        if not ids:
            raise UsageError(f"--checks {args.checks!r} names no check")
    else:
        ids = list(configured) or None  # None: the whole registry
    specs = [configured.get(s.id, s) for s in default_specs(ids, cfg.seed)]
    results = run_suite(specs, env)
    _write(args.output if args.output is not None else cfg.output, report_lines(results))
    return 0 if all(r.violations == 0 for r in results) else 1


# ---------------------------------------------------------------------------
# dispatch


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tflocal", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a seeded signal or symbol file")
    _add_grid_options(p)
    p.add_argument("--kind", required=True, choices=[*ENSEMBLES, "window"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", default="gaussian")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("stft", help="analysis transform of a signal file")
    p.add_argument("--signal", required=True)
    p.add_argument("--window", default="gaussian")
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_stft)

    p = sub.add_parser("norm", help="print one norm value (17 significant digits)")
    p.add_argument(
        "--space",
        required=True,
        help="M<p> | symbol-M<p> | lphi | L | Lstar | MPhi | MPhiPsi | WPhiPsi",
    )
    p.add_argument("--input", required=True)
    p.add_argument("--window", default="gaussian")
    p.add_argument("--phi", default=None)
    p.add_argument("--psi", default=None)
    p.add_argument("--M", type=int, default=None)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("locop", help="apply a localization operator or export its kernel")
    p.add_argument("--symbol", required=True)
    p.add_argument("--g1", default="gaussian")
    p.add_argument("--g2", default="gaussian")
    p.add_argument("--apply", default=None)
    p.add_argument("--out", default="-")
    p.add_argument("--export-kernel", default=None)
    p.add_argument("--format", choices=["json", "raw"], default="json")
    p.set_defaults(fn=_cmd_locop)

    p = sub.add_parser("spectrum", help="print the spectral summary of an operator")
    p.add_argument("--kernel", default=None)
    p.add_argument("--symbol", default=None)
    p.add_argument("--g1", default="gaussian")
    p.add_argument("--g2", default="gaussian")
    p.add_argument("--ps", default="1,1.5,2,3,inf")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--config", default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--checks", default=None, help="comma-separated check ids")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)
    return top


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except (UsageError, DomainError, RangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # never exit 1: that code means the verification found violations
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, ConditioningError, UnboundedError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
