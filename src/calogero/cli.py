"""Command-line front end.

Subcommands: spectrum, sweep, factorize-check, nonexistence, verify.
Data goes to stdout (or --out) as JSON or CSV; diagnostics go to stderr.
Exit codes: 0 success, 2 invalid arguments or an invalid request, 3 no
representation exists for the couplings, 4 numerical failure or a check
over threshold.

Each subcommand's handler takes the parsed arguments, calls the library
and returns its report, the tuple (inputs, reduced_params, results, checks,
CSV header, CSV rows, failure line); `main` writes it in the requested
format and sets the exit code: a failed check still writes the whole
report, then prints its failure line to stderr and exits 4.  Past parsing,
every refusal but exit 3 is a DomainError (exit 2) or ConvergenceError
(exit 4), raised where its rule lives and printed by `main` as one stderr
line; a refusal writes nothing to stdout.

JSON output is deterministic byte for byte for identical inputs: fixed
key order, floats at 17 significant digits, no timestamps. The JSON
schema is always {inputs, reduced_params, results, checks, version};
CSV carries the results table with a header row. Negative numbers may
be written in exponent notation (`--nu -1e-3`).

`main(argv)` may be called many times in one process: it builds its
parser once, on the first call, and every later call reuses it.  An argv
that names a subcommand is parsed once, by that subcommand's parser, as
argparse's subparsers action would hand it on; where that parser leaves
an argument over, or argv names no subcommand, the full parser parses it
again, so every usage line, error, --help and --version is argparse's own.

Importing this module and building the parser load no other module of the
package than `errors`: a subcommand imports the library modules it calls
when it first calls them.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import importlib
import io
import json
import math
import os
import re
import sys
import warnings

from . import _HOME, __version__
from .errors import ConvergenceError, DomainError

__all__ = ["main"]

# the library names the handlers call, each imported from its module on first
# access (module __getattr__ below: the package's map `_HOME`, then these, which
# it does not export) and kept as an attribute of this module; handlers call
# them as `_cli.<name>`, so a replaced attribute is the one called
_LAZY = {
    "run_acceptance": "acceptance",
    "KERNEL_THRESHOLD": "factorization",
    "RESIDUAL_THRESHOLD": "factorization",
    "kernel_sweep": "factorization",
    "residual_sweep": "factorization",
    "gamma_skew": "spectral",
}


def __getattr__(name: str):
    home = _HOME.get(name) or _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __package__), name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_REPRESENTATION = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# deterministic rendering


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ConvergenceError(f"non-finite value reached the output layer: {x!r}")
    return f"{x:.17g}"


# json.dumps of a str, without its dispatch: how keys and strings are written
_json_str = json.encoder.encode_basestring_ascii
_JSON_TYPES = frozenset((dict, list, tuple, bool, int, float, str, type(None)))


def _render_json(obj, indent: int = 0) -> str:
    """obj as JSON, each level of a dict, list or tuple indented two spaces
    on its own lines; floats by `_fmt`, strings and dict keys as json.dumps
    writes them.  Dispatches on the exact type, and a float in a list is
    written in place rather than by a call per value; any other type,
    a subclass of one of these included, is a TypeError."""
    t = type(obj)
    if t not in _JSON_TYPES:
        raise TypeError(f"unrenderable type {t!r}")
    if t is float:
        return _fmt(obj)
    if t is str:
        return _json_str(obj)
    if t is bool:
        return "true" if obj else "false"
    if t is int:
        return str(obj)
    if obj is None:
        return "null"
    if not obj:
        return "{}" if t is dict else "[]"
    inner = indent + 1
    if t is dict:
        brackets = "{}"
        items = [
            f"{_json_str(k) if type(k) is str else json.dumps(k)}: {_render_json(v, inner)}"
            for k, v in obj.items()
        ]
    else:
        brackets = "[]"
        items = [f"{v:.17g}" if type(v) is float and math.isfinite(v) else _render_json(v, inner) for v in obj]
    pad_in = "  " * inner
    return f"{brackets[0]}\n{pad_in}" + f",\n{pad_in}".join(items) + f"\n{'  ' * indent}{brackets[1]}"


def _render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [
                ("true" if v else "false") if isinstance(v, bool)
                else _fmt(v) if isinstance(v, float)
                else v
                for v in row
            ]
        )
    return buf.getvalue()


def _check_out(out_path: str | None) -> None:
    """Refuse an --out path that cannot be written before any work runs: a
    directory, or one whose parent is missing, no directory or not writable.
    The file itself is not opened, which would truncate it on a later failure."""
    if not out_path:
        return
    parent = os.path.dirname(os.path.abspath(out_path))
    if os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise DomainError(f"cannot write --out {out_path}: {os.strerror(code)}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _reduced_dict(rp) -> dict:
    return {"kappa": rp.kappa, "upsilon": rp.upsilon, "w0": rp.w0, "u0": rp.u0}


# ---------------------------------------------------------------------------
# guards

# the most levels one report holds (a spectrum's --n, a sweep's COUNT x --n):
# at up to ~1 kB per level, ~0.1 GB, where a COUNT of 1e9 ran out of memory
_MAX_LEVELS = 100_000


def _levels_guard(levels: float, asked: str) -> None:
    """Refuse, before any work, a report of more than _MAX_LEVELS levels."""
    if levels > _MAX_LEVELS:
        raise DomainError(f"{asked} = {levels:.6g} levels, more than the {_MAX_LEVELS} one report holds")


def _region_guard(g1: float, g2: float) -> None:
    """Exit 3 with the taxonomy message when no representation exists."""
    region = _cli.classify(g1, g2)
    reasons = {
        _cli.RegionClass.NoRepresentation_FallToCenter: "g1 < -1/4",
        _cli.RegionClass.NoRepresentation_FallToInfinity: "g2 < 0",
        _cli.RegionClass.CalogeroOnly: "g2 = 0 (no confining term)",
    }
    if region in reasons:
        print(
            f"no generalized oscillator representation: {reasons[region]}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_NO_REPRESENTATION)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(args):
    _region_guard(args.g1, args.g2)
    _levels_guard(args.n, "--n")
    rp = _cli.reduce(args.g1, args.g2)
    # an ignored nu's warning as one plain line: Python's format names a source line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ext = _cli.extension_for(rp, nu=args.nu, friedrichs=args.friedrichs)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    result = _cli.spectrum(rp, ext, args.n)
    ups2 = rp.energy_scale()

    inputs = {"command": "spectrum", "g1": args.g1, "g2": args.g2, "extension": ext.label.value,
              "nu": ext.nu, "n": args.n, "oracle": args.oracle}
    results = {
        "method": result.method,
        "energies": list(result.energies),
        "scaled_energies": [e / ups2 for e in result.energies],
        "residuals": list(result.residuals),
        "oracle": None,
    }
    header = ["n", "energy", "scaled_energy", "residual"]
    rows = [[i, e, e / ups2, r] for i, (e, r) in enumerate(zip(result.energies, result.residuals))]
    checks: list = []
    failure = None
    if args.oracle == "on":
        oracle_energies = list(_cli.shoot_spectrum(rp, ext, args.n).energies)
        # a level at exactly 0 is measured in the energy unit ups^2
        gap = max(abs(o - f) / (abs(f) or ups2) for o, f in zip(oracle_energies, result.energies))
        results["oracle"] = {"energies": oracle_energies, "max_rel_gap": gap}
        checks.append({"name": "oracle-agreement", "passed": gap <= 1e-3, "value": gap, "threshold": 1e-3})
        header.append("oracle_energy")
        for row, oe in zip(rows, oracle_energies):
            row.append(oe)
        if not checks[0]["passed"]:
            failure = "oracle disagrees with the spectral equations beyond 1e-3"
    return inputs, _reduced_dict(rp), results, checks, header, rows, failure


def _cmd_sweep(args):
    _region_guard(args.g1, args.g2)
    rp = _cli.reduce(args.g1, args.g2)
    if rp.kappa >= 1.0:
        raise DomainError(f"sweep needs a one-parameter family (kappa < 1), got kappa = {rp.kappa:.6g}")
    lo, hi, count = args.sweep
    if not (count.is_integer() and count >= 2):
        raise DomainError(f"--sweep COUNT must be a whole number >= 2, got {count:g}")
    _levels_guard(count * max(args.n, 1), "--sweep COUNT x --n")
    count = int(count)
    if not (lo < hi):
        raise DomainError("--sweep wants LO < HI")

    # every row's extension first, so an endpoint past pi/2 is refused
    # before any spectrum runs
    nus = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    exts = [_cli.extension_for(rp, nu=nu) for nu in nus]
    table = []
    interior_e0 = []
    for nu, ext in zip(nus, exts):
        energies = list(_cli.spectrum(rp, ext, args.n).energies)
        table.append((nu, energies))
        if not ext.is_ladder:
            interior_e0.append(energies[0])

    # the flow statement lives on the open interval; rows at |nu| = pi/2
    # are the Friedrichs extension (-pi/2 is the same extension as +pi/2),
    # carry the ladder value and sit outside the monotone family
    diffs = [b - a for a, b in zip(interior_e0, interior_e0[1:])]
    if not diffs:
        direction = "single-point"
    elif all(d > 0.0 for d in diffs):
        direction = "increasing"
    elif all(d < 0.0 for d in diffs):
        direction = "decreasing"
    else:
        direction = "not-monotone"
    expected = "decreasing" if rp.kappa == 0.0 else "increasing"
    if direction == "single-point":
        expected = "single-point"
    passed = direction == expected

    inputs = {"command": "sweep", "g1": args.g1, "g2": args.g2, "nu_lo": lo, "nu_hi": hi,
              "count": count, "n": args.n}
    results = {"rows": [{"nu": nu, "energies": es} for nu, es in table], "e0_direction": direction}
    checks = [{"name": "e0-monotone", "passed": passed, "value": direction, "threshold": expected}]
    header = ["nu"] + [f"E{i}" for i in range(args.n)]
    rows = [[nu] + es for nu, es in table]
    failure = None if passed else f"ground-state flow is {direction}, expected {expected}"
    return inputs, _reduced_dict(rp), results, checks, header, rows, failure


def _cmd_factorize_check(args):
    _region_guard(args.g1, args.g2)
    rp = _cli.reduce(args.g1, args.g2)
    rep = _cli.RepresentationParams(args.mu, args.w, rp)
    phi = _cli.make_phi(rep)

    worst, z = _cli.residual_sweep(phi, _cli.factorization_residual, args.h_shift)
    worst_x = z / rp.upsilon  # phi and its checks work in z = ups x
    tol = _cli.RESIDUAL_THRESHOLD
    checks = [{"name": "factorization-residual", "passed": worst <= tol, "value": worst,
               "threshold": tol, "at_x": worst_x}]

    kernel_max = None
    if rep.at_floor:
        kernel_max, tol = _cli.kernel_sweep(phi), _cli.KERNEL_THRESHOLD
        checks.append({"name": "kernel-nontrivial", "passed": kernel_max <= tol, "value": kernel_max,
                       "threshold": tol})

    values = phi.values_on([0.05 + (6.0 - 0.05) * i / 59.0 for i in range(60)])
    min_phi = math.nan if any(math.isnan(v) for v in values) else min(values)
    checks.append({"name": "phi-positive", "passed": min_phi > 0.0, "value": min_phi, "threshold": 0.0})

    inputs = {"command": "factorize-check", "g1": args.g1, "g2": args.g2, "mu": args.mu, "w": args.w}
    results = {
        "u": rep.u,
        "at_floor": rep.at_floor,
        "max_relative_residual": worst,
        "worst_x": worst_x,
        "kernel_max": kernel_max,
        "min_phi_on_grid": min_phi,
    }
    failure = None
    first = next((c for c in checks if not c["passed"]), None)
    if first is not None:
        where = f" at x = {_fmt(first['at_x'])}" if "at_x" in first else ""
        failure = f"check {first['name']} failed{where}"
    header = ["check", "value", "threshold", "passed"]
    rows = [[c["name"], c["value"], c["threshold"], c["passed"]] for c in checks]
    return inputs, _reduced_dict(rp), results, checks, header, rows, failure


def _cmd_nonexistence(args):
    g1, g2 = args.g1, args.g2
    region = _cli.classify(g1, g2)
    defaults = {_cli.RegionClass.NoRepresentation_FallToCenter: (1e-8, 1e-2),
                _cli.RegionClass.NoRepresentation_FallToInfinity: (10.0, 20.0)}
    if region not in defaults and not args.force:
        raise DomainError("existence region (g1 >= -1/4, g2 >= 0): a positive solution exists, "
                          "nothing to demonstrate; pass --force to count zeros anyway")
    interval = tuple(args.interval or defaults.get(region, (1e-4, 5.0)))

    report = _cli.count_zeros(g1, g2, args.u, interval)
    observed, predicted = report.observed_zeros, report.predicted_zeros
    gap, tol = abs(observed - predicted), report.slack
    passed = gap <= tol
    inputs = {"command": "nonexistence", "g1": g1, "g2": g2, "u": args.u, "x_lo": interval[0],
              "x_hi": interval[1], "force": bool(args.force)}
    results = {"mode": report.mode, "observed_zeros": observed, "predicted_zeros": predicted,
               "sigma_or_omega": report.sigma_or_omega}
    checks = [{"name": "zero-count-within-tolerance", "passed": passed, "value": gap, "threshold": tol}]
    header = ["x_lo", "x_hi", "mode", "observed", "predicted", "sigma_or_omega", "u"]
    rows = [[*interval, report.mode, observed, predicted, report.sigma_or_omega, args.u]]
    failure = None
    if not passed:
        failure = f"observed {observed} zeros vs predicted {predicted:.2f} (allowed slack {tol:.2f})"
    return inputs, None, results, checks, header, rows, failure


def _cmd_verify(args):
    token = _cli.gamma_skew.set(0.01 if args.inject_gamma_bug else 0.0)
    try:
        rows = _cli.run_acceptance()
    finally:
        _cli.gamma_skew.reset(token)

    failed = [r for r in rows if not r.passed]
    inputs = {"command": "verify", "inject_gamma_bug": bool(args.inject_gamma_bug)}
    results = {"rows": [
        {"name": r.name, "passed": r.passed, "value": r.value, "threshold": r.threshold, "detail": r.detail}
        for r in rows
    ]}
    checks = [{"name": "all-rows-pass", "passed": not failed, "value": len(failed), "threshold": 0}]
    failure = None
    if failed:
        first = failed[0]
        failure = f"first failing row: {first.name} ({first.value:.3e} > {first.threshold:.0e})"
    header = ["status", "name", "value", "threshold", "detail"]
    table = [["PASS" if r.passed else "FAIL", r.name, r.value, r.threshold, r.detail] for r in rows]
    return inputs, None, results, checks, header, table, failure


# ---------------------------------------------------------------------------
# parser

# argparse's own pattern reads "-1e-3" as an option string, so a value in
# exponent notation would need the "--nu=-1e-3" form; this one accepts it
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_io_flags(sp) -> None:
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", metavar="PATH", default=None, help="write to a file instead of stdout")


def _add_extension_flags(sp) -> None:
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--nu", type=float, default=None, help="extension parameter, radians in [-pi/2, pi/2]")
    group.add_argument("--unique", action="store_true", help="the single extension of kappa >= 1")
    group.add_argument("--friedrichs", action="store_true", help="alias for nu = +-pi/2")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its {subcommand: parser} map, built on
    the first call and shared by every later one.  Parsing writes nothing
    to them: each parse makes a fresh Namespace, the defaults and the
    negative-number pattern are fixed here, and error, --help and --version
    only print and exit."""
    parser = argparse.ArgumentParser(
        prog="calogero",
        description="Spectra and factorizations of -d^2/dx^2 + g1/x^2 + g2 x^2 on the half-line.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="discrete spectrum of one self-adjoint extension")
    sp.add_argument("--g1", type=float, required=True)
    sp.add_argument("--g2", type=float, required=True)
    _add_extension_flags(sp)
    sp.add_argument("--n", type=int, default=5, help="number of levels (default 5)")
    sp.add_argument("--oracle", choices=("on", "off"), default="off",
                    help="cross-check against the shooting solver")
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sw = sub.add_parser("sweep", help="ground-state flow E_n(nu) over an extension range")
    sw.add_argument("--g1", type=float, required=True)
    sw.add_argument("--g2", type=float, required=True)
    sw.add_argument("--sweep", type=float, nargs=3, metavar=("LO", "HI", "COUNT"), required=True)
    sw.add_argument("--n", type=int, default=1, help="levels per nu (default 1)")
    _add_io_flags(sw)
    sw.set_defaults(func=_cmd_sweep)

    fc = sub.add_parser("factorize-check", help="verify b a f = (H + u) f for one representation")
    fc.add_argument("--g1", type=float, default=0.0)
    fc.add_argument("--g2", type=float, default=1.0)
    fc.add_argument("--mu", type=float, default=0.5 * math.pi)
    fc.add_argument("--w", type=float, default=0.0)
    fc.add_argument("--h-shift", type=float, default=0.0, help=argparse.SUPPRESS)
    _add_io_flags(fc)
    fc.set_defaults(func=_cmd_factorize_check)

    ne = sub.add_parser("nonexistence", help="count oscillations where no representation exists")
    ne.add_argument("--g1", type=float, required=True)
    ne.add_argument("--g2", type=float, required=True)
    ne.add_argument("--u", type=float, default=0.0, help="energy shift in the ODE (default 0)")
    ne.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"), default=None)
    ne.add_argument("--force", action="store_true", help="run inside the existence region")
    _add_io_flags(ne)
    ne.set_defaults(func=_cmd_nonexistence)

    vf = sub.add_parser("verify", help="run the cross-validation table")
    # runs the full table; kept while the benchmark's warm-up and fault probe pass it
    vf.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    vf.add_argument("--inject-gamma-bug", action="store_true", help=argparse.SUPPRESS)
    _add_io_flags(vf)
    vf.set_defaults(func=_cmd_verify)

    for sp in sub.choices.values():
        sp._negative_number_matcher = _NEGATIVE_NUMBER
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser (see `_parsers`)."""
    return _parsers()[0]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), parsing argv once where it can.

    The full parser hands everything after a subcommand's name to that
    subcommand's parse_known_args and refuses what it leaves over; when it
    leaves nothing, the Namespace is the subcommand's with `command` first,
    which is what the full parse returns.  Every other argv (no subcommand
    first, an argument left over, or one starting "--=", which the full
    parser refuses as an ambiguous --help/--version before the subcommand's
    parser sees it) is parsed by the full parser."""
    parser, subparsers = _parsers()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is not None and not any(a.startswith("--=") for a in argv):
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            return argparse.Namespace(command=argv[0], **vars(args))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        _check_out(args.out)
        inputs, reduced_params, results, checks, header, rows, failure = args.func(args)
        if args.format == "json":
            text = _render_json({
                "inputs": inputs,
                "reduced_params": reduced_params,
                "results": results,
                "checks": checks,
                "version": __version__,
            })
        else:
            text = _render_csv(header, rows)
        _emit(text, args.out)
    except DomainError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if failure is not None:
        print(failure, file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
