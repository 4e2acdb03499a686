"""Every pinned run of the command line: one row per argv.

A row holds what running its argv must give:

- the exit code;
- the sha256 of the whole stdout, where one is pinned;
- the stderr: its exact text, or a pattern the whole text must match;
- checks on the stdout: a pattern it must contain, or a predicate on the
  parsed JSON report;
- a time bound in seconds, where the run must not hang;
- tags, each of which asks for one more run of the row under a constraint
  that only a fresh process can take: `ONE_CPU` (pinned to one CPU, so
  `verify` shoots its oracle table in one share and forks no child),
  `NO_MPMATH` (mpmath, a test-only reference, cannot be imported) and
  `AS_LIMIT` (a 1.5 GB address-space limit, as `ulimit -v 1500000`).

`tests/test_cli_pinned.py` runs every row through `calogero.cli.main`
in-process.  Run as a script,

    python tests/cli_pins.py

runs every row through `python -m calogero` in a fresh interpreter with
COLUMNS=80 and the checkout's `src` first on PYTHONPATH, once as it stands
and once more under each of its tags, applies its time bound there, and
exits 1 if any run breaks its row.  Either way a moved digest prints the
argv, the new digest and the pinned one: a change that moves bytes copies
the new digest into the row and says in CHANGES.md why it moved.  The
history of the pins is in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Union

ONE_CPU, NO_MPMATH, AS_LIMIT = "one-cpu", "no-mpmath", "as-limit"
TAGS = (ONE_CPU, NO_MPMATH, AS_LIMIT)
_AS_BYTES = 1_500_000 * 1024

Check = Union[re.Pattern, Callable[[dict], bool]]


class Pin(NamedTuple):
    code: int
    sha256: str | None = None
    err: str | re.Pattern = ""
    out: tuple[Check, ...] = ()
    seconds: float | None = None
    tags: tuple[str, ...] = ()


def every_check_passes(report: dict) -> bool:
    return bool(report["checks"]) and all(check["passed"] for check in report["checks"])


def oracle_agrees(report: dict) -> bool:
    return any(check["name"] == "oracle-agreement" and check["passed"] for check in report["checks"])


def oracle_gap_within_1e_12(report: dict) -> bool:
    return report["results"]["oracle"]["max_rel_gap"] <= 1e-12


def dive_side_levels(report: dict) -> bool:
    """The ground state below -1e23, levels 1 and 2 within 1e-5 of 2.5 and 6.5."""
    e = report["results"]["energies"]
    return e[0] < -1e23 and abs(e[1] - 2.5) <= 1e-5 and abs(e[2] - 6.5) <= 1e-5


# a refusal writes nothing to stdout
EMPTY = hashlib.sha256(b"").hexdigest()


def _zeros(n: int) -> re.Pattern:
    return re.compile(f'"observed_zeros": {n},')


# kappa = 3/2 has one self-adjoint extension: with no --nu, an ignored --nu
# or --friedrichs its spectrum prints the same bytes
_KAPPA_3_2 = "7bac98cb1b4b3fb027f957640296b19de6cdef5722504dc383336f3bb7fb5ec8"
_KAPPA_HALF_NEEDS_NU = (
    "invalid request: extension_for: only kappa >= 1 has one extension; kappa=0.5 needs nu or friedrichs\n")
_OUT_IS_A_DIRECTORY = "invalid request: cannot write --out .: Is a directory\n"
_GAMMA_BUG = "first failing row: 2-nu-zero-closed-form (1.670e-02 > 1e-10)\n"
_VERIFY = "e5b374c9436fd85695f40160afc60bbb9fc9ae684f3d0ffaa94c04775c0572d7"
_VERIFY_GAMMA_BUG = "2c85a5363ce523f3edf5ef7ca8f8071e5d4aa9e3eec0dfb78ad76a00048c4873"
_H_SHIFT = "check factorization-residual failed at x = 1.3\n"
_TOO_MANY_ZEROS = "observed 322 zeros vs predicted 47.75 (allowed slack 5.77)\n"
_LEFT_LEAVES_FLOAT64 = "numerical failure: shoot_spectrum: the left solution at e = 0 leaves the float64 range\n"

PINS = {
    # spectrum
    "spectrum --g1 0 --g2 1 --nu 1.0":
        Pin(0, "01352a6b2292e9f24fd25f5b0976ea55102fb0935818e55bb9ae91b5c897550b"),
    "spectrum --g1 0 --g2 1 --nu 1.0 --format csv":
        Pin(0, "41c7ee0c93bd32ab2c6f44ffd90cca91f715349aca023a470beeaf0a6c0bb2fd"),
    "spectrum --g1 0.75 --g2 1 --unique --n 3":
        Pin(0, "c062d17ac25a679a33412c961a322505b1d475a137bcef75ad482b94b938741a"),
    "spectrum --g1 2 --g2 1": Pin(0, _KAPPA_3_2),
    # a nu ignored at kappa >= 1 is one plain warning line that names no source file
    "spectrum --g1 2 --g2 1 --nu 0.3":
        Pin(0, _KAPPA_3_2, "warning: kappa=1.5 >= 1: operator is essentially self-adjoint, nu=0.3 ignored\n"),
    "spectrum --g1 2 --g2 1 --friedrichs": Pin(0, _KAPPA_3_2),
    "spectrum --g1 0 --g2 16 --friedrichs --n 2 --format csv":
        Pin(0, "28656c732726f0e25168092bddbbee42978a9a618829d1e49da67a9d88c1d097"),
    "spectrum --g1 0 --g2 1 --unique": Pin(2, EMPTY, _KAPPA_HALF_NEEDS_NU),
    "spectrum --g1 0 --g2 1": Pin(2, EMPTY, _KAPPA_HALF_NEEDS_NU),
    "spectrum --g1 0 --g2 1 --nu 1.0 --out .": Pin(2, EMPTY, _OUT_IS_A_DIRECTORY),
    "spectrum --g1 0 --g2 1 --nu 1 --n 2 --out .": Pin(2, EMPTY, _OUT_IS_A_DIRECTORY),
    # an argument the subcommand leaves over: argparse's top-level usage
    "spectrum --g1 0 --g2 1 --nu 1 --bogus": Pin(2, EMPTY, re.compile(
        r"usage: calogero \[-h\] \[--version\].*unrecognized arguments: --bogus\n", re.S)),
    "spectrum --g1 -1 --g2 1 --nu 0":
        Pin(3, EMPTY, "no generalized oscillator representation: g1 < -1/4\n"),
    # boundary roots: next to their poles and one ulp below them
    "spectrum --g1 -0.24999997 --g2 1 --nu 1.5693 --n 21":
        Pin(0, "701275237caad5b6371a628159e62384241d19768ece8e76e2c2885b0f53da4f"),
    "spectrum --g1 -0.24999999999999997 --g2 1 --nu 1.570795 --n 50":
        Pin(0, "d28bf065d92720cee31c0af4e6ac9e803ec52350955a7c15b1471cae9672fba7"),
    "spectrum --g1 0.11318955985047002 --g2 1 --nu 1.5707963267948963 --n 26": Pin(0),
    "spectrum --g1 0.03127312060734 --g2 1 --nu 1.5707963267948963 --n 21": Pin(0),
    # poles 6e-15 below kappa = 1, and kappa one ulp below 1, where a pole and a
    # zero round to one float
    "spectrum --g1 0.749999999999988 --g2 1 --nu 0.7376 --n 20":
        Pin(0, "d6db9599015cf027a38c9bf01efec2f684958e2a5144bfb483089cd2e9829d1b"),
    "spectrum --g1 0.7499999999999998 --g2 1 --nu 1 --n 3":
        Pin(0, "f5b9c1edf02e3f3dd9fd552ecfad24b41ace81f0ff5965bbfcdc2616cfd34830"),
    # kappa = 0 ground states near -1.76e217 (49 levels above it) and at
    # ln|E| ~ 705, inside the deepest floor -4 e^708.39 - 8
    "spectrum --g1 -0.25 --g2 1 --nu 1.5687963 --n 50":
        Pin(0, "2e3e88ac95b3e9f1d9b4950e47670bde4edc4fe922d59e1eccfbf4c8842d8ebe"),
    "spectrum --g1 -0.25 --g2 1 --nu 1.5693781897607493":
        Pin(0, "095b0f2a3e127a21c31894bf516bf2a3709be0afa02bb47f289ad23a62e3000a"),
    # 8.3e-7 above -pi/2 at kappa = 1/4: the dive side's ground state near
    # -2.6e24 and levels 1 and 2 just above 2.5 and 6.5 (only nu = +-pi/2
    # itself is the Friedrichs extension)
    "spectrum --g1 -0.1875 --g2 1 --nu -1.5707955 --n 3":
        Pin(0, "14203e8173ebb542e649211f3283bc65e17cee653aeeabe26554affc4500891c", out=(dive_side_levels,)),
    # tan nu ~ -1.6e16 at kappa = 1/8: levels 1 and 2 round onto the poles
    # below them and are the floats just above those poles
    "spectrum --g1 -0.234375 --g2 1 --nu -1.5707963267948961 --n 3":
        Pin(0, "60ebd27a4989a9bdc04c84c16e426d22dee04a1902e664ee36a1dc2747fdef5f"),
    # spectrum --oracle on
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on":
        Pin(0, "1b5f5d71cd9c294c06cdfb1ff000faa89df3e955b566708e460b57a86549a028"),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on --format csv":
        Pin(0, "9cc26653fe7a2dc585dc14b99db388ef58d681ee3f158361bd1eee9bb685ba52"),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 8 --oracle on": Pin(0),
    # level 8, the top level the oracle's old 8/ups window held
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 9 --oracle on":
        Pin(0, "fadcba5a311e427e13369112c65302a2dcbb5db7ab0ba537418c73c802939dcf"),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 13 --oracle on": Pin(0, out=(oracle_agrees,)),
    "spectrum --g1 0 --g2 1 --nu 1 --n 30 --oracle on": Pin(0, out=(oracle_gap_within_1e_12,)),
    # the oracle climbs from a deep ground state
    "spectrum --g1 -0.16 --g2 1 --nu -1.3 --n 2 --oracle on": Pin(0),
    # a ground state near -349 ups^2 and the level above it
    "spectrum --g1 0.300564 --g2 57.6 --nu -1.5613 --n 2 --oracle on":
        Pin(0, "5f84448df9c1b146947aa5e63db0711bb7f0de281dce096e68030b239e63366c"),
    # a deep ground state below a flat matching angle and two levels above it
    "spectrum --g1 -0.032835996078904306 --g2 133.97456812019843 --nu -1.2134807836065487 --n 3 --oracle on":
        Pin(0),
    # the ground state next to kappa = 1, whose node leaves through x_min
    "spectrum --g1 0.74980001 --g2 1 --nu 0.72 --n 3 --oracle on": Pin(0),
    # a spectral level at exactly 0, measured in units of ups^2
    "spectrum --g1 -0.25 --g2 1 --nu -0.6802522689117267 --n 2 --oracle on": Pin(0),
    # a kappa = 8.4 ladder ground state ends on a Newton step below one ulp
    "spectrum --g1 70.31 --g2 1 --unique --oracle on --n 3": Pin(0),
    # the kappa = 100 ladder its Newton runaway once refused
    "spectrum --g1 1e4 --g2 1 --unique --oracle on --n 3": Pin(0, out=(oracle_agrees,), seconds=10),
    "spectrum --g1 1e6 --g2 1 --unique --oracle on --n 2": Pin(4, EMPTY, _LEFT_LEAVES_FLOAT64),
    # g2 from 1e-300 to 1e300, one conversion from the g2 = 1 problem
    "spectrum --g1 1 --g2 1e-300 --unique --n 3 --oracle on": Pin(0, out=(oracle_agrees,)),
    "spectrum --g1 1 --g2 1e-47 --unique --n 3 --oracle on": Pin(0, out=(oracle_agrees,)),
    "spectrum --g1 1 --g2 1e-30 --unique --n 3 --oracle on": Pin(0, out=(oracle_agrees,)),
    "spectrum --g1 1 --g2 1e300 --unique --n 3 --oracle on": Pin(0, out=(oracle_agrees,)),
    # kappa = 1e10
    "spectrum --g1 1e20 --g2 1e-300 --unique --n 1 --oracle on": Pin(4, EMPTY, _LEFT_LEAVES_FLOAT64, seconds=5),
    # sweep
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2":
        Pin(0, "8ef0e3b83711e8ba77490a9bd338b092c9fd591c9ffb7003077ea641f46ee69d"),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2 --format csv":
        Pin(0, "5e0accbf21449be6602c72ab6f64fe54f30a5b21ba9e8ac47eebe8bfbcad0e44"),
    "sweep --g1 0 --g2 1 --sweep -1.5707963267948966 1.5707963267948966 3":
        Pin(0, "0355f7256ac1e29c405209735e88707130f46e7030ccce8a81d45da26ed20913"),
    # from one dive to the other
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 16 --n 4":
        Pin(0, "8fb15ec141c7d2f6efbea6b26a06994b3c444c0bf4ce441b85ef1d8eac88f33f"),
    # a table past memory, refused before its rows are formed
    "sweep --g1 0 --g2 1 --sweep -1 1 1e9": Pin(2, EMPTY, (
        "invalid request: --sweep COUNT x --n = 1e+09 levels, more than the 100000 one report holds\n"),
        seconds=1, tags=(AS_LIMIT,)),
    # an endpoint past pi/2: one line, no usage
    "sweep --g1 0 --g2 1 --sweep -1 1.6 3":
        Pin(2, EMPTY, "invalid request: extension_for: nu=1.6 outside [-pi/2, pi/2]\n"),
    # factorize-check; its checks run in z = ups x, so at g2 != 1 the residual
    # points and the phi-positive grid are the g2 = 1 ones: worst_x is the
    # worst z / ups
    "factorize-check --g1 -0.25 --g2 2 --mu 0.4 --w 0.3":
        Pin(0, "fe9c4721e6e3edb8a5235a28452ac838e645ca0c939347706fc0cf496bf49b48"),
    "factorize-check --g1 0 --g2 1 --mu 1.1 --w 2.5":
        Pin(0, "16033f2e3434a2ab7718da0345f1b904bd5fcc56b39428d6c6683803b022d46d"),
    "factorize-check --g1 2 --g2 3 --mu 0.7 --w 5":
        Pin(0, "bf32e51c08370ba9650534fa7b64ce0fbf97ff7fefe4b5353bdcaf96b6a58cf5"),
    "factorize-check --g1 0.75 --g2 1 --mu 0.3 --w -1":
        Pin(0, "530832f2fd99b908acff342eca410d9c7c4fafff47acc66dcb18b28b983b76ec"),
    "factorize-check --g1 -0.1875 --g2 1 --mu 0.9 --w 0.6 --format csv":
        Pin(0, "d1d47c39139910d27cc3711df3043779cf2268e2c2694f4a2e283fa17c367d88"),
    # a perturbed superpotential fails the residual check
    "factorize-check --h-shift 0.01":
        Pin(4, "8094eaf0340a05bb5f036e48f1c786f71d23b64ef7c44d78e963724ff916de6a", _H_SHIFT),
    "factorize-check --h-shift 0.01 --format csv":
        Pin(4, "9b8106a7f57a6b45bec0c711578d604fb52e13603f7759bb338eb33cca83502e", _H_SHIFT),
    # a large shift, and one that once crashed in the Psi series
    "factorize-check --g1 0 --g2 1 --mu 0.3 --w 45":
        Pin(0, "760120a47f6a8a3cf7a5612e70def825aeb4019bc29eeca12358472378f46a2f"),
    "factorize-check --g1 0.7807903308142254 --g2 5.077302842318259 --mu 0.6791278949851294 "
    "--w 36.14217864343359":
        Pin(0, "ee4e8df5ee185a4d50911fac64cbfdedc5db79c378ec39fed0e192a4fd42c6a2"),
    # Gamma(150.75), the scale of phi, fits float64 (up to 171.6); Gamma(180.75)
    # and Gamma(alpha ~ 5e149) do not
    "factorize-check --g1 0 --g2 1 --mu 0.3 --w 150":
        Pin(0, "1ef0fb534eafeb3d7aec2399d91685b1fc66188262dc5339f619ab0f6c8df7b0"),
    "factorize-check --g1 0 --g2 1 --mu 0.3 --w 180":
        Pin(4, EMPTY, "numerical failure: gamma: Gamma(180.75) overflows float64\n"),
    "factorize-check --g1 1e300": Pin(4, EMPTY, "numerical failure: gamma: Gamma(5e+149) overflows float64\n"),
    # any g2: in x, phi's Phi overflowed at rho ~ 1690 and 986 (g2 = 1e6, 5e4),
    # the Psi sweep ran out of steps (1e-300) and phi underflowed to 0 (170162.5)
    "factorize-check --g1 0 --g2 1e6": Pin(0, out=(every_check_passes,)),
    "factorize-check --g1 0 --g2 5e4": Pin(0, out=(every_check_passes,)),
    "factorize-check --g1 0 --g2 1e-300 --mu 0.3 --w 0.2": Pin(0, out=(every_check_passes,)),
    "factorize-check --g1 2.58 --g2 170162.5 --mu 0 --w -0.0176": Pin(0, out=(every_check_passes,)),
    # nonexistence
    "nonexistence --g1 -1.25 --g2 1":
        Pin(0, "a6b993ce5dddd1c0dfa0a3786f1332833c46b4114f226a48c7e1ba3e677f873e"),
    "nonexistence --g1 -1.25 --g2 1 --format csv":
        Pin(0, "472169a229d0e0c9aa24e6e0e6a9b6f27f9bc2efee6668472b9a528fbdc2caa5"),
    "nonexistence --g1 0 --g2 -1":
        Pin(0, "23677a36498a43e200a0238c3f18f5146584cff9d1be59fc93fbb32f4f05817c"),
    # rescaled segments count no zero in the forced existence check
    "nonexistence --g1 0 --g2 1 --force":
        Pin(0, "22c2f9e9a8681d5d7883faea96fe9ecce8724a51b80f475e2508c88f0d9de6e2", out=(_zeros(0),)),
    # rescaled segments down to 1e-300
    "nonexistence --g1 -1.25 --g2 1 --interval 1e-300 1e-290": Pin(0, out=(_zeros(7),)),
    # x_hi / x_lo overflows and the interval keeps its phase
    "nonexistence --g1 -0.2501 --g2 0 --interval 1e-300 1e10":
        Pin(0, out=(_zeros(2), re.compile('"predicted_zeros": 2.27'))),
    # the outward census
    "nonexistence --g1 0 --g2 -4 --interval 0.1 30": Pin(0, out=(_zeros(286),)),
    "nonexistence --g1 0 --g2 -1 --u -10000 --interval 10 20":
        Pin(4, "7a9757fa008b2f156d5fd2f63d9d904add4bc92a693f4906bf7320e80eea80c8", _TOO_MANY_ZEROS),
    "nonexistence --g1 0 --g2 -1 --u -10000 --interval 10 20 --format csv":
        Pin(4, "33ee01a5e60611cda45c083a2848b2f6378e7eaeb4ef7691b6dfdd116ac76d67", _TOO_MANY_ZEROS),
    "nonexistence --g1 0 --g2 1": Pin(2, EMPTY, (
        "invalid request: existence region (g1 >= -1/4, g2 >= 0): a positive solution exists, nothing to "
        "demonstrate; pass --force to count zeros anyway\n")),
    # the segment at x_hi needs at least sqrt(g2) (x_hi^2 - x_a^2) / 6
    # propagator steps, far past one call's budget: refused at once
    "nonexistence --g1 -1.25 --g2 1 --interval 1e-3 1e10": Pin(4, EMPTY, (
        "numerical failure: count_zeros: x in (2.37137e+08, 10000000000.0) needs at least 1.67e+19 steps, "
        "more than the 100000 one call may take\n"), seconds=5),
    # a zero count past the segment budget, refused before it allocates
    "nonexistence --g1 -1e300 --g2 1": Pin(4, EMPTY, (
        "numerical failure: count_zeros: phase 1.38e+151 over (1e-08, 0.01) predicts more than 12500 "
        "zeros\n"), tags=(AS_LIMIT,)),
    # verify
    "verify": Pin(0, _VERIFY, tags=(ONE_CPU, NO_MPMATH)),
    "verify --format csv":
        Pin(0, "dae8312233a532de24694b020b8d8adeb48763b89ee5fefc2cba50ef6931541e"),
    "verify --inject-gamma-bug": Pin(4, _VERIFY_GAMMA_BUG, _GAMMA_BUG),
    # the benchmark's warm-up and fault probe still pass --quick, which
    # runs the full table: the same bytes as without it
    "verify --quick": Pin(0, _VERIFY),
    "verify --quick --inject-gamma-bug": Pin(4, _VERIFY_GAMMA_BUG, _GAMMA_BUG),
    "verify --quick --inject-gamma-bug --format csv":
        Pin(4, "221e4c56708719635c9bb955896c9e86e564ce460fbd0fc0c60c07b34365cbbb", _GAMMA_BUG),
    # refused before the table runs
    "verify --out .": Pin(2, EMPTY, _OUT_IS_A_DIRECTORY),
}


def _holds(check: Check, out: str) -> bool:
    if isinstance(check, re.Pattern):
        return check.search(out) is not None
    try:
        return bool(check(json.loads(out)))
    except (ValueError, LookupError, TypeError):
        return False


def failures(argv: str, pin: Pin, code: int, out: str, err: str) -> list[str]:
    """One line for each way a run of argv that exited with code and wrote
    out and err breaks its row; none if it keeps it."""
    found = []
    if code != pin.code:
        found.append(f"{argv}: exit {code}, pinned {pin.code}")
    digest = hashlib.sha256(out.encode()).hexdigest()
    if pin.sha256 is not None and digest != pin.sha256:
        found.append(f"{argv}: stdout sha256 {digest}, pinned {pin.sha256}")
    if isinstance(pin.err, str) and err != pin.err:
        found.append(f"{argv}: stderr {err!r}, pinned {pin.err!r}")
    if isinstance(pin.err, re.Pattern) and not pin.err.fullmatch(err):
        found.append(f"{argv}: stderr {err!r}, pinned pattern {pin.err.pattern!r}")
    for check in pin.out:
        if not _holds(check, out):
            name = check.pattern if isinstance(check, re.Pattern) else check.__name__
            found.append(f"{argv}: stdout fails {name}")
    return found


_SRC = Path(__file__).resolve().parents[1] / "src"
_BLOCK_MPMATH = ("import runpy, sys; sys.modules['mpmath'] = None; "
                 "runpy.run_module('calogero', run_name='__main__', alter_sys=True)")


def _constrain(tag: str | None) -> None:
    """Take tag's constraint in the child, before it runs the interpreter."""
    if tag == ONE_CPU:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    elif tag == AS_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (_AS_BYTES, _AS_BYTES))


def run_in_subprocess(argv: str, pin: Pin, tag: str | None) -> list[str]:
    """Run argv through `python -m calogero` under tag (None: as it stands)."""
    entry = ["-c", _BLOCK_MPMATH] if tag == NO_MPMATH else ["-m", "calogero"]
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(_SRC), os.environ.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, *entry, *argv.split()], capture_output=True, env=env,
                              timeout=pin.seconds, preexec_fn=lambda: _constrain(tag))
    except subprocess.TimeoutExpired:
        return [f"{argv}: no exit within {pin.seconds} s"]
    return failures(argv, pin, proc.returncode, proc.stdout.decode(), proc.stderr.decode())


def main() -> int:
    if sys.argv[1:]:
        print("usage: python tests/cli_pins.py (no options: it runs every row)", file=sys.stderr)
        return 2
    failed = runs = 0
    for argv, pin in PINS.items():
        for tag in (None, *pin.tags):
            start = time.perf_counter()
            found = run_in_subprocess(argv, pin, tag)
            runs += 1
            failed += bool(found)
            label = f" [{tag}]" if tag else ""
            print(f"{'FAIL' if found else 'ok':4} {time.perf_counter() - start:6.2f} s  {argv}{label}")
            for line in found:
                print(f"     {line}")
    print(f"{len(PINS)} rows, {runs} runs: " + (f"{failed} failed" if failed else "all passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
