"""Byte pins for the command line: exit code, stdout and stderr.

Each entry runs one argv through `main` in-process and pins its exit code,
the sha256 of its whole stdout and its stderr verbatim.  The table covers
every subcommand in JSON and in CSV, checks that pass and checks that fail
(a failed check still prints the whole report, then exits 4 with one line
on stderr), and the refusals: exit 2 for a bad request, 3 where no
representation exists, 4 for a numerical failure.  A warning is one plain
stderr line, pinned like the rest.  Full `verify`, the nine
oracle levels, the deep ground state and the seven boundary-root runs (a
root next to its pole, one ulp below it, kappa -> 1, the deep kappa = 0
dives and a sweep from one dive to the other) and a dive 8.3e-7 from
-pi/2 are the digests CI pins on the command line.  A change that keeps the arithmetic may not move a byte; one
that does must say so.

`FAULTS` pins the two failure lines no real input reaches: the library name
the handler calls is replaced by one whose energies are skewed.
"""

import hashlib
import types

import pytest

from calogero import cli

_EMPTY = hashlib.sha256(b"").hexdigest()

# argv: (exit code, sha256 of stdout, stderr)
PINS = {
    "spectrum --g1 0 --g2 1 --nu 1.0":
        (0, "01352a6b2292e9f24fd25f5b0976ea55102fb0935818e55bb9ae91b5c897550b", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --format csv":
        (0, "41c7ee0c93bd32ab2c6f44ffd90cca91f715349aca023a470beeaf0a6c0bb2fd", ""),
    # the oracle's left series stops on two small terms in a row: levels 0
    # and 1 moved by 3 ulps and 1 ulp, 7 and 8 by 6 and 2 ulps, the deep
    # ground state by 1 ulp
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on":
        (0, "1b5f5d71cd9c294c06cdfb1ff000faa89df3e955b566708e460b57a86549a028", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on --format csv":
        (0, "9cc26653fe7a2dc585dc14b99db388ef58d681ee3f158361bd1eee9bb685ba52", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 9 --oracle on":
        (0, "fadcba5a311e427e13369112c65302a2dcbb5db7ab0ba537418c73c802939dcf", ""),
    "spectrum --g1 0.300564 --g2 57.6 --nu -1.5613 --n 2 --oracle on":
        (0, "5f84448df9c1b146947aa5e63db0711bb7f0de281dce096e68030b239e63366c", ""),
    "spectrum --g1 0.75 --g2 1 --unique --n 3":
        (0, "c062d17ac25a679a33412c961a322505b1d475a137bcef75ad482b94b938741a", ""),
    "spectrum --g1 2 --g2 1":
        (0, "7bac98cb1b4b3fb027f957640296b19de6cdef5722504dc383336f3bb7fb5ec8", ""),
    "spectrum --g1 2 --g2 1 --nu 0.3": (
        0,
        "7bac98cb1b4b3fb027f957640296b19de6cdef5722504dc383336f3bb7fb5ec8",
        "warning: kappa=1.5 >= 1: operator is essentially self-adjoint, nu=0.3 ignored\n",
    ),
    "spectrum --g1 2 --g2 1 --friedrichs":
        (0, "7bac98cb1b4b3fb027f957640296b19de6cdef5722504dc383336f3bb7fb5ec8", ""),
    "spectrum --g1 0 --g2 16 --friedrichs --n 2 --format csv":
        (0, "28656c732726f0e25168092bddbbee42978a9a618829d1e49da67a9d88c1d097", ""),
    "spectrum --g1 0 --g2 1 --unique": (
        2,
        _EMPTY,
        "invalid request: extension_for: only kappa >= 1 has one extension; kappa=0.5 needs nu or "
        "friedrichs\n",
    ),
    "spectrum --g1 0 --g2 1": (
        2,
        _EMPTY,
        "invalid request: extension_for: only kappa >= 1 has one extension; kappa=0.5 needs nu or "
        "friedrichs\n",
    ),
    "spectrum --g1 0 --g2 1 --nu 1.0 --out .":
        (2, _EMPTY, "invalid request: cannot write --out .: Is a directory\n"),
    "spectrum --g1 -1 --g2 1 --nu 0":
        (3, _EMPTY, "no generalized oscillator representation: g1 < -1/4\n"),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2":
        (0, "8ef0e3b83711e8ba77490a9bd338b092c9fd591c9ffb7003077ea641f46ee69d", ""),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2 --format csv":
        (0, "5e0accbf21449be6602c72ab6f64fe54f30a5b21ba9e8ac47eebe8bfbcad0e44", ""),
    "sweep --g1 0 --g2 1 --sweep -1.5707963267948966 1.5707963267948966 3":
        (0, "0355f7256ac1e29c405209735e88707130f46e7030ccce8a81d45da26ed20913", ""),
    # boundary-root runs that CI pins: roots next to their poles and one
    # ulp below them, kappa within ulps of 1, kappa = 0 ground states near
    # -1.76e217 and at ln|E| ~ 705, and a sweep through both dives
    "spectrum --g1 -0.24999997 --g2 1 --nu 1.5693 --n 21":
        (0, "701275237caad5b6371a628159e62384241d19768ece8e76e2c2885b0f53da4f", ""),
    "spectrum --g1 -0.24999999999999997 --g2 1 --nu 1.570795 --n 50":
        (0, "d28bf065d92720cee31c0af4e6ac9e803ec52350955a7c15b1471cae9672fba7", ""),
    "spectrum --g1 0.749999999999988 --g2 1 --nu 0.7376 --n 20":
        (0, "d6db9599015cf027a38c9bf01efec2f684958e2a5144bfb483089cd2e9829d1b", ""),
    "spectrum --g1 -0.25 --g2 1 --nu 1.5687963 --n 50":
        (0, "2e3e88ac95b3e9f1d9b4950e47670bde4edc4fe922d59e1eccfbf4c8842d8ebe", ""),
    "spectrum --g1 -0.25 --g2 1 --nu 1.5693781897607493":
        (0, "095b0f2a3e127a21c31894bf516bf2a3709be0afa02bb47f289ad23a62e3000a", ""),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 16 --n 4":
        (0, "8fb15ec141c7d2f6efbea6b26a06994b3c444c0bf4ce441b85ef1d8eac88f33f", ""),
    "spectrum --g1 0.7499999999999998 --g2 1 --nu 1 --n 3":
        (0, "f5b9c1edf02e3f3dd9fd552ecfad24b41ace81f0ff5965bbfcdc2616cfd34830", ""),
    # 8.3e-7 above -pi/2 at kappa = 1/4: the dive side's ground state near
    # -2.6e24 and levels 1 and 2 just above 2.5 and 6.5
    "spectrum --g1 -0.1875 --g2 1 --nu -1.5707955 --n 3":
        (0, "14203e8173ebb542e649211f3283bc65e17cee653aeeabe26554affc4500891c", ""),
    # tan nu ~ -1.6e16 at kappa = 1/8: levels 1 and 2 round onto the poles
    # below them and are the floats just above those poles
    "spectrum --g1 -0.234375 --g2 1 --nu -1.5707963267948961 --n 3":
        (0, "60ebd27a4989a9bdc04c84c16e426d22dee04a1902e664ee36a1dc2747fdef5f", ""),
    # the checks run in z = ups x, so at g2 != 1 the residual points and
    # the phi-positive grid are the g2 = 1 ones: worst_x is the worst z / ups.
    # Psi from its recurrence in alpha and the sweep seeded by it moved the
    # residuals and min_phi of these four and of --w 150 in their last bits
    "factorize-check --g1 -0.25 --g2 2 --mu 0.4 --w 0.3":
        (0, "fe9c4721e6e3edb8a5235a28452ac838e645ca0c939347706fc0cf496bf49b48", ""),
    "factorize-check --g1 0 --g2 1 --mu 1.1 --w 2.5":
        (0, "16033f2e3434a2ab7718da0345f1b904bd5fcc56b39428d6c6683803b022d46d", ""),
    "factorize-check --g1 2 --g2 3 --mu 0.7 --w 5":
        (0, "bf32e51c08370ba9650534fa7b64ce0fbf97ff7fefe4b5353bdcaf96b6a58cf5", ""),
    "factorize-check --g1 0.75 --g2 1 --mu 0.3 --w -1":
        (0, "530832f2fd99b908acff342eca410d9c7c4fafff47acc66dcb18b28b983b76ec", ""),
    "factorize-check --g1 -0.1875 --g2 1 --mu 0.9 --w 0.6 --format csv":
        (0, "d1d47c39139910d27cc3711df3043779cf2268e2c2694f4a2e283fa17c367d88", ""),
    "factorize-check --h-shift 0.01": (
        4,
        "8094eaf0340a05bb5f036e48f1c786f71d23b64ef7c44d78e963724ff916de6a",
        "check factorization-residual failed at x = 1.3\n",
    ),
    "factorize-check --h-shift 0.01 --format csv": (
        4,
        "9b8106a7f57a6b45bec0c711578d604fb52e13603f7759bb338eb33cca83502e",
        "check factorization-residual failed at x = 1.3\n",
    ),
    "factorize-check --g1 0 --g2 1 --mu 0.3 --w 180":
        (4, _EMPTY, "numerical failure: gamma: Gamma(180.75) overflows float64\n"),
    # Gamma(150.75), the scale of phi, fits float64 (up to 171.6)
    "factorize-check --g1 0 --g2 1 --mu 0.3 --w 150":
        (0, "1ef0fb534eafeb3d7aec2399d91685b1fc66188262dc5339f619ab0f6c8df7b0", ""),
    "nonexistence --g1 -1.25 --g2 1":
        (0, "a6b993ce5dddd1c0dfa0a3786f1332833c46b4114f226a48c7e1ba3e677f873e", ""),
    "nonexistence --g1 -1.25 --g2 1 --format csv":
        (0, "472169a229d0e0c9aa24e6e0e6a9b6f27f9bc2efee6668472b9a528fbdc2caa5", ""),
    "nonexistence --g1 0 --g2 -1":
        (0, "23677a36498a43e200a0238c3f18f5146584cff9d1be59fc93fbb32f4f05817c", ""),
    "nonexistence --g1 0 --g2 1 --force":
        (0, "22c2f9e9a8681d5d7883faea96fe9ecce8724a51b80f475e2508c88f0d9de6e2", ""),
    "nonexistence --g1 0 --g2 -1 --u -10000 --interval 10 20": (
        4,
        "7a9757fa008b2f156d5fd2f63d9d904add4bc92a693f4906bf7320e80eea80c8",
        "observed 322 zeros vs predicted 47.75 (allowed slack 5.77)\n",
    ),
    "nonexistence --g1 0 --g2 -1 --u -10000 --interval 10 20 --format csv": (
        4,
        "33ee01a5e60611cda45c083a2848b2f6378e7eaeb4ef7691b6dfdd116ac76d67",
        "observed 322 zeros vs predicted 47.75 (allowed slack 5.77)\n",
    ),
    "nonexistence --g1 0 --g2 1": (
        2,
        _EMPTY,
        "invalid request: existence region (g1 >= -1/4, g2 >= 0): a positive solution exists, nothing to demonstrate; pass --force to count zeros anyway\n",
    ),
    "nonexistence --g1 -1.25 --g2 1 --interval 1e-3 1e10": (
        4,
        _EMPTY,
        "numerical failure: count_zeros: x in (2.37137e+08, 10000000000.0) needs at least 1.67e+19 steps, more than the 100000 one call may take\n",
    ),
    # rows 1, 3 and 9 moved with the oracle's left series (3.3e-16,
    # 2.4e-15 and 1.1e-15, from 6.7e-16, 5.6e-15 and 6.7e-15); row 6 names
    # b a f = (H + u) f, row 7-psi-dual-route compares the series with the
    # recurrence and reads 9.7096814617687157e-13 (from 9.718...e-13), and
    # 7-psi-large-rho reads 0.0030820904315523867 (from ...5529418) with
    # Psi(alpha, beta; 100) from the recurrence
    "verify":
        (0, "1fdb2bc29d20c679d62939281303b7289a69ace1ed357191ec5a20fe475092bf", ""),
    "verify --format csv":
        (0, "dae8312233a532de24694b020b8d8adeb48763b89ee5fefc2cba50ef6931541e", ""),
    "verify --quick":
        (0, "a60d7b6ecbd40ac6f1f4bf37a8faf445e3bbaf999a4a4d19de9798e535e975a7", ""),
    "verify --quick --format csv":
        (0, "8e3a99cc73b5147ab972970db78eb0efcb13157010b24066b1aeacf2684adeee", ""),
    "verify --inject-gamma-bug": (
        4,
        "6f6496632afa9f1c99ed682beaeda0e2babba2f0b728b622f21ce070bf288a7f",
        "first failing row: 2-nu-zero-closed-form (1.670e-02 > 1e-10)\n",
    ),
    "verify --quick --inject-gamma-bug": (
        4,
        "6235c22216f7648d70ad6e680ac9859ce94a5bd055b2bb964c296488f419d75a",
        "first failing row: 2-nu-zero-closed-form (1.670e-02 > 1e-10)\n",
    ),
    "verify --quick --inject-gamma-bug --format csv": (
        4,
        "f90745012270f0732477ff90cf249105a380e24e8da14803b0decf92455a5440",
        "first failing row: 2-nu-zero-closed-form (1.670e-02 > 1e-10)\n",
    ),
}

# argv: (library name, map of each energy it returns), then the pin
FAULTS = {
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on": ("shoot_spectrum", lambda e: 1.01 * e),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on --format csv":
        ("shoot_spectrum", lambda e: 1.01 * e),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2": ("spectrum", lambda e: -e),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2 --format csv": ("spectrum", lambda e: -e),
}
FAULT_PINS = {
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on": (
        4,
        "f220eb398889395a20b76d6baa15f98fa4d042b1906f5f8579bbfdfe6b35c39f",
        "oracle disagrees with the spectral equations beyond 1e-3\n",
    ),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on --format csv": (
        4,
        "cf17df2f571daf4046689235bcbe35d5be5517252ea0590c735dbc2db16739be",
        "oracle disagrees with the spectral equations beyond 1e-3\n",
    ),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2": (
        4,
        "d05c9c5ceacb64e5c196da6e6bcc83365f1248a4334ec6379a112350e83195f4",
        "ground-state flow is decreasing, expected increasing\n",
    ),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2 --format csv": (
        4,
        "69bfb8bd25f19981e8c41786acd4332ccb89ef7e1c8c01f1fdb1c2b99d859f91",
        "ground-state flow is decreasing, expected increasing\n",
    ),
}


def _run(argv, monkeypatch, capsys):
    """(exit code, sha256 of stdout, stderr) of `main(argv)`."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err


@pytest.mark.parametrize("argv", list(PINS))
def test_cli_bytes(argv, monkeypatch, capsys):
    assert _run(argv, monkeypatch, capsys) == PINS[argv]


@pytest.mark.parametrize("argv", list(FAULTS))
def test_failed_check_bytes(argv, monkeypatch, capsys):
    name, skew = FAULTS[argv]
    real = getattr(cli, name)
    monkeypatch.setattr(
        cli, name,
        lambda rp, ext, n: types.SimpleNamespace(energies=[skew(e) for e in real(rp, ext, n).energies]),
    )
    assert _run(argv, monkeypatch, capsys) == FAULT_PINS[argv]
