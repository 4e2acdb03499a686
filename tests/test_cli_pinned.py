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
dives and a sweep from one dive to the other) are the digests CI pins on
the command line.  A change that keeps the arithmetic may not move a byte; one
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
        (0, "435cd26bea115d005ec37d747ec54f922adf120faf55a10bcefa31198a70f24a", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --format csv":
        (0, "f0ffa7ea8694b30ace96a01f4ec34a7b1e2105c561eea96fdd94cad6be1de14c", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on":
        (0, "8c20cc2dce4b39c6d2bf68469525c79ae7f7a695efb787bd1aa55faa5a204c2a", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on --format csv":
        (0, "146ee06a06fddf62a4f98cb5d5e6c283ae6d28783f5a4390a84e5dfdedb205d2", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 9 --oracle on":
        (0, "8039ad49f7070bc946df59c27b268fb97dff64e07a39382222a2198156c990c8", ""),
    "spectrum --g1 0.300564 --g2 57.6 --nu -1.5613 --n 2 --oracle on":
        (0, "cc6247270b6ee6d7f83713dd5323389ae9486f6331edffc141774d6663f7ad82", ""),
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
        (0, "a265425f11b9fa648d4c5ad095d196b60a71701b8535d5dd5361c09484ea73e0", ""),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2 --format csv":
        (0, "e183cfd4091f46c30f587c979ea6f087f15a068fea669104432e7cca54937abc", ""),
    "sweep --g1 0 --g2 1 --sweep -1.5707963267948966 1.5707963267948966 3":
        (0, "0355f7256ac1e29c405209735e88707130f46e7030ccce8a81d45da26ed20913", ""),
    # boundary-root runs that CI pins: roots next to their poles and one
    # ulp below them, kappa within ulps of 1, kappa = 0 ground states near
    # -1.76e217 and at ln|E| ~ 705, and a sweep through both dives
    "spectrum --g1 -0.24999997 --g2 1 --nu 1.5693 --n 21":
        (0, "8616e11f9796e6e5a10657d7f71b0ecbb792e001b8effb5336e16dfd8a5a633e", ""),
    "spectrum --g1 -0.24999999999999997 --g2 1 --nu 1.570795 --n 50":
        (0, "36b208b2093b9b803524a20d22762a3efbbe6d162f69932c9a755d58218089d0", ""),
    "spectrum --g1 0.749999999999988 --g2 1 --nu 0.7376 --n 20":
        (0, "81403682519f696c3b91ebcf92452f7128ef42805f9d29abfb8d71eef8c9ae9c", ""),
    "spectrum --g1 -0.25 --g2 1 --nu 1.5687963 --n 50":
        (0, "2d1197bb56e9a1d1662e576f11f170691027fdc3e640ea68a991e4f6c86b3230", ""),
    "spectrum --g1 -0.25 --g2 1 --nu 1.5693781897607493":
        (0, "7d4ad6ebee45c436235fb51e1edb05b67a02c42b5294be20ab629ab98471ddc6", ""),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 16 --n 4":
        (0, "288c61bdc55b30f76da1b1b41b80dd18b8078a549b3004b585d37d4026720e56", ""),
    "spectrum --g1 0.7499999999999998 --g2 1 --nu 1 --n 3":
        (0, "43d12815844b4bc512d3ac68fe75cc16f9acd313433dcaf1a36e66c966c394e7", ""),
    "factorize-check --g1 -0.25 --g2 2 --mu 0.4 --w 0.3":
        (0, "a0177cc30b09eb3f275ff0b1a93cbf781f3dcd5e4001d7b2d2fcbcc7ce556732", ""),
    "factorize-check --g1 0 --g2 1 --mu 1.1 --w 2.5":
        (0, "2a8e1c347d814f80396d03d34b4b85a1d22b0061695fb3f36a589f273eb23237", ""),
    "factorize-check --g1 2 --g2 3 --mu 0.7 --w 5":
        (0, "160f8a8f2c42ca63ee2606de553061afc34ff6b9c4afad704165edb3f7a9a0d6", ""),
    "factorize-check --g1 0.75 --g2 1 --mu 0.3 --w -1":
        (0, "530832f2fd99b908acff342eca410d9c7c4fafff47acc66dcb18b28b983b76ec", ""),
    "factorize-check --g1 -0.1875 --g2 1 --mu 0.9 --w 0.6 --format csv":
        (0, "d19a44f20517e7372c933915b94e04db2f7133a8859ecdcf762e418ce7d72be1", ""),
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
        (4, _EMPTY, "numerical failure: gamma: Gamma(180.75) overflows the float64 Lanczos form\n"),
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
    "verify":
        (0, "51a4dfbbc34e31602998f6fba6405d9a137a10d7913be30fc9c3017a7c6ca89d", ""),
    "verify --format csv":
        (0, "3497f6a91fccf55e803473c6202bae14faaf79a279cd4af92acfaa2ef8071485", ""),
    "verify --quick":
        (0, "4294f52bb57c2b5a5463c59b9515254f8ac78a4396703bc212bf859bd2497dcd", ""),
    "verify --quick --format csv":
        (0, "0a1b92fdf2027e3d0e080e145aad601ec6f52f0bbe3253fb46e8eedd19ee0e18", ""),
    "verify --inject-gamma-bug": (
        4,
        "fb384a2e63e672a2d850527d3ea0847750b04f8ba6282a0728c5667c81dd987f",
        "first failing row: 2-nu-zero-closed-form (1.670e-02 > 1e-10)\n",
    ),
    "verify --quick --inject-gamma-bug": (
        4,
        "36f35d846064ba672f7f24fbd9adc7a2c273c3dbfd2d997001c28a8d8e777ec3",
        "first failing row: 2-nu-zero-closed-form (1.670e-02 > 1e-10)\n",
    ),
    "verify --quick --inject-gamma-bug --format csv": (
        4,
        "bac4bd33d42a962f43fa23d82ad9edecc9c00e5cf57a973a9ec181dfeae1758b",
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
        "e6932ee2f7296096fe383dee99a193dee980ded842a3eff637476ac8229e5911",
        "oracle disagrees with the spectral equations beyond 1e-3\n",
    ),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on --format csv": (
        4,
        "91d16faca732934f50517e1fd4c19423f8c365c6216add58fa3788ff6791b9f7",
        "oracle disagrees with the spectral equations beyond 1e-3\n",
    ),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2": (
        4,
        "8c49d341d54144829c94524518ed12f95375d50b291937f213252de0a6887485",
        "ground-state flow is decreasing, expected increasing\n",
    ),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2 --format csv": (
        4,
        "162a4cc0e8af67b3909601cd5896066a854d5b0bfdf75708bc9a70ef5c7a8450",
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
