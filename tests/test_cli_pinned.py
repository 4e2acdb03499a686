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
        (0, "05bbbc137071ec54f42b2d15da61271a074f62bebb675a667bdccf84e68eb599", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --format csv":
        (0, "137581cf8bcea6f9a2324ed80a78088c3f08c6f0e90522b4789281b6747c5db3", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on":
        (0, "22ebc0643bb7499ef0e4619f01021bbe13ac9b76b95b861869e3cd79b224820b", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on --format csv":
        (0, "8244ab80344990a8235848a237251d0e8142fbb255f92d5083879acce0ee9bd1", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 9 --oracle on":
        (0, "f17774661376fe940c43d055e7c7a1eff6cc673750eae6e0ac8c7bde46c5d36b", ""),
    "spectrum --g1 0.300564 --g2 57.6 --nu -1.5613 --n 2 --oracle on":
        (0, "031b6736ea839370693c69855b0cb970f8d9f94bd37a95639b1d163fdd21503e", ""),
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
        (0, "4b1065ff13bcf119d70a3621ea26bd2b625237a5435038690a766eb9ff1ce2ea", ""),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2 --format csv":
        (0, "07069df48b46e431e958d44bacef815d89d43f3135858b547236822def42f182", ""),
    "sweep --g1 0 --g2 1 --sweep -1.5707963267948966 1.5707963267948966 3":
        (0, "0355f7256ac1e29c405209735e88707130f46e7030ccce8a81d45da26ed20913", ""),
    # boundary-root runs that CI pins: roots next to their poles and one
    # ulp below them, kappa within ulps of 1, kappa = 0 ground states near
    # -1.76e217 and at ln|E| ~ 705, and a sweep through both dives
    "spectrum --g1 -0.24999997 --g2 1 --nu 1.5693 --n 21":
        (0, "578e8f039eff1d01210949c32457965a9433a58819bc55db0111424c58168943", ""),
    "spectrum --g1 -0.24999999999999997 --g2 1 --nu 1.570795 --n 50":
        (0, "0f14a8159d5e74c5089c34f9df57c4888e0338a2e65b005586f631f038225616", ""),
    "spectrum --g1 0.749999999999988 --g2 1 --nu 0.7376 --n 20":
        (0, "701831ac26171b8771b62b947acb34b8839639176d24450694ebe55c11979101", ""),
    "spectrum --g1 -0.25 --g2 1 --nu 1.5687963 --n 50":
        (0, "2d1197bb56e9a1d1662e576f11f170691027fdc3e640ea68a991e4f6c86b3230", ""),
    "spectrum --g1 -0.25 --g2 1 --nu 1.5693781897607493":
        (0, "7d4ad6ebee45c436235fb51e1edb05b67a02c42b5294be20ab629ab98471ddc6", ""),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 16 --n 4":
        (0, "b2295628ee6dede055ec443bca89a10d642b91ff9e3bc8c682a2c586630a0344", ""),
    "spectrum --g1 0.7499999999999998 --g2 1 --nu 1 --n 3":
        (0, "2db5b2864b094e61c060f31325983ad19a83497bef433fe2b1f43388cb9f6cac", ""),
    # 8.3e-7 above -pi/2 at kappa = 1/4: the dive side's ground state near
    # -2.6e24 and levels 1 and 2 just above 2.5 and 6.5
    "spectrum --g1 -0.1875 --g2 1 --nu -1.5707955 --n 3":
        (0, "ab3d22cf1d096ed4cbf687312b515a8a9d5e95a3f98c4a335aabeb7412448634", ""),
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
        (0, "10308dc57c0a26c4159d4d236f01caa2610d0b984b0de51b9a0313272e0bae4b", ""),
    "verify --format csv":
        (0, "ce42f7d3a19c649d1a793e323b23ff6a8bea465b7989d6a885203b40ab78948e", ""),
    "verify --quick":
        (0, "9c09a975daa0a080856047c6c3e2135cfbf0016a8e06b20ffcee280ab4287e96", ""),
    "verify --quick --format csv":
        (0, "ce6c6d14fd8906c10e5110df4de7e72984eaf1b883620f14e0a65ab1f663d771", ""),
    "verify --inject-gamma-bug": (
        4,
        "7fb8610b8e11e5b6b225b5b49129ed65db94682fb14913c3deb5559641f900ab",
        "first failing row: 2-nu-zero-closed-form (1.670e-02 > 1e-10)\n",
    ),
    "verify --quick --inject-gamma-bug": (
        4,
        "695d10fdf76c8287ac2e8261b7e2c9acef303bd4d03819693bc869f39f19404f",
        "first failing row: 2-nu-zero-closed-form (1.670e-02 > 1e-10)\n",
    ),
    "verify --quick --inject-gamma-bug --format csv": (
        4,
        "43c8c9902d23eb0088903b8aaa8e36cf96df9feefec97420b12548e9a480ddbe",
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
        "c4319a6ca22d2b0541ea36888e58d501bb33b4c4639e2e7009777fc68bc297b5",
        "oracle disagrees with the spectral equations beyond 1e-3\n",
    ),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on --format csv": (
        4,
        "a63a17c665ae0c079ed8928060b6cc8b32d50fb0d81e1b80e286a063c018f2e8",
        "oracle disagrees with the spectral equations beyond 1e-3\n",
    ),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2": (
        4,
        "39282b178a15da6a2cf283454038421ffc6376a4defba6b0b12c5e8a6fda4856",
        "ground-state flow is decreasing, expected increasing\n",
    ),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2 --format csv": (
        4,
        "0ea18bbd4a0029d94b14bc9a184b833d788237bb93a06dde602ac647ce074d3c",
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
