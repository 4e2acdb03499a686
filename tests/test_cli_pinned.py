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
        (0, "251c109873a3d7471c187b73370f3ed501db465469fba9b852a734f291ce15fd", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --format csv":
        (0, "330eed3456306998d22b5ad85c818b6dd49eb5e09656a59ee6268ba3ef4ff787", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on":
        (0, "ba2ae56c55bc9c08165f998923266e090f1a2468fe307993accf5902042862ff", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on --format csv":
        (0, "97fa24ef83d7a170cdc262e582e311de7ee1c32e389807d20a6d6166de4721f6", ""),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 9 --oracle on":
        (0, "97ea38f873208e76a4d0a4a4c2d9d774dcaea025e42fdb3c54b298c6bb940925", ""),
    "spectrum --g1 0.300564 --g2 57.6 --nu -1.5613 --n 2 --oracle on":
        (0, "506fec64856152a915e33bd37f91bfa4e131e4567a4935869e5706d50e2aaf95", ""),
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
        (0, "3dc692e51f3036f3bfc0530f73d093c0b8c054cca79ef643f05e54ff2982fb47", ""),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2 --format csv":
        (0, "5e6914448d3620e6e32f85e462818151df51d10030994f683f7b5de2d2d13ede", ""),
    "sweep --g1 0 --g2 1 --sweep -1.5707963267948966 1.5707963267948966 3":
        (0, "0355f7256ac1e29c405209735e88707130f46e7030ccce8a81d45da26ed20913", ""),
    # boundary-root runs that CI pins: roots next to their poles and one
    # ulp below them, kappa within ulps of 1, kappa = 0 ground states near
    # -1.76e217 and at ln|E| ~ 705, and a sweep through both dives
    "spectrum --g1 -0.24999997 --g2 1 --nu 1.5693 --n 21":
        (0, "394babb6f45c2a8bfdbd21084cc638b78c2908699afdd729bf123f3c1c9c2fb3", ""),
    "spectrum --g1 -0.24999999999999997 --g2 1 --nu 1.570795 --n 50":
        (0, "fcac9e3865fcf01ef323c5e4e19f814bd80153d462aa85ea6a59959e2461330d", ""),
    "spectrum --g1 0.749999999999988 --g2 1 --nu 0.7376 --n 20":
        (0, "3f79a234cf556d198c918e2632c0c3f361cf96ae4eecc7bec3b2fbc71e1a9668", ""),
    "spectrum --g1 -0.25 --g2 1 --nu 1.5687963 --n 50":
        (0, "2d1197bb56e9a1d1662e576f11f170691027fdc3e640ea68a991e4f6c86b3230", ""),
    "spectrum --g1 -0.25 --g2 1 --nu 1.5693781897607493":
        (0, "7d4ad6ebee45c436235fb51e1edb05b67a02c42b5294be20ab629ab98471ddc6", ""),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 16 --n 4":
        (0, "d4b54326a9559dc0a05ce0bb395e229c5d54e090ebfe3ffd47e527d41b0b9413", ""),
    "spectrum --g1 0.7499999999999998 --g2 1 --nu 1 --n 3":
        (0, "62ea48b9194b19b7ca304d76b38a5c2a6595f480f83b0ab4dd8ec25be4333f43", ""),
    # 8.3e-7 above -pi/2 at kappa = 1/4: the dive side's ground state near
    # -2.6e24 and levels 1 and 2 just above 2.5 and 6.5
    "spectrum --g1 -0.1875 --g2 1 --nu -1.5707955 --n 3":
        (0, "1473e2daa4a1b07b9c37f5981563ff72cc82b7416feffd3651d85d39048dbdfa", ""),
    # tan nu ~ -1.6e16 at kappa = 1/8: levels 1 and 2 round onto the poles
    # below them and are the floats just above those poles
    "spectrum --g1 -0.234375 --g2 1 --nu -1.5707963267948961 --n 3":
        (0, "609572b211995fc441c6f77f42470f77e1fa87217e2f51628c7869e8f42cc670", ""),
    "factorize-check --g1 -0.25 --g2 2 --mu 0.4 --w 0.3":
        (0, "e3ff6ae5d11fc7f1928dbe5de5b013f7f1393af3c974aa929b3acb1821748b07", ""),
    "factorize-check --g1 0 --g2 1 --mu 1.1 --w 2.5":
        (0, "f9b25332565309a8960b4b3926b0062af49dece6cdf958f7df204b2c63c1f145", ""),
    "factorize-check --g1 2 --g2 3 --mu 0.7 --w 5":
        (0, "17d2a445b81ddf2d2e394a29adc239da256da190066faaa8ec8fa8d22b00a754", ""),
    "factorize-check --g1 0.75 --g2 1 --mu 0.3 --w -1":
        (0, "530832f2fd99b908acff342eca410d9c7c4fafff47acc66dcb18b28b983b76ec", ""),
    "factorize-check --g1 -0.1875 --g2 1 --mu 0.9 --w 0.6 --format csv":
        (0, "51a6312e54087ea9b73bb25fb5a2de3cc395300a3e95b391473daade5853a5c4", ""),
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
        (0, "b1334f0132d7873c6b4c025880624755f1884d9b2e95f537dc5c66a07c1eb9e5", ""),
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
        (0, "256cd131f2bd6909637f0a275dea3d3d97aee3ad2f0c9afa242980b1e08beb9f", ""),
    "verify --format csv":
        (0, "53e4b589b78e563e650b49253713ab5a4f2ab468d0deaaf80dfad70556b4dd42", ""),
    "verify --quick":
        (0, "cd0d952894ae739274ce418755f907e9e3928ad9470aab2af19a381fa5086739", ""),
    "verify --quick --format csv":
        (0, "2d47c063ea775ccabdaf1d08b9a2d642a1c04d5d6186ecf139ead347a9bc10cf", ""),
    "verify --inject-gamma-bug": (
        4,
        "a163e55223ab3d08739e36eb84197425746e673882b7536344617e578e04c354",
        "first failing row: 2-nu-zero-closed-form (1.670e-02 > 1e-10)\n",
    ),
    "verify --quick --inject-gamma-bug": (
        4,
        "99d9670e365147466a21d27b96444d1bff139a9695d8e6f7e35b2b3fac7300eb",
        "first failing row: 2-nu-zero-closed-form (1.670e-02 > 1e-10)\n",
    ),
    "verify --quick --inject-gamma-bug --format csv": (
        4,
        "d9676191a0473f28278f03dc71f42025740a6905530de689fb5d47ae3b72cf48",
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
        "b3ca8898c1fc30af4eef5ba072edc177373d981d62b13905718fa40dc9e7dd9e",
        "oracle disagrees with the spectral equations beyond 1e-3\n",
    ),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on --format csv": (
        4,
        "082ef2903bcc180d3b0407ec3693a450a3348129ceda8274b426c4612ff7e576",
        "oracle disagrees with the spectral equations beyond 1e-3\n",
    ),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2": (
        4,
        "eb6296641e37b6f4434027ba5c2fbfb108eddf492acbc00b04990c47cbf72a1c",
        "ground-state flow is decreasing, expected increasing\n",
    ),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2 --format csv": (
        4,
        "f3117510e577f998a859d8ee7aa0ea1be69f749cdfcc97b0717cf6917a30f788",
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
