"""Byte pins for `factorize-check` output.

The check evaluates one positive solution phi per representation: the
residual of b a f = (H - u) f at 12 points, the kernel of a at the floor
w0, and phi on a 60-point grid, whose Psi comes from one inward sweep
(`EvaluableSolution.values_on`).  The digests below are the sha256 of the
whole stdout for five inputs: kappa = 0, 0 < kappa < 1 and kappa >= 1 at
mixed mu, one at the floor w0, and one in CSV.  A change to the
representation layer that keeps its arithmetic may not move a byte; one
that does must say so.
"""

import hashlib

import pytest

from calogero.cli import main

# argv after "factorize-check": sha256 of stdout (all exit 0)
PINS = {
    ("--g1", "-0.25", "--g2", "2", "--mu", "0.4", "--w", "0.3"):
        "a0177cc30b09eb3f275ff0b1a93cbf781f3dcd5e4001d7b2d2fcbcc7ce556732",
    ("--g1", "0", "--g2", "1", "--mu", "1.1", "--w", "2.5"):
        "2a8e1c347d814f80396d03d34b4b85a1d22b0061695fb3f36a589f273eb23237",
    ("--g1", "2", "--g2", "3", "--mu", "0.7", "--w", "5"):
        "160f8a8f2c42ca63ee2606de553061afc34ff6b9c4afad704165edb3f7a9a0d6",
    ("--g1", "0.75", "--g2", "1", "--mu", "0.3", "--w", "-1"):
        "530832f2fd99b908acff342eca410d9c7c4fafff47acc66dcb18b28b983b76ec",
    ("--g1", "-0.1875", "--g2", "1", "--mu", "0.9", "--w", "0.6", "--format", "csv"):
        "d19a44f20517e7372c933915b94e04db2f7133a8859ecdcf762e418ce7d72be1",
}


@pytest.mark.parametrize("argv", list(PINS), ids=lambda a: " ".join(a))
def test_stdout_bytes(argv, capsys):
    assert main(["factorize-check", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[argv]
