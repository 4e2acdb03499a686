"""Byte pins for `factorize-check` output.

The check evaluates one positive solution phi per representation: the
residual of b a f = (H - u) f at 12 points, the kernel of a at the floor
w0, and phi on a 60-point grid.  The digests below are the sha256 of the
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
        "bc40be92ffbef4a38dfc6f1780acaddbf496297e56ae066b3af9a2dc1a3b1d6a",
    ("--g1", "0", "--g2", "1", "--mu", "1.1", "--w", "2.5"):
        "5ec62325619bca1b38c5035ec81efc67e256a5522296826328498617b266afc5",
    ("--g1", "2", "--g2", "3", "--mu", "0.7", "--w", "5"):
        "aba1d437e17f19ffd8dea7dc96cecbdbdf5bd8445232a7a9c980a732557a7359",
    ("--g1", "0.75", "--g2", "1", "--mu", "0.3", "--w", "-1"):
        "530832f2fd99b908acff342eca410d9c7c4fafff47acc66dcb18b28b983b76ec",
    ("--g1", "-0.1875", "--g2", "1", "--mu", "0.9", "--w", "0.6", "--format", "csv"):
        "adf40e2400e5469765f678624bb80147224a9e8a7d62ca0b906b313a863f95a7",
}


@pytest.mark.parametrize("argv", list(PINS), ids=lambda a: " ".join(a))
def test_stdout_bytes(argv, capsys):
    assert main(["factorize-check", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[argv]
