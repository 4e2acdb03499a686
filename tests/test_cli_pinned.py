"""Pins for the command line: every row of `cli_pins.PINS`, in-process.

Each row runs its argv through `main` and must give the row's exit code,
the sha256 of its whole stdout where one is pinned, its stderr and its
stdout checks (see `cli_pins`).  The table covers every subcommand in JSON
and in CSV, checks that pass and checks that fail (a failed check still
prints the whole report, then exits 4 with one line on stderr), and the
refusals: exit 2 for a bad request, 3 where no representation exists, 4
for a numerical failure.  CI runs the same rows through `python -m
calogero` (`python tests/cli_pins.py`), and its workflow may name no argv
and no digest the table lacks.  A change that keeps the arithmetic may not
move a byte; one that does must say so.

`FAULTS` pins the two failure lines no real input reaches: the library name
the handler calls is replaced by one whose energies are skewed.
"""

import argparse
import re
import types
from pathlib import Path

import pytest
from cli_pins import EMPTY, PINS, TAGS, Pin, failures

from calogero import cli

_WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
_ORACLE_DISAGREES = "oracle disagrees with the spectral equations beyond 1e-3\n"
_DECREASING = "ground-state flow is decreasing, expected increasing\n"

# argv: (library name, map of each energy it returns, pin)
FAULTS = {
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on": ("shoot_spectrum", lambda e: 1.01 * e, Pin(
        4, "f220eb398889395a20b76d6baa15f98fa4d042b1906f5f8579bbfdfe6b35c39f", _ORACLE_DISAGREES)),
    "spectrum --g1 0 --g2 1 --nu 1.0 --n 3 --oracle on --format csv": ("shoot_spectrum", lambda e: 1.01 * e, Pin(
        4, "cf17df2f571daf4046689235bcbe35d5be5517252ea0590c735dbc2db16739be", _ORACLE_DISAGREES)),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2": ("spectrum", lambda e: -e, Pin(
        4, "d05c9c5ceacb64e5c196da6e6bcc83365f1248a4334ec6379a112350e83195f4", _DECREASING)),
    "sweep --g1 -0.16 --g2 1 --sweep -1.5 1.5 5 --n 2 --format csv": ("spectrum", lambda e: -e, Pin(
        4, "69bfb8bd25f19981e8c41786acd4332ccb89ef7e1c8c01f1fdb1c2b99d859f91", _DECREASING)),
}


def _run(argv, monkeypatch, capsys):
    """(exit code, stdout, stderr) of `main(argv)`."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", list(PINS))
def test_cli_bytes(argv, monkeypatch, capsys):
    found = failures(argv, PINS[argv], *_run(argv, monkeypatch, capsys))
    assert not found, "\n".join(found)


@pytest.mark.parametrize("argv", list(FAULTS))
def test_failed_check_bytes(argv, monkeypatch, capsys):
    name, skew, pin = FAULTS[argv]
    real = getattr(cli, name)
    monkeypatch.setattr(
        cli, name,
        lambda rp, ext, n: types.SimpleNamespace(energies=[skew(e) for e in real(rp, ext, n).energies]),
    )
    found = failures(argv, pin, *_run(argv, monkeypatch, capsys))
    assert not found, "\n".join(found)


def test_a_moved_digest_names_the_argv_and_both_digests(monkeypatch, capsys):
    argv = "spectrum --g1 2 --g2 1"
    pinned = "0" * 64
    found = failures(argv, PINS[argv]._replace(sha256=pinned), *_run(argv, monkeypatch, capsys))
    assert found == [f"{argv}: stdout sha256 {PINS[argv].sha256}, pinned {pinned}"]


def _strays(workflow: str) -> tuple[set, set]:
    """The argv of `python -m calogero` and the 64-hex digests in workflow
    that the table lacks."""
    # the words after it up to the end of the command: a newline, |, ;, &, )
    # or a redirection such as `> out` or `2> err`
    argvs = {argv.strip() for argv in re.findall(r"python -m calogero((?:[ \t]+(?!\d*[<>])[^\s|;&<>)]+)*)",
                                                   workflow)}
    digests = set(re.findall(r"\b[0-9a-f]{64}\b", workflow))
    return argvs - set(PINS), digests - {pin.sha256 for pin in PINS.values()}


def test_ci_runs_and_pins_nothing_the_table_lacks():
    assert _strays(_WORKFLOW.read_text()) == (set(), set())
    # a CLI step written into the workflow again is caught
    step = ("timeout 5 python -m calogero verify > v.out\n"
            f"echo \"{PINS['verify'].sha256}  v.out\"\n"
            "python -m calogero factorize-check $argv\n"
            f"echo {'ab' * 32}\n")
    assert _strays(step) == ({"factorize-check $argv"}, {"ab" * 32})


def test_table_covers_every_subcommand_in_both_formats_and_every_exit_code():
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for fmt in ("json", "csv"):
        pinned = {argv.split()[0] for argv, pin in PINS.items()
                  if pin.sha256 not in (None, EMPTY) and ("--format csv" in argv) == (fmt == "csv")}
        assert pinned == set(subparsers.choices), fmt
    assert {pin.code for pin in PINS.values()} == {0, 2, 3, 4}
    assert {tag for pin in PINS.values() for tag in pin.tags} == set(TAGS)
