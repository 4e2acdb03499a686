"""End-to-end command-line behaviour, driven through main(argv) in-process."""

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import calogero
from calogero import cli
from calogero.cli import main


def run(capsys, argv):
    """Invoke the CLI and normalize SystemExit into a return code.

    Returns (exit_code, stdout, stderr).
    """
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_unique_ladder_json(self, capsys):
        code, out, err = run(capsys, ["spectrum", "--g1", "0.75", "--g2", "1", "--unique", "--n", "3"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc.keys()) == ["inputs", "reduced_params", "results", "checks", "version"]
        assert doc["results"]["energies"] == [4.0, 8.0, 12.0]
        assert doc["results"]["scaled_energies"] == [4.0, 8.0, 12.0]
        assert doc["results"]["oracle"] is None
        assert doc["inputs"]["extension"] == "unique"
        assert doc["checks"] == []

    def test_bare_invocation_defaults_to_unique(self, capsys):
        # kappa >= 1 has a single extension, no flag needed
        code, out, _ = run(capsys, ["spectrum", "--g1", "2", "--g2", "1", "--n", "2"])
        assert code == 0
        kappa = math.sqrt(2.25)
        doc = json.loads(out)
        assert doc["results"]["energies"][0] == pytest.approx(2.0 * (1.0 + kappa), rel=1e-14, abs=0.0)

    def test_friedrichs_for_family(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--g1", "0", "--g2", "16", "--friedrichs", "--n", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["energies"] == [12.0, 28.0]
        assert doc["reduced_params"]["kappa"] == pytest.approx(0.5)
        assert doc["reduced_params"]["upsilon"] == pytest.approx(2.0)

    def test_nu_extension(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--g1", "0", "--g2", "1", "--nu", "0", "--n", "1"])
        assert code == 0
        doc = json.loads(out)
        # nu = 0 ground state sits at 2 ups^2 (1 - kappa)
        assert doc["results"]["energies"][0] == pytest.approx(1.0, abs=1e-12)

    def test_oracle_cross_check(self, capsys):
        code, out, _ = run(
            capsys,
            ["spectrum", "--g1", "0", "--g2", "1", "--nu", "1", "--n", "2", "--oracle", "on"],
        )
        assert code == 0
        doc = json.loads(out)
        oracle = doc["results"]["oracle"]
        assert oracle["max_rel_gap"] <= 1e-13
        assert len(oracle["energies"]) == 2
        assert doc["checks"][0]["name"] == "oracle-agreement"
        assert doc["checks"][0]["passed"] is True

    def test_oracle_climbs_from_a_deep_ground_state(self, capsys):
        # kappa = 0.3, nu = -1.3: E0 ~ -84, then level 1 near +3.1
        code, out, _ = run(capsys, ["spectrum", "--g1", "-0.16", "--g2", "1", "--nu", "-1.3",
                                    "--n", "2", "--oracle", "on"])
        assert code == 0
        assert json.loads(out)["results"]["oracle"]["max_rel_gap"] <= 1e-13

    @pytest.mark.parametrize("n", [8, 13])
    def test_oracle_returns_levels_past_the_old_window(self, capsys, n):
        # level 12 turns 0.98 / ups before 8 / ups, where the right branch
        # used to be capped, and is still within 1e-13 of the spectrum
        code, out, err = run(capsys, ["spectrum", "--g1", "0", "--g2", "1", "--nu", "1.0",
                                      "--n", str(n), "--oracle", "on"])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert len(doc["results"]["oracle"]["energies"]) == n
        assert doc["checks"][0]["name"] == "oracle-agreement"
        assert doc["checks"][0]["passed"] is True
        assert doc["results"]["oracle"]["max_rel_gap"] <= 1e-13

    def test_oracle_refuses_a_ladder_past_float64(self, capsys):
        # kappa = 1000: the left power (ups x_min)^(1/2 + kappa) underflows
        # to 0 at the first evaluation
        code, out, err = run(capsys, ["spectrum", "--g1", "1e6", "--g2", "1", "--unique",
                                      "--oracle", "on", "--n", "2"])
        assert code == 4
        assert out == "" and "left solution" in err and "float64 range" in err

    def test_ground_state_past_float64_is_a_typed_refusal(self, capsys):
        # kappa = 5e-4, nu = -1.2: the ground root lies near ln|E| ~ 1890
        code, out, err = run(capsys, ["spectrum", "--g1", "-0.24999975", "--g2", "1",
                                      "--nu", "-1.2"])
        assert code == 4
        assert out == "" and "float64 range" in err and "Traceback" not in err

    def test_root_next_to_the_pole(self, capsys):
        # level 8 sits 1.04e-6 below its pole, inside the endpoint nudge
        code, out, _ = run(capsys, ["spectrum", "--g1", "-0.24999997", "--g2", "1",
                                    "--nu", "1.5693", "--n", "21"])
        assert code == 0
        energies = json.loads(out)["results"]["energies"]
        assert len(energies) == 21
        assert all(a < b for a, b in zip(energies, energies[1:]))

    @pytest.mark.parametrize("g1,g2,side", [("4e4", "1", "left solution"),
                                            ("1e6", "1", "left solution")])
    def test_oracle_boundary_data_past_float64_are_refused(self, capsys, g1, g2, side):
        # the float64 limit of a large-kappa ground state: the left power
        # (ups x_min)^(1/2 + kappa) underflows to 0 (4e4, 1e6); 2e4, answered,
        # is in test_oracle.py
        code, out, err = run(capsys, ["spectrum", "--g1", g1, "--g2", g2, "--unique",
                                      "--oracle", "on", "--n", "1"])
        assert code == 4
        assert out == ""
        assert side in err and "float64 range" in err and "Traceback" not in err

    def test_oracle_answers_a_tiny_g2(self, capsys):
        # the oracle solves the g2 = 1 problem and converts once; its left
        # table in physical units made Theta NaN here (x^(2k) overflowing
        # where the coefficients underflow) and the request was refused
        code, out, err = run(capsys, ["spectrum", "--g1", "1", "--g2", "1e-47", "--unique",
                                      "--oracle", "on", "--n", "1"])
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["oracle"]["max_rel_gap"] <= 1e-12

    def test_oracle_refuses_kappa_1e10_at_once(self):
        # kappa = 1e10: the left power z_min^(1/2 + kappa) underflows at the
        # first evaluation; in a fresh interpreter under a timeout, so that a
        # walk that never ends fails the test rather than hangs it
        src = str(pathlib.Path(calogero.__file__).resolve().parents[1])
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "calogero", "spectrum", "--g1", "1e20", "--g2", "1e-300",
                               "--unique", "--oracle", "on", "--n", "1"],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=5)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 4 and proc.stdout == ""
        assert "left solution at e = 0 leaves the float64 range" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["--g1", "-0.25", "--g2", "1", "--nu", "-0.6802522689117267", "--n", "2"],
        ["--g1", "0.2930971441035225", "--g2", "7", "--nu", "-0.5219813924425775", "--n", "1"],
    ])
    def test_oracle_gap_at_a_zero_level(self, capsys, argv):
        # the spectral level is exactly 0.0, whose gap is measured in the
        # energy unit ups^2 (a raw ZeroDivisionError, exit 1, before)
        code, out, err = run(capsys, ["spectrum", *argv, "--oracle", "on"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert 0.0 in doc["results"]["energies"]
        assert doc["checks"][0]["name"] == "oracle-agreement" and doc["checks"][0]["passed"] is True

    @pytest.mark.parametrize("g1,g2", [("3e4", "1"), ("532.0221370307443", "7"), ("1e4", "1")])
    def test_oracle_answers_large_kappa_ladders(self, capsys, g1, g2):
        # the refinement's Newton runaway once carried these ground states (and
        # 1e4's three levels) to energies whose right data overflow; its steps
        # without a bracket now stay within the scan's reach
        n = "3" if g1 == "1e4" else "1"
        code, out, err = run(capsys, ["spectrum", "--g1", g1, "--g2", g2, "--unique",
                                      "--oracle", "on", "--n", n])
        assert code == 0 and err == ""
        assert json.loads(out)["results"]["oracle"]["max_rel_gap"] <= 1e-10

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, ["spectrum", "--g1", "0.75", "--g2", "1", "--unique", "--n", "3", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,energy,scaled_energy,residual"
        assert len(lines) == 4
        assert lines[1].startswith("0,4,4,")

    def test_no_representation_exit_and_message(self, capsys):
        code, out, err = run(capsys, ["spectrum", "--g1", "-0.5", "--g2", "1", "--friedrichs"])
        assert code == 3
        assert out == ""
        assert err == "no generalized oscillator representation: g1 < -1/4\n"

    @pytest.mark.parametrize(
        "g1,g2,reason",
        [
            ("0", "-1", "g2 < 0"),
            ("0", "0", "g2 = 0 (no confining term)"),
        ],
    )
    def test_other_refusal_reasons(self, capsys, g1, g2, reason):
        code, _, err = run(capsys, ["spectrum", "--g1", g1, "--g2", g2, "--friedrichs"])
        assert code == 3
        assert err == f"no generalized oscillator representation: {reason}\n"

    def test_family_without_extension_flag_is_usage_error(self, capsys):
        # the library's refusal, worded for both its callers
        code, _, err = run(capsys, ["spectrum", "--g1", "0", "--g2", "1"])
        assert code == 2
        assert err.startswith("invalid request: extension_for: ")
        assert err.endswith("only kappa >= 1 has one extension; kappa=0.5 needs nu or friedrichs\n")

    def test_unique_flag_rejected_below_threshold(self, capsys):
        code, _, err = run(capsys, ["spectrum", "--g1", "0", "--g2", "1", "--unique"])
        assert code == 2
        assert "kappa >= 1" in err

    def test_nu_out_of_range_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["spectrum", "--g1", "0", "--g2", "1", "--nu", "2.0"])
        assert code == 2

    def test_conflicting_extension_flags(self, capsys):
        code, _, _ = run(capsys, ["spectrum", "--g1", "0", "--g2", "1", "--nu", "0", "--friedrichs"])
        assert code == 2

    def test_json_is_deterministic(self, capsys):
        argv = ["spectrum", "--g1", "0", "--g2", "1", "--nu", "0.7", "--n", "4"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "spec.json"
        target.write_text("an existing file is replaced\n")
        code, out, _ = run(
            capsys,
            ["spectrum", "--g1", "0.75", "--g2", "1", "--unique", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["results"]["energies"][0] == 4.0

    def test_seventeen_digit_floats(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--g1", "0", "--g2", "1", "--nu", "0.7", "--n", "1"])
        assert code == 0
        doc = json.loads(out)
        e0 = doc["results"]["energies"][0]
        # the rendered text must round-trip the binary double exactly
        assert f"{e0:.17g}" in out


@pytest.mark.parametrize(
    "argv,key,value",
    [
        (["spectrum", "--g1", "0", "--g2", "1", "--nu", "-1e-3"], "nu", -1e-3),
        (["sweep", "--g1", "0", "--g2", "1", "--sweep", "-1.2e-06", "1.4", "2"], "nu_lo", -1.2e-06),
        (["spectrum", "--g1", "-2.5E-1", "--g2", "1", "--friedrichs"], "g1", -0.25),
        (["factorize-check", "--w", "-5e-1"], "w", -0.5),
        (["nonexistence", "--g1", "-1.25e0", "--g2", "1"], "g1", -1.25),
    ],
)
def test_negative_exponent_notation_is_a_value(capsys, argv, key, value):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["inputs"][key] == value


def test_option_after_value_taking_flag_is_still_an_error(capsys):
    # only numbers are read as values; an option string is not swallowed
    code, _, err = run(capsys, ["spectrum", "--g1", "0", "--g2", "1", "--nu", "--unique"])
    assert code == 2
    assert "--nu: expected one argument" in err


# every request refused after parsing, each through DomainError and main
_REFUSED = {
    "unique-in-family": ["spectrum", "--g1", "0", "--g2", "1", "--unique"],
    "no-extension-flag": ["spectrum", "--g1", "0", "--g2", "1"],
    "nu-out-of-range": ["spectrum", "--g1", "0", "--g2", "1", "--nu", "2"],
    "sweep-unique-region": ["sweep", "--g1", "2", "--g2", "1", "--sweep", "-1", "1", "5"],
    "sweep-fractional-count": ["sweep", "--g1", "0", "--g2", "1", "--sweep", "-1", "1", "2.5"],
    "sweep-lo-not-below-hi": ["sweep", "--g1", "0", "--g2", "1", "--sweep", "1", "1", "3"],
    "sweep-endpoint-past-half-pi": ["sweep", "--g1", "0", "--g2", "1", "--sweep", "-1", "1.6", "3"],
    "nonexistence-in-cone": ["nonexistence", "--g1", "0", "--g2", "1"],
    "nonexistence-g2-zero": ["nonexistence", "--g1", "0.5", "--g2", "0"],
}


@pytest.mark.parametrize("argv", list(_REFUSED.values()), ids=list(_REFUSED))
def test_refusal_after_parsing_is_one_invalid_request_line(capsys, monkeypatch, argv):
    # the whole sweep is refused before its first spectrum
    monkeypatch.setattr(calogero.cli, "spectrum", None)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith("invalid request: ")
    assert "usage:" not in err


class TestNextToHalfPi:
    def test_dive_side_prints_its_deep_ground_state(self, capsys):
        # 8.3e-7 above -pi/2 at kappa = 1/4 is a family member, not Friedrichs
        code, out, err = run(capsys, ["spectrum", "--g1", "-0.1875", "--g2", "1", "--nu", "-1.5707955", "--n", "3"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["inputs"]["extension"] == "nu"
        energies = doc["results"]["energies"]
        assert energies[0] < -1e23
        assert energies[1] == pytest.approx(2.5, rel=0.0, abs=1e-5)
        assert energies[2] == pytest.approx(6.5, rel=0.0, abs=1e-5)

    def test_kappa_zero_dive_past_float64_exits_4(self, capsys):
        code, out, err = run(capsys, ["spectrum", "--g1", "-0.25", "--g2", "1", "--nu", "1.5707955"])
        assert (code, out) == (4, "")
        assert err.startswith("numerical failure: ground state deeper than float64 range")

    def test_ladder_past_float64_exits_4_naming_its_level(self, capsys):
        # u0 = -inf was refused at the output layer, in a message about u0
        code, out, err = run(capsys, ["spectrum", "--g1", "1.7e308", "--g2", "1.7e308", "--unique", "--n", "1"])
        assert (code, out) == (4, "")
        assert err == "numerical failure: level 0 above float64 range for this extension (ln E ~ 710)\n"


class TestSweep:
    def test_endpoints_snap_to_closed_form(self, capsys):
        half_pi = "1.5707963267948966"
        code, out, _ = run(
            capsys,
            ["sweep", "--g1", "0", "--g2", "1", "--sweep", "-" + half_pi, half_pi, "3", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "nu,E0"
        e0 = [float(line.split(",")[1]) for line in lines[1:]]
        # both +-pi/2 rows are the same Friedrichs extension, exact ladder value
        assert e0[0] == 3.0 and e0[2] == 3.0
        assert e0[1] == pytest.approx(1.0, abs=1e-12)

    def test_increasing_for_positive_kappa(self, capsys):
        code, out, _ = run(
            capsys, ["sweep", "--g1", "0", "--g2", "1", "--sweep", "-1.5", "1.5", "9"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["e0_direction"] == "increasing"
        e0 = [row["energies"][0] for row in doc["results"]["rows"]]
        assert all(b > a for a, b in zip(e0, e0[1:]))

    def test_decreasing_for_kappa_zero(self, capsys):
        code, out, _ = run(
            capsys, ["sweep", "--g1", "-0.25", "--g2", "1", "--sweep", "-1.5", "1.5", "9"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["e0_direction"] == "decreasing"

    def test_sweep_rejected_for_unique_region(self, capsys):
        code, _, err = run(capsys, ["sweep", "--g1", "2", "--g2", "1", "--sweep", "-1", "1", "5"])
        assert code == 2
        assert "kappa" in err

    @pytest.mark.parametrize(
        "lo,hi,count",
        [
            ("1", "-1", "5"),
            ("-1", "1", "1"),
            ("-2", "1", "5"),
            # COUNT must be a finite whole number: inf used to escape as
            # OverflowError and nan as ValueError (exit 1), and 2.9 was
            # silently truncated to 2
            ("-1", "1", "inf"),
            ("-1", "1", "nan"),
            ("-1", "1", "2.9"),
        ],
    )
    def test_bad_sweep_ranges(self, capsys, lo, hi, count):
        code, out, _ = run(capsys, ["sweep", "--g1", "0", "--g2", "1", "--sweep", lo, hi, count])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv, levels",
        [
            (["sweep", "--g1", "0", "--g2", "1", "--sweep", "-1", "1", "1e9"], "1e+09"),
            (["sweep", "--g1", "0", "--g2", "1", "--sweep", "-1", "1", "1e300", "--n", "0"], "1e+300"),
            (["sweep", "--g1", "0", "--g2", "1", "--sweep", "-1", "1", "1001", "--n", "100"], "100100"),
            (["spectrum", "--g1", "2", "--g2", "1", "--n", "100001"], "100001"),
        ],
    )
    def test_a_report_past_the_level_bound_is_refused_before_any_work(self, capsys, monkeypatch, argv, levels):
        def no_work(*args, **kwargs):
            raise AssertionError("a level was asked for before the bound was checked")

        for name in ("extension_for", "spectrum"):
            monkeypatch.setattr(calogero.cli, name, no_work)
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        asked = "--n" if argv[0] == "spectrum" else "--sweep COUNT x --n"
        assert err == f"invalid request: {asked} = {levels} levels, more than the 100000 one report holds\n"

    def test_the_level_bound_admits_its_own_size(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--g1", "2", "--g2", "1", "--n", "100000", "--format", "csv"])
        assert code == 0
        assert out.count("\n") == 100001


class TestFactorizeCheck:
    def test_defaults_pass(self, capsys):
        code, out, _ = run(capsys, ["factorize-check"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["max_relative_residual"] <= 1e-6
        assert doc["results"]["at_floor"] is False
        assert doc["results"]["kernel_max"] is None
        assert doc["results"]["min_phi_on_grid"] > 0.0

    def test_floor_representation_reports_kernel(self, capsys):
        # g1 = 0, g2 = 1 puts the floor at w0 = -3/4
        code, out, _ = run(capsys, ["factorize-check", "--mu", "0.3", "--w", "-0.75"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["at_floor"] is True
        assert doc["results"]["kernel_max"] <= 1e-10
        names = [c["name"] for c in doc["checks"]]
        assert "kernel-nontrivial" in names

    def test_perturbed_superpotential_fails(self, capsys):
        code, _, err = run(capsys, ["factorize-check", "--h-shift", "0.01"])
        assert code == 4
        assert "failed at x =" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # alpha = 45.75: every digit of the float64 Psi series cancels
            ["--g1", "0", "--g2", "1", "--mu", "0.3", "--w", "45"],
            ["--g1", "0", "--g2", "1", "--mu", "0.3", "--w", "100"],
            # once a raw ZeroDivisionError from a guessed loss of -25 digits
            ["--g1", "0.7807903308142254", "--g2", "5.077302842318259",
             "--mu", "0.6791278949851294", "--w", "36.14217864343359"],
        ],
    )
    def test_large_shift_passes_its_checks(self, capsys, argv):
        code, out, _ = run(capsys, ["factorize-check", *argv])
        assert code == 0
        doc = json.loads(out)
        assert all(check["passed"] for check in doc["checks"])
        assert doc["results"]["max_relative_residual"] <= 1e-11

    def test_large_shift_is_a_typed_refusal(self, capsys):
        # alpha = 180.75: Gamma(alpha) leaves float64
        code, out, err = run(capsys, ["factorize-check", "--g1", "0", "--g2", "1",
                                      "--mu", "0.3", "--w", "180"])
        assert code == 4
        assert out == ""
        assert "Gamma(180.75) overflows" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # each left float64 while phi was evaluated at x: phi underflowed
            # to 0 at x = 2.1
            ["--g1", "2.58", "--g2", "170162.5", "--mu", "0", "--w", "-0.0176"],
            # rho^2 underflowed
            ["--g1", "0", "--g2", "5e-324"],
            # rho^(1 - beta) overflowed in the Psi series
            ["--g1", "0", "--g2", "1e-300", "--mu", "0.3", "--w", "0.2"],
            # rho^q overflowed in phi's envelope
            ["--g1", "100", "--g2", "1e300"],
            # Phi overflowed at rho ~ 986 and 1690
            ["--g1", "0", "--g2", "5e4"],
            ["--g1", "0", "--g2", "1e6"],
        ],
    )
    def test_any_g2_is_checked_in_z(self, capsys, argv):
        code, out, err = run(capsys, ["factorize-check", *argv])
        assert (code, err) == (0, "")
        assert all(check["passed"] for check in json.loads(out)["checks"])

    @pytest.mark.parametrize(
        "argv",
        [
            # kappa = 1e150: Gamma(alpha ~ 5e149), the scale of phi, overflows
            ["--g1", "1e300"],
            # alpha = 180.75: Gamma(alpha) overflows
            ["--g1", "0", "--g2", "1", "--mu", "0.3", "--w", "180"],
        ],
    )
    def test_float64_range_is_a_typed_refusal(self, capsys, argv):
        code, out, err = run(capsys, ["factorize-check", *argv])
        assert code == 4
        assert out == ""
        assert err.startswith("numerical failure:") and "Traceback" not in err

    def test_nan_superpotential_shift_fails(self, capsys):
        # a NaN residual must fail its check, not be passed over as smaller
        code, out, err = run(capsys, ["factorize-check", "--h-shift", "nan"])
        assert code == 4
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("w", ["nan", "inf"])
    def test_non_finite_shift_is_refused(self, capsys, w):
        code, out, err = run(capsys, ["factorize-check", "--w", w])
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    def test_region_guard_applies(self, capsys):
        code, _, err = run(capsys, ["factorize-check", "--g1", "-0.5"])
        assert code == 3
        assert "g1 < -1/4" in err

    def test_csv_rows_are_checks(self, capsys):
        code, out, _ = run(capsys, ["factorize-check", "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "check,value,threshold,passed"
        assert all(line.endswith("true") for line in lines[1:])


class TestNonexistence:
    def test_fall_to_center_counts_oscillations(self, capsys):
        code, out, _ = run(
            capsys,
            ["nonexistence", "--g1", "-1.25", "--g2", "1", "--interval", "1e-6", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["mode"] == "origin"
        assert doc["results"]["observed_zeros"] == 4
        assert doc["results"]["predicted_zeros"] == pytest.approx(math.log(1e6) / math.pi, rel=1e-12)
        assert doc["results"]["sigma_or_omega"] == pytest.approx(1.0)

    def test_fall_to_infinity_counts_oscillations(self, capsys):
        code, out, _ = run(
            capsys,
            ["nonexistence", "--g1", "0", "--g2", "-1", "--interval", "10", "20"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["mode"] == "infinity"
        assert doc["results"]["predicted_zeros"] == pytest.approx(300.0 / (2 * math.pi), rel=1e-12)
        assert abs(doc["results"]["observed_zeros"] - doc["results"]["predicted_zeros"]) <= 1.0 + 0.1 * doc["results"]["predicted_zeros"]

    def test_existence_region_guarded(self, capsys):
        code, _, err = run(capsys, ["nonexistence", "--g1", "0", "--g2", "1"])
        assert code == 2
        assert "--force" in err

    def test_force_overrides_guard(self, capsys):
        code, out, _ = run(capsys, ["nonexistence", "--g1", "0", "--g2", "1", "--force"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["mode"] == "existence"
        assert doc["results"]["observed_zeros"] == 0
        assert doc["reduced_params"] is None

    def test_csv_single_row(self, capsys):
        code, out, _ = run(
            capsys,
            ["nonexistence", "--g1", "-1.25", "--g2", "1", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x_lo,x_hi,mode,observed,predicted,sigma_or_omega,u"
        assert len(lines) == 2


class TestVerify:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"] == {"command": "verify", "inject_gamma_bug": False}
        rows = doc["results"]["rows"]
        assert len(rows) == 15
        assert all(r["passed"] for r in rows)
        assert doc["checks"][0]["name"] == "all-rows-pass"
        assert doc["checks"][0]["value"] == 0

    def test_is_deterministic(self, capsys):
        _, first, _ = run(capsys, ["verify"])
        _, second, _ = run(capsys, ["verify"])
        assert first == second

    def test_hidden_quick_runs_the_full_table(self, capsys):
        # kept only for callers that still pass it: the same exit code and
        # bytes as without it, and no line in the help
        for argv in (["verify"], ["verify", "--inject-gamma-bug"]):
            assert run(capsys, [*argv, "--quick"]) == run(capsys, argv)
        assert "--quick" not in run(capsys, ["verify", "--help"])[1]

    def test_injected_gamma_bug_fails_spectral_rows(self, capsys):
        code, out, err = run(capsys, ["verify", "--inject-gamma-bug"])
        assert code == 4
        assert "first failing row" in err
        doc = json.loads(out)
        by_name = {r["name"]: r["passed"] for r in doc["results"]["rows"]}
        # the skew lands on the boundary-equation rows and nowhere else
        assert by_name["2-nu-zero-closed-form"] is False
        assert by_name["3-spectrum-equivalence"] is False
        assert by_name["9-wavefunction-fidelity"] is False
        assert by_name["1-friedrichs-ground-vs-oracle"] is True
        assert by_name["6-factorization-identity"] is True
        assert by_name["7-psi-dual-route"] is True

    def test_injection_resets_after_run(self, capsys):
        run(capsys, ["verify", "--inject-gamma-bug"])
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        assert all(r["passed"] for r in json.loads(out)["results"]["rows"])

    def test_csv_status_column(self, capsys):
        code, out, _ = run(capsys, ["verify", "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "status,name,value,threshold,detail"
        assert all(line.startswith("PASS,") for line in lines[1:])


class TestSharedParser:
    """main builds its parser once per process and every call leaves it as
    it found it."""

    def test_later_calls_build_no_parser(self, capsys, monkeypatch):
        run(capsys, ["spectrum", "--g1", "0.75", "--g2", "1", "--unique", "--n", "2"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argvs = [
            ["spectrum", "--g1", "0.75", "--g2", "1", "--unique", "--n", "2"],
            ["spectrum", "--g1", "0", "--g2", "1", "--nu", "0.7", "--n", "3"],
            ["sweep", "--g1", "0", "--g2", "1", "--sweep", "-1", "1", "3"],
            ["factorize-check", "--w", "0.2", "--format", "csv"],
        ]
        codes = [run(capsys, argvs[i % len(argvs)])[0] for i in range(20)]
        assert codes == [0] * 20
        assert built == []

    def test_no_state_leaks_between_calls(self, capsys, monkeypatch):
        # each call's exit code and stdout match a fresh interpreter's
        first = ["spectrum", "--g1", "0", "--g2", "1", "--nu", "0.7", "--n", "3"]
        sequence = [
            first,
            ["spectrum", "--g1", "0"],
            ["--help"],
            ["--version"],
            ["sweep", "--g1", "0", "--g2", "1", "--sweep", "-1", "1", "3"],
            ["spectrum", "--g1", "0", "--g2", "1", "--nu", "-1e-3", "--format", "csv"],
            # each of these imports its library modules on its first call
            ["factorize-check"],
            ["nonexistence", "--g1", "-1.25", "--g2", "1"],
            ["verify"],
            ["spectrum", "--oracle", "on", "--n", "3", "--g1", "0", "--g2", "1", "--nu", "1"],
            first,
        ]
        monkeypatch.setenv("COLUMNS", "80")
        in_process = [run(capsys, argv)[:2] for argv in sequence]

        src = str(pathlib.Path(calogero.__file__).resolve().parents[1])
        env = dict(os.environ, COLUMNS="80", PYTHONPATH=src)
        fresh = []
        for argv in sequence:
            proc = subprocess.run([sys.executable, "-m", "calogero", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            fresh.append((proc.returncode, proc.stdout))
        assert [code for code, _ in in_process] == [0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        assert in_process == fresh


def _parse_outcome(parse, argv):
    """("args", repr of the Namespace, stdout, stderr) of a parse, ("exit",
    code, stdout, stderr) of one that exits, at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()
    assert type(args) is argparse.Namespace
    return "args", repr(args), out.getvalue(), err.getvalue()


def _subcommand_flags():
    """{subcommand: [(option string, values it takes, its choices or None)]}
    read off the full parser, so a new flag is drawn as soon as it exists."""
    flags = {}
    for name, sub in cli._parsers()[1].items():
        flags[name] = [
            (opt, 0 if action.nargs == 0 else action.nargs or 1, action.choices)
            for action in sub._actions for opt in action.option_strings
        ]
    return flags


_FLAGS = _subcommand_flags()
_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-1e-3", "1E+2", "-.5", "-7", "0x10", "1_0", "on", "off", "json", "csv", ".", "out.json"]),
    st.sampled_from(["", "abc", "1e", "x y", "-", "--", "-x", "--g", "--nu", "--quick", "-1e", "--=1"]),
    st.text(max_size=6),
)
_STRAYS = st.sampled_from(
    ["--help", "-h", "--version", "--", "--bogus", "-x", "--=x", "--=", "--g", "--ver", "--he", "-hx", "---",
     "spectrum", "verify"]
)


@st.composite
def _argvs(draw):
    head = draw(st.lists(st.sampled_from(["--help", "-h", "--version", "--bogus", "--"]), max_size=1))
    name = draw(st.one_of(st.sampled_from(sorted(_FLAGS)), st.sampled_from(["spectrumx", "spec", "", "-1"])))
    argv = [*head, name] if draw(st.booleans()) or not head else head
    flags = _FLAGS.get(name, _FLAGS["spectrum"])
    # each flag once or not at all (a dropped required flag included), in
    # any order, its values well formed, malformed or too few
    for opt, nargs, choices in draw(st.permutations(flags)):
        if draw(st.integers(0, 3)) == 0:
            continue
        values = st.one_of(st.sampled_from(sorted(choices)), _VALUES) if choices else _VALUES
        count = nargs if draw(st.integers(0, 5)) else draw(st.integers(0, 4))
        argv += [opt, *draw(st.lists(values, min_size=count, max_size=count))]
        if draw(st.integers(0, 6)) == 0:
            argv.append(draw(_STRAYS))
    return argv


class TestParseOnce:
    """main parses an argv that names a subcommand with that subcommand's
    parser only; every argv parses to the Namespace, or exits with the code
    and the bytes, that the full parser gives."""

    @given(argv=_argvs())
    @settings(max_examples=200, deadline=None)
    @example(argv=["spectrum", "--g1", "0", "--g2", "1", "--nu", "1", "--bogus"])
    @example(argv=["spectrum", "--=x"])  # the full parser refuses it as an ambiguous --help/--version
    @example(argv=["spectrum", "--g1", "0", "--g2", "1", "--nu", "1", "--", "--=x"])
    @example(argv=["spectrum", "--", "--g1", "0"])
    @example(argv=["spectrum", "--version"])
    @example(argv=["--version", "spectrum"])
    @example(argv=["sweep", "-h"])
    @example(argv=["verify", "--quick", "--qu"])
    @example(argv=["factorize-check"])
    @example(argv=[])
    def test_parse_matches_the_full_parser(self, argv):
        assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(cli.build_parser().parse_args, argv)

    def test_leftover_argument_is_refused_with_the_top_level_usage(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, ["spectrum", "--g1", "0", "--g2", "1", "--nu", "1", "--bogus"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: calogero [-h] [--version]")
        assert err.endswith("unrecognized arguments: --bogus\n")

    def test_main_parses_with_the_subcommand_parser_only(self, capsys, monkeypatch):
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        assert run(capsys, ["spectrum", "--g1", "0.75", "--g2", "1", "--unique", "--n", "2"])[0] == 0
        assert calls == ["calogero spectrum"]


class TestOutPath:
    """An --out path that cannot be written is a usage error naming it."""

    ARGVS = {
        "spectrum": ["spectrum", "--g1", "0", "--g2", "1", "--nu", "1", "--n", "2"],
        "sweep": ["sweep", "--g1", "0", "--g2", "1", "--sweep", "-1", "1", "3"],
        "factorize-check": ["factorize-check"],
        "nonexistence": ["nonexistence", "--g1", "-1.25", "--g2", "1"],
        "verify": ["verify"],
    }

    @pytest.mark.parametrize("command", sorted(ARGVS))
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, monkeypatch, command, target):
        # refused before the handler runs: no library call is made
        def no_work(*args, **kwargs):
            raise AssertionError("the handler ran before --out was checked")

        library = [name for name, home in calogero._HOME.items() if home != "errors"]
        for name in [*calogero.cli._LAZY, *library]:
            monkeypatch.setattr(calogero.cli, name, no_work, raising=False)
        path = tmp_path if target == "directory" else tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, [*self.ARGVS[command], "--out", str(path)])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("invalid request: cannot write --out ") and str(path) in err
        reason = "Is a directory" if target == "directory" else "No such file or directory"
        assert err.rstrip("\n").endswith(f": {reason}")

    def test_out_parent_that_is_a_file_exits_2(self, capsys, tmp_path):
        (tmp_path / "file").write_text("kept\n")
        path = tmp_path / "file" / "out.json"
        code, out, err = run(capsys, [*self.ARGVS["spectrum"], "--out", str(path)])
        assert (code, out) == (2, "")
        assert err == f"invalid request: cannot write --out {path}: Not a directory\n"
        assert (tmp_path / "file").read_text() == "kept\n"


# mpmath is a test-only reference: with its import blocked, the table,
# a Psi value that the series refuses below rho = 1 (10.5 digits lost,
# where the Laplace quadrature did not converge either) and a
# factorize-check at w = 60 all answer
_WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None
from calogero.cli import main
from calogero.specfun import tricomi_psi
assert main(["verify"]) == 0
assert main(["factorize-check", "--mu", "0.3", "--w", "60"]) == 0
print("psi", tricomi_psi(146.3823893585053, 3.8581192521960097, 0.13595920013435034).hex())
"""


def test_runs_with_mpmath_blocked():
    import mpmath

    src = str(pathlib.Path(calogero.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_MPMATH], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    tag, value = proc.stdout.splitlines()[-1].split()
    assert tag == "psi"
    with mpmath.workdps(40):
        ref = float(mpmath.hyperu(146.3823893585053, 3.8581192521960097, 0.13595920013435034))
    assert float.fromhex(value) == pytest.approx(ref, rel=1e-12, abs=0.0)


# the CLI contract: every request ends in exit 0, 2, 3 or 4 with no
# escaping exception, prints nothing on stdout when refused (2, 3), names
# its refusal in one "invalid request: " line or argparse's usage error
# (2), prints only finite numbers when it answers (0), and prints the same
# bytes when asked again.  Couplings are drawn across float64, subnormals
# and 1e+-300 included; counts stay small (a --sweep of 1e6 rows
# legitimately runs for minutes)
_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e-47, 1e-30,
             1e100, 1e200, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]
_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from(_EXTREMES), st.floats(-0.25, 4.0)).map(repr)
# in the cone g1 >= -1/4, g2 > 0 more often than not
_G1 = st.one_of(_ANY_FLOAT, st.floats(-0.25, 4.0).map(repr))
_G2 = st.one_of(_ANY_FLOAT, *[st.floats(-300.0, 300.0).map(lambda u: repr(10.0 ** u))] * 2)
_ANGLE = st.one_of(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6), st.floats(),
                   st.sampled_from([-math.pi / 2, math.pi / 2])).map(repr)
_LEVELS = st.one_of(st.integers(1, 4).map(str), st.sampled_from(["0", "-1", "2.5", "x"]))


@st.composite
def _requests(draw):
    # spectrum twice: it has the most paths
    command = draw(st.sampled_from(["spectrum", "spectrum", "sweep", "factorize-check", "nonexistence",
                                    "verify"]))
    argv = [command]
    if command == "spectrum":
        argv += ["--g1", draw(_G1), "--g2", draw(_G2), "--n", draw(_LEVELS)]
        nu = ["--nu", draw(_ANGLE)]
        argv += draw(st.sampled_from([[], ["--unique"], ["--friedrichs"], nu, nu]))
        argv += ["--oracle", draw(st.sampled_from(["on", "off"]))]
    elif command == "sweep":
        count = draw(st.one_of(st.integers(-1, 5).map(str), st.sampled_from(["2.5", "nan", "inf"])))
        argv += ["--g1", draw(_G1), "--g2", draw(_G2), "--sweep", draw(_ANGLE), draw(_ANGLE), count,
                 "--n", draw(_LEVELS)]
    elif command == "factorize-check":
        argv += ["--g1", draw(_G1), "--g2", draw(_G2), "--mu", draw(_ANGLE), "--w", draw(_ANY_FLOAT)]
    elif command == "nonexistence":
        argv += ["--g1", draw(_G1), "--g2", draw(_G2), "--u", draw(_ANY_FLOAT)]
        if draw(st.booleans()):
            argv += ["--interval", draw(_ANY_FLOAT), draw(_ANY_FLOAT)]
        if draw(st.booleans()):
            argv.append("--force")
    else:
        argv += draw(st.sampled_from([[], ["--inject-gamma-bug"]]))
    return argv + ["--format", draw(st.sampled_from(["json", "csv"]))]


def _bounded_main(argv, seconds=10):
    """(exit code, stdout, stderr) of main(argv), which must return within
    seconds (SIGALRM)."""
    def overtime(signum, frame):
        raise TimeoutError(f"{' '.join(argv)} ran past {seconds} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, overtime)
    signal.alarm(seconds)
    try:
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise AssertionError(f"non-finite number {name} in the output")


def _assert_finite_numbers(text, fmt):
    """No NaN or infinity in a JSON report; in a CSV one, no field spelled
    as Python or JSON spell them (the mode label "infinity" aside) and no
    number past float64."""
    if fmt == "json":
        json.loads(text, parse_constant=_refuse_constant)
        return
    for field in text.replace("\n", ",").split(","):
        assert field.lstrip("+-") not in ("nan", "inf", "NaN", "Infinity"), field
        if any(c.isdigit() for c in field):
            try:
                assert math.isfinite(float(field)), field
            except ValueError:
                pass


def _pinned_examples(test):
    """test with every argv `cli_pins.PINS` holds for a past fault or a
    contract case as an explicit example; --out is left to
    `test_cli_pinned.py`."""
    from cli_pins import PINS

    for argv in PINS:
        if "--out" not in argv:
            test = example(argv=argv.split())(test)
    return test


class TestContract:
    @_pinned_examples
    @given(argv=_requests())
    @settings(max_examples=100, deadline=None)
    @example(argv=["spectrum", "--g1", "0.2930971441035225", "--g2", "7", "--nu", "-0.5219813924425775",
                   "--n", "1", "--oracle", "on"])
    # the oracle at extreme g2: NaN left data (exit 1, then 4), answers 194 % off
    @example(argv=["spectrum", "--g1", "1", "--g2", "1e-47", "--unique", "--n", "1", "--oracle", "on"])
    @example(argv=["spectrum", "--g1", "0", "--g2", "1e-30", "--nu", "0.5", "--n", "3", "--oracle", "on"])
    @example(argv=["spectrum", "--g1", "0", "--g2", "1e300", "--friedrichs", "--n", "3", "--oracle", "on"])
    # past faults not in cli_pins.PINS
    @example(argv=["spectrum", "--g1", "-0.24999975", "--g2", "1", "--nu", "-1.2"])
    @example(argv=["factorize-check", "--h-shift", "nan"])
    @example(argv=["nonexistence", "--g1", "1e308", "--g2", "1", "--force"])
    def test_every_request_ends_in_the_contract(self, argv):
        code, out, err = _bounded_main(argv)
        assert code in (0, 2, 3, 4), (code, err)
        if code in (2, 3):
            assert out == ""
        if code == 2:
            lines = [line for line in err.splitlines() if not line.startswith("warning: ")]
            usage = err.startswith("usage: ") and "error: " in lines[-1]
            assert usage or (len(lines) == 1 and lines[0].startswith("invalid request: ")), err
        if code == 0:
            _assert_finite_numbers(out, "csv" if "csv" in argv else "json")
        assert _bounded_main(argv) == (code, out, err)
