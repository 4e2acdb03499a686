"""End-to-end command-line behaviour, driven through main(argv) in-process."""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import calogero
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
        assert oracle["max_rel_gap"] <= 1e-3
        assert len(oracle["energies"]) == 2
        assert doc["checks"][0]["name"] == "oracle-agreement"
        assert doc["checks"][0]["passed"] is True

    def test_oracle_climbs_from_a_deep_ground_state(self, capsys):
        # kappa = 0.3, nu = -1.3: E0 ~ -84, then level 1 near +3.1
        code, out, _ = run(capsys, ["spectrum", "--g1", "-0.16", "--g2", "1", "--nu", "-1.3",
                                    "--n", "2", "--oracle", "on"])
        assert code == 0
        assert json.loads(out)["results"]["oracle"]["max_rel_gap"] <= 1e-3

    @pytest.mark.parametrize("n", [8, 13])
    def test_oracle_returns_levels_past_the_old_window(self, capsys, n):
        # level 12 turns 0.98 / ups before 8 / ups, where the right branch
        # used to be capped, and is still within 1e-11 of the spectrum
        code, out, err = run(capsys, ["spectrum", "--g1", "0", "--g2", "1", "--nu", "1.0",
                                      "--n", str(n), "--oracle", "on"])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert len(doc["results"]["oracle"]["energies"]) == n
        assert doc["checks"][0]["name"] == "oracle-agreement"
        assert doc["checks"][0]["passed"] is True
        assert doc["results"]["oracle"]["max_rel_gap"] <= 1e-11

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
        code, _, err = run(capsys, ["spectrum", "--g1", "0", "--g2", "1"])
        assert code == 2
        assert "--nu" in err

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
            # rho up to 139 at x = 2.1, where rho^(-alpha)/Gamma(alpha) is subnormal
            ["--g1", "0", "--g2", "1000", "--mu", "0", "--w", "95"],
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
            # phi underflows to 0 at x = 2.1
            ["--g1", "2.58", "--g2", "170162.5", "--mu", "0", "--w", "-0.0176"],
            # rho^2 underflows
            ["--g1", "0", "--g2", "5e-324"],
            # rho^(1 - beta) overflows in the Psi series
            ["--g1", "0", "--g2", "1e-300", "--mu", "0.3", "--w", "0.2"],
            # rho^q overflows in phi's envelope
            ["--g1", "100", "--g2", "1e300"],
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
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--quick"])
        assert code == 0
        doc = json.loads(out)
        rows = doc["results"]["rows"]
        assert len(rows) == 12  # row 3 joined the quick subset
        assert all(r["passed"] for r in rows)
        assert doc["checks"][0]["name"] == "all-rows-pass"
        assert doc["checks"][0]["value"] == 0

    def test_quick_is_deterministic(self, capsys):
        _, first, _ = run(capsys, ["verify", "--quick"])
        _, second, _ = run(capsys, ["verify", "--quick"])
        assert first == second

    def test_injected_gamma_bug_fails_spectral_rows(self, capsys):
        code, out, err = run(capsys, ["verify", "--quick", "--inject-gamma-bug"])
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
        run(capsys, ["verify", "--quick", "--inject-gamma-bug"])
        code, out, _ = run(capsys, ["verify", "--quick"])
        assert code == 0
        assert all(r["passed"] for r in json.loads(out)["results"]["rows"])

    def test_csv_status_column(self, capsys):
        code, out, _ = run(capsys, ["verify", "--quick", "--format", "csv"])
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
        assert [code for code, _ in in_process] == [0, 2, 0, 0, 0, 0, 0]
        assert in_process == fresh
