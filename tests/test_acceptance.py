"""The acceptance table, one test and one pass/fail line per row.

The table itself is computed once per pytest run (module fixture); each
test prints its row's verdict, so `pytest -v -s tests/test_acceptance.py`
reads as a checklist. A failing row prints automatically.
"""

import math
from dataclasses import replace

import pytest

from calogero import acceptance, specfun, spectral
from calogero.acceptance import run_acceptance
from calogero.spectral import gamma_skew

ROW_NAMES = [
    "1-friedrichs-ground-vs-oracle",
    "2-nu-zero-closed-form",
    "2-nu-zero-vs-oracle",
    "3-spectrum-equivalence",
    "4-ladder-spacing-vs-oracle",
    "5-monotone-flow",
    "6-factorization-identity",
    "6-kernel-at-floor",
    "7-psi-dual-route",
    "7-psi-large-rho",
    "7-phi-large-rho",
    "8-oscillation-census",
    "9-wavefunction-fidelity",
    "10-scaling-formula",
    "10-scaling-oracle",
]


@pytest.fixture(scope="module")
def table():
    rows = run_acceptance(quick=False)
    return {row.name: row for row in rows}


def test_table_is_complete(table):
    assert sorted(table) == sorted(ROW_NAMES)


def test_rows_come_in_table_order(table):
    # the rows run one after another, so the report lists them as tabled
    assert list(table) == ROW_NAMES
    quick = [row.name for row in run_acceptance(quick=True)]
    assert quick == [name for name in ROW_NAMES if name in quick]


@pytest.mark.parametrize("name", ROW_NAMES)
def test_criterion(table, name):
    row = table[name]
    status = "PASS" if row.passed else "FAIL"
    print(f"{status} {row.name}: {row.value:.3e} <= {row.threshold:.0e}  ({row.detail})")
    assert row.passed, f"{row.name}: {row.value!r} exceeds {row.threshold!r} ({row.detail})"


def test_quick_subset_is_a_subset(table):
    quick = run_acceptance(quick=True)
    names = {row.name for row in quick}
    assert names < set(ROW_NAMES)
    assert all(row.passed for row in quick)
    # quick mode keeps row 3, the one row that sees faults in digamma and
    # sinpi (below), and drops the other oracle sweeps
    assert "3-spectrum-equivalence" in names
    assert "4-ladder-spacing-vs-oracle" not in names
    assert "1-friedrichs-ground-vs-oracle" in names


# a 1e-6 relative fault in the argument each special function of the
# boundary equations sees; a uniform 1e-6 scale of sinpi would be no fault,
# since the equations use only a ratio of two sines
_FAULTS = {
    "gammaln_signed": lambda f: lambda z: f(z * (1.0 + 1e-6)),
    "gammaln_shift": lambda f: lambda b, d: f(b * (1.0 + 1e-6), d),
    "digamma": lambda f: lambda z: f(z * (1.0 + 1e-6)),
    "sinpi": lambda f: lambda z: f(z * (1.0 + 1e-6)),
}


@pytest.mark.parametrize("name", sorted(_FAULTS))
def test_quick_table_sees_a_special_function_fault(monkeypatch, name):
    monkeypatch.setattr(spectral, name, _FAULTS[name](getattr(spectral, name)))
    failed = [row.name for row in run_acceptance(quick=True) if not row.passed]
    assert "3-spectrum-equivalence" in failed


def test_injected_gamma_bug_fails_rows_2_3_and_9():
    token = gamma_skew.set(0.01)  # what `verify --inject-gamma-bug` sets
    try:
        failed = {row.name for row in run_acceptance(quick=True) if not row.passed}
    finally:
        gamma_skew.reset(token)
    assert {"2-nu-zero-closed-form", "3-spectrum-equivalence", "9-wavefunction-fidelity"} <= failed


@pytest.mark.parametrize("name", ["1-friedrichs-ground-vs-oracle", "2-nu-zero-vs-oracle",
                                  "3-spectrum-equivalence", "4-ladder-spacing-vs-oracle",
                                  "10-scaling-oracle"])
def test_oracle_rows_have_margin(table, name):
    # thresholds are 100x the worst value at zero skew, rounded up to a
    # power of ten; a few ulps of platform noise keep more than 10x
    row = table[name]
    assert 10.0 * row.value <= row.threshold


def test_nan_figure_fails_its_row(monkeypatch):
    # max() would pass over a NaN that does not come first
    class NaNSpectrum:
        energies = (math.nan,)

    monkeypatch.setattr(acceptance, "shoot_spectrum", lambda *args, **kwargs: NaNSpectrum)
    row = acceptance._c1_friedrichs_ground()
    assert row.passed is False
    assert math.isnan(row.value)


@pytest.mark.parametrize("figures", [(0.1, math.nan, 0.2), (math.nan, 0.1), (0.2, 0.1, math.nan)])
def test_worst_figure_keeps_nan(figures):
    assert math.isnan(acceptance._worst(*figures))


def test_psi_dual_route_compares_two_routes(monkeypatch):
    # the series must answer all nine points itself: a point it hands over
    # to the Laplace integral would compare that route with itself
    handed_over = []
    integral = specfun.tricomi_psi_integral

    def counting(*args):
        handed_over.append(args)
        return integral(*args)

    monkeypatch.setattr(specfun, "tricomi_psi_integral", counting)
    row = acceptance._c7_psi_dual_route()
    assert row.passed
    assert handed_over == []


def test_wavefunction_fidelity_has_margin(table):
    row = table["9-wavefunction-fidelity"]
    assert 10.0 * row.value <= row.threshold


def test_wavefunction_fidelity_sees_a_skewed_gamma():
    # a 1e-6 skew of the boundary equations moves the analytic ground states
    # by about 2e-7 of (u, u') at the match point
    token = gamma_skew.set(1e-6)
    try:
        row = acceptance._c9_wavefunction_fidelity()
    finally:
        gamma_skew.reset(token)
    assert row.passed is False


def test_wavefunction_fidelity_sees_a_norm_error(monkeypatch):
    # the analytic states must be normalized, not only shaped, like the shot ones
    real = acceptance.ground_state_wavefunction

    def off(rp, ext):
        gs = real(rp, ext)
        return replace(gs, norm_constant=gs.norm_constant * (1.0 + 1e-6))

    monkeypatch.setattr(acceptance, "ground_state_wavefunction", off)
    assert acceptance._c9_wavefunction_fidelity().passed is False
