"""The acceptance table, one test and one pass/fail line per row.

The table itself is computed once per pytest run (module fixture); each
test prints its row's verdict, so `pytest -v -s tests/test_acceptance.py`
reads as a checklist. A failing row prints automatically.
"""

import math

import pytest

from calogero import acceptance
from calogero.acceptance import run_acceptance

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
    # quick mode must stay within interactive latency; the slow rows
    # (oracle sweeps over many couplings) are exactly what it drops
    assert "3-spectrum-equivalence" not in names
    assert "1-friedrichs-ground-vs-oracle" in names


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
