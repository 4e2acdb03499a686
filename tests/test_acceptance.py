"""The acceptance table, one test and one pass/fail line per row.

The table itself is computed once per pytest run (module fixture); each
test prints its row's verdict, so `pytest -v -s tests/test_acceptance.py`
reads as a checklist. A failing row prints automatically.
"""

import math
import os
import threading
from dataclasses import replace

import pytest

from calogero import acceptance, specfun, spectral
from calogero.acceptance import run_acceptance
from calogero.errors import ConvergenceError, DomainError
from calogero.oracle import OracleSpectrum, shoot_spectrum
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
    rows = run_acceptance()
    return {row.name: row for row in rows}


def test_table_is_complete(table):
    assert sorted(table) == sorted(ROW_NAMES)


def test_rows_come_in_table_order(table):
    # the rows that read no oracle run first, but the report lists them as tabled
    assert list(table) == ROW_NAMES


@pytest.mark.parametrize("name", ROW_NAMES)
def test_criterion(table, name):
    row = table[name]
    status = "PASS" if row.passed else "FAIL"
    print(f"{status} {row.name}: {row.value:.3e} <= {row.threshold:.0e}  ({row.detail})")
    assert row.passed, f"{row.name}: {row.value!r} exceeds {row.threshold!r} ({row.detail})"


# a 1e-6 relative fault in the argument each special function of the
# boundary equations sees; a uniform 1e-6 scale of sinpi would be no fault,
# since the equations use only a ratio of two sines
_FAULTS = {
    "gamma": lambda f: lambda z: f(z * (1.0 + 1e-6)),
    "gammaln_signed": lambda f: lambda z: f(z * (1.0 + 1e-6)),
    "gammaln_shift": lambda f: lambda b, d: f(b * (1.0 + 1e-6), d),
    "digamma": lambda f: lambda z: f(z * (1.0 + 1e-6)),
    "sinpi": lambda f: lambda z: f(z * (1.0 + 1e-6)),
}


@pytest.mark.parametrize("name", sorted(_FAULTS))
def test_table_sees_a_special_function_fault(monkeypatch, name):
    monkeypatch.setattr(spectral, name, _FAULTS[name](getattr(spectral, name)))
    failed = [row.name for row in run_acceptance() if not row.passed]
    assert "3-spectrum-equivalence" in failed


def test_injected_gamma_bug_fails_rows_2_3_and_9():
    token = gamma_skew.set(0.01)  # what `verify --inject-gamma-bug` sets
    try:
        failed = {row.name for row in run_acceptance() if not row.passed}
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


def _on_its_table(row, cells):
    """The row, read off an oracle table shot from its own cells."""
    shot, _ = acceptance._oracle_table(cells())
    return row(shot)


def test_nan_figure_fails_its_row(monkeypatch):
    # max() would pass over a NaN that does not come first; the NaN crosses
    # from a child's share too, when there is one
    def nan_spectrum(rp, ext, n):
        return OracleSpectrum((math.nan,) * n, (0.0,) * n, ((0.0, 1.0),) * n, 1.0)

    monkeypatch.setattr(acceptance, "shoot_spectrum", nan_spectrum)
    row = _on_its_table(acceptance._c1_friedrichs_ground, acceptance._c1_cells)
    assert row.passed is False
    assert math.isnan(row.value)


@pytest.mark.parametrize("figures", [(0.1, math.nan, 0.2), (math.nan, 0.1), (0.2, 0.1, math.nan)])
def test_worst_figure_keeps_nan(figures):
    assert math.isnan(acceptance._worst(*figures))


def test_psi_dual_route_compares_two_routes():
    # the series must answer all nine points itself, or the row has no
    # series value to compare with the recurrence; the worst point,
    # Psi(1.3, 1.5; 7), cancels 4.8 of the 5 digits the series may lose
    assert len(acceptance._PSI_DUAL_ROUTE_POINTS) == 9
    for alpha, beta, rho in acceptance._PSI_DUAL_ROUTE_POINTS:
        assert specfun.tricomi_psi_series(alpha, beta, rho) == specfun.tricomi_psi(alpha, beta, rho)
    assert acceptance._c7_psi_dual_route().passed


def _faulty_series(real):
    return lambda a, b, r: real(a, b, r) * (1.0 + 1e-9)


def _faulty_recurrence(real):
    def psi_log(a, b, r):
        ln_psi, dlog = real(a, b, r)
        return ln_psi + math.log1p(1e-9), dlog

    return psi_log


@pytest.mark.parametrize("name, fault", [("tricomi_psi_series", _faulty_series), ("_psi_log", _faulty_recurrence)])
def test_psi_dual_route_sees_a_1e9_fault_in_either_route(monkeypatch, name, fault):
    # the routes agree to 9.7e-13; a 1e-9 relative error in one of them
    # is ten times the row's 1e-10 threshold
    monkeypatch.setattr(acceptance, name, fault(getattr(acceptance, name)))
    row = acceptance._c7_psi_dual_route()
    assert row.passed is False
    assert row.value >= 9e-10


def test_psi_dual_route_has_margin(table):
    row = table["7-psi-dual-route"]
    assert 10.0 * row.value <= row.threshold


def test_wavefunction_fidelity_has_margin(table):
    row = table["9-wavefunction-fidelity"]
    assert 10.0 * row.value <= row.threshold


def test_wavefunction_fidelity_sees_a_skewed_gamma():
    # a 1e-6 skew of the boundary equations moves the analytic ground states
    # by about 2e-7 of (u, u') at the match point
    token = gamma_skew.set(1e-6)
    try:
        row = _on_its_table(acceptance._c9_wavefunction_fidelity, acceptance._c9_cells)
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
    assert _on_its_table(acceptance._c9_wavefunction_fidelity, acceptance._c9_cells).passed is False


# --- the oracle table: one shot per cell, split across forked children --------


def _bits(rows):
    return [(r.name, r.passed, r.value.hex(), r.threshold.hex(), r.detail) for r in rows]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_rows_are_the_same_bits_on_any_share_count(monkeypatch):
    got = {}
    for k in (1, 2, 3):
        monkeypatch.setattr(acceptance, "_usable_cpus", lambda k=k: k)
        got[k] = _bits(run_acceptance())
    assert got[1] == got[2] == got[3]
    _no_child_left()


def test_table_shoots_each_cell_once_at_its_largest_level_count(monkeypatch):
    calls = []

    def counting(rp, ext, n):
        calls.append(n)
        return shoot_spectrum(rp, ext, n)

    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 1)  # count in this process
    monkeypatch.setattr(acceptance, "shoot_spectrum", counting)
    run_acceptance()
    # 31 calls for 95 levels when each row shot its own cells
    assert (len(calls), sum(calls)) == (22, 84)


def test_a_short_run_is_the_first_levels_of_the_table():
    cells = acceptance._c3_cells()
    shot, _ = acceptance._oracle_table(cells)
    for rp, ext, n in (cells[0], cells[4], cells[11]):  # (kappa, nu) = (1/4, -1), (1/2, 0), (0, 1)
        for k in range(1, n):
            assert shoot_spectrum(rp, ext, k) == shot(rp, ext, k)
    _no_child_left()


def _first_cell(share):
    """(rp, ext) of the first cell in share 0 (the parent's) or 1 (the
    child's) of the full table split in two."""
    cells = [cell for _, cells in acceptance._CHECKS if cells for cell in cells()]
    return acceptance._split(acceptance._table_cells(cells), 2)[share][0][:2]


@pytest.mark.parametrize("share", [0, 1])
@pytest.mark.parametrize("error", [ConvergenceError, DomainError])
def test_a_share_that_raises_is_raised_as_itself_and_leaves_no_child(monkeypatch, share, error):
    bad = _first_cell(share)

    def failing(rp, ext, n):
        if (rp, ext) == bad:
            raise error(f"injected at {rp!r} {ext!r}")
        return shoot_spectrum(rp, ext, n)

    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(acceptance, "shoot_spectrum", failing)
    with pytest.raises(error) as info:
        run_acceptance()
    assert type(info.value) is error
    assert str(info.value) == f"injected at {bad[0]!r} {bad[1]!r}"
    _no_child_left()


@pytest.mark.parametrize("die, status", [(lambda: os._exit(3), 3), (lambda: {}["untyped"], 1)])
def test_a_child_without_a_result_is_a_convergence_error(monkeypatch, die, status):
    bad = _first_cell(1)

    def dying(rp, ext, n):
        if (rp, ext) == bad:
            die()
        return shoot_spectrum(rp, ext, n)

    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(acceptance, "shoot_spectrum", dying)
    with pytest.raises(ConvergenceError, match=f"oracle worker exited with status {status} and no result"):
        run_acceptance()
    _no_child_left()


def test_a_row_that_raises_while_children_work_leaves_no_child(monkeypatch):
    def failing(*args, **kwargs):
        raise ConvergenceError("injected in row 8")

    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(acceptance, "count_zeros", failing)
    with pytest.raises(ConvergenceError, match="injected in row 8"):
        run_acceptance()
    _no_child_left()


def test_no_child_is_forked_while_another_thread_runs():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert acceptance._usable_cpus() == 1
    finally:
        stop.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
