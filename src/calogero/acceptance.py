"""Cross-validation suite behind `calogero verify` and the acceptance tests.

Every headline claim of the library gets one measured row: a name, the
worst observed value, the threshold it must stay under, and a pass flag.
Rows never assert; they report. The CLI and the test suite decide what
to do with a failure.

The oracle rows (1, 2-vs-oracle, 3, 4, 9, 10-oracle) read one table.
`run_acceptance` gathers the (rp, ext) cells of those rows, shoots
each cell once at the largest level count a row asks of it, and every row
reads the first n levels of its cells: a k-level run is the first k levels
of a longer run bit for bit, since level n's solve never reads n_max.  The
table is shot in shares, one per usable CPU and at most one per cell.  The
parent keeps one share and forks a child for each other; a child sends its
spectra back through a pipe with `marshal`, which keeps every float's bits,
and a `DomainError` or `ConvergenceError` as the same type and message.
The parent's share is lighter, since it runs the rows that need no oracle
while the children work.  So the rows and their bytes are the same on any
number of CPUs, and no child outlives the call.
"""

from __future__ import annotations

import marshal
import math
import os
import threading
from dataclasses import dataclass, replace

from .errors import ConvergenceError, DomainError
from .factorization import (
    KERNEL_THRESHOLD,
    RESIDUAL_THRESHOLD,
    RepresentationParams,
    factorization_residual,
    kernel_sweep,
    make_phi,
    residual_sweep,
)
from .nonexistence import count_zeros
from .oracle import OracleSpectrum, shoot_spectrum
from .params import reduce
from .specfun import (
    _psi_log,
    gamma,
    kummer_phi,
    tricomi_psi,
    tricomi_psi_series,
)
from .spectral import (
    extension_for,
    ground_state_energy,
    ground_state_wavefunction,
    solve_w,
    spectrum,
)

__all__ = ["CheckRow", "run_acceptance"]


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    value: float  # worst observed figure of merit
    threshold: float  # the value must stay at or below this
    detail: str


def _row(name, value, threshold, detail):
    return CheckRow(name, value <= threshold, value, threshold, detail)


def _worst(*figures):
    """The largest figure, or NaN if any figure is NaN: max() keeps a NaN
    only when it comes first, and a NaN figure must fail its check."""
    if any(math.isnan(f) for f in figures):
        return math.nan
    return max(figures)


def _rel(got, ref):
    return abs(got - ref) / abs(ref)


# The oracle rows' thresholds are 100x their worst value at zero skew,
# rounded up to a power of ten: rows 1, 2-vs-oracle, 3 and 4 read 6.7e-16,
# 6.7e-16, 4.6e-15 and 3.6e-16 and row 9 6.7e-15 when set (3.3e-16, 6.7e-16,
# 2.4e-15, 3.6e-16 and 1.1e-15 now); row 10's scaling law reads 0 by
# construction, since the oracle solves the g2 = 1 problem at every g2.
# Row 7-psi-dual-route follows the same rule: 9.7e-13 at worst, 1e-10.
# A 1e-6 relative fault in the argument of gamma, gammaln_signed,
# gammaln_shift, digamma or sinpi moves row 3 by 1.6e-7 or more.


# --- 1: Friedrichs/unique ground state against the oracle ------------------


def _c1_cells():
    cells = []
    for g1, g2 in [(1.0, 1.0), (0.75, 1.0), (0.0, 1.0), (-3.0 / 16.0, 4.0), (-0.25, 1.0)]:
        rp = reduce(g1, g2)
        cells.append((rp, extension_for(rp, nu=None, friedrichs=True), 1))
    return cells


def _c1_friedrichs_ground(shot):
    worst = 0.0
    for rp, ext, n in _c1_cells():
        ref = 2.0 * rp.energy_scale() * (1.0 + rp.kappa)
        got = shot(rp, ext, n).energies[0]
        worst = _worst(worst, _rel(got, ref))
    return _row(
        "1-friedrichs-ground-vs-oracle", worst, 1e-13,
        "E0 = 2 ups^2 (1+kappa) shot over five coupling points",
    )


# --- 2: the nu = 0 closed form ----------------------------------------------


def _c2_nu_zero_closed_form():
    worst = 0.0
    for kappa in (0.25, 0.5, 0.75):
        rp = reduce(kappa * kappa - 0.25, 1.0)
        w00 = solve_w(0.0, 0.0, rp)
        bound = -4.0 * rp.energy_scale() * w00  # optimum representation: u = -E0
        worst = _worst(worst, _rel(bound, 2.0 * rp.energy_scale() * (1.0 - kappa)))
    return _row(
        "2-nu-zero-closed-form", worst, 1e-10,
        "-4 ups^2 w(0,0) against 2 ups^2 (1-kappa)",
    )


def _c2_cells():
    cells = []
    for kappa in (0.25, 0.5, 0.75):
        rp = reduce(kappa * kappa - 0.25, 1.0)  # rp.kappa == kappa
        cells.append((rp, extension_for(rp, nu=0.0), 1))
    return cells


def _c2_nu_zero_oracle(shot):
    worst = 0.0
    for rp, ext, n in _c2_cells():
        got = shot(rp, ext, n).energies[0]
        worst = _worst(worst, _rel(got, 2.0 * rp.energy_scale() * (1.0 - rp.kappa)))
    return _row(
        "2-nu-zero-vs-oracle", worst, 1e-13,
        "the same ground states from the shooting side",
    )


# --- 3: transcendental spectra against the oracle, full grid ----------------


def _c3_cells():
    cells = []
    for kappa, nu in [(k, nu) for k in (0.25, 0.5, 0.75, 0.0) for nu in (-1.0, 0.0, 1.0)]:
        rp = reduce(kappa * kappa - 0.25, 1.0)
        cells.append((rp, extension_for(rp, nu=nu), 5))
    return cells


def _c3_spectrum_equivalence(shot):
    worst = 0.0
    for rp, ext, n in _c3_cells():
        formula = spectrum(rp, ext, n).energies
        shots = shot(rp, ext, n).energies
        worst = _worst(worst, *(_rel(s, f) for s, f in zip(shots, formula)))
    return _row(
        "3-spectrum-equivalence", worst, 1e-12,
        "first 5 levels, 12 (kappa, nu) combinations, formula vs shooting",
    )


# --- 4: ladder spacing -------------------------------------------------------


def _c4_cells():
    cells = []
    for kappa in (0.5, 1.0, 2.0):
        rp = reduce(kappa * kappa - 0.25, 1.0)  # rp.kappa == kappa
        cells.append((rp, extension_for(rp, nu=None, friedrichs=True), 5))
    return cells


def _c4_ladder_spacing(shot):
    worst = 0.0
    for rp, ext, n in _c4_cells():
        formula = spectrum(rp, ext, n).energies
        refs = [2.0 * rp.energy_scale() * (2 * k + 1 + rp.kappa) for k in range(n)]
        shots = shot(rp, ext, n).energies
        worst = _worst(worst, *(_rel(f, r) for f, r in zip(formula, refs)))
        worst = _worst(worst, *(_rel(s, r) for s, r in zip(shots, refs)))
    return _row(
        "4-ladder-spacing-vs-oracle", worst, 1e-13,
        "E_n = 2 ups^2 (2n+1+kappa), n <= 4, three kappa values",
    )


# --- 5: monotone spectral flow ----------------------------------------------


def _c5_monotone_flow():
    worst_gap = 0.0
    monotone = True
    for kappa, increasing in ((0.5, True), (0.0, False)):
        rp = reduce(kappa * kappa - 0.25, 1.0)
        nus = [-0.5 * math.pi + 0.01 + (math.pi - 0.02) * i / 20.0 for i in range(21)]
        e0 = [ground_state_energy(rp, extension_for(rp, nu=nu)) for nu in nus]
        steps = [b - a for a, b in zip(e0, e0[1:])]
        if increasing:
            monotone &= all(s > 0.0 for s in steps)
            limit_val = e0[-1]  # nu -> pi/2 from below
        else:
            monotone &= all(s < 0.0 for s in steps)
            limit_val = e0[0]  # nu -> -pi/2 from above
        limit_ref = 2.0 * rp.energy_scale() * (1.0 + kappa)
        worst_gap = _worst(worst_gap, abs(limit_val - limit_ref) / rp.energy_scale())
    value = worst_gap if monotone else math.inf
    return _row(
        "5-monotone-flow", value, 0.05,
        "21-point nu sweeps strictly monotone, endpoint gap in units of ups^2",
    )


# --- 6: factorization identity ----------------------------------------------

def _c6_factorization_identity():
    worst = 0.0
    for g1 in (-0.25, -0.1875, 0.0, 2.0):
        rp = reduce(g1, 1.0)
        for mu, w in ((0.5 * math.pi, 0.0), (0.3, rp.w0), (1.0, 0.7)):
            phi = make_phi(RepresentationParams(mu, w, rp))
            worst = _worst(worst, residual_sweep(phi, factorization_residual)[0])
    return _row(
        "6-factorization-identity", worst, RESIDUAL_THRESHOLD,
        "b a f = (H + u) f over 12 representation points x 3 functions",
    )


def _c6_kernel_at_floor():
    worst = 0.0
    for g1, g2 in ((0.0, 1.0), (2.0, 4.0)):
        rp = reduce(g1, g2)
        phi = make_phi(RepresentationParams(0.3, rp.w0, rp))
        worst = _worst(worst, kernel_sweep(phi))
    return _row(
        "6-kernel-at-floor", worst, KERNEL_THRESHOLD,
        "a phi = 0 at the admissibility floor w = w0",
    )


# --- 7: special-function cross checks ---------------------------------------


# (alpha, beta, rho): the series answers each itself, Psi(1.3, 1.5; 7)
# cancelling the most, 4.8 of its 5 digits
_PSI_DUAL_ROUTE_POINTS = tuple(
    (alpha, beta, rho)
    for alpha, beta in ((0.75, 1.5), (1.3, 1.5), (0.45, 1.25))
    for rho in (0.8, 3.0, 7.0)
)


def _c7_psi_dual_route():
    worst = 0.0
    for alpha, beta, rho in _PSI_DUAL_ROUTE_POINTS:
        a = tricomi_psi_series(alpha, beta, rho)
        b = math.exp(_psi_log(alpha, beta, rho)[0])
        worst = _worst(worst, abs(a - b) / abs(b))
    return _row(
        "7-psi-dual-route", worst, 1e-10,
        "series vs recurrence evaluation of the decaying solution",
    )


def _c7_psi_large_rho():
    # the O(1/rho) correction coefficient is alpha (alpha - beta + 1);
    # these points keep it well under the tolerance at rho = 100
    worst = 0.0
    for alpha, beta in ((0.75, 1.5), (1.25, 2.0)):
        got = 100.0**alpha * tricomi_psi(alpha, beta, 100.0)
        worst = _worst(worst, abs(got - 1.0))
    return _row(
        "7-psi-large-rho", worst, 1e-2,
        "rho^alpha Psi -> 1 checked at rho = 100",
    )


def _c7_phi_large_rho():
    worst = 0.0
    for alpha, beta in ((0.75, 1.5), (1.25, 2.0)):
        # Phi ~ Gamma(beta)/Gamma(alpha) e^rho rho^(alpha-beta)
        got = kummer_phi(alpha, beta, 100.0)
        ref = gamma(beta) / gamma(alpha) * math.exp(100.0) * 100.0 ** (alpha - beta)
        worst = _worst(worst, abs(got / ref - 1.0))
    return _row(
        "7-phi-large-rho", worst, 2e-2,
        "growing-solution asymptotics checked at rho = 100",
    )


# --- 8: oscillation census outside the cone ---------------------------------


def _c8_oscillation():
    details = []
    worst = 0.0
    for g1, g2, interval in ((-0.5, 0.0, (1e-8, 1e-2)), (0.0, -1.0, (10.0, 20.0))):
        r = count_zeros(g1, g2, 0.0, interval)
        worst = _worst(worst, abs(r.observed_zeros - r.predicted_zeros) / r.slack)
        details.append(f"{r.mode}: {r.observed_zeros} vs {r.predicted_zeros:.2f}")
    return _row(
        "8-oscillation-census", worst, 1.0,
        "; ".join(details),
    )


# --- 9: wavefunction fidelity ------------------------------------------------


def _c9_cells():
    cells = []
    for g1, g2, kwargs in (
        (0.75, 1.0, dict(nu=None)),  # kappa = 1
        (-0.25, 1.0, dict(nu=None, friedrichs=True)),  # kappa = 0
        (0.0, 1.0, dict(nu=0.0)),  # kappa = 1/2
        (-0.1875, 1.0, dict(nu=0.5)),  # kappa = 1/4
        (0.3125, 1.0, dict(nu=-0.6)),  # kappa = 3/4
        (-0.1875, 4.0, dict(nu=1.0)),  # kappa = 1/4, ups^2 = 2
    ):
        rp = reduce(g1, g2)
        cells.append((rp, extension_for(rp, **kwargs), 1))
    return cells


def _c9_wavefunction_fidelity(shot):
    # (u, u') of the analytic ground state at the oracle's match point against
    # the shot one, relative to |(u, u')|: worst 1.1e-15 measured, where a
    # gamma_skew of 1e-6 reads 2.2e-7 and a 1e-6 error in the norm constant
    # 9.0e-7; 1e-12, 100x the worst value when set (6.7e-15), fails both
    worst = 0.0
    for rp, ext, n in _c9_cells():
        ground = shot(rp, ext, n)
        (u, du), x = ground.match_states[0], ground.x_match
        gs = ground_state_wavefunction(rp, ext)
        ref, dref = gs(x), gs.derivative(x)
        worst = _worst(worst, max(abs(u - ref), abs(du - dref)) / math.hypot(ref, dref))
    return _row(
        "9-wavefunction-fidelity", worst, 1e-12,
        "(u, u') of the analytic ground state against the shot one at the match point, six cells",
    )


# --- 10: scaling invariance ---------------------------------------------------


def _c10_scaling_formula():
    rp1, rp4 = reduce(0.0, 1.0), reduce(0.0, 16.0)
    e1 = spectrum(rp1, extension_for(rp1, nu=1.0), 5).energies
    e4 = spectrum(rp4, extension_for(rp4, nu=1.0), 5).energies
    worst = _worst(*(_rel(b, 4.0 * a) for a, b in zip(e1, e4)))
    return _row(
        "10-scaling-formula", worst, 1e-12,
        "spectrum at ups = 2 equals 4x the ups = 1 spectrum (equation path)",
    )


def _c10_cells():
    rp1, rp4 = reduce(0.0, 1.0), reduce(0.0, 16.0)
    return [(rp1, extension_for(rp1, nu=1.0), 3), (rp4, extension_for(rp4, nu=1.0), 3)]


def _c10_scaling_oracle(shot):
    e1, e4 = (shot(*cell).energies for cell in _c10_cells())
    worst = _worst(*(_rel(b, 4.0 * a) for a, b in zip(e1, e4)))
    return _row(
        "10-scaling-oracle", worst, 1e-13,
        "the same scaling law on the shooting side",
    )


# (function, the oracle cells it reads or None); a row with cells is
# called with `shot`, the table's (rp, ext, n) lookup
_CHECKS = (
    (_c1_friedrichs_ground, _c1_cells),
    (_c2_nu_zero_closed_form, None),
    (_c2_nu_zero_oracle, _c2_cells),
    (_c3_spectrum_equivalence, _c3_cells),
    (_c4_ladder_spacing, _c4_cells),
    (_c5_monotone_flow, None),
    (_c6_factorization_identity, None),
    (_c6_kernel_at_floor, None),
    (_c7_psi_dual_route, None),
    (_c7_psi_large_rho, None),
    (_c7_phi_large_rho, None),
    (_c8_oscillation, None),
    (_c9_wavefunction_fidelity, _c9_cells),
    (_c10_scaling_formula, None),
    (_c10_scaling_oracle, _c10_cells),
)


def run_acceptance() -> tuple[CheckRow, ...]:
    """Run the suite and report it in table order.  The rows that read no
    oracle run while the oracle table's children shoot their shares (module
    docstring)."""
    shot, plain = _oracle_table(
        (cell for _, cells in _CHECKS if cells for cell in cells()),
        lambda: {fn: fn() for fn, cells in _CHECKS if cells is None},
    )
    return tuple(plain[fn] if cells is None else fn(shot) for fn, cells in _CHECKS)


# --- the oracle table ---------------------------------------------------------


# the parent's share is this many levels lighter, since it also runs the
# rows that read no oracle (18-28 ms warm, about 10 levels' worth).  Cells
# cost 1.2-2.6 ms a level, so the split is lumpy: measured warm on 2 CPUs,
# 8 leaves the full table's two sides within 2 % of each other, where 16
# leaves them 12 % apart
_PARENT_LEVELS = 8


def _oracle_table(cells, meanwhile=lambda: None):
    """Shoot each (rp, ext) of the (rp, ext, n) cells once, at the largest n
    asked, in shares across forked children, and call meanwhile() while
    they work.  Returns (shot, what meanwhile returned), where shot(rp, ext,
    n) gives a cell's first n levels.  Every child is reaped before this
    returns or raises."""
    table = _table_cells(cells)
    shares = _split(table, max(1, min(_usable_cpus(), len(table))))
    spectra: dict[tuple, OracleSpectrum] = {}

    def keep(share, shots):
        spectra.update(((rp, ext), s) for (rp, ext, _), s in zip(share, shots))

    children = []
    try:
        for share in shares[1:]:
            children.append(_fork(share))
        keep(shares[0], _shoot(shares[0]))
        result = meanwhile()
        while children:
            pid, fd, share = children.pop(0)
            keep(share, _collect(pid, fd))
    finally:
        _reap(children)

    def shot(rp, ext, n):
        full = spectra[rp, ext]
        return replace(full, energies=full.energies[:n], match_states=full.match_states[:n],
                       mismatch_residuals=full.mismatch_residuals[:n])

    return shot, result


def _table_cells(cells) -> list[tuple]:
    """(rp, ext, n) once per (rp, ext), at the largest n asked, in first-asked order."""
    largest: dict[tuple, int] = {}
    for rp, ext, n in cells:
        largest[rp, ext] = max(n, largest.get((rp, ext), 0))
    return [(rp, ext, n) for (rp, ext), n in largest.items()]


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork, or where
    another thread runs (a forked child holds only the calling thread, so a
    lock another thread held would stay held in it)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split(cells, k: int) -> list[list[tuple]]:
    """k shares of the cells, balanced by level count, share 0 (the
    parent's) starting _PARENT_LEVELS levels heavy; a share keeps its cells
    in table order."""
    shares: list[list[tuple]] = [[] for _ in range(k)]
    loads = [_PARENT_LEVELS] + [0] * (k - 1)
    for cell in sorted(cells, key=lambda cell: -cell[2]):
        i = loads.index(min(loads))
        shares[i].append(cell)
        loads[i] += cell[2]
    order = {cell: i for i, cell in enumerate(cells)}
    return [sorted(share, key=order.__getitem__) for share in shares]


def _shoot(share) -> list[OracleSpectrum]:
    # through the module global, which the benchmark's tracer wraps
    return [shoot_spectrum(rp, ext, n) for rp, ext, n in share]


def _fork(share) -> tuple[int, int, list]:
    """Start a child that shoots share and writes its reply to a pipe:
    ("ok", the spectra's fields) or (error type name, message).
    Returns (pid, the pipe's read end, share)."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the child never returns
        code = 1
        try:
            os.close(r)
            try:
                reply = ("ok", [(s.energies, s.mismatch_residuals, s.match_states, s.x_match)
                                for s in _shoot(share)])
            except (DomainError, ConvergenceError) as e:
                reply = ("DomainError" if isinstance(e, DomainError) else "ConvergenceError", str(e))
            data = marshal.dumps(reply)
            while data:
                data = data[os.write(w, data):]
            code = 0
        except Exception as e:  # the parent reports the exit status
            os.write(2, f"oracle worker: {type(e).__name__}: {e}\n".encode())
        finally:
            os._exit(code)
    os.close(w)
    return pid, r, share


def _collect(pid: int, fd: int) -> list[OracleSpectrum]:
    """Read a child's reply to its end, reap the child (whatever happens),
    and return its spectra or raise its error."""
    chunks = []
    try:
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
        status = os.waitpid(pid, 0)[1]
    try:
        tag, payload = marshal.loads(b"".join(chunks))
    except (EOFError, ValueError, TypeError):
        raise ConvergenceError(
            f"oracle worker exited with status {os.waitstatus_to_exitcode(status)} and no result"
        ) from None
    if tag == "DomainError":
        raise DomainError(payload)
    if tag == "ConvergenceError":
        raise ConvergenceError(payload)
    return [OracleSpectrum(*fields) for fields in payload]


def _reap(children) -> None:
    """Stop and reap the children whose replies were not read."""
    if not children:
        return
    import signal  # only on this error path

    for pid, fd, _ in children:
        os.close(fd)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
