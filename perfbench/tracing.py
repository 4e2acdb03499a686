"""Tracing from outside the package: wrappers installed on the names each
consuming module looks up, removed again afterwards.

Two kinds of wrapper:

* span wrappers, for layer entry points that take milliseconds: one record
  per call with op id, parent span, start and end, kept in memory and
  written out at exit;
* aggregate wrappers, for the sub-microsecond to microsecond primitives
  (log-Gamma, digamma, Psi, quadrature, RK45): a call count and total time,
  never a per-call record.

Both re-raise whatever the wrapped call raises, unchanged.  Self time of a
span is its duration minus its child spans and the outermost aggregate calls
made directly under it.  Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

_ns = time.perf_counter_ns

# (module, attribute, span name): entry points of a layer
SPANS = (
    ("calogero.cli", "spectrum", "spectral.spectrum"),
    ("calogero.cli", "shoot_spectrum", "oracle.shoot_spectrum"),
    ("calogero.cli", "run_acceptance", "acceptance.run_acceptance"),
    ("calogero.cli", "factorization_residual", "factorization.factorization_residual"),
    ("calogero.cli", "count_zeros", "nonexistence.count_zeros"),
    ("calogero.acceptance", "spectrum", "spectral.spectrum"),
    ("calogero.acceptance", "shoot_spectrum", "oracle.shoot_spectrum"),
    ("calogero.acceptance", "ground_state_wavefunction", "spectral.ground_state_wavefunction"),
    ("calogero.acceptance", "factorization_residual", "factorization.factorization_residual"),
    ("calogero.acceptance", "count_zeros", "nonexistence.count_zeros"),
    ("calogero.spectral", "spectrum", "spectral.spectrum"),
    ("calogero.spectral", "ground_state_wavefunction", "spectral.ground_state_wavefunction"),
)

# (module, attribute, aggregate name): primitives, counted where they are
# looked up; the specfun entries are the Psi router's own lookups
AGGREGATES = (
    ("calogero.spectral", "gammaln_signed", "specfun.gammaln_signed"),
    ("calogero.spectral", "gammaln_shift", "specfun.gammaln_shift"),
    ("calogero.spectral", "digamma", "specfun.digamma"),
    ("calogero.spectral", "tricomi_psi", "specfun.tricomi_psi"),
    ("calogero.spectral", "exp_halfline_quad", "specfun.exp_halfline_quad"),
    ("calogero.spectral", "make_phi", "factorization.make_phi"),
    ("calogero.factorization", "kummer_phi", "specfun.kummer_phi"),
    ("calogero.factorization", "tricomi_psi", "specfun.tricomi_psi"),
    ("calogero.acceptance", "kummer_phi", "specfun.kummer_phi"),
    ("calogero.acceptance", "make_phi", "factorization.make_phi"),
    ("calogero.cli", "make_phi", "factorization.make_phi"),
    ("calogero.specfun", "tricomi_psi_series", "specfun.tricomi_psi_series"),
    ("calogero.specfun", "tricomi_psi_integral", "specfun.tricomi_psi_integral"),
    ("calogero.specfun", "exp_halfline_quad", "specfun.exp_halfline_quad"),
    ("calogero.specfun", "_psi_two_series_mp", "specfun.mpmath_escalation"),
    ("calogero.oracle", "integrate", "oracle.integrate"),
    ("calogero.nonexistence", "integrate", "nonexistence.integrate"),
)

# aggregates counted as boundary-equation work when called inside a spectrum span
_SPECTRAL_SPECFUN = {"specfun.gammaln_signed", "specfun.gammaln_shift", "specfun.digamma"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [op, id, parent, name, start, end, agg_ns, levels]
        self.stack: list[list] = []
        self.agg: dict[str, list[int]] = {}  # name -> [calls, ns, steps, rejected, nodes]
        self.agg_depth = 0
        self.spectrum_depth = 0
        self.specfun_in_spectrum = 0
        self.op_id = -1
        self._saved: list[tuple] = []
        self.missing: list[str] = []  # "module.attribute" of every hook that found nothing to wrap

    # -- spans --------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._open("op", None)

    def end_op(self) -> None:
        self._close(self.stack[-1])

    def _open(self, name, levels):
        parent = self.stack[-1][1] if self.stack else None
        span = [self.op_id, len(self.spans), parent, name, _ns(), 0, 0, levels]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span[5] = _ns()
        self.stack.pop()

    def _span_wrapper(self, fn, name):
        tracer = self
        is_spectrum = name == "spectral.spectrum"
        is_levels = is_spectrum or name == "oracle.shoot_spectrum"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            levels = (args[2] if len(args) > 2 else kwargs.get("n_max")) if is_levels else None
            span = tracer._open(name, levels)
            tracer.spectrum_depth += is_spectrum
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.spectrum_depth -= is_spectrum
                tracer._close(span)

        return wrapper

    # -- aggregates ---------------------------------------------------------

    def _agg_wrapper(self, fn, name):
        tracer = self
        slot = self.agg.setdefault(name, [0, 0, 0, 0, 0])
        spectral = name in _SPECTRAL_SPECFUN
        integrator = name.endswith(".integrate")
        quadrature = name == "specfun.exp_halfline_quad"

        def count_nodes(g):
            def node(t):
                slot[4] += 1
                return g(t)
            return node

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if quadrature:
                args = (count_nodes(args[0]),) + args[1:]
            outer = tracer.agg_depth == 0
            tracer.agg_depth += 1
            t0 = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _ns() - t0
                tracer.agg_depth -= 1
                slot[0] += 1
                slot[1] += dt
                if spectral and tracer.spectrum_depth:
                    tracer.specfun_in_spectrum += 1
                if outer and tracer.stack:
                    tracer.stack[-1][6] += dt
            if integrator:
                slot[2] += result.n_steps
                slot[3] += result.n_rejected
            return result

        return wrapper

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        for table, make in ((SPANS, self._span_wrapper), (AGGREGATES, self._agg_wrapper)):
            for mod_name, attr, name in table:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:  # a later version may not have this entry point: reported, never read as 0
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, make(fn, name))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def self_times_ns(self) -> dict[int, int]:
        """span id -> duration minus direct child spans and outermost
        aggregate calls made directly inside it."""
        child = {}
        for s in self.spans:
            if s[2] is not None:
                child[s[2]] = child.get(s[2], 0) + (s[5] - s[4])
        return {s[1]: (s[5] - s[4]) - child.get(s[1], 0) - s[6] for s in self.spans}

    def write(self, path: str) -> None:
        keys = ("op", "id", "parent", "name", "start_ns", "end_ns", "agg_child_ns", "levels")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "aggregates": {k: dict(zip(("calls", "ns", "rk45_steps", "rk45_rejected", "nodes"), v))
                                      for k, v in self.agg.items()}}, fh)


# per-layer metric -> the span and aggregate names it is computed from
SOURCES = {
    "spectral.spectrum.us_per_level": ("spectral.spectrum",),
    "spectral.specfun_calls_per_level": ("spectral.spectrum", *sorted(_SPECTRAL_SPECFUN)),
    "spectral.ground_state_wavefunction.ms": ("spectral.ground_state_wavefunction",),
    "specfun.gammaln_signed.calls": ("specfun.gammaln_signed",),
    "specfun.gammaln_signed.us": ("specfun.gammaln_signed",),
    "specfun.gammaln_shift.calls": ("specfun.gammaln_shift",),
    "specfun.digamma.calls": ("specfun.digamma",),
    "specfun.digamma.us": ("specfun.digamma",),
    "specfun.kummer_phi.calls": ("specfun.kummer_phi",),
    "specfun.kummer_phi.us": ("specfun.kummer_phi",),
    "specfun.tricomi_psi.calls": ("specfun.tricomi_psi",),
    "specfun.tricomi_psi.integral_share": ("specfun.tricomi_psi_series", "specfun.tricomi_psi_integral"),
    "specfun.tricomi_psi_series.us": ("specfun.tricomi_psi_series",),
    "specfun.tricomi_psi_integral.us": ("specfun.tricomi_psi_integral",),
    "specfun.mpmath_escalations": ("specfun.mpmath_escalation",),
    "specfun.exp_halfline_quad.calls": ("specfun.exp_halfline_quad",),
    "specfun.exp_halfline_quad.nodes_per_call": ("specfun.exp_halfline_quad",),
    "specfun.exp_halfline_quad.ms": ("specfun.exp_halfline_quad",),
    "oracle.shoot_spectrum.ms_per_level": ("oracle.shoot_spectrum",),
    "oracle.integrations_per_level": ("oracle.shoot_spectrum", "oracle.integrate"),
    "rk45.steps_per_level": ("oracle.shoot_spectrum", "oracle.integrate"),
    "rk45.rejected_ratio": ("oracle.integrate", "nonexistence.integrate"),
    "rk45.us_per_step": ("oracle.integrate", "nonexistence.integrate"),
    "factorization.make_phi.calls": ("factorization.make_phi",),
    "factorization.factorization_residual.us": ("factorization.factorization_residual",),
    "nonexistence.count_zeros.ms": ("nonexistence.count_zeros",),
    "nonexistence.rk45_steps": ("nonexistence.integrate",),
    "acceptance.oracle_share": ("oracle.shoot_spectrum",),
}


def unmeasured(tracer: Tracer) -> list[str]:
    """Per-layer metrics computed from a span or aggregate that no hook
    installed: they read 0 because nothing was measured, not because the
    layer did no work."""
    installed = {name for table in (SPANS, AGGREGATES) for mod, attr, name in table
                 if f"{mod}.{attr}" not in tracer.missing}
    return [m for m, names in SOURCES.items() if not set(names) <= installed]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, records, cache_info) -> dict:
    """Per-layer figures of one traced pass: {name: (value, unit)}.
    Counts are per operation of the pass; a layer the workload never
    enters reads 0."""
    n_ops = len(records)
    agg = tracer.agg
    zero = [0, 0, 0, 0, 0]

    def calls(name):
        return agg.get(name, zero)[0]

    def us_per_call(name):
        c = agg.get(name, zero)
        return _ratio(c[1] / 1e3, c[0])

    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s[3], []).append(s)

    def total_ns(name, keep=lambda s: True):
        return sum(s[5] - s[4] for s in by_name.get(name, ()) if keep(s))

    def levels(name):
        return sum(s[7] or 0 for s in by_name.get(name, ()))

    def mean_ns(name):
        return _ratio(total_ns(name), len(by_name.get(name, ())))

    selfs = tracer.self_times_ns()
    cli_ops = [s for s in by_name.get("op", ()) if records[s[0]].op.kind == "cli"]
    verify_ops = {s[0] for s in cli_ops if records[s[0]].op.meta.get("cmd") == "verify"}
    rows_failed = 0
    for i in verify_ops:
        if records[i].stdout:
            rows_failed += sum(not r["passed"] for r in json.loads(records[i].stdout)["results"]["rows"])
    in_verify = lambda s: s[0] in verify_ops  # noqa: E731
    oracle = agg.get("oracle.integrate", zero)
    nonex = agg.get("nonexistence.integrate", zero)
    attempted_steps = oracle[2] + oracle[3] + nonex[2] + nonex[3]
    series, integral = calls("specfun.tricomi_psi_series"), calls("specfun.tricomi_psi_integral")
    quad = agg.get("specfun.exp_halfline_quad", zero)
    shoot_levels = levels("oracle.shoot_spectrum")
    return {
        "cli.self_ms_per_op": (_ratio(sum(selfs[s[1]] for s in cli_ops) / 1e6, len(cli_ops)), "ms"),
        "spectral.spectrum.us_per_level": (_ratio(total_ns("spectral.spectrum") / 1e3, levels("spectral.spectrum")), "us"),
        "spectral.specfun_calls_per_level": (_ratio(tracer.specfun_in_spectrum, levels("spectral.spectrum")), "1/level"),
        "spectral.ground_state_wavefunction.ms": (mean_ns("spectral.ground_state_wavefunction") / 1e6, "ms"),
        "spectral.norm_cache.hits": (_ratio(cache_info.hits if cache_info else 0, n_ops), "1/op"),
        "spectral.norm_cache.misses": (_ratio(cache_info.misses if cache_info else 0, n_ops), "1/op"),
        "specfun.gammaln_signed.calls": (_ratio(calls("specfun.gammaln_signed"), n_ops), "1/op"),
        "specfun.gammaln_signed.us": (us_per_call("specfun.gammaln_signed"), "us"),
        "specfun.gammaln_shift.calls": (_ratio(calls("specfun.gammaln_shift"), n_ops), "1/op"),
        "specfun.digamma.calls": (_ratio(calls("specfun.digamma"), n_ops), "1/op"),
        "specfun.digamma.us": (us_per_call("specfun.digamma"), "us"),
        "specfun.kummer_phi.calls": (_ratio(calls("specfun.kummer_phi"), n_ops), "1/op"),
        "specfun.kummer_phi.us": (us_per_call("specfun.kummer_phi"), "us"),
        "specfun.tricomi_psi.calls": (_ratio(calls("specfun.tricomi_psi"), n_ops), "1/op"),
        "specfun.tricomi_psi.integral_share": (_ratio(integral, series + integral), "fraction"),
        "specfun.tricomi_psi_series.us": (us_per_call("specfun.tricomi_psi_series"), "us"),
        "specfun.tricomi_psi_integral.us": (us_per_call("specfun.tricomi_psi_integral"), "us"),
        "specfun.mpmath_escalations": (_ratio(calls("specfun.mpmath_escalation"), n_ops), "1/op"),
        "specfun.exp_halfline_quad.calls": (_ratio(quad[0], n_ops), "1/op"),
        "specfun.exp_halfline_quad.nodes_per_call": (_ratio(quad[4], quad[0]), "1/call"),
        "specfun.exp_halfline_quad.ms": (_ratio(quad[1] / 1e6, quad[0]), "ms"),
        "oracle.shoot_spectrum.ms_per_level": (_ratio(total_ns("oracle.shoot_spectrum") / 1e6, shoot_levels), "ms"),
        "oracle.integrations_per_level": (_ratio(oracle[0], shoot_levels), "1/level"),
        "rk45.steps_per_level": (_ratio(oracle[2], shoot_levels), "1/level"),
        "rk45.rejected_ratio": (_ratio(oracle[3] + nonex[3], attempted_steps), "fraction"),
        "rk45.us_per_step": (_ratio((oracle[1] + nonex[1]) / 1e3, attempted_steps), "us"),
        "factorization.make_phi.calls": (_ratio(calls("factorization.make_phi"), n_ops), "1/op"),
        "factorization.factorization_residual.us": (mean_ns("factorization.factorization_residual") / 1e3, "us"),
        "nonexistence.count_zeros.ms": (mean_ns("nonexistence.count_zeros") / 1e6, "ms"),
        "nonexistence.rk45_steps": (_ratio(nonex[2], n_ops), "1/op"),
        "acceptance.oracle_share": (_ratio(total_ns("oracle.shoot_spectrum", in_verify),
                                           total_ns("op", in_verify)), "fraction"),
        "acceptance.rows_failed": (_ratio(rows_failed, len(verify_ops)), "1/op"),
    }
