"""Generalized oscillator representations of -d^2/dx^2 + g1/x^2 + g2 x^2
on the half-line: factorizations, self-adjoint-extension spectra, and an
independent shooting-method cross-check.

`import calogero` loads this file alone.  Each public name below, and each
submodule (`calogero.oracle`, ...), is imported on first access (PEP 562),
so a caller pays only for the modules it uses."""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    "ConvergenceError": "errors",
    "DomainError": "errors",
    "RegionClass": "params",
    "ReducedParams": "params",
    "classify": "params",
    "reduce": "params",
    "RepresentationParams": "factorization",
    "make_phi": "factorization",
    "apply_a": "factorization",
    "factorization_residual": "factorization",
    "Extension": "params",
    "ExtensionLabel": "params",
    "extension_for": "spectral",
    "theta_of": "spectral",
    "solve_w": "spectral",
    "SpectrumResult": "spectral",
    "spectrum": "spectral",
    "ground_state_energy": "spectral",
    "ground_state_wavefunction": "spectral",
    "OracleSpectrum": "oracle",
    "shoot_spectrum": "oracle",
    "sample_on_grid": "oracle",
    "ZeroCountReport": "nonexistence",
    "count_zeros": "nonexistence",
}

_SUBMODULES = frozenset({
    "acceptance", "cli", "errors", "factorization", "nonexistence", "oracle",
    "params", "specfun", "spectral", "taylor",
})

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
