"""Generalized oscillator representations of -d^2/dx^2 + g1/x^2 + g2 x^2
on the half-line: factorizations, self-adjoint-extension spectra, and an
independent shooting-method cross-check."""

from .errors import ConvergenceError, DomainError
from .factorization import (
    RepresentationParams,
    apply_a,
    apply_b,
    factorization_residual,
    make_phi,
)
from .nonexistence import ZeroCountReport, count_zeros
from .oracle import (
    OracleSpectrum,
    sample_on_grid,
    shoot_spectrum,
)
from .params import (Couplings, Extension, ExtensionLabel, RegionClass, ReducedParams, classify,
                     reduce)
from .spectral import (
    SpectrumResult,
    extension_for,
    ground_state_energy,
    ground_state_wavefunction,
    solve_w,
    spectrum,
    theta_of,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConvergenceError",
    "DomainError",
    "Couplings",
    "RegionClass",
    "ReducedParams",
    "classify",
    "reduce",
    "RepresentationParams",
    "make_phi",
    "apply_a",
    "apply_b",
    "factorization_residual",
    "Extension",
    "ExtensionLabel",
    "extension_for",
    "theta_of",
    "solve_w",
    "SpectrumResult",
    "spectrum",
    "ground_state_energy",
    "ground_state_wavefunction",
    "OracleSpectrum",
    "shoot_spectrum",
    "sample_on_grid",
    "ZeroCountReport",
    "count_zeros",
]
