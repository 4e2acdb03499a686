"""Coupling-space bookkeeping for -d^2/dx^2 + g1/x^2 + g2 x^2 on (0, inf).

The whole two-parameter family collapses onto a handful of reduced
quantities:

    kappa   = sqrt(g1 + 1/4)      strength of the centrifugal core
    upsilon = g2^(1/4)            oscillator length scale (energies ~ upsilon^2)
    w0      = -(1 + kappa)/2      floor of the shift parameter w
    u0      = 4 sqrt(g2) w0       most negative admissible additive shift

and every solution is built from confluent hypergeometric functions of
rho = (upsilon x)^2 with parameters

    alpha = (1 + kappa)/2 + w,    beta = 1 + kappa.

Outside g1 >= -1/4, g2 > 0 no factorized (oscillator) representation
exists at all; the classifier names what goes wrong instead of returning
numbers: g1 < -1/4 means fall to the center, g2 < 0 fall to infinity,
g2 = 0 leaves the pure inverse-square problem with no confining trap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["ReducedParams", "RegionClass", "ExtensionLabel", "Extension", "reduce", "classify"]


class RegionClass(enum.Enum):
    NoRepresentation_FallToCenter = "no-representation: fall to center (g1 < -1/4)"
    NoRepresentation_FallToInfinity = "no-representation: fall to infinity (g2 < 0)"
    CalogeroOnly = "pure inverse-square problem (g2 = 0), out of scope here"
    UniqueExtension = "kappa >= 1: essentially self-adjoint, one Hamiltonian"
    FamilyKappaPositive = "0 < kappa < 1: one-parameter extension family"
    FamilyKappaZero = "kappa = 0: one-parameter extension family, logarithmic case"


@dataclass(frozen=True)
class ReducedParams:
    """Derived parameter pack; construct through `reduce`."""

    g1: float
    g2: float
    kappa: float
    upsilon: float
    w0: float
    u0: float

    @property
    def beta(self) -> float:
        return 1.0 + self.kappa

    def alpha_of(self, w: float) -> float:
        return 0.5 * (1.0 + self.kappa) + w

    def energy_scale(self) -> float:
        # spectra are naturally measured in units of upsilon^2 = sqrt(g2)
        return self.upsilon**2


class ExtensionLabel(enum.Enum):
    FRIEDRICHS = "friedrichs"
    UNIQUE = "unique"
    NU = "nu"


@dataclass(frozen=True)
class Extension:
    # built against a coupling region by `spectral.extension_for`
    label: ExtensionLabel
    nu: float | None = None

    @property
    def is_ladder(self) -> bool:
        return self.label is not ExtensionLabel.NU


def reduce(g1: float, g2: float) -> ReducedParams:
    """Map (g1, g2) to the reduced pack; the admissible cone only.

    Raises DomainError outside g1 >= -1/4, g2 > 0 (see `classify` for the
    taxonomy of what fails where).
    """
    if not (math.isfinite(g1) and math.isfinite(g2)):
        raise DomainError(f"reduce: couplings must be finite, got g1={g1!r}, g2={g2!r}")
    if g1 < -0.25:
        raise DomainError(f"reduce: g1={g1} < -1/4, no oscillator representation (fall to center)")
    if g2 <= 0.0:
        raise DomainError(f"reduce: g2={g2} <= 0, no oscillator representation (no confining trap)")
    kappa = math.sqrt(g1 + 0.25)
    upsilon = g2**0.25
    w0 = -0.5 * (1.0 + kappa)
    u0 = 4.0 * math.sqrt(g2) * w0
    return ReducedParams(g1=g1, g2=g2, kappa=kappa, upsilon=upsilon, w0=w0, u0=u0)


def classify(g1: float, g2: float) -> RegionClass:
    """Name the (g1, g2) region.  Fall-to-center wins when both pathologies hold."""
    if not (math.isfinite(g1) and math.isfinite(g2)):
        raise DomainError(f"classify: couplings must be finite, got g1={g1!r}, g2={g2!r}")
    if g1 < -0.25:
        return RegionClass.NoRepresentation_FallToCenter
    if g2 < 0.0:
        return RegionClass.NoRepresentation_FallToInfinity
    if g2 == 0.0:
        return RegionClass.CalogeroOnly
    kappa2 = g1 + 0.25
    if kappa2 >= 1.0:
        return RegionClass.UniqueExtension
    if kappa2 == 0.0:
        return RegionClass.FamilyKappaZero
    return RegionClass.FamilyKappaPositive
