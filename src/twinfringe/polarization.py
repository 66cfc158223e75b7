"""Jones-calculus primitives for the two-crystal source.

Angle convention used everywhere in this package: linear polarization angles
are measured from the vertical axis, so V = 0 and H = pi/2, and the Jones
basis order is (V, H).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError

_NORM_TOL = 1e-12
_CROSSED = 1e-15  # |cos| at or below: crossed polarizers (cos(pi/2) rounds to ~6e-17)


@dataclass(frozen=True)
class PolarizationAngle:
    """Linear polarization direction, stored modulo pi.

    Linear polarization is unoriented, so the angle is normalized into
    [0, pi).  All observables downstream are squared magnitudes, which makes
    the residual sign ambiguity of the Jones vector irrelevant.
    """

    radians: float

    def __post_init__(self):
        r = float(self.radians)
        if not math.isfinite(r):
            raise ConfigurationError(f"polarization angle must be finite, got {r!r}")
        r %= math.pi
        # a small negative angle r rounds r % pi up to pi, which is 0.0 modulo pi
        object.__setattr__(self, "radians", 0.0 if r == math.pi else r)

    def orthogonal(self) -> "PolarizationAngle":
        return PolarizationAngle(self.radians + math.pi / 2.0)


VERTICAL = PolarizationAngle(0.0)
HORIZONTAL = PolarizationAngle(math.pi / 2.0)
DIAGONAL = PolarizationAngle(math.pi / 4.0)


@dataclass(frozen=True)
class JonesVector:
    """Complex amplitudes on the (V, H) basis."""

    v_component: complex
    h_component: complex

    def project_onto(self, direction: PolarizationAngle) -> complex:
        """Amplitude along a real linear-polarization direction."""
        return (math.cos(direction.radians) * self.v_component
                + math.sin(direction.radians) * self.h_component)


@dataclass(frozen=True)
class PumpState:
    """Pump polarization ellipse: in-phase and quadrature amplitudes.

    eps1 is the amplitude of the linear (in-phase) component, eps2 the
    amplitude of the circular (quadrature) component, and theta_p the
    orientation of the major axis measured from vertical.  eps2 = 0 is a
    perfectly linear pump.
    """

    eps1: float
    eps2: float
    theta_p: PolarizationAngle = field(default=VERTICAL)

    def __post_init__(self):
        if not (0.0 <= self.eps1 <= 1.0 and 0.0 <= self.eps2 <= 1.0):
            raise ConfigurationError(
                f"pump amplitudes must lie in [0, 1], got ({self.eps1}, {self.eps2})")
        if abs(self.eps1 ** 2 + self.eps2 ** 2 - 1.0) > _NORM_TOL:
            raise ConfigurationError(
                f"pump amplitudes must satisfy eps1^2 + eps2^2 = 1, got "
                f"{self.eps1 ** 2 + self.eps2 ** 2!r}")

    @classmethod
    def linear(cls, theta_p: PolarizationAngle) -> "PumpState":
        return cls(1.0, 0.0, theta_p)

    @classmethod
    def from_eps2(cls, eps2: float, theta_p: PolarizationAngle) -> "PumpState":
        """Build from the quadrature amplitude alone; eps1 completes the norm."""
        if not 0.0 <= eps2 <= 1.0:
            raise ConfigurationError(f"eps2 must lie in [0, 1], got {eps2}")
        return cls(math.sqrt(1.0 - eps2 * eps2), eps2, theta_p)


def pump_jones(pump: PumpState) -> JonesVector:
    """Jones vector of the elliptical pump.

    Components on (V, H) are (eps1 cos(theta) - i eps2 sin(theta),
    eps1 sin(theta) + i eps2 cos(theta)); unit norm by construction.
    """
    c = math.cos(pump.theta_p.radians)
    s = math.sin(pump.theta_p.radians)
    return JonesVector(pump.eps1 * c - 1j * pump.eps2 * s,
                       pump.eps1 * s + 1j * pump.eps2 * c)


def malus_amplitude(state_pol: PolarizationAngle, analyzer: PolarizationAngle) -> float:
    """Field transmission of a linear state through a linear analyzer.

    Returns cos(analyzer - state_pol), exactly 0.0 for crossed polarizers;
    intensities follow as the square.
    """
    c = math.cos(analyzer.radians - state_pol.radians)
    return 0.0 if abs(c) <= _CROSSED else c
