"""Two-photon state of the two-crystal source and its coincidence fringes.

Each crystal converts one linear component of the pump into photon pairs of a
fixed polarization: both photons of a pair from crystal j carry its pair
polarization chi_j, so crystal j contributes a_j |chi_j> (x) |chi_j>, with
complex amplitudes a_j set by the pump projection onto each crystal's
conversion axis.  The two origin terms interfere through the two-photon
overlap <chi1|chi2>^2 = cos^2(chi2 - chi1); they form a single qubit
spanned by the two origin labels only when the pairs are parallel or
orthogonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .polarization import (_NORM_TOL, HORIZONTAL, VERTICAL, PolarizationAngle,
                           PumpState, malus_amplitude, pump_jones)

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class CrystalConfig:
    """One conversion crystal: which pump component it uses, what it emits.

    pair_polarization is the common polarization of both photons of a pair
    from this crystal; pump_axis is the pump component it down-converts.
    """

    pair_polarization: PolarizationAngle
    pump_axis: PolarizationAngle
    label: str = "crystal1"

    def __post_init__(self):
        if self.label not in ("crystal1", "crystal2"):
            raise ConfigurationError(f"crystal label must be crystal1 or crystal2, got {self.label!r}")


@dataclass(frozen=True)
class SourceConfig:
    """The crystal pair plus the constant interferometric phase offset.

    All static path-length and pump-propagation phases are folded into phi0.
    """

    crystal1: CrystalConfig
    crystal2: CrystalConfig
    phi0: float = 0.0

    def __post_init__(self):
        gap = self.crystal1.pump_axis.radians - self.crystal2.pump_axis.radians
        if abs(math.cos(gap)) > _ORTHO_TOL:
            raise ConfigurationError(
                "crystal pump axes must be orthogonal so the pump amplitude "
                f"partitions between them; |cos(delta)| = {abs(math.cos(gap)):.3e}")
        if not math.isfinite(self.phi0):
            raise ConfigurationError("phi0 must be finite")


def default_source(pair1: PolarizationAngle = VERTICAL,
                   pair2: PolarizationAngle = HORIZONTAL,
                   phi0: float = 0.0) -> SourceConfig:
    """Standard layout: crystal 1 converts the V pump component, crystal 2 the H."""
    return SourceConfig(
        crystal1=CrystalConfig(pair1, VERTICAL, "crystal1"),
        crystal2=CrystalConfig(pair2, HORIZONTAL, "crystal2"),
        phi0=phi0,
    )


@dataclass(frozen=True)
class TwoPhotonState:
    """Pair-creation amplitudes for the two origins, with their polarizations."""

    a1: complex
    a2: complex
    chi1: PolarizationAngle
    chi2: PolarizationAngle

    def __post_init__(self):
        n = abs(self.a1) ** 2 + abs(self.a2) ** 2
        if not abs(n - 1.0) <= _NORM_TOL:  # NaN amplitudes fail too
            raise ConfigurationError(f"|a1|^2 + |a2|^2 must be 1, got {n!r}")


@dataclass(frozen=True)
class GeometryConfig:
    """The fringe's geometry: its period in meters, the transverse detector
    displacement that advances the fringe phase by 2 pi.

    The period is an instrument calibration, the one geometric input
    fringe_phase reads.  The 5 mm default is ten default slit widths.
    """

    fringe_period: float = 5e-3

    def __post_init__(self):
        if not self.fringe_period > 0.0:
            raise ConfigurationError("fringe_period must be strictly positive")
        if self.fringe_period == math.inf:
            raise ConfigurationError("fringe_period must be finite")


def build_two_photon_state(pump: PumpState, source: SourceConfig) -> TwoPhotonState:
    """Project the pump onto each crystal's conversion axis.

    With axes V/H this gives amplitudes (eps1 cos(theta) - i eps2 sin(theta),
    eps1 sin(theta) + i eps2 cos(theta)), i.e. the pump Jones components ride
    through onto the origin qubit unchanged.
    """
    jones = pump_jones(pump)
    a1 = jones.project_onto(source.crystal1.pump_axis)
    a2 = jones.project_onto(source.crystal2.pump_axis)
    n = math.sqrt(abs(a1) ** 2 + abs(a2) ** 2)
    return TwoPhotonState(a1 / n, a2 / n,
                          source.crystal1.pair_polarization,
                          source.crystal2.pair_polarization)


def fringe_phase(x_signal: float, x_idler: float, geometry: GeometryConfig,
                 phi0: float = 0.0):
    """Phase for small transverse detector displacements.

    2*pi*(x_signal + x_idler)/fringe_period + phi0, so moving both detectors
    together doubles the spatial frequency of the pattern.
    """
    return 2.0 * math.pi * (np.asarray(x_signal) + np.asarray(x_idler)) / geometry.fringe_period + phi0


def _projected_amplitudes(state: TwoPhotonState,
                          analyzer_signal: Optional[PolarizationAngle],
                          analyzer_idler: Optional[PolarizationAngle]):
    """Per-origin coincidence amplitudes and the cross-term overlap factor.

    With both analyzers present the pairs from either crystal end up in the
    same projected polarization state, so the two-path overlap is 1.  Without
    analyzers the two-photon pair states overlap as <chi1|chi2>^2 =
    cos^2(chi2 - chi1), a function of the angles modulo pi.
    """
    if (analyzer_signal is None) != (analyzer_idler is None):
        raise ConfigurationError(
            "analyzers must be present in both arms or absent in both")
    if analyzer_signal is None:
        return state.a1, state.a2, math.cos(state.chi2.radians - state.chi1.radians) ** 2
    m1 = malus_amplitude(state.chi1, analyzer_signal) * malus_amplitude(state.chi1, analyzer_idler)
    m2 = malus_amplitude(state.chi2, analyzer_signal) * malus_amplitude(state.chi2, analyzer_idler)
    return state.a1 * m1, state.a2 * m2, 1.0


def _curve_coefficients(state: TwoPhotonState, analyzer_signal, analyzer_idler):
    """Mean, complex cross term and modulation depth |cross| of the coincidence
    curve c(phi) = mean + Re(cross) cos(phi) - Im(cross) sin(phi)."""
    b1, b2, overlap = _projected_amplitudes(state, analyzer_signal, analyzer_idler)
    return (0.5 * (abs(b1) ** 2 + abs(b2) ** 2), overlap * (b1.conjugate() * b2),
            overlap * abs(b1) * abs(b2))


def coincidence_probability(state: TwoPhotonState, phase,
                            analyzer_signal: Optional[PolarizationAngle] = None,
                            analyzer_idler: Optional[PolarizationAngle] = None):
    """Coincidence probability at the given interferometric phase(s).

    Computes half the squared two-path amplitude |b1 + e^{i phi} b2|^2 / 2
    with b_j the per-origin amplitude after any analyzer projection; the
    factor 1/2 keeps the value within [0, 1] for every normalized state.
    Accepts a scalar phase or an array and returns a matching shape.
    """
    mean, cross, _ = _curve_coefficients(state, analyzer_signal, analyzer_idler)
    if np.ndim(phase) == 0:
        phi = float(phase)
        return mean + cross.real * math.cos(phi) - cross.imag * math.sin(phi)
    phases = np.asarray(phase, dtype=np.float64)
    return mean + cross.real * np.cos(phases) - cross.imag * np.sin(phases)


def predicted_visibility(state: TwoPhotonState) -> float:
    """Fringe visibility with bare (analyzer-free) detectors.

    2|a1||a2| cos^2(chi2 - chi1), clamped at 1, which 2|a1||a2| can round
    above when |a1| = |a2|.
    """
    return min(2.0 * abs(state.a1) * abs(state.a2)
               * math.cos(state.chi2.radians - state.chi1.radians) ** 2, 1.0)


def predicted_visibility_with_analyzers(state: TwoPhotonState,
                                        analyzer_signal: PolarizationAngle,
                                        analyzer_idler: PolarizationAngle) -> float:
    """Fringe visibility behind a pair of linear analyzers.

    2|b1||b2| / (|b1|^2 + |b2|^2) for the projected amplitudes, clamped at 1
    (it can round above when |b1| = |b2|); defined as 0 when both
    projections vanish.
    """
    if analyzer_signal is None or analyzer_idler is None:
        raise ConfigurationError("both analyzers are required")
    b1, b2, _ = _projected_amplitudes(state, analyzer_signal, analyzer_idler)
    denom = abs(b1) ** 2 + abs(b2) ** 2
    if denom == 0.0:
        return 0.0
    return min(2.0 * abs(b1) * abs(b2) / denom, 1.0)
