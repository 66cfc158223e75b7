"""Visibility definitions, the brute-force fringe oracle, and the
entanglement bridge.

The oracle deliberately avoids the closed-form visibility algebra: it scans
the coincidence curve numerically and reads contrast off the extrema, so it
can arbitrate every closed-form visibility law in the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import NotTwoQubitStateError, UndefinedVisibilityError
from .polarization import PolarizationAngle
from .spdc import TwoPhotonState, coincidence_probability, _projected_amplitudes

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class VisibilityReport:
    """Fringe contrast together with the extrema it came from."""

    mu: float
    c_max: float
    c_min: float
    method: str = "extrema"


def visibility_from_extrema(c_max: float, c_min: float) -> float:
    """Contrast (c_max - c_min) / (c_max + c_min) of a fringe."""
    if not c_max >= c_min >= 0.0:
        raise UndefinedVisibilityError(
            f"need c_max >= c_min >= 0, got ({c_max}, {c_min})")
    if c_max + c_min == 0.0:
        raise UndefinedVisibilityError("visibility of an all-zero curve is undefined")
    return (c_max - c_min) / (c_max + c_min)


def _golden_section(f, lo: float, hi: float, minimize: bool, iters: int = 48) -> float:
    """Extremum of a unimodal f on [lo, hi] by golden-section search."""
    sign = 1.0 if minimize else -1.0
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = sign * f(c)
    fd = sign * f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = sign * f(d)
    return 0.5 * (a + b)


@functools.lru_cache(maxsize=4)
def _phase_table(n_grid: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only cos and sin of the uniform phase grid k * 2pi/n_grid."""
    phases = np.arange(n_grid) * (2.0 * np.pi / n_grid)
    cos_t, sin_t = np.cos(phases), np.sin(phases)
    cos_t.flags.writeable = False
    sin_t.flags.writeable = False
    return cos_t, sin_t


def _grid_extrema(pair_sum: float, cross_re: float, cross_im: float,
                  n_grid: int) -> Tuple[float, float, float, float]:
    """Scan 0.5*pair_sum + cross_re*cos(phi) - cross_im*sin(phi) on the
    uniform grid over [0, 2pi).

    Returns (phi_at_max, c_max, phi_at_min, c_min) at the first grid point
    attaining each extremum.
    """
    cos_t, sin_t = _phase_table(n_grid)
    c = cross_re * cos_t
    c += 0.5 * pair_sum
    c -= cross_im * sin_t
    i_max = int(np.argmax(c))
    i_min = int(np.argmin(c))
    step = 2.0 * np.pi / n_grid
    return i_max * step, float(c[i_max]), i_min * step, float(c[i_min])


def phi_scan_oracle(state: TwoPhotonState,
                    analyzers: Optional[Tuple[PolarizationAngle, PolarizationAngle]] = None,
                    n_grid: int = 100_000) -> VisibilityReport:
    """Brute-force fringe visibility from a phase scan of the coincidence curve.

    Evaluates the coincidence probability on a uniform grid over [0, 2pi),
    refines both extrema with a local golden-section search, and reports the
    contrast.  Never touches the closed-form visibility expressions.
    """
    if n_grid < 1000:
        raise ValueError("n_grid must be at least 1000")
    ana_s, ana_i = analyzers if analyzers is not None else (None, None)
    b1, b2, overlap = _projected_amplitudes(state, ana_s, ana_i)
    pair_sum = abs(b1) ** 2 + abs(b2) ** 2
    cross = overlap * (b1.conjugate() * b2)
    phi_hi, c_hi, phi_lo, c_lo = _grid_extrema(
        pair_sum, cross.real, cross.imag, n_grid)

    half = math.pi / n_grid  # bracket each extremum by one grid step either side
    curve = lambda phi: coincidence_probability(state, phi, ana_s, ana_i)
    phi_hi = _golden_section(curve, phi_hi - 2 * half, phi_hi + 2 * half, minimize=False)
    phi_lo = _golden_section(curve, phi_lo - 2 * half, phi_lo + 2 * half, minimize=True)
    c_max = max(curve(phi_hi), c_hi)
    c_min = min(curve(phi_lo), c_lo)

    if c_max + c_min == 0.0:
        return VisibilityReport(mu=0.0, c_max=0.0, c_min=0.0, method="oracle")
    mu = (c_max - c_min) / (c_max + c_min)
    return VisibilityReport(mu=mu, c_max=c_max, c_min=c_min, method="oracle")


def concurrence(state: TwoPhotonState) -> float:
    """Degree of polarization entanglement of the effective pure qubit pair.

    Requires orthogonal pair polarizations, where origin and polarization are
    perfectly correlated and the state is a two-qubit pure state with
    concurrence 2|a1||a2|.  That number equals the 45-degree-analyzer fringe
    visibility, which is what makes the visibility a direct entanglement
    readout.
    """
    gap = math.cos(state.chi2.radians - state.chi1.radians)
    if abs(gap) > 1e-9:
        raise NotTwoQubitStateError(
            "pair polarizations must be orthogonal to define the polarization "
            f"qubit; |cos(chi2 - chi1)| = {abs(gap):.3e}")
    return 2.0 * abs(state.a1) * abs(state.a2)
