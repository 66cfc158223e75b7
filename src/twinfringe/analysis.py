"""Visibility definitions, the brute-force fringe oracle, and the
entanglement bridge.

The oracle deliberately avoids the closed-form visibility algebra: it scans
the coincidence curve numerically and reads contrast off the extrema, so it
can arbitrate every closed-form visibility law in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import NotTwoQubitStateError, UndefinedVisibilityError
from .fitting import FringeModelParams, fringe_model
from .polarization import PolarizationAngle
from .spdc import (_ORTHO_TOL, TwoPhotonState, _curve_coefficients,
                   predicted_visibility, predicted_visibility_with_analyzers)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Phases in the oracle's uniform grid over [0, 2pi).  The grid only has to
# land within one step of each extremum: any step under pi/2 keeps the
# +-1-step bracket of the refinement shorter than pi, and a sinusoid is
# unimodal on such a bracket.
_N_GRID = 64
_PHASES = np.arange(_N_GRID) * (2.0 * np.pi / _N_GRID)
_COS, _SIN = np.cos(_PHASES), np.sin(_PHASES)
_PHASES.flags.writeable = _COS.flags.writeable = _SIN.flags.writeable = False


@dataclass(frozen=True)
class VisibilityReport:
    """Fringe contrast together with the extrema it came from."""

    mu: float
    c_max: float
    c_min: float


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


def phi_scan_oracle(state: TwoPhotonState,
                    analyzers: Optional[Tuple[PolarizationAngle, PolarizationAngle]] = None
                    ) -> VisibilityReport:
    """Brute-force fringe visibility from a phase scan of the coincidence curve.

    Finds the first extrema of the coincidence probability on a uniform
    grid of _N_GRID phases over [0, 2pi), refines both extrema with a local
    golden-section search on the same curve coefficients, and reports the
    contrast.  Never touches the closed-form visibility expressions.
    """
    half_sum, cross, _ = _curve_coefficients(state, *(analyzers or (None, None)))
    cross_re, cross_im = cross.real, cross.imag
    # the array branch of coincidence_probability; argmax and argmin return
    # the first grid point attaining each extremum
    c = half_sum + cross_re * _COS - cross_im * _SIN
    i_hi, i_lo = int(c.argmax()), int(c.argmin())
    phi_hi, c_hi = float(_PHASES[i_hi]), float(c[i_hi])
    phi_lo, c_lo = float(_PHASES[i_lo]), float(c[i_lo])

    # the scalar branch of coincidence_probability, on the coefficients above
    curve = lambda phi: half_sum + cross_re * math.cos(phi) - cross_im * math.sin(phi)
    half = math.pi / _N_GRID  # bracket each extremum by one grid step either side
    phi_hi = _golden_section(curve, phi_hi - 2 * half, phi_hi + 2 * half, minimize=False)
    phi_lo = _golden_section(curve, phi_lo - 2 * half, phi_lo + 2 * half, minimize=True)
    c_max = max(curve(phi_hi), c_hi)
    c_min = min(curve(phi_lo), c_lo)

    if c_max + c_min == 0.0:
        return VisibilityReport(mu=0.0, c_max=0.0, c_min=0.0)
    mu = (c_max - c_min) / (c_max + c_min)
    return VisibilityReport(mu=mu, c_max=c_max, c_min=c_min)


def concurrence(state: TwoPhotonState) -> float:
    """Degree of polarization entanglement of the effective pure qubit pair.

    Requires orthogonal pair polarizations, where origin and polarization are
    perfectly correlated and the state is a two-qubit pure state with
    concurrence 2|a1||a2|.  That number equals the 45-degree-analyzer fringe
    visibility, which is what makes the visibility a direct entanglement
    readout.
    """
    gap = math.cos(state.chi2.radians - state.chi1.radians)
    if abs(gap) > _ORTHO_TOL:
        raise NotTwoQubitStateError(
            "pair polarizations must be orthogonal to define the polarization "
            f"qubit; |cos(chi2 - chi1)| = {abs(gap):.3e}")
    return 2.0 * abs(state.a1) * abs(state.a2)


def conformance_report(draws: int, seed: int) -> Dict[str, Tuple[float, float]]:
    """Closed-form visibility laws against the phase-scan oracle.

    Draws random states (and analyzers) from default_rng(seed): draws of
    each for the three visibility laws, draws // 10 + 1 for the fringe
    extrema identity and the oracle's phase invariance.  Returns
    {check name: (max error, tolerance)} in a fixed order.
    """
    rng = np.random.default_rng(seed)
    worst = {}

    def random_state():
        r = rng.uniform(0.0, 1.0)
        pa, pb = rng.uniform(0.0, 2.0 * math.pi, size=2)
        a1 = math.sqrt(r) * np.exp(1j * pa)
        a2 = math.sqrt(1.0 - r) * np.exp(1j * pb)
        chi1 = PolarizationAngle(rng.uniform(0.0, math.pi))
        chi2 = PolarizationAngle(rng.uniform(0.0, math.pi))
        return TwoPhotonState(complex(a1), complex(a2), chi1, chi2)

    err = 0.0
    for _ in range(draws):
        state = random_state()
        err = max(err, abs(predicted_visibility(state)
                           - phi_scan_oracle(state).mu))
    worst["closed form vs oracle, bare detectors"] = (err, 1e-6)

    err = 0.0
    for _ in range(draws):
        state = random_state()
        ana = (PolarizationAngle(rng.uniform(0.0, math.pi)),
               PolarizationAngle(rng.uniform(0.0, math.pi)))
        err = max(err, abs(predicted_visibility_with_analyzers(state, *ana)
                           - phi_scan_oracle(state, ana).mu))
    worst["closed form vs oracle, analyzers"] = (err, 1e-6)

    err = 0.0
    for _ in range(draws):
        r = rng.uniform(0.0, 1.0)
        pa, pb = rng.uniform(0.0, 2.0 * math.pi, size=2)
        chi1 = PolarizationAngle(rng.uniform(0.0, math.pi))
        state = TwoPhotonState(complex(math.sqrt(r) * np.exp(1j * pa)),
                               complex(math.sqrt(1.0 - r) * np.exp(1j * pb)),
                               chi1, chi1.orthogonal())
        ana = PolarizationAngle(chi1.radians + math.pi / 4.0)
        err = max(err, abs(concurrence(state) - phi_scan_oracle(state, (ana, ana)).mu))
    worst["concurrence vs 45-degree visibility"] = (err, 1e-6)

    err = 0.0
    for _ in range(draws // 10 + 1):
        p = FringeModelParams(c0=rng.uniform(0.5, 100.0), mu=rng.uniform(0.0, 1.0),
                              period=rng.uniform(1e-4, 1e-2),
                              psi=rng.uniform(-math.pi, math.pi))
        x_hi = -p.psi * p.period / (2.0 * math.pi)
        x_lo = x_hi + p.period / 2.0
        mu = visibility_from_extrema(fringe_model(x_hi, p), fringe_model(x_lo, p))
        err = max(err, abs(mu - p.mu))
    worst["fringe extrema identity"] = (err, 1e-12)

    err = 0.0
    for _ in range(draws // 10 + 1):
        state = random_state()
        gamma, delta = rng.uniform(0.0, 2.0 * math.pi, size=2)
        base = phi_scan_oracle(state).mu
        rotated = TwoPhotonState(complex(state.a1 * np.exp(1j * gamma)),
                                 complex(state.a2 * np.exp(1j * (gamma + delta))),
                                 state.chi1, state.chi2)
        err = max(err, abs(phi_scan_oracle(rotated).mu - base))
    worst["oracle invariance under global phase and fringe shifts"] = (err, 1e-9)
    return worst
