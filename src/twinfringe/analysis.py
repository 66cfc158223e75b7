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

from .detection import nonnegative_seed
from .errors import NotTwoQubitStateError, UndefinedVisibilityError
from .fitting import FringeModelParams, fringe_model
from .polarization import PolarizationAngle
from .spdc import (_ORTHO_TOL, TwoPhotonState, _curve_coefficients,
                   predicted_visibility, predicted_visibility_with_analyzers)

# Phases in the oracle's uniform grid over [0, 2pi).  The grid only has to
# land within one step of each extremum: any step under pi/2 (_N_GRID >= 5)
# keeps the +-1-step bracket of the refinement shorter than pi, and a sinusoid
# is unimodal on such a bracket.  _TRIG holds each grid phase's (cos, sin) as
# Python floats, taken from np.cos and np.sin so that the grid curve is
# bit-equal to coincidence_probability's array branch.
_N_GRID = 8
_STEP = 2.0 * np.pi / _N_GRID
_TRIG = tuple(zip(np.cos(np.arange(_N_GRID) * _STEP).tolist(),
                  np.sin(np.arange(_N_GRID) * _STEP).tolist()))
# The refinement stops once a parabolic step is under _PHASE_TOL radians: the
# best phase then lies within about _PHASE_TOL of the extremum, where the curve
# is within |cross| * _PHASE_TOL**2 / 2 of its extreme value, so the contrast
# is off by at most ~_PHASE_TOL**2 = 1e-16, under one eps.  Noise in the last
# bits of a shallow curve can keep the steps wandering above the tolerance;
# _MAX_STEPS ends those refinements (random states take ~4 steps).
_PHASE_TOL = 1e-8
_MAX_STEPS = 24


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


def _refine_extremum(half_sum: float, cross_re: float, cross_im: float,
                     c: list, i: int, minimize: bool) -> float:
    """Extreme value of the curve half_sum + cross_re cos(phi) - cross_im
    sin(phi) near the grid extremum c[i], by successive parabolic
    interpolation (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 5) on curve values alone.

    c is the curve on the grid, as a list.  Starts from the bracket of c[i]
    and its two grid neighbours (indices taken modulo _N_GRID), which the
    grid has already evaluated.  Each step evaluates the curve, inline from
    its coefficients as coincidence_probability's scalar branch does, at the
    vertex of the parabola through the bracket's three points, which lies
    strictly inside the bracket, and shrinks the bracket round the best
    point.  Returns the best value seen, so never one worse than c[i].
    """
    sign = 1.0 if minimize else -1.0
    x = i * _STEP
    a, b = x - _STEP, x + _STEP
    fa, fx, fb = sign * c[i - 1], sign * c[i], sign * c[(i + 1) % _N_GRID]
    for _ in range(_MAX_STEPS):
        p = (x - a) * (fx - fb)
        q = (x - b) * (fx - fa)
        if p == q:  # three equal values: the curve is flat to rounding here
            break
        u = x + ((x - a) * p - (x - b) * q) / (2.0 * (q - p))
        if not a < u < b or abs(u - x) <= _PHASE_TOL:
            break
        fu = sign * (half_sum + cross_re * math.cos(u) - cross_im * math.sin(u))
        if fu <= fx:
            if u < x:
                b, fb = x, fx
            else:
                a, fa = x, fx
            x, fx = u, fu
        elif u < x:
            a, fa = u, fu
        else:
            b, fb = u, fu
    return sign * fx


def phi_scan_oracle(state: TwoPhotonState,
                    analyzers: Optional[Tuple[PolarizationAngle, PolarizationAngle]] = None
                    ) -> VisibilityReport:
    """Brute-force fringe visibility from a phase scan of the coincidence curve.

    Finds the first extrema of the coincidence probability on a uniform
    grid of _N_GRID phases over [0, 2pi), refines both by parabolic
    interpolation on the same curve coefficients (_refine_extremum), and
    reports the contrast.  Never touches the closed-form visibility
    expressions.
    """
    half_sum, cross, _ = _curve_coefficients(state, *(analyzers or (None, None)))
    cross_re, cross_im = cross.real, cross.imag
    # coincidence_probability's array branch, value by value; index returns
    # the first grid point attaining each extremum, as argmax and argmin do
    c = [half_sum + cross_re * cos - cross_im * sin for cos, sin in _TRIG]
    i_max, i_min = c.index(max(c)), c.index(min(c))
    c_max = _refine_extremum(half_sum, cross_re, cross_im, c, i_max, minimize=False)
    # the curve is |b1 + e^{i phi} b2|^2 / 2 >= 0, but its two-term form can
    # round a full-contrast minimum below zero, which would read mu > 1
    c_min = max(_refine_extremum(half_sum, cross_re, cross_im, c, i_min, minimize=True), 0.0)

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
    readout.  Clamped at 1, which 2|a1||a2| can round above when
    |a1| = |a2|.
    """
    gap = math.cos(state.chi2.radians - state.chi1.radians)
    if abs(gap) > _ORTHO_TOL:
        raise NotTwoQubitStateError(
            "pair polarizations must be orthogonal to define the polarization "
            f"qubit; |cos(chi2 - chi1)| = {abs(gap):.3e}")
    return min(2.0 * abs(state.a1) * abs(state.a2), 1.0)


def conformance_report(draws: int, seed: int) -> Dict[str, Tuple[float, float]]:
    """Closed-form visibility laws against the phase-scan oracle.

    Draws random states (and analyzers) from default_rng(seed): draws of
    each for the three visibility laws, draws // 10 + 1 for the fringe
    extrema identity and the oracle's phase invariance.  Returns
    {check name: (max error, tolerance)} in a fixed order.
    """
    rng = np.random.default_rng(nonnegative_seed(seed))
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
