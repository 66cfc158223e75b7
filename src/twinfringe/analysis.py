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
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import NotTwoQubitStateError, UndefinedVisibilityError
from .fitting import FringeModelParams, fringe_model
from .polarization import PolarizationAngle
from .spdc import (_ORTHO_TOL, TwoPhotonState, _projected_amplitudes,
                   predicted_visibility, predicted_visibility_with_analyzers)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BLOCK = 16384  # grid points per scan block: two 128 KB buffers stay in cache
_N_GRID = 100_000  # phases in the oracle's uniform grid over [0, 2pi)
_STRIDE = 48  # grid points per coarse sample of the oracle's two-pass scan
_EPS = float(np.finfo(float).eps)


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


@functools.lru_cache(maxsize=4)
def _phase_table(n_grid: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only cos and sin of the uniform phase grid k * 2pi/n_grid."""
    phases = np.arange(n_grid) * (2.0 * np.pi / n_grid)
    cos_t, sin_t = np.cos(phases), np.sin(phases)
    cos_t.flags.writeable = False
    sin_t.flags.writeable = False
    return cos_t, sin_t


@functools.lru_cache(maxsize=4)
def _coarse_table(n_grid: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only contiguous copies of every _STRIDE-th entry of _phase_table."""
    cos_t, sin_t = _phase_table(n_grid)
    cos_c, sin_c = cos_t[::_STRIDE].copy(), sin_t[::_STRIDE].copy()
    cos_c.flags.writeable = False
    sin_c.flags.writeable = False
    return cos_c, sin_c


def _grid_extrema(pair_sum: float, cross_re: float, cross_im: float,
                  n_grid: int) -> Tuple[float, float, float, float]:
    """Scan 0.5*pair_sum + cross_re*cos(phi) - cross_im*sin(phi) on the
    uniform grid over [0, 2pi).

    A coarse pass evaluates every _STRIDE-th grid point; a fine pass then
    evaluates only the blocks of _STRIDE points that can hold an extremum,
    walking them in ascending order in chunks of _BLOCK points through two
    reused buffers.  Returns (phi_at_max, c_max, phi_at_min, c_min) at the
    first grid point attaining each extremum, bit-identical to a scan of
    every grid point.
    """
    cos_t, sin_t = _phase_table(n_grid)
    cos_c, sin_c = _coarse_table(n_grid)
    offset = 0.5 * pair_sum
    # the fine pass's expression and operation order, so each sample is
    # bit-equal to that grid point's fine value
    coarse = cross_re * cos_c + offset - cross_im * sin_c
    # Block j is the grid points [j*S, (j+1)*S), S = _STRIDE, each within S-1
    # steps of sample j.  The curve's slope is at most r = hypot(re, im), so
    # no exact value in block j exceeds sample j's by more than r*(S-1)*step.
    # The slack bounds the rounding on top of that, in units of eps*m with
    # m = |offset| + |re| + |im| >= r, for a grid of two or more blocks
    # ((S-1)*step*r <= 2pi*r; one block is always kept):
    #   table cos and sin, <= 4 eps each, at the point and the sample    8
    #   the three operations, <= 1.5 eps*m at each of the two            3
    #   the table phases i*step, each rounded by <= pi*eps               6.3
    #   2pi and step rounded (<= eps relative on <= 2pi*r)               6.3
    #   reach's own four roundings (<= 3 eps relative on <= 2pi*r)      18.9
    #   reach + slack and max - reach (eps/2 of <= 6.3 m and 7.3 m)      6.8
    # 49.3 in all, under the 64 used.  A larger slack only admits more blocks.
    reach = (math.hypot(cross_re, cross_im) * (_STRIDE - 1) * (2.0 * math.pi / n_grid)
             + 64.0 * _EPS * (abs(offset) + abs(cross_re) + abs(cross_im)))
    # a dropped block holds no value >= the coarse maximum or <= the coarse
    # minimum, so it cannot reach or tie either grid extremum (argmax and
    # argmin, as they cost less than max and min)
    top, bottom = coarse[coarse.argmax()], coarse[coarse.argmin()]
    keep = np.concatenate(([False], (coarse >= top - reach) | (coarse <= bottom + reach),
                           [False]))
    # runs of consecutive kept blocks: [edges[2k], edges[2k+1]) in block units
    edges = (keep[1:] != keep[:-1]).nonzero()[0].tolist()
    buf, tmp = np.empty(min(n_grid, _BLOCK)), np.empty(min(n_grid, _BLOCK))
    i_max = i_min = 0
    c_max, c_min = -math.inf, math.inf
    for first, end in zip(edges[::2], edges[1::2]):
        end = min(end * _STRIDE, n_grid)
        for start in range(first * _STRIDE, end, _BLOCK):
            stop = min(start + _BLOCK, end)
            c, s = buf[:stop - start], tmp[:stop - start]
            np.multiply(cross_re, cos_t[start:stop], out=c)
            c += offset
            np.multiply(cross_im, sin_t[start:stop], out=s)
            c -= s
            j = int(c.argmax())
            if c[j] > c_max:  # strict: an equal value in a later block loses
                i_max, c_max = start + j, float(c[j])
            j = int(c.argmin())
            if c[j] < c_min:
                i_min, c_min = start + j, float(c[j])
    step = 2.0 * np.pi / n_grid
    return i_max * step, c_max, i_min * step, c_min


def phi_scan_oracle(state: TwoPhotonState,
                    analyzers: Optional[Tuple[PolarizationAngle, PolarizationAngle]] = None
                    ) -> VisibilityReport:
    """Brute-force fringe visibility from a phase scan of the coincidence curve.

    Finds the first extrema of the coincidence probability on a uniform
    grid of _N_GRID phases over [0, 2pi) (evaluating only the grid blocks
    that can hold one), refines both extrema with a local
    golden-section search on the same projected amplitudes, and reports the
    contrast.  Never touches the closed-form visibility expressions.
    """
    ana_s, ana_i = analyzers if analyzers is not None else (None, None)
    b1, b2, overlap = _projected_amplitudes(state, ana_s, ana_i)
    pair_sum = abs(b1) ** 2 + abs(b2) ** 2
    cross = overlap * (b1.conjugate() * b2)
    phi_hi, c_hi, phi_lo, c_lo = _grid_extrema(
        pair_sum, cross.real, cross.imag, _N_GRID)

    # the scalar branch of coincidence_probability, on the amplitudes above
    half_sum, cross_re, cross_im = 0.5 * pair_sum, cross.real, cross.imag
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
