"""Least-squares fits of the two fringe-side models.

The double-slit fringe (visibility from one scan) is linear at a fixed
period, so it is fitted by variable projection: a weighted linear solve
inside a Gauss-Newton search over the wavenumber alone.  A stack of scans
that share one period (a pump-angle sweep) is fitted in one call: one
search over the shared wavenumber, with a linear solve per scan.  The
visibility vs pump-angle curve (entanglement sweep) has one fit, of the
curve the coincidence fringe produces (mu_eff_model's 'derived' form): it
is linear in {1, cos 4 theta, sin 4 theta} once mu is squared, so it is one
weighted linear solve whose coefficients map to (mu_max, theta0, eps1) in
closed form.  mu_eff_model also evaluates the literal 'paper' form, which
no fit uses.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import IllPosedError

VARIANTS = ("paper", "derived")

_MAX_ITERATIONS = 200  # Gauss-Newton steps before a fit is reported unconverged
# a free fit ends, converged, at a Gauss-Newton step below the larger of _TOL * k
# and _SIGMA_TOL of k's standard error: the remaining step is then ~1% of the
# noise (MINUIT's EDM stop), and noise-free rows, whose error is ~0, keep _TOL * k
_TOL = 1e-10
_SIGMA_TOL = 0.01


@dataclass(frozen=True)
class FringeModelParams:
    """Double-slit pattern: mean rate, contrast, spatial period, phase offset."""

    c0: float
    mu: float
    period: float
    psi: float = 0.0


@dataclass(frozen=True)
class VisibilityCurveParams:
    """Effective-visibility curve over the pump angle.

    mu_max is the instrument ceiling, theta0 the pump-dial offset, eps1 the
    in-phase pump ellipse amplitude (eps2 follows from normalization).
    variant selects how mu_eff_model lets the pump-ellipticity floor enter:
    'derived' (the default) uses sqrt(v1 + v2^2), the fringe amplitude the
    coincidence curve itself produces, and is the model fit_visibility_curve
    fits; 'paper' uses sqrt(v1^2 + v2^2), the literal alternative closed
    form, kept only to evaluate.  The phase-scan oracle agrees with
    'derived'.
    """

    mu_max: float
    theta0: float
    eps1: float
    variant: str = "derived"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def eps2(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.eps1 ** 2))


@dataclass
class FitResult:
    """Solver output: parameters, covariance estimate, and bookkeeping.

    A fit of a stack of scans carries a leading row axis: params (m, p),
    covariance (m, p, p) and residual_norm (m,), one row per scan, while
    iterations, converged and message describe the one fit of the stack.
    """

    params: np.ndarray
    covariance: np.ndarray
    residual_norm: Union[float, np.ndarray]
    iterations: int
    converged: bool
    message: str = ""

    @property
    def stderr(self) -> np.ndarray:
        """Square roots of the variances, per row of a stack; NaN where a variance
        is negative or non-finite."""
        var = np.diagonal(self.covariance, axis1=-2, axis2=-1)
        return np.sqrt(np.where(np.isfinite(var) & (var >= 0.0), var, np.nan))


def fringe_model(x, p: FringeModelParams):
    """Expected rate c0 * (1 + mu * cos(2*pi*x/period + psi))."""
    scalar = np.ndim(x) == 0
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    out = p.c0 * (1.0 + p.mu * np.cos(2.0 * np.pi * xv / p.period + p.psi))
    return float(out[0]) if scalar else out


def mu_eff_model(theta, p: VisibilityCurveParams):
    """Effective fringe visibility as a function of the pump dial angle.

    With e1 = eps1 and e2^2 = 1 - e1^2:
      v1 = 4 e1^2 (1 - e1^2)           (ellipticity floor, equals (2 e1 e2)^2)
      v2 = (2 e1^2 - 1) sin 2(theta - theta0)
    'derived' returns mu_max * sqrt(v1 + v2^2); 'paper' returns
    mu_max * sqrt(v1^2 + v2^2).  Output clamped to [0, mu_max].
    """
    theta = np.asarray(theta, dtype=float)
    e1 = min(max(abs(p.eps1), 0.0), 1.0)
    e1sq = e1 * e1
    v1 = 4.0 * e1sq * (1.0 - e1sq)
    v2 = (2.0 * e1sq - 1.0) * np.sin(2.0 * (theta - p.theta0))
    if p.variant == "derived":
        val = np.sqrt(np.maximum(v1 + v2 * v2, 0.0))
    else:
        val = np.sqrt(v1 * v1 + v2 * v2)
    ceiling = max(p.mu_max, 0.0)
    out = np.clip(p.mu_max * val, 0.0, ceiling)
    return float(out) if out.ndim == 0 else out


def _as_arrays(data):
    """The three columns of (input, observation, weight or sigma) rows, all finite."""
    rows = np.asarray(data, dtype=float)
    if rows.size == 0:
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"data must be (input, observation, weight or sigma) triples, "
                         f"got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("data contains non-finite values")
    return np.ascontiguousarray(rows.T)


# --- fringe fitting -----------------------------------------------------------

_ZERO_CONTRAST = 1e-9  # hypot(a, b) / |c0| at or below: zero (flat scans leave ~2e-13)


def _contrast(c0: float, a: float, b: float) -> float:
    """hypot(a, b) of c0 + a cos kx + b sin kx, or 0.0 where that is zero contrast."""
    h = math.hypot(a, b)
    return 0.0 if h <= _ZERO_CONTRAST * abs(c0) else h


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (..., n) stacks."""
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def _scan_columns(scan, min_points: int):
    """Positions, observations, weights and integration times of a scan stack,
    by position, and whether the input was one scan rather than a stack.

    A counting scan (a record array with position, counts and
    integration_time fields, such as sample_counts returns) is Poisson data
    with weights 1/max(counts, 1) in counts space; (position, rate) rows are
    noise-free curves with unit weights and times.  One scan, (n,) records
    or (n, 2) rows, is the one-row stack; an (m, n) record array or an
    (m, n, 2) rate stack is m scans, which must share positions and
    integration times.  Observations and weights come back (m, n),
    positions and times (n,).
    """
    counting = isinstance(scan, np.ndarray) and bool(scan.dtype.names)
    if counting:
        fields = np.asarray(scan)
        one_scan = fields.ndim == 1
        if one_scan:
            fields = fields[None]
        x = fields["position"].astype(float)
        y = fields["counts"].astype(float)
        t = fields["integration_time"].astype(float)
        if (t <= 0.0).any():
            raise IllPosedError("counting scans need integration_time > 0; "
                                "fit (position, rate) rows for noise-free curves")
    else:
        rows = np.asarray(scan, dtype=float)
        one_scan = rows.ndim != 3
        if one_scan:
            rows = rows.reshape(1, len(rows), 2)
        x, y = rows[..., 0], rows[..., 1]
        t = np.ones_like(x)
    if not y.shape[0]:
        raise IllPosedError("need at least one scan")
    if y.shape[1] < min_points:
        raise IllPosedError(f"need at least {min_points} points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("data contains non-finite values")
    if not one_scan and not ((x == x[0]).all() and (t == t[0]).all()):
        raise IllPosedError("scans must share positions and integration times")
    order = np.argsort(x[0])
    # take keeps rows C-contiguous, where y[:, order] would not, so a row
    # rounds as it does alone
    y = np.take(y, order, axis=1)
    w = 1.0 / np.maximum(y, 1.0) if counting else np.ones_like(y)
    return x[0][order], y, w, t[0][order], one_scan, counting


def _dominant_wavenumber(x: np.ndarray, y: np.ndarray) -> float:
    """Wavenumber of the strongest nonzero Fourier component on a uniform resample,
    the amplitude spectra of the rows of y (one scan per row) summed.  The
    resample has the smallest power of two >= max(x.size, 16) points: the FFT
    of a prime length, such as a 61-point scan's, takes several times longer."""
    n = 1 << (max(x.size, 16) - 1).bit_length()
    grid = np.linspace(x[0], x[-1], n)
    # each grid point's fractional index into x, shared by every row, then one
    # linear interpolation of the whole stack between the neighbouring columns
    index = np.interp(grid, x, np.arange(x.size, dtype=np.float64))
    lo = np.minimum(index.astype(np.intp), x.size - 2)
    frac = index - lo
    resampled = y[:, lo] * (1.0 - frac) + y[:, lo + 1] * frac
    # a row's mean enters bin 0 alone, which the search for the peak skips
    spectrum = np.abs(np.fft.rfft(resampled))
    k = 1 + int(np.argmax(spectrum.sum(axis=0)[1:]))
    return 2.0 * math.pi * k / (grid[-1] - grid[0]) * (n - 1) / n


def _linear_fit(k: float, x: np.ndarray, y: np.ndarray, w: np.ndarray, t: np.ndarray):
    """Weighted least squares for (c0, a, b) in t * (c0 + a cos kx + b sin kx).

    y and w are one scan, (n,), or a stack of scans, (m, n), against the one
    design they share, the (3, n) rows [t, t cos kx, t sin kx].  Returns the
    coefficients, the design, D'W per scan ((3, n) or (m, 3, n)), the inverse
    weighted normal matrices, the residuals and the weighted SSE, per scan;
    coefficients None and SSE inf if singular.
    """
    kx = k * x
    design = np.empty((3, x.size))
    design[0], design[1], design[2] = t, t * np.cos(kx), t * np.sin(kx)
    weighted = design * w[..., None, :]
    try:
        normal_inv = np.linalg.inv(weighted @ design.T)
    except np.linalg.LinAlgError:
        return None, design, weighted, None, None, np.full(y.shape[:-1], math.inf)
    coef = (normal_inv @ (weighted @ y[..., None]))[..., 0]
    resid = y - coef @ design
    return coef, design, weighted, normal_inv, resid, _dot(resid, w * resid)


def _projected_curvature(weighted, normal_inv, jk, wjk):
    """Kaufman's projected J'J in k per scan: jk' W jk less its part the linear
    coefficients absorb; and that part's coefficients q = N^-1 D' W jk, the
    shift of each scan's (c0, a, b) per unit k."""
    proj = weighted @ jk[..., None]
    q = normal_inv @ proj
    return _dot(jk, wjk) - (proj.swapaxes(-1, -2) @ q)[..., 0, 0], q[..., 0]


def _search_wavenumber(k: float, x, y, w, t):
    """Gauss-Newton search over the one wavenumber a stack of scans shares.

    y and w are (m, n): one scan per row over the shared positions x and
    integration times t.  At each k every scan's (c0, a, b) is solved by
    _linear_fit; the stack's SSE, gradient and projected curvature are sums
    over scans.  The search stops, converged, at a fixed point: where the
    Gauss-Newton step at the current k is below tol, or where halving a step
    that raises the SSE takes it below tol.  tol is the larger of _TOL k and
    _SIGMA_TOL sigma_k, with sigma_k^2 = (SSE / (m (n - 3) - 1)) / curvature
    from the summed SSE and projected curvature at k, so the search stops once
    the remaining step is ~1% of the period's own error.  It starts at k clipped
    into [2 pi / span, pi (n - 1) / span], the wavenumbers n points over the
    span resolve, and a step that would leave them ends it unconverged; it
    ends without a step when every scan is flat.

    Returns k, the _linear_fit tuple there, the summed projected curvature
    and each scan's q at that k (None when every scan is flat), the number
    of steps, whether the search converged, and why not.
    """
    span = x[-1] - x[0]
    k_lo, k_hi = 2.0 * math.pi / span, math.pi * (x.size - 1) / span
    k = min(max(k, k_lo), k_hi)
    fit = _linear_fit(k, x, y, w, t)
    if fit[0] is None:
        raise IllPosedError("the fringe design is singular at the starting period")
    sse = sum(fit[5].tolist())
    m, n = y.shape
    dof = max(m * (n - 3) - 1, 1)
    iterations, converged, message = 0, False, ""
    while True:
        coef, design, weighted, normal_inv, resid, _ = fit
        if not any(_contrast(*row) for row in coef.tolist()):
            return k, fit, None, None, iterations, False, ""
        # d model / dk at fixed (c0, a, b), per scan
        jk = x * (coef[:, 2, None] * design[1] - coef[:, 1, None] * design[2])
        wjk = w * jk
        curvature, q = _projected_curvature(weighted, normal_inv, jk, wjk)
        curvature = sum(curvature.tolist())
        step = sum(_dot(wjk, resid).tolist()) / curvature if curvature > 0.0 else math.nan
        if not math.isfinite(step):
            message = "singular curvature in the period search"
            break
        tol = max(_TOL * k, _SIGMA_TOL * math.sqrt(sse / dof / curvature))
        if abs(step) < tol:
            converged = True
            break
        if iterations == _MAX_ITERATIONS:
            message = "iteration limit reached"
            break
        if not k_lo <= k + step <= k_hi:
            message = "the period search left the wavenumbers the scan resolves"
            break
        iterations += 1
        trial = _linear_fit(k + step, x, y, w, t)
        trial_sse = sum(trial[5].tolist())
        while not trial_sse <= sse and abs(0.5 * step) >= tol:
            step *= 0.5
            trial = _linear_fit(k + step, x, y, w, t)
            trial_sse = sum(trial[5].tolist())
        if not trial_sse <= sse:
            converged = True  # no step of tol or more lowers the SSE
            break
        k, fit, sse = k + step, trial, trial_sse
    return k, fit, curvature, q, iterations, converged, message


def fit_fringe(scan, fix_period: Optional[float] = None,
               start_period: Optional[float] = None) -> FitResult:
    """Fit the double-slit pattern to one scan, or to a stack of scans at the
    one period they share, and report each scan's visibility.

    Accepts either a counting scan, a record array with position, counts
    and integration_time fields such as sample_counts returns (Poisson data;
    weights are 1/max(counts, 1) in counts space), or (position, rate) rows
    (noise-free curves; unit weights in rate space).  An (m, n) record array
    or an (m, n, 2) rate stack is m scans that share positions and
    integration times, as the scans of one pump-angle sweep do: the geometry
    fixes the period, and only contrast and phase vary from row to row.
    Each row keeps its own (c0, a, b) and weights; one Gauss-Newton search
    over k minimises the summed SSE, starting at the peak of the summed
    amplitude spectra or at start_period.  It ends at a fixed point, where
    the Gauss-Newton step at the current k is below 1% of k's standard error
    or 1e-10 k, whichever is larger (or where no step that large lowers the
    SSE), so a fit started at its own reported period returns it.
    fix_period pins k = 2 pi / period instead (zero period variance) and
    wins over start_period.  One scan is the one-row stack.

    Parameter order is [c0, mu, period, psi] in rate units, with
    mu = hypot(a, b) / c0 and psi = atan2(-b, a) from the linear
    coefficients of c0 + a cos(kx) + b sin(kx).  Each row's covariance is
    its block of the inverse of the joint (3m + 1) weighted normal matrix in
    (c0, a, b per row; k), by the Schur complement on k, scaled by that
    row's SSE / (n - 3 - 1/m) (n - 3 with the period pinned) and carried to
    the parameters by the delta method.  A row of zero contrast reports
    mu = psi = 0 with NaN errors for mu, period and psi; a counting row of
    zero counts has a NaN error for c0 as well.

    Returns params (m, 4) and covariance (m, 4, 4) for a stack, (4,) and
    (4, 4) for one scan; iterations, converged and message describe the
    one search.  converged is True when the search converged (a pinned
    period always does) and at least one row has contrast.
    """
    fixed = fix_period is not None
    x, y, w, t, one_scan, counting = _scan_columns(scan, 3 if fixed else 4)
    if not fixed and x[-1] - x[0] <= 0.0:
        raise IllPosedError("positions must span at least one period to fit a free period")

    period = fix_period if fixed else start_period
    if period is not None and not (math.isfinite(period) and period > 0.0):
        raise ValueError(f"period must be finite and > 0, got {period!r}")
    k = _dominant_wavenumber(x, y / t) if period is None else 2.0 * math.pi / period
    if fixed:
        fit = _linear_fit(k, x, y, w, t)
        if fit[0] is None:
            raise IllPosedError("the fringe design is singular at the starting period")
        q, iterations, converged, message = None, 0, True, ""
    else:
        k, fit, curvature, q, iterations, converged, message = _search_wavenumber(
            k, x, y, w, t)
        period = 2.0 * math.pi / k
    coef, _, _, normal_inv, _, sse = fit
    m, n = y.shape

    # d (c0, mu, period, psi) / d (c0, a, b) per row; undefined beyond c0 where
    # a row has zero contrast, by _contrast's rule (h is NaN there, so that
    # nothing divides by zero)
    c0, a, b = coef.T
    h = np.hypot(a, b)
    flat = h <= _ZERO_CONTRAST * np.abs(c0)
    h[flat] = math.nan
    c0h, hh = c0 * h, h * h
    grad = np.zeros((m, 4, 3))
    grad[:, 0, 0] = 1.0
    grad[:, 1, 0] = -h / c0 ** 2
    grad[:, 1, 1] = a / c0h
    grad[:, 1, 2] = b / c0h
    grad[:, 3, 1] = b / hh
    grad[:, 3, 2] = -a / hh
    grad[flat, 1:] = math.nan
    cov = grad @ normal_inv @ grad.swapaxes(-1, -2)
    if q is not None:  # a free search that found contrast in some row
        # Row i's block of the joint (3m + 1) inverse normal matrix is, by the
        # Schur complement on k, N_i^-1 + var_k q_i q_i' in (c0, a, b), -var_k q_i
        # against k, and var_k = 1 / (summed projected curvature) for k, with q_i
        # the shift of (c0, a, b) per unit k.  Through the delta method that is
        # the pinned covariance G N_i^-1 G' plus var_k s_i s_i', where
        # s_i = d params / dk - G q_i.
        var_k = 1.0 / curvature if curvature > 0.0 else math.nan
        s = -(grad @ q[:, :, None])[:, :, 0]
        s[:, 2] -= 2.0 * math.pi / k ** 2
        cov += var_k * (s[:, :, None] * s[:, None, :])
    dof = n - 3 - (0.0 if fixed else 1.0 / m)  # the rows' dof sum to the stack's
    scale = sse * (0.5 / (dof if dof > 0.0 else 1.0))
    if counting:  # a row of zero counts carries no information, c0 included
        scale[~y.any(axis=1)] = math.nan
    cov = (cov + cov.swapaxes(-1, -2)) * scale[:, None, None]

    params = np.empty((m, 4))
    params[:, 0], params[:, 2] = c0, period
    params[:, 1] = h / c0
    params[:, 3] = np.arctan2(-b, a)
    params[flat, 1::2] = 0.0  # mu = psi = 0 at zero contrast
    norm = np.sqrt(sse)
    if flat.all():
        converged, message = False, "zero contrast: fringe period and phase are undefined"
    if one_scan:
        params, cov, norm = params[0], cov[0], float(norm[0])
    return FitResult(params, cov, norm, iterations, bool(converged), message)


def fringe_params(result: FitResult) -> FringeModelParams:
    """View a fit_fringe result as FringeModelParams."""
    c0, mu, period, psi = result.params
    return FringeModelParams(float(c0), float(mu), float(period), float(psi))


# --- visibility-curve fitting ---------------------------------------------------


def _rank_three(points: np.ndarray) -> bool:
    """Whether the design [1, cos 4 theta, sin 4 theta] has rank 3, from its
    last two columns, the (2, n) points (cos 4 theta, sin 4 theta) on the unit
    circle.

    It has not when the points lie on one line, that is, when 4 theta takes
    fewer than three distinct values modulo 2 pi.  The points' spread across
    the principal axis of their 2 x 2 scatter, which is in closed form, is
    compared with np.linalg.matrix_rank's default tolerance, S.max max(M, N)
    eps, with the design's Frobenius norm sqrt(2 n) standing for S.max.
    """
    n = points.shape[1]
    centred = points - points.mean(axis=1, keepdims=True)
    (scc, scs), (_, sss) = (centred @ centred.T).tolist()
    axis = 0.5 * math.atan2(2.0 * scs, scc - sss)
    across = np.array((-math.sin(axis), math.cos(axis))) @ centred
    tol = math.sqrt(2.0 * n) * max(n, 3) * sys.float_info.epsilon
    return math.sqrt(float(across @ across)) > tol


def fit_visibility_curve(points) -> FitResult:
    """Fit (mu_max, theta0, eps1) to measured (theta, mu, sigma) triples.

    With D = 2 eps1^2 - 1 and u = D^2, the model is linear in
    {1, cos 4 theta, sin 4 theta} once squared:
      mu^2 = mu_max^2 (1 - u/2 - (u/2) cos 4(theta - theta0))
    so one weighted linear solve for A + B cos 4 theta + C sin 4 theta gives
    the parameters in closed form; the fit takes no iterations.  With
    R = hypot(B, C), mu_max^2 = A + R and u = 2R / (A + R), clipped to
    [0, 1], and eps1 = sqrt((1 + sqrt u) / 2), so eps1 >= eps2.  theta0 =
    atan2(-C, -B) / 4 is reported in [0, pi/2), the period to which the curve
    identifies it.

    Weights are 1/var(mu^2) = 1/(4 mu^2 sigma^2 + 2 sigma^4), exact for a
    Gaussian mu (zero sigmas are floored at the smallest positive one, or
    unity if none); sigmas so small that a weight overflows, or so large that
    every weight is zero, raise IllPosedError naming sigma_mu.  Angles at
    which 4 theta takes fewer than three distinct values modulo 2 pi raise
    IllPosedError (_rank_three).  The covariance is the inverse normal matrix
    scaled by SSE/dof, carried to the parameters by the delta method at the
    clipped u.
    A flat curve (R at or below _ZERO_CONTRAST |A|) leaves theta0 undefined:
    it reports eps1 = eps2, theta0 = 0 and NaN errors, unconverged.
    """
    theta, mu, sigma = _as_arrays(points)
    if theta.size < 4:
        raise IllPosedError("need at least 4 (theta, mu, sigma) points")
    if theta.max() - theta.min() < math.pi / 2.0 - 1e-9:
        raise IllPosedError("pump angles must span at least half a period (pi/2)")
    positive = sigma[sigma > 0.0]
    sigma = np.where(sigma > 0.0, sigma, positive.min() if positive.size else 1.0)
    with np.errstate(over="ignore", divide="ignore"):
        weights = 1.0 / (4.0 * mu ** 2 * sigma ** 2 + 2.0 * sigma ** 4)
    # every weight is in [0, inf]: their sum is finite and positive unless one
    # is inf, all are 0, or together they overflow
    if not 0.0 < float(weights.sum()) < math.inf:
        raise IllPosedError("sigma_mu out of range: the weights 1/(4 mu^2 sigma_mu^2 + "
                            "2 sigma_mu^4) overflow, or are zero at every angle")
    coef, design, _, normal_inv, _, sse = _linear_fit(4.0, theta, mu ** 2, weights,
                                                      np.ones_like(theta))
    # angles 45 degrees apart sample cos 4 theta = +-1 only and cannot separate
    # B from C
    if coef is None or not _rank_three(design[1:]):
        raise IllPosedError("pump angles must take at least three distinct values "
                            "of 4 theta modulo 2 pi")
    a, b, c = coef
    r = math.hypot(b, c)
    if r <= _ZERO_CONTRAST * abs(a):
        return FitResult(np.array([math.sqrt(a), 0.0, math.sqrt(0.5)]),
                         np.full((3, 3), np.nan), math.sqrt(sse), 0, False,
                         "unidentifiable: flat visibility curve (eps1 = eps2), "
                         "theta0 is undefined")

    # the slopes of mu_max and u in (A, B, C), taken at the clipped u; a + r > 0:
    # the fitted curve's weighted mean is that of mu^2, not all zero
    r_abc = np.array([0.0, b / r, c / r])  # dR/d(A, B, C)
    a_abc = np.array([1.0, 0.0, 0.0])  # dA/d(A, B, C)
    mu_max = math.sqrt(a + r)
    u = min(2.0 * r / (a + r), 1.0)
    du = (-u * a_abc + (2.0 - u) * r_abc) / (a + r)
    dmu = (a_abc + r_abc) / (2.0 * mu_max)
    eps1 = math.sqrt(0.5 * (1.0 + math.sqrt(u)))
    jac = np.array([dmu,
                    [0.0, -c / (4.0 * r * r), b / (4.0 * r * r)],
                    du / (8.0 * eps1 * math.sqrt(u))])
    cov = jac @ normal_inv @ jac.T * (sse / (theta.size - 3))
    return FitResult(np.array([mu_max, (math.atan2(-c, -b) / 4.0) % (math.pi / 2.0), eps1]),
                     0.5 * (cov + cov.T), math.sqrt(sse), 0, True)


def visibility_curve_params(result: FitResult) -> VisibilityCurveParams:
    """View a fit_visibility_curve result as VisibilityCurveParams."""
    mu_max, theta0, eps1 = result.params
    return VisibilityCurveParams(float(mu_max), float(theta0), float(eps1))
