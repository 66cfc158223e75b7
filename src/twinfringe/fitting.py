"""Least-squares fits of the two fringe-side models.

The double-slit fringe (visibility from one scan) is linear at a fixed
period, so it is fitted by variable projection: a weighted linear solve
inside a Gauss-Newton search over the wavenumber alone.  A stack of scans
that share one period (a pump-angle sweep) is fitted in one call: one
search over the shared wavenumber, with a linear solve per scan.  The
visibility vs pump-angle curve (entanglement sweep) has one fit, of the
curve the coincidence fringe produces: it is linear in
{1, cos 4 theta, sin 4 theta} once mu is squared, so it is one weighted
linear solve whose coefficients map to (mu_max, theta0, eps1) in closed
form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import IllPosedError

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
    """

    mu_max: float
    theta0: float
    eps1: float

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
        """The standard errors, per row of a stack, by _stderr's rule."""
        return _stderr(np.diagonal(self.covariance, axis1=-2, axis2=-1))


def _stderr(var: np.ndarray) -> np.ndarray:
    """The square root of each variance; NaN where one is negative or not finite."""
    return np.sqrt(np.where(np.isfinite(var) & (var >= 0.0), var, math.nan))


def fringe_model(x, p: FringeModelParams):
    """Expected rate c0 * (1 + mu * cos(2*pi*x/period + psi))."""
    scalar = np.ndim(x) == 0
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    out = p.c0 * (1.0 + p.mu * np.cos(2.0 * np.pi * xv / p.period + p.psi))
    return float(out[0]) if scalar else out


def _as_arrays(data):
    """The theta, mu and sigma columns, all finite, of (theta, mu, sigma) rows
    or of the theta, mu and sigma_mu fields of a structured array."""
    if isinstance(data, np.ndarray) and data.dtype.names:
        # the rows as a view of contiguous columns, which the return gives back
        data = np.array([data[name] for name in ("theta", "mu", "sigma_mu")], dtype=float).T
    rows = np.asarray(data, dtype=float)
    if rows.size == 0:
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise IllPosedError(f"data must be (theta, mu, sigma) triples, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise IllPosedError("data contains non-finite values")
    return np.ascontiguousarray(rows.T)


# --- fringe fitting -----------------------------------------------------------

_ZERO_CONTRAST = 1e-9  # hypot(a, b) / |c0| at or below: zero (flat scans leave ~2e-13)


def _contrast(c0: np.ndarray, a: np.ndarray, b: np.ndarray):
    """hypot(a, b) of each row's c0 + a cos kx + b sin kx, and which rows have
    zero contrast: hypot(a, b) at or below _ZERO_CONTRAST |c0|."""
    h = np.hypot(a, b)
    return h, h <= _ZERO_CONTRAST * np.abs(c0)


# below this reciprocal condition number (_rcond) a weighted design does not
# separate its three coefficients: its normal matrix, whose condition number
# is the design's squared, is then above ~1e11 and keeps ~5 of its ~16 digits
# or fewer.  Fringe designs of 61- and 2001-point scans and of fig5 stacks
# read 0.25 or more; the sin column at k_hi reads ~5e-15, and positions packed
# inside one period 0.  Visibility-curve designs read 0.15 or more on fig5
# sweeps and 0.007 or more on 19-angle sweeps of a linear or the default pump,
# where a row of mu ~ 0 weighs ~1/(2 sigma^4); pump angles 1e-9 rad from a
# set 45 degrees apart read ~1e-9.  A design singular to working precision
# reads sqrt(eps) ~ 1e-8 or less, not its true ~1e-16: the computed N^-1 of a
# singular N is then of the order 1 / (eps |N|)
_MIN_RCOND = 1e-6


def _rcond(fit) -> float:
    """The smallest, over the rows of a _linear_fit, reciprocal condition number
    of the weighted design sqrt(W) D' in the Frobenius norm, 1 / (|D| |D^+|),
    from |D|^2 = tr N and |D^+|^2 = tr N^-1 of the normal matrix N = D W D'.
    For three columns it is at most 3 times below the 2-norm's, the ratio of
    the extreme singular values.  The columns are not equilibrated: they share
    t as their unit, and a column that vanishes must read as one.  A solve
    that failed, and an inverse whose trace is not positive and finite, as
    rounding leaves a singular N, read 0.

    It is the one identifiability test of every linear solve, against
    _MIN_RCOND (whose comment gives what scans, stacks and sweeps read): a
    pinned fringe fit's, a free one's at its final period, and the visibility
    curve's (t = 1 and k = 4 on the pump angles)."""
    _, design, weighted, normal_inv = fit[:4]
    if normal_inv is None:
        return 0.0
    # tr N = 2 N_00, since N_11 + N_22 sums w t^2 (cos^2 kx + sin^2 kx) = w t^2;
    # dividing twice keeps the product of the traces from overflowing
    squares = 0.5 / (weighted[..., 0, :] @ design[0]) / np.trace(normal_inv, axis1=-2,
                                                                   axis2=-1)
    smallest = float(squares.min())
    return math.sqrt(smallest) if smallest > 0.0 else 0.0


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (..., n) stacks."""
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def _counting_weights(counts: np.ndarray) -> np.ndarray:
    """The fringe fit's estimator on counting data, Neyman chi-square: each
    bin weighs the inverse of its observed count, floored at one count."""
    return 1.0 / np.maximum(counts, 1.0)


def _dof(m: int, n: int, free: bool) -> int:
    """Degrees of freedom of a fringe fit of an (m, n) stack: the m n data
    less each row's (c0, a, b), less one for a free shared period."""
    return m * (n - 3) - free


def _scan_columns(scan, min_points: int):
    """Positions, observations, weights and integration times of a scan stack,
    by position, and whether the input was one scan rather than a stack.

    A counting scan (a record array with position, counts and
    integration_time fields, such as sample_counts returns) is Poisson data,
    weighted in counts space by the fit's estimator, _counting_weights;
    (position, rate) rows are noise-free curves with unit weights and
    times.  One scan, (n,) records or (n, 2) rows, is the one-row stack; an
    (m, n) record array or an (m, n, 2) rate stack is m scans, which must
    share positions and integration times.  Observations and weights come
    back (m, n), positions and times (n,).  A counting scan's integration
    times must be > 0 with a normal square.
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
        raise IllPosedError("data contains non-finite values")
    if not one_scan and not ((x == x[0]).all() and (t == t[0]).all()):
        raise IllPosedError("scans must share positions and integration times")
    x, t = x[0], t[0]
    if counting:
        # the design rows carry t, so the normal matrix carries t^2, which
        # must not underflow or overflow
        lo, hi = float(t.min()), float(t.max())
        if not (lo > 0.0 and lo * lo >= sys.float_info.min and hi * hi < math.inf):
            raise IllPosedError(f"counting scans need integration_time > 0 with a normal "
                                f"square, ~1.5e-154 to 1.3e154 s (got {lo:.3g} to "
                                f"{hi:.3g} s); fit (position, rate) rows for "
                                f"noise-free curves")
    order = np.argsort(x)
    # take keeps rows C-contiguous, where y[:, order] would not, so a row
    # rounds as it does alone
    y = np.take(y, order, axis=1)
    w = _counting_weights(y) if counting else np.ones_like(y)
    return x[order], y, w, t[order], one_scan, counting


def _dominant_wavenumber(x: np.ndarray, y: np.ndarray) -> float:
    """Wavenumber of the strongest nonzero Fourier component on a uniform resample,
    the amplitude spectra of the rows of y (one scan per row) summed.  The
    resample has the smallest power of two >= max(x.size, 16) points: the FFT
    of a prime length, such as a 61-point scan's, takes several times longer.
    The peak is taken only from bins at or below k_hi = pi (n - 1) / span, the
    top wavenumber the search may reach: the resample's grid is finer than
    the scan's, and bins 31 and 32 of a 61-point scan's 64-point grid lie
    above k_hi.

    The start lies between the peak bin k and its larger neighbour, moved
    from k by that neighbour's share of the two amplitudes (Rife and Vincent's
    two-bin estimator, exact for one complex tone): on a scan of a few fringes
    the integer bin is up to half a bin, ~20% of k, off.  At k = 1 the start
    stays on the bin, since bin 0 holds the rows' means, and so does it at
    the top bin of the band, whose upper neighbour lies beyond k_hi."""
    n = 1 << (max(x.size, 16) - 1).bit_length()
    grid = np.linspace(x[0], x[-1], n)
    # each grid point's fractional index into x, shared by every row, then one
    # linear interpolation of the whole stack between the neighbouring columns
    index = np.interp(grid, x, np.arange(x.size, dtype=np.float64))
    lo = np.minimum(index.astype(np.intp), x.size - 2)
    frac = index - lo
    resampled = y[:, lo] * (1.0 - frac) + y[:, lo + 1] * frac
    # bin j lies at 2 pi j (n - 1) / (n span), at or below k_hi up to this one
    top = n * (x.size - 1) // (2 * (n - 1))
    # a row's mean enters bin 0 alone, which the search for the peak skips
    amplitude = np.abs(np.fft.rfft(resampled)).sum(axis=0)
    k = 1 + int(np.argmax(amplitude[1:top + 1]))
    if 2 <= k < top:
        # amplitude[k] > 0 here: argmax takes the first of equal peaks, bin 1
        # when the spectrum is zero beyond bin 0
        below, peak, above = amplitude[k - 1:k + 2].tolist()
        k += above / (peak + above) if above > below else -below / (below + peak)
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
    _SIGMA_TOL sigma_k, with sigma_k^2 = (SSE / dof) / curvature from the
    summed SSE, the stack's _dof (at least 1) and the summed projected
    curvature at k, so the search stops once the remaining step is ~1% of
    the period's own error.  It starts at k clipped
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
    dof = max(_dof(m, n, True), 1)
    iterations, converged, message = 0, False, ""
    while True:
        coef, design, weighted, normal_inv, resid, _ = fit
        if _contrast(*coef.T)[1].all():
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
    and integration_time fields such as sample_counts returns (Poisson data,
    weighted in counts space by the fit's estimator, _counting_weights), or
    (position, rate) rows (noise-free curves; unit weights in rate space).
    An (m, n) record array or an (m, n, 2) rate stack is m scans that share
    positions and integration times, as the scans of one pump-angle sweep
    do: the geometry fixes the period, and only contrast and phase vary from
    row to row.
    Each row keeps its own (c0, a, b) and weights; one Gauss-Newton search
    over k minimises the summed SSE, starting at start_period or else
    between the peak bin of the summed amplitude spectra and its larger
    neighbour, by the ratio of their amplitudes (_dominant_wavenumber).  It
    ends at a fixed point, where
    the Gauss-Newton step at the current k is below 1% of k's standard error
    or 1e-10 k, whichever is larger (or where no step that large lowers the
    SSE), so a fit started at its own reported period returns it.
    fix_period pins k = 2 pi / period instead (zero period variance) and
    wins over start_period.  One scan is the one-row stack.

    Parameter order is [c0, a, b, period] in rate units, the coefficients of
    c0 + a cos(kx) + b sin(kx) and the period 2 pi / k; fringe_params views
    them as (c0, mu, period, psi) with their errors.  Each row's covariance is
    its block of the inverse of the joint (3m + 1) weighted normal matrix in
    (c0, a, b per row; k), by the Schur complement on k, with k carried to the
    period, and scaled by that row's SSE over its share of the stack's _dof,
    _dof / m (at least 1).  A pinned period has a zero row and column, and so
    does the period of a free fit whose rows all have zero contrast; a
    counting row of zero counts has a NaN covariance.

    Returns params (m, 4) and covariance (m, 4, 4) for a stack, (4,) and
    (4, 4) for one scan; iterations, converged and message describe the
    one search.  converged is True when the search converged (a pinned
    period always does), at least one row has contrast, and every row's
    weighted design separates c0, a and b at the final period: its
    reciprocal condition number is at least _MIN_RCOND (_rcond).  A largest
    rate whose square overflows raises IllPosedError, and so, for a free
    period, does a top wavenumber k = pi (n - 1) / span at which the period's
    error term (2 pi / k^2)^2 is not a normal number, and for a pinned one, a
    design that fails that condition test.
    """
    fixed = fix_period is not None
    x, y, w, t, one_scan, counting = _scan_columns(scan, 3 if fixed else 4)
    rates = y / t
    # the fitted level c0 is of the order of the largest rate, and the delta
    # method of fringe_params squares it
    peak = float(np.abs(rates).max())
    if not peak * peak < math.inf:
        raise IllPosedError(f"{'counts / integration_time' if counting else 'rates'} out of "
                            f"range: the largest rate, {peak:.3g}, has no finite square")
    if not fixed:
        span = float(x[-1]) - float(x[0])
        if span <= 0.0:
            raise IllPosedError("positions must span at least one period to fit a free period")
        # the search reaches the wavenumber pi (n - 1) / span, and the period's
        # error carries (2 pi / k^2)^2, which must not underflow there: that is
        # k^2 <= 2 pi / sqrt(the smallest normal number), ~4.2e154 /m^2
        k_top = math.pi * (x.size - 1) / span
        if not k_top * k_top <= 2.0 * math.pi / math.sqrt(sys.float_info.min):
            raise IllPosedError(f"positions too closely spaced to fit a free period: at the "
                                f"top wavenumber k = pi (n - 1) / span, {k_top:.3g} /m, the "
                                f"period's error term (2 pi / k^2)^2 underflows")

    period = fix_period if fixed else start_period
    if period is not None and not (math.isfinite(period) and period > 0.0):
        raise IllPosedError(f"{'fix_period' if fixed else 'start_period'} must be finite "
                            f"and > 0, got {period!r}")
    k = _dominant_wavenumber(x, rates) if period is None else 2.0 * math.pi / period
    if fixed:
        # inv can return a non-finite inverse, not raise, when the sin column's
        # square underflows, as on subnormal positions
        with np.errstate(invalid="ignore", over="ignore"):
            fit = _linear_fit(k, x, y, w, t)
            if not _rcond(fit) >= _MIN_RCOND:
                raise IllPosedError("the fringe design is singular or ill-conditioned at the "
                                    "pinned period: the positions are too closely spaced or "
                                    "take too few phases")
        q, iterations, converged, message = None, 0, True, ""
    else:
        k, fit, curvature, q, iterations, converged, message = _search_wavenumber(
            k, x, y, w, t)
        period = 2.0 * math.pi / k
        rcond = _rcond(fit)
        if not rcond >= _MIN_RCOND:
            converged, message = False, (
                f"unidentified: at the period {period:.6g} m the weighted design does not "
                f"separate c0, a and b (reciprocal condition number {rcond:.2g})")
    coef, _, _, normal_inv, _, sse = fit
    m, n = y.shape

    cov = np.zeros((m, 4, 4))
    cov[:, :3, :3] = normal_inv
    if q is not None:  # a free search that found contrast in some row
        # Row i's block of the joint (3m + 1) inverse normal matrix is, by the
        # Schur complement on k, N_i^-1 + var_k s_i s_i' in (c0, a, b, period), with
        # var_k = 1 / (summed projected curvature) for k, s_i = (-q_i, -2 pi / k^2)
        # and q_i the shift of (c0, a, b) per unit k (dperiod/dk = -2 pi / k^2).
        var_k = 1.0 / curvature if curvature > 0.0 else math.nan
        s = np.empty((m, 4))
        s[:, :3], s[:, 3] = -q, -2.0 * math.pi / k ** 2
        cov += var_k * (s[:, :, None] * s[:, None, :])
    dof = _dof(m, n, not fixed) / m  # the rows' dof sum to the stack's
    scale = sse * (0.5 / (dof if dof > 0.0 else 1.0))
    if counting:  # a row of zero counts carries no information, c0 included
        scale[~y.any(axis=1)] = math.nan
    cov = (cov + cov.swapaxes(-1, -2)) * scale[:, None, None]

    params = np.empty((m, 4))
    params[:, :3], params[:, 3] = coef, period
    norm = np.sqrt(sse)
    if _contrast(*coef.T)[1].all():
        converged, message = False, "zero contrast: fringe period and phase are undefined"
    if one_scan:
        params, cov, norm = params[0], cov[0], float(norm[0])
    return FitResult(params, cov, norm, iterations, bool(converged), message)


def fringe_params(result: FitResult) -> Tuple[FringeModelParams, FringeModelParams]:
    """The values and standard errors of (c0, mu, period, psi) of a fit_fringe
    result, floats for one scan and (m,) arrays for a stack: mu = hypot(a, b)
    / c0 and psi = atan2(-b, a), with errors by the delta method.  A row of
    zero contrast reads mu = psi = 0 with NaN errors for mu, period and psi,
    as does an error whose variance is negative or not finite."""
    params, cov = result.params.reshape(-1, 4), result.covariance.reshape(-1, 4, 4)
    c0, a, b, period = params.T
    h, flat = _contrast(c0, a, b)
    h[flat] = math.nan  # d (mu, psi) / d (c0, a, b) is undefined, and NaN divides no zero
    c0h, hh = c0 * h, h * h
    grad = np.zeros((len(params), 2, 3))
    grad[:, 0] = np.array((-h / c0 ** 2, a / c0h, b / c0h)).T
    grad[:, 1, 1:] = np.array((b / hh, -a / hh)).T
    var = np.empty((4, len(params)))
    var[0], var[2] = cov[:, 0, 0], np.where(flat, math.nan, cov[:, 3, 3])
    var[1::2] = (grad @ cov[:, :3, :3] * grad).sum(axis=-1).T
    values = np.array((c0, h / c0, period, np.arctan2(-b, a)))
    values[1::2, flat] = 0.0
    errors = _stderr(var)
    if result.params.ndim == 1:
        values, errors = values[:, 0].tolist(), errors[:, 0].tolist()
    return FringeModelParams(*values), FringeModelParams(*errors)


# --- visibility-curve fitting ---------------------------------------------------


def fit_visibility_curve(points) -> FitResult:
    """Fit (mu_max, theta0, eps1) to measured (theta, mu, sigma) triples, or
    to the theta, mu and sigma_mu fields of a sweep table.

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
    every weight is zero, raise IllPosedError naming sigma_mu.  A weighted
    design [1, cos 4 theta, sin 4 theta] whose reciprocal condition number
    (_rcond) is below _MIN_RCOND raises IllPosedError naming 4 theta, as at
    angles where 4 theta takes fewer than three distinct values modulo 2 pi
    (a set 45 degrees apart), angles within ~1e-6 rad of such a set, whose
    normal equations keep too few digits to separate B from C, and weights
    of a few angles ~1e12 times the rest's.  fig5 sweeps read 0.15 or more,
    19-angle sweeps 0.007 or more.  The covariance is the inverse normal matrix
    scaled by SSE / _dof, carried to the parameters by the delta method at
    the clipped u.
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
    fit = _linear_fit(4.0, theta, mu ** 2, weights, np.ones_like(theta))
    rcond = _rcond(fit)
    if not rcond >= _MIN_RCOND:
        raise IllPosedError(f"the weighted design [1, cos 4 theta, sin 4 theta] has "
                            f"reciprocal condition number {rcond:.2g}, below {_MIN_RCOND:g}: "
                            f"the pump angles take fewer than three distinct values of "
                            f"4 theta modulo 2 pi or lie within ~1e-6 rad of such a set, or "
                            f"the weights 1/(4 mu^2 sigma_mu^2 + 2 sigma_mu^4) of a few "
                            f"angles outweigh the rest ~1e12-fold")
    (a, b, c), _, _, normal_inv, _, sse = fit
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
    cov = jac @ normal_inv @ jac.T * (sse / _dof(1, theta.size, False))
    return FitResult(np.array([mu_max, (math.atan2(-c, -b) / 4.0) % (math.pi / 2.0), eps1]),
                     0.5 * (cov + cov.T), math.sqrt(sse), 0, True)


def visibility_curve_params(result: FitResult) -> VisibilityCurveParams:
    """View a fit_visibility_curve result as VisibilityCurveParams."""
    mu_max, theta0, eps1 = result.params
    return VisibilityCurveParams(float(mu_max), float(theta0), float(eps1))
