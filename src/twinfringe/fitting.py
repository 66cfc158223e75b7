"""Least-squares fits of the two fringe-side models.

The double-slit fringe (visibility from one scan) is linear at a fixed
period, so it is fitted by variable projection: a weighted linear solve
inside a Gauss-Newton search over the wavenumber alone.  The visibility vs
pump-angle curve (entanglement sweep) uses damped Gauss-Newton on
numerically differenced Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import IllPosedError

VARIANTS = ("paper", "derived")

_MAX_ITERATIONS = 200  # Gauss-Newton steps before a fit is reported unconverged
_TOL = 1e-10  # relative step and cost decrease that end a fit
_JACOBIAN_STEP = 1e-6  # relative central-difference step of nls_solve's Jacobian
_DAMPING = 1e-3  # nls_solve's starting Levenberg-Marquardt damping


@dataclass(frozen=True)
class FringeModelParams:
    """Double-slit pattern: mean rate, contrast, spatial period, phase offset."""

    c0: float
    mu: float
    period: float
    psi: float = 0.0

    def as_vector(self) -> np.ndarray:
        return np.array([self.c0, self.mu, self.period, self.psi], dtype=float)

    @classmethod
    def from_vector(cls, v) -> "FringeModelParams":
        return cls(float(v[0]), float(v[1]), float(v[2]), float(v[3]))


@dataclass(frozen=True)
class VisibilityCurveParams:
    """Effective-visibility curve over the pump angle.

    mu_max is the instrument ceiling, theta0 the pump-dial offset, eps1 the
    in-phase pump ellipse amplitude (eps2 follows from normalization).  The
    two variants differ in how the pump-ellipticity floor enters:
    'derived' uses sqrt(v1 + v2^2), the fringe amplitude the coincidence
    curve itself produces; 'paper' uses sqrt(v1^2 + v2^2), an alternative
    closed form kept for literal comparison.  The phase-scan oracle agrees
    with 'derived'.
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

    def as_vector(self) -> np.ndarray:
        return np.array([self.mu_max, self.theta0, self.eps1], dtype=float)

    @classmethod
    def from_vector(cls, v, variant: str = "derived") -> "VisibilityCurveParams":
        return cls(float(v[0]), float(v[1]), float(v[2]), variant)


@dataclass
class FitResult:
    """Solver output: parameters, covariance estimate, and bookkeeping."""

    params: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    message: str = ""

    @property
    def stderr(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


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


def numeric_jacobian(func: Callable, x: np.ndarray, params: np.ndarray,
                     step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of func(x, params) with respect to params.

    Per-parameter step is step * max(|p_k|, 1).  Returns shape (len(x), len(params)).
    """
    params = np.asarray(params, dtype=float)
    base = np.atleast_1d(np.asarray(func(x, params), dtype=float))
    jac = np.empty((base.size, params.size), dtype=float)
    for k in range(params.size):
        h = step * max(abs(params[k]), 1.0)
        hi = params.copy()
        lo = params.copy()
        hi[k] += h
        lo[k] -= h
        jac[:, k] = (np.asarray(func(x, hi), dtype=float)
                     - np.asarray(func(x, lo), dtype=float)) / (2.0 * h)
    return jac


def _as_arrays(data):
    rows = np.asarray(data, dtype=float)
    if rows.size == 0:
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"data must be (input, observation, weight) triples, "
                         f"got shape {rows.shape}")
    x, y, w = np.ascontiguousarray(rows.T)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
        raise ValueError("data contains non-finite values")
    if np.any(w < 0.0):
        raise ValueError("weights must be >= 0")
    return x, y, w


def nls_solve(model: Callable, data: Sequence, init: Sequence[float]) -> FitResult:
    """Weighted least squares by damped Gauss-Newton.

    model(x_array, params) must return predictions as an array; data is an
    (n, 3) array or a sequence of (input, observation, weight) triples with
    weights acting as inverse variances.  The step solves
    (J'J + lam*D) d = -J'r with D the floored diagonal of J'J; lam grows
    tenfold on rejected steps and relaxes on accepted ones.  Convergence
    requires both the relative step and the relative residual decrease to
    drop below _TOL; hitting _MAX_ITERATIONS or exhausting the damping returns
    the best parameters found, flagged as unconverged.
    """
    x, y, w = _as_arrays(data)
    p = np.asarray(init, dtype=float).copy()
    if y.size < p.size:
        raise IllPosedError(
            f"{y.size} data points cannot constrain {p.size} parameters")
    sw = np.sqrt(w)

    def residuals(q):
        f = np.atleast_1d(np.asarray(model(x, q), dtype=float))
        if not np.all(np.isfinite(f)):
            raise ValueError("model returned non-finite values")
        return sw * (y - f)

    r = residuals(p)  # non-finite output at the starting point is an input error
    cost = float(r @ r)
    best_p, best_cost = p.copy(), cost
    lam = _DAMPING
    converged = False
    message = ""
    iterations = 0

    for iterations in range(1, _MAX_ITERATIONS + 1):
        jac = -sw[:, None] * numeric_jacobian(model, x, p, step=_JACOBIAN_STEP)
        grad = jac.T @ r
        if np.linalg.norm(grad) <= 1e-14 * max(1.0, cost):
            converged = True
            message = "stationary point"
            break
        hess = jac.T @ jac
        diag = np.diag(hess).copy()
        diag[diag <= 0.0] = 1.0
        dmat = np.diag(diag)

        accepted = False
        delta = None
        cost_new = cost
        for _ in range(30):
            try:
                delta = np.linalg.solve(hess + lam * dmat, -grad)
            except np.linalg.LinAlgError:
                delta = None
            if delta is None or not np.all(np.isfinite(delta)):
                lam *= 10.0
                if lam > 1e12:
                    break
                continue
            try:
                r_try = residuals(p + delta)
                cost_try = float(r_try @ r_try)
            except ValueError:
                cost_try = np.inf
            if np.isfinite(cost_try) and cost_try <= cost:
                accepted = True
                r = r_try
                cost_new = cost_try
                break
            lam *= 10.0
            if lam > 1e12:
                break
        if not accepted:
            message = "damping exhausted: singular or stalled normal equations"
            break

        rel_step = float(np.linalg.norm(delta)) / max(float(np.linalg.norm(p)), 1e-12)
        rel_decrease = (cost - cost_new) / max(cost, 1e-300)
        p = p + delta
        cost = cost_new
        if cost < best_cost:
            best_p, best_cost = p.copy(), cost
        lam = max(lam * 0.1, 1e-13)
        if rel_step < _TOL and rel_decrease < _TOL:
            converged = True
            break

    if cost <= best_cost:
        best_p, best_cost = p.copy(), cost

    jac = -sw[:, None] * numeric_jacobian(model, x, best_p, step=_JACOBIAN_STEP)
    hess = jac.T @ jac
    dof = max(y.size - best_p.size, 1)
    try:
        u, s, vt = np.linalg.svd(hess, full_matrices=False)
        # rank deficient at np.linalg.matrix_rank's default tolerance: some
        # parameter combination leaves the residuals unchanged
        singular = s[-1] <= s[0] * s.size * np.finfo(float).eps
    except np.linalg.LinAlgError:
        singular = True
    if singular:
        cov = np.full((best_p.size, best_p.size), np.nan)
        converged = False
        message = (message + "; " if message else "") + \
            "unidentifiable: singular Hessian at the solution, covariance undefined"
    else:
        # the pseudo-inverse of np.linalg.pinv, from the same decomposition
        cov = (vt.T @ ((1.0 / s)[:, None] * u.T)) * (best_cost / dof)
    cov = 0.5 * (cov + cov.T)
    return FitResult(params=best_p, covariance=cov,
                     residual_norm=math.sqrt(best_cost),
                     iterations=iterations, converged=converged, message=message)


# --- fringe fitting -----------------------------------------------------------

_ZERO_CONTRAST = 1e-9  # hypot(a, b) / |c0| at or below: zero (flat scans leave ~2e-13)


def _dominant_wavenumber(x: np.ndarray, y: np.ndarray) -> float:
    """Wavenumber of the strongest nonzero Fourier component, on a uniform resample."""
    n = max(x.size, 16)
    grid = np.linspace(x[0], x[-1], n)
    resampled = np.interp(grid, x, y)
    spectrum = np.abs(np.fft.rfft(resampled - resampled.mean()))
    k = 1 + int(np.argmax(spectrum[1:]))
    return 2.0 * math.pi * k / (grid[-1] - grid[0]) * (n - 1) / n


def _linear_fit(k: float, x: np.ndarray, y: np.ndarray, w: np.ndarray, t: np.ndarray):
    """Weighted least squares for (c0, a, b) in t * (c0 + a cos kx + b sin kx).

    Returns the coefficients, the design, its inverse weighted normal matrix
    and the weighted SSE; coefficients None and SSE inf if singular.
    """
    design = np.column_stack((t, t * np.cos(k * x), t * np.sin(k * x)))
    weighted = design * w[:, None]
    try:
        normal_inv = np.linalg.inv(design.T @ weighted)
    except np.linalg.LinAlgError:
        return None, design, None, math.inf
    coef = normal_inv @ (weighted.T @ y)
    resid = y - design @ coef
    return coef, design, normal_inv, float(resid @ (w * resid))


def fit_fringe(scan, fix_period: Optional[float] = None,
               init_overrides: Optional[dict] = None) -> FitResult:
    """Fit the double-slit pattern to one scan and report its visibility.

    Accepts either a counting scan, a record array with position, counts
    and integration_time fields such as sample_counts returns (Poisson data;
    weights are 1/max(counts, 1) in counts space), or (position, rate) rows
    (noise-free curves; unit weights in rate space).  Parameter order is
    [c0, mu, period, psi] in rate units, with mu = hypot(a, b) / c0 and
    psi = atan2(-b, a) from the linear coefficients of c0 + a cos(kx) +
    b sin(kx).  fix_period pins k = 2 pi / period (zero period variance); a
    free k starts at the FFT peak or at init_overrides["period"].  A zero
    contrast reports mu = psi = 0 with NaN errors for mu, period and psi, unconverged.
    """
    if isinstance(scan, np.ndarray) and scan.dtype.names:
        x = scan["position"].astype(float)
        y = scan["counts"].astype(float)
        t = scan["integration_time"].astype(float)
        if np.any(t <= 0.0):
            raise IllPosedError("counting scans need integration_time > 0; "
                                "fit (position, rate) rows for noise-free curves")
        weights = 1.0 / np.maximum(y, 1.0)
    else:
        x, y = np.asarray(scan, dtype=float).reshape(len(scan), 2).T
        t = weights = np.ones_like(x)

    fixed = fix_period is not None
    n_params = 3 if fixed else 4
    if x.size < n_params:
        raise IllPosedError(f"need at least {n_params} points")
    order = np.argsort(x)
    x, y, w = _as_arrays(np.column_stack((x, y, weights))[order])
    t = t[order]
    if not fixed and x[-1] - x[0] <= 0.0:
        raise IllPosedError("positions must span at least one period to fit a free period")

    unknown = set(init_overrides or {}) - {"period"}
    if unknown:
        raise ValueError(f"fringe init overrides take 'period' only (c0, mu and psi "
                         f"are solved in closed form), got {sorted(unknown)}")
    period = fix_period if fixed else (init_overrides or {}).get("period")
    if period is not None and not (math.isfinite(period) and period > 0.0):
        raise ValueError(f"period must be finite and > 0, got {period!r}")
    k = _dominant_wavenumber(x, y / t) if period is None else 2.0 * math.pi / period

    coef, design, normal_inv, sse = _linear_fit(k, x, y, w, t)
    if coef is None:
        raise IllPosedError("the fringe design is singular at the starting period")
    iterations, converged, message = 0, fixed, ""
    while True:
        c0, a, b = coef
        h = math.hypot(a, b)
        jk = x * (b * design[:, 1] - a * design[:, 2])  # d model / dk at fixed (c0, a, b)
        flat = h <= _ZERO_CONTRAST * abs(c0)
        if converged or flat:
            break
        if iterations == _MAX_ITERATIONS:
            message = "iteration limit reached"
            break
        iterations += 1
        wjk = w * jk
        proj = design.T @ wjk
        curvature = float(jk @ wjk - proj @ normal_inv @ proj)  # Kaufman's projected J'J
        step = float(wjk @ (y - design @ coef)) / curvature if curvature > 0.0 else math.nan
        if not math.isfinite(step):
            message = "singular curvature in the period search"
            break
        trial = _linear_fit(abs(k + step), x, y, w, t)
        while not trial[3] <= sse and abs(step) >= _TOL * k:
            step *= 0.5
            trial = _linear_fit(abs(k + step), x, y, w, t)
        decrease = 0.0  # a rejected step is below the step tolerance
        if trial[3] <= sse:
            decrease = (sse - trial[3]) / max(sse, 1e-300)
            k, (coef, design, normal_inv, sse) = abs(k + step), trial
        converged = abs(step) < _TOL * k and decrease < _TOL

    dof = max(y.size - n_params, 1)
    period = fix_period if fixed else 2.0 * math.pi / k
    if flat:
        cov = np.full((4, 4), np.nan)
        cov[0, 0] = normal_inv[0, 0] * sse / dof
        return FitResult(np.array([c0, 0.0, period, 0.0]), cov, math.sqrt(sse), iterations,
                         False, "zero contrast: fringe period and phase are undefined")
    grad = np.array([[1.0, 0.0, 0.0, 0.0],
                     [-h / c0 ** 2, a / (c0 * h), b / (c0 * h), 0.0],
                     [0.0, 0.0, 0.0, -2.0 * math.pi / k ** 2],
                     [0.0, b / h ** 2, -a / h ** 2, 0.0]])
    jac = design if fixed else np.column_stack((design, jk))
    try:
        lin_cov = np.linalg.inv(jac.T @ (w[:, None] * jac))
    except np.linalg.LinAlgError:
        lin_cov = np.full((jac.shape[1],) * 2, np.nan)
    cov = grad[:, :jac.shape[1]] @ lin_cov @ grad[:, :jac.shape[1]].T * (sse / dof)
    return FitResult(np.array([c0, h / c0, period, math.atan2(-b, a)]), 0.5 * (cov + cov.T),
                     math.sqrt(sse), iterations, converged, message)


def fringe_params(result: FitResult) -> FringeModelParams:
    """View a fit_fringe result as FringeModelParams."""
    return FringeModelParams.from_vector(result.params)


# --- visibility-curve fitting ---------------------------------------------------


def _invert_floor(ratio: float, variant: str) -> float:
    """eps1 whose visibility floor over ceiling equals ratio."""
    ratio = min(max(ratio, 0.0), 1.0 - 1e-12)
    level = ratio if variant == "derived" else math.sqrt(ratio)
    e2sq = 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - level * level)))
    return math.sqrt(1.0 - e2sq)


def fit_visibility_curve(points, variant: str = "derived",
                         init_overrides: Optional[dict] = None) -> FitResult:
    """Fit (mu_max, theta0, eps1) to measured (theta, mu, sigma) triples.

    Weights are 1/sigma^2 (zero sigmas are floored at the smallest positive
    one, or unity if none).  The fitted eps1 is folded into [1/sqrt(2), 1] so
    eps1 >= eps2; the curve depends on the pump amplitudes only through the
    unordered pair, so this costs no generality.  theta0 is reported modulo
    pi; note the curve itself is pi/2-periodic in theta0.  init_overrides
    may pin starting values by name (mu_max, theta0, eps1).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    pts = [(float(t), float(m), float(s)) for t, m, s in points]
    if len(pts) < 4:
        raise IllPosedError("need at least 4 (theta, mu, sigma) points")
    theta = np.array([t for t, _, _ in pts])
    mu = np.array([m for _, m, _ in pts])
    sigma = np.array([s for _, _, s in pts])
    if theta.max() - theta.min() < math.pi / 2.0 - 1e-9:
        raise IllPosedError("pump angles must span at least half a period (pi/2)")
    positive = sigma[sigma > 0.0]
    floor = float(positive.min()) if positive.size else 1.0
    sigma = np.where(sigma > 0.0, sigma, floor)
    weights = 1.0 / sigma ** 2

    overrides = dict(init_overrides or {})
    unknown = set(overrides) - {"mu_max", "theta0", "eps1"}
    if unknown:
        raise ValueError(f"unknown visibility-curve init overrides: {sorted(unknown)}")
    mu_max0 = float(overrides.get("mu_max", np.max(mu)))
    theta00 = float(overrides.get("theta0", theta[np.argmin(mu)]))
    ratio = float(np.min(mu)) / mu_max0 if mu_max0 > 0.0 else 0.0
    eps10 = float(overrides.get("eps1", _invert_floor(ratio, variant)))

    def model(tv, q):
        return mu_eff_model(tv, VisibilityCurveParams(q[0], q[1], q[2], variant))

    result = nls_solve(model, np.column_stack((theta, mu, weights)),
                       [mu_max0, theta00, eps10])

    q = result.params.copy()
    cov = result.covariance.copy()
    transform = np.ones_like(q)
    if q[0] < 0.0:
        q[0] = -q[0]
        transform[0] = -1.0
    e1 = min(abs(q[2]), 1.0)
    if q[2] < 0.0:
        transform[2] *= -1.0
    if e1 < math.sqrt(0.5):
        swapped = math.sqrt(1.0 - e1 * e1)
        if swapped > 0.0 and e1 > 0.0:
            transform[2] *= -e1 / swapped  # delta-method rescale for the branch swap
        e1 = swapped
    q[2] = e1
    q[1] = q[1] % math.pi
    cov = cov * np.outer(transform, transform)

    message = result.message
    if abs(q[2] ** 2 - 0.5) < 1e-6:
        message = (message + "; " if message else "") + \
            "boundary: eps1 ~ eps2, floor indistinguishable from ceiling"
    return FitResult(params=q, covariance=cov, residual_norm=result.residual_norm,
                     iterations=result.iterations, converged=result.converged,
                     message=message)


def visibility_curve_params(result: FitResult, variant: str = "derived") -> VisibilityCurveParams:
    """View a fit_visibility_curve result as VisibilityCurveParams."""
    return VisibilityCurveParams.from_vector(result.params, variant)
