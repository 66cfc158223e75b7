import dataclasses
import json
import math

import numpy as np
import pytest

from twinfringe.cli import main, write_scan_csv
from twinfringe.config import (config_from_dict, config_to_dict, default_config,
                               entangled_sweep_config)
from twinfringe.detection import expected_scan, sample_counts
from twinfringe.errors import IllPosedError
from twinfringe.fitting import (FitResult, FringeModelParams,
                                VisibilityCurveParams, _dominant_wavenumber, fit_fringe,
                                fit_visibility_curve,
                                fringe_model, fringe_params, visibility_curve_params)
from twinfringe import fitting, pipeline
from twinfringe.pipeline import (reproduce_fig5, simulate_scan, sweep_pump_angle,
                                 theta0_distance)
from twinfringe.polarization import (DIAGONAL, HORIZONTAL, VERTICAL,
                                     PolarizationAngle, PumpState)
from twinfringe.spdc import (TwoPhotonState, build_two_photon_state, default_source,
                             predicted_visibility_with_analyzers)

SQ2 = math.sqrt(2.0)
ANA45 = (DIAGONAL, DIAGONAL)
EPS2 = 0.08
EPS1 = math.sqrt(1 - EPS2 ** 2)


class TestFringeModel:
    def test_zero_contrast_is_flat(self):
        p = FringeModelParams(c0=7.0, mu=0.0, period=1e-3, psi=0.3)
        x = np.linspace(-1e-2, 1e-2, 50)
        assert np.max(np.abs(fringe_model(x, p) - 7.0)) < 1e-12

    def test_peak_value(self):
        p = FringeModelParams(c0=10.0, mu=0.4, period=1e-3, psi=0.0)
        assert fringe_model(0.0, p) == pytest.approx(14.0)


class TestFitResult:
    def test_negative_or_non_finite_variance_reads_nan(self):
        for variance in (-1e-12, math.inf, math.nan):
            fit = FitResult(np.array([1.0, 0.5, 0.0, 1e-3]),
                            np.diag([4.0, 1.0, 1.0, variance]), 0.0, 0, True)
            errors = fringe_params(fit)[1]
            assert errors.c0 == 2.0
            assert math.isnan(errors.period)


def make_noiseless_scan(params, n=61, span=12e-3):
    x = np.linspace(-span / 2, span / 2, n)
    return list(zip(x, fringe_model(x, params)))


# The fringe fit's estimator, stated once for every referee below.  It is
# Neyman chi-square: a counting bin weighs the inverse of its count, floored
# at one count, and a row's covariance is scaled by its weighted SSE over its
# share of the stack's degrees of freedom (the visibility-curve referee takes
# the same scale).  Each referee of a counting fit takes its weights from
# referee_weights at the model of the fit's reported (c0, a, b, period),
# referee_model, and checks what holds whatever the weight rule: the reported
# coefficients and covariance solve the weighted normal equations at the
# weights the fit used.  A rule that reads the model, such as the Poisson
# likelihood's 1 / model, then changes referee_weights alone.  Nothing here
# comes from twinfringe.fitting, so that the referees check the fit rather
# than restate it.

def referee_weights(counts, model):
    """The weight of each counting bin at the fitted model counts: 1 /
    max(counts, 1), which does not read the model."""
    return 1.0 / np.maximum(np.asarray(counts, dtype=float), 1.0)


def referee_dof(n, m, free):
    """A row's share of the (m, n) stack's m (n - 3) degrees of freedom, less
    one for a free shared period."""
    return (m * (n - 3) - free) / m


def referee_scale(resid, w, m, free):
    """The weighted SSE of each row of residuals, (n,) or (m, n), over its
    referee_dof."""
    return (w * resid * resid).sum(axis=-1) / referee_dof(np.shape(resid)[-1], m, free)


def referee_design(x, t, k):
    """The (n, 3) design t [1, cos kx, sin kx] of t (c0 + a cos kx + b sin kx)."""
    return t[:, None] * np.column_stack((np.ones_like(x), np.cos(k * x), np.sin(k * x)))


def referee_model(x, t, params):
    """A row's model counts t (c0 + a cos kx + b sin kx) at a fit's reported
    (c0, a, b, period), with k = 2 pi / period."""
    c0, a, b, period = params
    return referee_design(x, t, 2.0 * math.pi / period) @ np.array([c0, a, b])


def referee_solve(x, t, y, params):
    """(c0, a, b) that solve the weighted normal equations of the counts y of
    one scan at the period of a fit's reported params, with the weights
    referee_weights gives at their model; with the (n, 3) design, the weights
    and the residuals of the solution."""
    design = referee_design(x, t, 2.0 * math.pi / params[3])
    y = np.asarray(y, dtype=float)
    w = referee_weights(y, referee_model(x, t, params))
    coef = np.linalg.solve(design.T @ (w[:, None] * design), design.T @ (w * y))
    return coef, design, w, y - design @ coef


def referee_curve_design(theta, mu, sigma):
    """The visibility curve's (n, 3) design [1, cos 4 theta, sin 4 theta] and
    its weights on mu^2, 1 / var(mu^2) = 1 / (4 mu^2 sigma^2 + 2 sigma^4)."""
    design = np.column_stack((np.ones_like(theta), np.cos(4.0 * theta), np.sin(4.0 * theta)))
    return design, 1.0 / (4.0 * mu ** 2 * sigma ** 2 + 2.0 * sigma ** 4)


def referee_rcond(design, w):
    """The reciprocal condition numbers of the weighted design sqrt(w) D, from
    its singular values s: in the Frobenius norm, 1 / sqrt(sum s^2 sum s^-2),
    and in the 2-norm, s_min / s_max; both 0 where s_min is."""
    s = np.linalg.svd(np.sqrt(w)[:, None] * design, compute_uv=False)
    with np.errstate(divide="ignore"):
        return 1.0 / math.sqrt((s ** 2).sum() * (s ** -2.0).sum()), s[-1] / s[0]


class TestFitFringe:
    def test_noiseless_round_trip(self):
        truth = FringeModelParams(c0=55.0, mu=0.83, period=5e-3, psi=0.7)
        fit = fit_fringe(make_noiseless_scan(truth))
        assert fit.converged
        got = fringe_params(fit)[0]
        for name in ("c0", "mu", "period", "psi"):
            assert getattr(got, name) == pytest.approx(
                getattr(truth, name), rel=1e-6), name

    def test_fix_period(self):
        truth = FringeModelParams(c0=40.0, mu=0.5, period=5e-3, psi=-0.4)
        fit = fit_fringe(make_noiseless_scan(truth), fix_period=5e-3)
        got = fringe_params(fit)[0]
        assert got.period == 5e-3
        assert got.mu == pytest.approx(0.5, abs=1e-9)
        assert got.psi == pytest.approx(-0.4, abs=1e-9)

    def test_negative_contrast_folds_into_phase(self):
        # data built with mu < 0 must come back with mu >= 0 and a pi shift
        truth = FringeModelParams(c0=30.0, mu=-0.6, period=4e-3, psi=0.2)
        fit = fit_fringe(make_noiseless_scan(truth))
        got = fringe_params(fit)[0]
        assert got.mu == pytest.approx(0.6, abs=1e-7)
        assert math.cos(got.psi) == pytest.approx(math.cos(0.2 + math.pi), abs=1e-6)

    def test_poisson_counts_recover_contrast_within_three_sigma(self):
        truth = FringeModelParams(c0=54.9, mu=0.82, period=5e-3, psi=0.0)
        x = np.linspace(-6e-3, 6e-3, 61)
        rates = fringe_model(x, truth)
        hits = 0
        trials = 120
        for seed in range(trials):
            records = sample_counts(list(zip(x, rates)), 10.0, seed=seed)
            fit = fit_fringe(records)
            p, se = fringe_params(fit)
            if abs(p.mu - truth.mu) <= 3 * se.mu:
                hits += 1
        assert hits >= int(0.95 * trials)

    def test_quadrature_pump_floor_visibility(self):
        # single-crystal pumping with a 0.08 quadrature component leaves a
        # residual fringe near 0.123 through a 0.77-ceiling instrument
        state = TwoPhotonState(complex(EPS1), complex(EPS2 * 1j), VERTICAL, HORIZONTAL)
        x = np.linspace(-6e-3, 6e-3, 61)
        phases = 2 * np.pi * x / 5e-3
        from twinfringe.spdc import coincidence_probability
        c = coincidence_probability(state, phases, *ANA45)
        mean = float(np.mean(c))
        rates = 100.0 * (mean + 0.77 * (c - mean)) / c.max()
        fit = fit_fringe(list(zip(x, rates)))
        assert 0.10 <= fringe_params(fit)[0].mu <= 0.15
        records = sample_counts(list(zip(x, rates)), 10.0, seed=2)
        noisy = fringe_params(fit_fringe(records))[0].mu
        assert 0.09 <= noisy <= 0.16

    def test_invariant_under_uniform_count_rescaling(self):
        truth = FringeModelParams(c0=54.9, mu=0.82, period=5e-3, psi=0.1)
        x = np.linspace(-6e-3, 6e-3, 61)
        records = sample_counts(list(zip(x, fringe_model(x, truth))), 10.0, seed=5)
        scaled = records.copy()
        scaled.expected_rate *= 10
        scaled.counts *= 10
        mu_a = fringe_params(fit_fringe(records))[0].mu
        mu_b = fringe_params(fit_fringe(scaled))[0].mu
        assert abs(mu_a - mu_b) < 1e-9

    def test_too_few_points(self):
        truth = FringeModelParams(c0=10.0, mu=0.5, period=1e-3, psi=0.0)
        with pytest.raises(IllPosedError):
            fit_fringe(make_noiseless_scan(truth, n=3))
        with pytest.raises(IllPosedError):
            fit_fringe(make_noiseless_scan(truth, n=2), fix_period=1e-3)

    def test_zero_span_rejected_for_free_period(self):
        with pytest.raises(IllPosedError):
            fit_fringe([(0.0, 1.0), (0.0, 2.0), (0.0, 1.5), (0.0, 1.2)])

    @staticmethod
    def counting_covariance(records, params, free):
        """Gauss-Newton covariance of (c0, a, b[, period]) at a fit's reported
        params, from the model's analytic Jacobian in counts space, with the
        weights referee_weights gives at their model."""
        x = np.array([r.position for r in records])
        y = np.array([r.counts for r in records], dtype=float)
        t = np.array([r.integration_time for r in records])
        _, a, b, period = params
        model = referee_model(x, t, params)
        w = referee_weights(y, model)
        phase = 2.0 * np.pi * x / period
        cols = [np.ones_like(x), np.cos(phase), np.sin(phase)]
        if free:
            cols.append((a * np.sin(phase) - b * np.cos(phase)) * 2.0 * np.pi * x / period ** 2)
        jac = t[:, None] * np.column_stack(cols)
        return np.linalg.inv(jac.T @ (w[:, None] * jac)) * referee_scale(y - model, w, 1, free)

    def test_pinned_period_equals_weighted_normal_equations(self):
        truth = FringeModelParams(c0=54.9, mu=0.82, period=5e-3, psi=0.3)
        x = np.linspace(-6e-3, 6e-3, 61)
        records = sample_counts(list(zip(x, fringe_model(x, truth))), 10.0, seed=11)
        fit = fit_fringe(records, fix_period=5e-3)
        c0, a, b = referee_solve(x, records.integration_time, records.counts, fit.params)[0]
        cov = self.counting_covariance(records, fit.params, free=False)
        assert fit.converged
        assert fit.params[3] == 5e-3
        assert np.allclose(fit.params[:3], [c0, a, b], rtol=1e-12, atol=0.0)
        assert np.allclose(fit.covariance[:3, :3], cov, rtol=1e-9, atol=0.0)
        assert np.all(fit.covariance[3] == 0.0) and np.all(fit.covariance[:, 3] == 0.0)

    def test_free_period_agrees_with_pinned_fit_at_its_period(self):
        truth = FringeModelParams(c0=5.49, mu=0.82, period=5e-3, psi=-1.1)
        x = np.linspace(-6e-3, 6e-3, 61)
        for seed in range(5):
            records = sample_counts(list(zip(x, fringe_model(x, truth))), 10.0, seed=seed)
            free = fit_fringe(records)
            pinned = fit_fringe(records, fix_period=free.params[3])
            assert free.converged and pinned.converged
            assert np.allclose(free.params[:3], pinned.params[:3],
                               rtol=1e-8, atol=1e-10)
            cov = self.counting_covariance(records, free.params, free=True)
            assert np.allclose(free.covariance, cov, rtol=1e-7, atol=0.0)

    @pytest.mark.parametrize("fix_period", [None, 5e-3])
    def test_low_count_fit_is_the_referee_fit(self, fix_period):
        # ~5 counts per peak: most bins read 0 to 4 counts, where the weight's
        # floor at one count decides how much each weighs
        config = default_config()
        config = dataclasses.replace(
            config, scan=dataclasses.replace(config.scan, peak_rate=0.5))
        checked = 0
        for seed in range(10):
            scan = simulate_scan(config, seed=seed)
            assert np.count_nonzero(scan.counts < 5) > len(scan) // 2
            fit = fit_fringe(scan, fix_period=fix_period)
            if not fit.converged:
                continue
            checked += 1
            c0, a, b = referee_solve(scan.position, scan.integration_time, scan.counts,
                                     fit.params)[0]
            assert np.allclose(fit.params[:3], [c0, a, b], rtol=1e-8, atol=1e-10)
            free = fix_period is None
            size = 4 if free else 3
            cov = self.counting_covariance(scan, fit.params, free=free)
            assert np.allclose(fit.covariance[:size, :size], cov, rtol=1e-7, atol=0.0)
        assert checked >= 8

    @pytest.mark.parametrize("fix_period", [None, 5e-3])
    @pytest.mark.parametrize("rate, counting", [(42.0, False), (0.0, True)])
    def test_flat_scan_reports_zero_contrast_unconverged(self, fix_period, rate, counting):
        # a constant noise-free rate, and a counting scan of all-zero counts
        scan = [(pos, rate) for pos in np.linspace(-6e-3, 6e-3, 61)]
        if counting:
            scan = sample_counts(scan, 10.0, seed=0)
        fit = fit_fringe(scan, fix_period=fix_period)
        assert not fit.converged
        assert "zero contrast" in fit.message
        p, se = fringe_params(fit)
        assert p.c0 == pytest.approx(rate, abs=1e-12)
        assert p.mu == 0.0
        assert not np.isfinite(se.period) and not np.isfinite(se.psi)
        if counting:  # zero counts carry no information on the mean rate either
            assert not np.isfinite(se.c0)

    def test_period_must_be_finite_and_positive(self):
        scan = make_noiseless_scan(FringeModelParams(c0=10.0, mu=0.5, period=5e-3))
        for bad in (0.0, -5e-3, math.nan, math.inf):
            with pytest.raises(IllPosedError, match="fix_period must be finite and > 0"):
                fit_fringe(scan, fix_period=bad)
            with pytest.raises(IllPosedError, match="start_period must be finite and > 0"):
                fit_fringe(scan, start_period=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_data_raises(self, column, bad):
        rows = np.array(make_noiseless_scan(FringeModelParams(c0=10.0, mu=0.5, period=5e-3)))
        rows[7, column] = bad
        with pytest.raises(IllPosedError, match="non-finite"):
            fit_fringe(rows)

    def test_init_overrides(self, tmp_path, capsys):
        truth = FringeModelParams(c0=55.0, mu=0.8, period=5e-3, psi=0.0)
        fit = fit_fringe(make_noiseless_scan(truth), start_period=5.2e-3)
        assert fringe_params(fit)[0].period == pytest.approx(5e-3, rel=1e-6)
        pinned = fit_fringe(make_noiseless_scan(truth), fix_period=5e-3, start_period=1.0)
        assert fringe_params(pinned)[0].period == 5e-3  # a pinned period wins
        # the command line starts the search at a period and at nothing else
        scan = tmp_path / "scan.csv"
        write_scan_csv(simulate_scan(default_config(), seed=0), str(scan))
        for name in ("bogus", "c0", "mu", "psi"):
            assert main(["fit", str(scan), "--model", "fringe", "--init", f"{name}=1.0",
                         "--output", str(tmp_path / "r.json")]) == 2
            assert "'period' only" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


    @pytest.mark.parametrize("seed", [737, 757, 1293])
    def test_period_search_stays_in_the_resolved_band(self, seed):
        # ~5-count scans whose free fits converge near the 5 mm period; started
        # at the 12 mm span, the band's lower edge, the search is pulled
        # towards periods of metres
        config = default_config()
        config = dataclasses.replace(
            config, scan=dataclasses.replace(config.scan, peak_rate=0.5))
        scan = simulate_scan(config, seed=seed)
        free = fit_fringe(scan)
        assert free.converged and abs(free.params[3] / 5e-3 - 1.0) <= 0.2
        fit = fit_fringe(scan, start_period=0.012)
        span = scan.position.max() - scan.position.min()
        k = 2.0 * math.pi / fringe_params(fit)[0].period
        assert not fit.converged
        assert "wavenumbers the scan resolves" in fit.message
        assert all(error != 0.0 for error in dataclasses.astuple(fringe_params(fit)[1]))
        assert 2.0 * math.pi / span * (1 - 1e-12) <= k
        assert k <= math.pi * (len(scan) - 1) / span * (1 + 1e-12)


def joint_covariance(scans, params, free=True, sse=None):
    """Brute force: per-row blocks of the inverse of the full weighted normal
    matrix in (c0, a, b per row; k if free) at a fit's reported (m, 4)
    params, each scaled by the row's referee_scale, as 4 x 4 blocks in (c0,
    a, b, period) with k carried to the period 2 pi / k, and a zero period
    row and column when pinned.  scans is an (m, n) counting stack, weighted
    by referee_weights at each row's model, or an (m, n, 2) stack of
    (position, rate) rows with unit weights and times; a counting row of zero
    counts carries no information, and its block is NaN.  sse, the rows'
    weighted SSE, takes the place of the referee's own: on noise-free and
    flat rows the residuals are rounding, which no two solves share."""
    coef, k = params[:, :3], 2.0 * math.pi / params[0, 3]
    if scans.dtype.names:
        x, t = scans.position[0], scans.integration_time[0]
        y = scans.counts.astype(float)
        w = np.array([referee_weights(row, referee_model(x, t, p))
                      for row, p in zip(y, params)])
    else:
        x, y = scans[0, :, 0], scans[..., 1]
        t, w = np.ones_like(x), np.ones_like(y)
    m, n = y.shape
    design = referee_design(x, t, k)
    jac = np.zeros((m * n, 3 * m + free))
    for i, (c0, a, b) in enumerate(coef):
        rows = slice(i * n, (i + 1) * n)
        jac[rows, 3 * i:3 * i + 3] = design
        if free:
            jac[rows, -1] = x * (b * design[:, 1] - a * design[:, 2])
    inverse = np.linalg.inv(jac.T @ (w.reshape(-1, 1) * jac))
    to_period = np.diag([1.0, 1.0, 1.0, -2.0 * math.pi / k ** 2])  # d (c0, a, b, period) / dk
    blocks = np.zeros((m, 4, 4))
    for i in range(m):
        keep = [3 * i, 3 * i + 1, 3 * i + 2] + ([3 * m] if free else [])
        resid = y[i] - design @ coef[i]
        scale = (referee_scale(resid, w[i], m, free) if sse is None
                 else sse[i] / referee_dof(n, m, free))
        size = len(keep)
        blocks[i, :size, :size] = inverse[np.ix_(keep, keep)] * scale
        blocks[i] = to_period @ blocks[i] @ to_period
        if scans.dtype.names and not y[i].any():
            blocks[i] = math.nan
    return blocks


def to_fringe_covariance(lin_cov, coef):
    """Delta method from (c0, a, b, period) to (c0, mu, period, psi)."""
    c0, a, b = coef
    h = math.hypot(a, b)
    grad = np.array([[1.0, 0.0, 0.0, 0.0],
                     [-h / c0 ** 2, a / (c0 * h), b / (c0 * h), 0.0],
                     [0.0, 0.0, 0.0, 1.0],
                     [0.0, b / h ** 2, -a / h ** 2, 0.0]])
    return grad @ lin_cov @ grad.T


def referee_start_gains(x, y):
    """Brute force for _dominant_wavenumber's grid and gains.  Each row of y is
    resampled by its own np.interp onto n = x.size uniform points over the
    span.  The grid is the wavenumbers 2 pi j (n - 1) / (L span) for j from
    ceil(L / (n - 1)) to L / 2 - 1, with L the smallest power of two >= 2 n:
    2 pi / span up to, but not at, pi (n - 1) / span.  At each, every row is
    fitted by np.linalg.lstsq on [1, cos kx, sin kx], and the gain is the
    drop from the rows' SSE about their means to their summed SSE.  Returns
    the grid and the gains."""
    n = x.size
    length = 2
    while length < 2 * n:
        length *= 2
    grid = np.linspace(x[0], x[-1], n)
    rows = np.array([np.interp(grid, x, row) for row in y]).T
    about_means = ((rows - rows.mean(axis=0)) ** 2).sum()
    ks = (2.0 * math.pi * np.arange(math.ceil(length / (n - 1)), length // 2) * (n - 1)
          / (length * (grid[-1] - grid[0])))
    gains = []
    for k in ks:
        design = np.column_stack((np.ones(n), np.cos(k * grid), np.sin(k * grid)))
        coef = np.linalg.lstsq(design, rows, rcond=None)[0]
        gains.append(about_means - ((rows - design @ coef) ** 2).sum())
    return ks, np.array(gains)


def assert_start_is_the_largest_gain(x, y):
    """_dominant_wavenumber is a point of the referee's grid, to rounding, whose
    gain is the largest; gains tied with it within 1e-12 relative may win."""
    ks, gains = referee_start_gains(x, y)
    got = _dominant_wavenumber(x, y)
    i = int(np.argmin(np.abs(ks - got)))
    assert got == pytest.approx(ks[i], rel=1e-12)
    assert gains[i] >= gains.max() * (1.0 - 1e-12)


def fringe_stack(rng, x, m):
    """m counting rows of a random-period fringe on the positions x."""
    span = x[-1] - x[0]
    period = span / rng.uniform(0.6, max(2.0, x.size / 3.0))
    mu = rng.uniform(0.0, 1.0, (m, 1))
    phase = rng.uniform(0.0, 2.0 * math.pi, (m, 1))
    rate = rng.uniform(0.5, 200.0) * (1.0 + mu * np.cos(2.0 * math.pi * x / period + phase))
    return rng.poisson(rate).astype(float)


class TestStartWavenumber:
    """_dominant_wavenumber resamples a stack with one np.interp of the
    fractional index, and starts at the grid point where one sinusoid and a
    floating mean, fitted to each row, lower the summed SSE the most; a
    brute-force least-squares fit at each grid point is the referee."""

    @pytest.mark.parametrize("n, m, layout", [
        (4, 3, "uniform"), (9, 1, "uniform"), (15, 5, "uniform"),
        (16, 2, "uniform"), (61, 19, "uniform"), (61, 1, "uniform"),
        (12, 4, "random"), (61, 19, "random"), (200, 3, "random"),  # non-uniform positions
        (8, 2, "repeated"), (61, 19, "repeated"), (30, 1, "repeated"),
    ])
    def test_start_is_the_referees_largest_gain(self, n, m, layout):
        rng = np.random.default_rng(n * 100 + m)
        # the referee's cost grows as n^2, so longer scans take fewer draws
        for _ in range(min(200, 4000 // n)):
            if layout == "uniform":
                x = np.linspace(-6e-3, 6e-3, n)
            else:
                x = np.sort(rng.uniform(-6e-3, 6e-3, n))
                if layout == "repeated":  # a run of equal positions, the last one too
                    i = int(rng.integers(0, n - 2))
                    x[i + 1] = x[i]
                    x[-1] = x[-2]
                    if x[-1] <= x[0]:
                        continue
            y = fringe_stack(rng, x, m)
            assert_start_is_the_largest_gain(x, y)

    def test_start_on_simulated_sweeps(self):
        for seed in range(50):
            scans = sweep_scans(np.linspace(0.0, math.pi, 19), seed)
            x = scans["position"][0]
            y = scans["counts"] / scans["integration_time"]
            assert_start_is_the_largest_gain(x, y)

    @pytest.mark.parametrize("m", [1, 5, 19])
    def test_one_interp_call_per_fit(self, m, monkeypatch):
        # the cost of the resample, independent of the machine: one np.interp
        # whatever the number of rows
        calls = []
        interp = np.interp

        def counted(*args, **kwargs):
            calls.append(args)
            return interp(*args, **kwargs)

        scans = sweep_scans(np.linspace(0.0, math.pi, m))
        monkeypatch.setattr(np, "interp", counted)
        fit_fringe(scans)
        assert len(calls) == 1

    @pytest.mark.parametrize("n, length", [(61, 128), (2001, 4096), (4, 8)] +
                             [(n, 16) for n in range(5, 9)] + [(n, 32) for n in range(9, 17)])
    def test_fft_runs_on_a_power_of_two(self, n, length, monkeypatch):
        # one rfft of the stack, zero-padded to the smallest power of two >= 2 n
        lengths = []
        rfft = np.fft.rfft

        def recorded(a, n=None, *args, **kwargs):
            lengths.append((np.shape(a)[-1], n))
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recorded)
        fit_fringe(make_noiseless_scan(FringeModelParams(c0=50.0, mu=0.6, period=5e-3),
                                       n=n))
        assert lengths == [(n, length)]

    @staticmethod
    def clean_start(n, cycles, phase):
        """The start and the true wavenumber, in units of 2 pi / span, on a
        noise-free fringe of the given cycles over a 12 mm scan of n points."""
        span = 12e-3
        scan = np.array(make_noiseless_scan(
            FringeModelParams(c0=50.0, mu=0.6, period=span / cycles, psi=phase), n=n, span=span))
        x, y = scan[:, 0], scan[:, 1][None]
        return _dominant_wavenumber(x, y) * (x[-1] - x[0]) / (2.0 * math.pi), cycles

    @staticmethod
    def grid_step(n):
        """The grid's step and first point, in units of 2 pi / span."""
        length = 1 << (2 * n - 1).bit_length()
        return (n - 1) / length, -(-length // (n - 1)) * (n - 1) / length

    @pytest.mark.parametrize("n", [61, 2001])
    def test_start_is_next_to_the_truth_on_clean_fringes(self, n):
        # fringes of 1 to n/4 cycles at 4 phases.  A noise-free fringe's gain
        # peaks at its own wavenumber, so the start is a grid point next to it:
        # within one step, and inside the grid within about half of one (the
        # fringe's mirror image at -k leaks a little into the gain).  Below the
        # grid's first point the start is that point
        step, first = self.grid_step(n)
        for cycles in np.linspace(1.0, n / 4.0, 100):
            for phase in np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False):
                start, truth = self.clean_start(n, cycles, phase)
                assert abs(start - truth) < step
                if truth >= first:
                    assert abs(start - truth) <= 0.55 * step
                else:
                    assert start == pytest.approx(first, rel=1e-12)

    @pytest.mark.parametrize("n", [61, 2001])
    def test_start_on_the_default_geometry(self, n):
        # 12 mm over a 5 mm period is 2.4 fringes; the integer bin 2 is ~17%
        # of the wavenumber off, the start, on a grid of ~half a bin, ~2%
        for phase in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            start, truth = self.clean_start(n, 2.4, phase)
            assert abs(start - truth) / truth < 0.025

    @pytest.mark.parametrize("j", [3, 5, 30, 63])
    def test_one_hot_spectrum_starts_on_its_bin(self, j, monkeypatch):
        # a spectrum zero but at one bin has zero gain elsewhere, and divides by
        # no zero.  On a 61-point scan the grid is bins 3 to 63 of 128
        x = np.linspace(-6e-3, 6e-3, 61)
        y = np.ones((3, 61))
        spectrum = np.zeros((3, 65), dtype=complex)
        spectrum[:, j] = 2.0
        monkeypatch.setattr(np.fft, "rfft", lambda a, n: spectrum)
        with np.errstate(all="raise"):
            start = _dominant_wavenumber(x, y) * (x[-1] - x[0]) / (2.0 * math.pi)
        assert start == pytest.approx(j * 60 / 128, rel=1e-14)

    @pytest.mark.parametrize("outside", [1, 2, 64])
    def test_a_peak_outside_the_band_is_not_the_start(self, outside, monkeypatch):
        # a larger peak below k_lo (bins 1 and 2) or at k_hi (bin 64, where the
        # sin column vanishes) is skipped: the start is the largest peak inside
        x = np.linspace(-6e-3, 6e-3, 61)
        y = np.ones((3, 61))
        spectrum = np.zeros((3, 65), dtype=complex)
        spectrum[:, 20], spectrum[:, outside] = 1.0, 5.0
        monkeypatch.setattr(np.fft, "rfft", lambda a, n: spectrum)
        start = _dominant_wavenumber(x, y) * (x[-1] - x[0]) / (2.0 * math.pi)
        assert start == pytest.approx(20 * 60 / 128, rel=1e-14)

    @pytest.mark.parametrize("case", ["flat stack", "zero row", "zero stack"])
    def test_degenerate_stacks_raise_no_warning(self, case):
        x = np.linspace(-6e-3, 6e-3, 61)
        y = np.array([fringe_model(x, FringeModelParams(50.0, 0.6, 5e-3, psi))
                      for psi in (0.0, 1.0, 2.0)])
        if case == "zero row":
            y[1] = 0.0
        else:
            y[:] = 7.0 if case == "flat stack" else 0.0
        with np.errstate(all="raise"):
            assert math.isfinite(_dominant_wavenumber(x, y))


def sweep_scans(thetas, seed=300):
    """Counting scans of a pump-angle sweep on the entangled config, one per angle."""
    config = entangled_sweep_config()
    expected = np.stack([expected_scan(build_two_photon_state(
        PumpState.from_eps2(config.pump.eps2, PolarizationAngle(theta)), config.source),
        config.source, config.geometry, config.analyzers, config.scan) for theta in thetas])
    return sample_counts(expected, config.scan.integration_time, seed)


class TestFitSharedPeriod:
    """fit_fringe on an (m, n) stack of scans that share one period."""

    def test_noise_free_pump_angles_recover_the_period(self):
        # one geometry, five pump angles: five contrasts and phases, one period;
        # a sixth scan pumps one crystal only and has no fringe to contribute
        config = entangled_sweep_config()
        period = config.geometry.fringe_period
        pumps = [PumpState.from_eps2(config.pump.eps2, PolarizationAngle(theta))
                 for theta in np.linspace(0.1, 3.0, 5)]
        scans = np.stack([expected_scan(build_two_photon_state(pump, config.source),
                                        config.source, config.geometry, config.analyzers,
                                        config.scan)
                          for pump in pumps + [PumpState.linear(VERTICAL)]])
        pinned = fringe_params(fit_fringe(scans, fix_period=period))[0]
        assert len({round(mu, 3) for mu in pinned.mu[:5]}) == 5
        assert len({round(psi, 3) for psi in pinned.psi[:5]}) == 5
        assert pinned.mu[5] == 0.0
        fit = fit_fringe(scans)
        assert fit.converged
        assert fit.params.shape == (6, 4)
        assert np.all(fit.params[:, 3] == fit.params[0, 3])
        assert fit.params[0, 3] == pytest.approx(period, rel=1e-10, abs=0.0)
        # one noise-free scan alone: its SSE is ~0, so the stop stays at 1e-10 k
        one = fit_fringe(scans[0])
        assert one.converged
        assert one.params[3] == pytest.approx(period, rel=1e-10, abs=0.0)
        assert fit_fringe(scans[0], start_period=float(one.params[3])).iterations == 0

    @pytest.mark.parametrize("peak_rate, seeds", [(100.0, range(20)),
                                                  (0.5, (737, 757, 1293))])
    def test_one_scan_stack_is_the_free_fit(self, peak_rate, seeds):
        config = default_config()
        config = dataclasses.replace(
            config, scan=dataclasses.replace(config.scan, peak_rate=peak_rate))
        for seed in seeds:
            scan = simulate_scan(config, seed=seed)
            free, shared = fit_fringe(scan), fit_fringe(scan[None])
            assert shared.params.shape == (1, 4) and shared.covariance.shape == (1, 4, 4)
            assert np.array_equal(shared.params[0], free.params)
            assert np.array_equal(shared.covariance[0], free.covariance, equal_nan=True)
            assert (shared.iterations, shared.converged, shared.message) == \
                   (free.iterations, free.converged, free.message)
            if free.converged:  # the Schur blocks are the 4 x 4 [design, jk] inverse
                want = joint_covariance(scan[None], free.params[None])[0]
                # each entry against its correlation's scale, sqrt(C_ii C_jj): an
                # entry near zero, such as (b, period) at ~1e-6 of that scale,
                # is a cancellation, whose relative error the two solves do
                # not share
                diag = np.sqrt(np.diag(want))
                assert np.all(np.abs(shared.covariance[0] - want)
                              <= 1e-12 * np.outer(diag, diag))

    def test_flat_stack_is_unconverged(self):
        scan = sample_counts([(pos, 0.0) for pos in np.linspace(-6e-3, 6e-3, 61)], 10.0, 0)
        fit = fit_fringe(np.stack([scan, scan.copy()]))
        assert not fit.converged
        assert "zero contrast" in fit.message
        p, se = fringe_params(fit)
        assert np.isfinite(p.period).all() and np.isnan(se.period).all()

    def test_scans_must_share_positions_and_times(self):
        x = np.linspace(-6e-3, 6e-3, 61)
        rates = fringe_model(x, FringeModelParams(c0=50.0, mu=0.5, period=5e-3))
        scan = sample_counts(list(zip(x, rates)), 10.0, seed=1)
        shifted = scan.copy()
        shifted.position += 1e-4
        longer = scan.copy()
        longer.integration_time *= 2.0
        for other in (shifted, longer):
            with pytest.raises(IllPosedError, match="share positions"):
                fit_fringe(np.stack([scan, other]))
            with pytest.raises(IllPosedError, match="share positions"):
                fit_fringe(np.stack([scan, other]), fix_period=5e-3)
        with pytest.raises(IllPosedError, match="at least one scan"):
            fit_fringe(scan[None][:0])
        with pytest.raises(IllPosedError):
            fit_fringe(scan[:3][None])

    @pytest.mark.parametrize("fix_period", [None, 5e-3])
    def test_row_covariance_is_the_joint_inverse_block(self, fix_period):
        scans = sweep_scans([0.3, 1.1, 2.0])
        fit = fit_fringe(scans, fix_period=fix_period)
        assert fit.converged
        blocks = joint_covariance(scans, fit.params, free=fix_period is None)
        assert np.allclose(fit.covariance, blocks, rtol=1e-10, atol=0.0)

    def test_flat_row_keeps_the_other_rows(self):
        scans = sweep_scans([0.3, 1.1, 2.0])
        scans.counts[1] = 0
        fit = fit_fringe(scans)
        alone = fit_fringe(scans[[0, 2]])
        assert fit.converged and fit.message == ""
        values, errors = (np.array(dataclasses.astuple(view)) for view in fringe_params(fit))
        assert values[1, 1] == 0.0 and values[3, 1] == 0.0
        assert np.isnan(errors[:, 1]).all()  # zero counts: no error on c0 either
        assert np.isfinite(errors[:, [0, 2]]).all()
        # the flat row carries no information on the period
        assert fit.params[0, 3] == pytest.approx(alone.params[0, 3], rel=1e-9, abs=0.0)
        assert np.allclose(values[:, [0, 2]].T,
                           np.array(dataclasses.astuple(fringe_params(alone)[0])).T,
                           rtol=1e-8, atol=0.0)


class TestNormalEquationsFixedPoint:
    """At its reported wavenumber, each row's fitted (c0, a, b) solve that
    row's weighted normal equations D'W (y - D coef) = 0, with W the weights
    referee_weights gives at the row's fitted model.  The property defines
    the estimator's linear part whatever the weights are, and holds for a
    free period and a pinned one alike."""

    @pytest.mark.parametrize("fix_period", [None, 5e-3])
    @pytest.mark.parametrize("kind", ["one scan", "stack"])
    def test_coefficients_solve_the_weighted_normal_equations(self, kind, fix_period):
        if kind == "one scan":
            scan = simulate_scan(default_config(), seed=8)
            scans = scan[None]
        else:
            scan = scans = sweep_scans([0.3, 1.1, 2.0])
        fit = fit_fringe(scan, fix_period=fix_period)
        assert fit.converged
        x, t = scans.position[0], scans.integration_time[0]
        for y, row in zip(scans.counts, np.atleast_2d(fit.params)):
            _, design, w, _ = referee_solve(x, t, y, row)
            gradient = design.T @ (w * (y - design @ row[:3]))
            assert np.all(np.abs(gradient) <= 1e-10 * (np.abs(design).T @ (w * y)))


class TestArrayDeltaMethod:
    """fit_fringe reports each row's block of the joint inverse in (c0, a, b,
    period), and fringe_params carries every row's block to (c0, mu, period,
    psi) with array operations over the rows; the brute-force joint inverse
    and a per-row delta method are the references."""

    # the rows of zero contrast in each case, whose mu and psi read 0 and whose
    # mu, period and psi errors read NaN
    FLAT = {"flat row": [4], "pinned flat row": [4], "zero-count row": [7],
            "all rows flat": [0, 1]}
    # the cases whose residuals are rounding: the referee takes the fit's SSE.
    # Their weights are even in x on positions even about 0, so c0 and a are
    # uncorrelated with b in exact arithmetic and read correlations of ~1e-15,
    # which no two solves share: those entries are compared at 1e-13 of
    # sqrt(var_i var_j), every other entry at 1e-10 of itself
    ROUNDING = ("flat row", "pinned flat row", "noise-free rates")

    @staticmethod
    def cases():
        scans = sweep_scans(np.linspace(0.0, math.pi, 19))
        flat = scans.copy()
        flat.counts[4] = 37  # a constant row: zero contrast, a finite c0
        zero = scans.copy()
        zero.counts[7] = 0  # no counts: no information, c0 included
        rates = np.stack([np.column_stack((scans.position[0], scans.expected_rate[i]))
                          for i in (2, 9, 15)])
        return {
            "stack": (scans, None),
            "one scan": (simulate_scan(default_config(), seed=4), None),
            "pinned stack": (scans, entangled_sweep_config().geometry.fringe_period),
            "pinned scan": (simulate_scan(default_config(), seed=4), 5e-3),
            "flat row": (flat, None),
            "pinned flat row": (flat, 5e-3),
            "zero-count row": (zero, None),
            "all rows flat": (np.stack([zero[7], zero[7]]), None),
            "noise-free rates": (rates, None),
        }

    @pytest.mark.parametrize("case", ["stack", "one scan", "pinned stack", "pinned scan",
                                      "flat row", "pinned flat row", "zero-count row",
                                      "all rows flat", "noise-free rates"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a flat row divides nothing
    def test_agrees_with_the_joint_inverse_and_the_delta_method(self, case):
        scan, fix_period = self.cases()[case]
        fit = fit_fringe(scan, fix_period=fix_period)
        params, cov = np.atleast_2d(fit.params), fit.covariance.reshape(-1, 4, 4)
        flat = np.isin(np.arange(len(params)), self.FLAT.get(case, []))
        assert fit.converged == (not flat.all())
        if case != "all rows flat":  # whose joint normal matrix has a zero k column
            stack = scan[None] if fit.params.ndim == 1 else scan
            rounding = case in self.ROUNDING
            sse = np.atleast_1d(fit.residual_norm) ** 2 if rounding else None
            want = joint_covariance(stack, params, free=fix_period is None, sse=sse)
            assert np.array_equal(np.isnan(cov), np.isnan(want))
            sd = np.sqrt(np.diagonal(want, axis1=-2, axis2=-1))
            floor = 1e-13 * sd[:, :, None] * sd[:, None, :] if rounding else 0.0
            ok = np.abs(cov - want) <= 1e-10 * np.abs(want) + floor
            assert (ok | np.isnan(want)).all(), (cov, want)

        want_values, want_errors = [], []
        for (c0, a, b, period), block, zero in zip(params, cov, flat):
            if zero:  # today's rules: mu = psi = 0, and NaN errors but for c0
                want_values.append((c0, 0.0, period, 0.0))
                want_errors.append((math.sqrt(block[0, 0]),) + (math.nan,) * 3)
            else:
                want_values.append((c0, math.hypot(a, b) / c0, period, math.atan2(-b, a)))
                variance = np.diag(to_fringe_covariance(block, (c0, a, b)))
                want_errors.append(np.sqrt(variance))
        values, errors = (np.reshape(dataclasses.astuple(view), (4, -1)).T
                          for view in fringe_params(fit))
        assert isinstance(fringe_params(fit)[0].mu, float) == (fit.params.ndim == 1)
        assert np.array_equal(np.isnan(errors), np.isnan(want_errors))
        np.testing.assert_allclose(values, want_values, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(errors, want_errors, rtol=1e-12, atol=0.0)
        if case in ("flat row", "zero-count row"):  # the NaN rules the view keeps
            row = 4 if case == "flat row" else 7
            assert np.isnan(errors[row, 1:]).all()
            assert np.isnan(errors[row, 0]) == (case == "zero-count row")


def null_scan(peak_rate, seed):
    """The default scan with the pump at 90 degrees, so no fringe (mu = 0), at
    peak_rate: ~5, ~50 and ~1000 counts per peak at 0.5, 5 and 100 /s."""
    config = default_config()
    config = dataclasses.replace(
        config, pump=dataclasses.replace(config.pump, theta_p=PolarizationAngle(math.pi / 2)),
        scan=dataclasses.replace(config.scan, peak_rate=peak_rate))
    return simulate_scan(config, seed=seed)


class TestIdentifiability:
    """A fit reports no parameter it cannot identify as converged.  The
    periodogram's grid, from which a free fit starts, stops short of
    k_hi = pi (n - 1) / span, and at the final period every row's weighted
    design must separate c0, a and b.  At k_hi every sample of a uniform scan
    sits at a multiple of pi: the sin column vanishes and b is unidentified
    whatever the counts."""

    K_HI = math.pi * 60 / 12e-3  # the default 61-point scan over 12 mm: period 0.4 mm

    @pytest.mark.parametrize("peak_rate, seed", [(0.5, 542), (0.5, 739), (5.0, 153),
                                                 (5.0, 437), (100.0, 640), (100.0, 840)])
    def test_null_scan_does_not_end_converged_at_the_top_wavenumber(self, peak_rate, seed):
        # null scans whose largest noise peak lies near the top of the band:
        # these fits start and converge at 0.94 to 0.98 k_hi, and none may
        # end converged at k_hi itself
        fit = fit_fringe(null_scan(peak_rate, seed))
        k = 2.0 * math.pi / fit.params[3]
        assert k < self.K_HI * (1.0 - 1e-9) or not fit.converged

    def test_the_top_period_is_unidentified(self, tmp_path, capsys):
        scan = null_scan(5.0, 153)
        with pytest.raises(IllPosedError, match="positions"):
            fit_fringe(scan, fix_period=4e-4)
        fit = fit_fringe(scan, start_period=4e-4)
        assert not fit.converged
        assert "unidentified" in fit.message and "0.0004 m" in fit.message
        # through the command line: a pinned fit exits 2 naming the positions, a
        # started one 4, as an unconverged fit does
        path = str(tmp_path / "null.csv")
        write_scan_csv(scan, path)
        assert main(["fit", path, "--model", "fringe", "--fix-period", "0.0004"]) == 2
        err = capsys.readouterr().err
        assert "positions" in err and "Traceback" not in err
        assert main(["fit", path, "--model", "fringe", "--init", "period=0.0004"]) == 4

    @pytest.mark.parametrize("case", ["one scan", "stack", "top period", "packed",
                                      "fig5 curve", "linear-pump curve"])
    def test_condition_number_is_the_weighted_designs(self, case):
        # the reciprocal of the weighted design's condition number in the
        # Frobenius norm, within a factor 3 below the 2-norm's s_min / s_max;
        # the curve cases are visibility-curve designs on a fig5 sweep's
        # weights and on a linear-pump sweep, whose rows of mu ~ 0 weigh up to
        # ~1/(2 sigma^4), ~2.5e4 times the median row
        if case.endswith("curve"):
            if case == "fig5 curve":
                points = reproduce_fig5(seed=0).points
            else:
                points = sweep_pump_angle(entangled_sweep_config(eps2=0.0),
                                          np.linspace(0.0, math.pi, 19), seed=5)
                assert points.mu.min() < 0.005
            design, w = referee_curve_design(points.theta, points.mu, points.sigma_mu)
            frobenius, two_norm = referee_rcond(design, w)
            fit = fitting._linear_fit(4.0, points.theta, points.mu ** 2, w,
                                      np.ones_like(points.theta))
            got = fitting._rcond(fit)
            assert fit_visibility_curve(points).converged
        else:
            scan, k = simulate_scan(default_config(), seed=2), 2.0 * math.pi / 5e-3
            if case == "stack":
                scan = sweep_scans([0.3, 1.1, 2.0])
            elif case == "top period":
                scan, k = null_scan(5.0, 153), self.K_HI
            elif case == "packed":  # 61 positions 1 pm apart, against a 1 mm period
                scan = scan.copy()
                scan.position = np.arange(len(scan)) * 1e-12
                k = 2.0 * math.pi / 1e-3
            # the weights the fit starts from, in both: the test is of the
            # condition number, whatever the estimator's weights
            x, y, w, t = fitting._scan_columns(scan, 3)[:4]
            frobenius, two_norm = np.array([referee_rcond(referee_design(x, t, k), row)
                                            for row in w]).min(axis=0)
            with np.errstate(all="ignore"):
                got = fitting._rcond(fitting._linear_fit(k, x, y, w, t))
        if case not in ("top period", "packed"):
            assert got == pytest.approx(frobenius, rel=1e-10)
            assert two_norm / 3.0 <= got <= two_norm
            assert got >= 100.0 * fitting._MIN_RCOND
        else:  # the normal matrix is singular to working precision
            assert two_norm < 1e-12 and got < fitting._MIN_RCOND


def fig5_stacks(seeds, monkeypatch):
    """The (19, 61) scan stacks reproduce_fig5 fits, one per seed."""
    stacks = []
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "fit_fringe",
                      lambda scans: stacks.append(scans) or fit_fringe(scans))
        for seed in seeds:
            reproduce_fig5(seed)
    return stacks


class TestFixedPointStop:
    """A free fit ends where the Gauss-Newton step at its wavenumber is below
    1% of the wavenumber's standard error (the stack's SSE over its degrees of
    freedom, over the summed projected curvature), or below 1e-10 of the
    wavenumber where that is larger, as on noise-free rows.  The remaining
    step is then far inside the noise, and a search started at the reported
    period takes no step."""

    @pytest.mark.parametrize("kind", ["single", "fig5", "command line"])
    def test_restart_at_the_reported_period_returns_it(self, kind, monkeypatch, tmp_path):
        if kind == "command line":
            monkeypatch.delenv("TWINFRINGE_CONFIG", raising=False)
            self.restart_through_main(tmp_path)
            return
        if kind == "single":
            scans = [simulate_scan(default_config(), seed=seed) for seed in range(200)]
        else:
            scans = fig5_stacks(range(200), monkeypatch)
        for scan in scans:
            fit = fit_fringe(scan)
            again = fit_fringe(scan, start_period=float(np.ravel(fit.params)[3]))
            assert fit.converged and again.converged
            assert again.iterations == 0
            assert np.allclose(again.params, fit.params, rtol=1e-12, atol=0.0)

    @staticmethod
    def restart_through_main(tmp_path):
        """The seed-3 default and 2001-point scans through the command line: each
        free fit converges in 2 steps, and a fit started at the period its
        report gives takes no step and reports the same parameters."""
        doc = config_to_dict(default_config())
        doc["scan"]["positions_m"] = {"start": -6e-3, "stop": 6e-3, "num": 2001}
        long = tmp_path / "long.json"
        long.write_text(json.dumps(doc))
        for name, config in (("scan", []), ("long", ["--config", str(long)])):
            scan, first, again = (tmp_path / f"{name}{ext}"
                                  for ext in (".csv", ".fit.json", ".restart.json"))
            assert main(["simulate-scan", *config, "--seed", "3", "--output", str(scan)]) == 0
            assert main(["fit", str(scan), "--model", "fringe", "--output", str(first)]) == 0
            f = json.loads(first.read_text())
            assert f["converged"] and f["iterations"] == 2
            assert main(["fit", str(scan), "--model", "fringe", "--init",
                         f"period={f['params']['period']!r}", "--output", str(again)]) == 0
            r = json.loads(again.read_text())
            assert r["converged"] and r["iterations"] == 0
            assert all(math.isclose(r["params"][k], f["params"][k], rel_tol=1e-12)
                       for k in f["params"])

    @staticmethod
    def linear_solves(scans, monkeypatch):
        """The linear solves of each free fit of the scans, and its steps: the
        cost of the search, independent of the machine.  Each step needs one
        solve at its trial wavenumber and none to confirm the stop, so a fit
        that halves no step makes one solve more than it takes steps."""
        calls = []
        linear_fit = fitting._linear_fit
        solves, steps = [], []
        with monkeypatch.context() as patch:
            patch.setattr(fitting, "_linear_fit",
                          lambda *args: calls.append(args[0]) or linear_fit(*args))
            for scan in scans:
                del calls[:]
                fit = fit_fringe(scan)
                assert fit.converged
                solves.append(len(calls))
                steps.append(fit.iterations)
        return np.array(solves), np.array(steps)

    def test_linear_solves_per_fig5_search(self, monkeypatch):
        # the periodogram's start leaves each fig5 stack two steps from its stop
        solves, _ = self.linear_solves(fig5_stacks(range(200), monkeypatch), monkeypatch)
        assert solves.mean() <= 3.02

    def test_linear_solves_per_long_scan_fit(self, monkeypatch):
        # the 2001-point scan of the scan_fit_cli benchmark: 2.4 fringes, whose
        # start, the grid point at 2.44 fringes, lies 2 steps from its stop
        doc = config_to_dict(default_config())
        doc["scan"]["positions_m"] = {"start": -6e-3, "stop": 6e-3, "num": 2001}
        config = config_from_dict(doc)
        solves, steps = self.linear_solves(
            [simulate_scan(config, seed=seed) for seed in range(200)], monkeypatch)
        assert np.all(solves == 3) and np.all(steps == 2)

    def test_linear_solves_per_default_scan_fit(self, monkeypatch):
        solves, _ = self.linear_solves(
            [simulate_scan(default_config(), seed=seed) for seed in range(300)], monkeypatch)
        assert solves.mean() <= 3.0

    @pytest.mark.parametrize("kind, mu_bound", [("fig5", 1e-3), ("single", 1e-2)])
    def test_the_stop_costs_no_statistics(self, kind, mu_bound, monkeypatch):
        # the reference stops at 1e-10 k alone.  The stop at 1% of sigma_k leaves
        # the period within 1% of the stack's period error, the root mean square
        # of the rows' reported errors (rows differ in SSE / dof).  mu moves by
        # that shift times its correlation with the period: below 1e-3 sigma_mu
        # on the fig5 rows, up to ~1.1e-3 on a default scan, where the two
        # correlate more
        if kind == "single":
            scans = [simulate_scan(default_config(), seed=seed) for seed in range(50)]
        else:
            scans = fig5_stacks(range(100), monkeypatch)
        for scan in scans:
            fit = fit_fringe(scan)
            with monkeypatch.context() as patch:
                patch.setattr(fitting, "_SIGMA_TOL", 0.0)
                reference = fit_fringe(scan)
            assert fit.converged and reference.converged
            (values, errors), ref = fringe_params(fit), fringe_params(reference)[0]
            period_error = math.sqrt(np.mean(np.square(errors.period)))
            assert np.all(np.abs(values.period - ref.period) <= 0.01 * period_error)
            assert np.all(np.abs(values.mu - ref.mu) <= mu_bound * errors.mu)

    def test_the_stop_keeps_every_fig5_verdict(self, monkeypatch):
        def verdicts():
            return [(r.checks, r.passed) for r in map(reproduce_fig5, range(100))]

        stopped = verdicts()
        monkeypatch.setattr(fitting, "_SIGMA_TOL", 0.0)
        assert verdicts() == stopped


def chain_curve(theta, mu_max, theta0, eps2):
    """The visibility curve the source chain produces: mu_max times the fringe
    contrast behind 45-degree analyzers of a pump (eps2, theta - theta0), at
    each angle theta.  It reads ~1e-16, not 0, where a linear pump nulls it."""
    source = default_source()
    return np.array([mu_max * predicted_visibility_with_analyzers(build_two_photon_state(
        PumpState.from_eps2(eps2, PolarizationAngle(t - theta0)), source), *ANA45)
        for t in np.atleast_1d(theta).tolist()])


def synthetic_curve(rng, mu_max=0.77, theta0=math.pi, eps2=EPS2, noise=0.02, n=19):
    theta = np.linspace(0.0, math.pi, n)
    clean = chain_curve(theta, mu_max, theta0, eps2)
    sigma = np.maximum(noise * np.maximum(clean, 0.05), 1e-4)
    mu = np.clip(clean + rng.normal(0.0, sigma), 0.0, 1.0)
    return list(zip(theta, mu, sigma))


class TestFitVisibilityCurve:
    def test_round_trip_over_seeds(self):
        ok = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            fit = fit_visibility_curve(synthetic_curve(rng))
            p, _ = visibility_curve_params(fit)
            d_theta = min((p.theta0 - math.pi) % (math.pi / 2),
                          (math.pi / 2) - (p.theta0 - math.pi) % (math.pi / 2))
            if (fit.converged and abs(p.eps2 - EPS2) < 0.03
                    and abs(p.mu_max - 0.77) < 0.05 and d_theta < 0.1):
                ok += 1
        assert ok >= 24

    def test_linear_pump_curve_touches_zero(self):
        rng = np.random.default_rng(3)
        points = synthetic_curve(rng, eps2=0.0, noise=0.005)
        fit = fit_visibility_curve(points)
        p, _ = visibility_curve_params(fit)
        assert chain_curve(p.theta0, p.mu_max, p.theta0, p.eps2)[0] == pytest.approx(
            0.0, abs=0.02)

    def test_constant_data_flagged_not_crashed(self):
        theta = np.linspace(0.0, math.pi, 12)
        points = [(t, 0.5, 0.01) for t in theta]
        fit = fit_visibility_curve(points)
        assert (not fit.converged) or "boundary" in fit.message

    def test_flat_curve_is_unidentifiable(self):
        points = [(t, 0.5, 0.01) for t in np.linspace(0.0, math.pi, 19)]
        fit = fit_visibility_curve(points)
        assert not fit.converged
        assert "unidentifiable" in fit.message
        p, se = visibility_curve_params(fit)
        assert p.theta0 == 0.0 and p.eps1 == math.sqrt(0.5)
        assert p.eps2 == pytest.approx(p.eps1, rel=1e-15)
        assert all(map(math.isnan, dataclasses.astuple(se)))

    def test_too_few_points(self):
        with pytest.raises(IllPosedError):
            fit_visibility_curve([(0.0, 0.5, 0.01)] * 3)

    def test_small_span_rejected(self):
        theta = np.linspace(0.0, 1.0, 8)  # < pi/2
        with pytest.raises(IllPosedError):
            fit_visibility_curve([(t, 0.5, 0.01) for t in theta])

    def test_eps_branch_folded(self):
        rng = np.random.default_rng(9)
        fit = fit_visibility_curve(synthetic_curve(rng))
        p, _ = visibility_curve_params(fit)
        assert p.eps1 >= p.eps2

    def test_noise_free_curves_recovered(self):
        # eps2 stays in [0.05, 0.65]: as eps2 -> eps1 the curve flattens and
        # theta0 becomes undefined
        rng = np.random.default_rng(31)
        theta = np.linspace(0.0, math.pi, 19)
        for _ in range(200):
            eps2 = rng.uniform(0.05, 0.65)
            truth = VisibilityCurveParams(rng.uniform(0.1, 1.0), rng.uniform(0.0, math.pi),
                                          math.sqrt(1.0 - eps2 ** 2), eps2)
            points = np.column_stack((theta, chain_curve(theta, truth.mu_max, truth.theta0,
                                                         eps2), np.full(19, 0.01)))
            fit = fit_visibility_curve(points)
            p, _ = visibility_curve_params(fit)
            assert fit.converged and fit.iterations == 0
            assert 0.0 <= p.theta0 < math.pi / 2
            assert abs(p.mu_max - truth.mu_max) <= 1e-10
            assert theta0_distance(p.theta0, truth.theta0) <= 1e-10
            assert abs(p.eps2 - eps2) <= 1e-10

    def test_fig5_chain_recovered_without_noise(self):
        # the source chain's expected rates at the fig5 angles, fitted as one
        # stack at their shared period, then the rows' mu as a visibility
        # curve: the fit gives back the truth the chain was built from
        stack = pipeline._expected_stack(pipeline._fig5_config(), pipeline._FIG5_ANGLES)
        rows = fit_fringe(stack)
        assert rows.converged
        fit = fit_visibility_curve(np.column_stack(
            (pipeline._FIG5_DIAL, fringe_params(rows)[0].mu, np.full(len(stack), 0.01))))
        p, _ = visibility_curve_params(fit)
        truth = pipeline.FIG5_TRUTH
        assert fit.converged
        assert abs(p.mu_max - truth["mu_max"]) <= 1e-12
        assert theta0_distance(p.theta0, truth["theta0"]) <= 1e-12
        assert abs(p.eps2 - truth["eps2"]) <= 1e-12

    @staticmethod
    def closed_form(coef):
        """(mu_max, theta0, eps1, eps2) from mu^2 = A + B cos 4 theta + C sin 4 theta,
        unclipped: u = 2R / (A + R) below 1."""
        a, b, c = coef
        r = math.hypot(b, c)
        mu_max_sq, u = a + r, 2.0 * r / (a + r)
        return np.array([math.sqrt(mu_max_sq), (math.atan2(-c, -b) / 4.0) % (math.pi / 2),
                         math.sqrt((1.0 + math.sqrt(u)) / 2.0),
                         math.sqrt((1.0 - math.sqrt(u)) / 2.0)])

    @classmethod
    def referee_errors(cls, coef, cov):
        """The delta-method errors of closed_form at coef, by a central
        finite-difference Jacobian in (A, B, C) applied to their covariance."""
        jac = np.column_stack([(cls.closed_form(coef + h) - cls.closed_form(coef - h)) / 2e-7
                               for h in 1e-7 * np.eye(3)])
        return np.sqrt(np.diag(jac @ cov @ jac.T))

    def test_weighted_normal_equations_on_mu_squared(self):
        rng = np.random.default_rng(21)
        theta, mu, sigma = np.array(synthetic_curve(rng, theta0=1.0)).T
        design, w = referee_curve_design(theta, mu, sigma)
        normal = design.T @ (w[:, None] * design)
        coef = np.linalg.solve(normal, design.T @ (w * mu ** 2))
        resid = mu ** 2 - design @ coef
        cov = np.linalg.inv(normal) * referee_scale(resid, w, 1, False)
        fit = fit_visibility_curve(list(zip(theta, mu, sigma)))
        assert fit.converged
        assert np.allclose(fit.params, coef, rtol=1e-12, atol=0.0)
        assert np.allclose(fit.covariance, cov, rtol=1e-9, atol=0.0)
        values, errors = visibility_curve_params(fit)
        assert np.allclose(dataclasses.astuple(values), self.closed_form(coef),
                           rtol=1e-12, atol=0.0)
        assert np.allclose(dataclasses.astuple(errors), self.referee_errors(coef, cov),
                           rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_errors_are_the_delta_method_of_the_covariance(self, seed):
        # fig5 sweeps, none clipped at eps1 = 1: every error, eps2's included,
        # is the finite-difference Jacobian of the closed form carried through
        # the fit's own covariance of (A, B, C)
        fit = reproduce_fig5(seed=seed).fit
        values, errors = visibility_curve_params(fit)
        assert fit.converged and values.eps2 > 0.0
        assert np.allclose(dataclasses.astuple(values), self.closed_form(fit.params),
                           rtol=1e-12, atol=0.0)
        assert np.allclose(dataclasses.astuple(errors),
                           self.referee_errors(fit.params, fit.covariance),
                           rtol=1e-6, atol=0.0)

    def test_linear_pump_clips_to_eps1_one_with_finite_error(self):
        # a linear-pump curve with 2% deeper flanks fits A < R, so u clips at 1
        theta = np.linspace(0.0, math.pi, 19)
        theta0 = theta[5]
        mu = chain_curve(theta, 0.77, theta0, 0.0) * (1.0 - 0.02 * np.cos(4.0 * (theta - theta0)))
        mu[5] = 0.0  # the null, exactly: a zero mu weighs 1/(2 sigma^4)
        sigma = np.full(19, 0.01)
        sigma[9] = 0.0
        fit = fit_visibility_curve(list(zip(theta, mu, sigma)))
        p, se = visibility_curve_params(fit)
        assert fit.converged
        assert p.eps1 == 1.0 and p.eps2 == 0.0
        assert 0.0 < se.eps1 < np.inf
        # eps2 = sqrt(1 - eps1^2) has an infinite slope at eps1 = 1
        assert math.isnan(se.eps2)
        assert theta0_distance(p.theta0, theta0) < 1e-3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_finite_input_raises(self, column, bad):
        rows = np.array(synthetic_curve(np.random.default_rng(1)))
        rows[4, column] = bad
        with pytest.raises(IllPosedError, match="non-finite"):
            fit_visibility_curve(rows)

    def test_angles_45_degrees_apart_rejected(self):
        # cos 4 theta reads +-1 at every angle and sin 4 theta ~ 0: B and C are confounded
        theta = np.radians([0.0, 45.0, 90.0, 135.0, 180.0])
        with pytest.raises(IllPosedError, match="4 theta"):
            fit_visibility_curve([(t, 0.5 + 0.2 * math.cos(4 * t), 0.01) for t in theta])

    @pytest.mark.parametrize("offset", [0.3, -1.7])
    def test_angles_45_degrees_apart_off_the_axes_rejected(self, offset):
        # 4 theta takes two values off the axes: the points (cos 4 theta,
        # sin 4 theta) lie on one line through the origin, at an angle
        theta = offset + np.radians([0.0, 45.0, 90.0, 135.0, 180.0])
        with pytest.raises(IllPosedError, match="4 theta"):
            fit_visibility_curve([(t, 0.5 + 0.2 * math.cos(4 * t), 0.01) for t in theta])

    @staticmethod
    def curve(theta):
        """(theta, mu, sigma) rows at the angles, of a curve that angles taking
        three or more distinct values of 4 theta identify."""
        mu = np.sqrt(0.4 + 0.1 * np.cos(4.0 * theta) + 0.05 * np.sin(4.0 * theta))
        return np.column_stack((theta, mu, np.full(theta.size, 0.01)))

    @staticmethod
    def referee_fits(points):
        """Whether the weighted design's Frobenius reciprocal condition number,
        from its singular values, is at least 1e-6."""
        return referee_rcond(*referee_curve_design(*points.T))[0] >= 1e-6

    @staticmethod
    def fits(points):
        """Whether fit_visibility_curve fits the points, rather than raising an
        IllPosedError whose message names 4 theta."""
        try:
            fit_visibility_curve(points)
        except IllPosedError as exc:
            assert "4 theta" in str(exc)
            return False
        return True

    def test_fit_agrees_with_the_weighted_designs_condition_number(self):
        # random angles, and angles 45 degrees apart with duplicates (4 theta
        # takes two values), each set spanning more than 90 degrees; and sets 45
        # degrees apart with one angle moved by 1e-14 to 1e-8 rad, which
        # np.linalg.matrix_rank may call rank 3 but whose normal equations keep
        # too few digits to separate B from C
        rng = np.random.default_rng(17)
        fitted, moved_rank_three = {"random": 0, "degenerate": 0, "moved": 0}, 0
        for trial in range(3000):
            n = int(rng.integers(4, 40))
            kind = ("random", "degenerate", "moved")[trial % 3]
            if kind == "random":
                theta = rng.uniform(-math.pi, math.pi, n)
                theta[1] = theta[0] + rng.uniform(0.6, 1.0) * math.pi
            else:
                steps = rng.integers(-5, 6, n)
                steps[:2] = 0, 3
                theta = rng.uniform(-3.0, 3.0) + math.pi / 4.0 * steps
                if kind == "moved":
                    theta[rng.integers(n)] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14, -8)
            points = self.curve(theta)
            fits = self.fits(points)
            assert fits == self.referee_fits(points), theta
            fitted[kind] += fits
            if kind == "moved":
                moved_rank_three += np.linalg.matrix_rank(referee_curve_design(*points.T)[0]) == 3
        assert fitted == {"random": 1000, "degenerate": 0, "moved": 0}
        assert moved_rank_three > 0

    def test_three_distinct_values_of_4_theta_fit(self):
        # 0, 30, 60 and 90 degrees: 4 theta is 0, 120, 240 and 360 degrees
        theta = np.radians([0.0, 30.0, 60.0, 90.0])
        points = np.column_stack((theta, chain_curve(theta, 0.77, 0.4, 0.3), np.full(4, 0.01)))
        assert self.referee_fits(points)
        fit = fit_visibility_curve(points)
        p, _ = visibility_curve_params(fit)
        assert fit.converged
        assert p.mu_max == pytest.approx(0.77, rel=1e-12)
        assert theta0_distance(p.theta0, 0.4) <= 1e-12
        assert p.eps2 == pytest.approx(0.3, rel=1e-10)

    @pytest.mark.parametrize("degrees", [
        [0.0, 0.0, 90.0, 90.0, 90.0],  # one value of 4 theta
        [0.0, 0.0, 22.5, 90.0, 112.5],  # two values
        [0.0, 22.5, 22.5, 45.0, 90.0],  # three
        [10.0, 10.0, 10.0, 55.0, 100.0, 100.0, 145.0],  # two, off the axes
        [10.0, 10.0, 40.0, 100.0, 100.0],  # three
        [0.0, 45.0, 90.0, 135.0, 180.0],  # two, 45 degrees apart
        # 1e-7 degrees from such a set: the weighted design reads ~2e-9
        [0.0, 1e-7, 90.0, 135.0, 180.0],
    ])
    def test_duplicated_angles_follow_the_referee(self, degrees, tmp_path, capsys):
        # through the API and the command line, which exits 2 naming 4 theta,
        # with no report, where the fit raises
        points = self.curve(np.radians(degrees))
        fits = self.fits(points)
        assert fits == self.referee_fits(points)
        sweep, out = tmp_path / "sweep.csv", tmp_path / "r.json"
        sweep.write_text("theta_rad,mu,sigma_mu\n" + "".join(
            f"{t!r},{m!r},{s!r}\n" for t, m, s in points.tolist()))
        assert main(["fit", str(sweep), "--model", "viscurve",
                     "--output", str(out)]) == (0 if fits else 2)
        assert ("4 theta" in capsys.readouterr().err) != fits
        assert out.exists() == fits

    @pytest.mark.parametrize("offset", [0.0, 0.3])
    def test_angles_1e_9_from_a_degenerate_set_follow_the_referee(self, offset, tmp_path,
                                                                   capsys):
        # the weighted design reads ~1e-9 on each of these 10 sets, and its
        # normal matrix, whose condition number is the design's squared, keeps
        # no digit: every set exits 2 naming 4 theta, as the set 45 degrees
        # apart does, through the API and the command line, with no report
        sweep, out = tmp_path / "sweep.csv", tmp_path / "r.json"
        for i in range(5):
            for sign in (-1.0, 1.0):
                theta = offset + np.radians([0.0, 45.0, 90.0, 135.0, 180.0])
                theta[i] += sign * 1e-9
                points = self.curve(theta)
                assert not self.referee_fits(points)
                with pytest.raises(IllPosedError, match="4 theta"):
                    fit_visibility_curve(points)
                sweep.write_text("theta_rad,mu,sigma_mu\n" + "".join(
                    f"{t!r},{m!r},{s!r}\n" for t, m, s in points.tolist()))
                assert main(["fit", str(sweep), "--model", "viscurve",
                             "--output", str(out)]) == 2
                captured = capsys.readouterr()
                assert "4 theta" in captured.err and "converged" not in captured.out
                assert not out.exists()

    @pytest.mark.parametrize("sigma", [1e-160, 1e200])
    def test_extreme_sigma_names_sigma_mu(self, sigma, tmp_path, capsys):
        # 1/(4 mu^2 sigma^2 + 2 sigma^4) overflows to inf at 1e-160 and underflows
        # to 0 at 1e200: neither is a fit, and neither is the angles' fault
        theta, mu, _ = np.array(synthetic_curve(np.random.default_rng(2))).T
        points = np.column_stack((theta, mu, np.full(theta.size, sigma)))
        with pytest.raises(IllPosedError, match="sigma_mu"):
            fit_visibility_curve(points)
        sweep, out = tmp_path / "sweep.csv", tmp_path / "r.json"
        sweep.write_text("theta_rad,mu,sigma_mu\n" + "".join(
            f"{t!r},{m!r},{s!r}\n" for t, m, s in points.tolist()))
        assert main(["fit", str(sweep), "--model", "viscurve", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert "sigma_mu" in captured.err and "4 theta" not in captured.err
        assert "converged" not in captured.out
        assert not out.exists()

    def test_one_dominant_weight_is_unidentified(self):
        # a sigma_mu of 1e-10 on one fig5 angle weighs it ~1e15 times the
        # others: the weighted design has rank one to working precision, and
        # the fit raises rather than solve the other angles' B and C from
        # rounding
        points = reproduce_fig5(seed=0).points
        points.sigma_mu[3] = 1e-10
        assert not self.referee_fits(np.column_stack((points.theta, points.mu,
                                                      points.sigma_mu)))
        with pytest.raises(IllPosedError, match="4 theta.*sigma_mu"):
            fit_visibility_curve(points)

    def test_array_and_triples_give_identical_fits(self):
        points = synthetic_curve(np.random.default_rng(3))
        from_rows = fit_visibility_curve(points)
        from_array = fit_visibility_curve(np.array(points))
        assert np.array_equal(from_rows.params, from_array.params)
        assert np.array_equal(from_rows.covariance, from_array.covariance)

    @pytest.mark.parametrize("seed", [0, 5, 777])
    def test_sweep_table_and_triples_give_identical_fits(self, seed):
        # the theta, mu and sigma_mu fields of a sweep table are read as the
        # triples' columns; the converged field is not read
        table = reproduce_fig5(seed=seed).points
        triples = [(theta, mu, sigma) for theta, mu, sigma, _ in table.tolist()]
        from_table, from_rows = fit_visibility_curve(table), fit_visibility_curve(triples)
        assert from_table.params.tobytes() == from_rows.params.tobytes()
        assert from_table.covariance.tobytes() == from_rows.covariance.tobytes()
        table.converged = ~table.converged
        assert fit_visibility_curve(table).params.tobytes() == from_rows.params.tobytes()

    def test_rows_must_be_triples(self):
        with pytest.raises(IllPosedError, match="triples"):
            fit_visibility_curve(np.ones((10, 2)))
