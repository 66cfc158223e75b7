import dataclasses
import math

import numpy as np
import pytest

from twinfringe.analysis import phi_scan_oracle
from twinfringe.cli import main, write_scan_csv
from twinfringe.config import default_config, entangled_sweep_config
from twinfringe.detection import expected_scan, sample_counts
from twinfringe.errors import IllPosedError
from twinfringe.fitting import (FitResult, FringeModelParams,
                                VisibilityCurveParams, _dominant_wavenumber, fit_fringe,
                                fit_visibility_curve,
                                fringe_model, fringe_params, mu_eff_model,
                                visibility_curve_params)
from twinfringe import fitting, pipeline
from twinfringe.pipeline import reproduce_fig5, simulate_scan, theta0_distance
from twinfringe.polarization import (DIAGONAL, HORIZONTAL, VERTICAL,
                                     PolarizationAngle, PumpState)
from twinfringe.spdc import TwoPhotonState, build_two_photon_state

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


class TestMuEffModel:
    def test_ceiling_reached_midway_between_crystals(self):
        for variant in ("paper", "derived"):
            p = VisibilityCurveParams(0.9, theta0=1.0, eps1=1.0, variant=variant)
            assert mu_eff_model(1.0 + math.pi / 4, p) == pytest.approx(0.9, abs=1e-12)

    def test_floor_values_for_quadrature_pump(self):
        derived = VisibilityCurveParams(0.77, theta0=math.pi, eps1=EPS1, variant="derived")
        paper = VisibilityCurveParams(0.77, theta0=math.pi, eps1=EPS1, variant="paper")
        # frozen: 0.77 * 2 e1 e2 and 0.77 * (2 e1 e2)^2
        assert mu_eff_model(math.pi, derived) == pytest.approx(0.122805, abs=1e-6)
        assert mu_eff_model(math.pi, paper) == pytest.approx(0.019586, abs=1e-6)

    def test_derived_ceiling_exact_for_unit_norm_amplitudes(self):
        # (e1^2 - e2^2)^2 + (2 e1 e2)^2 = 1, so the ceiling is exactly mu_max
        p = VisibilityCurveParams(0.77, theta0=0.0, eps1=EPS1, variant="derived")
        assert mu_eff_model(math.pi / 4, p) == pytest.approx(0.77, abs=1e-12)

    def test_pi_periodic_and_symmetric(self):
        rng = np.random.default_rng(6)
        for variant in ("paper", "derived"):
            p = VisibilityCurveParams(0.8, theta0=0.7, eps1=0.97, variant=variant)
            for theta in rng.uniform(0, math.pi, 50):
                assert mu_eff_model(theta + math.pi, p) == pytest.approx(
                    mu_eff_model(theta, p), abs=1e-12)
                axis = p.theta0 + math.pi / 4
                assert mu_eff_model(axis + (theta % (math.pi / 4)), p) == pytest.approx(
                    mu_eff_model(axis - (theta % (math.pi / 4)), p), abs=1e-12)

    def test_derived_variant_matches_phase_scan_oracle(self):
        # the derived curve is exactly the 45-degree fringe contrast, scaled
        rng = np.random.default_rng(17)
        for _ in range(200):
            eps2 = rng.uniform(0.0, 1.0)
            eps1 = math.sqrt(1 - eps2 ** 2)
            theta = rng.uniform(0.0, math.pi)
            a1 = eps1 * math.cos(theta) - 1j * eps2 * math.sin(theta)
            a2 = eps1 * math.sin(theta) + 1j * eps2 * math.cos(theta)
            state = TwoPhotonState(complex(a1), complex(a2), VERTICAL, HORIZONTAL)
            mu_max = rng.uniform(0.1, 1.0)
            p = VisibilityCurveParams(mu_max, theta0=0.0, eps1=eps1, variant="derived")
            assert mu_eff_model(theta, p) == pytest.approx(
                mu_max * phi_scan_oracle(state, ANA45).mu, abs=1e-6)

    def test_variant_names_validated(self):
        with pytest.raises(ValueError):
            VisibilityCurveParams(0.8, 0.0, 0.9, variant="bogus")


class TestFitResult:
    def test_negative_or_non_finite_variance_reads_nan(self):
        fit = FitResult(np.zeros(4), np.diag([4.0, -1e-12, np.inf, np.nan]), 0.0, 0, True)
        assert fit.stderr[0] == 2.0
        assert np.all(np.isnan(fit.stderr[1:]))


def make_noiseless_scan(params, n=61, span=12e-3):
    x = np.linspace(-span / 2, span / 2, n)
    return list(zip(x, fringe_model(x, params)))


class TestFitFringe:
    def test_noiseless_round_trip(self):
        truth = FringeModelParams(c0=55.0, mu=0.83, period=5e-3, psi=0.7)
        fit = fit_fringe(make_noiseless_scan(truth))
        assert fit.converged
        got = fringe_params(fit)
        for name in ("c0", "mu", "period", "psi"):
            assert getattr(got, name) == pytest.approx(
                getattr(truth, name), rel=1e-6), name

    def test_fix_period(self):
        truth = FringeModelParams(c0=40.0, mu=0.5, period=5e-3, psi=-0.4)
        fit = fit_fringe(make_noiseless_scan(truth), fix_period=5e-3)
        got = fringe_params(fit)
        assert got.period == 5e-3
        assert got.mu == pytest.approx(0.5, abs=1e-9)
        assert got.psi == pytest.approx(-0.4, abs=1e-9)

    def test_negative_contrast_folds_into_phase(self):
        # data built with mu < 0 must come back with mu >= 0 and a pi shift
        truth = FringeModelParams(c0=30.0, mu=-0.6, period=4e-3, psi=0.2)
        fit = fit_fringe(make_noiseless_scan(truth))
        got = fringe_params(fit)
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
            p = fringe_params(fit)
            if abs(p.mu - truth.mu) <= 3 * fit.stderr[1]:
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
        assert 0.10 <= fringe_params(fit).mu <= 0.15
        records = sample_counts(list(zip(x, rates)), 10.0, seed=2)
        noisy = fringe_params(fit_fringe(records)).mu
        assert 0.09 <= noisy <= 0.16

    def test_invariant_under_uniform_count_rescaling(self):
        truth = FringeModelParams(c0=54.9, mu=0.82, period=5e-3, psi=0.1)
        x = np.linspace(-6e-3, 6e-3, 61)
        records = sample_counts(list(zip(x, fringe_model(x, truth))), 10.0, seed=5)
        scaled = records.copy()
        scaled.expected_rate *= 10
        scaled.counts *= 10
        mu_a = fringe_params(fit_fringe(records)).mu
        mu_b = fringe_params(fit_fringe(scaled)).mu
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
    def counting_covariance(records, c0, mu, period, psi, free):
        """Gauss-Newton covariance of (c0, mu[, period], psi) at the given
        parameters, from the model's analytic Jacobian in counts space."""
        x = np.array([r.position for r in records])
        y = np.array([r.counts for r in records], dtype=float)
        t = np.array([r.integration_time for r in records])
        w = 1.0 / np.maximum(y, 1.0)
        phase = 2.0 * np.pi * x / period + psi
        cols = [1.0 + mu * np.cos(phase), c0 * np.cos(phase), -c0 * mu * np.sin(phase)]
        if free:
            cols.insert(2, c0 * mu * np.sin(phase) * 2.0 * np.pi * x / period ** 2)
        jac = t[:, None] * np.column_stack(cols)
        resid = y - t * c0 * (1.0 + mu * np.cos(phase))
        return (np.linalg.inv(jac.T @ (w[:, None] * jac))
                * float(resid @ (w * resid)) / (x.size - len(cols)))

    def test_pinned_period_equals_weighted_normal_equations(self):
        truth = FringeModelParams(c0=54.9, mu=0.82, period=5e-3, psi=0.3)
        x = np.linspace(-6e-3, 6e-3, 61)
        records = sample_counts(list(zip(x, fringe_model(x, truth))), 10.0, seed=11)
        fit = fit_fringe(records, fix_period=5e-3)
        y = np.array([r.counts for r in records], dtype=float)
        w = 1.0 / np.maximum(y, 1.0)
        kx = 2.0 * np.pi * x / 5e-3
        design = 10.0 * np.column_stack((np.ones_like(x), np.cos(kx), np.sin(kx)))
        c0, a, b = np.linalg.solve(design.T @ (w[:, None] * design), design.T @ (w * y))
        mu, psi = math.hypot(a, b) / c0, math.atan2(-b, a)
        cov = self.counting_covariance(records, c0, mu, 5e-3, psi, free=False)
        keep = [0, 1, 3]
        assert fit.converged
        assert fit.params[2] == 5e-3
        assert np.allclose(fit.params[keep], [c0, mu, psi], rtol=1e-12, atol=0.0)
        assert np.allclose(fit.covariance[np.ix_(keep, keep)], cov, rtol=1e-9, atol=0.0)
        assert np.all(fit.covariance[2] == 0.0) and np.all(fit.covariance[:, 2] == 0.0)

    def test_free_period_agrees_with_pinned_fit_at_its_period(self):
        truth = FringeModelParams(c0=5.49, mu=0.82, period=5e-3, psi=-1.1)
        x = np.linspace(-6e-3, 6e-3, 61)
        for seed in range(5):
            records = sample_counts(list(zip(x, fringe_model(x, truth))), 10.0, seed=seed)
            free = fit_fringe(records)
            pinned = fit_fringe(records, fix_period=free.params[2])
            assert free.converged and pinned.converged
            assert np.allclose(free.params[[0, 1, 3]], pinned.params[[0, 1, 3]],
                               rtol=1e-8, atol=1e-10)
            cov = self.counting_covariance(records, *free.params, free=True)
            assert np.allclose(free.covariance, cov, rtol=1e-7, atol=0.0)

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
        assert fit.params[0] == pytest.approx(rate, abs=1e-12)
        assert fit.params[1] == 0.0
        assert not np.isfinite(fit.stderr[2]) and not np.isfinite(fit.stderr[3])
        if counting:  # zero counts carry no information on the mean rate either
            assert not np.isfinite(fit.stderr[0])

    def test_period_must_be_finite_and_positive(self):
        scan = make_noiseless_scan(FringeModelParams(c0=10.0, mu=0.5, period=5e-3))
        for bad in (0.0, -5e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="period"):
                fit_fringe(scan, fix_period=bad)
            with pytest.raises(ValueError, match="period"):
                fit_fringe(scan, start_period=bad)

    def test_init_overrides(self, tmp_path, capsys):
        truth = FringeModelParams(c0=55.0, mu=0.8, period=5e-3, psi=0.0)
        fit = fit_fringe(make_noiseless_scan(truth), start_period=5.2e-3)
        assert fringe_params(fit).period == pytest.approx(5e-3, rel=1e-6)
        pinned = fit_fringe(make_noiseless_scan(truth), fix_period=5e-3, start_period=1.0)
        assert fringe_params(pinned).period == 5e-3  # a pinned period wins
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
        # at ~5 counts per peak these scans pull the search towards periods of
        # metres on a 12 mm span
        config = default_config()
        config = dataclasses.replace(
            config, scan=dataclasses.replace(config.scan, peak_rate=0.5))
        scan = simulate_scan(config, seed=seed)
        fit = fit_fringe(scan)
        span = scan.position.max() - scan.position.min()
        k = 2.0 * math.pi / fringe_params(fit).period
        assert not fit.converged
        assert "wavenumbers the scan resolves" in fit.message
        assert np.all(fit.stderr != 0.0)
        assert 2.0 * math.pi / span * (1 - 1e-12) <= k
        assert k <= math.pi * (len(scan) - 1) / span * (1 + 1e-12)


def joint_covariance(scans, coef, k, free=True):
    """Brute force: per-row blocks of the inverse of the full weighted normal
    matrix in (c0, a, b per row; k if free), each scaled by the row's
    SSE / (n - 3 - 1/m), or SSE / (n - 3) with k pinned, as 4 x 4 blocks in
    (c0, a, b, k) with a zero k row and column when pinned."""
    x = scans.position[0]
    t = scans.integration_time[0]
    y = scans.counts.astype(float)
    m, n = y.shape
    w = 1.0 / np.maximum(y, 1.0)
    design = np.column_stack((t, t * np.cos(k * x), t * np.sin(k * x)))
    jac = np.zeros((m * n, 3 * m + free))
    for i, (c0, a, b) in enumerate(coef):
        rows = slice(i * n, (i + 1) * n)
        jac[rows, 3 * i:3 * i + 3] = design
        if free:
            jac[rows, -1] = x * (b * design[:, 1] - a * design[:, 2])
    inverse = np.linalg.inv(jac.T @ (w.reshape(-1, 1) * jac))
    dof = n - 3 - (1 / m if free else 0)
    blocks = np.zeros((m, 4, 4))
    for i in range(m):
        keep = [3 * i, 3 * i + 1, 3 * i + 2] + ([3 * m] if free else [])
        resid = y[i] - design @ coef[i]
        size = len(keep)
        blocks[i, :size, :size] = inverse[np.ix_(keep, keep)] * float(resid @ (w[i] * resid)) / dof
    return blocks


def to_fringe_covariance(lin_cov, coef, k):
    """Delta method from (c0, a, b, k) to (c0, mu, period, psi)."""
    c0, a, b = coef
    h = math.hypot(a, b)
    grad = np.array([[1.0, 0.0, 0.0, 0.0],
                     [-h / c0 ** 2, a / (c0 * h), b / (c0 * h), 0.0],
                     [0.0, 0.0, 0.0, -2.0 * math.pi / k ** 2],
                     [0.0, b / h ** 2, -a / h ** 2, 0.0]])
    return grad @ lin_cov @ grad.T


def per_row_start_wavenumber(x, y):
    """_dominant_wavenumber with each row of y resampled by its own np.interp
    call, and its mean subtracted before the FFT: the reference the one-interp
    resample of the stack, which leaves the mean in bin 0, must agree with.
    The grid has the smallest power of two >= max(x.size, 16) points."""
    n = 16
    while n < x.size:
        n *= 2
    grid = np.linspace(x[0], x[-1], n)
    resampled = np.array([np.interp(grid, x, row) for row in y])
    spectrum = np.abs(np.fft.rfft(resampled - resampled.mean(axis=-1, keepdims=True)))
    k = 1 + int(np.argmax(spectrum.sum(axis=0)[1:]))
    return 2.0 * math.pi * k / (grid[-1] - grid[0]) * (n - 1) / n


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
    fractional index; the per-row resample of each row is the reference."""

    @pytest.mark.parametrize("n, m, layout", [
        (4, 3, "uniform"), (9, 1, "uniform"), (15, 5, "uniform"),  # grid longer than the data
        (16, 2, "uniform"), (61, 19, "uniform"), (61, 1, "uniform"),
        (12, 4, "random"), (61, 19, "random"), (200, 3, "random"),  # non-uniform positions
        (8, 2, "repeated"), (61, 19, "repeated"), (30, 1, "repeated"),
    ])
    def test_same_start_as_the_per_row_resample(self, n, m, layout):
        rng = np.random.default_rng(n * 100 + m)
        for _ in range(200):
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
            assert _dominant_wavenumber(x, y) == per_row_start_wavenumber(x, y)

    def test_same_start_on_simulated_sweeps(self):
        for seed in range(50):
            scans = sweep_scans(np.linspace(0.0, math.pi, 19), seed)
            x = scans["position"][0]
            y = scans["counts"] / scans["integration_time"]
            assert _dominant_wavenumber(x, y) == per_row_start_wavenumber(x, y)

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


    @pytest.mark.parametrize("n, length", [(61, 64), (2001, 2048)] +
                             [(n, 16) for n in range(4, 17)])
    def test_fft_runs_on_a_power_of_two(self, n, length, monkeypatch):
        lengths = []
        rfft = np.fft.rfft

        def recorded(a, *args, **kwargs):
            lengths.append(np.shape(a)[-1])
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recorded)
        fit_fringe(make_noiseless_scan(FringeModelParams(c0=50.0, mu=0.6, period=5e-3),
                                       n=n))
        assert lengths == [length]


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
        pinned = fit_fringe(scans, fix_period=period).params
        assert len({round(mu, 3) for mu in pinned[:5, 1]}) == 5
        assert len({round(psi, 3) for psi in pinned[:5, 3]}) == 5
        assert pinned[5, 1] == 0.0
        fit = fit_fringe(scans)
        assert fit.converged
        assert fit.params.shape == (6, 4)
        assert np.all(fit.params[:, 2] == fit.params[0, 2])
        assert fit.params[0, 2] == pytest.approx(period, rel=1e-10, abs=0.0)
        # one noise-free scan alone: its SSE is ~0, so the stop stays at 1e-10 k
        one = fit_fringe(scans[0])
        assert one.converged
        assert one.params[2] == pytest.approx(period, rel=1e-10, abs=0.0)
        assert fit_fringe(scans[0], start_period=float(one.params[2])).iterations == 0

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
                k = 2.0 * math.pi / free.params[2]
                x = scan.position
                design = 10.0 * np.column_stack((np.ones_like(x), np.cos(k * x),
                                                 np.sin(k * x)))
                w = 1.0 / np.maximum(scan.counts, 1.0)
                coef = np.linalg.solve(design.T @ (w[:, None] * design),
                                       design.T @ (w * scan.counts))
                want = to_fringe_covariance(joint_covariance(scan[None], coef[None], k)[0],
                                            coef, k)
                assert np.allclose(shared.covariance[0], want, rtol=1e-10, atol=0.0)

    def test_flat_stack_is_unconverged(self):
        scan = sample_counts([(pos, 0.0) for pos in np.linspace(-6e-3, 6e-3, 61)], 10.0, 0)
        fit = fit_fringe(np.stack([scan, scan.copy()]))
        assert not fit.converged
        assert "zero contrast" in fit.message
        assert np.isfinite(fit.params[:, 2]).all() and np.isnan(fit.stderr[:, 2]).all()

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
        k = 2.0 * math.pi / fit.params[0, 2]
        c0, mu, psi = fit.params[:, 0], fit.params[:, 1], fit.params[:, 3]
        coef = np.column_stack((c0, c0 * mu * np.cos(psi), -c0 * mu * np.sin(psi)))
        blocks = joint_covariance(scans, coef, k, free=fix_period is None)
        for i in range(3):
            want = to_fringe_covariance(blocks[i], coef[i], k)
            assert np.allclose(fit.covariance[i], want, rtol=1e-10, atol=0.0)

    def test_flat_row_keeps_the_other_rows(self):
        scans = sweep_scans([0.3, 1.1, 2.0])
        scans.counts[1] = 0
        fit = fit_fringe(scans)
        alone = fit_fringe(scans[[0, 2]])
        assert fit.converged and fit.message == ""
        assert fit.params[1, 1] == 0.0 and fit.params[1, 3] == 0.0
        assert np.isnan(fit.stderr[1]).all()  # zero counts: no error on c0 either
        assert np.isfinite(fit.stderr[[0, 2]]).all()
        # the flat row carries no information on the period
        assert fit.params[0, 2] == pytest.approx(alone.params[0, 2], rel=1e-9, abs=0.0)
        assert np.allclose(fit.params[[0, 2]], alone.params, rtol=1e-8, atol=0.0)


def per_row_fit_fringe(scan, fix_period=None):
    """fit_fringe with the covariance carried to (c0, mu, period, psi) by a
    delta method per row, a Python loop over the rows: the reference the
    array form must agree with."""
    fixed = fix_period is not None
    x, y, w, t, one_scan, counting = fitting._scan_columns(scan, 3 if fixed else 4)
    if fixed:
        k = 2.0 * math.pi / fix_period
        fit = fitting._linear_fit(k, x, y, w, t)
        period, iterations, converged, message = fix_period, 0, True, ""
    else:
        k, fit, curvature, q, iterations, converged, message = fitting._search_wavenumber(
            fitting._dominant_wavenumber(x, y / t), x, y, w, t)
        period = 2.0 * math.pi / k
    coef, _, _, normal_inv, _, sse = fit
    m, n = y.shape
    params, grad, contrast = [], [], []
    for c0, a, b in coef.tolist():
        h = math.hypot(a, b)
        h = 0.0 if h <= fitting._ZERO_CONTRAST * abs(c0) else h
        contrast.append(h)
        if h:
            params.append((c0, h / c0, period, math.atan2(-b, a)))
            grad.append(((1.0, 0.0, 0.0), (-h / c0 ** 2, a / (c0 * h), b / (c0 * h)),
                         (0.0, 0.0, 0.0), (0.0, b / h ** 2, -a / h ** 2)))
        else:
            params.append((c0, 0.0, period, 0.0))
            grad.append(((1.0, 0.0, 0.0),) + ((math.nan,) * 3,) * 3)
    grad = np.array(grad)
    cov = grad @ normal_inv @ grad.swapaxes(-1, -2)
    if not fixed and any(contrast):
        s = -(grad @ q[:, :, None])[:, :, 0]
        s[:, 2] -= 2.0 * math.pi / k ** 2
        cov += (1.0 / curvature) * (s[:, :, None] * s[:, None, :])
    dof = n - 3 - (0.0 if fixed else 1.0 / m)
    scale = sse * (0.5 / dof)
    if counting:
        scale[~y.any(axis=1)] = math.nan
    cov = (cov + cov.swapaxes(-1, -2)) * scale[:, None, None]
    params = np.array(params)
    if not any(contrast):
        converged, message = False, "zero contrast: fringe period and phase are undefined"
    if one_scan:
        params, cov = params[0], cov[0]
    return params, cov, iterations, converged, message


class TestArrayDeltaMethod:
    """fit_fringe carries every row's covariance to (c0, mu, period, psi) with
    array operations over the rows; a per-row loop is the reference."""

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
    def test_agrees_with_the_per_row_loop(self, case):
        scan, fix_period = self.cases()[case]
        fit = fit_fringe(scan, fix_period=fix_period)
        params, cov, iterations, converged, message = per_row_fit_fringe(scan, fix_period)
        assert fit.params.shape == params.shape and fit.covariance.shape == cov.shape
        assert np.array_equal(np.isnan(fit.params), np.isnan(params))
        assert np.array_equal(np.isnan(fit.covariance), np.isnan(cov))
        np.testing.assert_allclose(fit.params, params, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(fit.covariance, cov, rtol=1e-13, atol=0.0)
        assert (fit.iterations, fit.converged, fit.message) == (iterations, converged,
                                                                 message)
        if case in ("flat row", "zero-count row"):  # the NaN rules the reference keeps
            row = 4 if case == "flat row" else 7
            assert np.isnan(fit.stderr[row, 1:]).all()
            assert np.isnan(fit.stderr[row, 0]) == (case == "zero-count row")


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

    @pytest.mark.parametrize("kind", ["single", "fig5"])
    def test_restart_at_the_reported_period_returns_it(self, kind, monkeypatch):
        if kind == "single":
            scans = [simulate_scan(default_config(), seed=seed) for seed in range(200)]
        else:
            scans = fig5_stacks(range(200), monkeypatch)
        for scan in scans:
            fit = fit_fringe(scan)
            again = fit_fringe(scan, start_period=float(np.ravel(fit.params)[2]))
            assert fit.converged and again.converged
            assert again.iterations == 0
            assert np.allclose(again.params, fit.params, rtol=1e-12, atol=0.0)

    def test_linear_solves_per_fig5_search(self, monkeypatch):
        # the cost of the search, independent of the machine: each step needs
        # one linear solve at its trial wavenumber and none to confirm the stop
        stacks = fig5_stacks(range(200), monkeypatch)
        calls = []
        linear_fit = fitting._linear_fit
        monkeypatch.setattr(fitting, "_linear_fit",
                            lambda *args: calls.append(args[0]) or linear_fit(*args))
        for scans in stacks:
            assert fit_fringe(scans).converged
        assert len(calls) / len(stacks) <= 3.5

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
            params, ref = np.atleast_2d(fit.params), np.atleast_2d(reference.params)
            stderr = np.atleast_2d(fit.stderr)
            period_error = math.sqrt(np.mean(stderr[:, 2] ** 2))
            assert np.all(np.abs(params[:, 2] - ref[:, 2]) <= 0.01 * period_error)
            assert np.all(np.abs(params[:, 1] - ref[:, 1]) <= mu_bound * stderr[:, 1])

    def test_the_stop_keeps_every_fig5_verdict(self, monkeypatch):
        def verdicts():
            return [(r.checks, r.passed) for r in map(reproduce_fig5, range(100))]

        stopped = verdicts()
        monkeypatch.setattr(fitting, "_SIGMA_TOL", 0.0)
        assert verdicts() == stopped


def synthetic_curve(rng, mu_max=0.77, theta0=math.pi, eps2=EPS2, noise=0.02,
                    n=19, variant="derived"):
    theta = np.linspace(0.0, math.pi, n)
    p = VisibilityCurveParams(mu_max, theta0, math.sqrt(1 - eps2 ** 2), variant)
    clean = mu_eff_model(theta, p)
    sigma = np.maximum(noise * np.maximum(clean, 0.05), 1e-4)
    mu = np.clip(clean + rng.normal(0.0, sigma), 0.0, 1.0)
    return list(zip(theta, mu, sigma))


class TestFitVisibilityCurve:
    def test_round_trip_over_seeds(self):
        ok = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            fit = fit_visibility_curve(synthetic_curve(rng))
            p = visibility_curve_params(fit)
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
        p = visibility_curve_params(fit)
        assert mu_eff_model(p.theta0, p) == pytest.approx(0.0, abs=0.02)

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
        assert np.all(np.isnan(fit.stderr))

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
        p = visibility_curve_params(fit)
        assert p.eps1 >= p.eps2

    # the curve model the fit recovers; mu_eff_model's 'paper' form has no fit
    @pytest.mark.parametrize("variant", ["derived"])
    def test_noise_free_curves_recovered(self, variant):
        # eps2 stays in [0.05, 0.65]: as eps2 -> eps1 the curve flattens and
        # theta0 becomes undefined
        rng = np.random.default_rng(31)
        theta = np.linspace(0.0, math.pi, 19)
        for _ in range(200):
            eps2 = rng.uniform(0.05, 0.65)
            truth = VisibilityCurveParams(rng.uniform(0.1, 1.0), rng.uniform(0.0, math.pi),
                                          math.sqrt(1.0 - eps2 ** 2), variant)
            points = np.column_stack((theta, mu_eff_model(theta, truth), np.full(19, 0.01)))
            fit = fit_visibility_curve(points)
            p = visibility_curve_params(fit)
            assert fit.converged and fit.iterations == 0
            assert 0.0 <= p.theta0 < math.pi / 2
            assert abs(p.mu_max - truth.mu_max) <= 1e-10
            assert theta0_distance(p.theta0, truth.theta0) <= 1e-10
            assert abs(p.eps2 - eps2) <= 1e-10

    @staticmethod
    def closed_form(coef):
        """(mu_max, theta0, eps1) from mu^2 = A + B cos 4 theta + C sin 4 theta."""
        a, b, c = coef
        r = math.hypot(b, c)
        mu_max_sq, u = a + r, 2.0 * r / (a + r)
        return np.array([math.sqrt(mu_max_sq), (math.atan2(-c, -b) / 4.0) % (math.pi / 2),
                         math.sqrt((1.0 + math.sqrt(u)) / 2.0)])

    # the curve model the fit recovers; mu_eff_model's 'paper' form has no fit
    @pytest.mark.parametrize("variant", ["derived"])
    def test_weighted_normal_equations_on_mu_squared(self, variant):
        rng = np.random.default_rng(21)
        theta, mu, sigma = np.array(synthetic_curve(rng, theta0=1.0, variant=variant)).T
        w = 1.0 / (4.0 * mu ** 2 * sigma ** 2 + 2.0 * sigma ** 4)
        design = np.column_stack((np.ones_like(theta), np.cos(4 * theta), np.sin(4 * theta)))
        normal = design.T @ (w[:, None] * design)
        coef = np.linalg.solve(normal, design.T @ (w * mu ** 2))
        resid = mu ** 2 - design @ coef
        jac = np.column_stack([(self.closed_form(coef + h) - self.closed_form(coef - h)) / 2e-7
                               for h in 1e-7 * np.eye(3)])
        cov = jac @ np.linalg.inv(normal) @ jac.T * float(resid @ (w * resid)) / (theta.size - 3)
        fit = fit_visibility_curve(list(zip(theta, mu, sigma)))
        assert fit.converged
        assert np.allclose(fit.params, self.closed_form(coef), rtol=1e-12, atol=0.0)
        assert np.allclose(fit.covariance, cov, rtol=1e-6, atol=1e-9 * np.abs(cov).max())

    def test_linear_pump_clips_to_eps1_one_with_finite_error(self):
        # a linear-pump curve with 2% deeper flanks fits A < R, so u clips at 1
        theta = np.linspace(0.0, math.pi, 19)
        theta0 = theta[5]
        truth = VisibilityCurveParams(0.77, theta0, 1.0)
        mu = mu_eff_model(theta, truth) * (1.0 - 0.02 * np.cos(4.0 * (theta - theta0)))
        sigma = np.full(19, 0.01)
        sigma[9] = 0.0
        assert mu[5] == 0.0
        fit = fit_visibility_curve(list(zip(theta, mu, sigma)))
        p = visibility_curve_params(fit)
        assert fit.converged
        assert p.eps1 == 1.0
        assert 0.0 < fit.stderr[2] < np.inf
        assert theta0_distance(p.theta0, theta0) < 1e-3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_finite_input_raises(self, column, bad):
        rows = np.array(synthetic_curve(np.random.default_rng(1)))
        rows[4, column] = bad
        with pytest.raises(ValueError, match="non-finite"):
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
    def referee_rank(theta):
        """np.linalg.matrix_rank of the design [1, cos 4 theta, sin 4 theta], and
        its smallest singular value over its default tolerance."""
        design = np.column_stack((np.ones_like(theta), np.cos(4.0 * theta),
                                  np.sin(4.0 * theta)))
        sv = np.linalg.svd(design, compute_uv=False)
        return (np.linalg.matrix_rank(design),
                sv.min() / (sv.max() * max(design.shape) * np.finfo(float).eps))

    @staticmethod
    def fits(theta):
        """Whether fit_visibility_curve fits the angles, on a curve it can fit,
        rather than raising its 4 theta error."""
        mu = np.sqrt(0.4 + 0.1 * np.cos(4.0 * theta) + 0.05 * np.sin(4.0 * theta))
        try:
            fit_visibility_curve(np.column_stack((theta, mu, np.full(theta.size, 0.01))))
        except IllPosedError as exc:
            assert "4 theta" in str(exc)
            return False
        return True

    def test_rank_test_agrees_with_matrix_rank(self):
        # random angles; angles 45 degrees apart, with duplicates (4 theta takes
        # two values); and such sets with one angle moved by 1e-14 to 1e-8 rad
        rng = np.random.default_rng(17)
        counts = {"random": 0, "degenerate": 0, "moved": 0}
        for trial in range(3000):
            n = int(rng.integers(4, 40))
            kind = ("random", "degenerate", "moved")[trial % 3]
            if kind == "random":
                theta = rng.uniform(-math.pi, math.pi, n)
            else:
                theta = rng.uniform(-3.0, 3.0) + math.pi / 4.0 * rng.integers(-5, 6, n)
                if kind == "moved":
                    theta[rng.integers(n)] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14, -8)
            rank, ratio = self.referee_rank(theta)
            full = fitting._rank_three(np.array((np.cos(4.0 * theta),
                                                 np.sin(4.0 * theta))))
            if rank < 3:
                assert not full, theta
            elif ratio > math.sqrt(2.0):
                assert full, theta
            else:
                # the closed form reads the design's Frobenius norm sqrt(2 n) for
                # its largest singular value, at most sqrt 2 too large at rank 2:
                # these are sets on one line that rounding lifts just above the
                # referee's tolerance
                assert kind != "random"
            counts[kind] += rank == 3
        assert counts["random"] == 1000 and 0 < counts["moved"] < 1000

    def test_three_distinct_values_of_4_theta_fit(self):
        # 0, 30, 60 and 90 degrees: 4 theta is 0, 120, 240 and 360 degrees
        theta = np.radians([0.0, 30.0, 60.0, 90.0])
        truth = VisibilityCurveParams(0.77, 0.4, math.sqrt(1.0 - 0.3 ** 2))
        assert self.referee_rank(theta)[0] == 3
        fit = fit_visibility_curve(np.column_stack(
            (theta, mu_eff_model(theta, truth), np.full(4, 0.01))))
        p = visibility_curve_params(fit)
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
    ])
    def test_duplicated_angles_follow_the_referee(self, degrees):
        theta = np.radians(degrees)
        assert self.fits(theta) == (self.referee_rank(theta)[0] == 3)

    @pytest.mark.parametrize("offset", [0.0, 0.3])
    def test_angles_1e_9_from_a_degenerate_set_follow_the_referee(self, offset):
        singular = 0
        for i in range(5):
            for sign in (-1.0, 1.0):
                theta = offset + np.radians([0.0, 45.0, 90.0, 135.0, 180.0])
                theta[i] += sign * 1e-9
                assert self.referee_rank(theta)[0] == 3
                assert fitting._rank_three(np.array((np.cos(4.0 * theta),
                                                     np.sin(4.0 * theta))))
                if not self.fits(theta):
                    # the rank test passed, but the weighted normal matrix, whose
                    # condition number is the design's squared (~1e18 here), is
                    # singular to np.linalg.inv, and the fit reports that with
                    # the same error
                    mu = np.sqrt(0.4 + 0.1 * np.cos(4.0 * theta) + 0.05 * np.sin(4.0 * theta))
                    w = 1.0 / (4.0 * mu ** 2 * 0.01 ** 2 + 2.0 * 0.01 ** 4)
                    assert fitting._linear_fit(4.0, theta, mu ** 2, w,
                                               np.ones_like(theta))[0] is None
                    singular += 1
        assert singular < 10

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

    def test_array_and_triples_give_identical_fits(self):
        points = synthetic_curve(np.random.default_rng(3))
        from_rows = fit_visibility_curve(points)
        from_array = fit_visibility_curve(np.array(points))
        assert np.array_equal(from_rows.params, from_array.params)
        assert np.array_equal(from_rows.covariance, from_array.covariance)

    def test_rows_must_be_triples(self):
        with pytest.raises(ValueError, match="triples"):
            fit_visibility_curve(np.ones((10, 2)))
