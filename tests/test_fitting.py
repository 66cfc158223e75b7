import math

import numpy as np
import pytest

from twinfringe.analysis import phi_scan_oracle
from twinfringe.detection import sample_counts
from twinfringe.errors import IllPosedError
from twinfringe.fitting import (FringeModelParams, VisibilityCurveParams,
                                fit_fringe, fit_visibility_curve,
                                fringe_model, fringe_params, mu_eff_model,
                                nls_solve, numeric_jacobian,
                                visibility_curve_params)
from twinfringe.polarization import DIAGONAL, HORIZONTAL, VERTICAL
from twinfringe.spdc import TwoPhotonState

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


class TestNumericJacobian:
    def test_two_step_self_consistency(self):
        x = np.linspace(-5e-3, 5e-3, 40)

        def fringe(xv, q):
            return fringe_model(xv, FringeModelParams(*q))

        def viscurve(tv, q):
            return mu_eff_model(tv, VisibilityCurveParams(q[0], q[1], q[2]))

        theta = np.linspace(0.0, math.pi, 25)
        for func, inputs, params in [
            (fringe, x, np.array([50.0, 0.8, 5e-3, 0.3])),
            (viscurve, theta, np.array([0.77, 3.0, 0.95])),
        ]:
            coarse = numeric_jacobian(func, inputs, params, step=1e-6)
            fine = numeric_jacobian(func, inputs, params, step=1e-7)
            scale = np.max(np.abs(coarse))
            assert np.max(np.abs(coarse - fine)) / scale < 1e-4


class TestNlsSolve:
    @staticmethod
    def quadratic(x, q):
        return q[0] + q[1] * x + q[2] * x * x

    def test_exact_data_from_truth_init(self):
        x = np.linspace(-1, 1, 15)
        truth = np.array([2.0, -0.5, 0.7])
        data = list(zip(x, self.quadratic(x, truth), np.ones_like(x)))
        result = nls_solve(self.quadratic, data, truth)
        assert result.converged
        assert result.residual_norm == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(result.params, truth, atol=1e-12)

    def test_perturbed_init_recovers_fringe_parameters(self):
        x = np.linspace(-6e-3, 6e-3, 61)
        truth = FringeModelParams(c0=80.0, mu=0.82, period=5e-3, psi=0.4)

        def model(xv, q):
            return fringe_model(xv, FringeModelParams(*q))

        data = list(zip(x, model(x, truth.as_vector()), np.ones_like(x)))
        init = truth.as_vector() * 1.1
        result = nls_solve(model, data, init)
        assert result.converged
        assert np.max(np.abs(result.params - truth.as_vector())
                      / np.abs(truth.as_vector())) < 1e-6

    def test_overdetermined_linear_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 1, 40)
        design = np.vstack([np.ones_like(x), x, x * x]).T
        y = design @ np.array([1.0, 2.0, -3.0]) + rng.normal(0, 0.1, x.size)
        w = rng.uniform(0.5, 2.0, x.size)
        closed = np.linalg.solve(design.T @ (w[:, None] * design), design.T @ (w * y))
        result = nls_solve(self.quadratic, list(zip(x, y, w)), np.zeros(3))
        assert result.converged
        assert np.max(np.abs(result.params - closed)) < 1e-9

    def test_nan_model_output_is_an_input_error(self):
        def bad(x, q):
            return np.full_like(np.asarray(x, dtype=float), np.nan)

        with pytest.raises(ValueError):
            nls_solve(bad, [(0.0, 1.0, 1.0), (1.0, 2.0, 1.0)], [0.5])

    def test_underdetermined_rejected(self):
        with pytest.raises(IllPosedError):
            nls_solve(self.quadratic, [(0.0, 1.0, 1.0)], [1.0, 1.0, 1.0])
        with pytest.raises(IllPosedError):
            nls_solve(self.quadratic, [], [1.0, 1.0, 1.0])

    def test_array_and_triples_give_identical_fits(self):
        rng = np.random.default_rng(3)
        x = np.linspace(-1, 1, 30)
        y = self.quadratic(x, [0.5, 1.0, -2.0]) + rng.normal(0, 0.05, x.size)
        w = rng.uniform(0.5, 2.0, x.size)
        from_rows = nls_solve(self.quadratic, list(zip(x, y, w)), np.zeros(3))
        from_array = nls_solve(self.quadratic, np.column_stack((x, y, w)), np.zeros(3))
        assert np.array_equal(from_rows.params, from_array.params)
        assert np.array_equal(from_rows.covariance, from_array.covariance)

    def test_rows_must_be_triples(self):
        with pytest.raises(ValueError, match="triples"):
            nls_solve(self.quadratic, np.ones((10, 2)), np.zeros(3))

    def test_covariance_is_the_pseudo_inverse_of_the_hessian(self):
        rng = np.random.default_rng(4)
        x = np.linspace(-1, 1, 30)
        y = self.quadratic(x, [0.5, 1.0, -2.0]) + rng.normal(0, 0.05, x.size)
        w = rng.uniform(0.5, 2.0, x.size)
        result = nls_solve(self.quadratic, np.column_stack((x, y, w)), np.zeros(3))
        r = np.sqrt(w) * (y - self.quadratic(x, result.params))
        jac = -np.sqrt(w)[:, None] * numeric_jacobian(self.quadratic, x, result.params)
        cov = np.linalg.pinv(jac.T @ jac) * (float(r @ r) / (x.size - 3))
        assert result.converged
        assert np.array_equal(result.covariance, 0.5 * (cov + cov.T))

    def test_unidentifiable_parameter_flagged(self):
        # q[2] never enters the model: the Hessian is singular at any solution
        def model(x, q):
            return q[0] + q[1] * x

        x = np.linspace(-1, 1, 19)
        result = nls_solve(model, np.column_stack((x, 2.0 + 0.5 * x, np.ones_like(x))),
                           [1.0, 0.0, 3.0])
        assert not result.converged
        assert "unidentifiable" in result.message
        assert np.all(np.isnan(result.covariance))
        assert np.allclose(result.params[:2], [2.0, 0.5])


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
        scaled = [type(r)(position=r.position, expected_rate=r.expected_rate * 10,
                          counts=r.counts * 10, integration_time=r.integration_time)
                  for r in records]
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

    def test_period_must_be_finite_and_positive(self):
        scan = make_noiseless_scan(FringeModelParams(c0=10.0, mu=0.5, period=5e-3))
        for bad in (0.0, -5e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="period"):
                fit_fringe(scan, fix_period=bad)
            with pytest.raises(ValueError, match="period"):
                fit_fringe(scan, init_overrides={"period": bad})

    def test_init_overrides(self):
        truth = FringeModelParams(c0=55.0, mu=0.8, period=5e-3, psi=0.0)
        fit = fit_fringe(make_noiseless_scan(truth),
                         init_overrides={"period": 5.2e-3})
        assert fringe_params(fit).period == pytest.approx(5e-3, rel=1e-6)
        for name in ("bogus", "c0", "mu", "psi"):
            with pytest.raises(ValueError):
                fit_fringe(make_noiseless_scan(truth), init_overrides={name: 1.0})


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
            fit = fit_visibility_curve(synthetic_curve(rng), variant="derived")
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

    def test_init_overrides(self):
        rng = np.random.default_rng(12)
        points = synthetic_curve(rng)
        fit = fit_visibility_curve(points, init_overrides={"theta0": 3.1})
        assert fit.converged
        with pytest.raises(ValueError):
            fit_visibility_curve(points, init_overrides={"nope": 1.0})
