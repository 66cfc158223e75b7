import dataclasses
import math

import numpy as np
import pytest

from twinfringe import pipeline
from twinfringe.config import default_config, entangled_sweep_config
from twinfringe.detection import expected_scan, sample_counts
from twinfringe.errors import IllPosedError
from twinfringe.fitting import fit_fringe, fringe_params
from twinfringe.pipeline import (FIG5_TRUTH, reproduce_fig5, simulate_scan,
                                 sweep_pump_angle, theta0_distance)
from twinfringe.polarization import VERTICAL, PolarizationAngle, PumpState
from twinfringe.spdc import build_two_photon_state


def _derived_seed(master: int, index: int) -> int:
    """Child seed `index` of a master seed, from a spawned SeedSequence."""
    ss = np.random.SeedSequence(master, spawn_key=(index,))
    return int(ss.generate_state(2, np.uint32).view(np.uint64)[0])


class TestTheta0Distance:
    def test_degenerate_offsets_collapse(self):
        for k in range(-4, 5):
            assert theta0_distance(math.pi + k * math.pi / 2, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_plain_distance(self):
        assert theta0_distance(math.pi + 0.05, math.pi) == pytest.approx(0.05)
        assert theta0_distance(math.pi - 0.05, math.pi) == pytest.approx(0.05)


class TestDisentangledSource:
    def test_noise_floor_visibility(self):
        # one crystal pumped (linear pump along its axis): the fitted
        # visibility is pure fit noise, well under 0.02 on average
        config = entangled_sweep_config()
        pump = PumpState.linear(VERTICAL)
        config = dataclasses.replace(config, pump=pump)
        mus = []
        for seed in range(20):
            fit = fit_fringe(simulate_scan(config, seed=_derived_seed(1000, seed)))
            mus.append(fringe_params(fit).mu)
        assert float(np.mean(mus)) < 0.02

    def test_noiseless_visibility_is_zero(self):
        config = entangled_sweep_config()
        state = build_two_photon_state(PumpState.linear(VERTICAL), config.source)
        expected = expected_scan(state, config.source, config.geometry,
                                 config.analyzers, config.scan)
        rates = [r for _, r in expected]
        assert max(rates) - min(rates) < 1e-9 * max(rates)


class TestSweep:
    def test_floor_and_ceiling_of_quadrature_pump_sweep(self):
        config = entangled_sweep_config(ceiling=0.77, eps2=0.08)
        points = sweep_pump_angle(config, np.linspace(0.0, math.pi, 19), seed=11)
        mus = [p.mu for p in points]
        assert max(mus) == pytest.approx(0.77, abs=0.03)
        assert 0.09 <= min(mus) <= 0.16

    def test_points_are_reproducible(self):
        config = entangled_sweep_config()
        thetas = np.linspace(0.0, math.pi, 5)
        a = sweep_pump_angle(config, thetas, seed=3)
        b = sweep_pump_angle(config, thetas, seed=3)
        assert [(p.theta, p.mu, p.sigma_mu) for p in a] == \
               [(p.theta, p.mu, p.sigma_mu) for p in b]

    def test_each_angle_is_fitted_at_the_shared_period(self):
        # the sweep is one stacked fit of scans expected angle by angle and
        # drawn as one stack from the master seed
        config = entangled_sweep_config()
        thetas = np.linspace(0.0, math.pi, 5)
        expected = []
        for theta in thetas:
            state = build_two_photon_state(
                PumpState.from_eps2(config.pump.eps2, PolarizationAngle(theta)), config.source)
            expected.append(expected_scan(state, config.source, config.geometry,
                                          config.analyzers, config.scan))
        fit = fit_fringe(sample_counts(np.stack(expected), config.scan.integration_time, 3))
        points = sweep_pump_angle(config, thetas, seed=3)
        assert [p.mu for p in points] == fit.params[:, 1].tolist()
        assert [p.sigma_mu for p in points] == fit.stderr[:, 1].tolist()
        assert [p.converged for p in points] == [True] * 5
        assert np.all(fit.params[:, 2] == fit.params[0, 2])

    def test_first_angles_draw_the_counts_of_a_longer_sweep(self, monkeypatch):
        # the stack is one stream in angle order: a sweep over the first k
        # angles draws the first k rows of a longer sweep, and row 0 is the
        # one-scan draw at the master seed
        drawn = []

        def fit_and_keep(scans):
            drawn.append(scans.copy())
            return fit_fringe(scans)

        monkeypatch.setattr(pipeline, "fit_fringe", fit_and_keep)
        config = entangled_sweep_config()
        thetas = np.linspace(0.0, math.pi, 7)
        sweep_pump_angle(config, thetas, seed=5)
        sweep_pump_angle(config, thetas[:3], seed=5)
        assert drawn[1].tobytes() == drawn[0][:3].tobytes()
        pump = PumpState.from_eps2(config.pump.eps2, PolarizationAngle(thetas[0]))
        one = simulate_scan(dataclasses.replace(config, pump=pump), 5)
        assert drawn[0][0].tobytes() == one.tobytes()

    def test_angle_without_fringe_reads_near_zero(self):
        # 90 degrees pumps one crystal: no fringe, so a free period search there
        # has nothing to lock onto; at the sweep's shared period it reads ~0
        points = sweep_pump_angle(default_config(), np.linspace(0.0, math.pi, 19), seed=99)
        flat = points[9]
        assert flat.theta == pytest.approx(math.pi / 2)
        assert flat.converged
        assert flat.mu < 0.05 and flat.sigma_mu < 0.02

    def test_sweep_without_fringes_is_unconverged(self):
        config = default_config()
        config = dataclasses.replace(
            config, scan=dataclasses.replace(config.scan, peak_rate=0.0))
        points = sweep_pump_angle(config, np.linspace(0.0, math.pi, 5), seed=1)
        assert len(points) == 5
        assert not any(p.converged for p in points)
        assert all(math.isfinite(p.mu) for p in points)

    def test_empty_sweep(self):
        assert sweep_pump_angle(entangled_sweep_config(), []) == []

    def test_too_few_points_rejected(self):
        config = default_config()
        config = dataclasses.replace(config, scan=dataclasses.replace(
            config.scan, positions=(-1e-3, 0.0, 1e-3)))
        with pytest.raises(IllPosedError):
            sweep_pump_angle(config, [0.0, 1.0])


class TestFig5:
    def test_single_run_recovers_truth(self):
        result = reproduce_fig5(seed=20260808)
        assert result.passed
        assert result.fit.converged
        assert abs(result.mu_max - FIG5_TRUTH["mu_max"]) < 0.05
        assert abs(result.eps2 - FIG5_TRUTH["eps2"]) < 0.03
        assert theta0_distance(result.theta0, FIG5_TRUTH["theta0"]) < 0.1

    def test_paper_variant_inflates_eps2(self):
        # the alternative closed form predicts a much lower floor, so the
        # fit must push eps2 well above the simulated 0.08 to compensate
        result = reproduce_fig5(seed=20260808, variant="paper")
        assert result.eps2 > 0.12
        assert not result.checks["eps2"]
