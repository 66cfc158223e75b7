"""Honesty of the reported standard errors.

Each case draws a few hundred seeded fits of a known truth and checks the
z-scores (estimate - truth) / reported error: their mean must be near 0 and
about 68.3% of them must fall within 1.  At 200 draws the binomial spread of
the coverage is ~0.033, so the 0.10 bound is about 3 sigma.  A last case
checks the reported errors against the Cramer-Rao bound of the simulated
experiment, an independent derivation of the same covariance.
"""

import dataclasses
import math

import numpy as np
import pytest

from twinfringe.config import default_config, entangled_sweep_config
from twinfringe.detection import expected_scan
from twinfringe.fitting import FringeModelParams, fit_fringe, fringe_model, fringe_params
from twinfringe.pipeline import FIG5_TRUTH, reproduce_fig5, simulate_scan
from twinfringe.polarization import PolarizationAngle, PumpState
from twinfringe.spdc import build_two_photon_state, predicted_visibility_with_analyzers

FIG5_EPS1 = math.sqrt(1.0 - FIG5_TRUTH["eps2"] ** 2)


def assert_calibrated(z):
    """|mean z| <= 0.25 and 1-sigma coverage within 0.10 of 0.683."""
    z = np.asarray(z, dtype=float)
    mean, coverage = z.mean(), np.mean(np.abs(z) <= 1.0)
    assert abs(mean) <= 0.25, f"mean z {mean:+.3f} over {z.size} draws"
    assert abs(coverage - 0.683) <= 0.10, f"1-sigma coverage {coverage:.3f} over {z.size} draws"


@pytest.fixture(scope="module")
def fig5_fits():
    return [reproduce_fig5(seed=seed).fit for seed in range(2000, 2200)]


def test_fig5_eps1(fig5_fits):
    # eps2 follows from eps1 by normalization, so this also covers eps2
    assert_calibrated([(f.params[2] - FIG5_EPS1) / f.stderr[2] for f in fig5_fits])


def test_fig5_theta0(fig5_fits):
    # theta0 is identified modulo pi/2: take the signed distance to the truth
    quarter = math.pi / 4.0
    assert_calibrated([((f.params[1] - FIG5_TRUTH["theta0"] + quarter) % (2.0 * quarter)
                        - quarter) / f.stderr[1] for f in fig5_fits])


@pytest.mark.parametrize("peak_rate", [5.0, 100.0])  # ~50 and ~1000 counts per peak
def test_fringe_period(peak_rate):
    config = default_config()
    config = dataclasses.replace(config, scan=dataclasses.replace(config.scan,
                                                                  peak_rate=peak_rate))
    period = config.geometry.fringe_period
    fits = [fit_fringe(simulate_scan(config, seed)) for seed in range(300)]
    assert_calibrated([(f.params[3] - period) / f.stderr[3] for f in fits])


def test_sweep_visibility():
    # each angle's mu against the closed form at its true pump angle, behind
    # the 0.77 ceiling the sweep config sets
    config = entangled_sweep_config()
    z = []
    for seed in range(3000, 3200):
        for point in reproduce_fig5(seed=seed).points:
            pump = PumpState.from_eps2(FIG5_TRUTH["eps2"], PolarizationAngle(
                (point.theta - FIG5_TRUTH["theta0"]) % math.pi))
            truth = FIG5_TRUTH["mu_max"] * predicted_visibility_with_analyzers(
                build_two_photon_state(pump, config.source), *config.analyzers)
            z.append((point.mu - truth) / point.sigma_mu)
    assert_calibrated(z)


def fringe_cramer_rao_bound(config):
    """sqrt(diag I^-1) over (c0, mu, period, psi) for one counting scan.

    I = sum t (dr/dp)(dr/dp)' / r is the Poisson Fisher information of the
    scan (Kay, Fundamentals of Statistical Signal Processing: Estimation
    Theory, ch. 3).  r is expected_scan's rate at each point, the truth p is
    a noise-free fit of those rows, and dr/dp are central differences of the
    fringe model at p.
    """
    state = build_two_photon_state(config.pump, config.source)
    rows = expected_scan(state, config.source, config.geometry, config.analyzers,
                         config.scan)
    x, rate = rows[:, 0], rows[:, 1]
    truth = np.array(dataclasses.astuple(fringe_params(fit_fringe(rows))[0]))
    jacobian = np.empty((x.size, 4))
    for j in range(4):
        step = np.zeros(4)
        step[j] = 1e-6 * max(abs(truth[j]), 1e-3)
        up = fringe_model(x, FringeModelParams(*(truth + step)))
        down = fringe_model(x, FringeModelParams(*(truth - step)))
        jacobian[:, j] = (up - down) / (2.0 * step[j])
    info = config.scan.integration_time * (jacobian / rate[:, None]).T @ jacobian
    return np.sqrt(np.diag(np.linalg.inv(info)))


def test_fringe_errors_equal_the_cramer_rao_bound():
    # default scan: 61 points, ~1000 counts per peak, free period
    config = default_config()
    bound = fringe_cramer_rao_bound(config)
    reported = np.median([dataclasses.astuple(fringe_params(fit_fringe(
        simulate_scan(config, seed)))[1]) for seed in range(300)], axis=0)
    for name, j in (("mu", 1), ("period", 2)):
        assert reported[j] / bound[j] == pytest.approx(1.0, abs=0.05), name
