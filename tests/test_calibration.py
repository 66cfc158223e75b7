"""Honesty of the reported standard errors.

Each case draws a few hundred seeded fits of a known truth and checks the
z-scores (estimate - truth) / reported error: their mean must be near 0 and
about 68.3% of them must fall within 1.  At 200 draws the binomial spread of
the coverage is ~0.033, so the 0.10 bound is about 3 sigma.  One case
counts the free fits at ~5 counts per peak that start in a wrong basin and
end far off the period.  A last case checks the reported errors against the
Cramer-Rao bound of the simulated experiment, an independent derivation of
the same covariance.
"""

import dataclasses
import math

import numpy as np
import pytest

from twinfringe.config import default_config, entangled_sweep_config
from twinfringe.detection import expected_scan
from twinfringe.fitting import (FringeModelParams, fit_fringe, fringe_model, fringe_params,
                                visibility_curve_params)
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
    """The (values, errors) views of 200 fig5 visibility-curve fits."""
    return [visibility_curve_params(reproduce_fig5(seed=seed).fit)
            for seed in range(2000, 2200)]


def test_fig5_eps1(fig5_fits):
    assert_calibrated([(p.eps1 - FIG5_EPS1) / se.eps1 for p, se in fig5_fits])


def test_fig5_eps2(fig5_fits):
    assert_calibrated([(p.eps2 - FIG5_TRUTH["eps2"]) / se.eps2 for p, se in fig5_fits])


def test_fig5_theta0(fig5_fits):
    # theta0 is identified modulo pi/2: take the signed distance to the truth
    quarter = math.pi / 4.0
    assert_calibrated([((p.theta0 - FIG5_TRUTH["theta0"] + quarter) % (2.0 * quarter)
                        - quarter) / se.theta0 for p, se in fig5_fits])


@pytest.mark.parametrize("peak_rate", [5.0, 100.0])  # ~50 and ~1000 counts per peak
def test_fringe_period(peak_rate):
    config = default_config()
    config = dataclasses.replace(config, scan=dataclasses.replace(config.scan,
                                                                  peak_rate=peak_rate))
    period = config.geometry.fringe_period
    fits = [fringe_params(fit_fringe(simulate_scan(config, seed))) for seed in range(300)]
    assert_calibrated([(p.period - period) / se.period for p, se in fits])


def test_few_low_count_fits_end_off_the_period():
    # ~5 counts per peak: 1 of these 300 fits ends more than 20% off the 5 mm
    # period.  A start in a wrong basin, such as 1.5 of the 2.4 fringes the
    # span holds, ends there: 11 of the 300 did so from such starts
    config = default_config()
    config = dataclasses.replace(config, scan=dataclasses.replace(config.scan, peak_rate=0.5))
    period = config.geometry.fringe_period
    off = sum(abs(fit_fringe(simulate_scan(config, seed)).params[3] / period - 1.0) > 0.2
              for seed in range(300))
    assert off <= 3, f"{off} of 300 fits end more than 20% off the period"


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
