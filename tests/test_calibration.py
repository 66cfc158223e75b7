"""Honesty of the reported standard errors.

Each case draws a few hundred seeded fits of a known truth and checks the
z-scores (estimate - truth) / reported error: their mean must be near 0 and
about 68.3% of them must fall within 1.  At 200 draws the binomial spread of
the coverage is ~0.033, so the 0.10 bound is about 3 sigma.
"""

import dataclasses
import math

import numpy as np
import pytest

from twinfringe.config import default_config, entangled_sweep_config
from twinfringe.fitting import fit_fringe
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
    assert_calibrated([(f.params[2] - period) / f.stderr[2] for f in fits])


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
