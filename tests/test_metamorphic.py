"""Metamorphic relations of the simulator and the fringe fit.

Each test changes an input in a known way and checks how the output must
change with it (Chen et al., ACM Comput. Surv. 51 (2018) 4; Segura et al.,
IEEE TSE 42 (2016) 805).  Any estimator equivariant under the change obeys
the relation whatever its weights, so these referees hold for the Neyman fit
and for a Poisson-likelihood one alike.

A relation that holds in real arithmetic holds in floating point to the
rounding of the fit's sums, and each bound below is that rounding.  A sum of
n terms, each perturbed by at most delta relative, moves by at most n delta
of the sum of its terms' magnitudes (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., section 4.2).  The linear solve carries this
into (c0, a, b) times at most the condition number of their normal matrix.
rounding_bound reads that number from the fit's (c0, a, b) covariance block,
the inverse normal matrix plus the period's share.  MARGIN covers the few
roundings more of each stage a value passes through: the search's steps,
hypot and atan2.  mu is compared absolutely (it is of order 1, as are a / c0
and b / c0), the period and sigma_mu relatively.  A relation that is exact in
floating point is compared bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest

from twinfringe import pipeline
from twinfringe.config import default_config, entangled_sweep_config
from twinfringe.fitting import fit_fringe, fringe_params
from twinfringe.pipeline import simulate_scan, sweep_pump_angle

EPS = np.finfo(float).eps
MARGIN = 64
SEEDS = range(20)
# ~5, ~50 and ~1000 counts per peak on the default 61-point scan
PEAK_RATES = (0.5, 5.0, 100.0)


def scan_config(peak_rate, scan_mode="signal_only"):
    config = default_config()
    return dataclasses.replace(config, scan=dataclasses.replace(
        config.scan, peak_rate=peak_rate, scan_mode=scan_mode))


@pytest.fixture(scope="module")
def fitted_scans():
    """(scan, fit) of default scans at each count level, converged fits only."""
    fitted = []
    for peak_rate in PEAK_RATES:
        for seed in SEEDS:
            scan = simulate_scan(scan_config(peak_rate), seed)
            fit = fit_fringe(scan)
            if fit.converged:
                fitted.append((scan, fit))
    assert len(fitted) >= 0.9 * len(PEAK_RATES) * len(SEEDS)
    return fitted


def rounding_bound(fit, terms, delta):
    """MARGIN times the condition number of the fit's (c0, a, b) covariance
    block, the worst over its rows, times terms * delta: the rounding of a
    sum of that many terms, each perturbed by delta relative."""
    kappa = float(np.max(np.linalg.cond(fit.covariance[..., :3, :3])))
    return MARGIN * kappa * terms * delta


def moved(scan, **fields):
    """A copy of the scan with the given fields replaced."""
    out = scan.copy()
    for name, value in fields.items():
        out[name] = value
    return out


def test_scaling_positions_by_a_power_of_two_is_exact(fitted_scans):
    # every product with 2**20 is exact, and k x, the design and the weights
    # are unchanged: the period scales by 2**20 and the rest is bit-equal
    for scan, fit in fitted_scans:
        scaled = fit_fringe(moved(scan, position=scan.position * 2.0 ** 20))
        assert scaled.params[3] == fit.params[3] * 2.0 ** 20
        assert np.array_equal(scaled.params[:3], fit.params[:3])
        assert scaled.covariance[3, 3] == fit.covariance[3, 3] * 2.0 ** 40
        (values, errors), (got, got_errors) = fringe_params(fit), fringe_params(scaled)
        assert (got.mu, got_errors.mu, got.psi) == (values.mu, errors.mu, values.psi)


def test_reversing_the_point_order_is_exact(fitted_scans):
    # the fit sorts its points by position, so the order they come in is lost
    for scan, fit in fitted_scans:
        again = fit_fringe(scan[::-1])
        assert np.array_equal(again.params, fit.params)
        assert np.array_equal(again.covariance, fit.covariance)


def test_reflecting_the_positions_negates_the_phase(fitted_scans):
    # x -> -x: cos kx is even and sin kx odd, so b and psi change sign and
    # mu and the period stay; the sums run in the reverse order
    for scan, fit in fitted_scans:
        reflected = fit_fringe(moved(scan, position=-scan.position))
        bound = rounding_bound(fit, len(scan), EPS)
        values, got = fringe_params(fit)[0], fringe_params(reflected)[0]
        assert reflected.converged
        assert abs(got.mu - values.mu) <= bound
        assert abs(got.period - values.period) <= bound * values.period
        # psi is an angle: its error is that of (a, b) over their length
        assert abs(math.remainder(got.psi + values.psi, 2.0 * math.pi)) <= bound / values.mu


def test_translating_by_one_period_moves_nothing_but_the_rounding(fitted_scans):
    # x -> x + period shifts every phase by 2 pi, which (a, b) absorb: mu and
    # the period are unchanged in real arithmetic.  In floating point each
    # phase k x is rounded anew, to ulp(k x) at the largest |x| of the two
    # scans, and each cos and sin to eps.  The bound holds while the shift is
    # about the span or less: far out, the period's curvature, which carries
    # x, cancels (x / span)^2 of its digits as well
    for scan, fit in fitted_scans:
        values = fringe_params(fit)[0]
        shifted = moved(scan, position=scan.position + values.period)
        again = fit_fringe(shifted)
        k = 2.0 * math.pi / values.period
        reach = max(np.abs(scan.position).max(), np.abs(shifted.position).max())
        bound = rounding_bound(fit, len(scan), float(np.spacing(k * reach)) + EPS)
        got = fringe_params(again)[0]
        assert again.converged
        assert abs(got.mu - values.mu) <= bound
        assert abs(got.period - values.period) <= bound * values.period


def test_integration_time_scales_the_rates_only(fitted_scans):
    # the same counts over 7 times the integration time: the rates, and so
    # (c0, a, b), read 1/7, while the counts space model, the weights, mu and
    # sigma_mu are unchanged but for the rounding of the divisions by 7
    for scan, fit in fitted_scans:
        longer = fit_fringe(moved(scan, integration_time=scan.integration_time * 7.0))
        bound = rounding_bound(fit, len(scan), EPS)
        (values, errors), (got, got_errors) = fringe_params(fit), fringe_params(longer)
        assert longer.converged
        assert abs(got.mu - values.mu) <= bound
        assert abs(got_errors.mu - errors.mu) <= bound * errors.mu
        assert abs(got.period - values.period) <= bound * values.period
        # a and b are at most of the order of c0, and share its rounding
        assert np.all(np.abs(longer.params[:3] * 7.0 - fit.params[:3])
                      <= bound * abs(fit.params[0]))


@pytest.mark.parametrize("seed", range(5))
def test_permuting_a_stacks_rows_permutes_mu(seed):
    # a sweep's stack fitted with its rows in another order: each row's solve
    # is its own, and only the sums over the m rows (the SSE, the gradient
    # and the curvature of the shared period) run in another order
    stack = pipeline._simulate(entangled_sweep_config(), np.linspace(0.0, math.pi, 19), seed)
    order = np.random.default_rng(seed).permutation(len(stack))
    fit, permuted = fit_fringe(stack), fit_fringe(stack[order])
    assert fit.converged and permuted.converged
    bound = rounding_bound(fit, len(stack), EPS)
    values, got = fringe_params(fit)[0], fringe_params(permuted)[0]
    assert np.all(np.abs(got.mu - values.mu[order]) <= bound)
    assert np.all(got.period == got.period[0])
    assert abs(got.period[0] - values.period[0]) <= bound * values.period[0]


def test_a_pump_half_a_turn_round_is_the_same_sweep():
    # a linear polarization is unoriented: theta + pi is theta, up to the
    # rounding of the angle modulo pi, an ulp of pi.  Each rate is a smooth
    # function of the angle whose slope is of the order of the peak rate, so
    # the rates agree to a few eps of the largest (MARGIN covers the chain's
    # roundings).  A seeded Poisson draw changes only where its rate lies
    # within that rounding of a threshold, so the counts, and with them the
    # fitted sweep, agree bit for bit
    config = entangled_sweep_config()
    thetas = np.linspace(0.0, math.pi, 19)
    turned = thetas + math.pi
    rates = pipeline._expected_stack(config, tuple(thetas.tolist()))[..., 1]
    rates_turned = pipeline._expected_stack(config, tuple(turned.tolist()))[..., 1]
    assert np.all(np.abs(rates_turned - rates) <= MARGIN * EPS * rates.max())
    for seed in range(3):
        sweep = sweep_pump_angle(config, thetas, seed)
        again = sweep_pump_angle(config, turned, seed)
        for name in ("mu", "sigma_mu", "converged"):
            assert sweep[name].tobytes() == again[name].tobytes(), name


@pytest.mark.parametrize("peak_rate", PEAK_RATES)
def test_moving_the_signal_or_the_idler_detector_is_one_scan(peak_rate):
    # the fringe phase reads x_signal + x_idler, so moving either detector
    # alone draws the same counts from the same seed
    for seed in range(3):
        signal = simulate_scan(scan_config(peak_rate, "signal_only"), seed)
        idler = simulate_scan(scan_config(peak_rate, "idler_only"), seed)
        assert signal.tobytes() == idler.tobytes()
