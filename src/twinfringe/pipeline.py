"""End-to-end simulation pipelines: scan, pump-angle sweep, and the
entanglement-sweep reproduction with its pass/fail comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from .config import RunConfig, entangled_sweep_config
from .detection import expected_scan, sample_counts
from .fitting import (FitResult, fit_fringe, fit_visibility_curve,
                      fringe_params, visibility_curve_params)
from .polarization import PolarizationAngle, PumpState
from .spdc import build_two_photon_state

# reference values the reproduction is checked against, with tolerances
FIG5_TRUTH = {"mu_max": 0.77, "theta0": math.pi, "eps2": 0.08}
FIG5_TOLERANCE = {"mu_max": 0.05, "theta0": 0.1, "eps2": 0.03}
FIG5_SEED = 777
FIG5_N_ANGLES = 19


def derived_seed(master: int, index: int) -> int:
    """Independent child seed for sub-run `index` of a master seed."""
    ss = np.random.SeedSequence(master, spawn_key=(index,))
    return int(ss.generate_state(2, np.uint32).view(np.uint64)[0])


def simulate_scan(config: RunConfig, seed: Optional[int] = None) -> np.recarray:
    """Simulate one detector sweep under a config, Poisson noise included."""
    state = build_two_photon_state(config.pump, config.source)
    expected = expected_scan(state, config.source, config.geometry,
                             config.analyzers, config.scan)
    use_seed = config.scan.seed if seed is None else seed
    return sample_counts(expected, config.scan.integration_time, use_seed)


@dataclass
class SweepPoint:
    theta: float
    mu: float
    sigma_mu: float
    converged: bool


def sweep_pump_angle(config: RunConfig, thetas: Sequence[float],
                     seed: Optional[int] = None) -> List[SweepPoint]:
    """Visibility versus pump angle: simulate and fringe-fit each angle.

    Each angle gets its own derived seed so the sweep is reproducible
    regardless of evaluation order.
    """
    master = config.scan.seed if seed is None else seed
    points = []
    for i, theta in enumerate(thetas):
        pump = PumpState.from_eps2(config.pump.eps2, PolarizationAngle(theta))
        fit = fit_fringe(simulate_scan(replace(config, pump=pump),
                                       derived_seed(master, i)))
        p = fringe_params(fit)
        points.append(SweepPoint(theta=float(theta), mu=p.mu,
                                 sigma_mu=float(fit.stderr[1]),
                                 converged=fit.converged))
    return points


def theta0_distance(theta0: float, reference: float) -> float:
    """Circular distance between dial offsets, modulo the pi/2 degeneracy.

    The visibility curve depends on theta0 only through sin^2 of twice the
    offset, so theta0 is identifiable only modulo pi/2.
    """
    half = math.pi / 2.0
    d = (theta0 - reference) % half
    return min(d, half - d)


@dataclass
class Fig5Result:
    points: List[SweepPoint]
    fit: FitResult
    variant: str
    mu_max: float
    theta0: float
    eps1: float
    eps2: float
    deltas: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    passed: bool = False


def reproduce_fig5(seed: int = FIG5_SEED, variant: str = "derived",
                   n_angles: int = FIG5_N_ANGLES,
                   config: Optional[RunConfig] = None) -> Fig5Result:
    """Run the full visibility-sweep reproduction and compare to the
    reference values (mu_max = 0.77, theta0 = pi, eps2 = 0.08).

    Simulates a scan at each of n_angles pump dial angles over [0, pi] with
    a 0.77 instrument ceiling and a 0.08 quadrature pump component, fits
    each fringe, fits the visibility curve, and checks the recovered
    parameters against the references at the standard tolerances
    (+-0.05, +-0.1 rad modulo pi/2, +-0.03).
    """
    if config is None:
        config = entangled_sweep_config(ceiling=FIG5_TRUTH["mu_max"],
                                        eps2=FIG5_TRUTH["eps2"], seed=seed)
    # theta0 acts as an offset between the pump dial and the crystal frame
    dial = np.linspace(0.0, math.pi, n_angles)
    true_angles = (dial - FIG5_TRUTH["theta0"]) % math.pi
    points = sweep_pump_angle(config, true_angles, seed=seed)
    for point, d in zip(points, dial):
        point.theta = float(d)

    fit = fit_visibility_curve([(p.theta, p.mu, p.sigma_mu) for p in points],
                               variant=variant)
    params = visibility_curve_params(fit, variant)
    deltas = {
        "mu_max": abs(params.mu_max - FIG5_TRUTH["mu_max"]),
        "theta0": theta0_distance(params.theta0, FIG5_TRUTH["theta0"]),
        "eps2": abs(params.eps2 - FIG5_TRUTH["eps2"]),
    }
    checks = {key: deltas[key] <= FIG5_TOLERANCE[key] for key in deltas}
    return Fig5Result(points=points, fit=fit, variant=variant,
                      mu_max=params.mu_max, theta0=params.theta0,
                      eps1=params.eps1, eps2=params.eps2,
                      deltas=deltas, checks=checks,
                      passed=all(checks.values()) and fit.converged)
