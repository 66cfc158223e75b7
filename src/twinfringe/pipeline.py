"""End-to-end simulation pipelines: scan, pump-angle sweep, and the
entanglement-sweep reproduction with its pass/fail comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .config import RunConfig, entangled_sweep_config
from .detection import expected_scan, sample_counts
from .fitting import (FitResult, fit_fringe, fit_visibility_curve,
                      visibility_curve_params)
from .polarization import PolarizationAngle, PumpState
from .spdc import build_two_photon_state

# reference values the reproduction is checked against, with tolerances
FIG5_TRUTH = {"mu_max": 0.77, "theta0": math.pi, "eps2": 0.08}
FIG5_TOLERANCE = {"mu_max": 0.05, "theta0": 0.1, "eps2": 0.03}
FIG5_SEED = 777
FIG5_N_ANGLES = 19


def _simulate(config: RunConfig, pumps: Sequence[PumpState], seed: Optional[int]):
    """An (m, n) stack of counting scans, one per pump, drawn from seed or the config's."""
    states = [build_two_photon_state(pump, config.source) for pump in pumps]
    expected = expected_scan(states, config.source, config.geometry, config.analyzers, config.scan)
    return sample_counts(expected, config.scan.integration_time,
                         config.scan.seed if seed is None else seed)


def simulate_scan(config: RunConfig, seed: Optional[int] = None) -> np.recarray:
    """Simulate one detector sweep under a config, Poisson noise included."""
    return _simulate(config, [config.pump], seed)[0]


@dataclass
class SweepPoint:
    theta: float
    mu: float
    sigma_mu: float
    converged: bool


def sweep_pump_angle(config: RunConfig, thetas: Sequence[float],
                     seed: Optional[int] = None) -> List[SweepPoint]:
    """Visibility versus pump angle: simulate every angle as one row of a
    scan stack, then fit the stack at the one fringe period its rows share.

    Every angle has the same geometry and so the same positions, times and
    fringe period; only contrast and phase change with the angle.  The
    simulate step behind simulate_scan draws the stack from one seed in
    angle order (the first k angles of a sweep draw the same counts as a
    sweep of those k angles); one fit_fringe call searches the shared
    period and fits each row's contrast at it.  A point is converged when
    that fit converged and its sigma_mu is finite (a row without contrast
    has none).
    """
    pumps = [PumpState.from_eps2(config.pump.eps2, PolarizationAngle(theta))
             for theta in thetas]
    if not pumps:
        return []
    fit = fit_fringe(_simulate(config, pumps, seed))
    return [SweepPoint(theta=float(theta), mu=mu, sigma_mu=sigma_mu,
                       converged=fit.converged and math.isfinite(sigma_mu))
            for theta, mu, sigma_mu in zip(thetas, fit.params[:, 1].tolist(),
                                           fit.stderr[:, 1].tolist())]


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


def reproduce_fig5(seed: int = FIG5_SEED, variant: str = "derived") -> Fig5Result:
    """Run the full visibility-sweep reproduction and compare to the
    reference values (mu_max = 0.77, theta0 = pi, eps2 = 0.08).

    Simulates a scan at each of FIG5_N_ANGLES pump dial angles over [0, pi]
    with a 0.77 instrument ceiling and a 0.08 quadrature pump component,
    fits the stack of scans at the fringe period they share, fits the
    visibility curve, and checks the recovered parameters against the
    references at the standard tolerances (+-0.05, +-0.1 rad modulo pi/2,
    +-0.03).
    """
    config = entangled_sweep_config(ceiling=FIG5_TRUTH["mu_max"],
                                    eps2=FIG5_TRUTH["eps2"], seed=seed)
    # theta0 acts as an offset between the pump dial and the crystal frame
    dial = np.linspace(0.0, math.pi, FIG5_N_ANGLES)
    true_angles = (dial - FIG5_TRUTH["theta0"]) % math.pi
    points = sweep_pump_angle(config, true_angles)
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
