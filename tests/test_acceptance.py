"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Runtime-limited criteria time their own workload.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from twinfringe.analysis import concurrence, phi_scan_oracle
from twinfringe.config import default_config
from twinfringe.detection import sample_counts
from twinfringe.fitting import (FringeModelParams, fit_fringe, fringe_model,
                                fringe_params)
from twinfringe.pipeline import reproduce_fig5, simulate_scan
from twinfringe.polarization import (DIAGONAL, HORIZONTAL, VERTICAL,
                                     PolarizationAngle, PumpState)
from twinfringe.spdc import (CrystalConfig, SourceConfig, TwoPhotonState,
                             build_two_photon_state, coincidence_probability,
                             default_source, predicted_visibility,
                             predicted_visibility_with_analyzers)

ANA45 = (DIAGONAL, DIAGONAL)
EPS2 = 0.08
EPS1 = math.sqrt(1 - EPS2 ** 2)
CLI = [sys.executable, "-m", "twinfringe.cli"]


def _report(line):
    print(f"\n{line}")


def random_two_photon_state(rng, orthogonal=False):
    r = rng.uniform(0.0, 1.0)
    pa, pb = rng.uniform(0.0, 2 * math.pi, 2)
    chi1 = PolarizationAngle(rng.uniform(0.0, math.pi))
    if orthogonal:
        chi2 = chi1.orthogonal()
    else:
        chi2 = PolarizationAngle(rng.uniform(0.0, math.pi))
    return TwoPhotonState(complex(math.sqrt(r) * np.exp(1j * pa)),
                          complex(math.sqrt(1.0 - r) * np.exp(1j * pb)),
                          chi1, chi2)


def test_criterion_1_oracle_equivalence():
    """Closed-form visibilities match the phase-scan oracle, 1000 configs."""
    rng = np.random.default_rng(20260808)
    t0 = time.perf_counter()
    worst_bare = 0.0
    worst_analyzed = 0.0
    for _ in range(1000):
        eps2 = rng.uniform(0.0, 1.0)
        pump = PumpState.from_eps2(eps2, PolarizationAngle(rng.uniform(0, math.pi)))
        axis = PolarizationAngle(rng.uniform(0, math.pi))
        source = SourceConfig(
            CrystalConfig(PolarizationAngle(rng.uniform(0, math.pi)), axis, "crystal1"),
            CrystalConfig(PolarizationAngle(rng.uniform(0, math.pi)),
                          axis.orthogonal(), "crystal2"),
            phi0=rng.uniform(-math.pi, math.pi))
        state = build_two_photon_state(pump, source)
        analyzers = (PolarizationAngle(rng.uniform(0, math.pi)),
                     PolarizationAngle(rng.uniform(0, math.pi)))
        worst_bare = max(worst_bare, abs(
            predicted_visibility(state) - phi_scan_oracle(state).mu))
        worst_analyzed = max(worst_analyzed, abs(
            predicted_visibility_with_analyzers(state, *analyzers)
            - phi_scan_oracle(state, analyzers).mu))
    elapsed = time.perf_counter() - t0
    assert worst_bare < 1e-6
    assert worst_analyzed < 1e-6
    assert elapsed < 10.0
    _report(f"PASS criterion 1: oracle equivalence over 1000 configs "
            f"(worst {max(worst_bare, worst_analyzed):.2e}, {elapsed:.1f} s)")


def test_criterion_2_linear_pump_reduction():
    """With no quadrature pump the coincidence curve reduces to the
    linear-pump profile 1 + sin(2 theta) cos(phi), up to normalization."""
    source = SourceConfig(CrystalConfig(VERTICAL, VERTICAL, "crystal1"),
                          CrystalConfig(HORIZONTAL, HORIZONTAL, "crystal2"))
    phis = np.linspace(0.0, 2 * math.pi, 181)
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2, 41):
        state = build_two_photon_state(
            PumpState.linear(PolarizationAngle(theta)), source)
        got = coincidence_probability(state, phis, *ANA45)
        ref = 1.0 + math.sin(2 * theta) * np.cos(phis)
        scale = got[0] / ref[0]  # phi = 0 reference point, ref >= 1 there
        worst = max(worst, float(np.max(np.abs(got - scale * ref))))
    assert worst < 1e-12
    _report(f"PASS criterion 2: linear-pump reduction on a (theta, phi) grid "
            f"(worst deviation {worst:.2e})")


def test_criterion_3_fig5_reproduction():
    """100 seeded end-to-end runs recover (mu_max, theta0, eps2) within
    (+-0.05, +-0.1 rad, +-0.03) at least 95 times, in under 60 s."""
    rng = np.random.default_rng(5150)
    reproduce_fig5(seed=0)  # fills the rate cache that every timed seed reuses
    t0 = time.perf_counter()
    passes = 0
    runs = 100
    for _ in range(runs):
        result = reproduce_fig5(seed=int(rng.integers(0, 2 ** 62)))
        if result.passed:
            passes += 1
    elapsed = time.perf_counter() - t0
    # per-point Poisson mean: peak 100/s for 10 s = 1000 counts
    from twinfringe.config import entangled_sweep_config
    sweep_config = entangled_sweep_config()
    assert sweep_config.scan.peak_rate * sweep_config.scan.integration_time >= 1000
    assert passes >= 95
    assert elapsed < 60.0
    _report(f"PASS criterion 3: visibility-sweep reproduction in "
            f"{passes}/{runs} seeded runs ({elapsed:.1f} s)")


def test_criterion_4_floor_and_ceiling():
    """The visibility-curve floor is 0.77 * 2 e1 e2 ~ 0.123, the ceiling is
    exactly 0.77; the paper's literal reading, 0.77 (2 e1 e2)^2, gives 0.0196
    instead, and the source chain and the phase oracle agree with the first."""
    floor = 0.77 * 2 * EPS1 * EPS2
    floor_paper = 0.77 * (2 * EPS1 * EPS2) ** 2

    def chain(pump_angle):
        state = build_two_photon_state(
            PumpState.from_eps2(EPS2, PolarizationAngle(pump_angle)), default_source())
        return 0.77 * predicted_visibility_with_analyzers(state, *ANA45)

    assert floor == pytest.approx(0.123, abs=5e-4)
    assert chain(0.0) == pytest.approx(floor, abs=1e-12)
    assert chain(math.pi / 4) == pytest.approx(0.77, abs=1e-12)
    assert floor_paper == pytest.approx(0.0196, abs=5e-4)
    # the two readings genuinely disagree at the floor
    assert abs(floor - floor_paper) > 0.1

    state = TwoPhotonState(complex(EPS1), complex(EPS2 * 1j), VERTICAL, HORIZONTAL)
    oracle_floor = 0.77 * phi_scan_oracle(state, ANA45).mu
    assert oracle_floor == pytest.approx(floor, abs=1e-6)
    _report(f"PASS criterion 4: floor/ceiling {floor:.4f}/0.7700 "
            f"(chain and oracle agree; paper-reading floor {floor_paper:.4f} documented)")


def test_criterion_5_doubled_frequency():
    """Scanning both detectors together halves the fitted period."""
    import dataclasses
    config = default_config()
    periods = {}
    for mode in ("signal_only", "both"):
        scan = dataclasses.replace(config.scan, scan_mode=mode)
        cfg = dataclasses.replace(config, scan=scan)
        fit = fit_fringe(simulate_scan(cfg, seed=314))
        assert fit.converged
        periods[mode] = fringe_params(fit)[0].period
    ratio = periods["both"] / periods["signal_only"]
    assert ratio == pytest.approx(0.5, rel=0.01)
    _report(f"PASS criterion 5: doubled frequency (period ratio {ratio:.4f})")


def test_criterion_6_fringe_fit_round_trip():
    """Noiseless scans recover all four parameters to 1e-6 relative;
    Poisson scans at peak mean 1000 land within three reported standard
    errors at least 99% of 1000 seeded trials."""
    truth = FringeModelParams(c0=54.9, mu=0.82, period=5e-3, psi=0.7)
    x = np.linspace(-6e-3, 6e-3, 61)
    rates = fringe_model(x, truth)

    fit = fit_fringe(list(zip(x, rates)))
    assert fit.converged
    got = fringe_params(fit)[0]
    for name in ("c0", "mu", "period", "psi"):
        rel = abs(getattr(got, name) - getattr(truth, name)) / abs(getattr(truth, name))
        assert rel < 1e-6, name

    # peak mean counts: 54.9 * (1 + 0.82) * 10 s ~ 1000
    hits = 0
    trials = 1000
    for seed in range(trials):
        records = sample_counts(list(zip(x, rates)), 10.0, seed=seed)
        noisy = fit_fringe(records)
        p, se = fringe_params(noisy)
        if abs(p.mu - truth.mu) <= 3.0 * se.mu:
            hits += 1
    assert hits >= 990
    _report(f"PASS criterion 6: fringe-fit round trip (noiseless exact; "
            f"{hits}/{trials} Poisson trials within 3 standard errors)")


def test_criterion_7_entanglement_bridge():
    """Concurrence equals the midway-analyzer fringe visibility for
    orthogonal-crystal states."""
    rng = np.random.default_rng(1905)
    worst = 0.0
    for _ in range(1000):
        state = random_two_photon_state(rng, orthogonal=True)
        analyzer = PolarizationAngle(state.chi1.radians + math.pi / 4)
        worst = max(worst, abs(concurrence(state)
                               - phi_scan_oracle(state, (analyzer, analyzer)).mu))
    assert worst < 1e-6
    _report(f"PASS criterion 7: entanglement bridge over 1000 states "
            f"(worst {worst:.2e})")


def test_criterion_8_determinism(tmp_path):
    """Fixed config and seed give byte-identical outputs across runs and
    thread counts."""
    from twinfringe.config import entangled_sweep_config, save_config
    config_path = tmp_path / "run.json"
    save_config(entangled_sweep_config(), str(config_path))

    def run(tag, threads):
        env = dict(os.environ)
        for pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[pool] = threads
        scan_out = tmp_path / f"scan_{tag}.csv"
        sweep_out = tmp_path / f"sweep_{tag}.csv"
        fig5_out = tmp_path / f"fig5_{tag}"
        proc = subprocess.run(
            CLI + ["simulate-scan", "--config", str(config_path),
                   "--output", str(scan_out), "--seed", "99"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(
            CLI + ["sweep-pump-angle", "--config", str(config_path),
                   "--output", str(sweep_out), "--seed", "99",
                   "--theta-deg", "0,30,60,90,120,150,180"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(
            CLI + ["reproduce-fig5", "--seed", "99", "--output", str(fig5_out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return (scan_out.read_bytes(), sweep_out.read_bytes(),
                (fig5_out / "visibility_sweep.csv").read_bytes(),
                (fig5_out / "fig5_report.json").read_bytes())

    first = run("a", "1")
    second = run("b", "1")
    third = run("c", "4")
    assert first == second == third
    _report("PASS criterion 8: byte-identical outputs across runs and "
            "thread counts")
