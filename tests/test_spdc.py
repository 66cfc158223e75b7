import functools
import math

import numpy as np
import pytest

from twinfringe.errors import ConfigurationError
from twinfringe.polarization import (DIAGONAL, HORIZONTAL, VERTICAL,
                                     PolarizationAngle, PumpState)
from twinfringe.spdc import (CrystalConfig, GeometryConfig, SourceConfig,
                             TwoPhotonState, _curve_coefficients, build_two_photon_state,
                             coincidence_probability, default_source,
                             fringe_phase, predicted_visibility,
                             predicted_visibility_with_analyzers)

SQ2 = math.sqrt(2.0)
ANA45 = (DIAGONAL, DIAGONAL)


def bell_state(chi1=VERTICAL, chi2=HORIZONTAL):
    return TwoPhotonState(complex(1 / SQ2), complex(1 / SQ2), chi1, chi2)


@functools.cache
def dense_grid(n):
    """n phases over [0, 2pi] with their cos and sin, computed once and
    read-only, since every caller shares them."""
    phis = np.linspace(0.0, 2.0 * math.pi, n)
    tables = np.stack((phis, np.cos(phis), np.sin(phis)))
    tables.flags.writeable = False
    return tables


def dense_curve(state, analyzers, n):
    """coincidence_probability on dense_grid(n), from its cached cos and sin."""
    _, cos, sin = dense_grid(n)
    mean, cross, _ = _curve_coefficients(state, *analyzers)
    return mean + cross.real * cos - cross.imag * sin


def grid_visibility(state, analyzers=None, n=200_001):
    """Independent fringe-contrast oracle: dense scan, no refinement."""
    c = dense_curve(state, analyzers if analyzers is not None else (None, None), n)
    hi, lo = float(c.max()), float(c.min())
    return (hi - lo) / (hi + lo) if hi + lo else 0.0


class TestBuildState:
    def test_only_crystal_one_pumped(self):
        state = build_two_photon_state(PumpState.linear(VERTICAL), default_source())
        assert abs(state.a1) == pytest.approx(1.0)
        assert abs(state.a2) == pytest.approx(0.0)

    def test_balanced_pumping_at_diagonal(self):
        state = build_two_photon_state(PumpState.linear(DIAGONAL), default_source())
        assert abs(state.a1) == pytest.approx(1 / SQ2)
        assert abs(state.a2) == pytest.approx(1 / SQ2)

    def test_quadrature_component_lands_on_crystal_two(self):
        pump = PumpState.from_eps2(0.08, VERTICAL)
        state = build_two_photon_state(pump, default_source())
        assert state.a1 == pytest.approx(math.sqrt(1 - 0.08 ** 2))
        assert state.a2 == pytest.approx(0.08j)

    def test_non_orthogonal_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceConfig(CrystalConfig(VERTICAL, VERTICAL, "crystal1"),
                         CrystalConfig(HORIZONTAL, DIAGONAL, "crystal2"))

    def test_amplitude_partition_for_linear_pump(self):
        for theta in np.linspace(0.0, math.pi / 2, 31):
            state = build_two_photon_state(
                PumpState.linear(PolarizationAngle(theta)), default_source())
            assert abs(state.a1) ** 2 + abs(state.a2) ** 2 == pytest.approx(1.0, abs=1e-12)
            assert abs(state.a1) == pytest.approx(math.cos(theta), abs=1e-12)


    def test_non_finite_amplitudes_rejected(self):
        for a1 in (math.nan, complex(math.nan, 0.0), math.inf):
            with pytest.raises(ConfigurationError):
                TwoPhotonState(a1, 0.0, VERTICAL, HORIZONTAL)

class TestPhases:
    def test_fringe_phase_origin(self):
        geo = GeometryConfig(fringe_period=5e-3)
        assert fringe_phase(0.0, 0.0, geo, phi0=0.2) == pytest.approx(0.2)

    def test_one_period_is_one_turn(self):
        geo = GeometryConfig(fringe_period=5e-3)
        assert fringe_phase(5e-3, 0.0, geo) == pytest.approx(2 * math.pi)

    def test_moving_both_detectors_halves_the_period(self):
        geo = GeometryConfig(fringe_period=5e-3)
        assert fringe_phase(2.5e-3, 2.5e-3, geo) == pytest.approx(2 * math.pi)
        for x in np.linspace(-4e-3, 4e-3, 17):
            single = fringe_phase(x, 0.0, geo) - fringe_phase(0.0, 0.0, geo)
            both = fringe_phase(x, x, geo) - fringe_phase(0.0, 0.0, geo)
            assert both == pytest.approx(2.0 * single, abs=1e-12)

    def test_geometry_default_period_is_double_slit_value(self):
        geo = GeometryConfig(wavelength=884e-9, crystal_separation=0.01,
                             detector_distance=1.0)
        assert geo.fringe_period == pytest.approx(884e-9 * 1.0 / 0.01)
        with pytest.raises(ConfigurationError):
            GeometryConfig(wavelength=-1.0)


class TestCoincidence:
    def test_balanced_state_behind_analyzers_nulls_at_pi(self):
        state = bell_state()
        phis = np.linspace(0.0, 2 * math.pi, 101)
        c = coincidence_probability(state, phis, *ANA45)
        ref = 1.0 + np.cos(phis)
        ratio = c[ref > 0.1] / ref[ref > 0.1]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12
        assert coincidence_probability(state, math.pi, *ANA45) == pytest.approx(0.0, abs=1e-12)

    def test_same_polarization_crystals_without_analyzers(self):
        state = bell_state(VERTICAL, VERTICAL)
        phis = np.linspace(0.0, 2 * math.pi, 101)
        c = coincidence_probability(state, phis)
        ref = 1.0 + np.cos(phis)
        ratio = c[ref > 0.1] / ref[ref > 0.1]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12

    def test_residual_modulation_from_quadrature_pump(self):
        # contrast equals twice the product of the pump ellipse amplitudes
        pump = PumpState.from_eps2(0.08, VERTICAL)
        state = build_two_photon_state(pump, default_source())
        assert grid_visibility(state, ANA45) == pytest.approx(0.15949, abs=5e-6)
        assert grid_visibility(state, ANA45) == pytest.approx(
            2 * pump.eps1 * pump.eps2, abs=1e-9)

    def test_single_analyzer_rejected(self):
        with pytest.raises(ConfigurationError):
            coincidence_probability(bell_state(), 0.0, DIAGONAL, None)

    def test_two_pi_periodic(self):
        rng = np.random.default_rng(11)
        state = bell_state()
        for _ in range(50):
            phi = rng.uniform(-10.0, 10.0)
            a = coincidence_probability(state, phi, *ANA45)
            b = coincidence_probability(state, phi + 2 * math.pi, *ANA45)
            assert a == pytest.approx(b, abs=1e-12)

    def test_bounded_on_random_inputs(self):
        rng = np.random.default_rng(5)
        phis = np.linspace(0.0, 2 * math.pi, 301)
        for _ in range(200):
            r = rng.uniform(0.0, 1.0)
            pa, pb = rng.uniform(0.0, 2 * math.pi, 2)
            state = TwoPhotonState(complex(math.sqrt(r) * np.exp(1j * pa)),
                                   complex(math.sqrt(1 - r) * np.exp(1j * pb)),
                                   PolarizationAngle(rng.uniform(0, math.pi)),
                                   PolarizationAngle(rng.uniform(0, math.pi)))
            if rng.uniform() < 0.5:
                ana = (PolarizationAngle(rng.uniform(0, math.pi)),
                       PolarizationAngle(rng.uniform(0, math.pi)))
            else:
                ana = (None, None)
            c = coincidence_probability(state, phis, *ana)
            assert np.all(c >= -1e-15)
            assert np.all(c <= 1.0 + 1e-15)


class TestPredictedVisibility:
    def test_same_polarization_bell_state_is_fully_visible(self):
        assert predicted_visibility(bell_state(VERTICAL, VERTICAL)) == pytest.approx(1.0)

    def test_orthogonal_polarizations_erase_the_fringe(self):
        assert predicted_visibility(bell_state()) == pytest.approx(0.0, abs=1e-12)

    def test_unbalanced_amplitudes(self):
        state = TwoPhotonState(0.8, 0.6, DIAGONAL, DIAGONAL)
        assert predicted_visibility(state) == pytest.approx(0.96)

    def test_with_analyzers_balanced(self):
        assert predicted_visibility_with_analyzers(bell_state(), *ANA45) == pytest.approx(1.0)

    def test_with_analyzers_single_crystal(self):
        state = TwoPhotonState(1.0, 0.0, VERTICAL, HORIZONTAL)
        assert predicted_visibility_with_analyzers(state, *ANA45) == pytest.approx(0.0)

    def test_analyzer_blocking_one_arm(self):
        # signal analyzer along chi1 blocks every crystal-2 pair in that arm
        state = bell_state()
        got = predicted_visibility_with_analyzers(state, VERTICAL, DIAGONAL)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_crossed_analyzers_block_every_pair(self):
        # V pairs from both crystals behind H analyzers: nothing is counted,
        # so there is no fringe to see
        assert predicted_visibility_with_analyzers(
            bell_state(VERTICAL, VERTICAL), HORIZONTAL, HORIZONTAL) == 0.0

    def test_dense_curve_bit_equal_to_coincidence_probability(self):
        phis = dense_grid(200_001)[0]
        for state in (bell_state(), TwoPhotonState(0.8, 0.6j, DIAGONAL, VERTICAL),
                      TwoPhotonState(complex(0.6, 0.48), -0.64j, VERTICAL, DIAGONAL)):
            for analyzers in ((None, None), ANA45, (VERTICAL, PolarizationAngle(0.3))):
                assert np.array_equal(dense_curve(state, analyzers, 200_001),
                                      coincidence_probability(state, phis, *analyzers))

    def test_closed_forms_match_dense_scan(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            r = rng.uniform(0.0, 1.0)
            pa, pb = rng.uniform(0.0, 2 * math.pi, 2)
            state = TwoPhotonState(complex(math.sqrt(r) * np.exp(1j * pa)),
                                   complex(math.sqrt(1 - r) * np.exp(1j * pb)),
                                   PolarizationAngle(rng.uniform(0, math.pi)),
                                   PolarizationAngle(rng.uniform(0, math.pi)))
            assert grid_visibility(state) == pytest.approx(
                predicted_visibility(state), abs=1e-6)
            ana = (PolarizationAngle(rng.uniform(0, math.pi)),
                   PolarizationAngle(rng.uniform(0, math.pi)))
            assert grid_visibility(state, ana) == pytest.approx(
                predicted_visibility_with_analyzers(state, *ana), abs=1e-6)


class TestLinearPumpReduction:
    def test_matches_linear_pump_profile_up_to_normalization(self):
        # with no quadrature component the pattern must follow 1 + sin(2 theta) cos(phi)
        phis = np.linspace(0.0, 2 * math.pi, 101)
        for theta in np.linspace(0.0, math.pi / 2, 21):
            state = build_two_photon_state(
                PumpState.linear(PolarizationAngle(theta)), default_source())
            c = coincidence_probability(state, phis, *ANA45)
            ref = 1.0 + math.sin(2 * theta) * np.cos(phis)
            scale = c[0] / ref[0]
            assert np.max(np.abs(c - scale * ref)) < 1e-12
