import math

import numpy as np
import pytest

from twinfringe.errors import ConfigurationError, DegenerateInputError
from twinfringe.polarization import (DIAGONAL, HORIZONTAL, VERTICAL,
                                     JonesVector, PolarizationAngle,
                                     PumpState, malus_amplitude, normalize,
                                     pump_jones)

SQ2 = math.sqrt(2.0)


class TestPolarizationAngle:
    def test_normalized_into_half_turn(self):
        assert PolarizationAngle(math.pi).radians == 0.0
        assert PolarizationAngle(-math.pi / 4).radians == pytest.approx(3 * math.pi / 4)
        assert PolarizationAngle(7 * math.pi / 2).radians == pytest.approx(math.pi / 2)

    def test_constants(self):
        assert VERTICAL.radians == 0.0
        assert HORIZONTAL.radians == pytest.approx(math.pi / 2)
        assert DIAGONAL.degrees == pytest.approx(45.0)

    def test_orthogonal(self):
        assert DIAGONAL.orthogonal().radians == pytest.approx(3 * math.pi / 4)


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            PolarizationAngle(value)

class TestPumpJones:
    def test_pure_vertical(self):
        j = pump_jones(PumpState(1.0, 0.0, VERTICAL))
        assert j.v_component == pytest.approx(1.0)
        assert j.h_component == pytest.approx(0.0)

    def test_diagonal_linear(self):
        j = pump_jones(PumpState(1.0, 0.0, DIAGONAL))
        assert j.v_component == pytest.approx(1 / SQ2)
        assert j.h_component == pytest.approx(1 / SQ2)

    def test_small_quadrature_component(self):
        eps2 = 0.08
        j = pump_jones(PumpState.from_eps2(eps2, VERTICAL))
        assert j.v_component == pytest.approx(math.sqrt(1 - eps2 ** 2))
        assert j.h_component == pytest.approx(1j * eps2)

    def test_unit_norm_over_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            pump = PumpState.from_eps2(rng.uniform(0.0, 1.0),
                                       PolarizationAngle(rng.uniform(0.0, math.pi)))
            assert abs(pump_jones(pump).norm - 1.0) < 1e-12

    def test_linear_pump_is_real_cos_sin(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            theta = rng.uniform(0.0, math.pi)
            j = pump_jones(PumpState.linear(PolarizationAngle(theta)))
            assert j.v_component.imag == 0.0
            assert j.h_component.imag == 0.0
            assert j.v_component.real == pytest.approx(math.cos(theta), abs=1e-12)
            assert j.h_component.real == pytest.approx(math.sin(theta), abs=1e-12)


class TestMalus:
    @pytest.mark.parametrize("state, analyzer, expected", [
        (0.0, 0.0, 1.0),
        (0.0, math.pi / 2, 0.0),
        (0.0, math.pi / 4, SQ2 / 2),
    ])
    def test_examples(self, state, analyzer, expected):
        got = malus_amplitude(PolarizationAngle(state), PolarizationAngle(analyzer))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_orthogonal_decomposition(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            a = PolarizationAngle(rng.uniform(0.0, math.pi))
            b = rng.uniform(0.0, 2 * math.pi)
            para = malus_amplitude(a, PolarizationAngle(b))
            perp = malus_amplitude(a, PolarizationAngle(b + math.pi / 2))
            assert para ** 2 + perp ** 2 == pytest.approx(1.0, abs=1e-12)


    def test_crossed_polarizers_transmit_exactly_zero(self):
        # cos(pi/2) rounds to ~6e-17; crossed polarizers must block exactly
        for state, analyzer in ((VERTICAL, HORIZONTAL), (HORIZONTAL, VERTICAL),
                                (DIAGONAL, DIAGONAL.orthogonal())):
            assert malus_amplitude(state, analyzer) == 0.0
        assert malus_amplitude(VERTICAL, PolarizationAngle(math.pi / 2 - 1e-9)) \
            == pytest.approx(1e-9, rel=1e-6)

class TestNormalize:
    def test_rescale(self):
        out = normalize(JonesVector(2.0, 0.0))
        assert out.v_component == pytest.approx(1.0)
        assert out.h_component == pytest.approx(0.0)

    def test_diagonal(self):
        out = normalize(JonesVector(1.0, 1.0))
        assert out.v_component == pytest.approx(1 / SQ2)
        assert out.h_component == pytest.approx(1 / SQ2)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize(JonesVector(0.0, 0.0))


class TestPumpStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(ConfigurationError):
            PumpState(0.9, 0.08, VERTICAL)

    def test_range_enforced(self):
        with pytest.raises(ConfigurationError):
            PumpState(1.2, 0.0, VERTICAL)
        with pytest.raises(ConfigurationError):
            PumpState.from_eps2(-0.1, VERTICAL)

    def test_from_eps2_completes_norm(self):
        pump = PumpState.from_eps2(0.08, VERTICAL)
        assert pump.eps1 ** 2 + pump.eps2 ** 2 == pytest.approx(1.0, abs=1e-15)
