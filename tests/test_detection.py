import math

import numpy as np
import pytest

from twinfringe.config import default_config
from twinfringe.detection import (ScanConfig, expected_scan,
                                  sample_counts, slit_visibility_factor)
from twinfringe.errors import ConfigurationError
from twinfringe.fitting import fit_fringe, fringe_params
from twinfringe.polarization import DIAGONAL, HORIZONTAL, VERTICAL, PumpState
from twinfringe.spdc import (GeometryConfig, build_two_photon_state,
                             default_source,
                             predicted_visibility_with_analyzers)

SQ2 = math.sqrt(2.0)
ANA45 = (DIAGONAL, DIAGONAL)


def boxcar_average_contrast(width, period, n=20001):
    """Quadrature oracle: average cos(2 pi u / period) over a centered slit."""
    if width == 0.0:
        return 1.0
    u = np.linspace(-width / 2, width / 2, n)
    return float(np.trapezoid(np.cos(2 * np.pi * u / period), u) / width)


def make_scan(**overrides):
    base = dict(positions=tuple(np.linspace(-6e-3, 6e-3, 61)),
                scan_mode="signal_only", integration_time=10.0,
                peak_rate=100.0, background_rate=0.0, slit_width=0.0,
                instrument_factor=1.0, seed=99)
    base.update(overrides)
    return ScanConfig(**base)


def balanced_setup():
    pump = PumpState.linear(DIAGONAL)
    source = default_source()
    state = build_two_photon_state(pump, source)
    geometry = GeometryConfig(fringe_period=5e-3)
    return state, source, geometry


class TestSlitFactor:
    def test_zero_width_is_transparent(self):
        assert slit_visibility_factor(0.0, 5e-3) == pytest.approx(1.0)

    def test_full_period_erases_modulation(self):
        assert slit_visibility_factor(5e-3, 5e-3) == pytest.approx(0.0, abs=1e-15)

    def test_half_period(self):
        assert slit_visibility_factor(2.5e-3, 5e-3) == pytest.approx(2 / math.pi)

    def test_matches_quadrature_oracle(self):
        period = 5e-3
        for width in (0.0, 0.3e-3, 1e-3, 2.5e-3, 4e-3, 5e-3, 7.5e-3):
            assert slit_visibility_factor(width, period) == pytest.approx(
                boxcar_average_contrast(width, period), abs=1e-7)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            slit_visibility_factor(-1e-3, 5e-3)
        with pytest.raises(ConfigurationError):
            slit_visibility_factor(1e-3, 0.0)


class TestExpectedScan:
    def test_ideal_instrument_traces_raw_fringe(self):
        state, source, geometry = balanced_setup()
        scan = make_scan()
        expected = expected_scan(state, source, geometry, ANA45, scan)
        x = np.array([p for p, _ in expected])
        r = np.array([v for _, v in expected])
        ref = 0.5 * scan.peak_rate * (1.0 + np.cos(2 * np.pi * x / geometry.fringe_period))
        assert np.max(np.abs(r - ref)) < 1e-9

    def test_instrument_factor_caps_fitted_visibility(self):
        state, source, geometry = balanced_setup()
        for factor, width in [(1.0, 0.0), (0.9, 0.0), (0.83, 0.5e-3), (0.5, 2.5e-3)]:
            scan = make_scan(instrument_factor=factor, slit_width=width)
            expected = expected_scan(state, source, geometry, ANA45, scan)
            fit = fit_fringe(expected)
            want = (factor * slit_visibility_factor(width, geometry.fringe_period)
                    * predicted_visibility_with_analyzers(state, *ANA45))
            assert fringe_params(fit).mu == pytest.approx(want, abs=1e-6)

    def test_extracted_visibility_matches_prediction_for_unbalanced_pump(self):
        source = default_source()
        geometry = GeometryConfig(fringe_period=5e-3)
        pump = PumpState.from_eps2(0.3, VERTICAL)
        state = build_two_photon_state(pump, source)
        scan = make_scan(instrument_factor=0.77, slit_width=0.5e-3)
        fit = fit_fringe(expected_scan(state, source, geometry, ANA45, scan))
        want = (0.77 * slit_visibility_factor(0.5e-3, 5e-3)
                * predicted_visibility_with_analyzers(state, *ANA45))
        assert fringe_params(fit).mu == pytest.approx(want, abs=1e-6)

    def test_background_rescales_visibility_exactly(self):
        # visibility scales as (fringe mean) / (fringe mean + background)
        state, source, geometry = balanced_setup()
        clean_fit = fringe_params(fit_fringe(
            expected_scan(state, source, geometry, ANA45, make_scan())))
        for background in (10.0, 55.0, 200.0):
            noisy = expected_scan(state, source, geometry, ANA45,
                                  make_scan(background_rate=background))
            mu_b = fringe_params(fit_fringe(noisy)).mu
            assert mu_b == pytest.approx(
                clean_fit.mu * clean_fit.c0 / (clean_fit.c0 + background),
                abs=1e-6)

    def test_monotone_in_peak_rate(self):
        state, source, geometry = balanced_setup()
        low = expected_scan(state, source, geometry, ANA45, make_scan(peak_rate=10.0))
        high = expected_scan(state, source, geometry, ANA45, make_scan(peak_rate=200.0))
        assert all(h >= l for (_, l), (_, h) in zip(low, high))

    def test_peak_rate_attained_at_fringe_maximum(self):
        state, source, geometry = balanced_setup()
        scan = make_scan(instrument_factor=0.6, slit_width=1e-3, background_rate=7.0)
        expected = expected_scan(state, source, geometry, ANA45, scan)
        top = max(r for _, r in expected)
        # x = 0 sits on the fringe peak, so the scan maximum hits bg + peak
        assert top == pytest.approx(scan.background_rate + scan.peak_rate)

    def test_double_scan_halves_fitted_period(self):
        state, source, geometry = balanced_setup()
        single = fit_fringe(expected_scan(state, source, geometry, ANA45,
                                          make_scan(scan_mode="signal_only")))
        double = fit_fringe(expected_scan(state, source, geometry, ANA45,
                                          make_scan(scan_mode="both")))
        ratio = fringe_params(double).period / fringe_params(single).period
        assert ratio == pytest.approx(0.5, rel=1e-6)


class TestSampleCounts:
    def test_zero_integration_time_gives_zero_counts(self):
        records = sample_counts([(0.0, 50.0), (1.0, 10.0)], 0.0, seed=1)
        assert [r.counts for r in records] == [0, 0]

    def test_high_mean_sample_average(self):
        # 100 points at mean 1e6: relative error bounded by ~3/sqrt(1e8)
        expected = [(float(i), 1e5) for i in range(100)]
        records = sample_counts(expected, 10.0, seed=4)
        mean = np.mean([r.counts for r in records])
        assert abs(mean - 1e6) / 1e6 < 0.005

    def test_fixed_seed_bit_identical(self):
        expected = [(float(i), 30.0 + i) for i in range(50)]
        a = sample_counts(expected, 5.0, seed=123)
        b = sample_counts(expected, 5.0, seed=123)
        assert [r.counts for r in a] == [r.counts for r in b]

    def test_per_point_streams_do_not_depend_on_neighbors(self):
        # the draw at a position is unchanged when other points are dropped
        expected = [(float(i), 40.0) for i in range(20)]
        full = sample_counts(expected, 2.0, seed=9)
        tail = sample_counts(expected[:10], 2.0, seed=9)
        assert [r.counts for r in full[:10]] == [r.counts for r in tail]

    def test_records_carry_expected_rate(self):
        records = sample_counts([(0.5, 12.5)], 4.0, seed=0)
        rec = records[0]
        assert rec.position == 0.5
        assert rec.expected_rate == 12.5
        assert rec.integration_time == 4.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_counts([(0.0, -1.0)], 1.0, seed=0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ConfigurationError):
            sample_counts([(0.0, 5.0), (1.0, rate)], 1.0, seed=0)

    def test_counts_are_one_poisson_draw_per_scan(self):
        rates = np.linspace(0.0, 80.0, 301)
        records = sample_counts([(float(i), r) for i, r in enumerate(rates)], 2.5, seed=31)
        want = np.random.default_rng(np.random.SeedSequence(31)).poisson(rates * 2.5)
        assert [r.counts for r in records] == want.tolist()

    def test_flat_scan_has_poisson_dispersion(self):
        # a single draw broadcast over the scan would give one repeated count
        records = sample_counts([(float(i), 5.0) for i in range(5000)], 10.0, seed=8)
        counts = np.array([r.counts for r in records], dtype=float)
        assert 0.9 < counts.var() / counts.mean() < 1.1
        assert len(set(counts.tolist())) > 10


class TestCrossedAnalyzers:
    def test_blocked_pairs_give_zero_rates_and_counts(self):
        # V pairs from both crystals behind H analyzers: no coincidences, so
        # no fringe is rescaled up to peak_rate
        source = default_source(VERTICAL, VERTICAL)
        state = build_two_photon_state(PumpState.linear(DIAGONAL), source)
        expected = expected_scan(state, source, GeometryConfig(fringe_period=5e-3),
                                 (HORIZONTAL, HORIZONTAL), make_scan())
        assert np.all(expected[:, 1] == 0.0)
        assert np.all(sample_counts(expected, 10.0, seed=99).counts == 0)

class TestScanConfigValidation:
    def test_empty_positions(self):
        with pytest.raises(ConfigurationError):
            make_scan(positions=())

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            make_scan(scan_mode="diagonal")

    def test_instrument_factor_range(self):
        with pytest.raises(ConfigurationError):
            make_scan(instrument_factor=1.5)

    @pytest.mark.parametrize("name", ["integration_time", "peak_rate",
                                      "background_rate", "slit_width"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1e-3])
    def test_instrument_numbers_finite_and_nonnegative(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            make_scan(**{name: value})

    def test_default_config_round_trip_visibility(self):
        config = default_config()
        state = build_two_photon_state(config.pump, config.source)
        expected = expected_scan(state, config.source, config.geometry,
                                 config.analyzers, config.scan)
        mu = fringe_params(fit_fringe(expected)).mu
        assert mu == pytest.approx(0.83, abs=1e-9)
