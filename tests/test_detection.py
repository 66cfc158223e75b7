import math

import numpy as np
import pytest

from twinfringe.config import default_config
from twinfringe.detection import (SCAN_DTYPE, ScanConfig, expected_scan, sample_counts,
                                  slit_visibility_factor)
from twinfringe.errors import ConfigurationError
from twinfringe.fitting import fit_fringe, fringe_params
from twinfringe.polarization import (DIAGONAL, HORIZONTAL, VERTICAL,
                                     PolarizationAngle, PumpState)
from twinfringe.spdc import (GeometryConfig, _projected_amplitudes,
                             build_two_photon_state, coincidence_probability,
                             default_source, fringe_phase,
                             predicted_visibility_with_analyzers)

SQ2 = math.sqrt(2.0)
ANA45 = (DIAGONAL, DIAGONAL)


def boxcar_average_contrast(width, period, n=20001):
    """Quadrature oracle: average cos(2 pi u / period) over a centered slit."""
    if width == 0.0:
        return 1.0
    u = np.linspace(-width / 2, width / 2, n)
    f = np.cos(2 * np.pi * u / period)
    return float((np.diff(u) * (f[1:] + f[:-1]) / 2.0).sum() / width)  # trapezoid rule


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
            assert fringe_params(fit)[0].mu == pytest.approx(want, abs=1e-6)

    def test_extracted_visibility_matches_prediction_for_unbalanced_pump(self):
        source = default_source()
        geometry = GeometryConfig(fringe_period=5e-3)
        pump = PumpState.from_eps2(0.3, VERTICAL)
        state = build_two_photon_state(pump, source)
        scan = make_scan(instrument_factor=0.77, slit_width=0.5e-3)
        fit = fit_fringe(expected_scan(state, source, geometry, ANA45, scan))
        want = (0.77 * slit_visibility_factor(0.5e-3, 5e-3)
                * predicted_visibility_with_analyzers(state, *ANA45))
        assert fringe_params(fit)[0].mu == pytest.approx(want, abs=1e-6)

    def test_background_rescales_visibility_exactly(self):
        # visibility scales as (fringe mean) / (fringe mean + background)
        state, source, geometry = balanced_setup()
        clean_fit = fringe_params(fit_fringe(
            expected_scan(state, source, geometry, ANA45, make_scan())))[0]
        for background in (10.0, 55.0, 200.0):
            noisy = expected_scan(state, source, geometry, ANA45,
                                  make_scan(background_rate=background))
            mu_b = fringe_params(fit_fringe(noisy))[0].mu
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
        ratio = fringe_params(double)[0].period / fringe_params(single)[0].period
        assert ratio == pytest.approx(0.5, rel=1e-6)


def reference_expected_scan(state, source, geometry, analyzers, scan):
    """expected_scan of one state, as the coincidence_probability curve rescaled."""
    ana = analyzers if analyzers is not None else (None, None)
    x = np.asarray(scan.positions, dtype=np.float64)
    xi = x if scan.scan_mode == "both" else np.zeros_like(x)
    c = coincidence_probability(state, fringe_phase(x, xi, geometry, source.phi0), *ana)
    b1, b2, overlap = _projected_amplitudes(state, *ana)
    mean_c = 0.5 * (abs(b1) ** 2 + abs(b2) ** 2)
    f = scan.instrument_factor * slit_visibility_factor(scan.slit_width, geometry.fringe_period)
    top = mean_c + abs(f) * (abs(overlap) * abs(b1) * abs(b2))
    shape = (mean_c + f * (c - mean_c)) / top if top > 0.0 else np.zeros_like(c)
    return np.column_stack((x, scan.background_rate + scan.peak_rate * shape))


class TestStackedScans:
    """Each state's expected_scan is the rescaled coincidence curve; a stack
    of them and one seed are sampled into one (m, n) record array."""

    @staticmethod
    def states():
        source = default_source()
        pumps = [PumpState.from_eps2(0.08, PolarizationAngle(theta))
                 for theta in np.linspace(0.0, math.pi, 7)]
        return source, [build_two_photon_state(p, source) for p in pumps]

    @staticmethod
    def stack(states, source, geometry, analyzers, scan):
        return np.stack([expected_scan(s, source, geometry, analyzers, scan) for s in states])

    @pytest.mark.parametrize("analyzers", [ANA45, None, (VERTICAL, HORIZONTAL)])
    @pytest.mark.parametrize("scan_mode, slit, background",
                             [("signal_only", 0.5e-3, 0.0), ("both", 0.0, 3.5)])
    def test_rows_are_one_state_calls(self, analyzers, scan_mode, slit, background):
        source, states = self.states()
        geometry = GeometryConfig(fringe_period=5e-3)
        scan = make_scan(scan_mode=scan_mode, slit_width=slit, background_rate=background,
                         instrument_factor=0.77)
        for state in states:
            one = expected_scan(state, source, geometry, analyzers, scan)
            assert one.shape == (61, 2)
            assert one.tobytes() == reference_expected_scan(state, source, geometry,
                                                            analyzers, scan).tobytes()

    def test_sampled_rows_are_one_scan_calls(self):
        # a stack is one scan of its m * n points in row order, from one seed
        source, states = self.states()
        stack = self.stack(states, source, GeometryConfig(fringe_period=5e-3), ANA45,
                           make_scan())
        records = sample_counts(stack, 10.0, 7)
        assert records.shape == (len(states), 61) and records.dtype == SCAN_DTYPE
        flat = sample_counts(stack.reshape(-1, 2), 10.0, 7)
        assert records.tobytes() == flat.tobytes()
        want = np.random.default_rng(np.random.SeedSequence(7)).poisson(stack[..., 1] * 10.0)
        assert np.array_equal(records.counts, want)
        assert records[0].tobytes() == sample_counts(stack[0], 10.0, 7).tobytes()

    def test_one_seed_per_row(self):
        # one integer seed for any shape; SeedSequence would quietly take a
        # list of them as entropy
        source, states = self.states()
        stack = self.stack(states[:3], source, GeometryConfig(fringe_period=5e-3), ANA45,
                           make_scan())
        for seed in ([1, 2, 3], (4,), np.array([5]), -1, True, np.bool_(False), 2.0, "3",
                     None):
            for expected in (stack, stack[0]):
                with pytest.raises(ConfigurationError,
                                   match="seed must be a nonnegative integer"):
                    sample_counts(expected, 10.0, seed)

    def test_numpy_integer_seed_is_the_int_seed(self):
        expected = [(float(i), 30.0) for i in range(20)]
        assert sample_counts(expected, 1.0, np.uint64(2 ** 63)).tobytes() == \
               sample_counts(expected, 1.0, 2 ** 63).tobytes()


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

    @pytest.mark.parametrize("shape", [(0,), (1,), (61,), (19, 61)])
    def test_record_array_dtype_type_and_shape(self, shape):
        rng = np.random.default_rng(7)
        expected = np.stack((rng.uniform(-6e-3, 6e-3, shape),
                             rng.uniform(0.0, 50.0, shape)), axis=-1)
        records = sample_counts(expected, 10, seed=3)  # an int integration time
        assert type(records) is np.recarray
        assert records.dtype == np.dtype((np.record, SCAN_DTYPE))
        assert records.shape == shape
        counts = np.random.default_rng(np.random.SeedSequence(3)).poisson(
            expected[..., 1] * 10)
        want = np.rec.fromarrays((expected[..., 0], counts, np.full(shape, 10.0),
                                  expected[..., 1]), dtype=SCAN_DTYPE)
        assert records.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("slit_width, period", [(0.5e-3, 1e-320), (1e308, 5e-3)])
    def test_nan_slit_factor_raises_instead_of_zeros(self, slit_width, period):
        # sinc of an infinite argument is NaN, and a NaN maximum is no blocked
        # curve: it raises where crossed analyzers give zeros
        state, source, _ = balanced_setup()
        with np.errstate(all="ignore"), pytest.raises(ConfigurationError,
                                                      match="fringe maximum is NaN"):
            expected_scan(state, source, GeometryConfig(fringe_period=period), ANA45,
                          make_scan(slit_width=slit_width))


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
        mu = fringe_params(fit_fringe(expected))[0].mu
        assert mu == pytest.approx(0.83, abs=1e-9)
