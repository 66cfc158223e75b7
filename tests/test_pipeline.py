import dataclasses
import json
import math

import numpy as np
import pytest

from twinfringe import pipeline
from twinfringe.cli import main
from twinfringe.config import (config_from_dict, config_to_dict, default_config,
                               entangled_sweep_config, load_config, save_config)
from twinfringe.detection import expected_scan, sample_counts
from twinfringe.errors import ConfigurationError, IllPosedError
from twinfringe.fitting import (VisibilityCurveParams, fit_fringe, fit_visibility_curve,
                                fringe_params, visibility_curve_params)
from twinfringe.pipeline import (FIG5_TRUTH, SWEEP_DTYPE, reproduce_fig5, simulate_scan,
                                 sweep_pump_angle, theta0_distance)
from twinfringe.polarization import HORIZONTAL, VERTICAL, PolarizationAngle, PumpState
from twinfringe.spdc import CrystalConfig, SourceConfig, build_two_photon_state


def _derived_seed(master: int, index: int) -> int:
    """Child seed `index` of a master seed, from a spawned SeedSequence."""
    ss = np.random.SeedSequence(master, spawn_key=(index,))
    return int(ss.generate_state(2, np.uint32).view(np.uint64)[0])


class TestTheta0Distance:
    def test_degenerate_offsets_collapse(self):
        for k in range(-4, 5):
            assert theta0_distance(math.pi + k * math.pi / 2, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_plain_distance(self):
        assert theta0_distance(math.pi + 0.05, math.pi) == pytest.approx(0.05)
        assert theta0_distance(math.pi - 0.05, math.pi) == pytest.approx(0.05)


class TestDisentangledSource:
    def test_noise_floor_visibility(self):
        # one crystal pumped (linear pump along its axis): the fitted
        # visibility is pure fit noise, well under 0.02 on average
        config = entangled_sweep_config()
        pump = PumpState.linear(VERTICAL)
        config = dataclasses.replace(config, pump=pump)
        mus = []
        for seed in range(20):
            fit = fit_fringe(simulate_scan(config, seed=_derived_seed(1000, seed)))
            mus.append(fringe_params(fit)[0].mu)
        assert float(np.mean(mus)) < 0.02

    def test_noiseless_visibility_is_zero(self):
        config = entangled_sweep_config()
        state = build_two_photon_state(PumpState.linear(VERTICAL), config.source)
        expected = expected_scan(state, config.source, config.geometry,
                                 config.analyzers, config.scan)
        rates = [r for _, r in expected]
        assert max(rates) - min(rates) < 1e-9 * max(rates)


class TestSweep:
    def test_floor_and_ceiling_of_quadrature_pump_sweep(self):
        config = entangled_sweep_config(ceiling=0.77, eps2=0.08)
        sweep = sweep_pump_angle(config, np.linspace(0.0, math.pi, 19), seed=11)
        assert sweep["mu"].max() == pytest.approx(0.77, abs=0.03)
        assert 0.09 <= sweep["mu"].min() <= 0.16

    def test_points_are_reproducible(self):
        config = entangled_sweep_config()
        thetas = np.linspace(0.0, math.pi, 5)
        a = sweep_pump_angle(config, thetas, seed=3)
        b = sweep_pump_angle(config, thetas, seed=3)
        assert a.tobytes() == b.tobytes()

    def test_each_angle_is_fitted_at_the_shared_period(self):
        # the sweep is one stacked fit of scans expected angle by angle and
        # drawn as one stack from the master seed
        config = entangled_sweep_config()
        thetas = np.linspace(0.0, math.pi, 5)
        expected = []
        for theta in thetas:
            state = build_two_photon_state(
                PumpState.from_eps2(config.pump.eps2, PolarizationAngle(theta)), config.source)
            expected.append(expected_scan(state, config.source, config.geometry,
                                          config.analyzers, config.scan))
        fit = fit_fringe(sample_counts(np.stack(expected), config.scan.integration_time, 3))
        sweep = sweep_pump_angle(config, thetas, seed=3)
        assert sweep["theta"].tobytes() == thetas.tobytes()
        values, errors = fringe_params(fit)
        assert sweep["mu"].tobytes() == values.mu.tobytes()
        assert sweep["sigma_mu"].tobytes() == errors.mu.tobytes()
        assert sweep["converged"].all()
        assert np.all(fit.params[:, 3] == fit.params[0, 3])

    def test_first_angles_draw_the_counts_of_a_longer_sweep(self, monkeypatch):
        # the stack is one stream in angle order: a sweep over the first k
        # angles draws the first k rows of a longer sweep, and row 0 is the
        # one-scan draw at the master seed
        drawn = []

        def fit_and_keep(scans):
            drawn.append(scans.copy())
            return fit_fringe(scans)

        monkeypatch.setattr(pipeline, "fit_fringe", fit_and_keep)
        config = entangled_sweep_config()
        thetas = np.linspace(0.0, math.pi, 7)
        sweep_pump_angle(config, thetas, seed=5)
        sweep_pump_angle(config, thetas[:3], seed=5)
        assert drawn[1].tobytes() == drawn[0][:3].tobytes()
        pump = PumpState.from_eps2(config.pump.eps2, PolarizationAngle(thetas[0]))
        one = simulate_scan(dataclasses.replace(config, pump=pump), 5)
        assert drawn[0][0].tobytes() == one.tobytes()

    def test_angle_without_fringe_reads_near_zero(self):
        # 90 degrees pumps one crystal: no fringe, so a free period search there
        # has nothing to lock onto; at the sweep's shared period it reads ~0
        flat = sweep_pump_angle(default_config(), np.linspace(0.0, math.pi, 19), seed=99)[9]
        assert flat.theta == pytest.approx(math.pi / 2)
        assert flat.converged
        assert flat.mu < 0.05 and flat.sigma_mu < 0.02

    def test_sweep_without_fringes_is_unconverged(self):
        config = default_config()
        config = dataclasses.replace(
            config, scan=dataclasses.replace(config.scan, peak_rate=0.0))
        sweep = sweep_pump_angle(config, np.linspace(0.0, math.pi, 5), seed=1)
        assert sweep.shape == (5,)
        assert not sweep["converged"].any()
        assert np.isfinite(sweep["mu"]).all()

    def test_empty_sweep(self, monkeypatch):
        # nothing is simulated, so nothing is drawn
        monkeypatch.setattr(pipeline, "sample_counts", None)
        for thetas in ([], np.array([])):
            sweep = sweep_pump_angle(entangled_sweep_config(), thetas)
            assert isinstance(sweep, np.recarray)
            assert sweep.dtype == SWEEP_DTYPE and sweep.shape == (0,)

    def test_too_few_points_rejected(self):
        config = default_config()
        config = dataclasses.replace(config, scan=dataclasses.replace(
            config.scan, positions=(-1e-3, 0.0, 1e-3)))
        with pytest.raises(IllPosedError):
            sweep_pump_angle(config, [0.0, 1.0])


class TestFig5:
    def test_single_run_recovers_truth(self):
        result = reproduce_fig5(seed=20260808)
        assert result.passed
        assert result.fit.converged
        assert abs(result.mu_max - FIG5_TRUTH["mu_max"]) < 0.05
        assert abs(result.eps2 - FIG5_TRUTH["eps2"]) < 0.03
        assert theta0_distance(result.theta0, FIG5_TRUTH["theta0"]) < 0.1

    def test_an_unconverged_stacked_fit_fails_the_verdict(self, monkeypatch):
        # the stacked fringe fit as it is, but reported unconverged: every row
        # keeps its mu and sigma_mu, so every check and the curve fit still
        # pass, and the unconverged rows alone fail the verdict
        def unconverged(scan):
            fit = fit_fringe(scan)
            fit.converged, fit.message = False, "iteration limit reached"
            return fit

        assert reproduce_fig5(seed=0).passed
        monkeypatch.setattr(pipeline, "fit_fringe", unconverged)
        result = reproduce_fig5(seed=0)
        assert all(result.checks.values()) and result.fit.converged
        assert not result.points.converged.any()
        assert result.passed is False

    def test_one_estimator_takes_no_variant(self):
        # one closed-form visibility-curve fit: no variant to select, and the
        # reported fit is that estimator on the reported sweep, bit for bit
        result = reproduce_fig5(seed=7)
        rows = result.points
        assert "variant" not in {f.name for f in dataclasses.fields(result)}
        with pytest.raises(TypeError, match="variant"):
            reproduce_fig5(seed=7, variant="derived")
        with pytest.raises(TypeError, match="variant"):
            fit_visibility_curve(rows, variant="derived")
        with pytest.raises(TypeError, match="variant"):
            visibility_curve_params(result.fit, variant="derived")
        with pytest.raises(TypeError, match="variant"):
            VisibilityCurveParams(0.77, 0.0, 0.9, 0.44, variant="derived")
        assert [f.name for f in dataclasses.fields(VisibilityCurveParams)] == [
            "mu_max", "theta0", "eps1", "eps2"]
        refit = fit_visibility_curve(rows)
        assert refit.params.tobytes() == result.fit.params.tobytes()
        params, _ = visibility_curve_params(refit)
        assert dataclasses.astuple(params) == (
            result.mu_max, result.theta0, result.eps1, result.eps2)


def scalar_simulate(config, pumps, seed):
    """The counting scans of pumps built one state at a time: each pump's
    TwoPhotonState, then expected_scan and one sample_counts draw."""
    expected = np.stack([expected_scan(build_two_photon_state(pump, config.source),
                                       config.source, config.geometry, config.analyzers,
                                       config.scan) for pump in pumps])
    return sample_counts(expected, config.scan.integration_time, seed)


def random_config(rng, eps2, analyzers):
    """default_config with a random source, phase offset and scan mode, the
    given quadrature amplitude and analyzers, and some background."""
    axis = PolarizationAngle(rng.uniform(0, math.pi))
    source = SourceConfig(
        CrystalConfig(PolarizationAngle(rng.uniform(0, math.pi)), axis, "crystal1"),
        CrystalConfig(PolarizationAngle(rng.uniform(0, math.pi)), axis.orthogonal(), "crystal2"),
        phi0=rng.uniform(-math.pi, math.pi))
    config = default_config()
    return dataclasses.replace(
        config, pump=PumpState.from_eps2(eps2, config.pump.theta_p), source=source,
        analyzers=analyzers,
        scan=dataclasses.replace(config.scan, background_rate=rng.choice([0.0, 2.5]),
                                 scan_mode=str(rng.choice(["signal_only", "idler_only", "both"]))))


class TestArraySweepMatchesScalarStates:
    """The sweep's scans are the one-state-at-a-time chain; these pin the
    pipeline's wiring of it (the config's eps1, crossed analyzers, the
    angle check) to a chain built here, byte for byte."""

    def test_sweep_scans_equal_the_scalar_chain(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(pipeline, "fit_fringe", lambda scans: drawn.append(scans) or
                            fit_fringe(scans))
        rng = np.random.default_rng(8)
        for trial in range(60):
            eps2 = (0.0, 1.0, rng.uniform(0.0, 1.0))[trial % 3]
            chi = PolarizationAngle(rng.uniform(0, math.pi))
            analyzers = [None, (chi, PolarizationAngle(rng.uniform(0, math.pi))),
                         (VERTICAL, HORIZONTAL), (HORIZONTAL, VERTICAL)][trial % 4]
            config = random_config(rng, eps2, analyzers)
            # angles outside [0, pi) too
            thetas = [*rng.uniform(-4.0, 8.0, 7), 0.0, math.pi / 2, math.pi]
            seed = int(rng.integers(0, 2 ** 32))
            sweep_pump_angle(config, thetas, seed=seed)
            pumps = [PumpState.from_eps2(eps2, PolarizationAngle(t)) for t in thetas]
            assert drawn[-1].tobytes() == scalar_simulate(config, pumps, seed).tobytes()

    def test_crossed_analyzers_block_every_row(self, monkeypatch):
        # with crystal 1's pairs crossed in one arm and crystal 2's in the
        # other, both Malus factors are exactly 0 and every rate is the background
        drawn = []
        monkeypatch.setattr(pipeline, "fit_fringe", lambda scans: drawn.append(scans) or
                            fit_fringe(scans))
        config = entangled_sweep_config()
        config = dataclasses.replace(config, analyzers=(HORIZONTAL, VERTICAL),
                                     scan=dataclasses.replace(config.scan, background_rate=3.0))
        thetas = np.linspace(0.0, math.pi, 5)
        sweep_pump_angle(config, thetas, seed=4)
        pumps = [PumpState.from_eps2(config.pump.eps2, PolarizationAngle(t)) for t in thetas]
        assert np.all(drawn[0]["expected_rate"] == 3.0)
        assert drawn[0].tobytes() == scalar_simulate(config, pumps, 4).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_simulate_scan_uses_the_config_eps1(self, monkeypatch, tmp_path, seed):
        # a config may give eps1 explicitly: 0.6 is not the 0.5999999999999999
        # that PumpState.from_eps2(0.8) completes the norm with; a scan and a
        # sweep both simulate the config's own pump
        drawn = []
        monkeypatch.setattr(pipeline, "fit_fringe", lambda scans: drawn.append(scans) or
                            fit_fringe(scans))
        doc = config_to_dict(entangled_sweep_config())
        doc["pump"].update(eps1=0.6, eps2=0.8, theta_p_rad=2.5)
        path = tmp_path / "pump.json"
        path.write_text(json.dumps(doc))
        config = load_config(str(path))
        assert config.pump.eps1 != PumpState.from_eps2(0.8, VERTICAL).eps1
        assert simulate_scan(config, seed).tobytes() == \
            scalar_simulate(config, [config.pump], seed)[0].tobytes()
        thetas = np.linspace(0.0, math.pi, 5)
        sweep_pump_angle(config, thetas, seed)
        pumps = [PumpState(0.6, 0.8, PolarizationAngle(t)) for t in thetas]
        assert drawn[0].tobytes() == scalar_simulate(config, pumps, seed).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_raises_the_angle_error(self, bad):
        with pytest.raises(ConfigurationError) as expected:
            PolarizationAngle(bad)
        with pytest.raises(ConfigurationError) as got:
            sweep_pump_angle(entangled_sweep_config(), [0.3, bad, 1.0])
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("seed, same_as", [
        (np.int64(5), 5), (None, 777),  # None is the sweep config's seed
        (-1, None), (True, None), (False, None), (1.0, None), ("7", None)])
    def test_fig5_seed_follows_the_draws_rule(self, seed, same_as):
        # reproduce_fig5 has no seed rule of its own: sample_counts' applies, as
        # it does to sweep_pump_angle and simulate_scan
        if same_as is None:
            with pytest.raises(ConfigurationError,
                               match=rf"^seed must be a nonnegative integer, got {seed!r}$"):
                reproduce_fig5(seed=seed)
        else:
            assert fig5_values(reproduce_fig5(seed=seed)) == \
                fig5_values(reproduce_fig5(seed=same_as))


def stack_bytes(config, thetas, seed=7):
    """The bytes of the simulate step's counting stack for a sweep of config."""
    return pipeline._simulate(config, thetas, seed).tobytes()


def cold_bytes(*args, **kwargs):
    """stack_bytes from an empty rate cache."""
    pipeline._expected_stack.cache_clear()
    return stack_bytes(*args, **kwargs)


def point_values(sweep):
    return sweep.tobytes()


def fig5_values(result):
    return point_values(result.points) + np.array(
        [result.mu_max, result.theta0, result.eps1, result.eps2, result.passed]).tobytes() \
        + result.fit.params.tobytes() + result.fit.covariance.tobytes()


def count_rate_calls(monkeypatch):
    """The counts of the pipeline's build_two_photon_state and expected_scan
    calls from here on, kept up to date in the returned dict."""
    calls = {"build_two_photon_state": 0, "expected_scan": 0}
    for name in calls:
        original = getattr(pipeline, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(pipeline, name, counted)
    return calls


def with_scan(config, **changes):
    return dataclasses.replace(config, scan=dataclasses.replace(config.scan, **changes))


class TestExpectedRateCache:
    """A sweep's expected rates are computed once per (config, angles) and
    shared read-only across seeds; the cache must change no output byte."""

    THETAS = tuple(np.linspace(0.0, math.pi, 7).tolist())

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        pipeline._expected_stack.cache_clear()
        yield
        pipeline._expected_stack.cache_clear()

    @pytest.mark.parametrize("run, values", [
        (lambda seed: simulate_scan(default_config(), seed), lambda scan: scan.tobytes()),
        (lambda seed: sweep_pump_angle(entangled_sweep_config(), TestExpectedRateCache.THETAS,
                                       seed), point_values),
        (lambda seed: reproduce_fig5(seed=seed), fig5_values),
    ], ids=["simulate_scan", "sweep_pump_angle", "reproduce_fig5"])
    def test_warm_cache_gives_the_cold_bytes(self, run, values):
        seeds = [0, 1, 2, 99, 12345, 20260808]
        cold = []
        for seed in seeds:
            pipeline._expected_stack.cache_clear()
            cold.append(values(run(seed)))
        pipeline._expected_stack.cache_clear()
        run(31)
        hits = pipeline._expected_stack.cache_info().hits
        assert [values(run(seed)) for seed in seeds] == cold
        assert pipeline._expected_stack.cache_info().hits == hits + len(seeds)

    def test_fig5_seeds_compute_the_rates_once(self, monkeypatch):
        # the cost of the cache, independent of the machine: ten seeds of
        # the reproduction make one pump -> state -> rate pass between them,
        # one state and one expected_scan per angle
        calls = count_rate_calls(monkeypatch)
        for seed in range(10):
            reproduce_fig5(seed=seed)
        assert calls == {"build_two_photon_state": 19, "expected_scan": 19}  # 19 angles

    def test_cli_seeds_compute_the_rates_once(self, monkeypatch, tmp_path):
        # --seed seeds the draw and leaves the config as loaded, so CLI runs
        # of one config file at ten seeds share one rate stack, and each
        # run's CSV is that of the file with its scan.seed set to the seed
        path = tmp_path / "run.json"
        save_config(default_config(), str(path))
        calls = count_rate_calls(monkeypatch)
        for seed in range(10):
            out = tmp_path / f"scan{seed}.csv"
            assert main(["simulate-scan", "--config", str(path), "--seed", str(seed),
                         "--output", str(out)]) == 0
        assert calls == {"build_two_photon_state": 1, "expected_scan": 1}
        for seed in (0, 9):
            doc = config_to_dict(default_config())
            doc["scan"]["seed"] = seed
            seeded = tmp_path / f"seed{seed}.json"
            seeded.write_text(json.dumps(doc))
            out = tmp_path / f"file{seed}.csv"
            assert main(["simulate-scan", "--config", str(seeded), "--output", str(out)]) == 0
            assert out.read_bytes() == (tmp_path / f"scan{seed}.csv").read_bytes()

    def test_cached_stack_is_read_only(self):
        config = entangled_sweep_config()
        before = stack_bytes(config, self.THETAS)
        stack = pipeline._expected_stack(config, self.THETAS)
        assert pipeline._expected_stack.cache_info().hits == 1  # the stack the draws read
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 1] = 0.0
        assert stack_bytes(config, self.THETAS) == before

    @pytest.mark.parametrize("change", [
        lambda c, t: (dataclasses.replace(c, pump=PumpState.from_eps2(0.3, c.pump.theta_p)), t),
        lambda c, t: (c, t[:3] + (t[3] + 0.01,) + t[4:]),
        lambda c, t: (with_scan(c, slit_width=1e-3), t),
        lambda c, t: (dataclasses.replace(c, source=dataclasses.replace(c.source, phi0=0.4)), t),
        lambda c, t: (dataclasses.replace(c, analyzers=(VERTICAL, PolarizationAngle(0.3))), t),
        lambda c, t: (dataclasses.replace(c, analyzers=None), t),
        lambda c, t: (with_scan(c, scan_mode="both"), t),
        lambda c, t: (with_scan(c, positions=c.scan.positions[:-1] + (7e-3,)), t),
    ], ids=["eps2", "one_angle", "slit_width", "phi0", "analyzers", "no_analyzers",
            "scan_mode", "positions"])
    def test_a_changed_key_gives_the_uncached_bytes(self, change):
        config = entangled_sweep_config()
        base = stack_bytes(config, self.THETAS)
        changed_config, changed_thetas = change(config, self.THETAS)
        warm = stack_bytes(changed_config, changed_thetas)
        assert warm != base
        assert warm == cold_bytes(changed_config, changed_thetas)

    @pytest.mark.parametrize("inputs", [
        lambda c, zero: (c, (zero, 1.0)),
        # eps1 = 0 is the pump of eps2 = 1
        lambda c, zero: (dataclasses.replace(c, pump=PumpState(zero, 1.0, VERTICAL)),
                         (0.0, 1.0)),
        lambda c, zero: (with_scan(c, positions=(zero, 1e-3, 2e-3)), (0.3,)),
        lambda c, zero: (with_scan(c, peak_rate=zero, background_rate=zero), (0.3,)),
    ], ids=["angle", "eps1", "position", "rates"])
    def test_equal_keys_give_equal_bytes(self, inputs):
        # 0.0 and -0.0 compare equal, so either one's cached stack serves
        # the other: both must simulate the same bytes
        config = entangled_sweep_config()
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            cold = cold_bytes(*inputs(config, second))
            pipeline._expected_stack.cache_clear()
            stack_bytes(*inputs(config, first))
            assert stack_bytes(*inputs(config, second)) == cold
            assert pipeline._expected_stack.cache_info().hits == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_angle_leaves_the_cache_unchanged(self, bad):
        config = entangled_sweep_config()
        stack_bytes(config, self.THETAS)
        with pytest.raises(ConfigurationError) as expected:
            PolarizationAngle(bad)
        with pytest.raises(ConfigurationError) as got:
            sweep_pump_angle(config, [0.3, bad, 1.0])
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        info = pipeline._expected_stack.cache_info()
        assert info.currsize == 1
        stack_bytes(config, self.THETAS)
        assert pipeline._expected_stack.cache_info().hits == info.hits + 1
