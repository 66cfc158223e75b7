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

    def test_geometry_default_period_is_5_mm(self):
        # ten default slit widths, the built-in configs' period
        assert GeometryConfig().fringe_period == 5e-3

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan])
    def test_geometry_period_must_be_positive(self, period):
        with pytest.raises(ConfigurationError, match="^fringe_period must be strictly positive$"):
            GeometryConfig(fringe_period=period)

    def test_geometry_period_must_be_finite(self):
        # an infinite period would read every phase as phi0: a flat scan
        with pytest.raises(ConfigurationError, match="^fringe_period must be finite$"):
            GeometryConfig(fringe_period=math.inf)


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

    def test_full_contrast_not_above_one(self):
        # |a1| = |a2| and chi1 = chi2: 2|a1||a2| can round above
        # |a1|^2 + |a2|^2 = 1, as can 2|b1||b2| over |b1|^2 + |b2|^2
        rng = np.random.default_rng(20)
        for _ in range(5_000):
            chi = PolarizationAngle(rng.uniform(0, math.pi))
            pa, pb = rng.uniform(0, 2 * math.pi, 2)
            state = TwoPhotonState(complex(np.exp(1j * pa) / SQ2),
                                   complex(np.exp(1j * pb) / SQ2), chi, chi)
            ana = PolarizationAngle(rng.uniform(0, math.pi))
            assert predicted_visibility(state) <= 1.0
            assert predicted_visibility_with_analyzers(state, ana, ana) <= 1.0

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


def random_source(rng):
    """Random pair polarizations on a random pair of orthogonal pump axes."""
    axis = PolarizationAngle(rng.uniform(0, math.pi))
    return SourceConfig(CrystalConfig(PolarizationAngle(rng.uniform(0, math.pi)), axis, "crystal1"),
                        CrystalConfig(PolarizationAngle(rng.uniform(0, math.pi)),
                                      axis.orthogonal(), "crystal2"))


def analyzer_cases(rng, source):
    """No analyzers, a random pair, and pairs with a crossed arm, where a
    Malus factor is exactly 0: for crystal 1, and for both crystals."""
    chi1, chi2 = source.crystal1.pair_polarization, source.crystal2.pair_polarization
    return [(None, None),
            (PolarizationAngle(rng.uniform(0, math.pi)), PolarizationAngle(rng.uniform(0, math.pi))),
            (chi1.orthogonal(), PolarizationAngle(rng.uniform(0, math.pi))),
            (chi1.orthogonal(), chi2.orthogonal())]


def pump_sweep_coefficients(eps1, eps2, thetas, source, analyzers):
    """(mean, cross, depth) of each pump angle's state, the chain a sweep runs per angle."""
    return [_curve_coefficients(build_two_photon_state(
        PumpState(eps1, eps2, PolarizationAngle(theta)), source), *analyzers) for theta in thetas]


class TestPumpCurveCoefficients:
    """The curve coefficients of pump-built states over a pump-angle sweep."""

    def test_contrast_follows_the_elliptical_pump_law(self):
        # crystals on V/H pump axes with V and H pairs, both analyzers at 45
        # degrees: the contrast is 2|a1||a2| with |a1|^2 = eps1^2 cos^2 + eps2^2 sin^2,
        # |a2|^2 = eps1^2 sin^2 + eps2^2 cos^2, i.e.
        # sqrt(sin^2(2 theta) (eps1^2 - eps2^2)^2 + 4 eps1^2 eps2^2)
        rng = np.random.default_rng(7)
        for trial in range(400):
            eps2 = (0.0, 1.0, rng.uniform(0.0, 1.0))[trial % 3]
            eps1 = math.sqrt(1.0 - eps2 * eps2)
            # angles outside [0, pi), and the axes and their neighbours
            thetas = [*rng.uniform(-10.0, 10.0, 6), 0.0, math.pi / 2, math.pi, -math.pi / 4,
                      np.nextafter(math.pi, 0.0), -1e-20, 7.5]
            rows = pump_sweep_coefficients(eps1, eps2, thetas, default_source(), ANA45)
            for theta, (mean, cross, depth) in zip(thetas, rows):
                law = math.sqrt(math.sin(2.0 * theta) ** 2 * (eps1 ** 2 - eps2 ** 2) ** 2
                                + 4.0 * eps1 ** 2 * eps2 ** 2)
                assert depth == pytest.approx(abs(cross), rel=1e-14)
                assert depth / mean == pytest.approx(law, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_raises_the_angle_error(self, bad):
        # the first non-finite angle of a sweep names itself, not a later nan
        with pytest.raises(ConfigurationError) as expected:
            PolarizationAngle(bad)
        with pytest.raises(ConfigurationError) as got:
            pump_sweep_coefficients(1.0, 0.0, [0.1, bad, math.nan], default_source(),
                                    (None, None))
        assert str(got.value) == str(expected.value)


def jones(angle):
    """Real Jones vector of a linear polarization on the (V, H) basis."""
    return np.array([math.cos(angle.radians), math.sin(angle.radians)])


def state_vector_coefficients(a1, a2, chi1, chi2, analyzer_signal, analyzer_idler):
    """Mean and complex cross term of the coincidence curve, from first
    principles: the pair u + e^{i phi} v of the two origins, with
    u = a1 |chi1>|chi1> and v = a2 |chi2>|chi2> (signal (x) idler), behind the
    projector P = |A_s><A_s| (x) |A_i><A_i|, or P = identity for bare
    detectors, which count every pair.  Then the coincidence probability
    <u + e^{i phi} v|P|u + e^{i phi} v> / 2 = mean + Re(cross e^{i phi}), with
    mean = (u'Pu + v'Pv) / 2 and cross = u'Pv.  It shares no code with the
    package's projection, so it referees the projection algebra."""
    u = a1 * np.kron(jones(chi1), jones(chi1))
    v = a2 * np.kron(jones(chi2), jones(chi2))
    if analyzer_signal is None:
        projector = np.eye(4)
    else:
        analyzer = np.kron(jones(analyzer_signal), jones(analyzer_idler))
        projector = np.outer(analyzer, analyzer)
    mean = 0.5 * (u.conj() @ projector @ u + v.conj() @ projector @ v)
    assert abs(mean.imag) < 1e-15
    return mean.real, u.conj() @ projector @ v


def random_angle(rng):
    return PolarizationAngle(rng.uniform(0.0, math.pi))


def random_state(rng):
    """A random normalized state on random pair polarizations."""
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    a1, a2 = z / np.linalg.norm(z)
    return TwoPhotonState(complex(a1), complex(a2), random_angle(rng), random_angle(rng))


class TestStateVectorReferee:
    """The curve coefficients, behind analyzers and with bare detectors,
    against the two-photon state vector."""

    def test_curve_coefficients_of_random_states(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(2000):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            a1, a2 = z / np.linalg.norm(z)
            chi1, chi2 = random_angle(rng), random_angle(rng)
            analyzers = (random_angle(rng), random_angle(rng))
            if trial % 10 == 0:  # crossed with one origin's pairs in one arm
                analyzers = (chi1.orthogonal(), analyzers[1])
            mean, cross, depth = _curve_coefficients(
                TwoPhotonState(complex(a1), complex(a2), chi1, chi2), *analyzers)
            ref_mean, ref_cross = state_vector_coefficients(a1, a2, chi1, chi2, *analyzers)
            worst = max(worst, abs(mean - ref_mean), abs(cross - ref_cross),
                        abs(depth - abs(ref_cross)))
        assert worst < 1e-14

    def test_curve_coefficients_of_random_pump_sweeps(self):
        # the pump -> state -> curve chain that sweeps run, one angle at a
        # time; the reference projects the pump's Jones vector onto each
        # crystal's pump axis, as written out in pump_jones's docstring
        rng = np.random.default_rng(2025)
        worst = 0.0
        for trial in range(120):
            eps2 = (0.0, 1.0, rng.uniform(0.0, 1.0))[trial % 3]
            eps1 = math.sqrt(1.0 - eps2 * eps2)
            source = random_source(rng)
            thetas = rng.uniform(-4.0, 8.0, 9)
            for analyzers in analyzer_cases(rng, source):
                for theta in thetas:
                    mean, cross, depth = _curve_coefficients(build_two_photon_state(
                        PumpState(eps1, eps2, PolarizationAngle(theta)), source), *analyzers)
                    pump = np.array([eps1 * math.cos(theta) - 1j * eps2 * math.sin(theta),
                                     eps1 * math.sin(theta) + 1j * eps2 * math.cos(theta)])
                    a = np.array([jones(c.pump_axis) @ pump
                                  for c in (source.crystal1, source.crystal2)])
                    a1, a2 = a / np.linalg.norm(a)
                    ref_mean, ref_cross = state_vector_coefficients(
                        a1, a2, source.crystal1.pair_polarization,
                        source.crystal2.pair_polarization, *analyzers)
                    worst = max(worst, abs(mean - ref_mean), abs(cross - ref_cross),
                                abs(depth - abs(ref_cross)))
        assert worst < 1e-14

    def test_bare_curve_coefficients(self):
        # the bare cross term carries the two-photon overlap <chi1|chi2>^2
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(2000):
            state = random_state(rng)
            mean, cross, depth = _curve_coefficients(state, None, None)
            ref_mean, ref_cross = state_vector_coefficients(state.a1, state.a2, state.chi1,
                                                            state.chi2, None, None)
            worst = max(worst, abs(mean - ref_mean), abs(cross - ref_cross),
                        abs(depth - abs(ref_cross)),
                        abs(predicted_visibility(state) - abs(ref_cross) / ref_mean))
        assert worst < 1e-14
        # balanced pairs 45 degrees apart: cos^2 = 1/2 halves the contrast
        state = TwoPhotonState(complex(1 / SQ2), complex(1 / SQ2), VERTICAL, DIAGONAL)
        assert predicted_visibility(state) == pytest.approx(0.5, abs=1e-15)

    def test_bare_curve_is_the_sum_over_analyzer_bases(self):
        # bare detectors count every pair: the sum of the analyzer curves over
        # a complete basis in each arm, here {0, pi/2} and a random one
        rng = np.random.default_rng(2027)
        worst = 0.0
        for _ in range(1000):
            state = random_state(rng)
            mean, cross, _ = _curve_coefficients(state, None, None)
            for base in (PolarizationAngle(0.0), random_angle(rng)):
                basis = (base, base.orthogonal())
                terms = [_curve_coefficients(state, s, i) for s in basis for i in basis]
                worst = max(worst, abs(mean - sum(t[0] for t in terms)),
                            abs(cross - sum(t[1] for t in terms)))
        assert worst < 1e-14

    def test_bare_curve_invariant_under_a_common_rotation(self):
        # rotating both pair polarizations by delta leaves the bare curve as it
        # is, also where one angle crosses PolarizationAngle's mod-pi wrap
        rng = np.random.default_rng(2028)

        def rotated(state, delta):
            return TwoPhotonState(state.a1, state.a2,
                                  PolarizationAngle(state.chi1.radians + delta),
                                  PolarizationAngle(state.chi2.radians + delta))

        near = TwoPhotonState(0.6 + 0j, 0.8j, PolarizationAngle(0.01), PolarizationAngle(3.13))
        cases = [(near, 0.02), (near, -0.02)]
        cases += [(random_state(rng), rng.uniform(-math.pi, math.pi)) for _ in range(1000)]
        worst = 0.0
        for state, delta in cases:
            mean, cross, depth = _curve_coefficients(state, None, None)
            turned = _curve_coefficients(rotated(state, delta), None, None)
            worst = max(worst, abs(mean - turned[0]), abs(cross - turned[1]),
                        abs(depth - turned[2]))
        assert worst < 1e-14
        # nearly the same polarization modulo pi: the fringe is not pi-shifted
        cross = _curve_coefficients(near, None, None)[1]
        assert cross.imag == pytest.approx(0.48 * math.cos(3.12) ** 2, abs=1e-15)
