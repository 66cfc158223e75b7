import functools
import math

import numpy as np
import pytest

import twinfringe.analysis
from twinfringe.analysis import (_MAX_STEPS, _N_GRID, _PHASE_TOL, _refine_extremum,
                                 concurrence, conformance_report, phi_scan_oracle,
                                 visibility_from_extrema)
from twinfringe.errors import NotTwoQubitStateError, UndefinedVisibilityError
from twinfringe.fitting import FringeModelParams, fringe_model
from twinfringe.polarization import (DIAGONAL, HORIZONTAL, VERTICAL,
                                     PolarizationAngle)
from twinfringe.spdc import (TwoPhotonState, _curve_coefficients,
                             coincidence_probability, predicted_visibility)

SQ2 = math.sqrt(2.0)
ANA45 = (DIAGONAL, DIAGONAL)


def random_state(rng, chi1=None, chi2=None):
    r = rng.uniform(0.0, 1.0)
    pa, pb = rng.uniform(0.0, 2 * math.pi, 2)
    if chi1 is None:
        chi1 = PolarizationAngle(rng.uniform(0, math.pi))
    if chi2 is None:
        chi2 = PolarizationAngle(rng.uniform(0, math.pi))
    return TwoPhotonState(complex(math.sqrt(r) * np.exp(1j * pa)),
                          complex(math.sqrt(1 - r) * np.exp(1j * pb)),
                          chi1, chi2)


class TestVisibilityFromExtrema:
    @pytest.mark.parametrize("c_max, c_min, expected", [
        (2.0, 0.0, 1.0),
        (1.0, 1.0, 0.0),
        (1.82, 0.18, 0.82),
    ])
    def test_examples(self, c_max, c_min, expected):
        assert visibility_from_extrema(c_max, c_min) == pytest.approx(expected)

    def test_all_zero_curve_rejected(self):
        with pytest.raises(UndefinedVisibilityError):
            visibility_from_extrema(0.0, 0.0)

    def test_bad_ordering_rejected(self):
        with pytest.raises(UndefinedVisibilityError):
            visibility_from_extrema(0.5, 1.0)


class TestPhiScanOracle:
    def test_maximally_entangled_state(self):
        state = TwoPhotonState(complex(1 / SQ2), complex(1 / SQ2), VERTICAL, HORIZONTAL)
        assert phi_scan_oracle(state, ANA45).mu == pytest.approx(1.0, abs=1e-9)

    def test_single_crystal(self):
        state = TwoPhotonState(1.0, 0.0, VERTICAL, HORIZONTAL)
        assert phi_scan_oracle(state, ANA45).mu == pytest.approx(0.0, abs=1e-12)

    def test_residual_visibility_of_quadrature_pump(self):
        eps2 = 0.08
        eps1 = math.sqrt(1 - eps2 ** 2)
        state = TwoPhotonState(complex(eps1), complex(0.08j), VERTICAL, HORIZONTAL)
        report = phi_scan_oracle(state, ANA45)
        assert report.mu == pytest.approx(0.15949, abs=5e-6)
        assert report.mu == pytest.approx(2 * eps1 * eps2, abs=1e-9)

    def test_full_contrast_minimum_not_below_zero(self):
        # |a1| = |a2| and chi1 = chi2: the curve touches zero, and its
        # two-term form rounds that minimum to either side of it
        rng = np.random.default_rng(20)
        for _ in range(10_000):
            chi = PolarizationAngle(rng.uniform(0, math.pi))
            pa, pb = rng.uniform(0, 2 * math.pi, 2)
            state = TwoPhotonState(complex(np.exp(1j * pa) / SQ2),
                                   complex(np.exp(1j * pb) / SQ2), chi, chi)
            report = phi_scan_oracle(state)
            assert report.c_min >= 0.0
            assert report.mu <= 1.0

    def test_report_extrema_consistent(self):
        rng = np.random.default_rng(8)
        state = random_state(rng)
        report = phi_scan_oracle(state)
        assert report.mu == pytest.approx(
            (report.c_max - report.c_min) / (report.c_max + report.c_min))

    def test_invariant_under_global_phase_and_fringe_shift(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            state = random_state(rng)
            base = phi_scan_oracle(state).mu
            gamma, delta = rng.uniform(0, 2 * math.pi, 2)
            rotated = TwoPhotonState(complex(state.a1 * np.exp(1j * gamma)),
                                     complex(state.a2 * np.exp(1j * (gamma + delta))),
                                     state.chi1, state.chi2)
            assert phi_scan_oracle(rotated).mu == pytest.approx(base, abs=1e-9)

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            state = random_state(rng)
            assert phi_scan_oracle(state).mu == pytest.approx(
                predicted_visibility(state), abs=1e-8)


class TestConcurrence:
    def test_maximal(self):
        state = TwoPhotonState(complex(1 / SQ2), complex(1 / SQ2), VERTICAL, HORIZONTAL)
        assert concurrence(state) == pytest.approx(1.0)

    def test_disentangled(self):
        state = TwoPhotonState(1.0, 0.0, VERTICAL, HORIZONTAL)
        assert concurrence(state) == pytest.approx(0.0)

    def test_weakly_entangled(self):
        state = TwoPhotonState(complex(math.sqrt(1 - 0.08 ** 2)), complex(0.08j),
                               VERTICAL, HORIZONTAL)
        assert concurrence(state) == pytest.approx(0.15949, abs=5e-6)

    def test_requires_orthogonal_pair_polarizations(self):
        state = TwoPhotonState(complex(1 / SQ2), complex(1 / SQ2), VERTICAL, DIAGONAL)
        with pytest.raises(NotTwoQubitStateError):
            concurrence(state)

    def test_full_contrast_not_above_one(self):
        # |a1| = |a2|: 2|a1||a2| can round above |a1|^2 + |a2|^2 = 1
        rng = np.random.default_rng(20)
        for _ in range(5_000):
            chi = PolarizationAngle(rng.uniform(0, math.pi))
            pa, pb = rng.uniform(0, 2 * math.pi, 2)
            state = TwoPhotonState(complex(np.exp(1j * pa) / SQ2),
                                   complex(np.exp(1j * pb) / SQ2), chi, chi.orthogonal())
            assert concurrence(state) <= 1.0

    def test_equals_midway_analyzer_visibility(self):
        # analyzers midway between the two pair polarizations read out 2|a1||a2|
        rng = np.random.default_rng(33)
        for _ in range(100):
            chi1 = PolarizationAngle(rng.uniform(0, math.pi))
            state = random_state(rng, chi1=chi1, chi2=chi1.orthogonal())
            ana = PolarizationAngle(chi1.radians + math.pi / 4)
            assert concurrence(state) == pytest.approx(
                phi_scan_oracle(state, (ana, ana)).mu, abs=1e-6)


class TestFringeExtremaIdentity:
    def test_model_contrast_recovered_exactly(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            p = FringeModelParams(c0=rng.uniform(0.5, 200.0),
                                  mu=rng.uniform(0.0, 1.0),
                                  period=rng.uniform(1e-4, 1e-2),
                                  psi=rng.uniform(-math.pi, math.pi))
            x_hi = -p.psi * p.period / (2 * math.pi)
            x_lo = x_hi + p.period / 2
            got = visibility_from_extrema(fringe_model(x_hi, p), fringe_model(x_lo, p))
            assert got == pytest.approx(p.mu, abs=1e-12)


@functools.cache
def phase_grid(n_grid):
    """The n_grid phases k * 2pi / n_grid with their cos and sin, computed once
    and read-only, since every caller shares them."""
    tables = np.arange(n_grid) * (2.0 * np.pi / n_grid)
    tables = np.stack((tables, np.cos(tables), np.sin(tables)))
    tables.flags.writeable = False
    return tables


def grid_curve(state, ana, n_grid):
    """coincidence_probability on phase_grid(n_grid), from its cached cos and sin."""
    _, cos, sin = phase_grid(n_grid)
    mean, cross, _ = _curve_coefficients(state, *ana)
    return mean + cross.real * cos - cross.imag * sin


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, minimize):
    """Extremum of a unimodal f on [lo, hi] by 48 steps of golden-section search."""
    sign = 1.0 if minimize else -1.0
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc = sign * f(c)
    fd = sign * f(d)
    for _ in range(48):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = sign * f(d)
    return 0.5 * (a + b)


def parabolic_refinement(curve, c, i, minimize):
    """The package's refinement rule with the curve as a callable: successive
    parabolic interpolation from the bracket of grid point i and its two
    neighbours, stopped by the same rule, the same step cap and the same
    tolerance, so on the same curve it evaluates the same phases in the same
    order as _refine_extremum."""
    sign = 1.0 if minimize else -1.0
    step = 2.0 * np.pi / _N_GRID
    x = float(phase_grid(_N_GRID)[0][i])
    a, b = x - step, x + step
    fa, fx, fb = (sign * float(c[(i + d) % _N_GRID]) for d in (-1, 0, 1))
    for _ in range(_MAX_STEPS):
        p = (x - a) * (fx - fb)
        q = (x - b) * (fx - fa)
        if p == q:
            break
        u = x + ((x - a) * p - (x - b) * q) / (2.0 * (q - p))
        if not a < u < b or abs(u - x) <= _PHASE_TOL:
            break
        fu = sign * curve(u)
        if fu <= fx:
            if u < x:
                b, fb = x, fx
            else:
                a, fa = x, fx
            x, fx = u, fu
        elif u < x:
            a, fa = u, fu
        else:
            b, fb = u, fu
    return sign * fx


def reference_oracle(state, analyzers=None, n_grid=_N_GRID):
    """Phase-scan oracle built on coincidence_probability alone: one array
    evaluation on the grid (grid_curve, bit-equal to it), then each extremum
    refined with scalar evaluations.  On the oracle's own grid it refines by
    parabolic_refinement, the package's rule on coincidence_probability's
    scalar branch, so it mirrors phi_scan_oracle exactly; on any other grid it
    refines by golden-section search within one grid step either side,
    independently of the code under test."""
    ana = analyzers if analyzers is not None else (None, None)
    curve = lambda phi: coincidence_probability(state, phi, *ana)
    c = grid_curve(state, ana, n_grid)
    i_max, i_min = int(np.argmax(c)), int(np.argmin(c))
    if n_grid == _N_GRID:
        c_max = parabolic_refinement(curve, c, i_max, minimize=False)
        c_min = parabolic_refinement(curve, c, i_min, minimize=True)
    else:
        step = 2.0 * np.pi / n_grid
        half = math.pi / n_grid
        phi_hi = golden_section(curve, i_max * step - 2 * half, i_max * step + 2 * half,
                                 minimize=False)
        phi_lo = golden_section(curve, i_min * step - 2 * half, i_min * step + 2 * half,
                                 minimize=True)
        c_max = max(curve(phi_hi), float(c[i_max]))
        c_min = min(curve(phi_lo), float(c[i_min]))
    # part of the contrast's definition: the curve is a squared modulus
    c_min = max(c_min, 0.0)
    if c_max + c_min == 0.0:
        return (0.0, 0.0, 0.0)
    return ((c_max - c_min) / (c_max + c_min), c_max, c_min)


def edge_states(rng):
    """Bare-detector states whose extremum sits on or beside the grid's
    wrap-around point at phase 0, then near-flat curves, as (state, None)."""
    step = 2.0 * math.pi / _N_GRID
    states = []
    # conj(a1) * a2 = +-0.4 exp(-i at) puts the maximum (+) or the
    # minimum (-) of the curve at phi = at, so its bracket wraps round 0
    for shift in (-1, -0.5, 0, 0.5, 1):
        for sign in (1.0, -1.0):
            a2 = sign * math.sqrt(0.2) * np.exp(-1j * shift * step)
            states.append((TwoPhotonState(complex(math.sqrt(0.8)), complex(a2),
                                          VERTICAL, VERTICAL), None))
    # near-flat curves: |cross| = |a1||a2| = rel * pair_sum
    for rel in (0.0, 1e-20, 1e-17, 1e-16, 1e-15, 1e-13):
        a2 = rel * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
        states.append((TwoPhotonState(complex(math.sqrt(1.0 - rel ** 2)), complex(a2),
                                      VERTICAL, VERTICAL), None))
    return states


class TestOracleMatchesCoincidenceProbability:
    @pytest.mark.parametrize("n_grid", [_N_GRID, 100_000])
    def test_grid_curve_bit_equal_to_coincidence_probability(self, n_grid):
        rng = np.random.default_rng(5)
        phases = phase_grid(n_grid)[0]
        for _ in range(4):
            state = random_state(rng)
            ana = (PolarizationAngle(rng.uniform(0, math.pi)),
                   PolarizationAngle(rng.uniform(0, math.pi)))
            for analyzers in ((None, None), ana, (HORIZONTAL, HORIZONTAL)):
                assert np.array_equal(grid_curve(state, analyzers, n_grid),
                                      coincidence_probability(state, phases, *analyzers))

    def test_reports_equal_reference_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            state = random_state(rng)
            ana = (PolarizationAngle(rng.uniform(0, math.pi)),
                   PolarizationAngle(rng.uniform(0, math.pi)))
            for analyzers in (None, ana):
                report = phi_scan_oracle(state, analyzers)
                assert (report.mu, report.c_max, report.c_min) == \
                    reference_oracle(state, analyzers)

    def test_nearly_blocked_pairs(self):
        # V pairs behind H analyzers: malus_amplitude blocks them exactly
        for state in (TwoPhotonState(complex(1 / SQ2), complex(1 / SQ2), VERTICAL, VERTICAL),
                      TwoPhotonState(1.0, 0.0, VERTICAL, HORIZONTAL)):
            report = phi_scan_oracle(state, (HORIZONTAL, HORIZONTAL))
            assert report.c_max < 1e-30
            assert (report.mu, report.c_max, report.c_min) == \
                reference_oracle(state, (HORIZONTAL, HORIZONTAL))

    def test_extrema_match_dense_reference_scan(self):
        # The oracle's grid only has to land within one step of each
        # extremum; the refinement must then agree with a 100 000-point scan.
        rng = np.random.default_rng(64)
        states = edge_states(rng)
        for _ in range(500):
            state = random_state(rng)
            ana = (PolarizationAngle(rng.uniform(0, math.pi)),
                   PolarizationAngle(rng.uniform(0, math.pi)))
            states += [(state, None), (state, ana)]
        eps = np.finfo(float).eps
        for state, analyzers in states:
            report = phi_scan_oracle(state, analyzers)
            dense = reference_oracle(state, analyzers, n_grid=100_000)
            assert abs(report.mu - dense[0]) <= 4 * eps
        flat = phi_scan_oracle(TwoPhotonState(1.0, 0.0, VERTICAL, VERTICAL))
        assert flat.c_max == flat.c_min == 0.5

    def test_refinement_evaluation_count(self, monkeypatch):
        # parabolic refinement takes a few curve evaluations per extremum
        # (golden section took 50), and its stop rule, not the step cap,
        # ends every refinement here; every trial phase lies within one grid
        # step of the grid extremum, and the result is never worse than it.
        # Each evaluation calls cos once, so a recording math module counts
        # them and collects the trial phases.
        trials = []

        class RecordingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def cos(self, phi):
                trials.append(phi)
                return math.cos(phi)

        rng = np.random.default_rng(2024)
        states = edge_states(rng)
        for _ in range(2000):
            state = random_state(rng)
            ana = (PolarizationAngle(rng.uniform(0, math.pi)),
                   PolarizationAngle(rng.uniform(0, math.pi)))
            states += [(state, None), (state, ana)]
        step = 2.0 * math.pi / _N_GRID
        evals = []
        monkeypatch.setattr(twinfringe.analysis, "math", RecordingMath())
        for state, analyzers in states:
            ana = analyzers if analyzers is not None else (None, None)
            half_sum, cross, _ = _curve_coefficients(state, *ana)
            c = grid_curve(state, ana, _N_GRID)
            for i, sign in ((int(np.argmax(c)), -1.0), (int(np.argmin(c)), 1.0)):
                trials.clear()
                best = _refine_extremum(half_sum, cross.real, cross.imag, c.tolist(), i,
                                        minimize=sign > 0)
                assert sign * best <= sign * c[i]
                assert all(abs(phi - i * step) < step for phi in trials)
                evals.append(len(trials))
        # at least one on average: the recording math module saw the evaluations;
        # random states take ~4 on the 8-phase grid
        assert 1 <= np.mean(evals) <= 5
        assert max(evals) < _MAX_STEPS

    def test_crossed_analyzers_read_zero(self):
        # every pair blocked: an all-zero curve, not a rounding-level fringe
        report = phi_scan_oracle(TwoPhotonState(complex(1 / SQ2), complex(1 / SQ2),
                                                VERTICAL, VERTICAL),
                                 (HORIZONTAL, HORIZONTAL))
        assert (report.mu, report.c_max, report.c_min) == (0.0, 0.0, 0.0)


class TestConformanceReport:
    def test_every_law_within_tolerance(self):
        report = conformance_report(40, seed=3)
        assert list(report) == [
            "closed form vs oracle, bare detectors",
            "closed form vs oracle, analyzers",
            "concurrence vs 45-degree visibility",
            "fringe extrema identity",
            "oracle invariance under global phase and fringe shifts",
        ]
        for err, tol in report.values():
            assert 0.0 <= err <= tol

    def test_deterministic_in_seed(self):
        assert conformance_report(20, seed=5) == conformance_report(20, seed=5)
        assert conformance_report(20, seed=5) != conformance_report(20, seed=6)
