import math

import numpy as np
import pytest

from twinfringe.analysis import (_BLOCK, _golden_section, _grid_extrema,
                                 _phase_table, concurrence, conformance_report,
                                 phi_scan_oracle, visibility_from_extrema)
from twinfringe.errors import NotTwoQubitStateError, UndefinedVisibilityError
from twinfringe.fitting import FringeModelParams, fringe_model
from twinfringe.polarization import (DIAGONAL, HORIZONTAL, VERTICAL,
                                     PolarizationAngle)
from twinfringe.spdc import (TwoPhotonState, coincidence_probability,
                             predicted_visibility)

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

    def test_report_extrema_consistent(self):
        rng = np.random.default_rng(8)
        state = random_state(rng)
        report = phi_scan_oracle(state)
        assert report.method == "oracle"
        assert report.mu == pytest.approx(
            (report.c_max - report.c_min) / (report.c_max + report.c_min))

    def test_minimum_grid_size_enforced(self):
        state = TwoPhotonState(1.0, 0.0, VERTICAL, HORIZONTAL)
        with pytest.raises(ValueError):
            phi_scan_oracle(state, n_grid=10)

    @pytest.mark.parametrize("n_grid", [100_000.5, 5000.0, "5000", True, None])
    def test_grid_size_must_be_an_integer_of_at_least_1000(self, n_grid):
        state = TwoPhotonState(1.0, 0.0, VERTICAL, HORIZONTAL)
        with pytest.raises(ValueError, match="n_grid"):
            phi_scan_oracle(state, n_grid=n_grid)

    def test_integer_like_grid_size_accepted(self):
        state = TwoPhotonState(complex(1 / SQ2), complex(1 / SQ2), VERTICAL, HORIZONTAL)
        assert phi_scan_oracle(state, ANA45, n_grid=np.int64(5000)) == \
            phi_scan_oracle(state, ANA45, n_grid=5000)

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


class TestPhaseTable:
    def test_cached_tables_are_read_only(self):
        cos_t, sin_t = _phase_table(4096)
        assert _phase_table(4096)[0] is cos_t
        for table in (cos_t, sin_t):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 2.0

    @pytest.mark.parametrize("n_grid", [1000, 4096, _BLOCK, _BLOCK + 1,
                                        2 * _BLOCK + 7, 100_000])
    def test_extrema_bit_equal_to_fresh_scan(self, n_grid):
        rng = np.random.default_rng(n_grid)
        step = 2.0 * np.pi / n_grid
        phases = np.arange(n_grid) * step
        cos_p, sin_p = np.cos(phases), np.sin(phases)
        for _ in range(20):
            pair_sum = rng.uniform(0.0, 1.0)
            re, im = rng.uniform(-0.5, 0.5, 2)
            c = 0.5 * pair_sum + re * cos_p - im * sin_p
            i_max, i_min = int(np.argmax(c)), int(np.argmin(c))
            assert _grid_extrema(pair_sum, re, im, n_grid) == (
                phases[i_max], c[i_max], phases[i_min], c[i_min])

    def test_flat_curve_extrema_at_first_grid_point(self):
        n_grid = 2 * _BLOCK + 7
        assert _grid_extrema(0.7, 0.0, 0.0, n_grid) == (0.0, 0.35, 0.0, 0.35)

    def test_tie_in_a_later_block_keeps_the_earlier_index(self):
        # 1 + eps*cos(phi) rounds to 1 + eps over a wide arc around phi = 0,
        # so the maximum recurs at the end of the grid, two blocks later;
        # the minimum 1 - eps spans the boundary of blocks 0 and 1
        n_grid = 2 * _BLOCK + 7
        eps = np.finfo(float).eps
        cos_t, sin_t = _phase_table(n_grid)
        c = eps * cos_t + 1.0 - 0.0 * sin_t
        at_max = np.flatnonzero(c == c.max())
        at_min = np.flatnonzero(c == c.min())
        assert at_max[0] == 0 and at_max[-1] >= 2 * _BLOCK
        assert at_min[0] < _BLOCK <= at_min[-1]
        step = 2.0 * np.pi / n_grid
        assert _grid_extrema(2.0, eps, 0.0, n_grid) == (
            0.0, c.max(), at_min[0] * step, c.min())


def reference_oracle(state, analyzers=None, n_grid=100_000):
    """Phase-scan oracle built on coincidence_probability alone: one array
    evaluation on the grid, then golden-section refinement of each extremum
    with scalar evaluations."""
    ana = analyzers if analyzers is not None else (None, None)
    curve = lambda phi: coincidence_probability(state, phi, *ana)
    step = 2.0 * np.pi / n_grid
    c = curve(np.arange(n_grid) * step)
    i_max, i_min = int(np.argmax(c)), int(np.argmin(c))
    half = math.pi / n_grid
    phi_hi = _golden_section(curve, i_max * step - 2 * half, i_max * step + 2 * half,
                             minimize=False)
    phi_lo = _golden_section(curve, i_min * step - 2 * half, i_min * step + 2 * half,
                             minimize=True)
    c_max = max(curve(phi_hi), float(c[i_max]))
    c_min = min(curve(phi_lo), float(c[i_min]))
    if c_max + c_min == 0.0:
        return (0.0, 0.0, 0.0)
    return ((c_max - c_min) / (c_max + c_min), c_max, c_min)


class TestOracleMatchesCoincidenceProbability:
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
