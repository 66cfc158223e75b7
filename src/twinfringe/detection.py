"""From ideal coincidence curves to realistic scan data.

Models the instrument chain as three independent effects: a boxcar slit
average that smooths the fringe, a scalar mode-match factor that caps the
visibility, and Poisson counting noise from one reproducible stream per scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError
from .polarization import PolarizationAngle
from .spdc import (GeometryConfig, SourceConfig, TwoPhotonState,
                   coincidence_probability, fringe_phase,
                   _projected_amplitudes)

SCAN_MODES = ("signal_only", "idler_only", "both")

# largest mean numpy's Generator.poisson accepts: int64 max - 10 sqrt(int64 max)
MAX_POISSON_MEAN = float(np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max))


@dataclass(frozen=True)
class ScanConfig:
    """Detector sweep description plus the instrument parameters."""

    positions: Tuple[float, ...]
    scan_mode: str = "signal_only"
    integration_time: float = 10.0
    peak_rate: float = 100.0
    background_rate: float = 0.0
    slit_width: float = 0.5e-3
    instrument_factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(float(x) for x in self.positions))
        if len(self.positions) == 0:
            raise ConfigurationError("scan needs at least one position")
        if not all(math.isfinite(x) for x in self.positions):
            raise ConfigurationError("scan positions must be finite")
        if self.scan_mode not in SCAN_MODES:
            raise ConfigurationError(
                f"scan_mode must be one of {SCAN_MODES}, got {self.scan_mode!r}")
        for name in ("integration_time", "peak_rate", "background_rate", "slit_width"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
            if value < 0.0:
                raise ConfigurationError(f"{name} must be >= 0")
        if not 0.0 <= self.instrument_factor <= 1.0:
            raise ConfigurationError("instrument_factor must lie in [0, 1]")


@dataclass(frozen=True)
class ScanRecord:
    """One scan point: where the moving detector(s) sat and what was counted."""

    position: float
    expected_rate: float
    counts: int
    integration_time: float

    def __post_init__(self):
        if self.counts < 0:
            raise ConfigurationError("counts must be >= 0")
        if self.expected_rate < 0.0:
            raise ConfigurationError("expected_rate must be >= 0")


def slit_visibility_factor(slit_width: float, fringe_period: float) -> float:
    """Modulation-depth factor from boxcar-averaging the fringe over the slit.

    sin(pi w / L) / (pi w / L), equal to 1 at zero width and 0 when the slit
    covers a full period.
    """
    if fringe_period <= 0.0:
        raise ConfigurationError("fringe_period must be > 0")
    if slit_width < 0.0:
        raise ConfigurationError("slit_width must be >= 0")
    return float(np.sinc(slit_width / fringe_period))


def _detector_positions(x: np.ndarray, scan_mode: str):
    if scan_mode == "signal_only":
        return x, np.zeros_like(x)
    if scan_mode == "idler_only":
        return np.zeros_like(x), x
    return x, x


def expected_scan(state: TwoPhotonState, source: SourceConfig,
                  geometry: GeometryConfig,
                  analyzers: Optional[Tuple[PolarizationAngle, PolarizationAngle]],
                  scan: ScanConfig):
    """Noise-free expected coincidence rate at each scan position.

    The ideal curve's modulation is rescaled about its mean by
    instrument_factor * slit_visibility_factor, then mapped so the global
    fringe maximum corresponds to peak_rate, on top of background_rate.

    Returns a list of (position, expected_rate) pairs.
    """
    ana_s, ana_i = analyzers if analyzers is not None else (None, None)
    x = np.asarray(scan.positions, dtype=np.float64)
    xs, xi = _detector_positions(x, scan.scan_mode)
    phases = fringe_phase(xs, xi, geometry, source.phi0)
    c = coincidence_probability(state, phases, ana_s, ana_i)

    b1, b2, overlap = _projected_amplitudes(state, ana_s, ana_i)
    mean_c = 0.5 * (abs(b1) ** 2 + abs(b2) ** 2)
    amp_c = abs(overlap) * abs(b1) * abs(b2)

    f = scan.instrument_factor * slit_visibility_factor(
        scan.slit_width, geometry.fringe_period)
    smoothed = mean_c + f * (c - mean_c)
    top = mean_c + abs(f) * amp_c
    if top > 0.0:
        shape = smoothed / top
    else:
        shape = np.zeros_like(smoothed)
    rates = scan.background_rate + scan.peak_rate * shape
    return [(float(px), float(r)) for px, r in zip(x, rates)]


def sample_counts(expected: Sequence[Tuple[float, float]],
                  integration_time: float, seed: int):
    """Draw Poisson counts for each expected point.

    All counts come from one random stream per scan, seeded by `seed` and
    drawn in point-index order, so a point's count depends only on the seed
    and on the rates at that index and before it: dropping trailing points
    leaves the remaining counts unchanged, and repeated runs with the same
    inputs are identical.

    Returns a list of ScanRecord.
    """
    if not (math.isfinite(integration_time) and integration_time >= 0.0):
        raise ConfigurationError("integration_time must be finite and >= 0")
    points = np.asarray(expected, dtype=np.float64).reshape(-1, 2)
    rates = points[:, 1]
    if not np.all(np.isfinite(rates)):
        raise ConfigurationError("expected rates must be finite")
    if np.any(rates < 0.0):
        raise ConfigurationError("expected rates must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    try:
        counts = rng.poisson(rates * integration_time)
    except ValueError as exc:  # means beyond the generator's range
        raise ConfigurationError(f"expected counts out of range: {exc}") from exc
    t = float(integration_time)
    return [ScanRecord(position=pos, expected_rate=rate, counts=n, integration_time=t)
            for pos, rate, n in zip(points[:, 0].tolist(), rates.tolist(),
                                    counts.tolist())]
