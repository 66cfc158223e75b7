"""From ideal coincidence curves to realistic scan data.

Models the instrument chain as three independent effects: a boxcar slit
average that smooths the fringe, a scalar mode-match factor that caps the
visibility, and Poisson counting noise from one reproducible stream per scan
(or per stack of scans).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError
from .polarization import PolarizationAngle
from .spdc import (GeometryConfig, SourceConfig, TwoPhotonState,
                   _curve_coefficients, fringe_phase)

SCAN_MODES = ("signal_only", "idler_only", "both")

# largest mean numpy's Generator.poisson accepts: int64 max - 10 sqrt(int64 max)
MAX_POISSON_MEAN = float(np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max))

# one row per scan point: where the moving detector(s) sat and what was counted
SCAN_DTYPE = np.dtype([("position", np.float64), ("counts", np.int64),
                       ("integration_time", np.float64), ("expected_rate", np.float64)])


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
        object.__setattr__(self, "positions", tuple(map(float, self.positions)))
        if not self.positions:
            raise ConfigurationError("scan needs at least one position")
        if not all(map(math.isfinite, self.positions)):
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
        # a Python int, so a numpy-integer seed still saves as JSON
        object.__setattr__(self, "seed", nonnegative_seed(self.seed))


def nonnegative_seed(seed) -> int:
    """`seed` as a Python int, checked to be a Python or numpy integer >= 0,
    not a bool, float, string or sequence (SeedSequence would take a list as
    entropy and a bool as 0 or 1)."""
    try:
        entropy = -1 if isinstance(seed, (bool, np.bool_)) else operator.index(seed)
    except TypeError:
        entropy = -1
    if entropy < 0:
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed!r}")
    return entropy


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


def expected_scan(state: TwoPhotonState, source: SourceConfig, geometry: GeometryConfig,
                  analyzers: Optional[Tuple[PolarizationAngle, PolarizationAngle]],
                  scan: ScanConfig) -> np.ndarray:
    """Noise-free expected coincidence rate at each scan position.

    The ideal curve's modulation is rescaled about its mean by
    instrument_factor * slit_visibility_factor, then mapped so the global
    fringe maximum corresponds to peak_rate, on top of background_rate.

    Returns an (n, 2) float64 array of (position, expected_rate) rows.
    """
    ana_s, ana_i = analyzers if analyzers is not None else (None, None)
    mean, cross, depth = _curve_coefficients(state, ana_s, ana_i)
    f = scan.instrument_factor * slit_visibility_factor(
        scan.slit_width, geometry.fringe_period)
    top = mean + abs(f) * depth  # the smoothed curve's maximum
    if math.isnan(top):
        raise ConfigurationError(
            f"the fringe maximum is NaN: slit factor {f!r} from slit_width "
            f"{scan.slit_width!r} over fringe_period {geometry.fringe_period!r}")
    # + 0.0 writes a -0.0 position or rate as 0.0, so scans that compare
    # equal give equal bytes (pipeline caches the rates on that equality)
    x = np.asarray(scan.positions, dtype=np.float64) + 0.0
    # the phase reads x_signal + x_idler only, so moving either detector alone
    # is one scan, and moving both doubles x
    phases = fringe_phase(x, x if scan.scan_mode == "both" else 0.0, geometry, source.phi0)
    c = mean + cross.real * np.cos(phases) - cross.imag * np.sin(phases)
    smoothed = mean + f * (c - mean)
    # a zero maximum is a curve blocked everywhere, as by crossed analyzers
    shape = smoothed / top if top > 0.0 else np.zeros_like(smoothed)
    out = np.empty(shape.shape + (2,))
    out[:, 0] = x
    out[:, 1] = scan.background_rate + 0.0 + scan.peak_rate * shape
    return out


def sample_counts(expected, integration_time: float, seed: int) -> np.recarray:
    """Draw Poisson counts for each expected (position, rate) point.

    All counts come from one random stream, seeded by `seed` and drawn in
    point-index order, so a point's count depends only on the seed and on
    the rates at that index and before it: dropping trailing points leaves
    the remaining counts unchanged, and repeated runs with the same inputs
    are identical.

    expected is one scan of (position, rate) rows, or an (m, n, 2) stack of
    scans, one expected_scan per row, such as a pump-angle sweep draws.  A
    stack is drawn as one scan of its m*n points in row order: row 0 equals
    a one-scan call with the same seed, and the first k rows equal those of
    a stack of their k scans.  The rows share the one stream; none has its
    own.

    Returns a record array of SCAN_DTYPE, one row per point: (n,) for one
    scan, (m, n) for a stack.
    """
    entropy = nonnegative_seed(seed)
    if not (math.isfinite(integration_time) and integration_time >= 0.0):
        raise ConfigurationError("integration_time must be finite and >= 0")
    points = np.asarray(expected, dtype=np.float64)
    rates = points[..., 1]
    if not np.all(np.isfinite(rates)):
        raise ConfigurationError("expected rates must be finite")
    if np.any(rates < 0.0):
        raise ConfigurationError("expected rates must be >= 0")
    try:
        counts = np.random.default_rng(np.random.SeedSequence(entropy)).poisson(
            rates * integration_time)
    except ValueError as exc:  # means beyond the generator's range
        raise ConfigurationError(f"expected counts out of range: {exc}") from exc
    scan = np.empty(rates.shape, SCAN_DTYPE)
    scan["position"] = points[..., 0]
    scan["counts"] = counts
    scan["integration_time"] = integration_time
    scan["expected_rate"] = rates
    return scan.view(np.recarray)
