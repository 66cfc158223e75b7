"""Run configuration: one JSON document bundling source, geometry, and scan.

The file stores angles in radians (keys carry a ``_rad`` suffix) so that a
load / serialize / load cycle reproduces the validated configuration
exactly; degree conversion happens only at the command-line boundary.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .detection import MAX_POISSON_MEAN, SCAN_MODES, ScanConfig
from .errors import ConfigurationError
from .polarization import DIAGONAL, PolarizationAngle, PumpState
from .spdc import CrystalConfig, GeometryConfig, SourceConfig

SCHEMA_VERSION = 1
ENV_CONFIG_PATH = "TWINFRINGE_CONFIG"

# ceiling 0.83 visibility through a 0.5 mm slit on a 5 mm fringe
_DEFAULT_PERIOD = 5e-3
_DEFAULT_SLIT = 0.5e-3


class ConfigError(ConfigurationError):
    """Configuration file failed to parse or validate."""


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of everything one simulated run needs."""

    pump: PumpState
    source: SourceConfig
    geometry: GeometryConfig
    analyzers: Optional[Tuple[PolarizationAngle, PolarizationAngle]]
    scan: ScanConfig
    positions_spec: object = None  # raw grid/list spec, kept for round-trips
    schema_version: int = SCHEMA_VERSION


def _resolve_positions(spec, path: str):
    if isinstance(spec, dict):
        for key in ("start", "stop", "num"):
            if key not in spec:
                raise ConfigError(f"{path}: grid spec needs 'start', 'stop', 'num'")
        num = spec["num"]
        if not isinstance(num, int) or isinstance(num, bool) or num < 1:
            raise ConfigError(f"{path}.num: must be an integer >= 1")
        start, stop = _number(spec, "start", path), _number(spec, "stop", path)
        return tuple(np.linspace(start, stop, num).tolist())
    if isinstance(spec, list):
        if not spec:
            raise ConfigError(f"{path}: position list must not be empty")
        return tuple(_as_number(v, f"{path}[{i}]") for i, v in enumerate(spec))
    raise ConfigError(f"{path}: must be a list of meters or a start/stop/num grid")


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}: missing required key")
    return d[key]


def _number(d: dict, key: str, path: str, default=None) -> float:
    if key not in d:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}: missing required key")
    return _as_number(d[key], f"{path}.{key}")


def _as_number(v, where: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{where}: expected a number, got {type(v).__name__}")
    try:
        value = float(v)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite")
    return value


@contextmanager
def _section(name: str):  # prefix a constructor's structural error with its section
    try:
        yield
    except ConfigError:
        raise
    except ConfigurationError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def config_from_dict(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig.

    Error messages name the offending key path.
    """
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    with _section("pump"):
        pump_doc = _require(doc, "pump", "top level")
        eps2 = _number(pump_doc, "eps2", "pump")
        theta_p = PolarizationAngle(_number(pump_doc, "theta_p_rad", "pump"))
        if pump_doc.get("eps1") is None:
            pump = PumpState.from_eps2(eps2, theta_p)
        else:
            pump = PumpState(_number(pump_doc, "eps1", "pump"), eps2, theta_p)

    src_doc = _require(doc, "source", "top level")
    with _section("source"):
        crystals = []
        for label in ("crystal1", "crystal2"):
            c_doc = _require(src_doc, label, "source")
            crystals.append(CrystalConfig(
                pair_polarization=PolarizationAngle(
                    _number(c_doc, "pair_polarization_rad", f"source.{label}")),
                pump_axis=PolarizationAngle(
                    _number(c_doc, "pump_axis_rad", f"source.{label}")),
                label=label,
            ))
        source = SourceConfig(crystals[0], crystals[1],
                              phi0=_number(src_doc, "phi0_rad", "source", default=0.0))

    geo_doc = doc.get("geometry", {})
    with _section("geometry"):
        geometry = GeometryConfig(
            wavelength=_number(geo_doc, "wavelength_m", "geometry", default=884e-9),
            crystal_separation=_number(geo_doc, "crystal_separation_m", "geometry", default=0.01),
            detector_distance=_number(geo_doc, "detector_distance_m", "geometry", default=1.0),
            fringe_period=(None if geo_doc.get("fringe_period_m") is None
                           else _number(geo_doc, "fringe_period_m", "geometry")),
        )

    ana_doc = doc.get("analyzers")
    if ana_doc is None:
        analyzers = None
    else:
        analyzers = (PolarizationAngle(_number(ana_doc, "signal_rad", "analyzers")),
                     PolarizationAngle(_number(ana_doc, "idler_rad", "analyzers")))

    scan_doc = _require(doc, "scan", "top level")
    positions_spec = _require(scan_doc, "positions_m", "scan")
    positions = _resolve_positions(positions_spec, "scan.positions_m")
    mode = scan_doc.get("scan_mode", "signal_only")
    if mode not in SCAN_MODES:
        raise ConfigError(f"scan.scan_mode: must be one of {SCAN_MODES}, got {mode!r}")
    seed = scan_doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("scan.seed: must be a nonnegative integer")
    with _section("scan"):
        scan = ScanConfig(
            positions=positions,
            scan_mode=mode,
            integration_time=_number(scan_doc, "integration_time_s", "scan", default=10.0),
            peak_rate=_number(scan_doc, "peak_rate_hz", "scan", default=100.0),
            background_rate=_number(scan_doc, "background_rate_hz", "scan", default=0.0),
            slit_width=_number(scan_doc, "slit_width_m", "scan", default=_DEFAULT_SLIT),
            instrument_factor=_number(scan_doc, "instrument_factor", "scan", default=1.0),
            seed=seed,
        )
    peak = (scan.peak_rate + scan.background_rate) * scan.integration_time
    if peak > MAX_POISSON_MEAN:
        raise ConfigError(f"scan.peak_rate_hz: (peak + background rate) * integration_time_s = "
                          f"{peak:.3g} counts, over the Poisson limit {MAX_POISSON_MEAN:.3g}")

    return RunConfig(pump=pump, source=source, geometry=geometry,
                     analyzers=analyzers, scan=scan,
                     positions_spec=positions_spec, schema_version=version)


def config_to_dict(config: RunConfig) -> dict:
    """Serialize back to the JSON document shape accepted by config_from_dict."""
    positions_spec = config.positions_spec
    if positions_spec is None:
        positions_spec = list(config.scan.positions)
    return {
        "schema_version": config.schema_version,
        "pump": {
            "eps1": config.pump.eps1,
            "eps2": config.pump.eps2,
            "theta_p_rad": config.pump.theta_p.radians,
        },
        "source": {
            "crystal1": {
                "pair_polarization_rad": config.source.crystal1.pair_polarization.radians,
                "pump_axis_rad": config.source.crystal1.pump_axis.radians,
            },
            "crystal2": {
                "pair_polarization_rad": config.source.crystal2.pair_polarization.radians,
                "pump_axis_rad": config.source.crystal2.pump_axis.radians,
            },
            "phi0_rad": config.source.phi0,
        },
        "geometry": {
            "wavelength_m": config.geometry.wavelength,
            "crystal_separation_m": config.geometry.crystal_separation,
            "detector_distance_m": config.geometry.detector_distance,
            "fringe_period_m": config.geometry.fringe_period,
        },
        "analyzers": None if config.analyzers is None else {
            "signal_rad": config.analyzers[0].radians,
            "idler_rad": config.analyzers[1].radians,
        },
        "scan": {
            "scan_mode": config.scan.scan_mode,
            "positions_m": positions_spec,
            "integration_time_s": config.scan.integration_time,
            "peak_rate_hz": config.scan.peak_rate,
            "background_rate_hz": config.scan.background_rate,
            "slit_width_m": config.scan.slit_width,
            "instrument_factor": config.scan.instrument_factor,
            "seed": config.scan.seed,
        },
    }


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return config_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_config(config: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")


def default_config_path() -> Optional[str]:
    """Path named by the environment override, if any."""
    path = os.environ.get(ENV_CONFIG_PATH, "").strip()
    return path or None


def default_config() -> RunConfig:
    """Built-in defaults: same-polarization crystals, 45-degree pump.

    The instrument factor is set so the effective visibility ceiling through
    the default slit is 0.83.
    """
    slit_loss = float(np.sinc(_DEFAULT_SLIT / _DEFAULT_PERIOD))
    return config_from_dict({
        "schema_version": SCHEMA_VERSION,
        "pump": {"eps1": 1.0, "eps2": 0.0, "theta_p_rad": math.pi / 4.0},
        "source": {
            "crystal1": {"pair_polarization_rad": 0.0, "pump_axis_rad": 0.0},
            "crystal2": {"pair_polarization_rad": 0.0, "pump_axis_rad": math.pi / 2.0},
            "phi0_rad": 0.0,
        },
        "geometry": {
            "wavelength_m": 884e-9,
            "crystal_separation_m": 0.01,
            "detector_distance_m": 1.0,
            "fringe_period_m": _DEFAULT_PERIOD,
        },
        "analyzers": {"signal_rad": DIAGONAL.radians, "idler_rad": DIAGONAL.radians},
        "scan": {
            "scan_mode": "signal_only",
            "positions_m": {"start": -6e-3, "stop": 6e-3, "num": 61},
            "integration_time_s": 10.0,
            "peak_rate_hz": 100.0,
            "background_rate_hz": 0.0,
            "slit_width_m": _DEFAULT_SLIT,
            "instrument_factor": 0.83 / slit_loss,
            "seed": 12345,
        },
    })


def entangled_sweep_config(ceiling: float = 0.77, eps2: float = 0.08,
                           seed: int = 777) -> RunConfig:
    """Orthogonal-crystal configuration for pump-angle sweeps.

    The instrument factor is set so the visibility ceiling behind the
    45-degree analyzers is `ceiling`.
    """
    slit_loss = float(np.sinc(_DEFAULT_SLIT / _DEFAULT_PERIOD))
    base = config_to_dict(default_config())
    base["pump"] = {"eps1": None, "eps2": eps2, "theta_p_rad": math.pi / 4.0}
    base["source"]["crystal1"]["pair_polarization_rad"] = 0.0
    base["source"]["crystal2"]["pair_polarization_rad"] = math.pi / 2.0
    base["scan"]["instrument_factor"] = ceiling / slit_loss
    base["scan"]["seed"] = seed
    return config_from_dict(base)
