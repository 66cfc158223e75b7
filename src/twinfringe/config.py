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
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .detection import MAX_POISSON_MEAN, ScanConfig, slit_visibility_factor
from .errors import ConfigurationError
from .polarization import DIAGONAL, VERTICAL, PolarizationAngle, PumpState
from .spdc import CrystalConfig, GeometryConfig, SourceConfig, default_source

SCHEMA_VERSION = 1
ENV_CONFIG_PATH = "TWINFRINGE_CONFIG"

# The keys each document object may hold. A number key mapped to a dataclass
# field is read and written through that field, in this order, and an absent
# one keeps the field's default; a key mapped to None is handled on its own.
_TOP = ("schema_version", "pump", "source", "geometry", "analyzers", "scan")
_PUMP = ("eps1", "eps2", "theta_p_rad")
_CRYSTAL = ("pair_polarization_rad", "pump_axis_rad")
_SOURCE = {"crystal1": None, "crystal2": None, "phi0_rad": "phi0"}
_GEOMETRY = {"fringe_period_m": "fringe_period"}
_ANALYZERS = ("signal_rad", "idler_rad")
_SCAN = {"scan_mode": None, "positions_m": None, "integration_time_s": "integration_time",
         "peak_rate_hz": "peak_rate", "background_rate_hz": "background_rate",
         "slit_width_m": "slit_width", "instrument_factor": "instrument_factor", "seed": None}
_GRID = ("start", "stop", "num")
# Most points a start/stop/num grid may ask for.  ScanConfig keeps its
# positions as a tuple of Python floats, ~32 bytes a point (~32 MB at 10**6),
# and every grid in use has at most a few thousand points; the bound turns a
# mistyped num into an error before linspace tries to allocate it.
MAX_GRID_POINTS = 10 ** 6


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
    # raw grid/list spec, kept for round-trips; the positions it gives are in
    # scan, so it takes no part in equality and the config stays hashable
    positions_spec: object = field(default=None, compare=False)


def _resolve_positions(spec, path: str):
    if isinstance(spec, dict):
        _object(spec, _GRID, path)
        for key in _GRID:
            if key not in spec:
                raise ConfigError(f"{path}: grid spec needs 'start', 'stop', 'num'")
        num = spec["num"]
        if not isinstance(num, int) or isinstance(num, bool) or num < 1:
            raise ConfigError(f"{path}.num: must be an integer >= 1")
        if num > MAX_GRID_POINTS:
            raise ConfigError(f"{path}.num: must be at most {MAX_GRID_POINTS}, got {num}")
        start, stop = _number(spec, "start", path), _number(spec, "stop", path)
        # linspace scales by the span, so an overflowing span fills the grid with NaN
        if not math.isfinite(stop - start):
            raise ConfigError(f"{path}: stop - start = {stop - start}, must be finite")
        return tuple(np.linspace(start, stop, num).tolist())
    if isinstance(spec, list):
        return tuple(_as_number(v, f"{path}[{i}]") for i, v in enumerate(spec))
    raise ConfigError(f"{path}: must be a list of meters or a start/stop/num grid")


def _object(d, keys, path: str) -> dict:
    """`d`, checked to be an object that holds no key outside `keys`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object, got {type(d).__name__}")
    for key in d:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown key")
    return d


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}: missing required key")
    return d[key]


def _number(d: dict, key: str, path: str) -> float:
    return _as_number(_require(d, key, path), f"{path}.{key}")


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


def _fields(d: dict, table: dict, path: str) -> dict:
    """The dataclass fields that the number keys present in `d` set."""
    return {field: _number(d, key, path) for key, field in table.items() if field and key in d}


def _values(obj, table: dict) -> dict:
    """The number keys of `table`, read from the fields of `obj`."""
    return {key: getattr(obj, field) for key, field in table.items() if field}


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
    if not isinstance(version, int) or isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    _object(doc, _TOP, "top level")

    with _section("pump"):
        pump_doc = _object(_require(doc, "pump", "top level"), _PUMP, "pump")
        eps2 = _number(pump_doc, "eps2", "pump")
        theta_p = PolarizationAngle(_number(pump_doc, "theta_p_rad", "pump"))
        if pump_doc.get("eps1") is None:
            pump = PumpState.from_eps2(eps2, theta_p)
        else:
            pump = PumpState(_number(pump_doc, "eps1", "pump"), eps2, theta_p)

    src_doc = _object(_require(doc, "source", "top level"), _SOURCE, "source")
    with _section("source"):
        crystals = []
        for label in ("crystal1", "crystal2"):
            path = f"source.{label}"
            c_doc = _object(_require(src_doc, label, "source"), _CRYSTAL, path)
            pair, axis = (PolarizationAngle(_number(c_doc, key, path)) for key in _CRYSTAL)
            crystals.append(CrystalConfig(pair, axis, label))
        source = SourceConfig(*crystals, **_fields(src_doc, _SOURCE, "source"))

    geo_doc = _object(doc.get("geometry", {}), _GEOMETRY, "geometry")
    with _section("geometry"):
        geometry = GeometryConfig(**_fields(geo_doc, _GEOMETRY, "geometry"))

    analyzers = doc.get("analyzers")
    if analyzers is not None:
        _object(analyzers, _ANALYZERS, "analyzers")
        analyzers = tuple(PolarizationAngle(_number(analyzers, key, "analyzers"))
                          for key in _ANALYZERS)

    scan_doc = _object(_require(doc, "scan", "top level"), _SCAN, "scan")
    positions_spec = _require(scan_doc, "positions_m", "scan")
    fields = {key: scan_doc[key] for key in ("scan_mode", "seed") if key in scan_doc}
    with _section("scan"):
        scan = ScanConfig(_resolve_positions(positions_spec, "scan.positions_m"),
                          **fields, **_fields(scan_doc, _SCAN, "scan"))
    # the slit factor's sinc argument and every fringe phase must be finite,
    # or expected_scan's sinc, cos and sin return NaN
    slit_arg = math.pi * (scan.slit_width / geometry.fringe_period)
    if not math.isfinite(slit_arg):
        raise ConfigError(f"scan.slit_width_m: pi * slit width / geometry.fringe_period_m = "
                          f"{slit_arg}, must be finite")
    ends = scan.positions
    if isinstance(positions_spec, dict):
        # a grid's positions lie between its start and stop, so a list alone
        # is searched point by point (~0.1 ms for 2001 points)
        ends = (ends[0], ends[-1])
    reach = max(map(abs, ends)) * (2.0 if scan.scan_mode == "both" else 1.0)
    phase = 2.0 * math.pi * reach / geometry.fringe_period
    if not math.isfinite(phase):
        raise ConfigError(f"scan.positions_m: largest fringe phase 2 pi max|x_s + x_i| / "
                          f"geometry.fringe_period_m = {phase}, must be finite")
    peak = (scan.peak_rate + scan.background_rate) * scan.integration_time
    if peak > MAX_POISSON_MEAN:
        raise ConfigError(f"scan.peak_rate_hz: (peak + background rate) * integration_time_s = "
                          f"{peak:.3g} counts, over the Poisson limit {MAX_POISSON_MEAN:.3g}")

    return RunConfig(pump=pump, source=source, geometry=geometry,
                     analyzers=analyzers, scan=scan,
                     positions_spec=positions_spec)


def config_to_dict(config: RunConfig) -> dict:
    """Serialize back to the JSON document shape accepted by config_from_dict."""
    positions_spec = config.positions_spec
    if positions_spec is None:
        positions_spec = list(config.scan.positions)
    pump, source, scan = config.pump, config.source, config.scan
    crystals = {label: dict(zip(_CRYSTAL, (c.pair_polarization.radians, c.pump_axis.radians)))
                for label, c in (("crystal1", source.crystal1), ("crystal2", source.crystal2))}
    return {
        "schema_version": SCHEMA_VERSION,
        "pump": dict(zip(_PUMP, (pump.eps1, pump.eps2, pump.theta_p.radians))),
        "source": {**crystals, **_values(source, _SOURCE)},
        "geometry": _values(config.geometry, _GEOMETRY),
        "analyzers": None if config.analyzers is None else {
            key: angle.radians for key, angle in zip(_ANALYZERS, config.analyzers)},
        "scan": {"scan_mode": scan.scan_mode, "positions_m": positions_spec,
                 **_values(scan, _SCAN), "seed": scan.seed},
    }


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
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


def _builtin_config(pump: PumpState, source: SourceConfig, ceiling: float,
                    seed: int) -> RunConfig:
    """`pump` and `source` behind 45-degree analyzers, with the instrument
    factor set so the visibility ceiling through the default slit on the
    default fringe is `ceiling`; every other setting keeps its dataclass
    default."""
    positions_spec = {"start": -6e-3, "stop": 6e-3, "num": 61}
    factor = _as_number(ceiling / slit_visibility_factor(ScanConfig.slit_width,
                                                         GeometryConfig.fringe_period),
                        "scan.instrument_factor")
    with _section("scan"):
        scan = ScanConfig(_resolve_positions(positions_spec, "scan.positions_m"),
                          instrument_factor=factor, seed=seed)
    return RunConfig(pump=pump, source=source,
                     geometry=GeometryConfig(),
                     analyzers=(DIAGONAL, DIAGONAL), scan=scan, positions_spec=positions_spec)


def default_config() -> RunConfig:
    """Built-in defaults: same-polarization crystals, 45-degree pump.

    The instrument factor is set so the effective visibility ceiling through
    the default slit is 0.83.
    """
    return _builtin_config(PumpState.linear(DIAGONAL), default_source(pair2=VERTICAL),
                           0.83, 12345)


def entangled_sweep_config(ceiling: float = 0.77, eps2: float = 0.08,
                           seed: int = 777) -> RunConfig:
    """Orthogonal-crystal configuration for pump-angle sweeps.

    The instrument factor is set so the visibility ceiling behind the
    45-degree analyzers is `ceiling`.
    """
    with _section("pump"):
        pump = PumpState.from_eps2(_as_number(eps2, "pump.eps2"), DIAGONAL)
    return _builtin_config(pump, default_source(), ceiling, seed)
