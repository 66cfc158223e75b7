"""Command-line front end.

Subcommands: simulate-scan, sweep-pump-angle, fit, reproduce-fig5,
oracle-check.  Angles are taken in degrees on the command line and converted
to radians at this boundary only.  Exit codes: 0 success, 2 input error,
3 I/O error, 4 non-convergence (or failed numerical conformance).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from typing import List, Optional, Tuple

import numpy as np

from .analysis import conformance_report
from .config import (ENV_CONFIG_PATH, RunConfig, default_config,
                     default_config_path, load_config)
from .detection import SCAN_DTYPE
from .errors import TwinfringeError
from .fitting import (FitResult, FringeModelParams, fit_fringe, fit_visibility_curve,
                      fringe_params, visibility_curve_params)
from .pipeline import (FIG5_TOLERANCE, FIG5_TRUTH, SWEEP_DTYPE, reproduce_fig5,
                       simulate_scan, sweep_pump_angle)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_NOCONV = 4

SCAN_HEADER = ["position_m", "counts", "integration_s", "expected_rate"]
SWEEP_HEADER = ["theta_rad", "mu", "sigma_mu"]
# the sweep CSV's columns: every field of SWEEP_DTYPE but the last, converged
_SWEEP_CSV = np.dtype(SWEEP_DTYPE.descr[:-1])

_SCAN_MODES = {"signal": "signal_only", "idler": "idler_only", "both": "both"}


def _resolve_config(args) -> RunConfig:
    path = getattr(args, "config", None) or default_config_path()
    if path is None:
        return default_config()
    return load_config(path)


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    """The config with --scan-mode applied; --seed is passed to the draw."""
    if getattr(args, "scan_mode", None) is None:
        return config
    return dataclasses.replace(config, scan=dataclasses.replace(
        config.scan, scan_mode=_SCAN_MODES[args.scan_mode]))


def _column_text(column: np.ndarray) -> list:
    """Each entry of a CSV column as the writers write it: repr of its float64
    value, or str of an integer, formatted once per distinct value."""
    if column.dtype.kind == "f":
        # distinct bits, not values: np.unique would merge 0.0 and -0.0
        bits = np.ascontiguousarray(column, dtype=np.float64).view(np.uint64)
        values, inverse = np.unique(bits, return_inverse=True)
        text = [repr(x) for x in values.view(np.float64).tolist()]
    else:
        values, inverse = np.unique(column, return_inverse=True)
        text = [str(n) for n in values.tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def _write_table(table: np.ndarray, names, header: List[str], path: str) -> None:
    """Write the named fields of table as CSV columns under header, one line
    per record; an empty table writes the header line alone."""
    columns = [_column_text(table[name]) for name in names]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n")


def write_scan_csv(scan: np.recarray, path: str) -> None:
    # a scan repeats its integration time on every row, and its counts and (on
    # a symmetric scan) its rates many times; SCAN_DTYPE's fields are in
    # SCAN_HEADER's order
    _write_table(scan, SCAN_DTYPE.names, SCAN_HEADER, path)


def write_sweep_csv(sweep: np.ndarray, path: str) -> None:
    _write_table(sweep, _SWEEP_CSV.names, SWEEP_HEADER, path)


def _read_header(fh, path: str, columns: List[str], kind: str) -> int:
    """Check the first non-empty row of fh against columns and return its
    line number; fh is left after it."""
    reader = csv.reader(fh)
    header = next((row for row in reader if row), None)
    if header is None:
        raise TwinfringeError(f"{path}: empty data file")
    header = [cell.strip() for cell in header]
    if header != columns:
        raise TwinfringeError(f"{path}: expected {kind} columns {columns}, got {header}")
    return reader.line_num


def _scan_checks(scan: np.ndarray) -> List[Tuple[np.ndarray, str]]:
    """(bad rows, reason) pairs in the order one row is checked: a negative
    count or rate before a non-finite cell, and that before a negative time."""
    finite = (np.isfinite(scan["position"]) & np.isfinite(scan["integration_time"])
              & np.isfinite(scan["expected_rate"]))
    return [(scan["counts"] < 0, "counts must be >= 0"),
            (scan["expected_rate"] < 0.0, "expected_rate must be >= 0"),
            (~finite, "position_m, integration_s and expected_rate must be finite"),
            (scan["integration_time"] < 0.0, "integration_s must be >= 0")]


def _sweep_checks(sweep: np.ndarray) -> List[Tuple[np.ndarray, str]]:
    """(bad rows, reason) pairs in the order one row is checked."""
    finite = np.logical_and.reduce([np.isfinite(sweep[name]) for name in sweep.dtype.names])
    return [(~finite, "theta_rad, mu and sigma_mu must be finite"),
            ((sweep["mu"] < 0.0) | (sweep["sigma_mu"] < 0.0), "mu and sigma_mu must be >= 0")]


def _read_table(path: str, columns: List[str], dtype: np.dtype, kind: str,
                checks) -> np.ndarray:
    """The rows below the header as a 1-D array of dtype.  numpy's C reader
    parses them and checks flags bad ones by column; if either fails, a walk
    over the rows with int() or float() and the same checks names the first
    bad row by its line, or else (`1_0` suits float()) gives numpy's reason."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            above = _read_header(fh, path, columns, kind)
            body = fh.read()
    except UnicodeDecodeError as exc:
        raise TwinfringeError(f"{path}: not UTF-8 text: {exc}") from exc
    if not body.strip("\r\n"):  # header only: loadtxt would warn "no data"
        return np.zeros(0, dtype=dtype)
    try:
        table = np.loadtxt(io.StringIO(body, newline=""), delimiter=",", dtype=dtype,
                           quotechar='"', comments=None, ndmin=1)
    except ValueError as exc:
        failure = str(exc)
    else:
        failure = next((reason for bad, reason in checks(table) if bad.any()), None)
        if failure is None:
            return table
    parsers = [int if dtype[name].kind == "i" else float for name in dtype.names]
    reader = csv.reader(io.StringIO(body, newline=""))
    for row in filter(None, reader):
        try:
            if len(row) != len(columns):
                raise ValueError(f"expected {len(columns)} cells, got {len(row)}")
            # through the dtype, so a count beyond int64 overflows
            one = np.array([tuple(parse(cell) for parse, cell in zip(parsers, row))],
                           dtype=dtype)
            for bad, reason in checks(one):
                if bad[0]:
                    raise ValueError(reason)
        except (ValueError, OverflowError) as exc:
            # counts is the only integer column, so the only one that overflows
            reason = "counts must fit in int64" if isinstance(exc, OverflowError) else exc
            raise TwinfringeError(f"{path}:{above + reader.line_num}: bad {kind} row: "
                                  f"{reason}") from exc
    raise TwinfringeError(f"{path}: bad {kind} file: {failure}")


def read_scan_csv(path: str) -> np.recarray:
    return _read_table(path, SCAN_HEADER, SCAN_DTYPE, "scan", _scan_checks).view(np.recarray)


def read_sweep_csv(path: str) -> np.recarray:
    return _read_table(path, SWEEP_HEADER, _SWEEP_CSV, "sweep", _sweep_checks).view(np.recarray)


def _fringe_summary(fit: FitResult, p: FringeModelParams, se: FringeModelParams) -> str:
    return (f"mu = {p.mu:.4f} +/- {se.mu:.4f}   period = {p.period:.6g} m   "
            f"c0 = {p.c0:.4f} /s   psi = {p.psi:.4f} rad   "
            f"({'converged' if fit.converged else 'NOT CONVERGED'}, "
            f"{fit.iterations} iterations)")


def cmd_simulate_scan(args) -> int:
    config = _apply_overrides(_resolve_config(args), args)
    scan = simulate_scan(config, args.seed)
    write_scan_csv(scan, args.output)
    print(f"wrote {len(scan)} scan points to {args.output}")
    try:
        fit = fit_fringe(scan)
    except TwinfringeError as exc:
        print(f"fringe fit skipped: {exc}", file=sys.stderr)
        return EXIT_OK
    print("fitted fringe: " + _fringe_summary(fit, *fringe_params(fit)))
    if not fit.converged:
        print("warning: fringe fit did not converge", file=sys.stderr)
    return EXIT_OK


def _parse_theta_list(text: str) -> List[float]:
    try:
        degs = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise TwinfringeError(f"--theta-deg: {exc}") from exc
    if not degs:
        raise TwinfringeError("--theta-deg: no angles given")
    if not all(math.isfinite(d) for d in degs):
        raise TwinfringeError(f"--theta-deg: angles must be finite, got {text!r}")
    return [math.radians(d) for d in degs]


def cmd_sweep_pump_angle(args) -> int:
    config = _apply_overrides(_resolve_config(args), args)
    if args.theta_deg is not None:
        thetas = _parse_theta_list(args.theta_deg)
    else:
        thetas = list(np.linspace(0.0, math.pi, 19))
    if len(thetas) < 4:
        print("warning: fewer than 4 angles; a downstream visibility-curve "
              "fit on this table will be ill-posed", file=sys.stderr)
    points = sweep_pump_angle(config, thetas, args.seed)
    write_sweep_csv(points, args.output)
    print(f"wrote {len(points)} sweep points to {args.output}")
    print(f"{'theta_deg':>10} {'mu':>8} {'sigma_mu':>9}")
    for theta, mu, sigma_mu, converged in points.tolist():
        flag = "" if converged else "  (fit not converged)"
        print(f"{math.degrees(theta):>10.2f} {mu:>8.4f} {sigma_mu:>9.4f}{flag}")
    return EXIT_OK


def _parse_start_period(items) -> Optional[float]:
    """The starting period set by the last `--init period=VALUE`, if any."""
    period = None
    for item in items or []:
        if "=" not in item:
            raise TwinfringeError(f"--init expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        if name.strip() != "period":
            raise TwinfringeError(f"--init takes 'period' only (c0, mu and psi are "
                                  f"solved in closed form), got {item!r}")
        try:
            period = float(value)
        except ValueError as exc:
            raise TwinfringeError(f"--init {item!r}: {exc}") from exc
    return period


def _null_non_finite(value):
    """The report with every NaN or infinite float replaced by None."""
    if isinstance(value, dict):
        return {key: _null_non_finite(item) for key, item in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_report(report: dict, path: str) -> None:
    """Write the report as strict JSON: non-finite numbers become null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_null_non_finite(report), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def cmd_fit(args) -> int:
    out_path = args.output or args.data + ".fit.json"
    if args.model == "fringe":
        start_period = _parse_start_period(args.init)
        for flag, period in (("--fix-period", args.fix_period), ("--init period", start_period)):
            if period is not None and not (math.isfinite(period) and period > 0.0):
                raise TwinfringeError(f"{flag} must be finite and > 0, got {period!r}")
        scan = read_scan_csv(args.data)
        observable = args.observable
        if observable == "auto":
            noisy = scan.integration_time.any() and scan.counts.any()
            observable = "counts" if noisy else "expected"
        data = scan
        if observable == "expected":
            data = np.column_stack((scan.position, scan.expected_rate))
        fit = fit_fringe(data, fix_period=args.fix_period, start_period=start_period)
        p, se = fringe_params(fit)
        print("fringe fit: " + _fringe_summary(fit, p, se))
        report = {"model": "fringe", "observable": observable}
    else:
        for flag, given in (("--init", args.init), ("--fix-period", args.fix_period is not None),
                            ("--observable", args.observable != "auto")):
            if given:
                raise TwinfringeError(f"{flag} applies to fringe fits only: the visibility "
                                      "curve is solved in closed form")
        points = read_sweep_csv(args.data)
        fit = fit_visibility_curve(points)
        p, se = visibility_curve_params(fit)
        print("visibility-curve fit: "
              f"mu_max = {p.mu_max:.4f} +/- {se.mu_max:.4f}   "
              f"theta0 = {p.theta0:.4f} +/- {se.theta0:.4f} rad   "
              f"eps1 = {p.eps1:.4f} +/- {se.eps1:.4f}   eps2 = {p.eps2:.4f}   "
              f"({'converged' if fit.converged else 'NOT CONVERGED'})")
        report = {"model": "viscurve"}
    report.update({
        "params": dataclasses.asdict(p),
        "stderr": dataclasses.asdict(se),
        "residual_norm": fit.residual_norm,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "message": fit.message,
    })
    _write_report(report, out_path)
    print(f"report written to {out_path}")
    if not fit.converged:
        print("error: fit did not converge; best parameters reported",
              file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


def cmd_reproduce_fig5(args) -> int:
    os.makedirs(args.output, exist_ok=True)
    result = reproduce_fig5(seed=args.seed)
    write_sweep_csv(result.points, os.path.join(args.output, "visibility_sweep.csv"))
    report = {
        "fitted": {"mu_max": result.mu_max, "theta0": result.theta0,
                   "eps1": result.eps1, "eps2": result.eps2},
        "reference": dict(FIG5_TRUTH),
        "tolerance": dict(FIG5_TOLERANCE),
        "deltas": result.deltas,
        "checks": result.checks,
        "converged": result.fit.converged,
        "passed": result.passed,
    }
    _write_report(report, os.path.join(args.output, "fig5_report.json"))

    print("visibility sweep reproduction")
    print(f"{'parameter':>9} {'fitted':>9} {'reference':>10} {'delta':>9} "
          f"{'tolerance':>10} {'ok':>4}")
    fitted = {"mu_max": result.mu_max, "theta0": result.theta0, "eps2": result.eps2}
    for key in ("mu_max", "theta0", "eps2"):
        note = " (mod pi/2)" if key == "theta0" else ""
        print(f"{key:>9} {fitted[key]:>9.4f} {FIG5_TRUTH[key]:>10.4f} "
              f"{result.deltas[key]:>9.4f} {FIG5_TOLERANCE[key]:>10.4f} "
              f"{'yes' if result.checks[key] else 'NO':>4}{note}")
    print(f"verdict: {'PASS' if result.passed else 'FAIL'}")
    print(f"outputs in {args.output}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    worst = conformance_report(args.draws, args.seed)
    ok = True
    for name, (value, tol) in worst.items():
        passed = value <= tol
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: max error "
              f"{value:.3e} (tolerance {tol:.0e})")
    print(f"conformance: {'PASS' if ok else 'FAIL'} over {args.draws} draws")
    return EXIT_OK if ok else EXIT_NOCONV


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it
    unchanged, and building it costs ~30x a parse."""
    parser = argparse.ArgumentParser(
        prog="twinfringe",
        description="Simulate two-crystal pair-source fringe scans and "
                    "recover entanglement from their visibility.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scan_mode=True):
        p.add_argument("--config", help=f"config JSON path (default: "
                       f"${ENV_CONFIG_PATH} or built-in defaults)")
        p.add_argument("--seed", type=int, help="override the config seed")
        if scan_mode:
            p.add_argument("--scan-mode", choices=sorted(_SCAN_MODES),
                           help="which detector(s) move")

    p = sub.add_parser("simulate-scan", help="simulate one detector sweep")
    add_common(p)
    p.add_argument("--output", default="scan.csv", help="scan CSV path")
    p.set_defaults(func=cmd_simulate_scan)

    p = sub.add_parser("sweep-pump-angle",
                       help="visibility vs pump angle (one scan per angle, "
                            "fitted as one stack)")
    add_common(p)
    p.add_argument("--theta-deg", help="comma-separated pump angles in degrees "
                   "(default: 19 angles over [0, 180])")
    p.add_argument("--output", default="sweep.csv", help="sweep CSV path")
    p.set_defaults(func=cmd_sweep_pump_angle)

    p = sub.add_parser("fit", help="fit an exported data file")
    p.add_argument("data", help="scan or sweep CSV")
    p.add_argument("--model", choices=["fringe", "viscurve"], required=True)
    p.add_argument("--fix-period", type=float, default=None,
                   help="pin the fringe period (meters)")
    p.add_argument("--observable", choices=["auto", "counts", "expected"],
                   default="auto", help="fringe fits: fit counts or the "
                   "noise-free expected rate column")
    p.add_argument("--init", action="append", metavar="NAME=VALUE",
                   help="fringe fits: the starting period, as period=METERS")
    p.add_argument("--output", help="report JSON path (default: DATA.fit.json)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("reproduce-fig5",
                       help="deterministic end-to-end sweep reproduction "
                            "with pass/fail comparison")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default="fig5_out", help="output directory")
    p.set_defaults(func=cmd_reproduce_fig5)

    p = sub.add_parser("oracle-check",
                       help="brute-force conformance report for the "
                            "closed-form visibility laws")
    p.add_argument("--draws", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise TwinfringeError("--seed: must be a nonnegative integer")
        if getattr(args, "draws", 1) < 1:
            raise TwinfringeError("--draws: must be an integer >= 1")
        return args.func(args)
    except TwinfringeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
