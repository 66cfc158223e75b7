"""The three benchmark workloads.

Each workload turns (benchmark seed, item index) into one item's inputs,
runs the item through twinfringe's public entry points, and checks the
item's output.  Items are derived one at a time from the seed, so the
program receives only generated inputs and the same seed always yields the
same item sequence.  Entry points are looked up on their module at call
time, so the tracer's rebinding takes effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np


def item_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def item_seed(seed: int, index: int) -> int:
    return int(item_rng(seed, index).integers(0, 2 ** 62))


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class Check:
    """Verdict on one item: `ok` is False for a failed item (error_ratio),
    `recovered` is True when the result meets its reference
    (recovery_ratio), and `digest` holds the bytes that identify the
    output."""

    def __init__(self, ok: bool, recovered: bool, digest: bytes, why: str = ""):
        self.ok = ok
        self.recovered = bool(ok and recovered)
        self.digest = digest
        self.why = why


class Fig5Sweep:
    """reproduce_fig5 at one derived seed: 19 scans of 61 points, 19
    free-period fringe fits and one visibility-curve fit."""

    name = "fig5_sweep"
    tail_percentile = 90.0

    def __init__(self, seed: int, workdir: str):
        from twinfringe import pipeline
        self.pipeline = pipeline
        self.seed = seed

    def inputs(self, index: int):
        return item_seed(self.seed, index)

    def run(self, item_seed_value):
        return self.pipeline.reproduce_fig5(seed=item_seed_value)

    def check(self, result) -> Check:
        pairs = [(p.mu, p.sigma_mu) for p in result.points]
        values = [v for pair in pairs for v in pair]
        values += [result.mu_max, result.theta0, result.eps2]
        digest = repr(pairs).encode()
        if len(pairs) != 19 or not _finite(*values):
            return Check(False, False, digest, "non-finite or missing sweep output")
        return Check(True, result.passed and result.fit.converged, digest)


class OracleConformance:
    """One random pump/source/analyzer configuration, drawn as in acceptance
    criterion 1: both closed-form visibilities against the phase-scan
    oracle, bare and behind analyzers."""

    name = "oracle_conformance"
    tail_percentile = 99.0
    tolerance = 1e-6

    def __init__(self, seed: int, workdir: str):
        from twinfringe import analysis, polarization, spdc
        self.analysis = analysis
        self.spdc = spdc
        self.polarization = polarization
        self.seed = seed

    def inputs(self, index: int):
        pol, spdc = self.polarization, self.spdc
        angle = pol.PolarizationAngle
        rng = item_rng(self.seed, index)
        pump = pol.PumpState.from_eps2(rng.uniform(0.0, 1.0),
                                       angle(rng.uniform(0.0, math.pi)))
        axis = angle(rng.uniform(0.0, math.pi))
        source = spdc.SourceConfig(
            spdc.CrystalConfig(angle(rng.uniform(0.0, math.pi)), axis, "crystal1"),
            spdc.CrystalConfig(angle(rng.uniform(0.0, math.pi)), axis.orthogonal(),
                               "crystal2"),
            phi0=rng.uniform(-math.pi, math.pi))
        analyzers = (angle(rng.uniform(0.0, math.pi)), angle(rng.uniform(0.0, math.pi)))
        return pump, source, analyzers

    def run(self, config):
        pump, source, analyzers = config
        spdc, analysis = self.spdc, self.analysis
        state = spdc.build_two_photon_state(pump, source)
        return (spdc.predicted_visibility(state),
                spdc.predicted_visibility_with_analyzers(state, *analyzers),
                analysis.phi_scan_oracle(state).mu,
                analysis.phi_scan_oracle(state, analyzers).mu)

    def check(self, result) -> Check:
        bare, analyzed, oracle_bare, oracle_analyzed = result
        digest = repr((oracle_bare, oracle_analyzed)).encode()
        if not _finite(*result):
            return Check(False, False, digest, "non-finite visibility")
        return Check(True, abs(bare - oracle_bare) <= self.tolerance
                     and abs(analyzed - oracle_analyzed) <= self.tolerance, digest)


class ScanFitCli:
    """simulate-scan on a 2001-point grid, then fit the written CSV, both
    through cli.main in this process with output captured."""

    name = "scan_fit_cli"
    tail_percentile = 90.0
    n_points = 2001

    def __init__(self, seed: int, workdir: str):
        from twinfringe import cli, config, detection, spdc
        self.cli = cli
        self.seed = seed
        doc = config.config_to_dict(config.default_config())
        doc["scan"]["positions_m"] = {"start": -6e-3, "stop": 6e-3, "num": self.n_points}
        self.config_path = os.path.join(workdir, "run.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.csv_path = os.path.join(workdir, "scan.csv")
        self.report_path = self.csv_path + ".fit.json"
        run = config.config_from_dict(doc)
        state = spdc.build_two_photon_state(run.pump, run.source)
        self.mu_truth = (run.scan.instrument_factor
                         * detection.slit_visibility_factor(run.scan.slit_width,
                                                            run.geometry.fringe_period)
                         * spdc.predicted_visibility_with_analyzers(state, *run.analyzers))

    def inputs(self, index: int):
        return item_seed(self.seed, index)

    def run(self, item_seed_value):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            simulate = self.cli.main(["simulate-scan", "--config", self.config_path,
                                      "--seed", str(item_seed_value),
                                      "--output", self.csv_path])
            fit = self.cli.main(["fit", self.csv_path, "--model", "fringe"])
        return simulate, fit

    def check(self, result) -> Check:
        if result != (0, 0):
            return Check(False, False, b"", f"exit codes {result}")
        with open(self.csv_path, "rb") as fh:
            csv_bytes = fh.read()
        with open(self.report_path, "rb") as fh:
            report_bytes = fh.read()
        digest = csv_bytes + report_bytes
        rows = csv_bytes.count(b"\n") - 1
        if rows != self.n_points:
            return Check(False, False, digest, f"{rows} CSV rows")
        report = json.loads(report_bytes)
        mu, sigma = report["params"]["mu"], report["stderr"]["mu"]
        if not report["converged"] or not _finite(mu, sigma):
            return Check(False, False, digest, "fit not converged or non-finite")
        return Check(True, abs(mu - self.mu_truth) <= 3.0 * sigma, digest)


WORKLOADS = {w.name: w for w in (Fig5Sweep, OracleConformance, ScanFitCli)}
