"""One benchmark process: set up one workload, then run it in a closed loop.

Started by run.py in a fresh interpreter per workload (and per set-up
probe), so set-up time and peak memory belong to that workload alone.
Set-up time runs from the moment run.py started the process (passed as a
CLOCK_MONOTONIC reading, which all processes share) to the end of the
warm-up item.  The measurements go to standard output as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DIGEST_ITEMS = 8  # items 1..8 of the seed's sequence make the output digest
# The end-to-end run times each item twice back to back and keeps the better
# time: a single run's time carries bursts of machine noise shorter than an
# item (two runs of the same item 30 s apart correlated at 0.06), which
# would make the tail a measure of the machine rather than of the inputs.
REPEATS = 2

# per-layer metrics; BENCHMARK.json gives their units
LAYER_METRICS = (
    "spdc.build_two_photon_state.calls",
    "spdc.build_two_photon_state.self_s",
    "spdc.closed_forms.self_s",
    "detection.expected_scan.self_s",
    "detection.expected_scan.points",
    "detection.sample_counts.self_s",
    "detection.sample_counts.points",
    "detection.sample_counts.us_per_point",
    "fitting.fit_fringe.calls",
    "fitting.fit_fringe.self_s",
    "fitting.fit_fringe.converged_ratio",
    "fitting.nls_solve.calls",
    "fitting.nls_solve.self_s",
    "fitting.nls_solve.iterations_mean",
    "fitting.fit_visibility_curve.self_s",
    "analysis.phi_scan_oracle.calls",
    "analysis.phi_scan_oracle.self_s",
    "analysis.phi_scan_oracle.us_per_call",
    "config.load_config.self_s",
    "cli.write_scan_csv.self_s",
    "cli.write_scan_csv.bytes",
    "cli.read_scan_csv.self_s",
    "cli.main.self_s",
    "pipeline.reproduce_fig5.self_s",
    "trace.overhead_ratio",
    "trace.residue_s",
)

# spans that must fire, or stay silent, on each workload when traced
MUST_FIRE = {
    "fig5_sweep": ("pipeline.reproduce_fig5", "detection.sample_counts",
                   "fitting.fit_fringe", "fitting.fit_visibility_curve"),
    "oracle_conformance": ("analysis.phi_scan_oracle", "spdc.closed_forms"),
    "scan_fit_cli": ("cli.main", "config.load_config", "cli.write_scan_csv",
                     "cli.read_scan_csv", "detection.sample_counts",
                     "fitting.fit_fringe"),
}
MUST_NOT_FIRE = {
    "fig5_sweep": ("analysis.phi_scan_oracle", "cli.main"),
    "oracle_conformance": ("detection.sample_counts", "fitting.fit_fringe",
                           "pipeline.reproduce_fig5", "cli.main"),
    "scan_fit_cli": ("analysis.phi_scan_oracle", "pipeline.reproduce_fig5"),
}


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def import_package():
    """Import twinfringe from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import twinfringe
    if os.path.dirname(os.path.dirname(os.path.abspath(twinfringe.__file__))) != SRC:
        raise ImportError(f"twinfringe imported from {twinfringe.__file__}, not {SRC}")
    return twinfringe


# Calibration: a fixed kernel, independent of twinfringe, runs before every
# item and once after the last.  The machine's speed drifts by a third over
# phases of seconds to minutes (other tenants share its cores), which moves
# every time a run takes, down to the fastest item.  Each item's time is
# rescaled by CAL_REF_S, the kernel's time at the reference speed, over the
# median kernel time of the samples around the item: one before the sample
# just ahead of it, that one, the one just after it and one more.  So the
# metrics track the program's cost rather than the phase a run landed in.
CAL_REF_S = 1.0e-3
_CAL_LONG = np.linspace(0.0, 1.0, 4096)
_CAL_SHORT = np.linspace(0.0, 1.0, 61)


def calibration_kernel() -> float:
    """Numpy calls on short and on long arrays and random-generator set-up,
    about a third of the time each.

    Of the kernels tried against repeated fixed items of every workload,
    this mix tracked the program's slow phases best; interpreter arithmetic
    and dict churn slow down less than the program and under-correct.
    """
    total = 0.0
    for k in range(80):
        total += float(np.cos(_CAL_SHORT * k).sum())
    for k in range(8):
        total += float(np.cos(_CAL_LONG * k).sum())
    for i in range(8):
        rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(i,)))
        total += float(rng.poisson(100.0))
    return total


def time_kernel() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


class Pass:
    """Latencies, speed factors and verdicts of one pass over consecutive items."""

    def __init__(self):
        self.latencies = []
        self.calibration = []  # kernel times; entry i ran just before item i
        self.failed = 0
        self.recovered = 0
        self.failures = []
        self.digest = hashlib.sha256()  # items 1..DIGEST_ITEMS, for the record
        self.outputs = hashlib.sha256()  # every item, to compare passes

    @property
    def items(self) -> int:
        return len(self.latencies)

    @property
    def speeds(self) -> list:
        """Per item: the machine's speed as a share of the reference speed."""
        cal = self.calibration
        return [CAL_REF_S / statistics.median(cal[max(0, i - 1):i + 3])
                for i in range(self.items)]

    @property
    def scaled(self) -> list:
        """Item times rescaled to the reference speed."""
        return [t * f for t, f in zip(self.latencies, self.speeds)]


def run_items(workload, seconds=None, count=None, repeats=1) -> Pass:
    """Run items 1, 2, ... until `seconds` have passed or `count` are done.

    Each item runs `repeats` times back to back and keeps its best time;
    the output of its last run is checked.  Only the calls into the program
    are timed; calibrating, deriving an item's inputs and checking its
    output happen outside the item's time.
    """
    result = Pass()
    start = time.perf_counter()
    index = 1
    while (count is None or index <= count) and \
            (seconds is None or time.perf_counter() - start < seconds):
        result.calibration.append(time_kernel())
        inputs = workload.inputs(index)
        verdict, error, best = None, None, math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            try:
                output = workload.run(inputs)
            except Exception:  # a failed item is counted, not fatal
                error = f"item {index}: {traceback.format_exc(limit=3)}"
            best = min(best, time.perf_counter() - t0)
            if error is not None:
                break
        result.latencies.append(best)
        if error is None:
            try:
                verdict = workload.check(output)
            except Exception:  # an unreadable output is a failed item
                error = f"item {index} check: {traceback.format_exc(limit=3)}"
        if verdict is not None:
            if index <= DIGEST_ITEMS:
                result.digest.update(verdict.digest)
            result.outputs.update(verdict.digest)
            if not verdict.ok:
                error = f"item {index}: {verdict.why}"
        if error is None:
            result.recovered += verdict.recovered
        else:
            result.failed += 1
            result.failures.append(error)
        index += 1
    result.calibration.append(time_kernel())
    return result


def nearest_rank(sorted_values, percentile):
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(workload, run: Pass) -> dict:
    """Throughput and latency at the reference speed, with the raw figures."""
    scaled = sorted(run.scaled)
    tail, beyond = nearest_rank(scaled, workload.tail_percentile)
    return {
        "items_per_s": run.items / sum(scaled),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_tail_ms": 1e3 * tail,
        "tail_percentile": workload.tail_percentile,
        "tail_beyond": beyond,
        "raw_p50_ms": 1e3 * statistics.median(run.latencies),
        "speed_p50": statistics.median(run.speeds),
    }


def per_layer(tracer, items: int, traced_s: float, overhead: float) -> dict:
    totals = tracer.totals()
    counters = tracer.counters

    def span(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in LAYER_METRICS:
        span_name, stat = name.rsplit(".", 1)
        if stat in ("calls", "self_s"):
            metrics[name] = span(span_name, stat) / items
        elif stat in ("points", "bytes"):
            metrics[name] = counters[name] / items
    oracle = "analysis.phi_scan_oracle"
    sampler = "detection.sample_counts"
    metrics["detection.sample_counts.us_per_point"] = 1e6 * ratio(
        span(sampler, "self_s"), counters[f"{sampler}.points"])
    metrics["analysis.phi_scan_oracle.us_per_call"] = 1e6 * ratio(
        span(oracle, "self_s"), span(oracle, "calls"))
    metrics["fitting.fit_fringe.converged_ratio"] = ratio(
        counters["fitting.fit_fringe.converged"], span("fitting.fit_fringe", "calls"))
    metrics["fitting.nls_solve.iterations_mean"] = ratio(
        counters["fitting.nls_solve.iterations"], span("fitting.nls_solve", "calls"))
    metrics["trace.overhead_ratio"] = overhead
    metrics["trace.residue_s"] = (traced_s - tracer.root_seconds()) / items
    return metrics


def trace_checks(workload_name: str, tracer, traced_s: float) -> list:
    """Problems with the trace itself; an empty list means it is sound."""
    totals = tracer.totals()
    problems = []
    self_sum = sum(t["self_s"] for t in totals.values())
    residue = traced_s - tracer.root_seconds()
    if abs(self_sum + residue - traced_s) > 1e-9 * max(1.0, traced_s) or residue < 0.0:
        problems.append(f"self times {self_sum:.6f} s + residue {residue:.6f} s "
                        f"do not make the traced time {traced_s:.6f} s")
    for name in MUST_FIRE[workload_name]:
        if name not in totals:
            problems.append(f"span {name} never fired")
    for name in MUST_NOT_FIRE[workload_name]:
        if name in totals:
            problems.append(f"span {name} fired but should not")
    return problems


def layer_split(tracer, traced_s: float) -> dict:
    """Share of traced item time per span's self time, plus the residue."""
    split = {name: t["self_s"] / traced_s for name, t in tracer.totals().items()}
    split["residue"] = (traced_s - tracer.root_seconds()) / traced_s
    return dict(sorted(split.items(), key=lambda kv: -kv[1]))


def environment(twinfringe) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "twinfringe": getattr(twinfringe, "__version__", "unknown"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    twinfringe = import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    warm = run_items(workload, count=1)
    if warm.failed:
        print("".join(warm.failures), file=sys.stderr)
        return 1
    setup = {"setup_s": time.monotonic() - args.started,
             "setup_speed": CAL_REF_S / statistics.median(time_kernel() for _ in range(5))}
    if args.setup_only:
        emit(setup)
        return 0

    out = {**setup, "env": environment(twinfringe), "problems": []}
    if args.trace == 0:
        passes = [run_items(workload, seconds=args.seconds, repeats=REPEATS)]
        out.update(end_to_end(workload, passes[0]))
    else:
        from tracer import Tracer
        # half the budget untraced, then the same items again traced
        plain = run_items(workload, seconds=args.seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_items(workload, count=plain.items)
        finally:
            tracer.uninstall()
        traced_s = sum(traced.latencies)
        overhead = sum(traced.scaled) / sum(plain.scaled)
        out["per_layer"] = per_layer(tracer, traced.items, traced_s, overhead)
        out["problems"] = trace_checks(args.workload, tracer, traced_s)
        out["split"] = layer_split(tracer, traced_s)
        out["speed_p50"] = statistics.median(traced.speeds)
        if traced.outputs.digest() != plain.outputs.digest():
            out["problems"].append("tracing changed the program's output")
        passes = [plain, traced]
    run = passes[0]
    out.update({
        "attempted": sum(p.items for p in passes),
        "failed": sum(p.failed for p in passes),
        "recovered": sum(p.recovered for p in passes),
        "failures": [f for p in passes for f in p.failures][:5],
        "digest": run.digest.hexdigest(),
        "digest_items": min(DIGEST_ITEMS, run.items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
