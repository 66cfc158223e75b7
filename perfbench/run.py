#!/usr/bin/env python3
"""twinfringe benchmark: closed loop, one client, one workload per process.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload fig5_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics from a traced run.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
item succeeded and every output check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig5_sweep", "oracle_conformance", "scan_fit_cli")
# fresh processes timed to the end of their warm-up item: half of the extra
# ones run before the measured process and half after, so the median spans
# more than one phase of a machine whose speed drifts over seconds
SETUP_SAMPLES = 9
MIN_FIG5_RECOVERY = 0.95  # acceptance criterion 3: >= 95 of 100 seeds pass
BUDGET_S = 170.0  # every process of one workload must end within this
# one thread for every BLAS/OpenMP pool, so runs do not compete for 2 cores
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


def worker_env() -> dict:
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)  # the worker imports twinfringe from ./src only
    return env


def run_worker(args, workdir, deadline, setup_only=False) -> dict:
    """Run one worker process to completion and return its JSON record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--started", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload} worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def read_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        rev = done.stdout.strip() or rev
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "git_rev": rev}


def measure(args, spec) -> tuple:
    """Run one workload; return (lines to print, result object, passed)."""
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        probes = (SETUP_SAMPLES - 1) // 2 if args.trace == 0 else 0
        setups = [run_worker(args, workdir, deadline, setup_only=True)
                  for _ in range(probes)]
        rec = run_worker(args, workdir, deadline)
        setups.append(rec)
        setups += [run_worker(args, workdir, deadline, setup_only=True)
                   for _ in range(probes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass

    env = dict(machine(), **rec["env"], seed=args.seed)
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
             f"trace {args.trace}",
             "env " + " ".join(f"{k}={v}" for k, v in env.items())]
    attempted, failed = rec["attempted"], rec["failed"]
    recovery = rec["recovered"] / attempted
    problems = [f"{failed} of {attempted} items failed"] if failed else []
    problems += rec["problems"]
    if args.workload == "fig5_sweep" and recovery < MIN_FIG5_RECOVERY:
        problems.append(f"fig5 recovery {recovery:.3f} below {MIN_FIG5_RECOVERY}")

    if args.trace == 0:
        section = "end_to_end"
        values = {
            "items_per_s": rec["items_per_s"],
            "latency_p50_ms": rec["latency_p50_ms"],
            "latency_tail_ms": rec["latency_tail_ms"],
            "setup_s": statistics.median(r["setup_s"] * r["setup_speed"] for r in setups),
            "peak_rss_mb": rec["peak_rss_mb"],
            "recovery_ratio": recovery,
        }
        scale = f"at reference speed; machine ran at {rec['speed_p50']:.3f} of it"
        notes = {
            "items_per_s": scale,
            "latency_p50_ms": f"{scale}, raw median {rec['raw_p50_ms']:.4g} ms",
            "latency_tail_ms": f"p{rec['tail_percentile']:g} of {attempted} items, "
                               f"{rec['tail_beyond']} beyond it, at reference speed",
            "setup_s": f"median of {len(setups)} fresh processes at reference speed, "
                       f"raw median {statistics.median(r['setup_s'] for r in setups):.4g} s",
            "recovery_ratio": f"{rec['recovered']} of {attempted} items",
        }
    else:
        section = "per_layer"
        values = rec["per_layer"]
        notes = {"trace.overhead_ratio": "traced / untraced time of the same items, "
                                         "each at reference speed",
                 "trace.residue_s": f"machine ran at {rec['speed_p50']:.3f} "
                                    "of reference speed"}
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(values):
        raise BenchError(f"{section} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(values))}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<40} {values[name]:>14.6g} {unit}{note}")
    if args.trace == 0:
        lines.append(f"  {'error_ratio':<40} {failed / attempted:>14.6g} ratio"
                     f"  ({failed} of {attempted} items)")
    else:
        lines.append("  split of traced item time by span self time:")
        lines += [f"    {name:<38} {100 * share:6.2f} %"
                  for name, share in rec["split"].items()]
    lines.append(f"digest sha256 {rec['digest']} (items 1-{rec['digest_items']} "
                 f"of seed {args.seed})")
    lines += [f"FAIL {p}" for p in problems] + [f"  {f}" for f in rec["failures"]]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    return lines, result, not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "twinfringe", "__init__.py")):
        print("error: no src/twinfringe in this checkout; run from the repository root",
              file=sys.stderr)
        return 2
    spec = read_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, ok = [], True
    for name in names:
        try:
            lines, result, passed = measure(argparse.Namespace(**{**vars(args),
                                                                  "workload": name}), spec)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results.append((name, result))
        ok = ok and passed
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": ok,
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{name}.{metric}": value for name, r in results
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
