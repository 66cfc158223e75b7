"""Span tracer attached to twinfringe from outside the package.

Each traced public function is wrapped once and the wrapper is rebound in
every loaded ``twinfringe`` module namespace that holds the original, because
``pipeline`` and ``cli`` import their collaborators by name.  Spans are kept
in memory as ``[name, parent, start, end]`` and reduced to per-span totals
after the run, so the only cost inside the timed region is two clock reads
and a list append per call.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _result_len(args, kwargs, result):
    return len(result)


def _converged(args, kwargs, result):
    return 1 if result.converged else 0


def _iterations(args, kwargs, result):
    return result.iterations


def _bytes_written(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return os.path.getsize(path)


# (module, function, span name, counter name, counter)
SPANS = (
    ("spdc", "build_two_photon_state", "spdc.build_two_photon_state", None, None),
    ("spdc", "predicted_visibility", "spdc.closed_forms", None, None),
    ("spdc", "predicted_visibility_with_analyzers", "spdc.closed_forms", None, None),
    ("detection", "expected_scan", "detection.expected_scan", "points", _result_len),
    ("detection", "sample_counts", "detection.sample_counts", "points", _result_len),
    ("fitting", "fit_fringe", "fitting.fit_fringe", "converged", _converged),
    ("fitting", "nls_solve", "fitting.nls_solve", "iterations", _iterations),
    ("fitting", "fit_visibility_curve", "fitting.fit_visibility_curve", None, None),
    ("analysis", "phi_scan_oracle", "analysis.phi_scan_oracle", None, None),
    ("config", "load_config", "config.load_config", None, None),
    ("cli", "write_scan_csv", "cli.write_scan_csv", "bytes", _bytes_written),
    ("cli", "read_scan_csv", "cli.read_scan_csv", None, None),
    ("cli", "main", "cli.main", None, None),
    ("pipeline", "reproduce_fig5", "pipeline.reproduce_fig5", None, None),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "twinfringe" or name.startswith("twinfringe."))]


class Tracer:
    """Records nested spans around the functions listed in SPANS."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._rebound = []

    def _wrap(self, fn, span, counter_name, counter):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [span, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counters[f"{span}.{counter_name}"] += counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every listed function of the modules already imported."""
        modules = _package_modules()
        for module, attr, span, counter_name, counter in SPANS:
            owner = sys.modules.get(f"twinfringe.{module}")
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span, counter_name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._rebound.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._rebound):
            setattr(mod, key, original)
        self._rebound.clear()

    def totals(self):
        """Per span name: call count, total span seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover.
        Calls run on one thread, so children never overlap and the covered
        time is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, parent, start, end) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return dict(out)

    def root_seconds(self):
        """Time covered by spans that have no traced parent."""
        return sum(end - start for name, parent, start, end in self.spans if parent < 0)
