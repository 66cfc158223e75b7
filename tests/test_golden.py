"""The byte contract: every CLI output at fixed seeds against tests/golden.json.

Each case runs through cli.main in a scratch directory; the sha256 of every
file the runs write, and of each run's exit code, stdout and stderr, must
match the manifest.  The manifest records the numpy major.minor that made
it, since the Poisson draws and the platform's cos and sin may round
differently elsewhere; on another numpy the test skips and says so.

A change that moves output bytes on purpose regenerates the manifest from
the repository root with

    PYTHONPATH=src python tests/test_golden.py

and names the cases that moved in its CHANGES.md entry.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from twinfringe.cli import main
from twinfringe.config import config_to_dict, default_config

MANIFEST = Path(__file__).with_name("golden.json")


def _config(**sections):
    """The default config document with the given values set, by section."""
    doc = config_to_dict(default_config())
    for section, values in sections.items():
        doc[section].update(values)
    return doc


# config files the runs read, each the default config with: a 2001-point grid;
# the pump at 90 degrees, a null scan of no fringe, at ~50 counts per peak;
# and ~5 counts per peak
CONFIGS = {
    "long.json": _config(scan={"positions_m": {"start": -6e-3, "stop": 6e-3, "num": 2001}}),
    "null.json": _config(pump={"theta_p_rad": math.pi / 2.0}, scan={"peak_rate_hz": 5.0}),
    "low.json": _config(scan={"peak_rate_hz": 0.5}),
}

# (label, argv), run in order in one directory: later runs read earlier
# runs' files.  0.0004 m is the null scan's top resolved period, span / 30,
# where every sample sits at a multiple of pi and the sin column vanishes.
RUNS = [
    *[(f"reproduce-fig5 seed {seed}",
       ["reproduce-fig5", "--seed", str(seed), "--output", f"fig5_{seed}"])
      for seed in (0, 5, 777)],
    ("sweep seed 5", ["sweep-pump-angle", "--seed", "5", "--output", "sweep.csv"]),
    ("sweep seed 5 viscurve fit", ["fit", "sweep.csv", "--model", "viscurve"]),
    ("scan seed 3", ["simulate-scan", "--seed", "3", "--output", "scan.csv"]),
    ("scan seed 3 free fit", ["fit", "scan.csv", "--model", "fringe",
                              "--output", "scan.free.json"]),
    ("scan seed 3 pinned fit", ["fit", "scan.csv", "--model", "fringe", "--fix-period",
                                "1e-3", "--output", "scan.pinned.json"]),
    ("scan seed 3 expected fit", ["fit", "scan.csv", "--model", "fringe", "--observable",
                                  "expected", "--output", "scan.expected.json"]),
    *[run for mode in ("signal", "idler", "both") for run in (
        (f"2001-point scan seed 3 {mode}",
         ["simulate-scan", "--config", "long.json", "--seed", "3", "--scan-mode", mode,
          "--output", f"long_{mode}.csv"]),
        (f"2001-point scan seed 3 {mode} fit",
         ["fit", f"long_{mode}.csv", "--model", "fringe"]))],
    ("null scan seed 153", ["simulate-scan", "--config", "null.json", "--seed", "153",
                            "--output", "null.csv"]),
    ("null scan seed 153 free fit", ["fit", "null.csv", "--model", "fringe",
                                     "--output", "null.free.json"]),
    ("null scan seed 153 started at the top period",
     ["fit", "null.csv", "--model", "fringe", "--init", "period=0.0004",
      "--output", "null.init.json"]),
    ("null scan seed 153 pinned at the top period",
     ["fit", "null.csv", "--model", "fringe", "--fix-period", "0.0004",
      "--output", "null.pinned.json"]),
    ("~5-count scan seed 3", ["simulate-scan", "--config", "low.json", "--seed", "3",
                              "--output", "low.csv"]),
    ("~5-count scan seed 3 free fit", ["fit", "low.csv", "--model", "fringe"]),
    # 1e-7 degrees from a set 45 degrees apart: the curve fit exits 2 naming 4 theta
    ("sweep seed 5 near 45-degree angles",
     ["sweep-pump-angle", "--seed", "5", "--theta-deg", "0,1e-7,90,135,180",
      "--output", "near45.csv"]),
    ("sweep seed 5 near 45-degree angles viscurve fit",
     ["fit", "near45.csv", "--model", "viscurve"]),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def numpy_version() -> str:
    return ".".join(np.__version__.split(".")[:2])


def golden_outputs(workdir: Path) -> dict:
    """Run every case in workdir and return the manifest's body: per run its
    exit code and the sha256 of its stdout and stderr, and the sha256 of each
    file the runs wrote, by path relative to workdir."""
    for name, doc in CONFIGS.items():
        (workdir / name).write_text(json.dumps(doc))
    runs = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for label, argv in RUNS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            runs[label] = {"argv": argv, "exit": code,
                           "stdout": _sha256(out.getvalue().encode()),
                           "stderr": _sha256(err.getvalue().encode())}
    finally:
        os.chdir(cwd)
    files = {path.relative_to(workdir).as_posix(): _sha256(path.read_bytes())
             for path in sorted(workdir.rglob("*"))
             if path.is_file() and path.name not in CONFIGS}
    return {"runs": runs, "files": files}


def test_cli_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["numpy"] != numpy_version():
        pytest.skip(f"tests/golden.json was made with numpy {manifest['numpy']}; this is "
                    f"numpy {np.__version__}")
    got = golden_outputs(tmp_path)
    assert got["runs"] == manifest["runs"]
    assert got["files"] == manifest["files"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        body = golden_outputs(Path(scratch))
    MANIFEST.write_text(json.dumps({"numpy": numpy_version(), **body}, indent=1,
                                   sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(body['files'])} files, {len(body['runs'])} runs, "
          f"numpy {numpy_version()})", file=sys.stderr)
