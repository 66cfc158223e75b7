import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

from twinfringe import pipeline
from twinfringe.cli import (main, read_scan_csv, read_sweep_csv, write_scan_csv,
                            write_sweep_csv)
from twinfringe.analysis import conformance_report
from twinfringe.detection import SCAN_DTYPE, ScanConfig, sample_counts
from twinfringe.errors import ConfigurationError
from twinfringe.config import (ConfigError, config_from_dict, config_to_dict,
                               default_config, entangled_sweep_config,
                               load_config, save_config)
from twinfringe.fitting import fit_visibility_curve
from twinfringe.pipeline import (SWEEP_DTYPE, reproduce_fig5, simulate_scan,
                                 sweep_pump_angle)
from twinfringe.spdc import GeometryConfig


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    save_config(default_config(), str(path))
    return str(path)


def long_config():
    doc = config_to_dict(default_config())
    doc["scan"]["positions_m"] = {"start": -6e-3, "stop": 6e-3, "num": 2001}
    return config_from_dict(doc)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("build", [default_config, entangled_sweep_config])
    def test_saved_builtin_loads_equal(self, tmp_path, build):
        path = tmp_path / "run.json"
        save_config(build(), str(path))
        assert load_config(str(path)) == build()

    def test_absent_keys_take_the_dataclass_defaults(self):
        doc = config_to_dict(default_config())
        del doc["geometry"], doc["source"]["phi0_rad"]
        doc["scan"] = {"positions_m": [0.0, 1e-3]}
        config = config_from_dict(doc)
        assert config.geometry == GeometryConfig()
        assert config.source.phi0 == 0.0
        assert config.scan == ScanConfig((0.0, 1e-3))

    def test_load_serialize_load_identical(self, tmp_path):
        path = tmp_path / "a.json"
        save_config(default_config(), str(path))
        first = load_config(str(path))
        path2 = tmp_path / "b.json"
        save_config(first, str(path2))
        second = load_config(str(path2))
        assert first == second
        assert config_to_dict(first) == config_to_dict(second)

    def test_position_list_spec_preserved(self, tmp_path):
        doc = config_to_dict(default_config())
        doc["scan"]["positions_m"] = [0.0, 1e-3, 2e-3, 3e-3]
        config = config_from_dict(doc)
        assert config.scan.positions == (0.0, 1e-3, 2e-3, 3e-3)
        assert config_to_dict(config)["scan"]["positions_m"] == [0.0, 1e-3, 2e-3, 3e-3]

    def test_grid_spec_resolved(self):
        doc = config_to_dict(default_config())
        doc["scan"]["positions_m"] = {"start": 0.0, "stop": 1e-3, "num": 5}
        config = config_from_dict(doc)
        assert config.scan.positions == tuple(np.linspace(0.0, 1e-3, 5))

    def test_positions_spec_takes_no_part_in_equality(self):
        # a grid and the list of its positions run the same scan: the configs
        # compare and hash equal, and each writes back its own spec
        grid = {"start": 0.0, "stop": 1e-3, "num": 5}
        doc = config_to_dict(default_config())
        doc["scan"]["positions_m"] = grid
        from_grid = config_from_dict(doc)
        doc["scan"]["positions_m"] = list(from_grid.scan.positions)
        from_list = config_from_dict(doc)
        assert from_grid == from_list and hash(from_grid) == hash(from_list)
        assert config_to_dict(from_grid)["scan"]["positions_m"] == grid
        assert config_to_dict(from_list)["scan"]["positions_m"] == list(from_grid.scan.positions)

    @pytest.mark.parametrize("ceiling, eps2, seed", [(0.77, 0.08, 777), (0.5, 0.0, 0),
                                                     (0.95, 0.3, 2 ** 40), (0.9, 0.99, 5)])
    def test_sweep_config_is_the_edited_default(self, ceiling, eps2, seed):
        # the sweep config is the default document with the pump, crystal 2,
        # ceiling and seed edited, as it was when built from default_config()
        slit_loss = float(np.sinc(0.5e-3 / 5e-3))
        doc = config_to_dict(default_config())
        doc["pump"] = {"eps1": None, "eps2": eps2, "theta_p_rad": math.pi / 4.0}
        doc["source"]["crystal2"]["pair_polarization_rad"] = math.pi / 2.0
        doc["scan"]["instrument_factor"] = ceiling / slit_loss
        doc["scan"]["seed"] = seed
        assert entangled_sweep_config(ceiling, eps2, seed) == config_from_dict(doc)

    def test_eps1_autocompleted(self):
        doc = config_to_dict(default_config())
        doc["pump"] = {"eps1": None, "eps2": 0.08, "theta_p_rad": 0.0}
        config = config_from_dict(doc)
        assert config.pump.eps1 == pytest.approx(math.sqrt(1 - 0.08 ** 2))


class TestConfigValidation:
    @pytest.mark.parametrize("version", [99, 1.0, True, "1", None])
    def test_bad_schema_version(self, version):
        doc = config_to_dict(default_config())
        doc["schema_version"] = version
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict(doc)

    def test_error_names_key_path(self):
        doc = config_to_dict(default_config())
        doc["scan"]["instrument_factor"] = 2.0
        with pytest.raises(ConfigError, match="scan"):
            config_from_dict(doc)
        doc = config_to_dict(default_config())
        doc["pump"]["eps2"] = "lots"
        with pytest.raises(ConfigError, match="pump.eps2"):
            config_from_dict(doc)
        doc = config_to_dict(default_config())
        del doc["scan"]["positions_m"]
        with pytest.raises(ConfigError, match="scan.positions_m"):
            config_from_dict(doc)

    def test_non_orthogonal_axes_caught(self):
        doc = config_to_dict(default_config())
        doc["source"]["crystal2"]["pump_axis_rad"] = 0.3
        with pytest.raises(ConfigError, match="source"):
            config_from_dict(doc)

    def test_non_utf8_config_exits_2_with_path(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(b'{"schema_version": 1, "pump": "\xff"}\n')
        with pytest.raises(ConfigError, match="not UTF-8 text"):
            load_config(str(path))
        out = tmp_path / "scan.csv"
        assert main(["simulate-scan", "--config", str(path), "--output", str(out)]) == 2
        assert f"error: {path}: not UTF-8 text: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(geometry=None), "geometry: expected an object, got NoneType"),
        (lambda d: d.update(pump=5), "pump: expected an object, got int"),
        (lambda d: d["source"].update(crystal1=3), "source.crystal1: expected an object, got int"),
        (lambda d: d.update(analyzers=7), "analyzers: expected an object, got int"),
        (lambda d: d.update(analyzers="x"), "analyzers: expected an object, got str"),
        (lambda d: d.update(scan="x"), "scan: expected an object, got str"),
        (lambda d: d["scan"].update(integration_time=1.0), "scan.integration_time: unknown key"),
        (lambda d: d.update(seed=3), "top level.seed: unknown key"),
        (lambda d: d["source"]["crystal2"].update(pump_axis=0.0),
         "source.crystal2.pump_axis: unknown key"),
        (lambda d: d["scan"]["positions_m"].update(step=2e-4), "scan.positions_m.step: unknown key"),
        (lambda d: d["geometry"].update(wavelength_m=884e-9), "geometry.wavelength_m: unknown key"),
        (lambda d: d["geometry"].update(fringe_period_m=None),
         "geometry.fringe_period_m: expected a number, got NoneType"),
        (lambda d: d["scan"].update(scan_mode="x"),
         "scan: scan_mode must be one of ('signal_only', 'idler_only', 'both'), got 'x'"),
        (lambda d: d["scan"].update(seed=-1), "scan: seed must be a nonnegative integer, got -1"),
        (lambda d: d["scan"].update(positions_m=[]), "scan: scan needs at least one position"),
        (lambda d: d["scan"]["positions_m"].update(num=2 ** 70),
         "scan.positions_m.num: must be at most 1000000, got 1180591620717411303424"),
        (lambda d: d["scan"]["positions_m"].update(num=2 ** 40),
         "scan.positions_m.num: must be at most 1000000, got 1099511627776"),
        (lambda d: d["geometry"].update(fringe_period_m=1e-320),
         "scan.slit_width_m: pi * slit width / geometry.fringe_period_m = inf, must be finite"),
        (lambda d: d["scan"].update(slit_width_m=1e308),
         "scan.slit_width_m: pi * slit width / geometry.fringe_period_m = inf, must be finite"),
        (lambda d: d["scan"]["positions_m"].update(start=1e308),
         "scan.positions_m: largest fringe phase 2 pi max|x_s + x_i| / "
         "geometry.fringe_period_m = inf, must be finite"),
        # the span overflows before any position does
        (lambda d: d["scan"].update(positions_m={"start": -1e308, "stop": 1e308, "num": 61}),
         "scan.positions_m: stop - start = inf, must be finite"),
        (lambda d: d["scan"].update(positions_m=[0.0, 1e308, 0.0]),
         "scan.positions_m: largest fringe phase 2 pi max|x_s + x_i| / "
         "geometry.fringe_period_m = inf, must be finite"),
        # finite for one moving detector, inf when both move
        (lambda d: d["scan"].update(positions_m=[0.0, 8e304], scan_mode="both"),
         "scan.positions_m: largest fringe phase 2 pi max|x_s + x_i| / "
         "geometry.fringe_period_m = inf, must be finite"),
    ], ids=["geometry-null", "pump-int", "crystal-int", "analyzers-int", "analyzers-str", "scan-str",
            "scan-typo", "top-level-key", "crystal-key", "grid-key", "geometry-removed-key",
            "period-null", "scan-mode", "seed-negative", "positions-empty", "grid-num-2**70",
            "grid-num-2**40", "period-subnormal", "slit-huge", "position-huge",
            "grid-span-overflow", "list-position-huge", "both-detectors-position-huge"])
    def test_malformed_document_exits_2_with_key_path(self, tmp_path, capsys, edit, message):
        doc = config_to_dict(default_config())
        edit(doc)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "scan.csv"
        assert main(["simulate-scan", "--config", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "schema_version": 1,\n  oops\n}\n')
        with pytest.raises(ConfigError, match=r":3:"):
            load_config(str(path))


def _config_with_seed(seed):
    doc = config_to_dict(default_config())
    doc["scan"]["seed"] = seed
    return config_from_dict(doc)


# every entry point that takes a seed, each checking it by sample_counts' rule
SEED_ENTRY_POINTS = {
    "ScanConfig": lambda seed: ScanConfig((0.0, 1e-3), seed=seed),
    "config_from_dict": _config_with_seed,
    "entangled_sweep_config": lambda seed: entangled_sweep_config(seed=seed),
    "sample_counts": lambda seed: sample_counts([(0.0, 5.0), (1e-3, 20.0)], 10.0, seed).tobytes(),
    "conformance_report": lambda seed: conformance_report(1, seed),
}


class TestSeedRule:
    @pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
    @pytest.mark.parametrize("seed", [0, 5, np.int64(5), 2 ** 70], ids=["0", "5", "int64", "2**70"])
    def test_accepted_seed_acts_as_its_int(self, entry, seed):
        assert SEED_ENTRY_POINTS[entry](seed) == SEED_ENTRY_POINTS[entry](int(seed))

    @pytest.mark.parametrize("entry", ["config_from_dict", "entangled_sweep_config"])
    def test_numpy_seed_config_saves_and_loads(self, tmp_path, entry):
        config = SEED_ENTRY_POINTS[entry](np.int64(5))
        assert type(config.scan.seed) is int
        path = tmp_path / "run.json"
        save_config(config, str(path))
        assert load_config(str(path)) == SEED_ENTRY_POINTS[entry](5)

    @pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
    @pytest.mark.parametrize("seed", [-1, True, np.True_, 1.5, "7", None],
                             ids=["-1", "True", "np.True_", "1.5", "str", "None"])
    def test_rejected_seed_names_the_rule(self, entry, seed):
        with pytest.raises(ConfigurationError,
                           match=rf"seed must be a nonnegative integer, got {re.escape(repr(seed))}$"):
            SEED_ENTRY_POINTS[entry](seed)


class TestCliScan:
    def test_writes_exact_header_and_summary(self, tmp_path, config_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["simulate-scan", "--config", config_path,
                     "--output", str(out), "--seed", "7"]) == 0
        stdout = capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "position_m,counts,integration_s,expected_rate"
        assert len(lines) == 62
        assert "fitted fringe: mu = " in stdout
        # default config: balanced source behind a 0.83 instrument ceiling
        mu = float(stdout.split("mu = ")[1].split()[0])
        assert abs(mu - 0.83) < 0.05
        records = read_scan_csv(str(out))
        assert len(records) == 61

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["simulate-scan", "--seed", "-1", "--output", str(out)]) == 2
        assert "error: --seed: must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json}")
        assert main(["simulate-scan", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:")
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("slit_width_m", math.nan),
        ("integration_time_s", math.nan),
        ("background_rate_hz", math.nan),
        ("peak_rate_hz", math.inf),
    ])
    def test_non_finite_scan_number_exits_2(self, tmp_path, capsys, key, value):
        doc = config_to_dict(default_config())
        doc["scan"][key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "scan.csv"
        code = main(["simulate-scan", "--config", str(path), "--output", str(out)])
        assert code == 2
        assert f"scan.{key}: must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("positions, where, reason", [
        (["a", 0.001], "[0]", "expected a number, got str"),
        ([None, 0.001], "[0]", "expected a number, got NoneType"),
        ([True, 0.001], "[0]", "expected a number, got bool"),
        ([0.001, [0.002]], "[1]", "expected a number, got list"),
        ([0.001, math.nan], "[1]", "must be finite"),
        ({"start": "x", "stop": 6e-3, "num": 61}, ".start", "expected a number, got str"),
        ({"start": -6e-3, "stop": None, "num": 61}, ".stop", "expected a number, got NoneType"),
        ({"start": -6e-3, "stop": math.inf, "num": 61}, ".stop", "must be finite"),
        ({"start": -6e-3, "stop": 6e-3, "num": True}, ".num", "must be an integer >= 1"),
    ])
    def test_bad_position_entry_exits_2_with_key_path(self, tmp_path, capsys,
                                                      positions, where, reason):
        doc = config_to_dict(default_config())
        doc["scan"]["positions_m"] = positions
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "scan.csv"
        code = main(["simulate-scan", "--config", str(path), "--output", str(out)])
        assert code == 2
        assert f"scan.positions_m{where}: {reason}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("peak_rate_hz", 1e19),
        ("integration_time_s", 1e300),
    ])
    def test_counts_beyond_poisson_range_exit_2(self, tmp_path, capsys, key, value):
        doc = config_to_dict(default_config())
        doc["scan"][key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "scan.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate-scan", "--config", str(path), "--output", str(out)]) == 2
        assert "scan.peak_rate_hz: " in capsys.readouterr().err
        assert caught == []
        assert not out.exists()

    def test_unwritable_output_exits_3(self, tmp_path, config_path, capsys):
        out = tmp_path / "no_such_dir" / "scan.csv"
        assert main(["simulate-scan", "--config", config_path, "--output", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_env_var_config_path(self, tmp_path, config_path, monkeypatch):
        monkeypatch.setenv("TWINFRINGE_CONFIG", config_path)
        out = tmp_path / "scan.csv"
        assert main(["simulate-scan", "--output", str(out)]) == 0
        assert out.exists()

    def test_missing_env_config_path_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TWINFRINGE_CONFIG", str(tmp_path / "nope.json"))
        assert main(["simulate-scan", "--output", str(tmp_path / "s.csv")]) in (2, 3)
        assert capsys.readouterr().err.startswith("error: ")

    def test_byte_identical_reruns(self, tmp_path, config_path):
        # each run computes its rates cold, as a new process does
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            pipeline._expected_stack.cache_clear()
            assert main(["simulate-scan", "--config", config_path,
                         "--output", str(out), "--seed", "11"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_scan_mode_both_halves_fitted_period(self, tmp_path, config_path):
        periods = {}
        for mode in ("signal", "both"):
            out = tmp_path / f"{mode}.csv"
            assert main(["simulate-scan", "--config", config_path,
                         "--output", str(out), "--seed", "3",
                         "--scan-mode", mode]) == 0
            assert main(["fit", str(out), "--model", "fringe"]) == 0
            report = json.loads((tmp_path / f"{mode}.csv.fit.json").read_text())
            periods[mode] = report["params"]["period"]
        assert periods["both"] / periods["signal"] == pytest.approx(0.5, rel=0.01)


class TestScanCsvReader:
    @staticmethod
    def write_scan(path, bad_row):
        rows = [f"{float(x)!r},12,10.0,1.5" for x in np.linspace(-6e-3, 6e-3, 9)]
        rows[2] = bad_row
        path.write_text("position_m,counts,integration_s,expected_rate\n"
                        + "".join(row + "\n" for row in rows))

    @pytest.mark.parametrize("bad_row", [
        "0.001,-1,10.0,1.5",        # negative count
        "0.001,12,10.0,-0.5",       # negative expected rate
        "0.001,twelve,10.0,1.5",    # non-numeric cell
        "0.001,12,10.0",            # short row
        "0.001,12,10.0,1.5,999",    # extra cell
        "0.001,12,10.0,1.5,",       # trailing comma
        "# x",                      # not a comment: the reader has none
    ])
    def test_bad_row_exits_2_with_path_and_line(self, tmp_path, capsys, bad_row):
        scan = tmp_path / "scan.csv"
        self.write_scan(scan, bad_row)
        code = main(["fit", str(scan), "--model", "fringe",
                     "--output", str(tmp_path / "r.json")])
        assert code == 2
        assert f"{scan}:4: bad scan row" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("bad_row", [
        "0.001,12,inf,1.5",         # infinite integration time
        "nan,12,10.0,1.5",          # NaN position
        "0.001,12,10.0,inf",        # infinite expected rate
    ])
    def test_non_finite_cell_exits_2_with_path_and_line(self, tmp_path, capsys, bad_row):
        scan = tmp_path / "scan.csv"
        self.write_scan(scan, bad_row)
        code = main(["fit", str(scan), "--model", "fringe",
                     "--output", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{scan}:4: bad scan row: " in err and "must be finite" in err
        assert not (tmp_path / "r.json").exists()

    def test_count_beyond_int64_exits_2(self, tmp_path, capsys):
        scan = tmp_path / "scan.csv"
        self.write_scan(scan, "0.001,99999999999999999999,10.0,1.5")
        assert main(["fit", str(scan), "--model", "fringe"]) == 2
        assert f"{scan}:4: bad scan row" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["99999999999999999999", "-9223372036854775809"])
    def test_count_beyond_int64_names_the_bound(self, tmp_path, capsys, count):
        scan = tmp_path / "scan.csv"
        self.write_scan(scan, f"0.001,{count},10.0,1.5")
        code = main(["fit", str(scan), "--model", "fringe",
                     "--output", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {scan}:4: bad scan row: counts must fit in int64\n")
        assert not (tmp_path / "r.json").exists()

    def test_sampled_scan_round_trips_exactly(self, tmp_path):
        sampled = simulate_scan(default_config(), seed=21)
        path = tmp_path / "scan.csv"
        write_scan_csv(sampled, str(path))
        back = read_scan_csv(str(path))
        assert len(back) == len(sampled) == 61
        for name in ("position", "counts", "integration_time", "expected_rate"):
            assert [getattr(r, name) for r in back] == [getattr(r, name) for r in sampled]
        counts = np.array([r.counts for r in back])
        assert counts.dtype.kind == "i" and counts.sum() > 0


    @staticmethod
    def assert_same_scan(back, scan):
        assert isinstance(back, np.recarray) and back.dtype == SCAN_DTYPE
        assert back.shape == scan.shape
        for name in SCAN_DTYPE.names:  # bytes, so -0.0 and 0.0 differ
            assert back[name].tobytes() == scan[name].tobytes(), name

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_long_scan_round_trips_exactly(self, tmp_path, seed):
        scan = simulate_scan(long_config(), seed=seed)
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, str(path))
        self.assert_same_scan(read_scan_csv(str(path)), scan)

    def test_extreme_values_round_trip_exactly(self, tmp_path):
        big = np.iinfo(np.int64).max
        scan = np.rec.fromrecords([
            (5e-324, 0, 1.7976931348623157e308, 0.0),
            (-0.0, big, 5e-324, -0.0),
            (1.7976931348623157e308, big - 1, 10.0, 1.7976931348623157e308),
            (-1.7976931348623157e308, 0, -0.0, 5e-324),
        ], dtype=SCAN_DTYPE)
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, str(path))
        self.assert_same_scan(read_scan_csv(str(path)), scan)

    def test_header_only_file_is_an_empty_scan_without_warning(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("position_m,counts,integration_s,expected_rate\n\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scan = read_scan_csv(str(path))
        assert caught == []
        assert isinstance(scan, np.recarray) and scan.dtype == SCAN_DTYPE
        assert scan.shape == (0,)

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_quotes_blank_lines_and_line_endings(self, tmp_path, eol):
        lines = ['"position_m", counts ,integration_s,"expected_rate"', "",
                 '"-0.001","12",10.0," 1.5 "', "", "",
                 " 0.002 , 7 ,10.0,2.5", "0.003,0,10.0,0.0"]
        path = tmp_path / "scan.csv"
        path.write_bytes((eol.join(lines) + eol).encode())
        expected = np.rec.fromrecords([(-0.001, 12, 10.0, 1.5), (0.002, 7, 10.0, 2.5),
                                       (0.003, 0, 10.0, 0.0)], dtype=SCAN_DTYPE)
        self.assert_same_scan(read_scan_csv(str(path)), expected)

    @pytest.mark.parametrize("bad_row, reason", [
        ("0.001,-1,10.0,1.5", "counts must be >= 0"),        # checked on columns
        ("0.001,12,10.0,-0.5", "expected_rate must be >= 0"),  # checked on columns
        ("0.001,12,inf,1.5", "must be finite"),              # checked on columns
        ("0.001,12,-10.0,1.5", "integration_s must be >= 0"),  # checked on columns
        ("0.001,twelve,10.0,1.5", "invalid literal for int"),  # checked per row
        ("0.001,12,10.0,1.5,9", "expected 4 cells, got 5"),   # checked per row
    ])
    def test_column_and_row_checks_number_lines_alike(self, tmp_path, capsys,
                                                      bad_row, reason):
        # a blank line above the bad row: both checks name its line, 5
        rows = [f"{float(x)!r},12,10.0,1.5" for x in np.linspace(-6e-3, 6e-3, 9)]
        rows[2:3] = ["", bad_row]
        scan = tmp_path / "scan.csv"
        scan.write_text("position_m,counts,integration_s,expected_rate\n"
                        + "".join(row + "\n" for row in rows))
        assert main(["fit", str(scan), "--model", "fringe"]) == 2
        err = capsys.readouterr().err
        assert f"{scan}:5: bad scan row: " in err and reason in err

    @pytest.mark.parametrize("bad_row", ["0.001,-1,10.0,1.5", "0.001,12,nan,1.5",
                                         "0.001,12,10.0,1.5,9"])
    def test_line_counts_blank_lines_above_the_header(self, tmp_path, capsys, bad_row):
        rows = [f"{float(x)!r},12,10.0,1.5" for x in np.linspace(-6e-3, 6e-3, 9)]
        rows[6] = bad_row
        scan = tmp_path / "scan.csv"
        scan.write_bytes(("\r\n\r\nposition_m,counts,integration_s,expected_rate\r\n"
                          + "".join(row + "\r\n\r\n" for row in rows)).encode())
        assert main(["fit", str(scan), "--model", "fringe"]) == 2
        assert f"{scan}:16: bad scan row: " in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [2, 2000])  # in the header's read or the body's
    def test_non_utf8_file_exits_2_with_path(self, tmp_path, capsys, rows):
        scan = tmp_path / "scan.csv"
        scan.write_bytes(("position_m,counts,integration_s,expected_rate\n"
                          + "0.001,12,10.0,1.5\n" * rows).encode() + b"\xff")
        out = tmp_path / "r.json"
        assert main(["fit", str(scan), "--model", "fringe", "--output", str(out)]) == 2
        assert f"error: {scan}: not UTF-8 text: " in capsys.readouterr().err
        assert not out.exists()

    def test_numeral_numpy_cannot_read_exits_2(self, tmp_path, capsys):
        # Python's float() takes "1_000.0"; numpy's reader does not
        scan = tmp_path / "scan.csv"
        self.write_scan(scan, "0.001,12,1_000.0,1.5")
        out = tmp_path / "r.json"
        assert main(["fit", str(scan), "--model", "fringe", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{scan}: bad scan file: " in err and "1_000.0" in err
        assert not out.exists()

    def test_first_bad_row_in_file_order(self, tmp_path, capsys):
        # a non-finite row above a row numpy cannot parse is the one named
        rows = [f"{float(x)!r},12,10.0,1.5" for x in np.linspace(-6e-3, 6e-3, 9)]
        rows[2], rows[4] = "nan,12,10.0,1.5", "0.001,12,10.0,1.5,9"
        scan = tmp_path / "scan.csv"
        scan.write_text("position_m,counts,integration_s,expected_rate\n"
                        + "".join(row + "\n" for row in rows))
        assert main(["fit", str(scan), "--model", "fringe"]) == 2
        err = capsys.readouterr().err
        assert f"{scan}:4: bad scan row: " in err and "must be finite" in err


class TestScanCsvWriter:
    """write_scan_csv formats each column once per distinct value and writes
    the bytes of the row-by-row writer it replaced."""

    @staticmethod
    def referee(scan):
        # the row-by-row writer: repr of each float, str of each count
        return ("position_m,counts,integration_s,expected_rate\n" + "".join(
            [f"{x!r},{n},{t!r},{rate!r}\n" for x, n, t, rate in scan.tolist()])).encode()

    @staticmethod
    def written(scan, path):
        write_scan_csv(scan, str(path))
        return path.read_bytes()

    @pytest.mark.parametrize("build", [default_config, long_config], ids=["61", "2001"])
    def test_simulated_scans_write_the_referee_bytes(self, tmp_path, build):
        config = build()
        path = tmp_path / "scan.csv"
        for seed in [0, 1, 2, 99, 12345, 20260808]:
            scan = simulate_scan(config, seed)
            assert self.written(scan, path) == self.referee(scan)

    @pytest.mark.parametrize("column", ["position", "integration_time", "expected_rate"])
    @pytest.mark.parametrize("change", ["sign of zero", "one ulp"])
    def test_near_equal_values_keep_their_own_text(self, tmp_path, column, change):
        # two entries of one column that differ only in the sign of zero or
        # by one ulp are each written as themselves
        scan = np.rec.fromrecords([(-1e-3, 5, 10.0, 1.5), (0.0, 7, 0.0, 0.0),
                                   (1e-3, 9, 10.0, 2.5), (0.0, 7, 0.0, 0.0)], dtype=SCAN_DTYPE)
        value = scan[column][1]
        scan[column][3] = -value if change == "sign of zero" else np.nextafter(value, 1.0)
        assert scan[column][3:].tobytes() != scan[column][1:2].tobytes()
        rows = self.written(scan, tmp_path / "scan.csv").decode().splitlines()
        assert rows[2] != rows[4]
        assert self.written(scan, tmp_path / "scan.csv") == self.referee(scan)

    def test_other_field_types_write_what_the_referee_writes(self, tmp_path):
        # float32 and big-endian fields format as their float64 values do
        dtype = np.dtype([("position", ">f8"), ("counts", np.int32),
                          ("integration_time", np.float32), ("expected_rate", ">f8")])
        scan = np.rec.fromrecords([(-1e-3, 5, 0.1, 1.5), (-0.0, 0, 10.0, 0.3),
                                   (0.0, 5, 0.1, -0.0),
                                   (2e-3, 2147483647, 1e-7, 5e-324)], dtype=dtype)
        path = tmp_path / "scan.csv"
        assert self.written(scan, path) == self.referee(scan)
        assert b"0.10000000149011612" in path.read_bytes()
        as_float64 = scan.astype(SCAN_DTYPE)
        assert self.written(as_float64, path) == self.referee(as_float64) == self.referee(scan)

    def test_empty_scan_is_the_header(self, tmp_path):
        scan = np.zeros(0, dtype=SCAN_DTYPE).view(np.recarray)
        assert self.written(scan, tmp_path / "scan.csv") == self.referee(scan)


class TestSweepCsvWriter:
    def test_special_values_write_the_referee_bytes(self, tmp_path):
        # the row-by-row writer it replaced wrote repr of each float
        values = [-0.0, math.nan, math.inf, 1e-320, 0.1 + 1e-17, 0.0]
        table = np.rec.fromrecords(
            [(theta, mu, sigma, converged) for theta, mu, sigma, converged
             in zip(values, values[1:] + values[:1], values[2:] + values[:2],
                    [True, False] * 3)], dtype=SWEEP_DTYPE)
        path = tmp_path / "sweep.csv"
        for sweep in (table, table[:0]):
            write_sweep_csv(sweep, str(path))
            assert path.read_bytes() == ("theta_rad,mu,sigma_mu\n" + "".join(
                [f"{theta!r},{mu!r},{sigma!r}\n"
                 for theta, mu, sigma, _ in sweep.tolist()])).encode()

    @pytest.mark.parametrize("run", [
        lambda: sweep_pump_angle(entangled_sweep_config(), np.linspace(0.0, math.pi, 19), 5),
        lambda: reproduce_fig5(seed=777).points,
    ], ids=["sweep_pump_angle", "reproduce_fig5"])
    def test_read_back_sweep_fits_as_the_table(self, tmp_path, run):
        # repr round-trips every float, so the file holds the table's fitted
        # columns exactly and fits to the same bits
        sweep = run()
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, str(path))
        read = read_sweep_csv(str(path))
        assert isinstance(read, np.recarray)
        assert read.dtype.names == ("theta", "mu", "sigma_mu")
        for name in read.dtype.names:
            assert read[name].tobytes() == sweep[name].tobytes()
        fit, refit = fit_visibility_curve(sweep), fit_visibility_curve(read)
        assert fit.params.tobytes() == refit.params.tobytes()
        assert fit.covariance.tobytes() == refit.covariance.tobytes()


class TestSweepCsvReader:
    @pytest.mark.parametrize("bad_row, reason", [
        ("0.5,nan,0.01", "must be finite"),
        ("inf,0.5,0.01", "must be finite"),
        ("0.5,-0.2,0.01", "must be >= 0"),
        ("0.5,0.2,-0.01", "must be >= 0"),
        ("0.5,0.2,0.01,oops", "expected 3 cells, got 4"),
        ("0.5,0.2,0.01,", "expected 3 cells, got 4"),
        ("0.5,0.2", "expected 3 cells, got 2"),
    ])
    def test_bad_row_exits_2_with_path_and_line(self, tmp_path, capsys, bad_row, reason):
        rows = [f"{float(t)!r},0.5,0.01" for t in np.linspace(0.0, math.pi, 19)]
        rows[3] = bad_row
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("theta_rad,mu,sigma_mu\n" + "".join(row + "\n" for row in rows))
        code = main(["fit", str(sweep), "--model", "viscurve",
                     "--output", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{sweep}:5: bad sweep row: " in err and reason in err
        assert not (tmp_path / "r.json").exists()

    def test_line_counts_blank_lines(self, tmp_path, capsys):
        rows = [f"{float(t)!r},0.5,0.01" for t in np.linspace(0.0, math.pi, 19)]
        rows[3] = "0.5,-0.2,0.01"
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("\ntheta_rad,mu,sigma_mu\n\n" + "".join(row + "\n" for row in rows))
        assert main(["fit", str(sweep), "--model", "viscurve",
                     "--output", str(tmp_path / "r.json")]) == 2
        assert f"{sweep}:7: bad sweep row: " in capsys.readouterr().err

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_line_counts_blank_lines_with_line_endings(self, tmp_path, capsys, eol):
        rows = [f"{float(t)!r},0.5,0.01" for t in np.linspace(0.0, math.pi, 19)]
        rows[3] = "0.5,-0.2,0.01"
        sweep = tmp_path / "sweep.csv"
        sweep.write_bytes((eol + "theta_rad,mu,sigma_mu" + eol + eol
                           + "".join(row + eol for row in rows)).encode())
        assert main(["fit", str(sweep), "--model", "viscurve",
                     "--output", str(tmp_path / "r.json")]) == 2
        assert f"{sweep}:7: bad sweep row: " in capsys.readouterr().err

    def test_numeral_numpy_cannot_read_exits_2(self, tmp_path, capsys):
        # as in scan files: Python's float() takes "1_000.0", numpy's reader does not
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("theta_rad,mu,sigma_mu\n1_000.0,0.5,0.01\n")
        out = tmp_path / "r.json"
        assert main(["fit", str(sweep), "--model", "viscurve", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{sweep}: bad sweep file: " in err and "1_000.0" in err
        assert not out.exists()

    def test_non_utf8_file_exits_2_with_path(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_bytes(b"theta_rad,mu,sigma_mu\n0.0,0.5,0.01\n\xff\n")
        out = tmp_path / "r.json"
        assert main(["fit", str(sweep), "--model", "viscurve", "--output", str(out)]) == 2
        assert f"error: {sweep}: not UTF-8 text: " in capsys.readouterr().err
        assert not out.exists()


class TestCliSweepAndFit:
    @pytest.mark.parametrize("build, ceiling, floor, eps2", [
        (entangled_sweep_config, 0.77, (0.09, 0.16), 0.08),
        # no --config: the built-in default, a linear pump behind a 0.83 ceiling
        (None, 0.83, (0.0, 0.03), 0.0),
    ], ids=["sweep config", "built-in config"])
    def test_sweep_then_viscurve_round_trip(self, tmp_path, monkeypatch,
                                            build, ceiling, floor, eps2):
        monkeypatch.delenv("TWINFRINGE_CONFIG", raising=False)
        config = []
        if build is not None:
            config = ["--config", str(tmp_path / "sweep_config.json")]
            save_config(build(), config[1])
        out = tmp_path / "sweep.csv"
        assert main(["sweep-pump-angle", *config, "--output", str(out), "--seed", "5"]) == 0
        sweep = read_sweep_csv(str(out))
        assert sweep.shape == (19,)
        assert abs(sweep["mu"].max() - ceiling) < 0.03
        assert floor[0] <= sweep["mu"].min() <= floor[1]
        assert main(["fit", str(out), "--model", "viscurve"]) == 0
        report = json.loads((tmp_path / "sweep.csv.fit.json").read_text())
        assert report["converged"] is True
        assert abs(report["params"]["eps2"] - eps2) < 0.03

    @staticmethod
    def fit_edited_scan(tmp_path, column, value):
        """Exit code, stderr and warnings of a fringe fit of the seed-3 default
        scan with one column edited: integration_time or expected_rate (with
        the counts zeroed) set to value, or the positions spaced value apart
        (for "pinned position", fitted at a pinned 1 mm period); or, for
        "pinned period", the scan as drawn, fitted at a pinned period of value."""
        scan = simulate_scan(default_config(), 3)
        pinned = ["--fix-period", "1e-3"] if column == "pinned position" else []
        if column == "pinned period":
            pinned = ["--fix-period", repr(value)]
        elif column.endswith("position"):
            scan.position = np.arange(len(scan)) * value
        elif column == "expected_rate":
            scan.expected_rate *= value / scan.expected_rate.max()
            scan.counts = 0
        else:
            scan.integration_time = value
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, str(path))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["fit", str(path), "--model", "fringe",
                         "--output", str(tmp_path / "r.json"), *pinned])
        return code, err.getvalue(), [str(w.message) for w in caught]

    @pytest.mark.parametrize("column, value, named", [
        # rates counts / t beyond 1.3e154 /s have no finite square
        ("integration_time", 1e-152, "integration_time"),
        ("integration_time", 1e-153, "integration_time"),
        # times whose square is subnormal or zero
        ("integration_time", 1e-155, "integration_time"),
        ("integration_time", 1e-160, "integration_time"),
        ("integration_time", 1e-170, "integration_time"),
        ("expected_rate", 1e155, "rates"),
        # at the top wavenumber k = pi (n - 1) / span, the period's error term
        # (2 pi / k^2)^2 underflows: below ~1.5e-77 m apart on 61 points
        ("position", 1e-100, "positions"),
        ("position", 1e-200, "positions"),
        ("position", 1e-310, "positions"),
        # a pinned fit whose sin column squares to zero: the linear solve is
        # not finite
        ("pinned position", 1e-310, "positions"),
        ("pinned position", 1e-200, "positions"),
        # positions packed far inside the pinned period: the cos column is 1 to
        # ~1e-13, and the design does not separate c0 from a
        ("pinned position", 1e-12, "positions"),
        # the default scan pinned at its top resolved period, span / 30: every
        # sample sits at a multiple of pi, so the sin column vanishes whatever
        # the counts
        ("pinned period", 4e-4, "positions"),
    ])
    def test_out_of_range_scan_exits_2(self, tmp_path, column, value, named):
        code, err, caught = self.fit_edited_scan(tmp_path, column, value)
        assert code == 2, err
        assert named in err and "Traceback" not in err
        assert caught == []
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("column, value", [
        ("integration_time", 10.0), ("integration_time", 1e-150), ("expected_rate", 1e150),
        ("position", 1e-70)])
    def test_in_range_scan_fits(self, tmp_path, column, value):
        code, err, caught = self.fit_edited_scan(tmp_path, column, value)
        report = json.loads((tmp_path / "r.json").read_text())
        assert code == 0 and caught == [], err
        assert all(math.isfinite(v) and v > 0.0 for v in report["stderr"].values())

    def test_three_angles_warns_ill_posed(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        save_config(entangled_sweep_config(), str(config))
        out = tmp_path / "three.csv"
        assert main(["sweep-pump-angle", "--config", str(config),
                     "--theta-deg", "0,45,90", "--output", str(out)]) == 0
        assert "ill-posed" in capsys.readouterr().err
        assert read_sweep_csv(str(out)).shape == (3,)

    @pytest.mark.parametrize("angles", ["nan,0,45,90", "0,45,inf,90", "0,-inf,45,90"])
    def test_non_finite_theta_exits_2(self, tmp_path, capsys, angles):
        out = tmp_path / "sweep.csv"
        code = main(["sweep-pump-angle", "--theta-deg", angles, "--output", str(out)])
        assert code == 2
        assert "--theta-deg" in capsys.readouterr().err
        assert not out.exists()


    def test_empty_theta_list_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-pump-angle", "--theta-deg", "", "--output", str(out)]) == 2
        assert "--theta-deg: no angles given" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-pump-angle", "--seed", "-1", "--output", str(out)]) == 2
        assert "error: --seed: must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_model_for_file_shape_exits_2(self, tmp_path, config_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["simulate-scan", "--config", config_path, "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["fit", str(out), "--model", "viscurve"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}: expected sweep columns")
        assert not (tmp_path / "scan.csv.fit.json").exists()

    def test_noiseless_export_fits_expected_column(self, tmp_path, config_path):
        # zero integration time: counts are all zero, the expected_rate
        # column still carries the exact curve
        with open(config_path) as fh:
            doc = json.load(fh)
        doc["scan"]["integration_time_s"] = 0.0
        noiseless = tmp_path / "noiseless.json"
        noiseless.write_text(json.dumps(doc))
        out = tmp_path / "scan0.csv"
        assert main(["simulate-scan", "--config", str(noiseless), "--output", str(out)]) == 0
        assert main(["fit", str(out), "--model", "fringe",
                     "--output", str(tmp_path / "r.json")]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["observable"] == "expected"
        assert abs(report["params"]["mu"] - 0.83) < 1e-6

    def test_flat_scan_fit_exits_4(self, tmp_path):
        scan = tmp_path / "flat.csv"
        scan.write_text("position_m,counts,integration_s,expected_rate\n" + "".join(
            f"{x},50,10.0,5.0\n" for x in np.linspace(-6e-3, 6e-3, 61)))
        code = main(["fit", str(scan), "--model", "fringe",
                     "--output", str(tmp_path / "r.json")])
        assert code == 4
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["converged"] is False
        assert "zero contrast" in report["message"]
        assert report["params"]["mu"] == 0.0
        assert report["stderr"]["period"] is None and report["stderr"]["psi"] is None

    def test_fit_report_is_strict_json(self, tmp_path):
        scan = tmp_path / "flat.csv"
        scan.write_text("position_m,counts,integration_s,expected_rate\n" + "".join(
            f"{x},50,10.0,5.0\n" for x in np.linspace(-6e-3, 6e-3, 61)))
        assert main(["fit", str(scan), "--model", "fringe",
                     "--output", str(tmp_path / "r.json")]) == 4
        text = (tmp_path / "r.json").read_text()

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(text, parse_constant=reject)
        assert report["stderr"]["mu"] is None
        assert math.isfinite(report["stderr"]["c0"])

    def test_flat_sweep_viscurve_fit_exits_4(self, tmp_path):
        sweep = tmp_path / "flat.csv"
        sweep.write_text("theta_rad,mu,sigma_mu\n" + "".join(
            f"{t},0.5,0.01\n" for t in np.linspace(0, math.pi, 19)))
        code = main(["fit", str(sweep), "--model", "viscurve",
                     "--output", str(tmp_path / "r.json")])
        assert code == 4
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["converged"] is False
        assert "unidentifiable" in report["message"]
        assert all(v is None for v in report["stderr"].values())

    def test_fringe_init_other_than_period_exits_2(self, tmp_path, config_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["simulate-scan", "--config", config_path, "--output", str(out)]) == 0
        code = main(["fit", str(out), "--model", "fringe", "--init", "mu=0.7"])
        assert code == 2
        assert "'period' only" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named, got", [
        (["--fix-period", "-1"], "--fix-period", "-1.0"),
        (["--fix-period", "0"], "--fix-period", "0.0"),
        (["--fix-period", "nan"], "--fix-period", "nan"),
        (["--fix-period", "inf"], "--fix-period", "inf"),
        (["--init", "period=nan"], "--init period", "nan"),
        (["--init", "period=-1"], "--init period", "-1.0"),
        # a pinned period wins over the starting one, but a bad start is still bad
        (["--fix-period", "1e-3", "--init", "period=0"], "--init period", "0.0")])
    def test_bad_fringe_period_exits_2(self, tmp_path, capsys, flags, named, got):
        # the flags are checked before the data file is read: this one does not exist
        scan, out = tmp_path / "scan.csv", tmp_path / "r.json"
        assert main(["fit", str(scan), "--model", "fringe", *flags, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {named} must be finite and > 0, got {got}\n"
        assert not out.exists()

    def test_viscurve_init_exits_2(self, tmp_path, capsys):
        sweep = tmp_path / "s.csv"
        sweep.write_text("theta_rad,mu,sigma_mu\n" + "".join(
            f"{t},{0.4 + 0.3 * math.cos(4 * t)},0.01\n" for t in np.linspace(0, math.pi, 19)))
        code = main(["fit", str(sweep), "--model", "viscurve", "--init", "theta0=3.1",
                     "--output", str(tmp_path / "r.json")])
        assert code == 2
        assert "closed form" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flags", [["--fix-period", "0.005"], ["--fix-period", "0"],
                                       ["--observable", "counts"],
                                       ["--observable", "expected"]])
    def test_viscurve_fringe_only_flags_exit_2(self, tmp_path, capsys, flags):
        # a sweep has no period to pin and no observable to choose
        sweep = tmp_path / "s.csv"
        sweep.write_text("theta_rad,mu,sigma_mu\n" + "".join(
            f"{t},{0.4 + 0.3 * math.cos(4 * t)},0.01\n" for t in np.linspace(0, math.pi, 19)))
        out = tmp_path / "r.json"
        code = main(["fit", str(sweep), "--model", "viscurve", *flags, "--output", str(out)])
        assert code == 2
        assert f"error: {flags[0]} applies to fringe fits only" in capsys.readouterr().err
        assert not out.exists()
        assert main(["fit", str(sweep), "--model", "viscurve", "--observable", "auto",
                     "--output", str(out)]) == 0

    def test_nonconvergence_exits_4(self, monkeypatch, tmp_path):
        import twinfringe.cli as cli_mod
        from twinfringe.fitting import FitResult

        sweep = tmp_path / "s.csv"
        sweep.write_text("theta_rad,mu,sigma_mu\n" + "".join(
            f"{t},0.5,0.01\n" for t in np.linspace(0, math.pi, 8)))

        def fake_fit(points):
            return FitResult(params=np.array([0.5, 0.0, 0.9]),
                             covariance=np.eye(3), residual_norm=1.0,
                             iterations=200, converged=False, message="stalled")

        monkeypatch.setattr(cli_mod, "fit_visibility_curve", fake_fit)
        code = main(["fit", str(sweep), "--model", "viscurve",
                     "--output", str(tmp_path / "r.json")])
        assert code == 4
        assert json.loads((tmp_path / "r.json").read_text())["converged"] is False


class TestCliFig5AndOracle:
    def test_reproduce_fig5_passes_and_writes_outputs(self, tmp_path, capsys):
        outdir = tmp_path / "fig5"
        assert main(["reproduce-fig5", "--output", str(outdir)]) == 0
        assert "verdict: PASS" in capsys.readouterr().out
        report = json.loads((outdir / "fig5_report.json").read_text())
        assert report["passed"] is True
        assert (outdir / "visibility_sweep.csv").exists()

    def test_variant_flag_is_gone(self, tmp_path, capsys):
        # one visibility-curve estimator: --variant is an unknown flag, exit 2
        # before any output is written
        sweep = tmp_path / "s.csv"
        sweep.write_text("theta_rad,mu,sigma_mu\n" + "".join(
            f"{t},{0.4 + 0.3 * math.cos(4 * t)},0.01\n" for t in np.linspace(0, math.pi, 19)))
        for args, output in (
                (["fit", str(sweep), "--model", "viscurve", "--variant", "derived",
                  "--output", str(tmp_path / "r.json")], tmp_path / "r.json"),
                (["reproduce-fig5", "--variant", "paper", "--output", str(tmp_path / "fig5")],
                 tmp_path / "fig5")):
            with pytest.raises(SystemExit) as exit_:
                main(args)
            assert exit_.value.code == 2
            assert "unrecognized arguments: --variant" in capsys.readouterr().err
            assert not output.exists()

    def test_seed_changes_data_not_verdict(self, tmp_path, capsys):
        reports = []
        for seed in ("101", "202"):
            outdir = tmp_path / f"fig5_{seed}"
            assert main(["reproduce-fig5", "--seed", seed, "--output", str(outdir)]) == 0
            assert "verdict: PASS" in capsys.readouterr().out
            reports.append((outdir / "visibility_sweep.csv").read_bytes())
        assert reports[0] != reports[1]

    def test_oracle_check_passes(self, capsys):
        assert main(["oracle-check", "--draws", "60"]) == 0
        assert "conformance: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_oracle_check_without_draws_exits_2(self, draws, capsys):
        assert main(["oracle-check", "--draws", draws]) == 2
        captured = capsys.readouterr()
        assert "error: --draws: must be an integer >= 1" in captured.err
        assert "conformance:" not in captured.out
