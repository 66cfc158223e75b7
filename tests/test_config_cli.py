import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from twinfringe.cli import main, read_scan_csv, read_sweep_csv, write_scan_csv
from twinfringe.detection import SCAN_DTYPE, ScanConfig
from twinfringe.config import (ConfigError, config_from_dict, config_to_dict,
                               default_config, entangled_sweep_config,
                               load_config, save_config)
from twinfringe.pipeline import simulate_scan
from twinfringe.spdc import GeometryConfig

CLI = [sys.executable, "-m", "twinfringe.cli"]


def run_cli(args, cwd=None, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(CLI + args, capture_output=True, text=True,
                          cwd=cwd, env=env)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    save_config(default_config(), str(path))
    return str(path)


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
    ], ids=["geometry-null", "pump-int", "crystal-int", "analyzers-int", "analyzers-str", "scan-str",
            "scan-typo", "top-level-key", "crystal-key", "grid-key"])
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


class TestCliScan:
    def test_writes_exact_header_and_summary(self, tmp_path, config_path):
        out = tmp_path / "scan.csv"
        proc = run_cli(["simulate-scan", "--config", config_path,
                        "--output", str(out), "--seed", "7"])
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "position_m,counts,integration_s,expected_rate"
        assert len(lines) == 62
        assert "fitted fringe: mu = " in proc.stdout
        # default config: balanced source behind a 0.83 instrument ceiling
        mu = float(proc.stdout.split("mu = ")[1].split()[0])
        assert abs(mu - 0.83) < 0.05
        records = read_scan_csv(str(out))
        assert len(records) == 61

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["simulate-scan", "--seed", "-1", "--output", str(out)]) == 2
        assert "error: --seed: must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json}")
        proc = run_cli(["simulate-scan", "--config", str(bad)])
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

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
    def test_counts_beyond_poisson_range_exit_2(self, tmp_path, key, value):
        doc = config_to_dict(default_config())
        doc["scan"][key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "scan.csv"
        proc = run_cli(["simulate-scan", "--config", str(path), "--output", str(out)])
        assert proc.returncode == 2
        assert "scan.peak_rate_hz: " in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()

    def test_unwritable_output_exits_3(self, tmp_path, config_path):
        proc = run_cli(["simulate-scan", "--config", config_path,
                        "--output", str(tmp_path / "no_such_dir" / "scan.csv")])
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr

    def test_env_var_config_path(self, tmp_path, config_path):
        out = tmp_path / "scan.csv"
        proc = run_cli(["simulate-scan", "--output", str(out)],
                       env_extra={"TWINFRINGE_CONFIG": config_path})
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_missing_env_config_path_fails_cleanly(self, tmp_path):
        proc = run_cli(["simulate-scan", "--output", str(tmp_path / "s.csv")],
                       env_extra={"TWINFRINGE_CONFIG": str(tmp_path / "nope.json")})
        assert proc.returncode in (2, 3)

    def test_byte_identical_reruns(self, tmp_path, config_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            proc = run_cli(["simulate-scan", "--config", config_path,
                            "--output", str(out), "--seed", "11"])
            assert proc.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_scan_mode_both_halves_fitted_period(self, tmp_path, config_path):
        periods = {}
        for mode in ("signal", "both"):
            out = tmp_path / f"{mode}.csv"
            proc = run_cli(["simulate-scan", "--config", config_path,
                            "--output", str(out), "--seed", "3",
                            "--scan-mode", mode])
            assert proc.returncode == 0
            fit = run_cli(["fit", str(out), "--model", "fringe"])
            assert fit.returncode == 0
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
        doc = config_to_dict(default_config())
        doc["scan"]["positions_m"] = {"start": -6e-3, "stop": 6e-3, "num": 2001}
        scan = simulate_scan(config_from_dict(doc), seed=seed)
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
    def test_sweep_then_viscurve_round_trip(self, tmp_path):
        config = tmp_path / "sweep_config.json"
        save_config(entangled_sweep_config(), str(config))
        out = tmp_path / "sweep.csv"
        proc = run_cli(["sweep-pump-angle", "--config", str(config),
                        "--output", str(out), "--seed", "5"])
        assert proc.returncode == 0, proc.stderr
        points = read_sweep_csv(str(out))
        assert len(points) == 19
        mus = [mu for _, mu, _ in points]
        assert abs(max(mus) - 0.77) < 0.03
        assert 0.09 <= min(mus) <= 0.16
        fit = run_cli(["fit", str(out), "--model", "viscurve"])
        assert fit.returncode == 0, fit.stderr
        report = json.loads((tmp_path / "sweep.csv.fit.json").read_text())
        assert abs(report["params"]["eps2"] - 0.08) < 0.03

    def test_three_angles_warns_ill_posed(self, tmp_path):
        config = tmp_path / "c.json"
        save_config(entangled_sweep_config(), str(config))
        out = tmp_path / "three.csv"
        proc = run_cli(["sweep-pump-angle", "--config", str(config),
                        "--theta-deg", "0,45,90", "--output", str(out)])
        assert proc.returncode == 0
        assert "ill-posed" in proc.stderr
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

    def test_wrong_model_for_file_shape_exits_2(self, tmp_path, config_path):
        out = tmp_path / "scan.csv"
        run_cli(["simulate-scan", "--config", config_path, "--output", str(out)])
        proc = run_cli(["fit", str(out), "--model", "viscurve"])
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_noiseless_export_fits_expected_column(self, tmp_path, config_path):
        # zero integration time: counts are all zero, the expected_rate
        # column still carries the exact curve
        with open(config_path) as fh:
            doc = json.load(fh)
        doc["scan"]["integration_time_s"] = 0.0
        noiseless = tmp_path / "noiseless.json"
        noiseless.write_text(json.dumps(doc))
        out = tmp_path / "scan0.csv"
        proc = run_cli(["simulate-scan", "--config", str(noiseless),
                        "--output", str(out)])
        assert proc.returncode == 0, proc.stderr
        fit = run_cli(["fit", str(out), "--model", "fringe",
                       "--output", str(tmp_path / "r.json")])
        assert fit.returncode == 0, fit.stderr
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

        def fake_fit(points, variant="derived"):
            return FitResult(params=np.array([0.5, 0.0, 0.9]),
                             covariance=np.eye(3), residual_norm=1.0,
                             iterations=200, converged=False, message="stalled")

        monkeypatch.setattr(cli_mod, "fit_visibility_curve", fake_fit)
        code = main(["fit", str(sweep), "--model", "viscurve",
                     "--output", str(tmp_path / "r.json")])
        assert code == 4
        assert json.loads((tmp_path / "r.json").read_text())["converged"] is False


class TestCliFig5AndOracle:
    def test_reproduce_fig5_passes_and_writes_outputs(self, tmp_path):
        outdir = tmp_path / "fig5"
        proc = run_cli(["reproduce-fig5", "--output", str(outdir)])
        assert proc.returncode == 0, proc.stderr
        assert "verdict: PASS" in proc.stdout
        report = json.loads((outdir / "fig5_report.json").read_text())
        assert report["passed"] is True
        assert (outdir / "visibility_sweep.csv").exists()

    def test_paper_variant_documents_floor_mismatch(self, tmp_path):
        proc = run_cli(["reproduce-fig5", "--variant", "paper",
                        "--output", str(tmp_path / "fig5p")])
        assert proc.returncode == 0
        assert "verdict: FAIL" in proc.stdout
        assert "note:" in proc.stdout

    def test_seed_changes_data_not_verdict(self, tmp_path):
        reports = []
        for seed in ("101", "202"):
            outdir = tmp_path / f"fig5_{seed}"
            proc = run_cli(["reproduce-fig5", "--seed", seed,
                            "--output", str(outdir)])
            assert proc.returncode == 0
            assert "verdict: PASS" in proc.stdout
            reports.append((outdir / "visibility_sweep.csv").read_bytes())
        assert reports[0] != reports[1]

    def test_oracle_check_passes(self):
        proc = run_cli(["oracle-check", "--draws", "60"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "conformance: PASS" in proc.stdout

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_oracle_check_without_draws_exits_2(self, draws, capsys):
        assert main(["oracle-check", "--draws", draws]) == 2
        captured = capsys.readouterr()
        assert "error: --draws: must be an integer >= 1" in captured.err
        assert "conformance:" not in captured.out
