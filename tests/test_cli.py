"""Command-line interface: commands, config files, exit codes."""

import json

import numpy as np
import pytest

from rfloc.cli import main
from rfloc.core import SensorConfig
from rfloc.io import (
    read_dataset_csv,
    read_sensor_config_json,
    write_dataset_csv,
    write_scenario_json,
    write_sensor_config_json,
)
from rfloc.simulate import Scenario, SoopSource
from rfloc.core import Position, validate_dataset

from conftest import toy_dataset


@pytest.fixture
def small_scene(tmp_path):
    scenario = Scenario(
        room_dims=(4.0, 4.0, 2.5),
        sources=(
            SoopSource(
                position=Position(0.2, 0.2, 1.0),
                center_frequency_mhz=91.2,
                bandwidth_mhz=0.2,
                tx_power_dbm=-30.0,
                path_loss_exponent=2.5,
            ),
            SoopSource(
                position=Position(3.8, 3.5, 1.5),
                center_frequency_mhz=93.6,
                bandwidth_mhz=0.2,
                tx_power_dbm=-28.0,
                path_loss_exponent=3.0,
            ),
        ),
        objects=(),
        noise_sigma_db=0.3,
        rng_seed=0,
    )
    s_path = tmp_path / "scene.json"
    c_path = tmp_path / "sensor.json"
    write_scenario_json(scenario, str(s_path))
    write_sensor_config_json(
        SensorConfig(band_mhz=(91.2, 93.6), step_mhz=2.4, sample_rate_hz=2.4e6,
                     samples_per_position=3),
        str(c_path),
    )
    return str(s_path), str(c_path)


def _write_toy(tmp_path, name="data.csv", n=60, m=4, seed=0):
    path = tmp_path / name
    write_dataset_csv(toy_dataset(n=n, m=m, seed=seed), str(path))
    return str(path)


class TestSimulate:
    def test_custom_scenario_grid(self, tmp_path, small_scene, capsys):
        scene, sensor = small_scene
        out = tmp_path / "d.csv"
        rc = main([
            "simulate", "--scenario", scene, "--sensor-config", sensor,
            "--grid", "2,2,1.0", "--heights", "0.0,1.0",
            "--out", str(out), "--seed", "3",
        ])
        assert rc == 0
        ds = read_dataset_csv(str(out))
        assert ds.n == 2 * 2 * 2 * 3
        assert ds.frequencies_mhz == (91.2, 93.6)
        assert "wrote" in capsys.readouterr().out

    def test_seed_flag_controls_noise(self, tmp_path, small_scene):
        scene, sensor = small_scene
        outs = []
        for seed in ("3", "4"):
            out = tmp_path / f"d{seed}.csv"
            assert main([
                "simulate", "--scenario", scene, "--sensor-config", sensor,
                "--grid", "2,2,1.0", "--out", str(out), "--seed", seed,
            ]) == 0
            outs.append(read_dataset_csv(str(out)))
        assert not np.array_equal(outs[0].features, outs[1].features)

    def test_reference_scenario_shape(self, tmp_path):
        out = tmp_path / "ref.csv"
        assert main(["simulate", "--reference-scenario", "--out", str(out), "--seed", "0"]) == 0
        ds = read_dataset_csv(str(out))
        assert ds.features.shape == (6000, 5)

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            assert main(["simulate", "--reference-scenario", "--out", str(p), "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scenario_choice_must_be_unique(self, tmp_path, small_scene, capsys):
        scene, sensor = small_scene
        out = tmp_path / "d.csv"
        rc = main([
            "simulate", "--scenario", scene, "--reference-scenario",
            "--out", str(out), "--seed", "0",
        ])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["simulate", "--out", str(out), "--seed", "0"]) == 2

    def test_seed_is_required(self, tmp_path, capsys):
        rc = main(["simulate", "--reference-scenario", "--out", str(tmp_path / "d.csv")])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err


class TestSplit:
    def test_fractions_and_files(self, tmp_path):
        data = _write_toy(tmp_path, n=50)
        tr, te = tmp_path / "tr.csv", tmp_path / "te.csv"
        rc = main([
            "split", "--data", data, "--out-train", str(tr), "--out-test", str(te),
            "--seed", "0",
        ])
        assert rc == 0
        assert read_dataset_csv(str(tr)).n == 35
        assert read_dataset_csv(str(te)).n == 15

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        rc = main([
            "split", "--data", str(tmp_path / "nope.csv"),
            "--out-train", str(tmp_path / "a.csv"), "--out-test", str(tmp_path / "b.csv"),
            "--seed", "0",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_fraction_bounds(self, tmp_path, capsys):
        data = _write_toy(tmp_path)
        rc = main([
            "split", "--data", data, "--train-fraction", "1.5",
            "--out-train", str(tmp_path / "a.csv"), "--out-test", str(tmp_path / "b.csv"),
            "--seed", "0",
        ])
        assert rc == 2


class TestBenchmark:
    def test_reports_csv_and_table(self, tmp_path, capsys):
        data = _write_toy(tmp_path)
        out = tmp_path / "bench.csv"
        rc = main([
            "benchmark", "--data", data, "--models", "knr,dtr",
            "--out", str(out), "--seed", "0",
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "model,rmse_m,r2,ce95_m,fit_time_s"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["knr", "dtr"]
        assert "model" in capsys.readouterr().out

    def test_unknown_model_is_usage_error(self, tmp_path, capsys):
        data = _write_toy(tmp_path)
        rc = main([
            "benchmark", "--data", data, "--models", "nope",
            "--out", str(tmp_path / "b.csv"), "--seed", "0",
        ])
        assert rc == 2
        assert "valid ids" in capsys.readouterr().err


class TestSelectBand:
    def _column_data(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(80, 4))
        Y = np.column_stack([X[:, 0], X[:, 0] * 2.0, rng.normal(size=80)])
        ds = validate_dataset(X, Y, (91.2, 93.6, 96.0, 98.4))
        path = tmp_path / "cols.csv"
        write_dataset_csv(ds, str(path))
        return str(path)

    def test_outputs_and_reduced_config(self, tmp_path):
        data = self._column_data(tmp_path)
        imp, cfg = tmp_path / "imp.csv", tmp_path / "rated.json"
        rc = main([
            "select-band", "--data", data, "--model", "knr", "--top-k", "2",
            "--out-importance", str(imp), "--out-config", str(cfg), "--seed", "0",
        ])
        assert rc == 0
        lines = imp.read_text().splitlines()
        assert lines[0] == "frequency_mhz,score_m"
        assert len(lines) == 5
        rated = read_sensor_config_json(str(cfg))
        assert rated.n_frequencies == 2
        assert 91.2 in rated.band_mhz  # the informative column must survive
        assert rated.reconfig_index == 1

    def test_top_k_bounds(self, tmp_path, capsys):
        data = self._column_data(tmp_path)
        args = lambda k: [
            "select-band", "--data", data, "--top-k", k,
            "--out-importance", str(tmp_path / "i.csv"),
            "--out-config", str(tmp_path / "c.json"), "--seed", "0",
        ]
        assert main(args("0")) == 2
        assert main(args("9")) == 1
        assert "exceeds" in capsys.readouterr().err


class TestSelectBandSensorConfig:
    def _data(self, tmp_path, band):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, len(band)))
        Y = np.column_stack([X[:, 0], X[:, 0] * 2.0, rng.normal(size=40)])
        path = tmp_path / "cols.csv"
        write_dataset_csv(validate_dataset(X, Y, band), str(path))
        return str(path)

    def _run(self, tmp_path, data, *extra):
        return main([
            "select-band", "--data", data, "--model", "knr", "--top-k", "2",
            "--n-repeats", "1", "--out-importance", str(tmp_path / "imp.csv"),
            "--out-config", str(tmp_path / "rated.json"), "--seed", "0", *extra,
        ])

    def test_rated_config_takes_step_rate_and_samples_from_the_file(self, tmp_path, capsys):
        band = (91.2, 93.6, 98.4, 100.0)
        data = self._data(tmp_path, band)
        sensor = tmp_path / "sensor.json"
        write_sensor_config_json(
            SensorConfig(band_mhz=band, step_mhz=0.8, sample_rate_hz=1.2e6,
                         samples_per_position=7, reconfig_index=2),
            str(sensor),
        )
        assert self._run(tmp_path, data, "--sensor-config", str(sensor)) == 0
        rated = read_sensor_config_json(str(tmp_path / "rated.json"))
        assert rated.n_frequencies == 2 and set(rated.band_mhz) <= set(band)
        assert (rated.step_mhz, rated.sample_rate_hz, rated.samples_per_position,
                rated.reconfig_index) == (0.8, 1.2e6, 7, 3)

        # the same option as a config-file key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensor-config": str(sensor)}))
        (tmp_path / "rated.json").unlink()
        assert self._run(tmp_path, data, "--config", str(cfg)) == 0
        assert read_sensor_config_json(str(tmp_path / "rated.json")) == rated

        # a band other than the CSV header's is refused, naming the first difference
        write_sensor_config_json(
            SensorConfig(band_mhz=(91.2, 93.6, 96.0, 100.0), step_mhz=0.8,
                         sample_rate_hz=1.2e6, samples_per_position=7),
            str(sensor),
        )
        capsys.readouterr()
        assert self._run(tmp_path, data, "--sensor-config", str(sensor)) == 1
        assert "at index 2: 96.0 MHz in the config, 98.4 MHz in the CSV header" in (
            capsys.readouterr().err
        )
        write_sensor_config_json(
            SensorConfig(band_mhz=band[:3], step_mhz=0.8, sample_rate_hz=1.2e6,
                         samples_per_position=7),
            str(sensor),
        )
        assert self._run(tmp_path, data, "--sensor-config", str(sensor)) == 1
        assert "100.0 MHz at index 3 is only in the CSV header" in capsys.readouterr().err

    def test_uneven_band_without_a_sensor_config_is_refused(self, tmp_path, capsys):
        data = self._data(tmp_path, (91.2, 93.6, 98.4, 100.8))
        assert self._run(tmp_path, data) == 2
        err = capsys.readouterr().err
        assert "unevenly spaced (2.4 MHz from 91.2 to 93.6, 4.8 MHz from 93.6 to 98.4)" in err
        assert "--sensor-config" in err
        assert not (tmp_path / "rated.json").exists()

    def test_even_band_keeps_the_step_from_the_header(self, tmp_path):
        data = self._data(tmp_path, (91.2, 93.6, 96.0, 98.4))
        assert self._run(tmp_path, data) == 0
        written = json.loads((tmp_path / "rated.json").read_text())
        assert written["step_mhz"] == 93.6 - 91.2
        assert (written["sample_rate_hz"], written["samples_per_position"],
                written["reconfig_index"]) == (2.4e6, 100, 1)


class TestPca:
    def test_writes_scores(self, tmp_path, capsys):
        data = _write_toy(tmp_path)
        out = tmp_path / "pca.csv"
        rc = main(["pca", "--data", data, "--n-components", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pc1,pc2,x,y,z"
        assert len(lines) == 61
        assert "explained variance" in capsys.readouterr().out

    def test_component_count_validated(self, tmp_path):
        data = _write_toy(tmp_path)
        assert main(["pca", "--data", data, "--n-components", "0",
                     "--out", str(tmp_path / "p.csv")]) == 2

    def test_a_non_finite_cell_is_named_by_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("f_91.2,f_93.6,x,y,z\n1,2,3,4,5\n1,nan,3,4,5\n")
        assert main(["pca", "--data", str(data), "--out", str(tmp_path / "p.csv")]) != 0
        assert f"{data}: line 3: non-finite entry in features" in capsys.readouterr().err


class TestIngestRtlPower:
    def _scan(self, tmp_path):
        p = tmp_path / "scan.csv"
        p.write_text(
            "2024-05-01, 10:00:00, 91000000, 91400000, 200000, 16, -40.0, -41.0, -42.0\n"
            "2024-05-01, 10:00:10, 91000000, 91400000, 200000, 16, -43.0, -44.0, -45.0\n"
        )
        return str(p)

    def test_appends_scan_rows(self, tmp_path, capsys):
        scan = self._scan(tmp_path)
        out = tmp_path / "field.csv"
        rc = main([
            "ingest-rtlpower", "--scan", scan, "--position", "1.0,2.0,0.0",
            "--out", str(out),
        ])
        assert rc == 0
        ds = read_dataset_csv(str(out))
        assert ds.features.shape == (2, 3)
        assert ds.frequencies_mhz == (91.0, 91.2, 91.4)
        assert np.array_equal(ds.labels[0], [1.0, 2.0, 0.0])
        assert "appended 2 rows" in capsys.readouterr().out

    def test_band_subset(self, tmp_path):
        scan = self._scan(tmp_path)
        out = tmp_path / "field.csv"
        rc = main([
            "ingest-rtlpower", "--scan", scan, "--position", "0,0,0",
            "--band", "91.2", "--step-mhz", "2.4", "--out", str(out),
        ])
        assert rc == 0
        ds = read_dataset_csv(str(out))
        assert ds.frequencies_mhz == (91.2,)
        assert ds.features[0, 0] == -41.0

    def test_malformed_scan_reports_line(self, tmp_path, capsys):
        p = tmp_path / "scan.csv"
        p.write_text("2024-05-01, 10:00:00, 91000000, 91400000, 200000, 16, oops\n")
        rc = main([
            "ingest-rtlpower", "--scan", str(p), "--position", "0,0,0",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    def test_position_must_be_triple(self, tmp_path, capsys):
        rc = main([
            "ingest-rtlpower", "--scan", self._scan(tmp_path), "--position", "1,2",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 2
        assert "three comma-separated" in capsys.readouterr().err


class TestConfigFile:
    def test_options_from_config(self, tmp_path):
        data = _write_toy(tmp_path)
        out = tmp_path / "pca.csv"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"data": data, "out": str(out), "n-components": 2}))
        assert main(["pca", "--config", str(cfg)]) == 0
        assert out.read_text().splitlines()[0] == "pc1,pc2,x,y,z"

    def test_flags_override_config(self, tmp_path):
        data = _write_toy(tmp_path)
        out = tmp_path / "pca.csv"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"data": data, "out": str(out), "n-components": 2}))
        assert main(["pca", "--config", str(cfg), "--n-components", "1"]) == 0
        assert out.read_text().splitlines()[0] == "pc1,x,y,z"

    def test_invalid_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        rc = main(["pca", "--config", str(cfg)])
        assert rc == 1
        assert "JSON object" in capsys.readouterr().err


def test_unknown_command_exits_with_usage(capsys):
    assert main(["frobnicate"]) == 2


# Every required option of each command, as flags ({d} is a directory); a
# case drops the one it probes.
_VALID_FLAGS = {
    "simulate": {"fullband-scenario": "40", "out": "{d}/o.csv", "seed": "1"},
    "split": {"data": "{d}/d.csv", "out-train": "{d}/a.csv", "out-test": "{d}/b.csv", "seed": "1"},
    "benchmark": {"data": "{d}/d.csv", "models": "knr", "out": "{d}/o.csv", "seed": "1"},
    "select-band": {"data": "{d}/d.csv", "top-k": "2", "out-importance": "{d}/i.csv",
                    "out-config": "{d}/c.json", "seed": "1"},
    "pca": {"data": "{d}/d.csv", "out": "{d}/o.csv"},
    "ingest-rtlpower": {"scan": "{d}/s.csv", "position": "0,0,0", "out": "{d}/o.csv"},
}


def _argv(command, directory, drop=None):
    argv = [command]
    for key, value in _VALID_FLAGS[command].items():
        if key != drop:
            argv += [f"--{key}", value.format(d=directory)]
    return argv


class TestConfigValuesParseLikeFlags:
    @pytest.mark.parametrize("command, key, value, flag_text", [
        ("simulate", "seed", 7.9, "7.9"),
        ("simulate", "seed", True, "true"),
        ("simulate", "seed", "x", "x"),
        ("simulate", "seed", -1, "-1"),
        ("simulate", "fullband-scenario", 40.5, "40.5"),
        ("simulate", "reference-scenario", "no", None),
        ("simulate", "grid", [2.5, 2, 1.0], "2.5,2,1.0"),
        ("simulate", "heights", [0.0, "x"], "0.0,x"),
        ("pca", "n-components", 2.7, "2.7"),
        ("pca", "n-components", 0, "0"),
        ("split", "train-fraction", 1.5, "1.5"),
        ("benchmark", "split", 1.5, "1.5"),
        ("benchmark", "models", ["knr", "nope"], "knr,nope"),
        ("select-band", "split", 1.5, "1.5"),
        ("select-band", "split", "nan", "nan"),
        ("select-band", "top-k", 0, "0"),
        ("select-band", "n-repeats", False, "false"),
        ("select-band", "model", "zzz", "zzz"),
        ("ingest-rtlpower", "position", [1, 2], "1,2"),
        ("ingest-rtlpower", "band", {"a": 1}, '{"a": 1}'),
        ("ingest-rtlpower", "step-mhz", -0.2, "-0.2"),
    ])
    def test_bad_value_is_a_usage_error_naming_the_option(
        self, tmp_path, capsys, command, key, value, flag_text
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(_argv(command, tmp_path, drop=key) + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"--{key}" in err
        if flag_text is not None:
            assert main(_argv(command, tmp_path, drop=key) + [f"--{key}", flag_text]) == 2
            assert capsys.readouterr().err == err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_unknown_key_is_refused_by_name(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeed": 3}))
        assert main(_argv("simulate", tmp_path) + ["--config", str(cfg)]) == 2
        assert "'seeed'" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_another_commands_key_is_ignored(self, tmp_path):
        data = _write_toy(tmp_path)
        out = tmp_path / "pca.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": data, "out": str(out), "seed": 3, "top-k": 9,
                                   "models": "nope", "n-components": None}))
        assert main(["pca", "--config", str(cfg)]) == 0
        assert out.read_text().splitlines()[0] == "pc1,pc2,pc3,x,y,z"

    def test_json_lists_match_their_flags(self, tmp_path, small_scene):
        scene, sensor = small_scene
        data = _write_toy(tmp_path)
        scan = TestIngestRtlPower()._scan(tmp_path)
        runs = [
            ("benchmark", {"data": data, "models": ["knr", "dtr"], "seed": 0}, "bench.csv"),
            ("simulate", {"scenario": scene, "sensor-config": sensor, "grid": [2, 2, 1.0],
                          "heights": [0.0, 1.0], "seed": 3}, "sim.csv"),
            ("ingest-rtlpower", {"scan": scan, "position": [1.0, 2.0, 0.0], "band": [91.2],
                                 "step-mhz": 2.4}, "field.csv"),
        ]
        for command, options, name in runs:
            blobs = []
            for how in ("flags", "config"):
                out = tmp_path / how / name
                out.parent.mkdir(exist_ok=True)
                if how == "flags":
                    argv = [command, "--out", str(out)]
                    for key, value in options.items():
                        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                        argv += [f"--{key}", text]
                else:
                    cfg = tmp_path / how / f"{command}.json"
                    cfg.write_text(json.dumps({**options, "out": str(out)}))
                    argv = [command, "--config", str(cfg)]
                assert main(argv) == 0
                lines = out.read_text().splitlines()
                if command == "benchmark":  # drop the wall-clock fit-time column
                    lines = [ln.rsplit(",", 1)[0] for ln in lines]
                blobs.append(lines)
            assert blobs[0] == blobs[1]
        bench = (tmp_path / "config" / "bench.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in bench[1:]] == ["knr", "dtr"]


def test_main_looks_up_the_command_function_when_it_runs(monkeypatch):
    import rfloc.cli

    seen = []
    monkeypatch.setattr(rfloc.cli, "cmd_pca", lambda opts: seen.append(opts) or 0)
    assert main(["pca", "--data", "d.csv", "--out", "o.csv"]) == 0
    assert [(o.data, o.out, o.n_components) for o in seen] == [("d.csv", "o.csv", 3)]
