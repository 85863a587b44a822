"""File formats: CSV round-trips, JSON configs, wide-scan ingestion."""

import json
import re

import numpy as np
import pytest

from rfloc.core import Position, SensorConfig
from rfloc.evaluate import EvalReport
from rfloc.io import (
    append_dataset_csv,
    dataset_header,
    read_dataset_csv,
    read_rtlpower_scan,
    read_scenario_json,
    read_sensor_config_json,
    rtlpower_rows_to_dataset,
    scenario_from_dict,
    scenario_to_dict,
    sensor_config_from_dict,
    sensor_config_to_dict,
    write_benchmark_csv,
    write_dataset_csv,
    write_importance_csv,
    write_pca_csv,
    write_scenario_json,
    write_sensor_config_json,
)
from rfloc.bandselect import ImportanceReport
from rfloc.simulate import make_fullband_scenario, make_reference_scenario

from conftest import toy_dataset


class TestDatasetCsv:
    def test_header_layout(self):
        assert dataset_header((91.2, 93.6)) == "f_91.2,f_93.6,x,y,z"

    def test_round_trip_is_exact(self, tmp_path, rng):
        ds = toy_dataset(n=25, m=4, seed=3)
        p = tmp_path / "d.csv"
        write_dataset_csv(ds, str(p))
        back = read_dataset_csv(str(p))
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.frequencies_mhz == ds.frequencies_mhz

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = toy_dataset(n=10, m=3, seed=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(ds, str(a))
        write_dataset_csv(read_dataset_csv(str(a)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f_91.2,x,y\n1,2,3\n")
        with pytest.raises(ValueError, match="x,y,z"):
            read_dataset_csv(str(p))
        p.write_text("g_91.2,x,y,z\n1,2,3,4\n")
        with pytest.raises(ValueError, match="f_<MHz>"):
            read_dataset_csv(str(p))

    def test_bad_rows_name_their_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f_91.2,x,y,z\n1.0,2.0,3.0,4.0\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_dataset_csv(str(p))
        p.write_text("f_91.2,x,y,z\n1.0,two,3.0,4.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_dataset_csv(str(p))

    def test_header_band_is_checked(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f_nan,f_-5.0,x,y,z\n1,2,3,4,5\n")
        with pytest.raises(ValueError, match=r"frequencies_mhz\[0\] must be > 0, got nan"):
            read_dataset_csv(str(p))

    def test_dataset_check_errors_name_the_file_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f_nan,f_-5.0,x,y,z\n1,2,3,4,5\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 1: frequencies_mhz[0] must be > 0")):
            read_dataset_csv(str(p))
        p.write_text("f_91.2,f_93.6,x,y,z\n1,2,3,4,5\n1,nan,3,4,5\n1,2,3,4,inf\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: line 3: non-finite entry in features at row 1, column 1")):
            read_dataset_csv(str(p))
        # features are checked before labels, as validate_dataset does
        p.write_text("f_91.2,f_93.6,x,y,z\n1,2,3,4,inf\n1,nan,3,4,5\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 3: non-finite entry in features")):
            read_dataset_csv(str(p))
        p.write_text("f_91.2,f_93.6,x,y,z\n1,2,3,4,5\n1,2,3,4,5\n1,2,3,-inf,5\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 4: non-finite entry in labels")):
            read_dataset_csv(str(p))

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_dataset_csv(str(p))

    def test_append_grows_and_checks_band(self, tmp_path):
        ds = toy_dataset(n=8, m=3, seed=5)
        p = tmp_path / "d.csv"
        append_dataset_csv(ds, str(p))  # creates
        append_dataset_csv(ds, str(p))  # appends
        back = read_dataset_csv(str(p))
        assert back.n == 16
        assert np.array_equal(back.features[8:], ds.features)
        other = toy_dataset(n=4, m=2, seed=6)
        with pytest.raises(ValueError, match="cannot append"):
            append_dataset_csv(other, str(p))


class TestScenarioJson:
    def test_dict_round_trip_preserves_equality(self):
        scenario, _, _ = make_reference_scenario(0)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_file_round_trip(self, tmp_path):
        scenario, _, _ = make_reference_scenario(1)
        p = tmp_path / "s.json"
        write_scenario_json(scenario, str(p))
        assert read_scenario_json(str(p)) == scenario

    def test_optional_fields_default(self):
        scenario, _, _ = make_reference_scenario(2)
        d = scenario_to_dict(scenario)
        for key in ("noise_floor_dbm", "noise_burst_prob", "noise_burst_factor",
                    "label_error_prob"):
            d.pop(key)
        d["label_error_prob"] = 0.0
        back = scenario_from_dict(d)
        assert back.noise_floor_dbm is None
        assert back.noise_burst_prob == 0.0
        assert back.noise_burst_factor == 3.0

    def test_missing_key_names_its_path(self):
        scenario, _, _ = make_reference_scenario(3)
        d = scenario_to_dict(scenario)
        del d["sources"][0]["position"]
        with pytest.raises(ValueError, match=r"sources\[0\]"):
            scenario_from_dict(d)
        d = scenario_to_dict(scenario)
        del d["noise_sigma_db"]
        with pytest.raises(ValueError, match="noise_sigma_db"):
            scenario_from_dict(d)

    def test_invalid_json_names_the_file(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="s.json"):
            read_scenario_json(str(p))

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="object"):
            scenario_from_dict([1, 2, 3])


class TestSensorConfigJson:
    def _config(self):
        return SensorConfig(
            band_mhz=(91.2, 93.6, 96.0),
            step_mhz=2.4,
            sample_rate_hz=2.4e6,
            samples_per_position=100,
            reconfig_index=1,
        )

    def test_round_trip(self, tmp_path):
        cfg = self._config()
        assert sensor_config_from_dict(sensor_config_to_dict(cfg)) == cfg
        p = tmp_path / "c.json"
        write_sensor_config_json(cfg, str(p))
        assert read_sensor_config_json(str(p)) == cfg

    def test_reconfig_index_defaults_to_zero(self):
        d = sensor_config_to_dict(self._config())
        del d["reconfig_index"]
        assert sensor_config_from_dict(d).reconfig_index == 0

    def test_missing_key(self):
        d = sensor_config_to_dict(self._config())
        del d["step_mhz"]
        with pytest.raises(ValueError, match="step_mhz"):
            sensor_config_from_dict(d)


class TestConfigJsonRules:
    @pytest.mark.parametrize("make", [make_reference_scenario, make_fullband_scenario])
    def test_write_read_write_is_byte_identical(self, tmp_path, make):
        scenario, config, _ = make(3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for obj, write, read in ((scenario, write_scenario_json, read_scenario_json),
                                 (config, write_sensor_config_json, read_sensor_config_json)):
            write(obj, str(a))
            write(read(str(a)), str(b))
            assert a.read_bytes() == b.read_bytes()

    def test_keys_are_the_fields_in_declaration_order(self, tmp_path):
        config = SensorConfig((91.2, 93.6), 2.4, 2.4e6, 100, reconfig_index=1)
        p = tmp_path / "c.json"
        write_sensor_config_json(config, str(p))
        assert p.read_text() == (
            '{\n  "band_mhz": [\n    91.2,\n    93.6\n  ],\n  "step_mhz": 2.4,\n'
            '  "sample_rate_hz": 2400000.0,\n  "samples_per_position": 100,\n'
            '  "reconfig_index": 1\n}\n'
        )
        scenario, _, _ = make_reference_scenario(0)
        d = scenario_to_dict(scenario)
        assert list(d) == ["room_dims", "sources", "objects", "noise_sigma_db", "rng_seed",
                           "noise_floor_dbm", "noise_burst_prob", "noise_burst_factor",
                           "label_error_prob"]
        assert list(d["sources"][0]) == ["position", "center_frequency_mhz", "bandwidth_mhz",
                                         "tx_power_dbm", "path_loss_exponent"]
        assert d["objects"][0]["corner_min"] == list(scenario.objects[0].corner_min.as_array())

    def test_objects_may_be_omitted(self):
        d = scenario_to_dict(make_reference_scenario(0)[0])
        del d["objects"]
        assert scenario_from_dict(d).objects == ()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["sources"][0].update(colour="red"), "unknown key scenario.sources[0].colour"),
        (lambda d: d.update(objects=None), "scenario.objects must be a list, got None"),
        (lambda d: d["sources"][1].update(position=None),
         "scenario.sources[1].position must be a 3-element [x, y, z] list, got None"),
        (lambda d: d["sources"][2].update(tx_power_dbm=float("nan")),
         "scenario.sources[2]: tx_power_dbm must be a finite number, got nan"),
        (lambda d: d["objects"][0]["corner_max"].__setitem__(0, float("nan")),
         "scenario.objects[0].corner_max: x must be a finite number, got nan"),
        (lambda d: d.update(rng_seed=99.9), "scenario: rng_seed must be an integer, got 99.9"),
        (lambda d: d.update(rng_seed=7.0), "scenario: rng_seed must be an integer, got 7.0"),
    ])
    def test_a_bad_scenario_file_is_refused_naming_the_path(self, tmp_path, edit, message):
        d = scenario_to_dict(make_reference_scenario(0)[0])
        edit(d)
        p = tmp_path / "s.json"
        p.write_text(json.dumps(d))  # a NaN is written as the bare NaN literal
        with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
            read_scenario_json(str(p))

    @pytest.mark.parametrize("edit, message", [
        ({"reconfg_index": 1}, "unknown key sensor-config.reconfg_index"),
        ({"band_mhz": None}, "sensor-config.band_mhz must be a list, got None"),
        ({"step_mhz": float("nan")}, "sensor-config: step_mhz must be > 0, got nan"),
        ({"samples_per_position": 99.9}, "sensor-config: samples_per_position must be an integer, got 99.9"),
    ])
    def test_a_bad_sensor_config_file_is_refused_naming_the_path(self, tmp_path, edit, message):
        d = sensor_config_to_dict(SensorConfig((91.2, 93.6), 2.4, 2.4e6, 100))
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**d, **edit}))
        with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
            read_sensor_config_json(str(p))


class TestReportCsvs:
    def test_benchmark_csv_layout(self, tmp_path):
        reports = [EvalReport("knr", 0.25, 0.9, 0.5, 1.5)]
        p = tmp_path / "b.csv"
        write_benchmark_csv(reports, str(p))
        lines = p.read_text().splitlines()
        assert lines[0] == "model,rmse_m,r2,ce95_m,fit_time_s"
        cells = lines[1].split(",")
        assert cells[0] == "knr"
        assert float(cells[1]) == 0.25
        assert float(cells[4]) == 1.5

    def test_importance_csv_layout(self, tmp_path):
        rep = ImportanceReport((91.2, 93.6), (0.4, 0.0), 5, 0, 0.3)
        p = tmp_path / "i.csv"
        write_importance_csv(rep, str(p))
        lines = p.read_text().splitlines()
        assert lines[0] == "frequency_mhz,score_m"
        assert lines[1] == "91.2,0.4"
        assert len(lines) == 3

    def test_pca_csv_layout(self, tmp_path):
        scores = np.array([[1.0, 2.0], [3.0, 4.0]])
        labels = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        p = tmp_path / "p.csv"
        write_pca_csv(scores, labels, str(p))
        lines = p.read_text().splitlines()
        assert lines[0] == "pc1,pc2,x,y,z"
        assert lines[1] == "1.0,2.0,0.0,0.0,0.0"


class TestRtlPowerScan:
    def _write(self, tmp_path, text):
        p = tmp_path / "scan.csv"
        p.write_text(text)
        return str(p)

    def test_frequency_grid_from_hz_fields(self, tmp_path):
        path = self._write(
            tmp_path,
            "2024-05-01, 10:00:00, 91000000, 91400000, 200000, 16, -40.0, -41.0, -42.0\n",
        )
        rows = read_rtlpower_scan(path)
        assert len(rows) == 1
        freqs, dbs = rows[0]
        assert np.array_equal(freqs, [91.0, 91.2, 91.4])
        assert np.array_equal(dbs, [-40.0, -41.0, -42.0])

    def test_multiple_rows_and_blank_lines(self, tmp_path):
        path = self._write(
            tmp_path,
            "2024-05-01, 10:00:00, 88000000, 88200000, 100000, 8, -50, -51, -52\n"
            "\n"
            "2024-05-01, 10:00:10, 88000000, 88200000, 100000, 8, -53, -54, -55\n",
        )
        rows = read_rtlpower_scan(path)
        assert len(rows) == 2
        assert rows[1][1][0] == -53.0

    def test_malformed_rows_name_their_line(self, tmp_path):
        path = self._write(tmp_path, "2024-05-01, 10:00:00, 91000000, 91400000, 200000, 16\n")
        with pytest.raises(ValueError, match="line 1"):
            read_rtlpower_scan(path)
        path = self._write(
            tmp_path,
            "2024-05-01, 10:00:00, 91000000, 91400000, 200000, 16, -40\n"
            "2024-05-01, 10:00:00, 91000000, 91400000, 200000, 16, oops\n",
        )
        with pytest.raises(ValueError, match="line 2"):
            read_rtlpower_scan(path)

    def test_non_positive_step_rejected(self, tmp_path):
        path = self._write(tmp_path, "d, t, 91000000, 91400000, 0, 16, -40\n")
        with pytest.raises(ValueError, match="hz_step"):
            read_rtlpower_scan(path)

    def test_empty_scan_rejected(self, tmp_path):
        path = self._write(tmp_path, "\n\n")
        with pytest.raises(ValueError, match="no scan rows"):
            read_rtlpower_scan(path)


class TestRtlPowerToDataset:
    def _rows(self):
        freqs = np.array([91.0, 91.2, 91.4])
        return [
            (freqs, np.array([-40.0, -41.0, -42.0])),
            (freqs, np.array([-43.0, -44.0, -45.0])),
        ]

    def test_nearest_reading_within_half_step(self):
        ds = rtlpower_rows_to_dataset(self._rows(), (91.2,), 2.4, Position(1.0, 2.0, 0.0))
        assert ds.features.shape == (2, 1)
        assert ds.features[0, 0] == -41.0
        assert ds.features[1, 0] == -44.0
        assert np.array_equal(ds.labels, [[1.0, 2.0, 0.0], [1.0, 2.0, 0.0]])

    def test_out_of_range_band_frequency_rejected(self):
        with pytest.raises(ValueError, match="no frequency within"):
            rtlpower_rows_to_dataset(self._rows(), (95.0,), 0.2, Position(0, 0, 0))

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            rtlpower_rows_to_dataset(self._rows(), (), 2.4, Position(0, 0, 0))
