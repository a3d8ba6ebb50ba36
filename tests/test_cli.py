import csv
import json
from pathlib import Path

import pytest

from nrqfl.cli import CSV_HEADER, main
from nrqfl.config import ConfigError, ExperimentConfig, config_from_dict, parse_config
from nrqfl.qcore import NoiseModel

FAST = {"n_clients": 4, "samples_per_client": 80, "test_samples": 200, "rounds": 3, "shots": 512}


def write_cfg(tmp_path, extra=None):
    data = dict(FAST)
    if extra:
        data.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


class TestParseConfig:
    def test_empty_object_defaults(self):
        cfg = config_from_dict({})
        assert cfg.n_clients == 5
        assert cfg.rounds == 50
        assert cfg.noise.p_depol == 0.05
        assert cfg.noise.gamma == 0.03

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="noise.p_depol"):
            config_from_dict({"noise": {"p_depol": 1.5}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key: typo"):
            config_from_dict({"typo": 1})

    def test_cli_override_precedence(self, tmp_path):
        path = write_cfg(tmp_path, {"seed": 1})
        cfg = parse_config(path, {"seed": 7})
        assert cfg.seed == 7

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/does/not/exist.json")

    def test_invalid_strategy(self):
        with pytest.raises(ConfigError, match="strategies"):
            config_from_dict({"strategies": ["fedavg", "magic"]})

    def test_rounds_zero_allowed(self):
        assert config_from_dict({"rounds": 0}).rounds == 0

    def test_degenerate_entropy_noise_allowed_without_selection(self):
        # full selection draws no entropy bits; with selection_m < n_clients it exits 2 (below)
        assert config_from_dict({"noise": {"gamma": 1.0}}).noise.gamma == 1.0

    def test_unmitigable_depolarizing_only_rejected_where_mitigated(self):
        noise = {"p_depol": 0.8}  # 1 - 4p/3 < 0: odd-depth circuits invert the sign of <Z>
        assert config_from_dict({"noise": noise, "strategies": ["fedavg", "qfl"]}).noise.p_depol == 0.8
        assert config_from_dict({"noise": noise, "mitigation": ["measurement_averaging"]}).noise.p_depol == 0.8
        assert config_from_dict({"noise": noise, "n_clients": 4}).n_clients == 4  # (1 - 4p/3)^4 = 2e-5
        with pytest.raises(ConfigError, match="noise.p_depol"):
            config_from_dict({"noise": noise, "n_clients": 13, "selection_m": 11})  # groups of 6 and 5
        with pytest.raises(ConfigError, match="noise.p_depol"):
            config_from_dict({"noise": {"p_depol": 0.75}, "n_clients": 4})

    def test_bool_noise_rejected_on_direct_construction(self):
        with pytest.raises(ConfigError, match="noise.p_depol"):
            ExperimentConfig(noise=NoiseModel(p_depol=True))


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"mitigation": ["bogus"]}, "mitigation"),
        ({"seed": "abc"}, "seed"),
        ({"seed": True}, "seed"),
        ({"noise": {"p_depol": True}}, "p_depol"),
        ({"noise": {"gamma": "0.1"}}, "gamma"),
        ({"exact_expectation": "yes"}, "exact_expectation"),
        ({"record_timing": 1}, "record_timing"),
        ({"noise": {"gamma": 1.0}, "selection_m": 3}, "noise"),
        ({"selection_m": True}, "selection_m"),
        ({"selection_m": "3"}, "selection_m"),
        ({"lr": "x"}, "lr"),
        ({"skew": None}, "skew"),
        ({"class_sep": True}, "class_sep"),
        ({"fixed_weight_bound": "4"}, "fixed_weight_bound"),
        ({"n_clients": 5, "noise": {"p_depol": 0.8}}, "noise.p_depol"),
        ({"n_clients": 5, "noise": {"p_depol": 0.8}, "mitigation": ["channel_inversion"]}, "noise.p_depol"),
    ],
    ids=["mitigation", "seed-str", "seed-bool", "noise-bool", "noise-str", "exact-str", "timing-int", "dead-entropy",
         "selection-bool", "selection-str", "lr-str", "skew-null", "sep-bool", "bound-str",
         "depol-calibration", "depol-inversion"],
)
def test_bad_config_exits_2_naming_key(tmp_path, capsys, extra, key):
    out = tmp_path / "never"
    assert main(["run", "--config", str(write_cfg(tmp_path, extra)), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


class TestCmdRun:
    def test_row_count_and_schema(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        with (out / "rounds.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) - 1 == FAST["rounds"] * 3  # three strategies

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"seed": 5})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        main(["run", "--config", str(cfg_path), "--out", str(out2)])
        assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()

    def test_summary_matches_final_rows(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        with (out / "rounds.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        for strategy, info in summary["strategies"].items():
            last = [r for r in rows if r["strategy"] == strategy][-1]
            assert float(last["accuracy"]) == pytest.approx(info["final_accuracy"])

    def test_config_error_exit_code_and_no_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"noise": {"p_depol": 2.0}}')
        out = tmp_path / "never"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_strategy_flag(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out), "--strategy", "fedavg"])
        with (out / "rounds.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["strategy"] for r in rows} == {"fedavg"}


class TestCmdSweep:
    def test_noise_sweep_row_count(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"strategies": ["fedavg", "nrqfl"]})
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--axis", "noise", "--values", "0,0.05,0.1"])
        assert code == 0
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2

    def test_single_value_rejected(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--axis", "shots", "--values", "1024"])
        assert code == 2

    def test_depth_sweep_variance_monotone(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"strategies": ["nrqfl"], "rounds": 2})
        out = tmp_path / "out"
        main(["sweep", "--config", str(cfg_path), "--out", str(out),
              "--axis", "depth", "--values", "2,5,8"])
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        variances = [float(r["empirical_variance"]) for r in rows]
        assert variances == sorted(variances)


class TestCmdValidate:
    def test_negative_control_fails(self):
        assert main(["validate", "--inject-broken-channel"]) == 1
