import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nrqfl import cli, flsim, qagg
from nrqfl.cli import CSV_HEADER, main
from nrqfl.config import (
    DEFAULT_PROBES,
    INVERSION_FLOOR,
    MITIGATION_FLAGS,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    fit_calibration,
    group_depths,
    group_sizes,
    parse_config,
)
from nrqfl.encode import HALF_PI, WeightBounds, angle_to_z
from nrqfl.qcore import DensityMatrix, KrausChannel, NoiseModel

ROOT = Path(__file__).resolve().parents[1]

FAST = {"n_clients": 4, "samples_per_client": 80, "test_samples": 200, "rounds": 3, "shots": 512}
CSV_COLUMNS = ["round", "strategy", "accuracy", "f1", "grad_variance", "bytes_up", "bytes_down", "selected", "wall_ms"]


def reference_calibration(noise, depth):
    """The calibration fit as one exact aggregation circuit per probe: the oracle of `fit_calibration`."""
    ideal, noisy = [], []
    for a in DEFAULT_PROBES:
        ideal.append(angle_to_z(a))
        noisy.append(qagg.run_plan(qagg.build_plan([a] * depth), noise, 1, None, exact=True).z_raw)
    lam_hat, b_hat = np.polyfit(ideal, noisy, 1)
    return float(lam_hat), float(b_hat)


@pytest.fixture
def partition_builds(monkeypatch):
    """The positional arguments of every `flsim.make_partition` call the test makes."""
    built, make = [], flsim.make_partition
    monkeypatch.setattr(flsim, "make_partition", lambda *a, **k: built.append(a) or make(*a, **k))
    return built


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
        noise = {"gamma": 1.0}  # nrqfl's calibration cannot invert full damping (below)
        assert config_from_dict({"noise": noise, "strategies": ["fedavg", "qfl"]}).noise.gamma == 1.0

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

    def test_non_positive_calibration_slope_only_rejected_where_calibrated(self):
        noise = {"readout_flip": 0.6}  # a flip above 1/2 turns the fitted slope negative
        assert config_from_dict({"noise": noise, "strategies": ["fedavg", "qfl"]}).noise.readout_flip == 0.6
        assert config_from_dict({"noise": noise, "mitigation": ["channel_inversion"]}).noise.readout_flip == 0.6
        with pytest.raises(ConfigError, match="noise.readout_flip"):
            config_from_dict({"noise": noise})
        # full dephasing leaves <Z> flat in the ideal value at even depth only
        assert config_from_dict({"noise": {"p_deph": 1.0}, "n_clients": 5}).n_clients == 5
        with pytest.raises(ConfigError, match="noise.p_deph"):
            config_from_dict({"noise": {"p_deph": 1.0}, "n_clients": 13, "selection_m": 11})  # depths 6 and 5

    def test_calibration_check_agrees_with_calibrate(self):
        # includes slopes that are 0 up to rounding: flip 1/2, full dephasing at even depth, full damping
        grid = itertools.product((0.0, 0.05), (0.0, 0.5, 1.0), (0.0, 0.03, 1.0), (0.0, 0.5, 0.6, 1.0), (1, 2, 5, 6, 9))
        outcomes = set()
        for p_depol, p_deph, gamma, flip, depth in grid:
            noise = NoiseModel(p_depol=p_depol, p_deph=p_deph, gamma=gamma, readout_flip=flip)
            lam_hat, b_hat = reference_calibration(noise, depth)
            outcomes.add(lam_hat >= INVERSION_FLOOR)
            if lam_hat >= INVERSION_FLOOR:
                assert fit_calibration(noise, depth) == (lam_hat, b_hat)
                assert qagg.calibrate(noise, depth) == qagg.TransferFunction(lam_hat, b_hat)
            else:
                for fit in (fit_calibration, qagg.calibrate):
                    with pytest.raises(ValueError, match="cannot invert"):
                        fit(noise, depth)
        assert outcomes == {True, False}

    def test_out_dir_must_be_a_string(self):
        with pytest.raises(ConfigError, match="out_dir"):
            config_from_dict({"out_dir": 5})

    def test_group_depths_are_the_distinct_group_sizes(self):
        for n in range(1, 200):
            assert group_depths(n) == sorted(set(group_sizes(n)), reverse=True)
        # the parse-time depth checks never build one entry per group
        assert config_from_dict({"n_clients": 13_661_861_997}).n_clients == 13_661_861_997


_DEFAULTS = ExperimentConfig()
_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))
_NOISE_KEYS = ("p_depol", "p_deph", "gamma", "readout_flip")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_NAMES = st.sampled_from(("fedavg", "qfl", "nrqfl", *sorted(MITIGATION_FLAGS), "bogus"))


def _typed_value(key):
    """A value of the key's own type, mostly in range, so that the deeper checks are reached."""
    default = getattr(_DEFAULTS, key, None)
    if key == "noise":
        return st.dictionaries(st.sampled_from(_NOISE_KEYS + ("typo",)), st.floats(0, 1) | _JSON, max_size=4)
    if key in ("strategies", "mitigation"):
        return st.lists(_NAMES | _JSON, max_size=4)
    if key == "selection_m":
        return st.none() | st.integers(0, 20)
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-1, 20)
    if isinstance(default, float):
        return st.floats(0, 2) | st.integers(0, 3)
    return st.text(max_size=4)


def _config_value(key):
    """One value in four is arbitrary JSON, the rest are typed."""
    return st.integers(0, 3).flatmap(lambda i: _JSON if i == 0 else _typed_value(key))


_CONFIG_OBJECTS = st.lists(st.sampled_from(_CONFIG_KEYS + ("typo",)), unique=True, max_size=6).flatmap(
    lambda keys: st.fixed_dictionaries({k: _config_value(k) for k in keys}))


@given(_CONFIG_OBJECTS)
@settings(max_examples=150, deadline=None)
def test_any_json_object_is_a_config_or_a_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


_SMALL = {"samples_per_client": 12, "test_samples": 20, "rounds": 2}
_COUNTS = ("n_clients", "samples_per_client", "test_samples", "classes", "feature_dim", "rounds", "local_epochs",
           "repeats", "n_servers")
_RUN_OBJECTS = st.lists(st.sampled_from([k for k in _CONFIG_KEYS if k != "out_dir"]), unique=True, max_size=6).flatmap(
    lambda keys: st.fixed_dictionaries({k: _config_value(k) for k in keys}))


@given(_RUN_OBJECTS)
@settings(max_examples=150, deadline=None)
def test_any_small_accepted_config_runs_to_finite_numbers_or_diverges(data):
    # the sizes a config leaves out stay small; larger ones are filtered out before anything is built
    try:
        cfg = config_from_dict({**_SMALL, **data})
    except ConfigError:
        return
    assume(all(getattr(cfg, key) <= 64 for key in _COUNTS) and cfg.shots <= 4096)
    try:
        runs = flsim.run_experiment(cfg)
    except ValueError as exc:  # a huge lr or class_sep diverges in the weights or, first, in the loss
        assert str(exc) == flsim.WEIGHTS_DIVERGED or re.fullmatch(
            r"training loss diverged \(loss=\S+\); reduce the learning rate \(lr\) or class_sep", str(exc))
        return
    for records in runs.values():
        values = [getattr(r, f.name) for r in records for f in fields(r)]
        assert all(math.isfinite(v) for v in values if isinstance(v, float))
        json.dumps(cli._summary(records), allow_nan=False)  # raises on a NaN or an infinity


def test_cli_import_does_not_load_scipy():
    code = "import sys, nrqfl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_does_not_load_the_invariant_suite():
    code = "import sys, nrqfl.cli; print('nrqfl.validate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
        ({"noise": {"readout_flip": 0.6}, "rounds": 1, "strategies": ["nrqfl"]}, "noise.readout_flip"),
        ({"noise": {"p_deph": 1.0}, "n_clients": 4, "rounds": 1, "strategies": ["nrqfl"]}, "noise.p_deph"),
        ({"noise": {"gamma": 1.0}}, "noise.gamma"),
        ({"shots": 2**63}, "shots"),
        ({"lr": 10**400}, "lr"),
        ({"n_clients": 1}, "n_clients"),
        ({"classes": 1}, "classes"),
        ({"feature_dim": 1}, "feature_dim"),
        ({"feature_dim": 9}, "feature_dim"),
        ({"noise": {"gamma": 0.99999}, "selection_m": 3}, "noise"),
        ({"strategies": ["qfl", "nrqfl", "qfl"]}, "strategies"),
        (["--strategy", "fedavg,fedavg"], "strategies"),
        ({"fixed_weight_bound": 1e308, "samples_per_client": 12, "test_samples": 20, "rounds": 2},
         "fixed_weight_bound"),
    ],
    ids=["mitigation", "seed-str", "seed-bool", "noise-bool", "noise-str", "exact-str", "timing-int", "dead-entropy",
         "selection-bool", "selection-str", "lr-str", "skew-null", "sep-bool", "bound-str",
         "depol-calibration", "depol-inversion", "flip-calibration", "deph-calibration", "gamma-calibration", "shots-2**63", "lr-huge-int",
         "one-client", "one-class", "features-1", "features-9", "near-dead-entropy", "repeated-strategy",
         "repeated-strategy-flag", "bound-width-overflow"],
)
def test_bad_config_exits_2_naming_key(tmp_path, capsys, extra, key):
    # a dict goes into the config file, a list is passed as command-line flags
    flags = extra if isinstance(extra, list) else []
    out = tmp_path / "never"
    cfg_path = write_cfg(tmp_path, None if flags else extra)
    assert main(["run", "--config", str(cfg_path), "--out", str(out), *flags]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


class TestCmdRun:
    def test_row_count_and_schema(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        with (out / "rounds.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS == CSV_HEADER
        assert len(rows) - 1 == FAST["rounds"] * 3  # three strategies

    def test_one_partition_per_run(self, tmp_path, partition_builds):
        assert main(["run", "--config", str(write_cfg(tmp_path)), "--out", str(tmp_path / "out")]) == 0
        assert len(partition_builds) == 1

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

    def test_divergent_run_exits_3_without_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_cfg(tmp_path, {"lr": 1e300})), "--out", str(out)]) == 3
        assert "training weights diverged; reduce the learning rate" in capsys.readouterr().err
        assert not (out / "rounds.csv").exists()

    def test_huge_class_sep_exits_3_naming_it(self, tmp_path, capsys):
        # the features' scale overflows the logits, so the divergence names class_sep as well as lr
        cfg_path = write_cfg(tmp_path, {"class_sep": 1e155, "samples_per_client": 12, "test_samples": 20, "rounds": 2})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert "class_sep" in capsys.readouterr().err
        assert not (out / "rounds.csv").exists()

    def test_strategy_flag(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out), "--strategy", "fedavg"])
        with (out / "rounds.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["strategy"] for r in rows} == {"fedavg"}

    @pytest.mark.parametrize("extra", [
        {"rounds": 2},
        {"rounds": 2, "n_servers": 2, "noise": {"p_depol": 0.03, "p_deph": 0.02, "gamma": 0.02, "readout_flip": 0.01}},
    ], ids=["three-strategies", "all-noise-two-servers"])
    def test_run_builds_no_dense_object(self, tmp_path, monkeypatch, extra):
        # every P(1) and every epsilon comes from the Bloch engine; the dense chain is only an oracle
        built = []
        for cls in (DensityMatrix, KrausChannel):
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, init=cls.__post_init__: built.append(type(self).__name__) or init(self))
        assert main(["run", "--config", str(write_cfg(tmp_path, extra)), "--out", str(tmp_path / "out")]) == 0
        assert built == []


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

    @pytest.mark.parametrize("axis, values, setting", [
        ("noise", (0.0, 0.05), lambda v: {"noise": NoiseModel(p_depol=v, gamma=0.03)}),
        ("shots", (512, 2048), lambda v: {"shots": v}),
    ], ids=["noise", "shots"])
    def test_rows_are_the_runs_they_name(self, tmp_path, axis, values, setting):
        # the axis sets one config key and nothing else, so a row is one `run_experiment` of that config
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rounds": 3, "strategies": ["qfl", "nrqfl"]}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--seed", "1", "--out", str(out), "--axis", axis,
                     "--values", ",".join(str(v) for v in values)]) == 0
        with (out / "sweep.csv").open() as fh:
            rows = [(r["final_accuracy"], r["final_f1"], r["mean_agg_error"], r["bytes_total"])
                    for r in csv.DictReader(fh)]
        expected = []
        for v in values:
            runs = flsim.run_experiment(ExperimentConfig(seed=1, rounds=3, strategies=("qfl", "nrqfl"), **setting(v)))
            for records in runs.values():
                expected.append((cli._fmt(records[-1].accuracy), cli._fmt(records[-1].f1),
                                 cli._fmt(float(np.mean([r.agg_error for r in records]))),
                                 str(sum(r.bytes_up + r.bytes_down for r in records))))
        assert rows == expected

    def test_one_partition_per_value(self, tmp_path, partition_builds):
        assert main(["sweep", "--config", str(write_cfg(tmp_path, {"rounds": 1})), "--out", str(tmp_path / "out"),
                     "--axis", "shots", "--values", "512,1024,2048"]) == 0
        assert len(partition_builds) == 3

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

    @pytest.mark.parametrize("strategy, n_servers", [("nrqfl", 1), ("nrqfl", 3), ("qfl", 3)])
    def test_variance_column_is_the_run_estimator(self, strategy, n_servers):
        # nrqfl averages `repeats` shot draws before mitigating; every quantum strategy takes the server median
        cfg = ExperimentConfig(n_servers=n_servers)
        if strategy == "nrqfl":
            acfg = qagg.AggregationConfig(shots=cfg.shots, repeats=cfg.repeats, mitigation=cfg.mitigation)
        else:
            acfg = qagg.AggregationConfig(shots=cfg.shots)
        depth, trials = 5, 2000
        angles = np.repeat(np.linspace(0.3, 0.9, depth)[:, None], trials, axis=1)
        estimates = qagg.replicated_aggregate(angles, WeightBounds(0.0, HALF_PI), acfg, cfg.noise,
                                              n_servers, seed_key=(17,)).vector
        assert cli._sweep_variance(cfg, strategy, depth) == pytest.approx(np.var(estimates, ddof=1), rel=0.25)

    def test_depth_sweep_uses_deepest_group(self, tmp_path, monkeypatch):
        # more than 9 clients are split into near-even groups: 10 -> 5+5, ..., 16 -> 8+8
        depths = []
        monkeypatch.setattr(cli, "_sweep_variance", lambda cfg, strategy, depth: depths.append(depth) or 0.0)
        cfg_path = write_cfg(tmp_path, {"strategies": ["fedavg"], "rounds": 1, "samples_per_client": 5})
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--axis", "depth", "--values", "4,9,10,11,12,13,14,15,16"])
        assert code == 0
        assert depths == [4, 9, 5, 6, 6, 7, 7, 8, 8]


    @pytest.mark.parametrize("axis, values, key", [
        ("noise", "2,0.1", "noise.p_depol"),
        ("noise", "nan,0.1", "noise.p_depol"),
        ("noise", "0.1,-0.5", "noise.p_depol"),
        ("shots", "nan,1024", "shots"),
        ("shots", "1024.7,2048", "shots"),
        ("shots", "1024,inf", "shots"),
        ("depth", "2.5,3", "n_clients"),
        ("depth", "3,4,1", "n_clients"),
    ])
    def test_bad_value_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch, axis, values, key):
        runs = []
        monkeypatch.setattr(cli.flsim, "run_experiment", lambda cfg: runs.append(cfg))
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(write_cfg(tmp_path)), "--out", str(out),
                     "--axis", axis, "--values", values])
        assert code == 2
        assert key in capsys.readouterr().err
        assert runs == [] and not out.exists()

    def test_zero_rounds_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_cfg(tmp_path, {"rounds": 0})
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        runs = []
        monkeypatch.setattr(cli.flsim, "run_experiment", lambda cfg: runs.append(cfg))
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out), "--axis", "shots", "--values", "512,1024"])
        assert code == 2
        assert "rounds" in capsys.readouterr().err
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("mitigation, relation", [
        ([], "equal"),
        (["channel_inversion"], "greater"),
    ], ids=["none", "channel-inversion"])
    def test_nrqfl_variance_goes_through_its_mitigation(self, tmp_path, mitigation, relation):
        # unmitigated, nrqfl's estimator is qfl's; inverting the channel amplifies its shot noise
        cfg_path = write_cfg(tmp_path, {"strategies": ["qfl", "nrqfl"], "rounds": 1, "mitigation": mitigation})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--axis", "shots",
                     "--values", "512,2048"]) == 0
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        for qfl, nrqfl in zip(rows[::2], rows[1::2]):
            assert (qfl["strategy"], nrqfl["strategy"]) == ("qfl", "nrqfl")
            if relation == "equal":
                assert nrqfl["empirical_variance"] == qfl["empirical_variance"]
            else:
                assert float(nrqfl["empirical_variance"]) > float(qfl["empirical_variance"])

    def test_unmitigated_sweep_needs_no_calibration(self, tmp_path):
        # nothing calibrates, so a readout flip of 1/2 is a valid nrqfl sweep
        cfg_path = write_cfg(tmp_path, {"strategies": ["nrqfl"], "rounds": 1, "mitigation": [],
                                        "noise": {"readout_flip": 0.5}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--axis", "shots",
                     "--values", "512,1024"]) == 0
        with (out / "sweep.csv").open() as fh:
            assert len(list(csv.DictReader(fh))) == 2


class TestCmdValidate:
    def test_negative_control_fails(self, capsys):
        assert main(["validate", "--inject-broken-channel"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("[PASS]") for line in lines) == 15
        assert [line.split(":")[0] for line in lines if line.startswith("[FAIL]")] == [
            "[FAIL] injected_broken_channel_cptp"]
