import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nrqfl import cli, config, flsim, qagg, validate
from nrqfl.cli import CSV_HEADER, main
from nrqfl.config import (
    DEFAULT_PROBES,
    INVERSION_FLOOR,
    MITIGATIONS,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    fit_calibration,
    group_depths,
    group_sizes,
    mitigation_transfer,
    parse_config,
)
from nrqfl.encode import HALF_PI, WeightBounds, angle_to_z
from nrqfl.qcore import DensityMatrix, KrausChannel, NoiseModel

ROOT = Path(__file__).resolve().parents[1]

FAST = {"n_clients": 4, "samples_per_client": 80, "test_samples": 200, "rounds": 3, "shots": 512}
CSV_COLUMNS = ["round", "strategy", "accuracy", "f1", "grad_variance", "bytes_up", "bytes_down", "selected"]


def reference_calibration(noise, depth):
    """The calibration fit as one exact aggregation circuit per probe: the oracle of `fit_calibration`."""
    ideal, noisy = [], []
    for a in DEFAULT_PROBES:
        ideal.append(angle_to_z(a))
        noisy.append(qagg.run_plan(config.fused_gates([a] * depth), noise, 1, None, exact=True).z_raw)
    lam_hat, b_hat = np.polyfit(ideal, noisy, 1)
    return float(lam_hat), float(b_hat)


@pytest.fixture
def partition_builds(monkeypatch):
    """The positional arguments of every `flsim.make_partition` call the test makes."""
    built, make = [], flsim.make_partition
    monkeypatch.setattr(flsim, "make_partition", lambda *a, **k: built.append(a) or make(*a, **k))
    return built


@pytest.fixture(params=["under-a-file", "a-file"])
def unusable_out(request, tmp_path):
    """An --out path that cannot be made a directory: one below a regular file, or that file itself."""
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    return afile / "sub" if request.param == "under-a-file" else afile


@pytest.fixture
def round_runs(monkeypatch):
    """Every config `flsim.run_experiment` is called with."""
    runs, run = [], flsim.run_experiment
    monkeypatch.setattr(flsim, "run_experiment", lambda cfg: runs.append(cfg) or run(cfg))
    return runs


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

    def test_one_shots_default(self):
        # a library AggregationConfig draws the shots a config file's rounds do
        assert config.AggregationConfig().shots == ExperimentConfig().shots == config.DEFAULT_SHOTS

    def test_noise_object_replaces_the_whole_default(self):
        # a key the object leaves out is 0, not its default
        assert config_from_dict({"noise": {"p_depol": 0.1}}).noise == NoiseModel(p_depol=0.1)
        assert config_from_dict({"noise": {}}).noise == NoiseModel()

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

    def test_full_selection_runs_under_degenerate_entropy_noise(self, tmp_path):
        # selection_m == n_clients draws no entropy bits, so the entropy floor never applies
        cfg_path = write_cfg(tmp_path, {"noise": {"gamma": 1.0}, "selection_m": 4, "strategies": ["fedavg", "qfl"]})
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "rounds.csv").is_file()

    def test_unmitigable_depolarizing_only_rejected_where_mitigated(self):
        noise = {"p_depol": 0.8}  # 1 - 4p/3 < 0: odd-depth circuits invert the sign of <Z>
        assert config_from_dict({"noise": noise, "strategies": ["fedavg", "qfl"]}).noise.p_depol == 0.8
        assert config_from_dict({"noise": noise, "mitigation": "none"}).noise.p_depol == 0.8
        assert config_from_dict({"noise": noise, "n_clients": 4}).n_clients == 4  # (1 - 4p/3)^4 = 2e-5
        with pytest.raises(ConfigError, match="noise.p_depol"):
            config_from_dict({"noise": noise, "n_clients": 13, "selection_m": 11})  # groups of 6 and 5
        with pytest.raises(ConfigError, match="noise.p_depol"):
            config_from_dict({"noise": {"p_depol": 0.75}, "n_clients": 4})

    def test_flag_list_names_the_one_setting_and_shots(self):
        with pytest.raises(ConfigError, match=r"^mitigation must be one of none, channel_inversion, calibration "
                                              r"\(measurement averaging is set by shots alone\)"):
            config_from_dict({"mitigation": ["measurement_averaging", "calibration"]})

    def test_readme_configs_parse(self):
        blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
        assert len(blocks) >= 2  # the CLI example and the mitigation settings
        for block in blocks:
            assert isinstance(config_from_dict(json.loads(block)), ExperimentConfig)

    def test_bool_noise_rejected_on_direct_construction(self):
        with pytest.raises(ValueError, match=r"^noise\.p_depol must be a probability in \[0, 1\], got True$"):
            NoiseModel(p_depol=True)
        with pytest.raises(ConfigError, match=r"^noise\.p_depol"):
            config_from_dict({"noise": {"p_depol": True}})

    def test_non_positive_calibration_slope_only_rejected_where_calibrated(self):
        noise = {"readout_flip": 0.6}  # a flip above 1/2 turns the fitted slope negative
        assert config_from_dict({"noise": noise, "strategies": ["fedavg", "qfl"]}).noise.readout_flip == 0.6
        assert config_from_dict({"noise": noise, "mitigation": "channel_inversion"}).noise.readout_flip == 0.6
        with pytest.raises(ConfigError, match="noise.readout_flip"):
            config_from_dict({"noise": noise})
        # full dephasing leaves <Z> flat in the ideal value at even depth only
        assert config_from_dict({"noise": {"p_deph": 1.0}, "n_clients": 5}).n_clients == 5
        with pytest.raises(ConfigError, match="noise.p_deph"):
            config_from_dict({"noise": {"p_deph": 1.0}, "n_clients": 13, "selection_m": 11})  # depths 6 and 5

    def test_calibration_check_agrees_with_calibrate(self, tmp_path, capsys):
        # includes slopes that are 0 up to rounding: flip 1/2, full dephasing at even depth, full damping;
        # p_depol = 0.75 zeroes the attenuation (1 - 4p/3)^d that channel inversion and calibration divide by
        grid = itertools.product((0.0, 0.05, 0.75), (0.0, 0.5, 1.0), (0.0, 0.03, 1.0), (0.0, 0.5, 0.6, 1.0),
                                 (1, 2, 5, 6, 9))
        z = np.concatenate([[0.0, -0.0, 1.0, -1.0, 1.5, -1.5, 2.0, -7.0, 5e-324, -5e-324, np.inf, -np.inf],
                            np.random.default_rng(0).uniform(-1.5, 1.5, size=200)])
        outcomes = {m: set() for m in MITIGATIONS}
        for p_depol, p_deph, gamma, flip, depth in grid:
            noise = NoiseModel(p_depol=p_depol, p_deph=p_deph, gamma=gamma, readout_flip=flip)
            attenuation = (1.0 - 4.0 * p_depol / 3.0) ** depth
            lam_hat, b_hat = reference_calibration(noise, depth)
            if attenuation >= INVERSION_FLOOR:
                if lam_hat >= INVERSION_FLOOR:
                    assert fit_calibration(noise, depth) == (lam_hat, b_hat)
                    assert qagg.calibrate(noise, depth) == qagg.TransferFunction(lam_hat, b_hat)
                else:
                    for fit in (fit_calibration, qagg.calibrate):
                        with pytest.raises(ValueError, match="cannot invert"):
                            fit(noise, depth)
            # the formulas each mitigation applied before it was a transfer; None where it cannot invert
            formulas = {
                "none": lambda v: np.clip(v, -1.0, 1.0),
                "channel_inversion": (lambda v: np.clip(v / attenuation, -1.0, 1.0))
                if attenuation >= INVERSION_FLOOR else None,
                "calibration": (lambda v: np.clip((v - b_hat) / lam_hat, -1.0, 1.0))
                if attenuation >= INVERSION_FLOOR and lam_hat >= INVERSION_FLOOR else None,
            }
            for mitigation, formula in formulas.items():
                outcomes[mitigation].add(formula is not None)
                if formula is not None:
                    assert mitigation_transfer(mitigation, noise, depth).invert(z).tobytes() == formula(z).tobytes()
                    continue
                with pytest.raises(ConfigError) as run_error:
                    mitigation_transfer(mitigation, noise, depth)
                # nrqfl runs one depth-d group: all d clients, or d of two selected
                cfg_path = write_cfg(tmp_path, {"noise": asdict(noise), "mitigation": mitigation, "rounds": 1,
                                                "n_clients": max(depth, 2), "selection_m": depth})
                out = tmp_path / "never"
                assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
                err = capsys.readouterr().err
                assert err == f"config error: {run_error.value}\n" or "selection entropy circuit" in err
                assert not out.exists()
        assert outcomes == {"none": {True}, "channel_inversion": {True, False}, "calibration": {True, False}}

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
_NAMES = st.sampled_from(("fedavg", "qfl", "nrqfl", *MITIGATIONS, "bogus"))


def _typed_value(key):
    """A value of the key's own type, mostly in range, so that the deeper checks are reached."""
    default = getattr(_DEFAULTS, key, None)
    if key == "noise":
        return st.dictionaries(st.sampled_from(_NOISE_KEYS + ("typo",)), st.floats(0, 1) | _JSON, max_size=4)
    if key == "strategies":
        return st.lists(_NAMES | _JSON, max_size=4)
    if key == "mitigation":  # a name, or a list: the flag-set format that is now rejected
        return _NAMES | st.lists(_NAMES | _JSON, max_size=4)
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
    assert config_from_dict(cfg.to_dict()) == cfg  # summary.json's config echo parses back to the run's config


_AGGREGATION_KEYS = tuple(f.name for f in fields(config.AggregationConfig))
_WORKLOAD_KEYS = ("n_clients", "classes", "feature_dim", "samples_per_client", "test_samples", "skew", "class_sep")


def _held(key, value):
    """Build what holds `key` as a library caller would, with `value` and every other setting at its default."""
    if key in _NOISE_KEYS:
        return NoiseModel(**{key: value})
    if key in _AGGREGATION_KEYS:
        return config.AggregationConfig(**{key: value})
    if key == "n_servers":
        return qagg.replicated_aggregate([[1.0]], WeightBounds(0, 2), config.AggregationConfig(), NoiseModel(), value)
    workload = {k: getattr(_DEFAULTS, k) for k in _WORKLOAD_KEYS}
    return flsim.make_partition(**{**workload, key: value}, seed=0)


def _parsed_message(key, value):
    """The ConfigError message of a config file that sets `key` to `value`, or None if it parses.

    Only fedavg runs, so no mitigation or selection check looks at the value.
    """
    setting = {"noise": {key: value}} if key in _NOISE_KEYS else {key: value}
    try:
        config_from_dict({"strategies": ["fedavg"], **setting})
    except ConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("key, value", [
    ("p_depol", True), ("p_depol", "0.1"), ("p_depol", None),
    ("shots", True), ("shots", 2.5), ("shots", 2**63), ("shots", 0),
    ("exact_expectation", "no"), ("mitigation", "bogus"),
    ("n_clients", 1), ("feature_dim", 9), ("skew", True),
    ("class_sep", float("nan")), ("class_sep", -2.0), ("class_sep", True),
    ("n_servers", True), ("n_servers", 2.5),
])
def test_holding_type_rejects_with_the_config_message(key, value):
    with pytest.raises(ValueError) as held:
        _held(key, value)
    assert str(held.value) == _parsed_message(key, value)
    assert str(held.value).startswith(f"noise.{key} " if key in _NOISE_KEYS else f"{key} ")


@given(st.sampled_from(_NOISE_KEYS + _AGGREGATION_KEYS + _WORKLOAD_KEYS).flatmap(lambda key: st.tuples(
    st.just(key), _JSON | st.floats(-0.5, 1.5) | st.integers(-2, 10) | st.integers(2**62, 2**64) | _NAMES)))
@settings(max_examples=300, deadline=None)
def test_config_rejects_a_value_exactly_when_its_holding_type_does(key_value):
    key, value = key_value
    parsed = _parsed_message(key, value)
    if parsed is None and key in _WORKLOAD_KEYS:
        assume(not isinstance(value, int) or value <= 64)  # an accepted size is built; keep it small
    try:
        _held(key, value)
    except ValueError as exc:
        assert str(exc) == parsed
    else:
        assert parsed is None


def _object_text(pairs) -> str:
    """A JSON object's text with the (key, value) pairs in order; unlike a dict, it can repeat a key."""
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


_CONFIG_TEXTS = st.lists(st.sampled_from(_CONFIG_KEYS + ("typo",)), max_size=6).flatmap(
    lambda keys: st.tuples(*(st.tuples(st.just(k), _config_value(k)) for k in keys))).map(_object_text)


@given(st.binary(max_size=40) | st.text(max_size=40).map(str.encode) | _CONFIG_TEXTS.map(str.encode))
@settings(max_examples=200, deadline=None)
def test_any_config_file_is_a_config_or_a_config_error(content):
    # the file is made here: a function-scoped tmp_path would be shared by every example
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_bytes(content)
        # the overrides `main` passes, every value None when no flag is given
        overrides = cli._overrides(cli.build_parser().parse_args(["run", "--config", str(path)]))
        try:
            cfg = parse_config(path, overrides)
        except ConfigError:
            return
    assert isinstance(cfg, ExperimentConfig)


_SMALL = {"samples_per_client": 12, "test_samples": 20, "rounds": 2}
_COUNTS = ("n_clients", "samples_per_client", "test_samples", "classes", "feature_dim", "rounds", "local_epochs",
           "n_servers")
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
    assume(all(getattr(cfg, key) <= 64 for key in _COUNTS) and cfg.shots <= _DEFAULTS.shots)
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
        ({"mitigation": ["calibration"]}, "mitigation"),
        ({"mitigation": "bogus"}, "mitigation"),
        ({"seed": "abc"}, "seed"),
        ({"seed": True}, "seed"),
        ({"noise": {"p_depol": True}}, "p_depol"),
        ({"noise": {"gamma": "0.1"}}, "gamma"),
        ({"exact_expectation": "yes"}, "exact_expectation"),
        ({"record_timing": False}, "record_timing"),  # the removed knob, as every older summary.json echoes it
        ({"repeats": 3}, "repeats"),  # folded into shots: an older config's r repeats of S shots are "shots": r * S
        ({"noise": {"gamma": 1.0}, "selection_m": 3}, "noise"),
        ({"selection_m": True}, "selection_m"),
        ({"selection_m": "3"}, "selection_m"),
        ({"lr": "x"}, "lr"),
        ({"skew": None}, "skew"),
        ({"class_sep": True}, "class_sep"),
        ({"fixed_weight_bound": "4"}, "fixed_weight_bound"),
        ({"n_clients": 5, "noise": {"p_depol": 0.8}}, "noise.p_depol"),
        ({"n_clients": 5, "noise": {"p_depol": 0.8}, "mitigation": "channel_inversion"}, "noise.p_depol"),
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
        ('{"seed": 1, "seed": 2, "rounds": 1, "strategies": ["fedavg"]}', "config key seed "),
        ('{"rounds": 1, "noise": {"p_depol": 0.1, "gamma": 0.0, "p_depol": 0.2}}', "config key noise.p_depol "),
        (b'\xff\xfe{\x00}\x00', "cfg.json is not UTF-8 JSON text"),
        ("[" * 10**5 + "]" * 10**5, "cfg.json is not UTF-8 JSON text"),
        ("[1, 2]", "cfg.json is not a JSON object"),
        ("null", "cfg.json is not a JSON object"),
        ("3", "cfg.json is not a JSON object"),
    ],
    ids=["mitigation", "mitigation-flag-list", "mitigation-bogus", "seed-str", "seed-bool", "noise-bool", "noise-str",
         "exact-str", "timing-removed", "repeats-removed", "dead-entropy",
         "selection-bool", "selection-str", "lr-str", "skew-null", "sep-bool", "bound-str",
         "depol-calibration", "depol-inversion", "flip-calibration", "deph-calibration", "gamma-calibration", "shots-2**63", "lr-huge-int",
         "one-client", "one-class", "features-1", "features-9", "near-dead-entropy", "repeated-strategy",
         "repeated-strategy-flag", "bound-width-overflow", "repeated-key", "repeated-noise-key", "utf16-file",
         "deep-nesting", "top-level-list", "top-level-null", "top-level-number"],
)
def test_bad_config_exits_2_naming_key(tmp_path, capsys, extra, key):
    # a dict goes into the config file, str or bytes are the file's whole content, a list is passed as flags
    flags = extra if isinstance(extra, list) else []
    out = tmp_path / "never"
    if isinstance(extra, (str, bytes)):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(extra if isinstance(extra, bytes) else extra.encode())
    else:
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

    def test_empty_run_writes_the_empty_reductions(self, tmp_path):
        # "rounds": 0 is legal: a header-only rounds.csv and, in summary.json's key order,
        # final_* null, total_* 0, mean_* null (no rounds, unlike fedavg's real 0.0) and round_epsilon []
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_cfg(tmp_path, {"rounds": 0})), "--out", str(out)]) == 0
        assert (out / "rounds.csv").read_bytes() == f"{','.join(CSV_COLUMNS)}\r\n".encode()
        block = ('{"final_accuracy": null, "final_f1": null, "total_bytes_up": 0, "total_bytes_down": 0, '
                 '"mean_epsilon": null, "mean_agg_error": null, "total_clipped": 0, "round_epsilon": []}')
        blocks = json.loads((out / "summary.json").read_text())["strategies"]
        assert {strategy: json.dumps(b) for strategy, b in blocks.items()} == dict.fromkeys(flsim.STRATEGIES, block)

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

    def test_unusable_out_dir_exits_2_before_any_round(self, tmp_path, capsys, unusable_out, round_runs):
        assert main(["run", "--config", str(write_cfg(tmp_path)), "--out", str(unusable_out)]) == 2
        assert f"config error: out_dir {str(unusable_out)!r}" in capsys.readouterr().err
        assert round_runs == []
        assert (tmp_path / "afile").read_text() == "kept\n"

    @pytest.mark.parametrize("name", ["rounds.csv", "summary.json"])
    def test_output_file_that_is_a_directory_exits_2_before_any_round(self, tmp_path, capsys, round_runs, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["run", "--config", str(write_cfg(tmp_path)), "--out", str(out)]) == 2
        assert f"config error: out_dir {str(out)!r} holds {name!r}" in capsys.readouterr().err
        assert round_runs == []
        assert [p.name for p in out.iterdir()] == [name]

    @pytest.mark.parametrize("extra, depths", [({}, [5]), ({"n_clients": 11}, [6, 5])], ids=["default", "two-depths"])
    def test_one_calibration_fit_per_depth(self, tmp_path, monkeypatch, extra, depths):
        # the parse check and every nrqfl round share one cached fit per depth, whichever module would fit it
        calls, fit = [], config.fit_calibration
        for module in (config, qagg):
            monkeypatch.setattr(module, "fit_calibration", lambda noise, depth, *probes: calls.append(depth)
                                or fit(noise, depth, *probes))
        mitigation_transfer.cache_clear()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rounds": 3, **extra}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert calls == depths

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
        # every P(1) and every epsilon comes from the Bloch engine; the dense chain and the
        # single-circuit functions serve only the test oracles and the invariant suite
        built = []
        for cls in (DensityMatrix, KrausChannel):
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, init=cls.__post_init__: built.append(type(self).__name__) or init(self))
        for name in ("run_plan", "simulate_plan", "calibrate", "empirical_variance"):
            monkeypatch.setattr(qagg, name, lambda *a, name=name, f=getattr(qagg, name), **k: built.append(name)
                                or f(*a, **k))
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

    def test_unusable_out_dir_exits_2_before_any_run(self, tmp_path, capsys, unusable_out, round_runs):
        code = main(["sweep", "--config", str(write_cfg(tmp_path)), "--out", str(unusable_out),
                     "--axis", "shots", "--values", "512,1024"])
        assert code == 2
        assert f"config error: out_dir {str(unusable_out)!r}" in capsys.readouterr().err
        assert round_runs == []
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_output_file_that_is_a_directory_exits_2_before_any_run(self, tmp_path, capsys, round_runs):
        out = tmp_path / "out"
        (out / "sweep.csv").mkdir(parents=True)
        code = main(["sweep", "--config", str(write_cfg(tmp_path)), "--out", str(out),
                     "--axis", "shots", "--values", "512,1024"])
        assert code == 2
        assert f"config error: out_dir {str(out)!r} holds 'sweep.csv'" in capsys.readouterr().err
        assert round_runs == []
        assert [p.name for p in out.iterdir()] == ["sweep.csv"]

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
        # nrqfl mitigates its shot estimate; every quantum strategy takes the server median
        cfg = ExperimentConfig(n_servers=n_servers)
        if strategy == "nrqfl":
            acfg = qagg.AggregationConfig(shots=cfg.shots, mitigation=cfg.mitigation)
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
        ("noise", "a,b", "--values"),
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
        ("none", "equal"),
        ("channel_inversion", "greater"),
    ], ids=["none", "channel-inversion"])
    def test_nrqfl_variance_goes_through_its_mitigation(self, tmp_path, mitigation, relation):
        # unmitigated, nrqfl's estimator is qfl's at the same shots; inverting the channel amplifies its shot noise
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
        cfg_path = write_cfg(tmp_path, {"strategies": ["nrqfl"], "rounds": 1, "mitigation": "none",
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

    def test_a_check_that_raises_fails_and_the_suite_finishes(self, capsys, monkeypatch):
        # E rho E^T in place of E rho E^dag: the depolarizing Y term no longer keeps the trace, so the
        # state check rejects its output and every check that applies depolarizing noise raises
        def broken_apply_channel(state, channel):
            return DensityMatrix(sum(e @ state.matrix @ e.T for e in channel.operators))

        monkeypatch.setattr(validate, "apply_channel", broken_apply_channel)
        assert main(["validate"]) == 1
        *lines, summary = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0].split("] ")[1] for line in lines] == [
            check.__name__.removeprefix("check_") for check in validate.ALL_CHECKS]
        assert "[FAIL] trace_preservation: raised ValueError: state trace is" in "\n".join(lines)
        assert re.fullmatch(rf"\d+/{len(validate.ALL_CHECKS)} checks passed \(suite .*\)", summary)
