"""Experiment configuration: JSON parsing with strict unknown-key rejection."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .encode import angle_to_z
from .qcore import NoiseModel, circuit_p1, is_real
from .qselect import entropy_p1


class ConfigError(ValueError):
    """Raised with the offending key path on schema violations."""


# The settings and limits of qagg's aggregation; defined here so that parsing a
# config does not import the aggregation engine.
MITIGATIONS = ("none", "channel_inversion", "calibration")  # how nrqfl corrects each circuit's <Z>
MAX_GROUP = 9  # clients per circuit; keeps circuit depth under 10
INVERSION_FLOOR = 1e-6  # smallest depolarizing attenuation (1 - 4p/3)^d that mitigation divides by
DEFAULT_PROBES = (0.15, 0.35, 0.55, 0.75, 0.95, 1.15, 1.35)  # calibration probe angles
MAX_SHOTS = 2**63 - 1  # shot counts are drawn as C longs
DEFAULT_SHOTS = 12288  # executions per circuit, of a config file and of a library AggregationConfig alike
# each integer setting's range (lo, hi), hi None when unbounded; `check_int` is its one check
INT_RANGES = dict(seed=(0, None), n_clients=(2, None), samples_per_client=(1, None), test_samples=(1, None),
                  classes=(2, None), feature_dim=(2, 8), rounds=(0, None), local_epochs=(1, None),
                  shots=(1, MAX_SHOTS), n_servers=(1, None))


class Strategy(NamedTuple):
    """What a strategy's rounds run; STRATEGY_TABLE holds one per strategy name."""

    quantum: bool  # aggregate on the quantum path; else take the classical size-weighted mean
    adaptive_window: bool  # encode over the round's per-parameter min/max, sent up as 8P bytes; else [-b, b]
    mitigated: bool  # invert each circuit's <Z> by cfg.mitigation; else "none"


# the one place a strategy name decides anything; a strategy's index here keys its shot and entropy streams
STRATEGY_TABLE = {
    "fedavg": Strategy(quantum=False, adaptive_window=False, mitigated=False),
    "qfl": Strategy(quantum=True, adaptive_window=False, mitigated=False),
    "nrqfl": Strategy(quantum=True, adaptive_window=True, mitigated=True),
}
STRATEGIES = tuple(STRATEGY_TABLE)
_NOISE_KEYS = tuple(f.name for f in fields(NoiseModel))


def _split(n: int) -> tuple:
    n_groups = -(-n // MAX_GROUP)
    return (n_groups, *divmod(n, n_groups))


def group_sizes(n: int) -> list:
    """Group sizes for n clients: <= MAX_GROUP each, as even as possible, larger groups first.

    qagg runs one circuit per (parameter, group), so these are its circuit depths.
    """
    n_groups, base, extra = _split(n)
    return [base + 1] * extra + [base] * (n_groups - extra)


def fused_gates(angles):
    """Ry gate angles 2*a_k/d of the fused circuits of a (..., d) angle array.

    Ry rotations about one axis add, so the noiseless product of a circuit's d
    gates prepares the state encoding the mean of its d angles.
    """
    angles = np.asarray(angles, dtype=float)
    return 2.0 * angles / angles.shape[-1]


def group_depths(n: int) -> list:
    """The distinct values of group_sizes(n), deepest first, without building that list."""
    _, base, extra = _split(n)
    return [base + 1, base] if extra else [base]


def depol_attenuation(noise: NoiseModel, depth: int) -> float:
    """(1 - 4p/3)^depth, the depolarizing attenuation both mitigations undo; a ConfigError below INVERSION_FLOOR."""
    attenuation = noise.depol_factor ** depth
    if attenuation < INVERSION_FLOOR:
        raise ConfigError(f"noise.p_depol = {noise.p_depol} attenuates depth-{depth} nrqfl circuits by "
                          f"(1 - 4p/3)^{depth} = {attenuation:.3g} < {INVERSION_FLOOR}; mitigation cannot undo that")
    return attenuation


def fit_calibration(noise: NoiseModel, depth: int) -> tuple:
    """Least-squares fit (lam_hat, b_hat) of noisy <Z> = lam_hat * ideal <Z> + b_hat at one circuit depth.

    Each DEFAULT_PROBES angle a runs the aggregation circuit of `depth` clients
    all at a, whose ideal <Z> is cos(2a); all probes run in one `circuit_p1` batch.
    The fit absorbs depolarizing attenuation, amplitude-damping offset and
    readout bias in one linear map. A slope below INVERSION_FLOOR cannot be
    inverted, so it raises; `mitigation_transfer` and `qagg.calibrate` call this.
    """
    if not 1 <= depth <= MAX_GROUP:
        raise ValueError(f"calibration depth must be in 1..{MAX_GROUP}, got {depth}")
    ideal = [angle_to_z(a) for a in DEFAULT_PROBES]
    gates = fused_gates(np.repeat(np.array(DEFAULT_PROBES)[:, None], depth, axis=1))
    lam_hat, b_hat = (float(v) for v in np.polyfit(ideal, 1.0 - 2.0 * circuit_p1(gates, noise), 1))
    if lam_hat < INVERSION_FLOOR:
        raise ValueError(f"calibration fits a slope of {lam_hat:.3g} < {INVERSION_FLOOR} to depth-{depth} "
                         "circuits and cannot invert it")
    return lam_hat, b_hat


@dataclass(frozen=True)
class TransferFunction:
    """Linear map of ideal <Z> to noisy <Z>, noisy = lam_hat * ideal + b_hat, with lam_hat >= INVERSION_FLOOR."""

    lam_hat: float
    b_hat: float

    def invert(self, noisy_z):
        """Estimated ideal <Z> of noisy values (a float or an array), clamped to [-1, 1]."""
        return np.clip((noisy_z - self.b_hat) / self.lam_hat, -1.0, 1.0)


def check_int(name: str, v) -> None:
    """A ConfigError unless `v` is an int, not a bool, in INT_RANGES[name]."""
    lo, hi = INT_RANGES[name]
    if isinstance(v, bool) or not isinstance(v, int) or v < lo:
        raise ConfigError(f"{name} must be an integer >= {lo}, got {v!r}")
    if hi is not None and v > hi:
        raise ConfigError(f"{name} must be an integer in {lo}..{hi}, got {v!r}")


def check_workload(n_clients, classes, feature_dim, samples_per_client, test_samples, skew, class_sep) -> None:
    """The one check of the synthetic workload `flsim.make_partition` builds; a ConfigError names the bad key."""
    counts = dict(n_clients=n_clients, classes=classes, feature_dim=feature_dim,
                  samples_per_client=samples_per_client, test_samples=test_samples)
    for name, v in counts.items():
        check_int(name, v)
    if not is_real(skew) or not 0.0 <= skew <= 1.0:
        raise ConfigError(f"skew must be a number in [0, 1], got {skew!r}")
    if not is_real(class_sep) or class_sep <= 0:
        raise ConfigError(f"class_sep must be a positive finite number, got {class_sep!r}")


@dataclass(frozen=True)
class AggregationConfig:
    """Knobs for one quantum aggregation call; a bad value raises the ConfigError a config file gets for its key."""

    shots: int = DEFAULT_SHOTS
    mitigation: str = "none"
    exact_expectation: bool = False

    def __post_init__(self):
        check_int("shots", self.shots)
        if self.mitigation not in MITIGATIONS:
            raise ConfigError(f"mitigation must be one of {', '.join(MITIGATIONS)} (measurement averaging is set "
                              f"by shots alone), got {self.mitigation!r}")
        if not isinstance(self.exact_expectation, bool):
            raise ConfigError(f"exact_expectation must be true or false, got {self.exact_expectation!r}")


@lru_cache(maxsize=64)
def mitigation_transfer(mitigation: str, noise: NoiseModel, depth: int) -> TransferFunction:
    """The transfer of depth-`depth` circuits that `mitigation` inverts: the one place its name decides anything.

    none is the identity, channel_inversion (1 - 4p/3)^d, calibration the `fit_calibration` fit after that
    attenuation check. The parse check and every round share each cached transfer, so a config is rejected
    (with a ConfigError) exactly when its rounds would fail.
    """
    if mitigation == "none":
        return TransferFunction(1.0, 0.0)
    attenuation = depol_attenuation(noise, depth)
    if mitigation == "channel_inversion":
        return TransferFunction(attenuation, 0.0)
    try:
        return TransferFunction(*fit_calibration(noise, depth))
    except ValueError as exc:
        named = ", ".join(f"noise.{k} = {getattr(noise, k)}" for k in _NOISE_KEYS if getattr(noise, k))
        raise ConfigError(f"under {named}, nrqfl {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    n_clients: int = 5
    samples_per_client: int = 200
    test_samples: int = 600
    skew: float = 0.7
    classes: int = 3
    feature_dim: int = 4
    class_sep: float = 2.0
    rounds: int = 50
    local_epochs: int = 5
    lr: float = 0.1
    strategies: tuple = STRATEGIES
    noise: NoiseModel = field(default_factory=lambda: NoiseModel(p_depol=0.05, gamma=0.03))
    shots: int = DEFAULT_SHOTS
    mitigation: str = "calibration"
    n_servers: int = 1
    selection_m: int | None = None
    fixed_weight_bound: float = 4.0
    exact_expectation: bool = False
    out_dir: str = "results"

    def __post_init__(self):
        for name in ("seed", "rounds", "local_epochs", "n_servers"):
            check_int(name, getattr(self, name))
        check_workload(self.n_clients, self.classes, self.feature_dim, self.samples_per_client, self.test_samples,
                       self.skew, self.class_sep)
        AggregationConfig(self.shots, self.mitigation, self.exact_expectation)
        for name in ("lr", "fixed_weight_bound"):
            v = getattr(self, name)
            if not is_real(v) or v <= 0:
                raise ConfigError(f"{name} must be a positive finite number, got {v!r}")
        if not math.isfinite(2.0 * self.fixed_weight_bound):  # qfl encodes over [-b, b]
            raise ConfigError(f"fixed_weight_bound b must keep the width 2b finite, got {self.fixed_weight_bound!r}")
        strategies = tuple(self.strategies)
        if not strategies or any(s not in STRATEGIES for s in strategies) or len(set(strategies)) < len(strategies):
            raise ConfigError(f"strategies must be a non-empty list of distinct names from {'/'.join(STRATEGIES)}, "
                              f"got {strategies}")
        object.__setattr__(self, "strategies", strategies)
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        m = self.selection_m
        if m is not None:
            if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= self.n_clients:
                raise ConfigError(f"selection_m must be null or an integer in 1..n_clients, got {m!r}")
            if m < self.n_clients:  # a full selection draws no entropy bits
                try:
                    entropy_p1(self.noise)
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
        if any(STRATEGY_TABLE[s].mitigated for s in strategies):
            for d in group_depths(self.n_clients if m is None else m):
                mitigation_transfer(self.mitigation, self.noise, d)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        n = d.pop("noise")
        d["noise"] = {name: getattr(n, name) for name in _NOISE_KEYS}
        d["strategies"] = list(self.strategies)
        return d


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config; unknown keys are rejected with their path."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    kwargs = {}
    try:  # NoiseModel raises a plain ValueError, with the message a ConfigError carries
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"unknown config key: {key}")
            if key == "noise":
                if not isinstance(value, dict):
                    raise ConfigError("noise must be an object")
                for nk in value:
                    if nk not in _NOISE_KEYS:
                        raise ConfigError(f"unknown config key: noise.{nk}")
                kwargs["noise"] = NoiseModel(**value)
            elif key == "strategies":
                if not isinstance(value, (list, tuple)):
                    raise ConfigError("strategies must be a list")
                kwargs[key] = tuple(value)
            else:
                kwargs[key] = value
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


class _JSONObject(dict):
    """A JSON object that keeps, as `repeated`, the first key it holds twice; json.loads would keep its last value."""

    def __init__(self, pairs: list):
        super().__init__(pairs)
        seen = set()  # seen.add returns None, so a key is yielded at its second appearance
        self.repeated = next((k for k, _ in pairs if k in seen or seen.add(k)), None)


def parse_config(path: str | Path | None, overrides: dict | None = None) -> ExperimentConfig:
    """Load JSON config (or defaults when path is None) and apply CLI overrides."""
    data: dict = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:  # JSON text is UTF-8 (RFC 8259) whatever the locale says
            data = json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=_JSONObject)
        except (ValueError, RecursionError) as exc:  # a decode error, malformed JSON, a huge integer, deep nesting
            raise ConfigError(f"config file {p} is not UTF-8 JSON text: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {p} is not a JSON object")
        # only the top level and noise may hold objects; any other object value fails its type check
        for prefix, obj in (("", data), ("noise.", data.get("noise"))):
            if isinstance(obj, _JSONObject) and obj.repeated is not None:
                raise ConfigError(f"config key {prefix}{obj.repeated} appears more than once in {p}")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(data)
