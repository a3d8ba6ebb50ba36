"""Experiment configuration: JSON parsing with strict unknown-key rejection."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .encode import angle_to_z
from .qcore import NoiseModel, circuit_p1
from .qselect import EntropySource


class ConfigError(ValueError):
    """Raised with the offending key path on schema violations."""


# The flags and limits of qagg's aggregation; defined here so that parsing a
# config does not import the aggregation engine.
MITIGATION_FLAGS = frozenset({"measurement_averaging", "channel_inversion", "calibration"})
MAX_GROUP = 9  # clients per circuit; keeps circuit depth under 10
INVERSION_FLOOR = 1e-6  # smallest depolarizing attenuation (1 - 4p/3)^d that mitigation divides by
DEFAULT_PROBES = (0.15, 0.35, 0.55, 0.75, 0.95, 1.15, 1.35)  # calibration probe angles
MAX_SHOTS = 2**63 - 1  # shot counts are drawn as C longs
DEFAULT_MITIGATION = ("measurement_averaging", "channel_inversion", "calibration")
STRATEGIES = ("fedavg", "qfl", "nrqfl")  # a strategy's index here keys its shot and entropy streams
ENTROPY_FLOOR = 1e-3  # smallest P(1) or P(0) of the selection entropy circuit a run draws from
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


def fit_calibration(noise: NoiseModel, depth: int, probe_angles=DEFAULT_PROBES) -> tuple:
    """Least-squares fit (lam_hat, b_hat) of noisy <Z> = lam_hat * ideal <Z> + b_hat at one circuit depth.

    Each probe angle a runs the aggregation circuit of `depth` clients all at
    a, whose ideal <Z> is cos(2a); all probes run in one `circuit_p1` batch.
    The fit absorbs depolarizing attenuation, amplitude-damping offset and
    readout bias in one linear map. A slope below INVERSION_FLOOR cannot be
    inverted, so it raises. `qagg.calibrate` and the parse-time check both
    call this, so a config is rejected exactly when its calibration would fail.
    """
    if not 1 <= depth <= MAX_GROUP:
        raise ValueError(f"calibration depth must be in 1..{MAX_GROUP}, got {depth}")
    probes = [float(a) for a in probe_angles]
    if len(set(probes)) < 2:
        raise ValueError("need at least two distinct probe angles")
    ideal = [angle_to_z(a) for a in probes]
    gates = fused_gates(np.repeat(np.array(probes)[:, None], depth, axis=1))
    lam_hat, b_hat = (float(v) for v in np.polyfit(ideal, 1.0 - 2.0 * circuit_p1(gates, noise), 1))
    if lam_hat < INVERSION_FLOOR:
        raise ValueError(f"calibration fits a slope of {lam_hat:.3g} < {INVERSION_FLOOR} to depth-{depth} "
                         "circuits and cannot invert it")
    return lam_hat, b_hat


def _is_real(v) -> bool:
    """A finite real number that is not a bool; ints too large for a float fail too."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _check_noise(values: dict) -> None:
    for name, v in values.items():
        if not _is_real(v) or not 0.0 <= v <= 1.0:
            raise ConfigError(f"noise.{name} must be a probability in [0, 1], got {v!r}")


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
    shots: int = 4096
    repeats: int = 3
    mitigation: tuple = DEFAULT_MITIGATION
    n_servers: int = 1
    selection_m: int | None = None
    fixed_weight_bound: float = 4.0
    exact_expectation: bool = False
    record_timing: bool = False
    out_dir: str = "results"

    def __post_init__(self):
        # the workload needs 2+ clients and classes and 2..8 features (flsim.make_partition)
        minimums = dict(seed=0, n_clients=2, samples_per_client=1, test_samples=1, classes=2, feature_dim=2,
                        rounds=0, local_epochs=1, shots=1, repeats=1, n_servers=1)
        for name, lo in minimums.items():
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < lo:
                raise ConfigError(f"{name} must be an integer >= {lo}, got {v!r}")
        if self.shots > MAX_SHOTS:
            raise ConfigError(f"shots must be an integer in 1..{MAX_SHOTS}, got {self.shots!r}")
        if self.feature_dim > 8:
            raise ConfigError(f"feature_dim must be an integer in 2..8, got {self.feature_dim!r}")
        if not _is_real(self.skew) or not 0.0 <= self.skew <= 1.0:
            raise ConfigError(f"skew must be a number in [0, 1], got {self.skew!r}")
        for name in ("lr", "class_sep", "fixed_weight_bound"):
            v = getattr(self, name)
            if not _is_real(v) or v <= 0:
                raise ConfigError(f"{name} must be a positive finite number, got {v!r}")
        if not math.isfinite(2.0 * self.fixed_weight_bound):  # qfl encodes over [-b, b]
            raise ConfigError(f"fixed_weight_bound b must keep the width 2b finite, got {self.fixed_weight_bound!r}")
        strategies = tuple(self.strategies)
        if not strategies or any(s not in STRATEGIES for s in strategies) or len(set(strategies)) < len(strategies):
            raise ConfigError(f"strategies must be a non-empty list of distinct names from {'/'.join(STRATEGIES)}, "
                              f"got {strategies}")
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "mitigation", tuple(self.mitigation))
        unknown = [m for m in self.mitigation if not isinstance(m, str) or m not in MITIGATION_FLAGS]
        if unknown:
            raise ConfigError(f"mitigation has unknown flags {unknown}; choose from {sorted(MITIGATION_FLAGS)}")
        for name in ("exact_expectation", "record_timing"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        _check_noise({name: getattr(self.noise, name) for name in _NOISE_KEYS})
        m = self.selection_m
        if m is not None:
            if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= self.n_clients:
                raise ConfigError(f"selection_m must be null or an integer in 1..n_clients, got {m!r}")
            # von Neumann extraction keeps about p(1 - p) of the raw bits, so near 0 or 1 a selection all but never ends
            if m < self.n_clients and not ENTROPY_FLOOR <= EntropySource(self.noise, seed=0).p1 <= 1 - ENTROPY_FLOOR:
                raise ConfigError(f"noise makes the selection entropy circuit read P(1) within {ENTROPY_FLOOR} of "
                                  "0 or 1, so it yields almost no random bits")
        if "nrqfl" in strategies and {"calibration", "channel_inversion"} & set(self.mitigation):
            # both mitigations divide a depth-d circuit's <Z> by about (1 - 4p/3)^d
            for d in group_depths(self.n_clients if m is None else m):
                attenuation = self.noise.depol_factor ** d
                if attenuation < INVERSION_FLOOR:
                    raise ConfigError(
                        f"noise.p_depol = {self.noise.p_depol} attenuates depth-{d} nrqfl circuits by "
                        f"(1 - 4p/3)^{d} = {attenuation:.3g} < {INVERSION_FLOOR}; mitigation cannot undo that")
                if "calibration" in self.mitigation:
                    try:
                        fit_calibration(self.noise, d)
                    except ValueError as exc:
                        named = ", ".join(f"noise.{k} = {getattr(self.noise, k)}" for k in _NOISE_KEYS
                                          if getattr(self.noise, k))
                        raise ConfigError(f"under {named}, nrqfl {exc}") from exc

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        n = d.pop("noise")
        d["noise"] = {"p_depol": n.p_depol, "p_deph": n.p_deph, "gamma": n.gamma, "readout_flip": n.readout_flip}
        d["strategies"] = list(self.strategies)
        d["mitigation"] = list(self.mitigation)
        return d


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config; unknown keys are rejected with their path."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key: {key}")
        if key == "noise":
            if not isinstance(value, dict):
                raise ConfigError("noise must be an object")
            for nk in value:
                if nk not in _NOISE_KEYS:
                    raise ConfigError(f"unknown config key: noise.{nk}")
            _check_noise(value)
            kwargs["noise"] = NoiseModel(**value)
        elif key in ("strategies", "mitigation"):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key} must be a list")
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path: str | Path | None, overrides: dict | None = None) -> ExperimentConfig:
    """Load JSON config (or defaults when path is None) and apply CLI overrides."""
    data: dict = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {p}: {exc}") from exc
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(data)
