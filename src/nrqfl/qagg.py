"""Quantum aggregation: circuit planning, noisy execution, and mitigation.

Client angles are fused on a single qubit by composing Ry(2*a_k/N) rotations
(`config.fused_gates`); about a common axis these add, so the noiseless
circuit prepares exactly the state encoding mean(a). One noise-channel pass
per gate defines the circuit depth d used by the variance bound. More than 9 clients are split into groups
of <= 9 (depth stays below 10) whose results are combined by a size-weighted
classical mean. Every circuit's P(1) comes from `qcore.circuit_p1`:
`aggregate` takes the circuits of all parameters of a group in one call, and
`build_plan` / `run_plan` run one circuit. `simulate_plan` is the one place a
circuit's state matrix is built, for sampled `run_plan` and for tests. The
per-round noise deviation (`noise_deviation`) is a closed form on the same
engine's Bloch vectors, so a run builds no state matrix or Kraus channel.

Mitigation layers, selected by flags in AggregationConfig:
  - measurement_averaging: average <Z> over `repeats` independent executions
  - channel_inversion:     divide <Z> by (1 - 4p/3)^d (depolarizing, analytic)
  - calibration:           linear transfer noisy_z = lam * ideal_z + b, fitted
                           by `config.fit_calibration` once per (noise, depth);
                           subsumes channel inversion when both flags are set
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .config import DEFAULT_PROBES, INVERSION_FLOOR, MAX_GROUP, MITIGATION_FLAGS, fit_calibration, fused_gates, group_sizes
from .encode import HALF_PI, WeightBounds, denormalize, normalize, z_to_angle
from .qcore import (
    DensityMatrix,
    KrausChannel,
    NoiseModel,
    Observable,
    apply_channel,
    circuit_bloch,
    circuit_p1,
    expectation,
    sample_measurement,
)

SIGMA_SHOT = 0.5  # per-shot standard deviation in `variance_bound`'s shot term
SIGMA_GATE_SAFETY = 1.4  # factor on the largest excess variance `fit_sigma_gate` fits
_WORD = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier
_OTHER_WORDS = [np.array([d for d in range(4) if d != s]) for s in range(4)]  # pool words each word mixes into


@dataclass(frozen=True)
class AggregationConfig:
    """Knobs for one quantum aggregation call."""

    shots: int = 4096
    repeats: int = 1
    mitigation: frozenset = frozenset()
    exact_expectation: bool = False

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        unknown = set(self.mitigation) - MITIGATION_FLAGS
        if unknown:
            raise ValueError(f"unknown mitigation flags: {sorted(unknown)}")
        object.__setattr__(self, "mitigation", frozenset(self.mitigation))


@dataclass(frozen=True)
class CircuitPlan:
    """Ordered single-qubit Ry gate angles with a noise pass after each gate."""

    gates: tuple
    depth: int

    def __post_init__(self):
        if self.depth != len(self.gates):
            raise ValueError("depth must equal the gate count")
        if not 1 <= self.depth <= MAX_GROUP:
            raise ValueError(f"circuit depth must be in 1..{MAX_GROUP}, got {self.depth}; "
                             "more clients split into groups")


@dataclass(frozen=True)
class TransferFunction:
    """Fitted linear map of ideal <Z> to noisy <Z>."""

    lam_hat: float
    b_hat: float

    def __post_init__(self):
        if self.lam_hat <= 0.0:
            raise ValueError("fitted attenuation must be positive")

    def invert(self, noisy_z):
        """Estimated ideal <Z> of noisy values (a float or an array), clamped to [-1, 1]."""
        return np.clip((noisy_z - self.b_hat) / self.lam_hat, -1.0, 1.0)


@dataclass(frozen=True)
class AggregateEstimate:
    """Single-circuit estimate in angle units."""

    value: float
    z_raw: float


@dataclass(frozen=True)
class AggregateResult:
    """Output of a full vector aggregation."""

    vector: np.ndarray
    clip_count: int


def build_plan(angles) -> CircuitPlan:
    """Sequential Ry(2*a_k/N) gates whose noiseless product encodes mean(a)."""
    angles = tuple(float(a) for a in angles)
    if not angles:
        raise ValueError("cannot aggregate an empty client set")
    for a in angles:
        if not 0.0 <= a <= HALF_PI + 1e-12:
            raise ValueError(f"angle {a} outside [0, pi/2]")
    return CircuitPlan(tuple(float(g) for g in fused_gates(angles)), depth=len(angles))


def simulate_plan(plan: CircuitPlan, noise: NoiseModel) -> DensityMatrix:
    """Deterministic pre-measurement state: alternate gates and noise passes."""
    x, z = (float(v) for v in circuit_bloch(plan.gates, noise))
    return DensityMatrix(np.array([[(1.0 + z) / 2.0, x / 2.0], [x / 2.0, (1.0 - z) / 2.0]], dtype=complex))


def run_plan(
    plan: CircuitPlan,
    noise: NoiseModel,
    shots: int,
    rng: np.random.Generator | None,
    exact: bool = False,
) -> AggregateEstimate:
    """Execute the plan and decode the raw (pre-mitigation) angle estimate.

    With exact=True the infinite-shot expectation is used instead of sampling.
    """
    if exact:
        p1 = float(circuit_p1(plan.gates, noise))
    else:
        if rng is None:
            raise ValueError("sampled execution needs an RNG stream")
        zeros, ones = sample_measurement(simulate_plan(plan, noise), 0, shots, rng, noise.readout_flip)
        p1 = ones / shots
    angle = math.asin(math.sqrt(min(max(p1, 0.0), 1.0)))
    return AggregateEstimate(value=angle, z_raw=1.0 - 2.0 * p1)


def mitigate_channel_inversion(raw_z, noise: NoiseModel, depth: int):
    """Undo depolarizing attenuation: z -> z / (1 - 4p/3)^d, clamped to [-1, 1] (a float or an array)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    lam_d = noise.depol_factor ** depth
    if lam_d < INVERSION_FLOOR:
        raise ValueError(f"attenuation {lam_d:.3g} below {INVERSION_FLOOR}; depth/noise out of mitigable range")
    return np.clip(raw_z / lam_d, -1.0, 1.0)


def calibrate(noise: NoiseModel, depth: int, probe_angles=DEFAULT_PROBES) -> TransferFunction:
    """The transfer function `config.fit_calibration` fits to depth-`depth` circuits."""
    return TransferFunction(*fit_calibration(noise, depth, probe_angles))


@lru_cache(maxsize=64)
def _default_transfer(noise: NoiseModel, depth: int) -> TransferFunction:
    """`calibrate(noise, depth)` with its default exact probes: deterministic, so fitted once."""
    return calibrate(noise, depth)


@lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """SeedSequence's n + 1 hash constants init * mult**k mod 2**32, as a read-only uint32 column."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _WORD)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _seed_pools(seed_key, suffixes) -> np.ndarray:
    """`SeedSequence((*seed_key, *row)).pool` of each row of the K x m `suffixes`, as a K x 4 uint32 array.

    numpy's pool mixing (NEP 19 keeps it stable) run as uint32 array ops
    across all rows: each key part splits into little-endian 32-bit words,
    and the hash constants do not depend on the data. Suffix parts must fit
    in one word.
    """
    prefix = []
    for part in seed_key:
        part = int(part)
        if part < 0:
            raise ValueError(f"seed key parts must be non-negative, got {part}")
        prefix.append(part & _WORD)
        while part > _WORD:
            part >>= 32
            prefix.append(part & _WORD)
    rows = np.asarray(suffixes, dtype=np.int64)
    if rows.size and not 0 <= rows.min() <= rows.max() <= _WORD:
        raise ValueError("stream suffix parts must be in [0, 2**32)")
    n_words = len(prefix) + rows.shape[1]
    entropy = np.zeros((max(n_words, 4), len(rows)), dtype=np.uint32)  # zero words pad a short key to the pool
    entropy[:len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[len(prefix):n_words] = rows.T
    consts, used = _hash_consts(0x43B0D7E5, 0x931E8875, 4 * len(entropy)), 0  # numpy's INIT_A, MULT_A

    def hashmix(values, n):  # n hashes of the (broadcast) rows of `values`, each with the next constant
        nonlocal used
        h = values ^ consts[used:used + n]
        h *= consts[used + 1:used + n + 1]
        used += n
        h ^= h >> 16
        return h

    def mix(x, y):  # in place on x; numpy's MIX_MULT_L and MIX_MULT_R
        x *= np.uint32(0xCA01F9DD)
        x -= y * np.uint32(0x4973F715)
        x ^= x >> 16
        return x

    pool = hashmix(entropy[:4], 4)
    for src in range(4):
        dst = _OTHER_WORDS[src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for word in entropy[4:]:
        mix(pool, hashmix(word, 4))
    return pool.T


def _shot_draws(seed_key, suffixes, shots: int, probs) -> np.ndarray:
    """`default_rng(SeedSequence((*seed_key, *row))).binomial(shots, p)` per row of `suffixes` and p, bit for bit.

    The pools become PCG64 seeds as `SeedSequence.generate_state(4, uint64)`
    does; PCG64's two-step seeding runs in Python ints, and one Generator
    draws every stream with its bit generator's state set to that stream's.
    """
    consts = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # numpy's INIT_B, MULT_B
    words = (_seed_pools(seed_key, suffixes).T[[0, 1, 2, 3, 0, 1, 2, 3]] ^ consts[:-1]) * consts[1:]
    words = (words ^ words >> 16).astype(np.uint64)
    seeds = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
    gen = np.random.Generator(np.random.PCG64(0))
    pcg = {}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    ones = np.empty(len(probs), dtype=np.int64)
    for i, (s0, s1, s2, s3, p) in enumerate(zip(*seeds, probs)):
        pcg["inc"] = inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        gen.bit_generator.state = state
        ones[i] = gen.binomial(shots, p)
    return ones


def _mitigate_z(z, mitigation, noise, depth: int):
    if "calibration" in mitigation:
        return _default_transfer(noise, depth).invert(z)
    if "channel_inversion" in mitigation:
        return mitigate_channel_inversion(z, noise, depth)
    return np.clip(z, -1.0, 1.0)


def aggregate(
    client_vectors,
    bounds: WeightBounds,
    cfg: AggregationConfig,
    noise: NoiseModel,
    seed_key=(0,),
) -> AggregateResult:
    """Quantum-aggregate N client parameter vectors into their (uniform) mean.

    normalize -> per client group, P(1) of the circuits of all P parameters in
    one `circuit_p1` call -> sample (with repeats) -> mitigate -> decode ->
    size-weighted mean over groups -> denormalize. Groups of more than 9
    clients are combined by that classical mean. Each (parameter, group,
    repeat) draws its shots from its own RNG stream keyed by
    (seed_key, parameter, group, repeat), so results are independent of
    execution order; `_shot_draws` derives all of a call's streams at once.
    `bounds` of shape () bound every parameter alike; (P,) bounds, one each.
    """
    vectors = np.asarray(client_vectors, dtype=float)
    if vectors.ndim != 2:
        raise ValueError("client_vectors must be an N x P array")
    n, p = vectors.shape
    if n == 0:
        raise ValueError("empty client set")
    if bounds.lo.shape not in ((), (p,)):
        raise ValueError(f"need () or ({p},) bounds, got shape {bounds.lo.shape}")

    clip_count = int(np.sum((vectors < bounds.lo) | (vectors > bounds.hi)))
    angles = normalize(vectors, bounds)
    repeats = cfg.repeats if "measurement_averaging" in cfg.mitigation else 1
    sizes = group_sizes(n)
    p1 = np.stack([circuit_p1(fused_gates(angles[end - d:end].T), noise) for d, end in zip(sizes, accumulate(sizes))])
    if cfg.exact_expectation:
        z = 1.0 - 2.0 * p1
    else:
        group, param, rep = np.indices((len(sizes), p, repeats)).reshape(3, -1)
        keys = np.stack([param, group, rep], axis=1)  # stream keys end (parameter, group, repeat)
        ones = _shot_draws(seed_key, keys, cfg.shots, np.repeat(p1, repeats).tolist())
        z = (1.0 - 2.0 * (ones.reshape(len(sizes), p, repeats) / cfg.shots)).sum(axis=2) / repeats
    group_angles = np.stack([z_to_angle(_mitigate_z(z[g], cfg.mitigation, noise, d)) for g, d in enumerate(sizes)])
    weights = np.asarray(sizes, dtype=float)
    mean_angle = (group_angles * weights[:, None]).sum(axis=0) / weights.sum()
    return AggregateResult(vector=denormalize(mean_angle, bounds), clip_count=clip_count)


def replicated_aggregate(
    client_vectors,
    bounds: WeightBounds,
    cfg: AggregationConfig,
    noise: NoiseModel,
    n_servers: int,
    seed_key=(0,),
) -> AggregateResult:
    """Run `aggregate` on n_servers independent streams; coordinate-wise median."""
    if n_servers < 1:
        raise ValueError("n_servers must be >= 1")
    if n_servers == 1:
        return aggregate(client_vectors, bounds, cfg, noise, seed_key)
    results = [aggregate(client_vectors, bounds, cfg, noise, tuple(seed_key) + (s,)) for s in range(n_servers)]
    stacked = np.stack([r.vector for r in results])
    return AggregateResult(vector=np.median(stacked, axis=0), clip_count=results[0].clip_count)


def variance_bound(shots: int, n_clients: int, depth: int, sigma_gate: float) -> float:
    """SIGMA_SHOT^2/(N*S) + sigma_gate^2 * d / N."""
    return SIGMA_SHOT**2 / (n_clients * shots) + sigma_gate**2 * depth / n_clients


def empirical_variance(
    plan: CircuitPlan,
    noise: NoiseModel,
    shots: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Sample variance of the raw decoded angle over `trials` independent `shots`-shot executions.

    The pre-measurement state is deterministic, so only measurement sampling
    is repeated (vectorized over trials).
    """
    if trials < 2:
        raise ValueError("need at least two trials")
    ones = rng.binomial(shots, float(circuit_p1(plan.gates, noise)), size=trials)
    angles = np.arcsin(np.sqrt(ones / shots))
    return float(np.var(angles, ddof=1))


def fit_sigma_gate(
    noise: NoiseModel,
    rng: np.random.Generator,
    shot_grid=(256, 1024, 4096, 16384, 65536),
    depths=range(1, MAX_GROUP + 1),
    trials: int = 300,
) -> float:
    """Calibrate sigma_gate once so the variance bound holds on a sweep.

    The bound is treated as a falsifiable contract: sigma_gate^2 is set to the
    largest excess of empirical variance over the shot term across the grid,
    times SIGMA_GATE_SAFETY.
    """
    worst = 0.0
    for d in depths:
        for s in shot_grid:
            angles = rng.uniform(0.05, HALF_PI - 0.05, size=d)
            plan = build_plan(angles)
            ev = empirical_variance(plan, noise, s, trials, rng)
            # single-group plans have N = d, so the gate term of the bound is
            # sigma_gate^2 exactly; the excess over the shot term calibrates it
            worst = max(worst, ev - SIGMA_SHOT**2 / (d * s))
    return math.sqrt(SIGMA_GATE_SAFETY * worst) if worst > 0 else 0.0


def commutation_check(channel: KrausChannel, m: Observable, state: DensityMatrix):
    """Theorem-3 style test: Tr(M rho) vs Tr(M E(rho))."""
    lhs = expectation(state, m)
    rhs = expectation(apply_channel(state, channel), m)
    return lhs, rhs, abs(lhs - rhs) < 1e-10


def noise_deviation(angle: float, noise: NoiseModel) -> float:
    """Trace distance D(rho, E(rho)) of the encoded state of `angle` and one gate-noise
    pass E: the empirical per-round noise epsilon.

    On one qubit D = |r - r'|/2 for Bloch vectors r and r' (Nielsen & Chuang
    9.2); here r = (sin 2a, cos 2a) and r' is `circuit_bloch` of one Ry(2a) gate.
    """
    x, z = circuit_bloch([2.0 * angle], noise)
    return 0.5 * math.hypot(math.sin(2.0 * angle) - float(x), math.cos(2.0 * angle) - float(z))
