"""Quantum aggregation: noisy execution of fused circuits, and mitigation.

Client angles are fused on a single qubit by composing Ry(2*a_k/N) rotations
(`config.fused_gates`); about a common axis these add, so the noiseless
circuit prepares exactly the state encoding mean(a). One noise-channel pass
per gate defines the circuit depth d. More than 9 clients are split into groups
of <= 9 (depth stays below 10) whose results are combined by a size-weighted
classical mean. Every circuit's P(1) comes from `qcore.circuit_p1`:
`aggregate` takes the circuits of all parameters of a group in one call. The
per-round noise deviation (`noise_deviation`) is a closed form on the same
engine's Bloch vectors, so a run builds no state matrix or Kraus channel.
`run_plan` runs one circuit's gate array, and `simulate_plan` builds its
state matrix; only the test oracles call them.

Each circuit's <Z> is the mean of AggregationConfig.repeats independent
executions. `aggregate` then inverts the linear transfer noisy_z = lam * ideal_z + b
that `config.mitigation_transfer` maps AggregationConfig.mitigation to, once
per (noise, depth), and clamps the result to [-1, 1].

Every execution draws its shots from its own stream, the one
`default_rng(SeedSequence(key))` would give. `_seed_pools` and `_shot_draws`
run SeedSequence's hashing for all of a call's keys as uint32 array ops, and
numpy's PCG64 seeds itself from each stream's four words (`_SeedWords`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .config import (AggregationConfig, TransferFunction, check_int, fit_calibration, fused_gates, group_sizes,
                     mitigation_transfer)
from .encode import WeightBounds, denormalize, normalize, z_to_angle
from .qcore import DensityMatrix, NoiseModel, circuit_bloch, circuit_p1, sample_measurement

SIGMA_SHOT = 0.5  # per-shot standard deviation of the decoded angle arcsin(sqrt(p)), to first order at any p
_WORD = 0xFFFFFFFF
_OTHER_WORDS = [np.array([d for d in range(4) if d != s]) for s in range(4)]  # pool words each word mixes into


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


def simulate_plan(gates, noise: NoiseModel) -> DensityMatrix:
    """Deterministic pre-measurement state of one circuit's Ry gate angles, each followed by a noise pass."""
    x, z = (float(v) for v in circuit_bloch(gates, noise))
    return DensityMatrix(np.array([[(1.0 + z) / 2.0, x / 2.0], [x / 2.0, (1.0 - z) / 2.0]], dtype=complex))


def run_plan(
    gates,
    noise: NoiseModel,
    shots: int,
    rng: np.random.Generator | None,
    exact: bool = False,
) -> AggregateEstimate:
    """Execute one circuit's gate angles and decode the raw (pre-mitigation) angle estimate.

    With exact=True the infinite-shot expectation is used instead of sampling.
    """
    if exact:
        p1 = float(circuit_p1(gates, noise))
    else:
        if rng is None:
            raise ValueError("sampled execution needs an RNG stream")
        zeros, ones = sample_measurement(simulate_plan(gates, noise), 0, shots, rng, noise.readout_flip)
        p1 = ones / shots
    z = 1.0 - 2.0 * p1
    return AggregateEstimate(value=float(z_to_angle(z)), z_raw=z)


def calibrate(noise: NoiseModel, depth: int) -> TransferFunction:
    """The transfer `fit_calibration` fits to depth-`depth` circuits; rounds take `mitigation_transfer`'s cached fit."""
    return TransferFunction(*fit_calibration(noise, depth))


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


class _SeedWords(ISeedSequence):
    """Hands a bit generator one stream's precomputed `SeedSequence.generate_state(4, uint64)` words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _shot_draws(seed_key, suffixes, shots: int, probs) -> np.ndarray:
    """`default_rng(SeedSequence((*seed_key, *row))).binomial(shots, p)` per row of `suffixes` and p, bit for bit.

    The pools become PCG64 seeds as `SeedSequence.generate_state(4, uint64)`
    does, all streams at once; numpy's PCG64 then seeds each stream from its
    four words as it would from a SeedSequence.
    """
    consts = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # numpy's INIT_B, MULT_B
    words = (_seed_pools(seed_key, suffixes).T[[0, 1, 2, 3, 0, 1, 2, 3]] ^ consts[:-1]) * consts[1:]
    words = (words ^ words >> 16).astype(np.uint64)
    seeds = (words[0::2] | words[1::2] << np.uint64(32)).T.copy()  # one row of 4 uint64 words per stream
    draws = [Generator(PCG64(_SeedWords(row))).binomial(shots, p) for row, p in zip(seeds, probs)]
    return np.array(draws, dtype=np.int64)


def aggregate(
    client_vectors,
    bounds: WeightBounds,
    cfg: AggregationConfig,
    noise: NoiseModel,
    seed_key=(0,),
) -> AggregateResult:
    """Quantum-aggregate N client parameter vectors into their (uniform) mean.

    normalize -> per client group, P(1) of the circuits of all P parameters in
    one `circuit_p1` call -> sample (with repeats) -> invert the group depth's
    `mitigation_transfer` -> decode ->
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
    sizes = group_sizes(n)
    p1 = np.stack([circuit_p1(fused_gates(angles[end - d:end].T), noise) for d, end in zip(sizes, accumulate(sizes))])
    if cfg.exact_expectation:
        z = 1.0 - 2.0 * p1
    else:
        group, param, rep = np.indices((len(sizes), p, cfg.repeats)).reshape(3, -1)
        keys = np.stack([param, group, rep], axis=1)  # stream keys end (parameter, group, repeat)
        ones = _shot_draws(seed_key, keys, cfg.shots, np.repeat(p1, cfg.repeats).tolist())
        z = (1.0 - 2.0 * (ones.reshape(len(sizes), p, cfg.repeats) / cfg.shots)).sum(axis=2) / cfg.repeats
    group_angles = np.stack([z_to_angle(mitigation_transfer(cfg.mitigation, noise, d).invert(z[g]))
                             for g, d in enumerate(sizes)])
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
    check_int("n_servers", n_servers)
    if n_servers == 1:
        return aggregate(client_vectors, bounds, cfg, noise, seed_key)
    results = [aggregate(client_vectors, bounds, cfg, noise, tuple(seed_key) + (s,)) for s in range(n_servers)]
    stacked = np.stack([r.vector for r in results])
    return AggregateResult(vector=np.median(stacked, axis=0), clip_count=results[0].clip_count)


def variance_bound(shots: int) -> float:
    """SIGMA_SHOT^2/S: arcsin(sqrt(p_hat)) stabilises the variance of a shot-S binomial estimate
    (Anscombe 1948), so neither the depth nor the client count enters; gate noise moves only the mean."""
    return SIGMA_SHOT**2 / shots


def empirical_variance(
    gates,
    noise: NoiseModel,
    shots: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Sample variance of one circuit's raw decoded angle over `trials` independent `shots`-shot executions.

    The pre-measurement state is deterministic, so only measurement sampling
    is repeated (vectorized over trials).
    """
    if trials < 2:
        raise ValueError("need at least two trials")
    ones = rng.binomial(shots, float(circuit_p1(gates, noise)), size=trials)
    return float(np.var(z_to_angle(1.0 - 2.0 * (ones / shots)), ddof=1))


def noise_deviation(angle: float, noise: NoiseModel) -> float:
    """Trace distance D(rho, E(rho)) of the encoded state of `angle` and one gate-noise
    pass E: the empirical per-round noise epsilon.

    On one qubit D = |r - r'|/2 for Bloch vectors r and r' (Nielsen & Chuang
    9.2); here r = (sin 2a, cos 2a) and r' is `circuit_bloch` of one Ry(2a) gate.
    """
    x, z = circuit_bloch([2.0 * angle], noise)
    return 0.5 * math.hypot(math.sin(2.0 * angle) - float(x), math.cos(2.0 * angle) - float(z))
