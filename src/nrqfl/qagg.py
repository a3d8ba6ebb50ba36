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
state matrix; only the test oracles call them. `empirical_variance` is the
spread of `replicated_aggregate`'s own estimates, so the Theorem 2 check,
criterion 5 and `nrqfl sweep` all measure the shots a round draws.

Each circuit's <Z> is estimated from AggregationConfig.shots executions.
`aggregate` then inverts the linear transfer noisy_z = lam * ideal_z + b
that `config.mitigation_transfer` maps AggregationConfig.mitigation to, once
per (noise, depth), and clamps the result to [-1, 1].

One `aggregate` call draws all of its shots from one stream,
`default_rng(SeedSequence(seed_key))`: one binomial count per circuit, over
the (group, parameter) array of P(1) in C order, so group 0's P parameters
come first. A parameter's counts therefore change when P, the group count
or that order changes; a given (config, seed) still gives the same counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .config import (AggregationConfig, TransferFunction, check_int, fit_calibration, fused_gates, group_sizes,
                     mitigation_transfer)
from .encode import ANGLE_BOUNDS, WeightBounds, denormalize, normalize, z_to_angle
from .qcore import DensityMatrix, NoiseModel, circuit_bloch, circuit_p1, sample_measurement

SIGMA_SHOT = 0.5  # per-shot standard deviation of the decoded angle arcsin(sqrt(p)), to first order at any p


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


def _shot_draws(seed_key, shots: int, probs) -> np.ndarray:
    """Ones out of `shots` at each P(1) of `probs`, drawn in C order from the one stream `seed_key` keys."""
    return np.random.default_rng(np.random.SeedSequence(tuple(seed_key))).binomial(shots, probs)


def aggregate(
    client_vectors,
    bounds: WeightBounds,
    cfg: AggregationConfig,
    noise: NoiseModel,
    seed_key=(0,),
) -> AggregateResult:
    """Quantum-aggregate N client parameter vectors into their (uniform) mean.

    normalize -> per client group, P(1) of the circuits of all P parameters in
    one `circuit_p1` call -> sample -> invert the group depth's
    `mitigation_transfer` -> decode ->
    size-weighted mean over groups -> denormalize. Groups of more than 9
    clients are combined by that classical mean. `_shot_draws` samples every
    circuit of the call from the one stream `seed_key` keys, in the module's
    documented (group, parameter) order.
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
        z = 1.0 - 2.0 * (_shot_draws(seed_key, cfg.shots, p1) / cfg.shots)
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
    angles,
    cfg: AggregationConfig,
    noise: NoiseModel,
    trials: int,
    n_servers: int = 1,
    seed_key=(0,),
) -> float:
    """Sample variance of `replicated_aggregate`'s estimate of one parameter whose client angles are `angles`.

    One call over `trials` parameters that each hold `angles` under ANGLE_BOUNDS; each draws its own shots,
    so each is one independent estimate. Unmitigated, with one group and server, that estimate is the raw
    decoded angle `variance_bound` covers.
    """
    if trials < 2:
        raise ValueError("need at least two trials")
    columns = np.repeat(np.asarray(angles, dtype=float)[:, None], trials, axis=1)
    result = replicated_aggregate(columns, ANGLE_BOUNDS, cfg, noise, n_servers, seed_key)
    return float(np.var(result.vector, ddof=1))


def noise_deviation(angle: float, noise: NoiseModel) -> float:
    """Trace distance D(rho, E(rho)) of the encoded state of `angle` and one gate-noise
    pass E: the empirical per-round noise epsilon.

    On one qubit D = |r - r'|/2 for Bloch vectors r and r' (Nielsen & Chuang
    9.2); here r = (sin 2a, cos 2a) and r' is `circuit_bloch` of one Ry(2a) gate.
    """
    x, z = circuit_bloch([2.0 * angle], noise)
    return 0.5 * math.hypot(math.sin(2.0 * angle) - float(x), math.cos(2.0 * angle) - float(z))
