"""Client selection driven by simulated quantum entropy.

Raw bits come from measuring H|0> (realized as Ry(pi/2)|0>, which has the same
measurement statistics) under the configured noise model. Noise biases the raw
bits, so a von Neumann extractor unbiases them before use; client subsets are
then drawn by rejection sampling on ceil(log2(n))-bit indices, which avoids
modulo bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import NoiseModel, circuit_p1

ENTROPY_CIRCUIT = (math.pi / 2,)
ENTROPY_FLOOR = 1e-3  # smallest P(1) or P(0) of the entropy circuit a selection draws from
CHUNK = 1 << 16  # raw bits drawn per refill of an EntropySource


@dataclass(frozen=True)
class SelectionVector:
    """One round's selected client subset and the entropy spent choosing it."""

    round: int
    selected: tuple
    entropy_bits_consumed: int

    def __post_init__(self):
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("selected clients must be unique")
        object.__setattr__(self, "selected", tuple(sorted(int(c) for c in self.selected)))


@lru_cache(maxsize=64)
def entropy_p1(noise: NoiseModel) -> float:
    """P(1) of ENTROPY_CIRCUIT under `noise`, cached for the parse check and every refill; a ValueError within
    ENTROPY_FLOOR of 0 or 1, where von Neumann extraction keeps about p(1 - p) of the raw bits and selection stalls."""
    p1 = float(circuit_p1(ENTROPY_CIRCUIT, noise))
    if not ENTROPY_FLOOR <= p1 <= 1 - ENTROPY_FLOOR:
        raise ValueError(f"noise makes the selection entropy circuit read P(1) within {ENTROPY_FLOOR} of 0 or 1, "
                         "so it yields almost no random bits")
    return p1


def quantum_random_bits(k: int, p1: float, rng: np.random.Generator) -> np.ndarray:
    """k single-shot measurements, one Bernoulli draw each, of a circuit that reads P(1) = p1 (`entropy_p1`)."""
    if k < 1:
        raise ValueError("need k >= 1 bits")
    return (rng.random(k) < p1).astype(np.uint8)


def von_neumann_extract(bits: np.ndarray) -> np.ndarray:
    """Unbias by pairing: keep the first bit of each 01/10 pair, drop 00/11."""
    bits = np.asarray(bits, dtype=np.uint8)
    n = len(bits) - len(bits) % 2
    a, b = bits[:n:2], bits[1:n:2]
    return a[a != b]


class EntropySource:
    """Buffered stream of von Neumann-extracted quantum-entropy bits.

    Each refill draws exactly CHUNK raw bits from the source's own generator.
    Each refill applies `entropy_p1`, so a draw under noise that it refuses raises.
    """

    def __init__(self, noise: NoiseModel, seed):
        self.noise = noise
        self._rng = np.random.default_rng(seed)
        self._buffer = np.empty(0, dtype=np.uint8)
        self.bits_consumed = 0

    def _refill(self, need: int) -> None:
        while len(self._buffer) < need:
            fresh = von_neumann_extract(quantum_random_bits(CHUNK, entropy_p1(self.noise), self._rng))
            self._buffer = np.concatenate([self._buffer, fresh])

    def take(self, k: int) -> np.ndarray:
        self._refill(k)
        out, self._buffer = self._buffer[:k], self._buffer[k:]
        self.bits_consumed += k
        return out


def select_clients(n: int, m: int, bits, round_index: int = 0) -> SelectionVector:
    """Uniformly draw an m-of-n subset via rejection sampling on bit-built indices."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    start = bits.bits_consumed
    if m == n:
        return SelectionVector(round_index, tuple(range(n)), 0)
    n_bits = max(1, math.ceil(math.log2(n)))
    chosen: set = set()
    while len(chosen) < m:
        idx_bits = bits.take(n_bits)
        idx = int(np.dot(idx_bits, 1 << np.arange(n_bits - 1, -1, -1)))
        if idx < n and idx not in chosen:
            chosen.add(idx)
    return SelectionVector(round_index, tuple(chosen), bits.bits_consumed - start)
