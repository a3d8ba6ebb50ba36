import numpy as np
import pytest
from scipy import stats

from nrqfl.qcore import NoiseModel
from nrqfl.qselect import (
    EntropySource,
    SelectionVector,
    quantum_random_bits,
    select_clients,
    von_neumann_extract,
)

NOISELESS = NoiseModel()


class FixedBits:
    """Replayable bit source for deterministic tests."""

    def __init__(self, bits):
        self._bits = np.asarray(bits, dtype=np.uint8)
        self._pos = 0
        self.bits_consumed = 0

    def take(self, k: int) -> np.ndarray:
        if self._pos + k > len(self._bits):
            raise ValueError("fixed bit source exhausted")
        out = self._bits[self._pos : self._pos + k]
        self._pos += k
        self.bits_consumed += k
        return out


def fairness_report(history, n: int):
    """Per-client selection counts and Pearson chi-square against uniform."""
    if not history:
        raise ValueError("empty selection history")
    counts = np.zeros(n, dtype=int)
    for sv in history:
        for c in sv.selected:
            counts[c] += 1
    t = len(history)
    m = len(history[0].selected)
    expected = m * t / n
    chi_square = float(np.sum((counts - expected) ** 2 / expected))
    return chi_square, counts


class TestQuantumRandomBits:
    def test_noiseless_is_fair(self):
        bits = quantum_random_bits(10**5, NOISELESS, np.random.default_rng(0))
        assert abs(bits.mean() - 0.5) < 0.006  # binomial 4-sigma

    def test_total_decay_gives_zeros(self):
        bits = quantum_random_bits(1000, NoiseModel(gamma=1.0), np.random.default_rng(1))
        assert not bits.any()

    def test_seed_determinism(self):
        a = quantum_random_bits(500, NOISELESS, np.random.default_rng(7))
        b = quantum_random_bits(500, NOISELESS, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_noise_biases_raw_bits(self):
        bits = quantum_random_bits(10**5, NoiseModel(gamma=0.2), np.random.default_rng(2))
        assert bits.mean() < 0.45


class TestVonNeumannExtract:
    def test_known_pairs(self):
        out = von_neumann_extract([0, 1, 1, 0, 0, 0, 1, 1])
        assert list(out) == [0, 1]

    def test_unbiases_biased_stream(self):
        rng = np.random.default_rng(7)
        raw = (rng.random(10**6) < 0.55).astype(np.uint8)
        out = von_neumann_extract(raw)
        assert abs(out.mean() - 0.5) < 1e-3


class TestSelectClients:
    def test_all_clients(self):
        sv = select_clients(5, 5, FixedBits([]))
        assert sv.selected == (0, 1, 2, 3, 4)
        assert sv.entropy_bits_consumed == 0

    def test_fixed_stream_replay(self):
        # rejection-sampling oracle on 3-bit indices for n=5:
        # 110 -> 6 rejected, 010 -> 2, 010 -> 2 duplicate rejected, 000 -> 0, 100 -> 4
        bits = FixedBits([1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0])
        sv = select_clients(5, 3, bits)
        assert sv.selected == (0, 2, 4)
        assert sv.entropy_bits_consumed == 15

    def test_subset_uniformity(self):
        from itertools import combinations

        source = EntropySource(NOISELESS, seed=3)
        counts = {c: 0 for c in combinations(range(5), 3)}
        rounds = 10**4
        for t in range(rounds):
            counts[select_clients(5, 3, source, t).selected] += 1
        for c, k in counts.items():
            assert abs(k - 1000) <= 130  # multinomial 4-sigma

    def test_rejects_m_above_n(self):
        with pytest.raises(ValueError):
            select_clients(3, 4, FixedBits([]))


class TestFairnessReport:
    def test_full_participation_is_zero(self):
        history = [SelectionVector(t, tuple(range(5)), 0) for t in range(100)]
        chi, counts = fairness_report(history, 5)
        assert chi == 0.0
        assert list(counts) == [100] * 5

    def test_starved_client_detected(self):
        rng = np.random.default_rng(4)
        history = []
        for t in range(10**4):
            chosen = tuple(sorted(rng.choice(4, size=3, replace=False)))  # client 4 never selected
            history.append(SelectionVector(t, chosen, 0))
        chi, counts = fairness_report(history, 5)
        assert counts[4] == 0
        assert chi > stats.chi2.ppf(0.999, df=4)

    def test_rejects_empty_history(self):
        with pytest.raises(ValueError):
            fairness_report([], 5)


class TestEntropySource:
    def test_tracks_consumption(self):
        source = EntropySource(NOISELESS, seed=0)
        source.take(100)
        source.take(28)
        assert source.bits_consumed == 128

    def test_biased_source_still_uniform_after_extraction(self):
        source = EntropySource(NoiseModel(gamma=0.2), seed=1)
        bits = source.take(10**5)
        assert abs(bits.mean() - 0.5) < 0.007

    def test_degenerate_noise_raises_instead_of_hanging(self):
        # total decay reads P(1) = 0, so the extractor could never yield a bit
        source = EntropySource(NoiseModel(gamma=1.0), seed=0)
        assert source.p1 == 0.0
        with pytest.raises(ValueError, match="no random bits"):
            source.take(1)

    def test_degenerate_noise_allows_full_selection(self):
        # m == n spends no entropy, so the degenerate source is never drawn from
        source = EntropySource(NoiseModel(gamma=1.0), seed=0)
        assert select_clients(5, 5, source).selected == (0, 1, 2, 3, 4)
