import time

import numpy as np
import pytest

from nrqfl.config import ConfigError, config_from_dict
from nrqfl.qcore import NoiseModel, circuit_p1
from nrqfl.qselect import (
    ENTROPY_CIRCUIT,
    ENTROPY_FLOOR,
    EntropySource,
    entropy_p1,
    quantum_random_bits,
    select_clients,
    von_neumann_extract,
)

NOISELESS = NoiseModel()


def raw_p1(noise: NoiseModel) -> float:
    """P(1) of the entropy circuit under `noise`, without the floor `entropy_p1` applies."""
    return float(circuit_p1(ENTROPY_CIRCUIT, noise))


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


class TestQuantumRandomBits:
    def test_noiseless_is_fair(self):
        bits = quantum_random_bits(10**5, entropy_p1(NOISELESS), np.random.default_rng(0))
        assert abs(bits.mean() - 0.5) < 0.006  # binomial 4-sigma

    def test_total_decay_gives_zeros(self):
        bits = quantum_random_bits(1000, raw_p1(NoiseModel(gamma=1.0)), np.random.default_rng(1))
        assert not bits.any()

    def test_seed_determinism(self):
        a = quantum_random_bits(500, entropy_p1(NOISELESS), np.random.default_rng(7))
        b = quantum_random_bits(500, entropy_p1(NOISELESS), np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_noise_biases_raw_bits(self):
        bits = quantum_random_bits(10**5, entropy_p1(NoiseModel(gamma=0.2)), np.random.default_rng(2))
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
        assert raw_p1(source.noise) == 0.0
        with pytest.raises(ValueError, match="no random bits"):
            source.take(1)

    def test_degenerate_noise_allows_full_selection(self):
        # m == n spends no entropy, so the degenerate source is never drawn from
        source = EntropySource(NoiseModel(gamma=1.0), seed=0)
        assert select_clients(5, 5, source).selected == (0, 1, 2, 3, 4)


class TestEntropyFloor:
    def test_library_source_below_the_floor_raises_at_its_first_draw(self):
        # P(1) = 5e-8: extraction would keep about one bit per 10^7 raw bits, so a selection would take seconds
        source = EntropySource(NoiseModel(gamma=1 - 1e-7), seed=0)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="no random bits"):
            select_clients(5, 3, source)
        assert time.perf_counter() - t0 < 0.5
        assert source.bits_consumed == 0

    @pytest.mark.parametrize("gamma, readout_flip, p1, accepted", [
        (1 - 2 * 0.9 * ENTROPY_FLOOR, 0.0, 0.9 * ENTROPY_FLOOR, False),
        (1 - 2 * 1.1 * ENTROPY_FLOOR, 0.0, 1.1 * ENTROPY_FLOOR, True),
        (1 - 2 * 0.9 * ENTROPY_FLOOR, 1.0, 1 - 0.9 * ENTROPY_FLOOR, False),
        (1 - 2 * 1.1 * ENTROPY_FLOOR, 1.0, 1 - 1.1 * ENTROPY_FLOOR, True),
    ], ids=["below-floor", "above-floor", "above-ceiling", "below-ceiling"])
    def test_parse_check_and_source_share_the_rule(self, gamma, readout_flip, p1, accepted):
        # amplitude damping takes the circuit's P(1) of 1/2 down to (1 - gamma)/2; a full readout flip mirrors it
        noise = {"gamma": gamma, "readout_flip": readout_flip}
        assert raw_p1(NoiseModel(**noise)) == pytest.approx(p1)
        source = EntropySource(NoiseModel(**noise), seed=0)
        if accepted:
            config_from_dict({"noise": noise, "selection_m": 3, "strategies": ["fedavg", "qfl"]})
            assert len(select_clients(5, 3, source).selected) == 3
            return
        with pytest.raises(ConfigError) as parsed:
            config_from_dict({"noise": noise, "selection_m": 3, "strategies": ["fedavg", "qfl"]})
        with pytest.raises(ValueError) as drawn:
            source.take(1)
        assert str(drawn.value) == str(parsed.value)
