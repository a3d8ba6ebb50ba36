import math

import numpy as np
import pytest

from nrqfl import config, qagg
from nrqfl.config import depol_attenuation, fused_gates, mitigation_transfer
from nrqfl.encode import HALF_PI, WeightBounds, denormalize, normalize
from nrqfl.qcore import NoiseModel

NOISELESS = NoiseModel()
DEPOL = NoiseModel(p_depol=0.05)


def exact_raw(angles, noise):
    return qagg.run_plan(fused_gates(angles), noise, 1, None, exact=True)


def rng_for(seed_key) -> np.random.Generator:
    """numpy's own seeding of the one shot stream an `aggregate` call keys by seed_key: `qagg._shot_draws`'s oracle."""
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in seed_key)))


def reference_aggregate(client_vectors, bounds, cfg, noise, seed_key=(0,)):
    """`aggregate` as one loop per group and parameter over fused_gates + run_plan: the oracle.

    The circuits run in the documented order, group by group and parameter by parameter within a group,
    each drawing its shots next from the call's one stream.
    """
    vectors = np.asarray(client_vectors, dtype=float)
    n, p = vectors.shape
    groups = [list(c) for c in np.array_split(np.arange(n), math.ceil(n / config.MAX_GROUP))]
    lo, hi = np.broadcast_to(bounds.lo, (p,)), np.broadcast_to(bounds.hi, (p,))
    per_param = [WeightBounds(lo[j], hi[j]) for j in range(p)]
    clip_count = sum(int(np.sum((vectors[:, j] < b.lo) | (vectors[:, j] > b.hi))) for j, b in enumerate(per_param))
    angles = np.array([[normalize(v, b) for v in vectors[:, j]] for j, b in enumerate(per_param)])
    rng = None if cfg.exact_expectation else rng_for(seed_key)
    group_angles = np.empty((len(groups), p))
    for g_idx, g in enumerate(groups):
        for j in range(p):
            z = qagg.run_plan(fused_gates(angles[j, g]), noise, cfg.shots, rng, exact=cfg.exact_expectation).z_raw
            if cfg.mitigation == "calibration":
                z = qagg.calibrate(noise, len(g)).invert(z)
            elif cfg.mitigation == "channel_inversion":
                z = np.clip(z / depol_attenuation(noise, len(g)), -1.0, 1.0)
            z = min(max(float(z), -1.0), 1.0)
            group_angles[g_idx, j] = math.asin(math.sqrt((1.0 - z) / 2.0))
    out = [denormalize(float(np.average(group_angles[:, j], weights=[len(g) for g in groups])), b)
           for j, b in enumerate(per_param)]
    return np.array(out, dtype=float), clip_count


ALL_NOISE = NoiseModel(p_depol=0.03, p_deph=0.02, gamma=0.02, readout_flip=0.01)
MITIGATION_GRID = list(config.MITIGATIONS)
# the old flag set {calibration, channel_inversion} ran as calibration; its case keeps that mapping pinned
MITIGATION_GRID.append(pytest.param("calibration", id="calibration+channel_inversion"))


class TestBuildPlan:
    def test_mean_by_construction(self):
        gates = fused_gates([0.2, 0.4, 0.6])
        assert gates == pytest.approx((2 * 0.2 / 3, 2 * 0.4 / 3, 2 * 0.6 / 3))
        assert exact_raw([0.2, 0.4, 0.6], NOISELESS).value == pytest.approx(0.4, abs=1e-12)

    def test_single_client(self):
        gates = fused_gates([0.7])
        assert gates == pytest.approx((1.4,))
        assert exact_raw([0.7], NOISELESS).value == pytest.approx(0.7, abs=1e-12)

    def test_symmetric_pair(self):
        assert exact_raw([0.1, 0.9], NOISELESS).value == pytest.approx(0.5, abs=1e-12)



class TestRunPlan:
    def test_noiseless_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            angles = rng.uniform(0, HALF_PI, size=rng.integers(1, 10))
            assert exact_raw(angles, NOISELESS).value == pytest.approx(np.mean(angles), abs=1e-10)

    def test_depolarizing_attenuation_oracle(self):
        # density-matrix oracle: three channel passes shrink <Z> by (1-4p/3)^3
        angles = [0.3, 0.5, 0.7]
        est = exact_raw(angles, DEPOL)
        lam3 = (1 - 4 * 0.05 / 3) ** 3
        expected_z = lam3 * math.cos(2 * np.mean(angles))
        assert est.z_raw == pytest.approx(expected_z, abs=1e-12)
        assert est.value == pytest.approx(math.asin(math.sqrt((1 - expected_z) / 2)), abs=1e-12)

    def test_two_seeds_within_sampling_envelope(self):
        gates = fused_gates([0.3, 0.5, 0.7])
        shots = 10**5
        a = qagg.run_plan(gates, DEPOL, shots, np.random.default_rng(1))
        b = qagg.run_plan(gates, DEPOL, shots, np.random.default_rng(2))
        assert a.value != b.value
        assert abs(a.value - b.value) < 4 * 2 / (2 * math.sqrt(shots))


def invert_channel(z, noise, depth):
    return mitigation_transfer("channel_inversion", noise, depth).invert(z)


class TestChannelInversion:
    def test_zero_noise_identity(self):
        assert invert_channel(0.42, NOISELESS, 5) == pytest.approx(0.42)

    def test_recovers_attenuated_value(self):
        z = 0.6
        lam3 = (1 - 4 * 0.05 / 3) ** 3
        assert invert_channel(lam3 * z, DEPOL, 3) == pytest.approx(z, abs=1e-9)

    def test_clamp_boundary(self):
        assert invert_channel(1.0, DEPOL, 3) == 1.0

    def test_ill_conditioned_depth(self):
        # the parse-time check and the mitigation share this rule and its message
        with pytest.raises(ValueError, match=r"noise\.p_depol = 0\.74 attenuates depth-100 .* mitigation cannot undo"):
            invert_channel(0.1, NoiseModel(p_depol=0.74), 100)


class TestCalibrate:
    def test_zero_noise(self):
        tf = qagg.calibrate(NOISELESS, 3)
        assert tf.lam_hat == pytest.approx(1.0, abs=1e-9)
        assert tf.b_hat == pytest.approx(0.0, abs=1e-9)

    def test_depolarizing_slope(self):
        tf = qagg.calibrate(DEPOL, 3)
        assert tf.lam_hat == pytest.approx((1 - 4 * 0.05 / 3) ** 3, abs=1e-9)
        assert tf.b_hat == pytest.approx(0.0, abs=1e-9)

    def test_damping_offset_sign(self):
        tf = qagg.calibrate(NoiseModel(gamma=0.03), 3)
        assert tf.b_hat > 0  # damping biases toward |0>

    def test_rejects_depth_outside_the_circuit_range(self):
        for depth in (0, config.MAX_GROUP + 1):
            with pytest.raises(ValueError, match="depth"):
                qagg.calibrate(DEPOL, depth)


class TestAggregate:
    def wide_bounds(self, p):
        return WeightBounds(np.full(p, -10.0), np.full(p, 10.0))

    def test_noiseless_mean(self):
        cfg = qagg.AggregationConfig(exact_expectation=True)
        result = qagg.aggregate([[1.0, 2.0], [3.0, 4.0]], self.wide_bounds(2), cfg, NOISELESS)
        assert result.vector == pytest.approx([2.0, 3.0], abs=1e-9)

    def test_identical_vectors_under_noise(self):
        cfg = qagg.AggregationConfig(
            shots=3 * 10**5,
            mitigation="calibration",
        )
        noise = NoiseModel(p_depol=0.05, gamma=0.03)
        vecs = [[0.4, -0.2]] * 3
        result = qagg.aggregate(vecs, WeightBounds(-1, 1), cfg, noise, seed_key=(7,))
        # 0.02 rad tolerance maps to 0.02/(pi/2) * span in weight units
        tol = 0.02 / HALF_PI * 2.0
        assert result.vector == pytest.approx([0.4, -0.2], abs=tol)

    def test_group_splitting_matches_global_mean(self, monkeypatch):
        depths, p1 = [], qagg.circuit_p1
        monkeypatch.setattr(qagg, "circuit_p1", lambda gates, noise: depths.append(gates.shape[-1]) or p1(gates, noise))
        rng = np.random.default_rng(3)
        vecs = rng.uniform(-5, 5, size=(12, 3))
        cfg = qagg.AggregationConfig(exact_expectation=True)
        result = qagg.aggregate(vecs, self.wide_bounds(3), cfg, NOISELESS)
        assert result.vector == pytest.approx(vecs.mean(axis=0), abs=1e-9)
        assert depths == [6, 6]  # 12 clients run as two circuits, each within MAX_GROUP

    def test_rejects_an_empty_client_set(self):
        with pytest.raises(ValueError, match="empty client set"):
            qagg.aggregate(np.empty((0, 2)), self.wide_bounds(2), qagg.AggregationConfig(), NOISELESS)

    def test_clip_counting(self):
        cfg = qagg.AggregationConfig(exact_expectation=True)
        result = qagg.aggregate([[20.0], [0.0]], WeightBounds(-10, 10), cfg, NOISELESS)
        assert result.clip_count == 1

    def test_rejects_mismatched_bounds(self):
        cfg = qagg.AggregationConfig()
        with pytest.raises(ValueError):
            qagg.aggregate([[1.0, 2.0], [3.0, 4.0]], WeightBounds([-1.0], [1.0]), cfg, NOISELESS)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
    def test_shared_bounds_equal_their_per_parameter_broadcast(self, exact):
        # the data reach past the bounds, so clipping is compared too
        cfg = qagg.AggregationConfig(shots=900, mitigation="calibration", exact_expectation=exact)
        vecs = np.random.default_rng(24).uniform(-2.0, 2.0, size=(13, 4))
        shared = qagg.aggregate(vecs, WeightBounds(-1.5, 1.0), cfg, ALL_NOISE, seed_key=(6,))
        full = qagg.aggregate(vecs, WeightBounds(np.full(4, -1.5), np.full(4, 1.0)), cfg, ALL_NOISE, seed_key=(6,))
        assert shared.clip_count == full.clip_count > 0
        assert np.array_equal(shared.vector, full.vector)

    def test_seeded_determinism(self):
        cfg = qagg.AggregationConfig(shots=1000)
        vecs = [[1.0, 2.0], [3.0, 4.0]]
        a = qagg.aggregate(vecs, self.wide_bounds(2), cfg, DEPOL, seed_key=(5,))
        b = qagg.aggregate(vecs, self.wide_bounds(2), cfg, DEPOL, seed_key=(5,))
        assert np.array_equal(a.vector, b.vector)


class TestAggregateMatchesReferenceLoop:
    # bounds narrower than the data on parameter 0, so some values clip
    BOUNDS = WeightBounds([-1.0, -3.0, -2.0], [1.0, 2.5, 2.0])

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
    @pytest.mark.parametrize("mitigation", MITIGATION_GRID)
    def test_every_client_count(self, mitigation, exact):
        rng = np.random.default_rng(20)
        cfg = qagg.AggregationConfig(shots=300, mitigation=mitigation, exact_expectation=exact)
        clipped = 0
        for n in range(1, 26):
            vecs = rng.uniform(-2.0, 2.0, size=(n, 3))
            got = qagg.aggregate(vecs, self.BOUNDS, cfg, ALL_NOISE, seed_key=(4, n))
            want, clip_count = reference_aggregate(vecs, self.BOUNDS, cfg, ALL_NOISE, seed_key=(4, n))
            assert got.clip_count == clip_count
            assert np.max(np.abs(got.vector - want)) <= 1e-12
            clipped += clip_count
        assert clipped > 0

    @pytest.mark.parametrize("n_servers", [1, 3])
    def test_replicated(self, n_servers):
        cfg = qagg.AggregationConfig(shots=900, mitigation="calibration")
        vecs = np.random.default_rng(21).uniform(-2.0, 2.0, size=(11, 3))
        got = qagg.replicated_aggregate(vecs, self.BOUNDS, cfg, ALL_NOISE, n_servers, seed_key=(8,))
        keys = [(8,)] if n_servers == 1 else [(8, s) for s in range(n_servers)]
        runs = [reference_aggregate(vecs, self.BOUNDS, cfg, ALL_NOISE, seed_key=k) for k in keys]
        assert got.clip_count == runs[0][1]
        assert np.max(np.abs(got.vector - np.median([v for v, _ in runs], axis=0))) <= 1e-12


class TestShotStreams:
    def test_draws_are_numpys_own_stream_and_keys_stay_non_negative(self):
        probs = np.array([[0.0, 1e-12, 0.2], [0.5, 0.8, 1.0]])
        for seed_key in [(), (0,), (3, 2**32), (2**64 + 3, 1, 7)]:
            for shots in (1, 300, 12288, 2**63 - 1):
                want = rng_for(seed_key).binomial(shots, probs)
                assert np.array_equal(qagg._shot_draws(seed_key, shots, probs), want)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            qagg._shot_draws((3, -1), 300, probs)


class TestCalibrationCache:
    def test_cached_fit_equals_fresh_fit_per_noise_and_depth(self):
        mitigation_transfer.cache_clear()
        fits = {}
        for noise in (DEPOL, ALL_NOISE):
            for d in (3, 5):
                fits[noise, d] = mitigation_transfer("calibration", noise, d)
                assert fits[noise, d] == qagg.calibrate(noise, d)
                assert mitigation_transfer("calibration", noise, d) is fits[noise, d]
        assert len(set(fits.values())) == 4
        assert mitigation_transfer.cache_info().misses == 4

    def test_aggregate_fits_once_per_depth(self, monkeypatch):
        calls = []
        real = config.fit_calibration
        monkeypatch.setattr(config, "fit_calibration", lambda noise, depth: calls.append(depth) or real(noise, depth))
        mitigation_transfer.cache_clear()
        cfg = qagg.AggregationConfig(shots=300, mitigation="calibration")
        vecs = np.random.default_rng(23).uniform(-1.0, 1.0, size=(11, 2))  # groups of 6 and 5
        for key in range(3):
            qagg.aggregate(vecs, WeightBounds(-1, 1), cfg, ALL_NOISE, seed_key=(key,))
        assert sorted(calls) == [5, 6]


class TestReplicatedAggregate:
    def test_single_server_bit_identical(self):
        cfg = qagg.AggregationConfig(shots=1000)
        vecs = [[1.0], [3.0]]
        bounds = WeightBounds(-10, 10)
        direct = qagg.aggregate(vecs, bounds, cfg, DEPOL, seed_key=(9,))
        replicated = qagg.replicated_aggregate(vecs, bounds, cfg, DEPOL, 1, seed_key=(9,))
        assert np.array_equal(direct.vector, replicated.vector)

    def test_median_robust_to_outlier(self):
        cfg = qagg.AggregationConfig(exact_expectation=True)
        vecs = [[1.0], [3.0]]
        bounds = WeightBounds(-10, 10)
        result = qagg.replicated_aggregate(vecs, bounds, cfg, NOISELESS, 5, seed_key=(1,))
        per_server = np.array([result.vector[0]] * 5)
        per_server[0] += 1e3  # adversarial replacement
        assert np.median(per_server) == pytest.approx(result.vector[0])

    def test_variance_not_worse_than_single(self):
        cfg = qagg.AggregationConfig(shots=500)
        vecs = [[0.5], [1.0], [1.5]]
        bounds = WeightBounds(0, 2)
        singles, triples = [], []
        for s in range(60):
            singles.append(qagg.aggregate(vecs, bounds, cfg, DEPOL, seed_key=(s, 0)).vector[0])
            triples.append(qagg.replicated_aggregate(vecs, bounds, cfg, DEPOL, 3, seed_key=(s, 1)).vector[0])
        assert np.var(triples) <= np.var(singles)

    def test_rejects_zero_servers(self):
        cfg = qagg.AggregationConfig()
        with pytest.raises(ValueError):
            qagg.replicated_aggregate([[1.0]], WeightBounds(0, 2), cfg, NOISELESS, 0)


class TestVarianceBound:
    def test_direct_formula(self):
        assert qagg.variance_bound(1024) == pytest.approx(0.25 / 1024, abs=1e-15)

    def test_noiseless_limit(self):
        assert qagg.variance_bound(10**9) < 1e-9

    def test_doubling_shots_halves_shot_term(self):
        assert qagg.variance_bound(1000) == pytest.approx(2 * qagg.variance_bound(2000))

    @pytest.mark.parametrize("noise", [NoiseModel(p_depol=0.05, gamma=0.03), NoiseModel(p_deph=0.05, readout_flip=0.02)],
                             ids=["default-noise", "dephasing-readout"])
    def test_raw_angle_variance_averages_to_the_bound(self, noise):
        # gate noise moves the decoded angle's mean, not its spread: the ratio averages to 1 at any depth and shot count
        rng = np.random.default_rng(16)
        ratios = []
        for depth in range(1, config.MAX_GROUP + 1):
            for k in range(20):
                cfg = qagg.AggregationConfig(shots=int(rng.integers(256, 65537)))
                angles = rng.uniform(0.05, HALF_PI - 0.05, size=depth)
                variance = qagg.empirical_variance(angles, cfg, noise, 200, seed_key=(16, depth, k))
                ratios.append(variance / qagg.variance_bound(cfg.shots))
        assert 0.95 <= np.mean(ratios) <= 1.05


class TestEmpiricalVariance:
    def test_shot_scaling(self):
        angles = [0.3, 0.5, 0.7, 0.9, 1.1]
        v1 = qagg.empirical_variance(angles, qagg.AggregationConfig(shots=1000), DEPOL, 500, seed_key=(10, 1))
        v4 = qagg.empirical_variance(angles, qagg.AggregationConfig(shots=4000), DEPOL, 500, seed_key=(10, 4))
        assert 0.7 * 4 <= v1 / v4 <= 1.3 * 4

    def test_mitigated_variance_grows_with_depth(self):
        # the inverse transfer amplifies shot noise by 1/lam^d; each parameter is one independent estimate
        cfg = qagg.AggregationConfig(shots=2000, mitigation="calibration")
        noise = NoiseModel(p_depol=0.05, gamma=0.03)
        trials = 2000
        variances = []
        for d in (1, 3, 5, 7, 9):
            result = qagg.aggregate(np.full((d, trials), 0.6), WeightBounds(0.0, HALF_PI), cfg, noise)
            variances.append(np.var(result.vector, ddof=1))
        assert all(a < b for a, b in zip(variances, variances[1:]))

    def test_rejects_single_trial(self):
        with pytest.raises(ValueError):
            qagg.empirical_variance([0.5], qagg.AggregationConfig(shots=100), DEPOL, 1)


class TestNoiseDeviation:
    def test_noiseless_is_zero(self):
        for angle in np.random.default_rng(14).uniform(0.0, HALF_PI, size=5):
            assert qagg.noise_deviation(angle, NOISELESS) == pytest.approx(0.0, abs=1e-12)

    def test_dephasing_on_plus(self):
        for p in (0.05, 0.2, 0.5):
            assert qagg.noise_deviation(math.pi / 4, NoiseModel(p_deph=p)) == pytest.approx(p, abs=1e-12)

    def test_depolarizing_on_pure_states(self):
        rng = np.random.default_rng(15)
        prev = 0.0
        for p in (0.05, 0.1, 0.2, 0.4):
            eps = qagg.noise_deviation(float(rng.uniform(0.0, HALF_PI)), NoiseModel(p_depol=p))
            assert eps == pytest.approx(2 * p / 3, abs=1e-10)
            assert eps > prev  # monotone in p
            prev = eps
