import itertools
import math

import numpy as np
import pytest

from nrqfl import qagg
from nrqfl.encode import HALF_PI, WeightBounds, denormalize, normalize
from nrqfl.qcore import (
    NoiseModel,
    Z_OBSERVABLE,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    make_pure_state,
    random_density_matrix,
)

NOISELESS = NoiseModel()
DEPOL = NoiseModel(p_depol=0.05)


def exact_raw(angles, noise):
    plan = qagg.build_plan(angles)
    return qagg.run_plan(plan, noise, 1, None, exact=True)


def rng_for(seed_key, *suffix) -> np.random.Generator:
    """numpy's own seeding of the shot stream keyed by (seed_key, *suffix): the oracle of `qagg._shot_draws`."""
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in tuple(seed_key) + suffix)))


def reference_aggregate(client_vectors, bounds, cfg, noise, seed_key=(0,)):
    """`aggregate` as one loop per parameter and group over build_plan + run_plan: the oracle."""
    vectors = np.asarray(client_vectors, dtype=float)
    n, p = vectors.shape
    groups = [list(c) for c in np.array_split(np.arange(n), math.ceil(n / qagg.MAX_GROUP))]
    repeats = cfg.repeats if "measurement_averaging" in cfg.mitigation else 1
    out, clip_count = np.empty(p), 0
    lo, hi = np.broadcast_to(bounds.lo, (p,)), np.broadcast_to(bounds.hi, (p,))
    for j in range(p):
        b = WeightBounds(lo[j], hi[j])
        values = vectors[:, j]
        clip_count += int(np.sum((values < b.lo) | (values > b.hi)))
        angles = np.array([normalize(v, b) for v in values])
        group_angles = []
        for g_idx, g in enumerate(groups):
            plan = qagg.build_plan(angles[g])
            if cfg.exact_expectation:
                z = qagg.run_plan(plan, noise, cfg.shots, None, exact=True).z_raw
            else:
                z = float(np.mean([qagg.run_plan(plan, noise, cfg.shots, rng_for(seed_key, j, g_idx, r)).z_raw
                                   for r in range(repeats)]))
            if "calibration" in cfg.mitigation:
                z = qagg.calibrate(noise, plan.depth).invert(z)
            elif "channel_inversion" in cfg.mitigation:
                z = qagg.mitigate_channel_inversion(z, noise, plan.depth)
            z = min(max(float(z), -1.0), 1.0)
            group_angles.append(math.asin(math.sqrt((1.0 - z) / 2.0)))
        out[j] = denormalize(float(np.average(group_angles, weights=[len(g) for g in groups])), b)
    return out, clip_count


ALL_NOISE = NoiseModel(p_depol=0.03, p_deph=0.02, gamma=0.02, readout_flip=0.01)
MITIGATION_SUBSETS = [frozenset(c) for k in range(4) for c in itertools.combinations(sorted(qagg.MITIGATION_FLAGS), k)]


class TestBuildPlan:
    def test_mean_by_construction(self):
        plan = qagg.build_plan([0.2, 0.4, 0.6])
        assert plan.gates == pytest.approx((2 * 0.2 / 3, 2 * 0.4 / 3, 2 * 0.6 / 3))
        assert exact_raw([0.2, 0.4, 0.6], NOISELESS).value == pytest.approx(0.4, abs=1e-12)

    def test_single_client(self):
        plan = qagg.build_plan([0.7])
        assert plan.gates == pytest.approx((1.4,))
        assert exact_raw([0.7], NOISELESS).value == pytest.approx(0.7, abs=1e-12)

    def test_symmetric_pair(self):
        assert exact_raw([0.1, 0.9], NOISELESS).value == pytest.approx(0.5, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            qagg.build_plan([])

    def test_rejects_depth_violation(self):
        with pytest.raises(ValueError, match="split into groups"):
            qagg.build_plan([0.1] * 10)


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
        plan = qagg.build_plan([0.3, 0.5, 0.7])
        shots = 10**5
        a = qagg.run_plan(plan, DEPOL, shots, np.random.default_rng(1))
        b = qagg.run_plan(plan, DEPOL, shots, np.random.default_rng(2))
        assert a.value != b.value
        assert abs(a.value - b.value) < 4 * 2 / (2 * math.sqrt(shots))


class TestChannelInversion:
    def test_zero_noise_identity(self):
        assert qagg.mitigate_channel_inversion(0.42, NOISELESS, 5) == pytest.approx(0.42)

    def test_recovers_attenuated_value(self):
        z = 0.6
        lam3 = (1 - 4 * 0.05 / 3) ** 3
        assert qagg.mitigate_channel_inversion(lam3 * z, DEPOL, 3) == pytest.approx(z, abs=1e-9)

    def test_clamp_boundary(self):
        assert qagg.mitigate_channel_inversion(1.0, DEPOL, 3) == 1.0

    def test_ill_conditioned_depth(self):
        with pytest.raises(ValueError, match="mitigable"):
            qagg.mitigate_channel_inversion(0.1, NoiseModel(p_depol=0.74), 100)


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

    def test_rejects_degenerate_probes(self):
        with pytest.raises(ValueError, match="distinct"):
            qagg.calibrate(DEPOL, 3, probe_angles=(0.5, 0.5))

    def test_rejects_depth_and_probes_outside_the_circuit_range(self):
        for depth in (0, qagg.MAX_GROUP + 1):
            with pytest.raises(ValueError, match="depth"):
                qagg.calibrate(DEPOL, depth)
        with pytest.raises(ValueError, match="outside"):
            qagg.calibrate(DEPOL, 3, probe_angles=(0.5, 1.6))


class TestAggregate:
    def wide_bounds(self, p):
        return WeightBounds(np.full(p, -10.0), np.full(p, 10.0))

    def test_noiseless_mean(self):
        cfg = qagg.AggregationConfig(exact_expectation=True)
        result = qagg.aggregate([[1.0, 2.0], [3.0, 4.0]], self.wide_bounds(2), cfg, NOISELESS)
        assert result.vector == pytest.approx([2.0, 3.0], abs=1e-9)

    def test_identical_vectors_under_noise(self):
        cfg = qagg.AggregationConfig(
            shots=10**5, repeats=3,
            mitigation=frozenset(qagg.MITIGATION_FLAGS),
        )
        noise = NoiseModel(p_depol=0.05, gamma=0.03)
        vecs = [[0.4, -0.2]] * 3
        result = qagg.aggregate(vecs, WeightBounds(-1, 1), cfg, noise, seed_key=(7,))
        # 0.02 rad tolerance maps to 0.02/(pi/2) * span in weight units
        tol = 0.02 / HALF_PI * 2.0
        assert result.vector == pytest.approx([0.4, -0.2], abs=tol)

    def test_group_splitting_matches_global_mean(self):
        rng = np.random.default_rng(3)
        vecs = rng.uniform(-5, 5, size=(12, 3))
        cfg = qagg.AggregationConfig(exact_expectation=True)
        result = qagg.aggregate(vecs, self.wide_bounds(3), cfg, NOISELESS)
        assert result.vector == pytest.approx(vecs.mean(axis=0), abs=1e-9)

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
        cfg = qagg.AggregationConfig(shots=300, repeats=3, mitigation=frozenset(qagg.MITIGATION_FLAGS),
                                     exact_expectation=exact)
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
    @pytest.mark.parametrize("mitigation", MITIGATION_SUBSETS, ids=lambda m: "+".join(sorted(m)) or "none")
    def test_every_client_count(self, mitigation, exact):
        rng = np.random.default_rng(20)
        cfg = qagg.AggregationConfig(shots=300, repeats=3, mitigation=mitigation, exact_expectation=exact)
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
        cfg = qagg.AggregationConfig(shots=300, repeats=3, mitigation=frozenset(qagg.MITIGATION_FLAGS))
        vecs = np.random.default_rng(21).uniform(-2.0, 2.0, size=(11, 3))
        got = qagg.replicated_aggregate(vecs, self.BOUNDS, cfg, ALL_NOISE, n_servers, seed_key=(8,))
        keys = [(8,)] if n_servers == 1 else [(8, s) for s in range(n_servers)]
        runs = [reference_aggregate(vecs, self.BOUNDS, cfg, ALL_NOISE, seed_key=k) for k in keys]
        assert got.clip_count == runs[0][1]
        assert np.max(np.abs(got.vector - np.median([v for v, _ in runs], axis=0))) <= 1e-12


class TestShotStreams:
    EDGE_PARTS = (0, 2**32 - 1, 2**32, 2**64 + 3)

    def random_part(self, rng):
        if rng.random() < 0.5:
            return self.EDGE_PARTS[rng.integers(len(self.EDGE_PARTS))]
        return int(rng.integers(0, 2**62)) << int(rng.integers(0, 9))  # up to 2**70

    def test_batched_pools_and_draws_match_numpy(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 2000:
            seed_key = tuple(self.random_part(rng) for _ in range(rng.integers(0, 6)))
            width = int(rng.integers(1, 4))
            suffixes = rng.integers(0, 2**32 if rng.random() < 0.3 else 12, size=(int(rng.integers(1, 8)), width))
            shots = int(rng.choice([1, 300, 4096, 2**40, 2**63 - 1]))
            probs = rng.choice([0.0, 1e-12, 0.2, 0.5, 0.8, 1.0], size=len(suffixes)).tolist()
            pools = qagg._seed_pools(seed_key, suffixes)
            draws = qagg._shot_draws(seed_key, suffixes, shots, probs)
            for row, pool, ones, p in zip(suffixes.tolist(), pools, draws, probs):
                assert np.array_equal(pool, np.random.SeedSequence(seed_key + tuple(row)).pool)
                assert ones == rng_for(seed_key, *row).binomial(shots, p)
                checked += 1

    @pytest.mark.parametrize("seed_key, suffixes", [((-1,), [[0]]), ((3, -(2**40)), [[0]]), ((3,), [[0, -1]]),
                                                    ((3,), [[2**32]])])
    def test_rejects_parts_outside_the_key_range(self, seed_key, suffixes):
        with pytest.raises(ValueError):
            qagg._seed_pools(seed_key, suffixes)


class TestCalibrationCache:
    def test_cached_fit_equals_fresh_fit_per_noise_and_depth(self):
        qagg._default_transfer.cache_clear()
        fits = {}
        for noise in (DEPOL, ALL_NOISE):
            for d in (3, 5):
                fits[noise, d] = qagg._default_transfer(noise, d)
                assert fits[noise, d] == qagg.calibrate(noise, d)
                assert qagg._default_transfer(noise, d) is fits[noise, d]
        assert len(set(fits.values())) == 4
        assert qagg._default_transfer.cache_info().misses == 4

    def test_aggregate_fits_once_per_depth(self, monkeypatch):
        calls = []
        real = qagg.calibrate
        monkeypatch.setattr(qagg, "calibrate", lambda noise, depth: calls.append(depth) or real(noise, depth))
        qagg._default_transfer.cache_clear()
        cfg = qagg.AggregationConfig(shots=300, mitigation=frozenset({"calibration"}))
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
        bound = qagg.variance_bound(1024, 5, 5, 0.02)
        assert bound == pytest.approx(0.25 / 5120 + 4e-4 * 5 / 5, abs=1e-12)

    def test_noiseless_limit(self):
        assert qagg.variance_bound(10**9, 5, 5, 0.0) < 1e-9

    def test_doubling_shots_halves_shot_term(self):
        assert qagg.variance_bound(1000, 4, 4, 0.0) == pytest.approx(2 * qagg.variance_bound(2000, 4, 4, 0.0))


class TestEmpiricalVariance:
    def test_shot_scaling(self):
        plan = qagg.build_plan([0.3, 0.5, 0.7, 0.9, 1.1])
        rng = np.random.default_rng(10)
        v1 = qagg.empirical_variance(plan, DEPOL, 1000, 500, rng)
        v4 = qagg.empirical_variance(plan, DEPOL, 4000, 500, rng)
        assert 0.7 * 4 <= v1 / v4 <= 1.3 * 4

    def test_mitigated_variance_grows_with_depth(self):
        # the inverse transfer amplifies shot noise by 1/lam^d; each parameter is one independent estimate
        cfg = qagg.AggregationConfig(shots=2000, mitigation={"calibration"})
        noise = NoiseModel(p_depol=0.05, gamma=0.03)
        trials = 2000
        variances = []
        for d in (1, 3, 5, 7, 9):
            result = qagg.aggregate(np.full((d, trials), 0.6), WeightBounds(0.0, HALF_PI), cfg, noise)
            variances.append(np.var(result.vector, ddof=1))
        assert all(a < b for a, b in zip(variances, variances[1:]))

    def test_rejects_single_trial(self):
        with pytest.raises(ValueError):
            qagg.empirical_variance(qagg.build_plan([0.5]), DEPOL, 100, 1, np.random.default_rng(0))


class TestCommutationCheck:
    def test_dephasing_z_commutes(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = random_density_matrix(rng)
            lhs, rhs, holds = qagg.commutation_check(dephasing_channel(0.3), Z_OBSERVABLE, rho)
            assert holds and abs(lhs - rhs) < 1e-10

    def test_depolarizing_z_violation(self):
        lhs, rhs, holds = qagg.commutation_check(depolarizing_channel(0.2), Z_OBSERVABLE, make_pure_state([1, 0]))
        assert not holds
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1 - 4 * 0.2 / 3, abs=1e-12)

    def test_identity_always_holds(self):
        rho = random_density_matrix(np.random.default_rng(13))
        _, _, holds = qagg.commutation_check(identity_channel(), Z_OBSERVABLE, rho)
        assert holds


class TestNoiseDeviation:
    def test_identity_channel(self):
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


class TestFitSigmaGate:
    def test_bound_holds_after_fit(self):
        noise = NoiseModel(p_depol=0.05, gamma=0.03)
        sigma_gate = qagg.fit_sigma_gate(noise, np.random.default_rng(16), trials=150,
                                         shot_grid=(256, 4096), depths=(1, 5, 9))
        rng = np.random.default_rng(17)
        violations = 0
        for _ in range(100):
            n = int(rng.integers(1, 10))
            shots = int(rng.integers(256, 65537))
            plan = qagg.build_plan(rng.uniform(0.05, HALF_PI - 0.05, size=n))
            bound = qagg.variance_bound(shots, n, plan.depth, sigma_gate)
            if qagg.empirical_variance(plan, noise, shots, 150, rng) > bound:
                violations += 1
        assert violations <= 5
