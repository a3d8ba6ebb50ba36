import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrqfl import flsim, qagg
from nrqfl.config import ExperimentConfig
from nrqfl.encode import bounds_from_values, encode, normalize
from nrqfl.qcore import NoiseModel, compose_channels, identity_channel

FAST = dict(n_clients=5, samples_per_client=120, test_samples=300, rounds=6)


def fast_cfg(**overrides):
    return ExperimentConfig(**{**FAST, **overrides})


class TestMakePartition:
    def test_deterministic(self):
        a = flsim.make_partition(5, 3, 100, 0.5, seed=42)
        b = flsim.make_partition(5, 3, 100, 0.5, seed=42)
        for xa, xb in zip(a.client_features, b.client_features):
            assert np.array_equal(xa, xb)
        assert np.array_equal(a.test_labels, b.test_labels)

    def test_low_skew_is_near_iid(self):
        # alpha = 10 at skew 0; per-client histograms track the global one
        devs = []
        for seed in range(20):
            part = flsim.make_partition(5, 3, 2000, 0.0, seed=seed)
            global_hist = np.bincount(np.concatenate(part.client_labels), minlength=3) / (5 * 2000)
            for y in part.client_labels:
                hist = np.bincount(y, minlength=3) / len(y)
                devs.append(np.max(np.abs(hist - global_hist) / global_hist))
        assert np.mean(devs) < 0.35  # Dirichlet(10) spread, see ledger on the 10% figure

    def test_high_skew_concentrates_labels(self):
        hits = 0
        for seed in range(30):
            part = flsim.make_partition(5, 3, 200, 1.0, seed=seed)
            if any(np.bincount(y, minlength=3).max() >= 0.8 * len(y) for y in part.client_labels):
                hits += 1
        assert hits >= 27  # >= 90% of seeds

    def test_clients_disjoint_and_nonempty(self):
        part = flsim.make_partition(4, 3, 50, 0.7, seed=1)
        assert part.n_clients == 4
        assert all(len(y) == 50 for y in part.client_labels)

    def test_rejects_single_client(self):
        with pytest.raises(ValueError):
            flsim.make_partition(1, 3, 50, 0.5, seed=0)


class TestLocalTrain:
    def setup_method(self):
        self.part = flsim.make_partition(3, 3, 150, 0.3, seed=7)
        self.p = 5 * 3  # (features + bias) * classes

    def test_zero_epochs_is_identity(self):
        w = np.linspace(-1, 1, self.p)
        out = flsim.local_train(w, self.part.client_features[0], self.part.client_labels[0], 3, 0, 0.1)
        assert np.array_equal(out, w)

    def test_gradient_matches_finite_differences(self):
        x, y = self.part.client_features[0], self.part.client_labels[0]
        w = np.zeros(self.p)
        _, grad = flsim.loss_and_grad(w, x, y, 3)
        eps = 1e-6
        for j in range(self.p):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            fd = (flsim.loss_and_grad(wp, x, y, 3)[0] - flsim.loss_and_grad(wm, x, y, 3)[0]) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_loss_decreases(self):
        x, y = self.part.client_features[1], self.part.client_labels[1]
        w0 = np.zeros(self.p)
        loss0, _ = flsim.loss_and_grad(w0, x, y, 3)
        w = flsim.local_train(w0, x, y, 3, 50, 0.1)
        loss1, _ = flsim.loss_and_grad(w, x, y, 3)
        assert loss1 < loss0

    def test_divergence_surfaces(self):
        x, y = self.part.client_features[0], self.part.client_labels[0]
        with pytest.raises(ValueError, match="diverged"):
            flsim.local_train(np.zeros(self.p), x * 1e200, y, 3, 5, 1e200)


class TestFedAvg:
    def test_equal_sizes(self):
        out = flsim.fedavg_aggregate([[1, 2], [3, 4]], [10, 10])
        assert np.allclose(out, [2, 3])

    def test_weighted(self):
        assert flsim.fedavg_aggregate([[0], [4]], [1, 3])[0] == pytest.approx(3.0)

    def test_single_client(self):
        assert np.allclose(flsim.fedavg_aggregate([[5, 6]], [7]), [5, 6])

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=5), st.integers(1, 100))
    @settings(max_examples=25)
    def test_identical_vectors_fixed_point(self, vec, size):
        out = flsim.fedavg_aggregate([vec, vec], [size, size + 1])
        assert np.allclose(out, vec)


class TestEvaluate:
    def test_perfect_predictor(self):
        part = flsim.make_partition(3, 3, 100, 0.0, seed=2, class_sep=50.0)
        # huge separation: one gradient step suffices for a perfect fit
        w = flsim.local_train(np.zeros(5 * 3), part.test_features, part.test_labels, 3, 200, 0.5)
        acc, f1 = flsim.evaluate(w, part.test_features, part.test_labels, 3)
        assert (acc, f1) == (1.0, 1.0)

    def test_constant_predictor_macro_f1(self):
        x = np.zeros((300, 2))
        y = np.repeat([0, 1, 2], 100)
        w = np.zeros(3 * 3)
        w[-3] = 10.0  # bias forces class 0 everywhere
        acc, f1 = flsim.evaluate(w, x, y, 3)
        assert acc == pytest.approx(1 / 3)
        assert f1 == pytest.approx(0.5 / 3, abs=1e-12)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            flsim.evaluate(np.zeros(9), np.empty((0, 2)), np.empty(0, dtype=int), 3)


class TestRunExperiment:
    def test_zero_rounds(self):
        assert flsim.run_experiment(fast_cfg(rounds=0), "fedavg") == []

    def test_determinism(self):
        cfg = fast_cfg(seed=11, rounds=4)
        a = flsim.run_experiment(cfg, "nrqfl")
        b = flsim.run_experiment(cfg, "nrqfl")
        assert a == b

    def test_noiseless_qfl_matches_fedavg(self):
        cfg = fast_cfg(rounds=10, noise=NoiseModel(), exact_expectation=True)
        fa = flsim.run_experiment(cfg, "fedavg")
        qf = flsim.run_experiment(cfg, "qfl")
        for ra, rq in zip(fa, qf):
            assert rq.accuracy == pytest.approx(ra.accuracy, abs=1e-6)
            assert rq.agg_error < 1e-6

    def test_byte_accounting_closed_form(self):
        cfg = fast_cfg(rounds=3)
        p = (cfg.feature_dim + 1) * cfg.classes
        for strategy, extra in (("fedavg", 0), ("qfl", 0), ("nrqfl", 8 * p)):
            for rec in flsim.run_experiment(cfg, strategy):
                assert rec.bytes_up == 8 * p * len(rec.selected) + extra
                assert rec.bytes_down == 8 * p * cfg.n_clients

    def test_gradient_variance_zero_for_identical_updates(self):
        updates = np.tile(np.linspace(0, 1, 6), (4, 1))
        assert flsim._grad_variance(updates) == 0.0

    def test_grad_variance_nonnegative(self):
        for rec in flsim.run_experiment(fast_cfg(rounds=3), "fedavg"):
            assert rec.grad_variance >= 0.0

    def test_epsilon_reported_for_quantum_strategies(self):
        recs = flsim.run_experiment(fast_cfg(rounds=2), "nrqfl")
        assert all(r.epsilon > 0 for r in recs)
        recs = flsim.run_experiment(fast_cfg(rounds=2), "fedavg")
        assert all(r.epsilon == 0 for r in recs)

    def test_round_epsilon_matches_fresh_channel(self):
        noise = NoiseModel(p_depol=0.03, p_deph=0.02, gamma=0.02)
        updates = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 6))
        bounds = [bounds_from_values(updates[:, j]) for j in range(6)]
        channel = identity_channel()
        for ch in noise.gate_channels():
            channel = compose_channels(channel, ch)
        mean_angle = float(np.mean([normalize(float(v), b) for v, b in zip(updates.mean(axis=0), bounds)]))
        for _ in range(2):  # the second call reuses the memoized channel
            assert flsim._round_epsilon(noise, updates, bounds) == (
                qagg.noise_deviation(encode(mean_angle), channel), mean_angle)

    def test_selection_subset_size(self):
        recs = flsim.run_experiment(fast_cfg(rounds=3, selection_m=3), "fedavg")
        assert all(len(r.selected) == 3 for r in recs)
