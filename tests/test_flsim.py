import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrqfl import flsim, qselect
from nrqfl.config import ExperimentConfig
from nrqfl.encode import bounds_from_values, encode, normalize
from nrqfl.qcore import NoiseModel, apply_channel, compose_channels, identity_channel

FAST = dict(n_clients=5, samples_per_client=120, test_samples=300, rounds=6)
WEIGHTS_DIVERGED = "training weights diverged; reduce the learning rate (lr) or class_sep"
LOSS_DIVERGED = "training loss diverged (loss=nan); reduce the learning rate (lr) or class_sep"


def exactly(message):
    """A `pytest.raises` pattern that matches `message` and nothing else."""
    return "^" + re.escape(message) + "$"


def fast_cfg(**overrides):
    return ExperimentConfig(**{**FAST, **overrides})


def run_alone(cfg, strategy):
    """The records of `strategy` in a run of `cfg` with no other strategy."""
    return flsim.run_experiment(replace(cfg, strategies=(strategy,)))[strategy]


def reference_local_train(weights, x, y, classes, epochs, lr):
    """One client's full-batch gradient descent, written per client (the oracle for the batched pass)."""
    n, f = x.shape
    w = np.array(weights, dtype=float)
    for _ in range(epochs):
        w2d = w.reshape(f + 1, classes)
        z = x @ w2d[:-1] + w2d[-1]
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        delta = e / e.sum(axis=1, keepdims=True)
        delta[np.arange(n), y] -= 1.0
        delta /= n
        w -= lr * np.vstack([x.T @ delta, delta.sum(axis=0)]).ravel()
    return w


def reference_train_loop(weights, xs, ys, classes, epochs, lr):
    """The per-client loop: one 2-D training call per client, stacked."""
    return np.stack([reference_local_train(weights, x, y, classes, epochs, lr) for x, y in zip(xs, ys)])


def reference_evaluate(weights, x, y, classes):
    """(accuracy, macro F1) from per-class masked counts (the oracle for the confusion count)."""
    pred = np.argmax(x @ weights.reshape(-1, classes)[:-1] + weights.reshape(-1, classes)[-1], axis=1)
    f1s = []
    for c in range(classes):
        tp = np.sum((pred == c) & (y == c))
        fp = np.sum((pred == c) & (y != c))
        fn = np.sum((pred != c) & (y == c))
        f1s.append(0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn))
    return float(np.mean(pred == y)), float(np.mean(f1s))


def unequal_partition(sizes=(300, 120, 300, 7, 120, 1), seed=4):
    """A directly built partition whose clients hold different sample counts."""
    full = flsim.make_partition(len(sizes), 3, max(sizes), 0.5, seed=seed, test_samples=200)
    return flsim.DataPartition(
        [x[:k] for x, k in zip(full.client_features, sizes)],
        [y[:k] for y, k in zip(full.client_labels, sizes)],
        full.test_features, full.test_labels, full.classes, full.skew,
    )


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

    @pytest.mark.parametrize("make", [lambda: flsim.make_partition(4, 3, 50, 0.7, seed=1), unequal_partition],
                             ids=["equal", "unequal"])
    def test_client_arrays_are_views_of_the_stacks(self, make):
        # the data is held once: each client's arrays are rows of its size's stacks
        part = make()
        stacks = {}
        for x, y in zip(part.client_features, part.client_labels):
            xs, ys = stacks.setdefault(len(y), (x.base, y.base))
            assert isinstance(xs, np.ndarray) and isinstance(ys, np.ndarray)
            assert x.base is xs and y.base is ys
        assert sorted(stacks) == sorted(set(part.sizes.tolist()))
        assert sum(xs.nbytes + ys.nbytes for xs, ys in stacks.values()) == sum(
            x.nbytes + y.nbytes for x, y in zip(part.client_features, part.client_labels))


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
        with pytest.raises(ValueError, match=exactly(WEIGHTS_DIVERGED)):
            flsim.local_train(np.zeros(self.p), x * 1e200, y, 3, 5, 1e200)

    def test_divergence_surfaces_in_a_batch(self):
        # one diverging client among well-behaved ones still fails the whole pass
        xs = np.stack(self.part.client_features)
        xs[1] *= 1e200
        with pytest.raises(ValueError, match=exactly(WEIGHTS_DIVERGED)):
            flsim.local_train(np.zeros(self.p), xs, np.stack(self.part.client_labels), 3, 5, 1e200)

    @pytest.mark.parametrize("batched", [False, True])
    def test_overflowing_logits_surface_as_loss_divergence(self, batched):
        # logits of +-inf make every prob of their row nan, so the loss is nan
        x, y = self.part.client_features[0], self.part.client_labels[0]
        if batched:
            x, y = np.stack(self.part.client_features), np.stack(self.part.client_labels)
        with pytest.raises(ValueError, match=exactly(LOSS_DIVERGED)):
            flsim.local_train(np.full(self.p, 1e308), 10.0 * x, y, 3, 5, 0.1)

    @pytest.mark.parametrize("f, c", [(2, 2), (4, 3), (8, 6), (3, 7), (2, 8), (4, 9), (3, 16)])
    def test_batch_equals_per_client_loop(self, f, c):
        # below 8 classes the softmax adds class columns, from 8 up it keeps numpy's pairwise row sum
        for n, m, epochs in itertools.product((1, 2, 7, 200), (1, 3, 5), (1, 5)):
            rng = np.random.default_rng([f, c, n, m, epochs])
            xs = 2.0 * rng.normal(size=(m, n, f))
            ys = rng.integers(0, c, size=(m, n))
            w0 = 0.3 * rng.normal(size=(f + 1) * c)
            expected = reference_train_loop(w0, xs, ys, c, epochs, 0.1)
            assert np.array_equal(flsim.local_train(w0, xs, ys, c, epochs, 0.1), expected), (n, m, epochs)
            assert np.array_equal(flsim.local_train(w0, xs[0], ys[0], c, epochs, 0.1), expected[0])

    @pytest.mark.parametrize("c", [2, 3, 4, 7, 8, 9, 16])
    def test_edge_shapes_equal_per_client_loop(self, c):
        # sample counts around numpy's 8-wide unrolling and 8192-element buffer, 2-D or 1 or 3 clients
        for n, f, m in itertools.product((1, 2, 3, 8, 33, 2049, 4100), (2, 3, 4, 8), (None, 1, 3)):
            rng = np.random.default_rng([n, f, c, m or 0])
            xs = 2.0 * rng.normal(size=(m or 1, n, f))
            ys = rng.integers(0, c, size=(m or 1, n))
            w0 = 0.3 * rng.normal(size=(f + 1) * c)
            expected = reference_train_loop(w0, xs, ys, c, 2, 0.1)
            if m is None:
                xs, ys, expected = xs[0], ys[0], expected[0]
            assert np.array_equal(flsim.local_train(w0, xs, ys, c, 2, 0.1), expected), (n, f, m)

    @pytest.mark.parametrize("batched", [False, True])
    def test_inputs_are_not_written(self, batched):
        rng = np.random.default_rng(3)
        xs = 2.0 * rng.normal(size=(3, 40, 4))
        ys = rng.integers(0, 5, size=(3, 40))
        w0 = 0.3 * rng.normal(size=5 * 5)
        if not batched:
            xs, ys = xs[0], ys[0]
        before = [a.copy() for a in (w0, xs, ys)]
        flsim.local_train(w0, xs, ys, 5, 3, 0.1)
        flsim.loss_and_grad(w0, xs, ys, 5)
        for a, b in zip((w0, xs, ys), before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("c", [4, 9])
    def test_batch_past_numpy_buffer_equals_per_client_loop(self, c):
        # 10 clients x 1000 samples x c classes: more than numpy's 8192-element buffer
        rng = np.random.default_rng([10, 1000, c])
        xs = 2.0 * rng.normal(size=(10, 1000, 4))
        ys = rng.integers(0, c, size=(10, 1000))
        w0 = 0.3 * rng.normal(size=5 * c)
        expected = reference_train_loop(w0, xs, ys, c, 5, 0.1)
        assert np.array_equal(flsim.local_train(w0, xs, ys, c, 5, 0.1), expected)

    def test_batched_loss_and_grad_rows(self):
        xs = np.stack(self.part.client_features)
        ys = np.stack(self.part.client_labels)
        w = np.linspace(-1, 1, 3 * self.p).reshape(3, self.p)
        loss, grad = flsim.loss_and_grad(w, xs, ys, 3)
        assert loss.shape == (3,) and grad.shape == (3, self.p)
        for i in range(3):
            loss_i, grad_i = flsim.loss_and_grad(w[i], xs[i], ys[i], 3)
            assert loss[i] == loss_i
            assert np.array_equal(grad[i], grad_i)

    @pytest.mark.parametrize("c", [7, 9])
    def test_batched_loss_and_grad_rows_either_side_of_8_classes(self, c):
        rng = np.random.default_rng(c)
        xs = 2.0 * rng.normal(size=(4, 50, 3))
        ys = rng.integers(0, c, size=(4, 50))
        w = 0.5 * rng.normal(size=(4, 4 * c))
        loss, grad = flsim.loss_and_grad(w, xs, ys, c)
        for i in range(4):
            loss_i, grad_i = flsim.loss_and_grad(w[i], xs[i], ys[i], c)
            assert loss[i] == loss_i
            assert np.array_equal(grad[i], grad_i)


class TestFedAvg:
    def test_equal_sizes(self):
        out = flsim.fedavg_aggregate([[1, 2], [3, 4]], [10, 10])
        assert np.allclose(out, [2, 3])

    def test_weighted(self):
        assert flsim.fedavg_aggregate([[0], [4]], [1, 3])[0] == pytest.approx(3.0)

    def test_single_client(self):
        assert np.allclose(flsim.fedavg_aggregate([[5, 6]], [7]), [5, 6])

    def test_sizes_summing_to_zero_raise(self):
        with pytest.raises(ZeroDivisionError):
            flsim.fedavg_aggregate([[1, 2], [3, 4]], [0, 0])

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

    @pytest.mark.parametrize("classes, labels, never_predicted", [
        (2, 2, None), (9, 9, None), (4, 3, None), (4, 4, 2), (5, 3, 4),
    ], ids=["c2", "c9", "absent-label", "never-predicted", "absent-label-never-predicted"])
    def test_confusion_count_equals_per_class_loop(self, classes, labels, never_predicted):
        for seed in range(5):
            rng = np.random.default_rng([classes, labels, seed])
            x = rng.normal(size=(400, 3))
            y = rng.integers(0, labels, size=400)
            w = rng.normal(size=4 * classes)
            if never_predicted is not None:
                w[3 * classes + never_predicted] = -1e3  # its bias: no sample predicts it
            assert flsim.evaluate(w, x, y, classes) == reference_evaluate(w, x, y, classes)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            flsim.evaluate(np.zeros(9), np.empty((0, 2)), np.empty(0, dtype=int), 3)


class TestRunExperiment:
    def test_zero_rounds(self):
        assert flsim.run_experiment(fast_cfg(rounds=0)) == {"fedavg": [], "qfl": [], "nrqfl": []}

    def test_determinism(self):
        cfg = fast_cfg(seed=11, rounds=4)
        a = run_alone(cfg, "nrqfl")
        b = run_alone(cfg, "nrqfl")
        assert a == b

    def test_strategies_run_in_config_order_independent_of_each_other(self):
        # the strategies share one partition; each strategy's streams are keyed by its STRATEGIES index
        cfg = fast_cfg(seed=3, rounds=3, selection_m=3, strategies=("nrqfl", "fedavg", "qfl"))
        runs = flsim.run_experiment(cfg)
        assert list(runs) == ["nrqfl", "fedavg", "qfl"]
        for strategy in flsim.STRATEGIES:
            assert runs[strategy] == run_alone(cfg, strategy)
            assert [r.strategy for r in runs[strategy]] == [strategy] * 3

    def test_noiseless_qfl_matches_fedavg(self):
        cfg = fast_cfg(rounds=10, noise=NoiseModel(), exact_expectation=True, strategies=("fedavg", "qfl"))
        runs = flsim.run_experiment(cfg)
        for ra, rq in zip(runs["fedavg"], runs["qfl"]):
            assert rq.accuracy == pytest.approx(ra.accuracy, abs=1e-6)
            assert rq.agg_error < 1e-6

    def test_noiseless_nrqfl_matches_fedavg(self):
        # noiseless calibration fits the identity map, so mitigation leaves the exact mean alone
        cfg = fast_cfg(n_clients=4, samples_per_client=60, rounds=10, noise=NoiseModel(), exact_expectation=True,
                       strategies=("fedavg", "nrqfl"))
        runs = flsim.run_experiment(cfg)
        for ra, rn in zip(runs["fedavg"], runs["nrqfl"]):
            assert rn.accuracy == pytest.approx(ra.accuracy, abs=1e-6)
            assert rn.agg_error < 1e-6

    def test_byte_accounting_closed_form(self):
        cfg = fast_cfg(rounds=3)
        p = (cfg.feature_dim + 1) * cfg.classes
        runs = flsim.run_experiment(cfg)
        for strategy, extra in (("fedavg", 0), ("qfl", 0), ("nrqfl", 8 * p)):
            for rec in runs[strategy]:
                assert rec.bytes_up == 8 * p * len(rec.selected) + extra
                assert rec.bytes_down == 8 * p * cfg.n_clients

    def test_gradient_variance_zero_for_identical_updates(self):
        updates = np.tile(np.linspace(0, 1, 6), (4, 1))
        assert flsim._grad_variance(updates) == 0.0

    def test_grad_variance_nonnegative(self):
        for rec in run_alone(fast_cfg(rounds=3), "fedavg"):
            assert rec.grad_variance >= 0.0

    def test_epsilon_reported_for_quantum_strategies(self):
        runs = flsim.run_experiment(fast_cfg(rounds=2))
        assert all(r.epsilon > 0 for r in runs["nrqfl"])
        assert all(r.epsilon == 0 for r in runs["fedavg"])

    def test_round_epsilon_matches_fresh_channel(self):
        noise = NoiseModel(p_depol=0.03, p_deph=0.02, gamma=0.02)
        updates = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 6))
        columns = [bounds_from_values(updates[:, j]) for j in range(6)]
        channel = identity_channel()
        for ch in noise.gate_channels():
            channel = compose_channels(channel, ch)
        mean_angle = float(np.mean([normalize(float(v), b) for v, b in zip(updates.mean(axis=0), columns)]))
        rho = encode(mean_angle)
        oracle = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.matrix - apply_channel(rho, channel).matrix)))
        eps, angle = flsim._round_epsilon(noise, updates, bounds_from_values(updates))
        assert angle == mean_angle
        assert abs(eps - oracle) <= 1e-15

    def test_round_with_overflowing_spread_diverges(self):
        # weights near 1e300 stay finite, but the round's gradient variance overflows
        with pytest.raises(ValueError, match=exactly(WEIGHTS_DIVERGED)):
            run_alone(fast_cfg(lr=1e300, rounds=2), "fedavg")

    def test_selection_subset_size(self):
        recs = run_alone(fast_cfg(rounds=3, selection_m=3), "fedavg")
        assert all(len(r.selected) == 3 for r in recs)


class TestRunRoundBatching:
    @pytest.mark.parametrize("strategy", flsim.STRATEGIES)
    @pytest.mark.parametrize("selection_m", [None, 4])
    def test_unequal_sizes_match_per_client_oracle(self, monkeypatch, strategy, selection_m):
        part = unequal_partition()
        cfg = ExperimentConfig(n_clients=6, selection_m=selection_m, rounds=1, shots=512, seed=2)
        weights = np.random.default_rng(1).normal(scale=0.2, size=(cfg.feature_dim + 1) * cfg.classes)

        def entropy():
            return qselect.EntropySource(cfg.noise, seed=[cfg.seed, 3])

        calls, seen = [], []
        batched = flsim.local_train
        monkeypatch.setattr(flsim, "local_train", lambda w, x, *a: (calls.append(len(x)), batched(w, x, *a))[1])
        spy = flsim.fedavg_aggregate
        monkeypatch.setattr(flsim, "fedavg_aggregate", lambda v, s: (seen.append(v), spy(v, s))[1])
        new_w, record = flsim.run_round(strategy, 1, weights, part, cfg, entropy())

        sizes = part.sizes[list(record.selected)]
        assert len(calls) == len(set(sizes)) and sum(calls) == len(record.selected)
        expected = reference_train_loop(
            weights, [part.client_features[i] for i in record.selected],
            [part.client_labels[i] for i in record.selected], part.classes, cfg.local_epochs, cfg.lr)
        assert np.array_equal(seen[0], expected)

        monkeypatch.setattr(flsim, "local_train", reference_train_loop)
        oracle_w, oracle_record = flsim.run_round(strategy, 1, weights, part, cfg, entropy())
        assert np.array_equal(new_w, oracle_w)
        assert record == oracle_record
