"""Federated learning harness: FedAvg, QFL, and NR-QFL on synthetic workloads.

The workload is multinomial logistic regression on Gaussian-mixture features
with Dirichlet label skew, trained with full-batch gradient descent so that
every inter-strategy difference is attributable to the aggregation step.
Strategies:
  fedavg  classical size-weighted mean, no quantum path
  qfl     quantum aggregation, mitigation off, static weight bounds
  nrqfl   quantum aggregation with mitigation on and adaptive per-round
          per-parameter bounds (the accounted metadata overhead)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import qagg, qselect
from .config import STRATEGIES, ExperimentConfig
from .encode import WeightBounds, bounds_from_values, normalize
from .qcore import NoiseModel

DIVERGED_HINT = "reduce the learning rate (lr) or class_sep"
WEIGHTS_DIVERGED = f"training weights diverged; {DIVERGED_HINT}"


def _stack(arrays, members) -> np.ndarray:
    """The clients `members` of `arrays` as one stack; an array that is already a stack is kept as it is."""
    return arrays if isinstance(arrays, np.ndarray) else np.stack([arrays[i] for i in members])


@dataclass
class DataPartition:
    """Disjoint per-client datasets plus a globally held-out test set.

    The client data comes as lists of per-client (n, f) features and (n,)
    labels, or, for clients that all hold n samples, as one (k, n, f) and
    (k, n) stack each. Clients of one sample count are stacked once, and
    `client_features` and `client_labels` become lists of views of those
    stacks: the data is held once, and a round gathers its clients' rows with
    one fancy index per size.
    """

    client_features: list
    client_labels: list
    test_features: np.ndarray
    test_labels: np.ndarray
    classes: int
    skew: float

    def __post_init__(self):
        sizes = np.array([len(x) for x in self.client_features])
        if np.any(sizes == 0):
            raise ValueError("every client must have at least one sample")
        self._sizes = sizes
        self._stacks = {}  # sample count -> (features (k, n, f), labels (k, n))
        self._slot = np.empty(len(sizes), dtype=np.intp)  # each client's row in its stack
        features, labels = [None] * len(sizes), [None] * len(sizes)
        for n in sorted(set(sizes.tolist())):  # not np.unique: its first call imports numpy.ma
            members = np.flatnonzero(sizes == n)
            xs, ys = self._stacks[n] = (_stack(self.client_features, members), _stack(self.client_labels, members))
            self._slot[members] = np.arange(len(members))
            for i, x, y in zip(members.tolist(), xs, ys):
                features[i], labels[i] = x, y
        self.client_features, self.client_labels = features, labels

    @property
    def n_clients(self) -> int:
        return len(self.client_features)

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes.copy()

    def batches(self, clients) -> list:
        """[(rows, features, labels)] per distinct sample count among `clients`, smallest first.

        `rows` index into `clients`; features (k, n, f) and labels (k, n) are
        those clients' data, in `rows` order.
        """
        clients = np.asarray(clients, dtype=np.intp)
        sizes = self._sizes[clients]
        out = []
        for n in sorted(set(sizes.tolist())):
            rows = np.flatnonzero(sizes == n)
            xs, ys = self._stacks[n]
            slots = self._slot[clients[rows]]
            out.append((rows, xs[slots], ys[slots]))
        return out


@dataclass(frozen=True)
class RoundRecord:
    """Per-round metrics; the CSV schema uses the first nine fields."""

    round: int
    strategy: str
    accuracy: float
    f1: float
    grad_variance: float
    bytes_up: int
    bytes_down: int
    selected: tuple
    wall_ms: int
    epsilon: float = 0.0       # D(rho, E(rho)) of the round's mean encoded state
    mean_angle: float = 0.0    # angle behind epsilon, kept for auditability
    agg_error: float = 0.0     # mean |aggregate - classical mean| per parameter
    clip_count: int = 0


def _class_means(classes: int, feature_dim: int, class_sep: float) -> np.ndarray:
    """Fixed, seed-independent layout: class means evenly spaced on a circle."""
    means = np.zeros((classes, feature_dim))
    for c in range(classes):
        phi = 2 * np.pi * c / classes
        means[c, 0] = class_sep * np.cos(phi)
        means[c, 1 % feature_dim] = class_sep * np.sin(phi)
    return means


def make_partition(
    n_clients: int,
    classes: int,
    samples_per_client: int,
    skew: float,
    seed: int,
    feature_dim: int = 4,
    class_sep: float = 2.0,
    test_samples: int = 600,
) -> DataPartition:
    """Dirichlet-skewed label allocation over Gaussian-mixture features.

    alpha = (1-skew)*10 + skew*0.1, so skew=0 is near-IID and skew=1 gives
    strongly concentrated per-client label distributions.
    """
    if n_clients < 2 or classes < 2:
        raise ValueError("need at least 2 clients and 2 classes")
    if not 2 <= feature_dim <= 8:
        raise ValueError("feature_dim must be in 2..8")
    if samples_per_client < 1 or test_samples < 1:
        raise ValueError("sample counts must be >= 1")
    if not 0.0 <= skew <= 1.0:
        raise ValueError("skew must be in [0, 1]")
    rng = np.random.default_rng(seed)
    means = _class_means(classes, feature_dim, class_sep)
    alpha = (1.0 - skew) * 10.0 + skew * 0.1

    # every client holds samples_per_client samples, so they are drawn straight into one stack
    client_x = np.empty((n_clients, samples_per_client, feature_dim))
    client_y = np.empty((n_clients, samples_per_client), dtype=int)
    for x, y in zip(client_x, client_y):
        props = rng.dirichlet(np.full(classes, alpha))
        counts = rng.multinomial(samples_per_client, props)
        y[:] = np.repeat(np.arange(classes), counts)
        np.add(means[y], rng.normal(size=(samples_per_client, feature_dim)), out=x)

    test_y = rng.integers(0, classes, size=test_samples)
    test_x = means[test_y] + rng.normal(size=(test_samples, feature_dim))
    return DataPartition(client_x, client_y, test_x, test_y, classes, skew)


def _class_logits(weights: np.ndarray, xt: np.ndarray, classes: int) -> np.ndarray:
    """Class-major logits W^T x + b, (..., c, n), for flat weights (..., (f+1)*c) and features xt (..., f, n)."""
    w = weights.reshape(weights.shape[:-1] + (xt.shape[-2] + 1, classes))
    z = np.swapaxes(w[..., :-1, :], -1, -2) @ xt
    z += w[..., -1, :, None]
    return z


def _class_probs(weights: np.ndarray, xt: np.ndarray, classes: int) -> tuple:
    """Class-major softmax probs (..., c, n) and per-sample totals (..., n), in the logits buffer.

    Bit-identical to the row-wise softmax: see `local_train`.
    """
    z = _class_logits(weights, xt, classes)
    rows = [z[..., k, :] for k in range(classes)]
    top = rows[0].copy()
    for row in rows[1:]:
        np.maximum(top, row, out=top)
    z -= top[..., None, :]
    np.exp(z, out=z)
    if classes < 8:
        total = rows[0].copy()
        for row in rows[1:]:
            total += row
    else:
        total = np.ascontiguousarray(np.swapaxes(z, -1, -2)).sum(axis=-1)
    z /= total[..., None, :]
    return z, total


def _class_onehot(y: np.ndarray, classes: int) -> np.ndarray:
    """Boolean one-hot labels in class-major order, (..., c, n); an eighth of a float one's memory."""
    return y[..., None, :] == np.arange(classes)[:, None]


def _gradient(probs: np.ndarray, onehot: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """Flat cross-entropy gradient rows (..., (f+1)*c) from class-major probs and one-hot labels.

    The probs become the deltas (probs - onehot) / n in place.
    """
    f, n = xt.shape[-2:]
    lead, classes = probs.shape[:-2], probs.shape[-2]
    probs -= onehot
    probs /= n
    grad = np.empty(lead + (f + 1, classes))
    np.matmul(xt, np.swapaxes(probs, -1, -2), out=grad[..., :-1, :])
    by_sample = np.ascontiguousarray(np.moveaxis(probs, -1, 0)).reshape(n, -1)
    grad[..., -1, :] = by_sample.sum(axis=0).reshape(lead + (classes,))
    return grad.reshape(lead + ((f + 1) * classes,))


def loss_and_grad(weights: np.ndarray, x: np.ndarray, y: np.ndarray, classes: int):
    """Mean softmax cross-entropy and its gradient w.r.t. the flat weights.

    `x` is (..., n, f) and `y` (..., n); leading axes index clients, each with
    its own weight row in `weights` (..., p) or sharing one flat vector. The
    loss has the leading shape and the gradient one row per client.
    """
    xt = np.swapaxes(x, -1, -2)
    probs, _ = _class_probs(np.asarray(weights, dtype=float), xt, classes)
    picked = np.take_along_axis(probs, y[..., None, :], axis=-2)[..., 0, :]
    loss = -np.mean(np.log(picked + 1e-300), axis=-1)
    return loss, _gradient(probs, _class_onehot(y, classes), xt)


def local_train(weights: np.ndarray, x: np.ndarray, y: np.ndarray, classes: int, epochs: int, lr: float) -> np.ndarray:
    """Full-batch gradient descent from the global weights; returns new weights.

    With leading client axes on `x` (..., n, f) and `y` (..., n), every client
    trains from the same `weights` and the result has one weight row per client.
    """
    # a C-ordered copy per client: the memory layout picks numpy's matmul path,
    # and this one gives each client the bits of a lone 2-D call.
    # Each epoch works on class-major (..., c, n) logits, W[:-1]^T @ x^T, so
    # every softmax op runs along contiguous sample rows: a reduction along
    # the 3-4-wide class axis costs numpy one inner-loop call per sample, a
    # row op one call per class. The bits are the row-wise ones:
    # - every logit and gradient entry is the same BLAS dot, over the same
    #   operands in the same order, whichever operand is transposed;
    # - a max is exact in any order, and below 8 classes numpy sums a row left
    #   to right, which adding the class rows in order repeats; from 8 up,
    #   where numpy sums pairwise, the row sum runs on a sample-major copy;
    # - the row-wise bias gradient, `sum(axis=-2)` over samples, runs left to
    #   right; copying the deltas to sample-major (n, k*c) and reducing axis 0
    #   is the same sequential sum, with one k*c-wide inner loop per sample.
    # Probs are finite exactly when their sample's total is, so only the
    # totals are checked; a loss is finite exactly when every prob is.
    w = np.broadcast_to(np.asarray(weights, dtype=float), x.shape[:-2] + np.shape(weights)).copy()
    xt = np.swapaxes(x, -1, -2)
    onehot = _class_onehot(y, classes)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is surfaced below
        for _ in range(epochs):
            probs, total = _class_probs(w, xt, classes)
            if not np.all(np.isfinite(total)):
                loss = loss_and_grad(w, x, y, classes)[0]
                raise ValueError(f"training loss diverged (loss={np.max(loss)}); {DIVERGED_HINT}")
            w -= lr * _gradient(probs, onehot, xt)
            if not np.all(np.isfinite(w)):
                raise ValueError(WEIGHTS_DIVERGED)
    return w


def fedavg_aggregate(vectors, sizes) -> np.ndarray:
    """Size-weighted arithmetic mean of client weight vectors."""
    vectors = np.asarray(vectors, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if vectors.ndim != 2 or sizes.shape != vectors.shape[:1]:
        raise ValueError("need one size per client vector")
    total = sizes.sum()
    if total == 0.0:
        raise ZeroDivisionError("client sizes sum to zero")
    # np.average's multiply, sum and divide, without its per-call overhead
    return (vectors * sizes[:, None]).sum(axis=0) / total


def evaluate(weights: np.ndarray, x: np.ndarray, y: np.ndarray, classes: int):
    """(accuracy, macro F1) of argmax-softmax predictions."""
    if len(x) == 0:
        raise ValueError("empty test set")
    pred = np.argmax(_class_logits(np.asarray(weights, dtype=float), x.T, classes), axis=0)
    confusion = np.bincount(y * classes + pred, minlength=classes**2).reshape(classes, classes)
    tp = np.diag(confusion)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    # tp == 0 scores 0, and the floor only keeps an absent class's 0/0 away
    f1s = 2 * tp / np.maximum(2 * tp + fp + fn, 1)
    return float(tp.sum() / len(y)), float(np.mean(f1s))


def _grad_variance(updates: np.ndarray) -> float:
    return float(np.mean((updates - updates.mean(axis=0)) ** 2))


def _round_epsilon(noise: NoiseModel, updates: np.ndarray, bounds: WeightBounds) -> tuple:
    """Noise deviation of the round's mean encoded state under one gate-noise pass."""
    mean_angle = float(np.mean(normalize(updates.mean(axis=0), bounds)))
    return qagg.noise_deviation(mean_angle, noise), mean_angle


def aggregation_config(cfg: ExperimentConfig, strategy: str) -> qagg.AggregationConfig:
    """The aggregation knobs a quantum strategy's rounds run with."""
    mitigation = frozenset(cfg.mitigation) if strategy == "nrqfl" else frozenset()
    repeats = cfg.repeats if strategy == "nrqfl" else 1
    return qagg.AggregationConfig(
        shots=cfg.shots,
        repeats=repeats,
        mitigation=mitigation,
        exact_expectation=cfg.exact_expectation,
    )


def run_round(
    strategy: str,
    round_index: int,
    weights: np.ndarray,
    partition: DataPartition,
    cfg: ExperimentConfig,
    entropy: qselect.EntropySource,
) -> tuple:
    """One Algorithm-1 round; returns (new_weights, RoundRecord)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    t0 = time.perf_counter()
    p = len(weights)
    m = cfg.selection_m if cfg.selection_m is not None else partition.n_clients
    sv = qselect.select_clients(partition.n_clients, m, entropy, round_index)
    selected = sv.selected

    sizes = partition.sizes[list(selected)]
    # one training pass per client size (one per round on equal-size partitions)
    updates = np.empty((len(selected), p))
    for rows, xs, ys in partition.batches(selected):
        updates[rows] = local_train(weights, xs, ys, partition.classes, cfg.local_epochs, cfg.lr)
    classical_mean = fedavg_aggregate(updates, sizes)

    epsilon, mean_angle, clip_count = 0.0, 0.0, 0
    if strategy == "fedavg":
        new_weights = classical_mean
    else:
        if strategy == "qfl":
            bounds = WeightBounds(-cfg.fixed_weight_bound, cfg.fixed_weight_bound)
        else:
            bounds = bounds_from_values(updates)
        acfg = aggregation_config(cfg, strategy)
        result = qagg.replicated_aggregate(
            updates, bounds, acfg, cfg.noise, cfg.n_servers,
            seed_key=(cfg.seed, STRATEGIES.index(strategy), round_index),
        )
        new_weights = result.vector
        clip_count = result.clip_count
        epsilon, mean_angle = _round_epsilon(cfg.noise, updates, bounds)

    acc, f1 = evaluate(new_weights, partition.test_features, partition.test_labels, partition.classes)
    bytes_up = 8 * p * len(selected)
    if strategy == "nrqfl":
        bytes_up += 8 * p  # float32 (lo, hi) bounds metadata, once per round
    bytes_down = 8 * p * partition.n_clients
    wall_ms = int((time.perf_counter() - t0) * 1000) if cfg.record_timing else 0

    with np.errstate(over="ignore", invalid="ignore"):  # divergence is surfaced below
        grad_variance = _grad_variance(updates)
        agg_error = float(np.mean(np.abs(new_weights - classical_mean)))
    # weights near the float range train to finite rows whose spread overflows
    if not np.all(np.isfinite([grad_variance, agg_error, epsilon, mean_angle])):
        raise ValueError(WEIGHTS_DIVERGED)
    record = RoundRecord(
        round=round_index,
        strategy=strategy,
        accuracy=acc,
        f1=f1,
        grad_variance=grad_variance,
        bytes_up=bytes_up,
        bytes_down=bytes_down,
        selected=selected,
        wall_ms=wall_ms,
        epsilon=epsilon,
        mean_angle=mean_angle,
        agg_error=agg_error,
        clip_count=clip_count,
    )
    return new_weights, record


def run_experiment(cfg: ExperimentConfig) -> dict:
    """{strategy: its `cfg.rounds` RoundRecords} for each of `cfg.strategies`, run in config order.

    Every strategy trains from zero weights on one shared partition. Its shot
    and entropy streams are keyed by its index in STRATEGIES, so its records
    do not depend on which other strategies run, or in what order.
    """
    partition = make_partition(
        cfg.n_clients, cfg.classes, cfg.samples_per_client, cfg.skew, cfg.seed,
        feature_dim=cfg.feature_dim, class_sep=cfg.class_sep, test_samples=cfg.test_samples,
    )
    p = (cfg.feature_dim + 1) * cfg.classes
    runs = {}
    for strategy in cfg.strategies:
        weights = np.zeros(p)
        entropy = qselect.EntropySource(cfg.noise, seed=[cfg.seed, STRATEGIES.index(strategy), 0xE17])
        records = runs[strategy] = []
        for t in range(1, cfg.rounds + 1):
            weights, record = run_round(strategy, t, weights, partition, cfg, entropy)
            records.append(record)
    return runs
