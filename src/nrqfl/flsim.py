"""Federated learning harness: FedAvg, QFL, and NR-QFL on synthetic workloads.

The workload is multinomial logistic regression on Gaussian-mixture features
with Dirichlet label skew, trained with full-batch gradient descent so that
every inter-strategy difference is attributable to the aggregation step.
What each strategy runs (quantum path, encoding window, mitigation) is one
row of `config.STRATEGY_TABLE`; this module reads the row, never the name.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import qagg, qselect
from .config import STRATEGIES, STRATEGY_TABLE, AggregationConfig, ExperimentConfig, check_workload
from .encode import WeightBounds, bounds_from_values, normalize
from .qcore import NoiseModel

DIVERGED_HINT = "reduce the learning rate (lr) or class_sep"
WEIGHTS_DIVERGED = f"training weights diverged; {DIVERGED_HINT}"


@dataclass(frozen=True, eq=False)
class DataPartition:
    """Disjoint per-client datasets plus a globally held-out test set.

    Every client holds the same n samples, so the client data is one (k, n, f)
    feature stack and one (k, n) label stack, and a round gathers its clients
    with one fancy index.
    """

    client_features: np.ndarray
    client_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    classes: int

    @property
    def n_clients(self) -> int:
        return len(self.client_features)


@dataclass(frozen=True)
class RoundRecord:
    """Per-round metrics; `cli`'s output table names the fields each output file writes."""

    round: int
    strategy: str
    accuracy: float
    f1: float
    grad_variance: float
    bytes_up: int
    bytes_down: int
    selected: tuple
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
    check_workload(n_clients, classes, feature_dim, samples_per_client, test_samples, skew, class_sep)
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
    return DataPartition(client_x, client_y, test_x, test_y, classes)


def _split_weights(w: np.ndarray, f: int, classes: int) -> tuple:
    """Views of flat weight rows (..., (f+1)*c): W^T (..., c, f) and the bias, class first, (c, ..., 1)."""
    w = w.reshape(w.shape[:-1] + (f + 1, classes))
    return np.swapaxes(w[..., :-1, :], -1, -2), np.moveaxis(w[..., -1, :], -1, 0)[..., None]


class _Workspace:
    """The buffers of one training shape, (..., n, f) features and c classes, and the views an epoch takes of them.

    `probs` holds the logits, then the probs, then the deltas, class first:
    (c, ..., n), so an op between it and per-sample (..., n) rows runs one
    contiguous loop per class. `rows` (..., n) holds the per-sample max, then
    the totals (the max is dead once subtracted); `by_sample` the
    sample-major (n, c, ...) deltas and, before them, the sample-major exps
    of 8 classes or more.
    """

    def __init__(self, lead: tuple, n: int, f: int, classes: int):
        self.key = (lead + (n, f), classes)
        self.probs = np.empty((classes,) + lead + (n,))
        self.rows = np.empty(lead + (n,))
        self.by_sample = np.empty((n, classes) + lead)
        self.grad = np.empty(lead + (f + 1, classes))
        self.onehot = np.empty((classes,) + lead + (n,))
        self.labels = np.arange(classes).reshape((classes,) + (1,) * (len(lead) + 1))
        self.by_client = np.moveaxis(self.probs, 0, -2)  # (..., c, n): one BLAS block per client
        self.probs_t = np.moveaxis(self.probs, 0, -1)  # (..., n, c)
        self.probs_2d, self.by_sample_2d = self.probs.reshape(-1, n), self.by_sample.reshape(n, -1).T  # copy as 2-D
        self.exps_by_sample = self.by_sample.reshape(lead + (n, classes))
        self.grad_w, self.grad_b = self.grad[..., :-1, :], np.moveaxis(self.grad[..., -1, :], -1, 0)
        self.grad_flat = self.grad.reshape(lead + (-1,))


class _ThreadWorkspace(threading.local):
    """Each thread's own workspace, so concurrent `local_train` calls never share a buffer."""

    workspace = None


_THREAD = _ThreadWorkspace()


def _workspace(shape: tuple, classes: int) -> _Workspace:
    """This thread's buffers for (..., n, f) features and `classes` classes, rebuilt when the shape changes.

    Every client `make_partition` builds holds `samples_per_client` samples and
    every round trains `selection_m` of them, so a run builds it once.
    """
    ws = _THREAD.workspace
    if ws is None or ws.key != (shape, classes):
        ws = _THREAD.workspace = _Workspace(shape[:-2], shape[-2], shape[-1], classes)
    return ws


def _class_probs(wt: np.ndarray, bias: np.ndarray, xt: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Softmax probs of `_split_weights`'s views and features xt (..., f, n), in `ws.probs`; returns the totals.

    The totals (..., n) are the per-sample sums of exps, in `ws.rows`.
    Bit-identical to the row-wise softmax: see `local_train`.
    """
    z, rows = ws.probs, ws.rows
    np.matmul(wt, xt, out=ws.by_client)
    z += bias
    np.maximum.reduce(z, axis=0, out=rows)
    z -= rows
    np.exp(z, out=z)
    if len(z) < 8:  # classes
        np.add.reduce(z, axis=0, out=rows)
    else:
        np.copyto(ws.exps_by_sample, ws.probs_t)
        np.add.reduce(ws.exps_by_sample, axis=-1, out=rows)
    z /= rows
    return rows


def _class_onehot(y: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Float one-hot labels, class first (c, ..., n), in `ws.onehot`."""
    return np.equal(y, ws.labels, out=ws.onehot)


def _gradient(onehot: np.ndarray, xt: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Flat cross-entropy gradient rows (..., (f+1)*c) from the probs in `ws.probs` and one-hot labels, in `ws.grad`.

    The probs become the deltas (probs - onehot) / n in place.
    """
    probs = ws.probs
    probs -= onehot
    probs /= xt.shape[-1]
    np.matmul(xt, ws.probs_t, out=ws.grad_w)
    np.copyto(ws.by_sample_2d, ws.probs_2d)
    np.add.reduce(ws.by_sample, axis=0, out=ws.grad_b)
    return ws.grad_flat


def loss_and_grad(weights: np.ndarray, x: np.ndarray, y: np.ndarray, classes: int):
    """Mean softmax cross-entropy and its gradient w.r.t. the flat weights.

    `x` is (..., n, f) and `y` (..., n); leading axes index clients, each with
    its own weight row in `weights` (..., p) or sharing one flat vector. The
    loss has the leading shape and the gradient one row per client.
    """
    weights = np.asarray(weights, dtype=float)
    n, f = x.shape[-2:]
    lead = np.broadcast_shapes(weights.shape[:-1], x.shape[:-2])
    ws = _Workspace(lead, n, f, classes)
    xt = np.swapaxes(x, -1, -2)
    _class_probs(*_split_weights(np.broadcast_to(weights, lead + weights.shape[-1:]), f, classes), xt, ws)
    picked = np.take_along_axis(ws.probs, y[None], axis=0)[0]
    loss = -np.mean(np.log(picked + 1e-300), axis=-1)
    return loss, _gradient(_class_onehot(y, ws), xt, ws)


def local_train(weights: np.ndarray, x: np.ndarray, y: np.ndarray, classes: int, epochs: int, lr: float) -> np.ndarray:
    """Full-batch gradient descent from the global weights; returns new weights.

    With leading client axes on `x` (..., n, f) and `y` (..., n), every client
    trains from the same `weights` and the result has one weight row per client.
    """
    # a C-ordered copy per client: the memory layout picks numpy's matmul path,
    # and this one gives each client the bits of a lone 2-D call.
    # Each epoch works on class-first (c, ..., n) logits: each client's
    # W[:-1]^T @ x^T lands as one (c, n) block of them. Every softmax op runs
    # along contiguous sample rows, and an op against per-sample (..., n)
    # rows runs one contiguous loop per class: the sample-major layout would
    # cost numpy one inner-loop call per sample for each reduction along the
    # 3-4-wide class axis. The bits are the row-wise ones:
    # - every logit and gradient entry is the same BLAS dot, over the same
    #   operands in the same order, whichever operand is transposed; each
    #   matmul's `out=` view (`by_client`, `grad_w`) keeps unit stride along
    #   its last axis, so numpy still hands those operands to BLAS (an output
    #   without it sends matmul to numpy's own loop, which sums in another
    #   order; `test_edge_shapes_equal_per_client_loop` checks the bits);
    # - a max is exact in any order; below 8 classes numpy sums a row left to
    #   right, and `add.reduce` over the class axis adds whole class slabs in
    #   order, which is the same sum; from 8 up, where numpy sums pairwise,
    #   the row sum runs on a sample-major copy;
    # - the row-wise bias gradient, `sum(axis=-2)` over samples, runs left to
    #   right; copying the deltas to sample-major (n, c, ...) and reducing
    #   axis 0 is the same sequential sum, with one inner loop per sample;
    # - subtracting a float one-hot subtracts the same 1.0 a bool one does.
    # The buffers are `_workspace`'s, kept across calls of one shape: a fresh
    # process otherwise faults in new pages for every round's (c, k, n)
    # temporaries.
    # Every buffer is written before it is read, so a call that diverges
    # leaves nothing behind. Probs are finite exactly when their sample's
    # total is; finite totals lie in [1, c], so their sum is finite exactly
    # when every one is. A loss is finite exactly when every prob is.
    w = np.broadcast_to(np.asarray(weights, dtype=float), x.shape[:-2] + np.shape(weights)).copy()
    ws = _workspace(x.shape, classes)
    xt = np.swapaxes(x, -1, -2)
    wt, bias = _split_weights(w, x.shape[-1], classes)
    onehot = _class_onehot(y, ws)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is surfaced below
        for _ in range(epochs):
            total = _class_probs(wt, bias, xt, ws)
            if not math.isfinite(total.sum()):
                loss = loss_and_grad(w, x, y, classes)[0]
                raise ValueError(f"training loss diverged (loss={np.max(loss)}); {DIVERGED_HINT}")
            grad = _gradient(onehot, xt, ws)
            grad *= lr
            w -= grad
            if not np.isfinite(w).all():
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
    w = np.asarray(weights, dtype=float).reshape(-1, classes)
    pred = np.argmax(x @ w[:-1] + w[-1], axis=1)
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


def aggregation_config(cfg: ExperimentConfig, strategy: str) -> AggregationConfig:
    """The aggregation knobs a quantum strategy's rounds run with."""
    mitigation = cfg.mitigation if STRATEGY_TABLE[strategy].mitigated else "none"
    return AggregationConfig(cfg.shots, mitigation, cfg.exact_expectation)


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
    p = len(weights)
    m = cfg.selection_m if cfg.selection_m is not None else partition.n_clients
    sv = qselect.select_clients(partition.n_clients, m, entropy, round_index)
    selected = sv.selected

    rows = list(selected)
    xs, ys = partition.client_features[rows], partition.client_labels[rows]
    updates = local_train(weights, xs, ys, partition.classes, cfg.local_epochs, cfg.lr)
    classical_mean = fedavg_aggregate(updates, np.full(len(rows), ys.shape[-1]))

    spec = STRATEGY_TABLE[strategy]
    new_weights, epsilon, mean_angle, clip_count = classical_mean, 0.0, 0.0, 0
    bytes_up = 8 * p * len(selected)
    if spec.quantum:
        if spec.adaptive_window:
            bounds = bounds_from_values(updates)
            bytes_up += 8 * p  # float32 (lo, hi) bounds metadata, once per round
        else:
            bounds = WeightBounds(-cfg.fixed_weight_bound, cfg.fixed_weight_bound)
        result = qagg.replicated_aggregate(
            updates, bounds, aggregation_config(cfg, strategy), cfg.noise, cfg.n_servers,
            seed_key=(cfg.seed, STRATEGIES.index(strategy), round_index),
        )
        new_weights, clip_count = result.vector, result.clip_count
        epsilon, mean_angle = _round_epsilon(cfg.noise, updates, bounds)

    acc, f1 = evaluate(new_weights, partition.test_features, partition.test_labels, partition.classes)
    bytes_down = 8 * p * partition.n_clients

    with np.errstate(over="ignore", invalid="ignore"):  # divergence is surfaced below
        grad_variance = _grad_variance(updates)
        agg_error = float(np.mean(np.abs(new_weights - classical_mean)))
    # weights near the float range train to finite rows whose spread overflows
    if not np.all(np.isfinite([grad_variance, agg_error, epsilon, mean_angle])):
        raise ValueError(WEIGHTS_DIVERGED)
    return new_weights, RoundRecord(
        round=round_index, strategy=strategy, accuracy=acc, f1=f1, grad_variance=grad_variance,
        bytes_up=bytes_up, bytes_down=bytes_down, selected=selected,
        epsilon=epsilon, mean_angle=mean_angle, agg_error=agg_error, clip_count=clip_count,
    )


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
