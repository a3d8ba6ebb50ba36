"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The heavyweight ten-seed comparison (criterion 8) is computed once in a
session fixture shared by its sub-assertions.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from nrqfl import flsim, qagg, qselect
from nrqfl.cli import main
from nrqfl.config import ExperimentConfig
from nrqfl.encode import HALF_PI, decode_exact, encode
from nrqfl.qcore import (
    NoiseModel,
    Z_OBSERVABLE,
    amplitude_damping_channel,
    apply_channel,
    compose_channels,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    make_pure_state,
    random_density_matrix,
)

DEFAULT_NOISE = NoiseModel(p_depol=0.05, gamma=0.03)


def report(criterion, passed, detail=""):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_cptp_suite():
    t0 = time.perf_counter()
    worst_residual = 0.0
    for p in np.arange(0.0, 1.0001, 0.01):
        for ctor in (depolarizing_channel, dephasing_channel, amplitude_damping_channel):
            ch = ctor(float(p))
            total = sum(e.conj().T @ e for e in ch.operators)
            worst_residual = max(worst_residual, float(np.linalg.norm(total - np.eye(2))))
    channels = [depolarizing_channel(0.05), dephasing_channel(0.1), amplitude_damping_channel(0.03)]
    worst_trace, min_eig = 0.0, 0.0
    rng = np.random.default_rng(0)
    for seed in range(1000):
        rho = random_density_matrix(rng, pure=bool(seed % 2))
        for ch in channels:
            out = apply_channel(rho, ch)
            worst_trace = max(worst_trace, abs(float(np.trace(out.matrix).real) - 1.0))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(out.matrix).min()))
    elapsed = time.perf_counter() - t0
    ok = worst_residual < 1e-10 and worst_trace < 1e-10 and min_eig >= -1e-9 and elapsed < 10
    report(1, ok, f"completeness {worst_residual:.1e}, trace {worst_trace:.1e}, "
                  f"min eig {min_eig:.1e}, {elapsed:.1f}s")


def test_criterion_2_encoding_round_trip():
    worst = max(abs(decode_exact(encode(float(a))) - a) for a in np.linspace(0.0, HALF_PI, 1000))
    report(2, worst < 1e-12, f"worst round-trip error {worst:.2e}")


def test_criterion_3_theorem1_linearity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    noiseless = NoiseModel()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        angles = rng.uniform(0.0, HALF_PI, size=n)
        est = qagg.run_plan(qagg.build_plan(angles), noiseless, 1, None, exact=True)
        worst = max(worst, abs(est.value - float(np.mean(angles))))  # brute-force mean oracle
    elapsed = time.perf_counter() - t0
    report(3, worst < 1e-9 and elapsed < 30, f"worst |aggregate - mean| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_theorem1_noise_bound():
    # analytic case: dephasing p on |+> gives exactly p
    plus = make_pure_state([1 / math.sqrt(2), 1 / math.sqrt(2)])
    worst_analytic = max(
        abs(qagg.noise_deviation(plus, dephasing_channel(p)) - p) for p in (0.01, 0.05, 0.1, 0.3)
    )
    # per-round reported epsilon vs an independent SVD eigensolve oracle
    cfg = ExperimentConfig(rounds=5, samples_per_client=100, test_samples=200)
    channel = identity_channel()
    for ch in cfg.noise.gate_channels():
        channel = compose_channels(channel, ch)
    worst_round = 0.0
    for rec in flsim.run_experiment(cfg, "nrqfl"):
        state = encode(rec.mean_angle)
        diff = state.matrix - apply_channel(state, channel).matrix
        oracle = 0.5 * float(np.sum(np.linalg.svd(diff, compute_uv=False)))
        worst_round = max(worst_round, abs(rec.epsilon - oracle))
    ok = worst_analytic < 1e-12 and worst_round < 1e-9
    report(4, ok, f"dephasing analytic {worst_analytic:.2e}, round-report vs oracle {worst_round:.2e}")


def test_criterion_5_theorem2_bound_soundness():
    t0 = time.perf_counter()
    sigma_gate = qagg.fit_sigma_gate(DEFAULT_NOISE, np.random.default_rng(2), trials=300)
    rng = np.random.default_rng(3)
    violations = 0
    configs = 1000
    for _ in range(configs):
        n = int(rng.integers(1, 10))  # single-group plans: depth d = N
        shots = int(rng.integers(256, 65537))
        plan = qagg.build_plan(rng.uniform(0.05, HALF_PI - 0.05, size=n))
        cfg = qagg.AggregationConfig(shots=shots, n_clients=n, sigma_shot=0.5, sigma_gate=sigma_gate)
        if qagg.empirical_variance(plan, DEFAULT_NOISE, shots, 300, rng) > qagg.variance_bound(cfg, plan.depth):
            violations += 1
    rate = violations / configs
    plan = qagg.build_plan([0.3, 0.5, 0.7, 0.9, 1.1])
    v1 = qagg.empirical_variance(plan, DEFAULT_NOISE, 2048, 500, np.random.default_rng(4))
    v4 = qagg.empirical_variance(plan, DEFAULT_NOISE, 8192, 500, np.random.default_rng(5))
    ratio = v1 / v4
    elapsed = time.perf_counter() - t0
    ok = rate <= 0.05 and 3.0 <= ratio <= 5.0 and elapsed < 300
    report(5, ok, f"violation rate {rate:.3f} (sigma_gate={sigma_gate:.4f}), "
                  f"4x-shot variance ratio {ratio:.2f}, {elapsed:.0f}s")


def test_criterion_6_theorem3_commutation():
    rng = np.random.default_rng(6)
    worst_hold, worst_law = 0.0, 0.0
    for _ in range(100):
        rho = random_density_matrix(rng, pure=bool(rng.integers(2)))
        p = float(rng.uniform(0.01, 0.99))
        lhs, rhs, holds = qagg.commutation_check(dephasing_channel(p), Z_OBSERVABLE, rho)
        worst_hold = max(worst_hold, abs(lhs - rhs))
        assert holds
        lhs, rhs, _ = qagg.commutation_check(depolarizing_channel(p), Z_OBSERVABLE, rho)
        worst_law = max(worst_law, abs(abs(lhs - rhs) - (4 * p / 3) * abs(lhs)))
    ok = worst_hold < 1e-10 and worst_law < 1e-9
    report(6, ok, f"dephasing/Z equality {worst_hold:.2e}, depolarizing violation law {worst_law:.2e}")


def test_criterion_7_mitigation_efficacy():
    noise = NoiseModel(p_depol=0.05)
    rng = np.random.default_rng(7)
    # exact-expectation pipeline: mitigated error < 1e-6, raw error > 0
    worst_mitigated, min_raw = 0.0, math.inf
    for mean in np.linspace(0.2, 1.2, 20):
        n = int(rng.integers(2, 10))
        angles = np.clip(mean + rng.uniform(-0.05, 0.05, size=n), 0.0, HALF_PI)
        plan = qagg.build_plan(angles)
        true_mean = float(np.mean(angles))
        est = qagg.run_plan(plan, noise, 1, None, exact=True)
        z = qagg.mitigate_channel_inversion(est.z_raw, noise, plan.depth)
        worst_mitigated = max(worst_mitigated, abs(math.asin(math.sqrt((1 - z) / 2)) - true_mean))
        min_raw = min(min_raw, abs(est.value - true_mean))
    # sampled pipeline at 1e5 shots: mitigated error < 0.02 rad in >= 95/100 seeds
    hits = 0
    angles = np.array([0.45, 0.6, 0.75, 0.9, 1.05])
    plan = qagg.build_plan(angles)
    true_mean = float(np.mean(angles))
    state = qagg.simulate_plan(plan, noise)
    from nrqfl.qcore import prob_one

    p1 = prob_one(state)
    for seed in range(100):
        ones = np.random.default_rng(seed).binomial(10**5, p1)
        z = qagg.mitigate_channel_inversion(1 - 2 * ones / 10**5, noise, plan.depth)
        if abs(math.asin(math.sqrt((1 - z) / 2)) - true_mean) < 0.02:
            hits += 1
    ok = worst_mitigated < 1e-6 and min_raw > 0 and hits >= 95
    report(7, ok, f"exact mitigated {worst_mitigated:.2e}, min raw bias {min_raw:.2e}, "
                  f"shot-mitigated hits {hits}/100")


@pytest.fixture(scope="module")
def desk_scale_comparison():
    t0 = time.perf_counter()
    finals = {"fedavg": [], "qfl": [], "nrqfl": []}
    bytes_total = {"qfl": 0, "nrqfl": 0}
    for seed in range(10):
        cfg = ExperimentConfig(seed=seed)  # defaults: 5 clients, T=50, p=0.05, gamma=0.03
        for strategy in ("fedavg", "qfl", "nrqfl"):
            records = flsim.run_experiment(cfg, strategy)
            finals[strategy].append(records[-1].accuracy)
            if strategy in bytes_total:
                bytes_total[strategy] += sum(r.bytes_up + r.bytes_down for r in records)
    return finals, bytes_total, time.perf_counter() - t0


def test_criterion_8_desk_scale_table(desk_scale_comparison):
    finals, bytes_total, elapsed = desk_scale_comparison
    fedavg = float(np.mean(finals["fedavg"]))  # classical path ignores quantum noise
    qfl = float(np.mean(finals["qfl"]))
    nrqfl = float(np.mean(finals["nrqfl"]))
    gap_nrqfl = abs(nrqfl - fedavg)
    gap_qfl = abs(qfl - fedavg)
    overhead = bytes_total["nrqfl"] / bytes_total["qfl"] - 1.0
    ok = (
        nrqfl >= qfl                      # (a)
        and gap_nrqfl < 0.02 and gap_qfl > gap_nrqfl  # (b)
        and 0.05 <= overhead <= 0.12      # (c) brackets the paper's ~8%
        and elapsed < 1800
    )
    report(8, ok, f"acc fedavg {fedavg:.4f} qfl {qfl:.4f} nrqfl {nrqfl:.4f}; "
                  f"gaps nrqfl {gap_nrqfl:.4f} qfl {gap_qfl:.4f}; overhead {overhead:.3f}; {elapsed:.0f}s")


def test_criterion_9_selection_fairness():
    threshold = stats.chi2.ppf(0.99, df=9)  # 10 subsets of 3-of-5
    from itertools import combinations

    subsets = {c: i for i, c in enumerate(combinations(range(5), 3))}
    passes = 0
    for seed in range(100):
        source = qselect.EntropySource(DEFAULT_NOISE, seed=[seed, 5])
        counts = np.zeros(10)
        rounds = 10**4
        for t in range(rounds):
            counts[subsets[qselect.select_clients(5, 3, source, t).selected]] += 1
        expected = rounds / 10
        chi = float(np.sum((counts - expected) ** 2 / expected))
        passes += chi < threshold
    # negative control: a client that is never selected must be flagged
    rng = np.random.default_rng(8)
    history = [
        qselect.SelectionVector(t, tuple(sorted(rng.choice(4, size=3, replace=False))), 0)
        for t in range(10**4)
    ]
    neg_chi, _ = qselect.fairness_report(history, 5)
    neg_detected = neg_chi > stats.chi2.ppf(0.999, df=4)
    ok = passes >= 95 and neg_detected
    report(9, ok, f"{passes}/100 seeds below 99th percentile; starved-client chi2 {neg_chi:.0f}")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"rounds": 8, "seed": 13, "samples_per_client": 100, "test_samples": 200}')
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    identical = (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()
    report(10, identical, "two identical-seed runs produced byte-identical rounds.csv")
