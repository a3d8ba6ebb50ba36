"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-7 and 9 run the `nrqfl validate` checks at this suite's seeds and
sizes, so each invariant has one implementation. Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The heavyweight ten-seed comparison (criterion 8) is computed once in a
session fixture shared by its sub-assertions.
"""

import time

import numpy as np
import pytest

from nrqfl import flsim, qagg, qselect, validate
from nrqfl.cli import main
from nrqfl.config import ExperimentConfig
from nrqfl.qcore import NoiseModel

DEFAULT_NOISE = NoiseModel(p_depol=0.05, gamma=0.03)


def report(criterion, passed, detail=""):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def report_checks(criterion, results, passed=True, detail=""):
    """Report `validate` check results, plus the condition and detail only this criterion adds."""
    details = [f"{r.name} {r.detail}" for r in results] + ([detail] if detail else [])
    report(criterion, passed and all(r.passed for r in results), "; ".join(details))


def test_criterion_1_cptp_suite():
    t0 = time.perf_counter()
    results = [
        validate.check_cptp_completeness(),
        validate.check_trace_preservation(seed=0, states=1000),
        validate.check_psd_preservation(seed=0, states=1000, strengths=(0.05, 0.1, 0.03)),
    ]
    elapsed = time.perf_counter() - t0
    report_checks(1, results, elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_2_encoding_round_trip():
    report_checks(2, [validate.check_encode_roundtrip()])


def test_criterion_3_theorem1_linearity():
    t0 = time.perf_counter()
    result = validate.check_theorem1_linearity(seed=1, sets=1000)
    elapsed = time.perf_counter() - t0
    report_checks(3, [result], elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_4_theorem1_noise_bound():
    result = validate.check_theorem1_noise_bound(seed=4)
    # every epsilon a 5-round nrqfl run reports is held to the same oracle
    cfg = ExperimentConfig(rounds=5, samples_per_client=100, test_samples=200, strategies=("nrqfl",))
    records = flsim.run_experiment(cfg)["nrqfl"]
    worst = max(abs(rec.epsilon - validate.trace_distance_oracle(rec.mean_angle, cfg.noise)) for rec in records)
    report_checks(4, [result], worst < 1e-9 and len(records) == 5,
                  f"{len(records)} reported rounds, worst round epsilon vs oracle {worst:.2e}")


def test_criterion_5_theorem2_bound_soundness():
    t0 = time.perf_counter()
    result = validate.check_theorem2_bound_soundness(seed=3, configs=1000, trials=300)
    angles = [0.3, 0.5, 0.7, 0.9, 1.1]
    v1 = qagg.empirical_variance(angles, qagg.AggregationConfig(shots=2048), DEFAULT_NOISE, 500, seed_key=(4,))
    v4 = qagg.empirical_variance(angles, qagg.AggregationConfig(shots=8192), DEFAULT_NOISE, 500, seed_key=(5,))
    ratio = v1 / v4
    elapsed = time.perf_counter() - t0
    report_checks(5, [result], 3.0 <= ratio <= 5.0 and elapsed < 300,
                  f"4x-shot variance ratio {ratio:.2f}, {elapsed:.0f}s")


def test_criterion_6_theorem3_commutation():
    report_checks(6, [validate.check_theorem3_commutation(seed=6)])


def test_criterion_7_mitigation_efficacy():
    report_checks(7, [validate.check_mitigation_efficacy(seed=7, sets=20, runs=100)])


@pytest.fixture(scope="module")
def desk_scale_comparison():
    t0 = time.perf_counter()
    finals = {"fedavg": [], "qfl": [], "nrqfl": []}
    bytes_total = {"qfl": 0, "nrqfl": 0}
    for seed in range(10):
        cfg = ExperimentConfig(seed=seed)  # defaults: 5 clients, T=50, p=0.05, gamma=0.03, all three strategies
        for strategy, records in flsim.run_experiment(cfg).items():
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
    result = validate.check_selection_fairness(seeds=100, rounds=10**4, stream=5, quorum=0.95)
    # negative control: a client that is never selected must be flagged
    rng = np.random.default_rng(8)
    history = [
        qselect.SelectionVector(t, tuple(sorted(rng.choice(4, size=3, replace=False))), 0)
        for t in range(10**4)
    ]
    neg_chi = validate.subset_chi_square(history)
    report_checks(9, [result], neg_chi > validate.CHI2_DF9_P99, f"starved-client chi2 {neg_chi:.0f}")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"rounds": 8, "seed": 13, "samples_per_client": 100, "test_samples": 200}')
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    identical = (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()
    report(10, identical, "two identical-seed runs produced byte-identical rounds.csv")
