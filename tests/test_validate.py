import math

import numpy as np
import pytest
from scipy import stats

from nrqfl import qagg, qselect, validate
from nrqfl.qcore import (
    Z_OBSERVABLE,
    dephasing_channel,
    depolarizing_channel,
    make_pure_state,
    random_density_matrix,
)


def test_fairness_threshold_is_the_chi_square_quantile():
    assert abs(validate.CHI2_DF9_P99 - stats.chi2.ppf(0.99, df=9)) < 1e-12
    assert len(validate.SUBSETS) == 10


def test_fairness_check_fails_on_a_starved_client(monkeypatch):
    # a selector that never picks client 4 draws only the 4 subsets of clients 0-3
    select_clients = qselect.select_clients
    monkeypatch.setattr(qselect, "select_clients", lambda n, m, bits, t=0: select_clients(n - 1, m, bits, t))
    result = validate.check_selection_fairness()
    assert not result.passed, result.detail


def test_theorem2_check_fails_on_an_inflated_variance(monkeypatch):
    # the bound is a closed form, not fitted to the estimator it checks, so 1.5x the variance breaks it
    empirical_variance = qagg.empirical_variance
    monkeypatch.setattr(qagg, "empirical_variance", lambda *a: 1.5 * empirical_variance(*a))
    result = validate.check_theorem2_bound_soundness()
    assert not result.passed, result.detail


def test_sampling_check_fails_on_a_quarter_of_the_shots(monkeypatch):
    # the check samples through the draws a round makes: a quarter of the shots doubles sigma, so 4 sigma is 2
    shot_draws = qagg._shot_draws
    monkeypatch.setattr(qagg, "_shot_draws", lambda key, rows, shots, p: 4 * shot_draws(key, rows, shots // 4, p))
    result = validate.check_sampling_consistency()
    assert not result.passed, result.detail


def test_round_trip_check_reads_the_decode_a_round_runs(monkeypatch):
    z_to_angle = qagg.z_to_angle
    monkeypatch.setattr(qagg, "z_to_angle", lambda z: z_to_angle(z) * (1 - 1e-11))
    result = validate.check_encode_roundtrip()
    assert not result.passed, result.detail


class TestCommutationCheck:
    def test_dephasing_z_commutes(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = random_density_matrix(rng)
            lhs, rhs, holds = validate.commutation_check(dephasing_channel(0.3), Z_OBSERVABLE, rho)
            assert holds and abs(lhs - rhs) < 1e-10

    def test_depolarizing_z_violation(self):
        lhs, rhs, holds = validate.commutation_check(depolarizing_channel(0.2), Z_OBSERVABLE, make_pure_state([1, 0]))
        assert not holds
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1 - 4 * 0.2 / 3, abs=1e-12)

    def test_identity_always_holds(self):
        rho = random_density_matrix(np.random.default_rng(13))
        _, _, holds = validate.commutation_check(depolarizing_channel(0.0), Z_OBSERVABLE, rho)
        assert holds


class TestEncodedState:
    def test_zero_angle(self):
        assert np.allclose(validate._encoded_state(0.0).matrix, [[1, 0], [0, 0]])

    def test_quarter_pi_is_plus(self):
        rho = validate._encoded_state(math.pi / 4)
        assert np.allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_sixth_pi_populations(self):
        rho = validate._encoded_state(math.pi / 6)
        assert np.allclose(np.diag(rho.matrix).real, [0.75, 0.25], atol=1e-12)
