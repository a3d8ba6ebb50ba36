import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrqfl import qagg
from nrqfl.qcore import (
    DensityMatrix,
    KrausChannel,
    NoiseModel,
    Observable,
    PAULI_X,
    PAULI_Z,
    Z_OBSERVABLE,
    amplitude_damping_channel,
    apply_channel,
    apply_unitary,
    circuit_bloch,
    circuit_p1,
    dephasing_channel,
    depolarizing_channel,
    expectation,
    make_pure_state,
    prob_one,
    random_density_matrix,
    readout_p1,
    ry,
    sample_measurement,
)

SQ2 = 1 / math.sqrt(2)
BAD_PROBABILITIES = (1.5, True, "0.1", math.nan)  # NoiseModel rejects each; a bool or a string is not a probability


def plus_state():
    return make_pure_state([SQ2, SQ2])


def probability_message(key, v) -> str:
    """A regex of NoiseModel's whole message rejecting noise.<key> = v."""
    return f"^{re.escape(f'noise.{key} must be a probability in [0, 1], got {v!r}')}$"


class TestMakePureState:
    def test_basis_zero(self):
        rho = make_pure_state([1, 0])
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]])

    def test_plus_projector(self):
        assert np.allclose(plus_state().matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_complex_amplitudes(self):
        # outer product by hand: diag (0.36, 0.64), off-diag 0.6 * (-0.8i)
        rho = make_pure_state([0.6, 0.8j])
        expected = np.outer([0.6, 0.8j], [0.6, -0.8j])
        assert np.allclose(rho.matrix, expected)
        assert np.allclose(np.diag(rho.matrix).real, [0.36, 0.64])

    def test_rejects_non_unit_norm(self):
        with pytest.raises(ValueError, match="unit norm"):
            make_pure_state([1, 1])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="2 amplitudes"):
            make_pure_state([1, 0, 0])


class TestApplyUnitary:
    def test_bit_flip(self):
        out = apply_unitary(make_pure_state([1, 0]), PAULI_X)
        assert np.allclose(out.matrix, [[0, 0], [0, 1]])

    def test_identity(self):
        rho = random_density_matrix(np.random.default_rng(0))
        out = apply_unitary(rho, np.eye(2))
        assert np.allclose(out.matrix, rho.matrix)

    def test_ry_half_pi_makes_plus(self):
        # oracle: direct matrix product
        u = ry(math.pi / 2)
        out = apply_unitary(make_pure_state([1, 0]), u)
        oracle = u @ np.array([[1, 0], [0, 0]], dtype=complex) @ u.conj().T
        assert np.allclose(out.matrix, oracle)
        assert np.allclose(out.matrix, plus_state().matrix, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(make_pure_state([1, 0]), [[1, 0], [0, 2]])


class TestRy:
    def test_zero_is_identity(self):
        assert np.allclose(ry(0), np.eye(2))

    def test_pi(self):
        assert np.allclose(ry(math.pi), [[0, -1], [1, 0]], atol=1e-15)

    def test_half_pi_amplitudes(self):
        v = ry(math.pi / 2) @ np.array([1, 0])
        assert np.allclose(v, [SQ2, SQ2])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ry(float("nan"))


class TestChannels:
    def test_depolarizing_zero_is_identity(self):
        ch = depolarizing_channel(0.0)
        assert len(ch.operators) == 1

    def test_depolarizing_z_attenuation(self):
        # oracle: explicit Kraus sum of Eq.-style operators
        p = 0.05
        rho = make_pure_state([1, 0])
        out = apply_channel(rho, depolarizing_channel(p))
        assert expectation(out, Z_OBSERVABLE) == pytest.approx(1 - 4 * p / 3, abs=1e-12)

    def test_depolarizing_fixed_point(self):
        mixed = DensityMatrix(np.eye(2) / 2)
        out = apply_channel(mixed, depolarizing_channel(0.7))
        assert np.allclose(out.matrix, mixed.matrix)

    def test_dephasing_half_kills_coherence(self):
        out = apply_channel(plus_state(), dephasing_channel(0.5))
        assert np.allclose(out.matrix, np.eye(2) / 2)

    def test_dephasing_diagonal_invariant(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        out = apply_channel(rho, dephasing_channel(0.4))
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_dephasing_off_diagonal_scaling(self):
        # Kraus-sum oracle: off-diagonals scale by 1 - 2p
        out = apply_channel(plus_state(), dephasing_channel(0.1))
        assert out.matrix[0, 1].real == pytest.approx(0.4, abs=1e-12)

    def test_damping_total_decay(self):
        out = apply_channel(make_pure_state([0, 1]), amplitude_damping_channel(1.0))
        assert np.allclose(out.matrix, [[1, 0], [0, 0]])

    def test_damping_population_transfer(self):
        out = apply_channel(make_pure_state([0, 1]), amplitude_damping_channel(0.03))
        assert np.allclose(np.diag(out.matrix).real, [0.03, 0.97])

    @pytest.mark.parametrize("ctor", [depolarizing_channel, dephasing_channel, amplitude_damping_channel])
    def test_rejects_bad_probability(self, ctor):
        # NoiseModel's rule and message, naming the key the constructor's parameter is read from
        key = {depolarizing_channel: "p_depol", dephasing_channel: "p_deph", amplitude_damping_channel: "gamma"}[ctor]
        for p in BAD_PROBABILITIES:
            with pytest.raises(ValueError, match=probability_message(key, p)):
                ctor(p)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_completeness_holds_everywhere(self, p):
        for ctor in (depolarizing_channel, dephasing_channel, amplitude_damping_channel):
            ch = ctor(p)
            total = sum(e.conj().T @ e for e in ch.operators)
            assert np.linalg.norm(total - np.eye(2)) < 1e-10

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel((0.5 * PAULI_X,))


class TestApplyChannel:
    def test_double_depolarizing_attenuation(self):
        # sequential oracle application: <Z> -> (1 - 4p/3)^2
        p = 0.12
        state = make_pure_state([1, 0])
        for _ in range(2):
            state = apply_channel(state, depolarizing_channel(p))
        assert expectation(state, Z_OBSERVABLE) == pytest.approx((1 - 4 * p / 3) ** 2, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_trace_preserved(self, p, seed):
        rho = random_density_matrix(np.random.default_rng(seed))
        out = apply_channel(rho, depolarizing_channel(p))
        assert abs(np.trace(out.matrix).real - 1) < 1e-10


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(make_pure_state([1, 0]), Z_OBSERVABLE) == pytest.approx(1.0)

    def test_z_on_mixed(self):
        assert expectation(DensityMatrix(np.eye(2) / 2), Z_OBSERVABLE) == pytest.approx(0.0)

    def test_z_after_rotation(self):
        state = apply_unitary(make_pure_state([1, 0]), ry(2 * 0.3))
        assert expectation(state, Z_OBSERVABLE) == pytest.approx(math.cos(0.6), abs=1e-12)

    def test_dimension_mismatch(self):
        # states and observables are 2x2 by construction, so a mismatch cannot reach expectation
        with pytest.raises(ValueError, match="2x2"):
            DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValueError, match="2x2"):
            Observable(np.eye(4))
        with pytest.raises(ValueError, match="2x2"):
            KrausChannel((np.eye(4),))


class TestSampleMeasurement:
    def test_deterministic_zero_state(self):
        zeros, ones = sample_measurement(make_pure_state([1, 0]), 0, 100, np.random.default_rng(0))
        assert (zeros, ones) == (100, 0)

    def test_mixed_state_frequency(self):
        rng = np.random.default_rng(5)
        mixed = DensityMatrix(np.eye(2) / 2)
        _, ones = sample_measurement(mixed, 0, 10**6, rng)
        assert abs(ones / 10**6 - 0.5) < 0.002  # binomial 3-sigma

    def test_readout_flip(self):
        rng = np.random.default_rng(6)
        _, ones = sample_measurement(make_pure_state([1, 0]), 0, 10**6, rng, readout_flip=0.1)
        assert abs(ones / 10**6 - 0.1) < 0.001

    def test_seed_determinism(self):
        state = plus_state()
        a = sample_measurement(state, 0, 1000, np.random.default_rng(42))
        b = sample_measurement(state, 0, 1000, np.random.default_rng(42))
        assert a == b

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample_measurement(plus_state(), 0, 0, np.random.default_rng(0))

    def test_rejects_target_qubit_1(self):
        with pytest.raises(ValueError, match="out of range"):
            sample_measurement(plus_state(), 1, 100, np.random.default_rng(0))


unit = st.floats(min_value=0.0, max_value=1.0)


class TestCircuitEngine:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=math.pi), min_size=1, max_size=9),
        unit, unit, unit,
    )
    @settings(max_examples=200)
    def test_matches_step_validated_chain(self, gates, p_depol, p_deph, gamma):
        noise = NoiseModel(p_depol=p_depol, p_deph=p_deph, gamma=gamma)
        oracle = make_pure_state([1.0, 0.0])
        for theta in gates:
            oracle = apply_unitary(oracle, ry(theta))
            for ch in noise.gate_channels():
                oracle = apply_channel(oracle, ch)
        engine = qagg.simulate_plan(gates, noise)
        assert isinstance(engine, DensityMatrix)
        assert np.max(np.abs(engine.matrix - oracle.matrix)) <= 1e-12

    @given(st.data(), st.integers(1, 6), st.integers(1, 9), unit, unit, unit, unit)
    @settings(max_examples=100)
    def test_batch_matches_step_validated_chain_per_row(self, data, rows, depth, p_depol, p_deph, gamma, flip):
        angle = st.floats(min_value=0.0, max_value=math.pi)
        gates = np.array(data.draw(st.lists(st.lists(angle, min_size=depth, max_size=depth),
                                            min_size=rows, max_size=rows)))
        noise = NoiseModel(p_depol=p_depol, p_deph=p_deph, gamma=gamma, readout_flip=flip)
        x, z = circuit_bloch(gates, noise)
        p1 = circuit_p1(gates, noise)
        assert x.shape == z.shape == p1.shape == (rows,)
        for i, row in enumerate(gates):
            oracle = make_pure_state([1.0, 0.0])
            for theta in row:
                oracle = apply_unitary(oracle, ry(theta))
                for ch in noise.gate_channels():
                    oracle = apply_channel(oracle, ch)
            m = oracle.matrix
            assert abs(x[i] - 2 * m[0, 1].real) <= 1e-12
            assert abs(z[i] - (m[0, 0] - m[1, 1]).real) <= 1e-12
            assert abs(p1[i] - readout_p1(oracle, flip)) <= 1e-12

    def test_batch_leading_axes_and_rejections(self):
        noise = NoiseModel(p_depol=0.05, gamma=0.03)
        gates = np.random.default_rng(0).uniform(0, math.pi, size=(2, 3, 4))
        x, z = circuit_bloch(gates, noise)
        flat_x, flat_z = circuit_bloch(gates.reshape(6, 4), noise)
        assert np.array_equal(x.ravel(), flat_x) and np.array_equal(z.ravel(), flat_z)
        gates[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            circuit_bloch(gates, noise)

    @given(st.floats(min_value=0.0, max_value=math.pi), unit)
    def test_readout_p1_matches_flip_formula(self, theta, f):
        state = apply_unitary(make_pure_state([1.0, 0.0]), ry(theta))
        p1 = prob_one(state)
        assert readout_p1(state, f) == pytest.approx(p1 * (1 - f) + (1 - p1) * f, abs=1e-15)

    def test_readout_p1_rejects_bad_flip(self):
        for flip in BAD_PROBABILITIES:
            with pytest.raises(ValueError, match=probability_message("readout_flip", flip)):
                readout_p1(plus_state(), flip)


class TestInvariantsAndSerialization:
    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1], [0, 0.5]], dtype=complex))

    def test_observable_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            Observable([[0, 1], [0, 0]])

    def test_noise_model_range_check(self):
        with pytest.raises(ValueError):
            NoiseModel(p_depol=-0.1)
