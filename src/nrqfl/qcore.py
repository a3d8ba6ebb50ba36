"""One-qubit simulator: the qubit each model parameter is encoded on.

`circuit_bloch` is the one engine for the noisy circuits (Ry gates, a noise
pass after each): on one qubit every gate and channel is a closed-form map of
the Bloch vector, so a whole batch of circuits evolves as numpy arrays and only
the final states are validated. `circuit_p1` is every circuit's P(read 1), and
`qagg.noise_deviation` reads the per-round noise deviation off the same Bloch
vectors.

The dense chain is only an oracle: 2x2 density matrices and Kraus channels,
validated against the standard invariants (Hermitian, unit trace, PSD, channel
completeness), and the step-validated `apply_unitary` / `apply_channel`.
`nrqfl validate` and the tests check the engine against it. All operations
are pure functions of their inputs; the only stateful object is the caller's
RNG stream.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
PSD_TOL = 1e-9  # slack for roundoff accumulated across repeated channel application


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """State of one qubit: Hermitian, PSD, unit-trace 2x2 matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("state is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValueError(f"state trace is {np.trace(m)}, expected 1")
        if np.linalg.eigvalsh(m).min() < -PSD_TOL:
            raise ValueError("state is not positive semidefinite")
        object.__setattr__(self, "matrix", m)


def completeness_residual(operators) -> float:
    """Frobenius norm of sum_k E_k^dag E_k - I: 0 for the Kraus operators of a trace-preserving map."""
    return float(np.linalg.norm(sum(e.conj().T @ e for e in operators) - np.eye(2)))


@dataclass(frozen=True)
class KrausChannel:
    """One-qubit CPTP map given by 2x2 Kraus operators {E_k} with sum_k E_k^dag E_k = I."""

    operators: tuple
    label: str = "channel"

    def __post_init__(self):
        ops = tuple(_as_matrix(e) for e in self.operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        if completeness_residual(ops) > COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated for '{self.label}'")
        object.__setattr__(self, "operators", ops)


@dataclass(frozen=True)
class Observable:
    """Hermitian 2x2 measurement operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("observable is not Hermitian")
        object.__setattr__(self, "matrix", m)


def is_real(v) -> bool:
    """A finite real number that is not a bool; ints too large for a float fail too."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def check_probability(key: str, v) -> None:
    """The one check of a noise probability; its message names the config key, noise.<key>."""
    if not is_real(v) or not 0.0 <= v <= 1.0:
        raise ValueError(f"noise.{key} must be a probability in [0, 1], got {v!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate channel parameters plus readout flip probability, each held to `check_probability`."""

    p_depol: float = 0.0
    p_deph: float = 0.0
    gamma: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            check_probability(f.name, getattr(self, f.name))

    @property
    def depol_factor(self) -> float:
        """Bloch-vector shrink factor 1 - 4p/3 of one depolarizing pass."""
        return 1.0 - 4.0 * self.p_depol / 3.0

    def gate_channels(self) -> list:
        """Channels applied after each gate, in fixed order."""
        out = []
        if self.p_depol > 0:
            out.append(depolarizing_channel(self.p_depol))
        if self.p_deph > 0:
            out.append(dephasing_channel(self.p_deph))
        if self.gamma > 0:
            out.append(amplitude_damping_channel(self.gamma))
        return out


# Pauli matrices
I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

Z_OBSERVABLE = Observable(PAULI_Z)


def make_pure_state(amplitudes) -> DensityMatrix:
    """Build |psi><psi| from a unit-norm pair of amplitudes (of |0> and |1>)."""
    v = np.asarray(amplitudes, dtype=complex)
    if v.shape != (2,):
        raise ValueError(f"expected 2 amplitudes, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"amplitudes must be unit norm, got ||v|| = {norm}")
    return DensityMatrix(np.outer(v, v.conj()))


def ry(theta: float) -> np.ndarray:
    """Rotation about Y: [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    if not math.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def depolarizing_channel(p: float) -> KrausChannel:
    """E(rho) = (1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z)."""
    check_probability("p_depol", p)
    if p == 0.0:
        return KrausChannel((I2,), label="depolarizing(0)")
    ops = (
        math.sqrt(1 - p) * I2,
        math.sqrt(p / 3) * PAULI_X,
        math.sqrt(p / 3) * PAULI_Y,
        math.sqrt(p / 3) * PAULI_Z,
    )
    return KrausChannel(ops, label=f"depolarizing({p})")


def dephasing_channel(p: float) -> KrausChannel:
    """E(rho) = (1-p) rho + p Z rho Z; off-diagonals scale by (1-2p)."""
    check_probability("p_deph", p)
    if p == 0.0:
        return KrausChannel((I2,), label="dephasing(0)")
    return KrausChannel((math.sqrt(1 - p) * I2, math.sqrt(p) * PAULI_Z), label=f"dephasing({p})")


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """Energy relaxation |1> -> |0> with probability gamma (standard Kraus pair)."""
    check_probability("gamma", gamma)
    e0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    e1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel((e0, e1), label=f"amplitude_damping({gamma})")


def apply_unitary(state: DensityMatrix, u) -> DensityMatrix:
    """Conjugate by a 2x2 unitary: rho -> U rho U^dag."""
    u = _as_matrix(u)
    if np.linalg.norm(u.conj().T @ u - np.eye(2)) > 1e-10:
        raise ValueError("matrix is not unitary")
    return DensityMatrix(u @ state.matrix @ u.conj().T)


def apply_channel(state: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Kraus sum E(rho) = sum_k E_k rho E_k^dag."""
    out = np.zeros_like(state.matrix)
    for e in channel.operators:
        out += e @ state.matrix @ e.conj().T
    return DensityMatrix(out)


def circuit_bloch(gates, noise: NoiseModel) -> tuple:
    """Bloch (x, z) of |0> through Ry(theta) per gate angle, each gate followed by the noise pass.

    `gates` has shape (..., d): the last axis is one circuit's angles in order, the
    leading axes index independent circuits. Closed forms on the Bloch vector
    (Nielsen & Chuang 8.3): Ry turns (x, z) in the xz-plane, depolarizing scales
    x and z by 1 - 4p/3, dephasing scales x by 1 - 2p, amplitude damping maps
    x -> sqrt(1 - gamma) x and z -> gamma + (1 - gamma) z; y stays 0.
    """
    gates = np.asarray(gates, dtype=float)
    x = np.zeros(gates.shape[:-1])
    z = np.ones(gates.shape[:-1])
    shrink, deph = noise.depol_factor, 1.0 - 2.0 * noise.p_deph
    damp, keep = math.sqrt(1.0 - noise.gamma), 1.0 - noise.gamma
    for k in range(gates.shape[-1]):
        c, s = np.cos(gates[..., k]), np.sin(gates[..., k])
        x, z = c * x + s * z, c * z - s * x
        x, z = shrink * x, shrink * z
        x = damp * (deph * x)
        z = noise.gamma + keep * z
    if not np.all(np.isfinite(gates)):
        raise ValueError("rotation angle must be finite")
    if np.any(x * x + z * z > 1.0 + PSD_TOL):  # eigenvalues of the state are (1 +- |r|)/2
        raise ValueError("state is not positive semidefinite")
    return x, z


def circuit_p1(gates, noise: NoiseModel):
    """P(read 1) of each circuit of `circuit_bloch` (same leading axes), readout flips included."""
    _, z = circuit_bloch(gates, noise)
    return flipped_p1(np.clip((1.0 - z) / 2.0, 0.0, 1.0), noise.readout_flip)


def expectation(state: DensityMatrix, m: Observable) -> float:
    """Tr(M rho), guaranteed real up to a 1e-10 imaginary residue."""
    val = np.trace(m.matrix @ state.matrix)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {val.imag}")
    return float(val.real)


def prob_one(state: DensityMatrix) -> float:
    """Population of |1>."""
    return min(max(float(state.matrix[1, 1].real), 0.0), 1.0)


def readout_p1(state: DensityMatrix, readout_flip: float) -> float:
    """P(read 1) when each outcome flips with probability readout_flip."""
    check_probability("readout_flip", readout_flip)
    return flipped_p1(prob_one(state), readout_flip)


def flipped_p1(p1, readout_flip: float):
    """P(read 1) from the true P(1) (a float or an array) when each outcome flips with probability readout_flip."""
    return p1 * (1 - readout_flip) + (1 - p1) * readout_flip


def sample_measurement(
    state: DensityMatrix,
    target_qubit: int,
    shots: int,
    rng: np.random.Generator,
    readout_flip: float = 0.0,
) -> tuple:
    """Measure the qubit `shots` times; returns (zeros, ones).

    Each Bernoulli outcome is flipped with probability readout_flip.
    Deterministic for a fixed RNG state. `target_qubit` must be 0, the only
    qubit.
    """
    if target_qubit != 0:
        raise ValueError(f"qubit index {target_qubit} out of range for one qubit")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    ones = int(rng.binomial(shots, readout_p1(state, readout_flip)))
    return shots - ones, ones


def random_density_matrix(rng: np.random.Generator, pure: bool = False) -> DensityMatrix:
    """Random state for property checks (Haar-ish pure or Wishart mixed)."""
    if pure:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        return DensityMatrix(np.outer(v, v.conj()))
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)
