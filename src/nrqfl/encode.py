"""Angle codec between real-valued model parameters and single-qubit states.

A weight w is affinely mapped into [0, pi/2] and prepared as
cos(a)|0> + sin(a)|1>; decoding inverts via P(1) = sin^2(a). The encoding is
bijective only on [0, pi/2], hence the clamp in `normalize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, apply_unitary, make_pure_state, prob_one, ry

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class WeightBounds:
    """Parameter-space interval mapped onto the encodable angle range."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"bounds require lo < hi, got [{self.lo}, {self.hi}]")


def normalize(w: float, bounds: WeightBounds) -> float:
    """Affine map to an angle in [0, pi/2]; out-of-range weights are clamped."""
    return float(normalize_array(w, bounds.lo, bounds.hi))


def normalize_array(values, lo, hi) -> np.ndarray:
    """`normalize` elementwise, with bounds that broadcast (an N x P array against length-P lo and hi)."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("weight must be finite")
    return HALF_PI * np.clip((values - lo) / (hi - lo), 0.0, 1.0)


def denormalize(angle: float, bounds: WeightBounds) -> float:
    """Exact inverse of `normalize` on [lo, hi]."""
    return float(denormalize_array(angle, bounds.lo, bounds.hi))


def denormalize_array(angles, lo, hi) -> np.ndarray:
    """`denormalize` elementwise, with bounds that broadcast."""
    _check_angle(angles)
    return lo + (hi - lo) * np.asarray(angles, dtype=float) / HALF_PI


def encode(angle: float) -> DensityMatrix:
    """Pure state Ry(2a)|0>, i.e. cos(a)|0> + sin(a)|1>."""
    _check_angle(angle)
    zero = make_pure_state([1.0, 0.0])
    return apply_unitary(zero, ry(2.0 * angle))


def decode_exact(state: DensityMatrix) -> float:
    """arcsin(sqrt(P(1))) of a state; inverse of `encode` on clean states."""
    p1 = prob_one(state)
    return math.asin(math.sqrt(min(max(p1, 0.0), 1.0)))


def z_to_angle(z):
    """Decode <Z> values (a float or an array), clamped to [-1, 1]: P(1) = (1 - z)/2."""
    return np.arcsin(np.sqrt((1.0 - np.clip(z, -1.0, 1.0)) / 2.0))


def angle_to_z(angle: float) -> float:
    """Ideal <Z> of the encoded state: cos(2a)."""
    _check_angle(angle)
    return math.cos(2.0 * angle)


def bounds_from_values(values, pad: float = 1e-9) -> WeightBounds | list:
    """Min/max bounds over client values, padded so degenerate spans stay valid.

    1-D values give one WeightBounds; an N x P array gives a list of P, one
    per column.
    """
    arr = np.asarray(values, dtype=float)
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    narrow = hi - lo < pad
    span = np.maximum(pad, np.abs(lo) * 1e-9)
    lo, hi = np.where(narrow, lo - span, lo), np.where(narrow, hi + span, hi)
    bounds = [WeightBounds(a, b) for a, b in zip(np.atleast_1d(lo).tolist(), np.atleast_1d(hi).tolist())]
    return bounds if arr.ndim == 2 else bounds[0]


def _check_angle(angle) -> None:
    a = np.asarray(angle, dtype=float)
    inside = (0.0 <= a) & (a <= HALF_PI + 1e-12)
    if not np.all(inside):
        raise ValueError(f"angle {a[~inside].flat[0]} outside [0, pi/2]")
