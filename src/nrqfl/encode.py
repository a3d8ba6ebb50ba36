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


@dataclass(frozen=True, eq=False)
class WeightBounds:
    """Parameter-space intervals mapped onto the encodable angle range.

    `lo` and `hi` are read-only float arrays of one shape: () bounds every
    parameter by the same interval, (P,) bounds parameter j by [lo[j], hi[j]].
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo, hi = np.array(self.lo, dtype=float), np.array(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim > 1:
            raise ValueError(f"bounds need lo and hi of one shape, () or (P,); got {lo.shape} and {hi.shape}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError(f"bounds require lo < hi, got [{lo}, {hi}]")
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


def normalize(values, bounds: WeightBounds) -> np.ndarray:
    """Affine map to angles in [0, pi/2], elementwise; out-of-range weights are clamped.

    `values` broadcasts against the bounds: an N x P array against (P,) bounds.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("weight must be finite")
    return HALF_PI * np.clip((values - bounds.lo) / (bounds.hi - bounds.lo), 0.0, 1.0)


def denormalize(angles, bounds: WeightBounds) -> np.ndarray:
    """Exact inverse of `normalize` on [lo, hi], elementwise."""
    _check_angle(angles)
    return bounds.lo + (bounds.hi - bounds.lo) * np.asarray(angles, dtype=float) / HALF_PI


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


def bounds_from_values(values, pad: float = 1e-9) -> WeightBounds:
    """Min/max bounds over axis 0 of the client values, padded so degenerate spans stay valid.

    1-D values give () bounds; an N x P array gives (P,) bounds, one per column.
    """
    arr = np.asarray(values, dtype=float)
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    narrow = hi - lo < pad
    span = np.maximum(pad, np.abs(lo) * 1e-9)
    return WeightBounds(np.where(narrow, lo - span, lo), np.where(narrow, hi + span, hi))


def _check_angle(angle) -> None:
    a = np.asarray(angle, dtype=float)
    inside = (0.0 <= a) & (a <= HALF_PI + 1e-12)
    if not np.all(inside):
        raise ValueError(f"angle {a[~inside].flat[0]} outside [0, pi/2]")
