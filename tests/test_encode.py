import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nrqfl.encode import (
    HALF_PI,
    WeightBounds,
    bounds_from_values,
    decode_exact,
    denormalize,
    encode,
    normalize,
)
from nrqfl.qcore import DensityMatrix, make_pure_state

BOUNDS = WeightBounds(-1.0, 1.0)


class TestNormalize:
    def test_lower_endpoint(self):
        assert normalize(-1.0, BOUNDS) == 0.0

    def test_midpoint(self):
        assert normalize(0.0, BOUNDS) == pytest.approx(math.pi / 4)

    def test_affine_value(self):
        assert normalize(0.5, BOUNDS) == pytest.approx(0.75 * HALF_PI)

    def test_clamps_out_of_range(self):
        assert normalize(5.0, BOUNDS) == HALF_PI
        assert normalize(-5.0, BOUNDS) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            normalize(float("nan"), BOUNDS)

    @given(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-1.0, max_value=1.0))
    def test_strictly_monotone(self, a, b):
        if a + 1e-12 < b:  # strictness only holds above float resolution
            assert normalize(a, BOUNDS) < normalize(b, BOUNDS)


class TestDenormalize:
    def test_zero_maps_to_lo(self):
        assert denormalize(0.0, BOUNDS) == -1.0

    def test_direct_value(self):
        assert denormalize(math.pi / 4, WeightBounds(0.0, 2.0)) == pytest.approx(1.0)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_round_trip(self, w):
        assert denormalize(normalize(w, BOUNDS), BOUNDS) == pytest.approx(w, abs=1e-12)


class TestEncodeDecode:
    def test_zero_angle(self):
        assert np.allclose(encode(0.0).matrix, [[1, 0], [0, 0]])

    def test_quarter_pi_is_plus(self):
        rho = encode(math.pi / 4)
        assert np.allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_sixth_pi_populations(self):
        rho = encode(math.pi / 6)
        assert np.allclose(np.diag(rho.matrix).real, [0.75, 0.25], atol=1e-12)

    def test_decode_zero_state(self):
        assert decode_exact(make_pure_state([1, 0])) == 0.0

    def test_decode_mixed(self):
        assert decode_exact(DensityMatrix(np.eye(2) / 2)) == pytest.approx(math.pi / 4)

    def test_decode_quarter_population(self):
        assert decode_exact(encode(math.pi / 6)) == pytest.approx(math.pi / 6, abs=1e-12)

    def test_round_trip_grid(self):
        for a in np.linspace(0.0, HALF_PI, 1000):
            assert abs(decode_exact(encode(float(a))) - a) < 1e-12


class TestWeightBounds:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            WeightBounds(1.0, -1.0)

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            WeightBounds(0.0, float("inf"))

    @pytest.mark.parametrize("lo, hi", [([0.0, 1.0], [1.0, np.nan]), ([-np.inf, 0.0], [1.0, 2.0]),
                                        ([0.0, -np.inf], [1.0, 2.0]), ([0.0, 1.0], [1.0, np.inf])])
    def test_rejects_any_non_finite_value(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            WeightBounds(lo, hi)

    @pytest.mark.parametrize("lo, hi", [([0.0, 1.0], [1.0, 1.0]), ([0.0, 3.0], [1.0, 2.0]), (2.0, 2.0)])
    def test_rejects_any_lo_not_below_hi(self, lo, hi):
        with pytest.raises(ValueError, match="lo < hi"):
            WeightBounds(lo, hi)

    @pytest.mark.parametrize("lo, hi", [([0.0, 1.0], [2.0]), (0.0, [1.0, 2.0]), ([[0.0]], [[1.0]])])
    def test_rejects_shapes_other_than_one_scalar_or_vector_pair(self, lo, hi):
        with pytest.raises(ValueError, match="shape"):
            WeightBounds(lo, hi)

    def test_holds_read_only_float_arrays(self):
        lo = [1, 2]
        b = WeightBounds(lo, [3, 4])
        assert b.lo.dtype == b.hi.dtype == np.float64 and b.lo.shape == (2,)
        with pytest.raises(ValueError):
            b.lo[0] = 0.0
        lo[0] = 5  # the bounds hold their own copy
        assert b.lo[0] == 1.0

    def test_bounds_from_values(self):
        b = bounds_from_values([1.0, 3.0, 2.0])
        assert (b.lo, b.hi) == (1.0, 3.0)

    def test_columns_match_one_column_at_a_time(self):
        values = np.random.default_rng(3).normal(size=(6, 5))
        values[:, 1] = 2.0  # a degenerate column is padded
        values[:, 3] = 0.0
        got = bounds_from_values(values)
        columns = [bounds_from_values(values[:, j]) for j in range(5)]
        assert got.lo.shape == got.hi.shape == (5,)
        assert np.array_equal(got.lo, [b.lo for b in columns])
        assert np.array_equal(got.hi, [b.hi for b in columns])
        assert got.lo[1] < 2.0 < got.hi[1]

    def test_degenerate_values_padded(self):
        b = bounds_from_values([2.0, 2.0])
        assert b.lo < 2.0 < b.hi
