import math

import pytest
from scipy import stats

from nrqfl import validate


def test_fairness_threshold_is_the_chi_square_quantile():
    assert abs(validate.CHI2_DF4_P99 - stats.chi2.ppf(0.99, df=4)) < 1e-12
    # the closed-form survival function of chi-square with 4 degrees of freedom
    x = validate.CHI2_DF4_P99
    assert math.exp(-x / 2) * (1 + x / 2) == pytest.approx(0.01, rel=1e-12)
