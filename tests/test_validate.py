import math

import pytest
from scipy import stats

from nrqfl import qagg, validate


def test_fairness_threshold_is_the_chi_square_quantile():
    assert abs(validate.CHI2_DF4_P99 - stats.chi2.ppf(0.99, df=4)) < 1e-12
    # the closed-form survival function of chi-square with 4 degrees of freedom
    x = validate.CHI2_DF4_P99
    assert math.exp(-x / 2) * (1 + x / 2) == pytest.approx(0.01, rel=1e-12)


def test_theorem2_check_fails_on_an_inflated_variance(monkeypatch):
    # the bound is a closed form, not fitted to the estimator it checks, so 1.5x the variance breaks it
    empirical_variance = qagg.empirical_variance
    monkeypatch.setattr(qagg, "empirical_variance", lambda *a: 1.5 * empirical_variance(*a))
    result = validate.check_theorem2_bound_soundness()
    assert not result.passed, result.detail
