"""Exact Haar moments of N_2 against closed forms and against the kernel."""
import math
from fractions import Fraction

import numpy as np
import pytest

from magicdist import InvalidDimension, haar_moments_n2, sample_array


def _rising(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= x + i
    return out


def _dirichlet_moment(powers) -> Fraction:
    """E[prod_j x_j^k_j] for (x_j) ~ Dirichlet(1/2, 1/2, 1/2)."""
    half = Fraction(1, 2)
    num = math.prod((_rising(half, k) for k in powers), start=Fraction(1))
    return num / _rising(3 * half, sum(powers))


def test_checked_values():
    assert haar_moments_n2(1) == (Fraction(3, 5), Fraction(16, 525))
    assert haar_moments_n2(2) == (Fraction(9, 7), Fraction(256, 2695))
    assert haar_moments_n2(np.int64(2)) == haar_moments_n2(2)
    mean, var = haar_moments_n2(6)
    assert mean == Fraction(189, 67)
    assert float(var) == pytest.approx(0.0160922, abs=5e-8)


def test_one_qubit_is_dirichlet():
    # on the Haar sphere the squared Bloch components (n_j^2) are
    # Dirichlet(1/2, 1/2, 1/2), and N_2 = sum_j (n_j^2)^2
    mean = 3 * _dirichlet_moment((2, 0, 0))
    second = 3 * _dirichlet_moment((4, 0, 0)) + 6 * _dirichlet_moment((2, 2, 0))
    assert haar_moments_n2(1) == (mean, second - mean * mean)


@pytest.mark.parametrize("n", range(1, 8))
def test_mean_closed_form(n):
    d = 2**n
    mean, var = haar_moments_n2(n)
    assert mean == Fraction(3 * (d - 1), d + 3)
    assert var > 0


@pytest.mark.parametrize("n_sites, samples", [(2, 200_000), (6, 20_000)])
def test_kernel_mean_and_variance(n_sites, samples):
    # z-scores of the sampled mean and variance against the exact values
    values = sample_array("n", 2.0, 2, n_sites, samples, seed=11)
    mean, var = (float(v) for v in haar_moments_n2(n_sites))
    centred = values - values.mean()
    s2 = float(np.mean(centred**2))
    m4 = float(np.mean(centred**4))
    z_mean = (values.mean() - mean) / math.sqrt(s2 / samples)
    z_var = (s2 - var) / math.sqrt((m4 - s2 * s2) / samples)
    assert abs(z_mean) < 4.0
    assert abs(z_var) < 4.0


@pytest.mark.parametrize("n", [0, -1, 2.0, True])
def test_rejects_non_positive_or_non_integer(n):
    with pytest.raises(InvalidDimension):
        haar_moments_n2(n)
