"""Gauss-Legendre rules: frozen nodes, exactness, and an independent oracle."""

import math

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from trefftzdg.errors import DegenerateSegment, ZeroPoints
from trefftzdg.quadrature import gauss_rule, map_to_segment, tensor_rule

SQRT3 = math.sqrt(3.0)
SQRT35 = math.sqrt(3.0 / 5.0)


def test_one_point_rule_is_midpoint():
    x, w = gauss_rule(1)
    assert x.tolist() == [0.0]
    assert w.tolist() == [2.0]


def test_two_point_rule_matches_closed_form():
    x, w = gauss_rule(2)
    assert np.allclose(x, [-1.0 / SQRT3, 1.0 / SQRT3], rtol=0, atol=1e-15)
    assert np.allclose(w, [1.0, 1.0], rtol=0, atol=1e-15)


def test_three_point_rule_matches_closed_form():
    x, w = gauss_rule(3)
    assert np.allclose(x, [-SQRT35, 0.0, SQRT35], rtol=0, atol=1e-15)
    assert np.allclose(w, [5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", range(1, 21))
def test_nodes_and_weights_match_numpy_oracle(n):
    x, w = gauss_rule(n)
    x_ref, w_ref = npleg.leggauss(n)
    assert np.max(np.abs(x - x_ref)) <= 1e-14
    assert np.max(np.abs(w - w_ref)) <= 1e-14


@pytest.mark.parametrize("n", range(1, 9))
def test_rule_integrates_random_polynomials_exactly(n):
    rng = np.random.default_rng(1000 + n)
    x, w = gauss_rule(n)
    for _ in range(20):
        deg = int(rng.integers(0, 2 * n))    # exact up to degree 2n-1
        coeffs = rng.standard_normal(deg + 1)
        vals = np.polynomial.polynomial.polyval(x, coeffs)
        k = np.arange(deg + 1)
        exact = np.sum(coeffs * (1.0 - (-1.0) ** (k + 1)) / (k + 1))
        assert abs(w @ vals - exact) <= 1e-13 * max(1.0, abs(exact))


def test_rule_properties():
    for n in (1, 2, 5, 13, 40):
        x, w = gauss_rule(n)
        assert np.all(np.diff(x) > 0)
        assert np.all(w > 0)
        assert abs(w.sum() - 2.0) <= 1e-14
        assert np.allclose(x, -x[::-1], atol=1e-15)


def test_mapped_rule_on_unit_interval():
    x, w = map_to_segment(2, 0.0, 1.0)
    assert abs(w @ x**2 - 1.0 / 3.0) <= 1e-15
    x, w = map_to_segment(12, 0.0, 1.0)
    assert abs(w @ np.exp(x) - (math.e - 1.0)) <= 1e-12


def test_mapped_rule_on_rows_repeats_the_scalar_map():
    rng = np.random.default_rng(3)
    a = rng.uniform(-5.0, 5.0, 7)
    b = a + rng.uniform(1e-6, 3.0, 7)
    for n in (1, 4, 9):
        x, w = map_to_segment(n, a, b)
        assert x.shape == w.shape == (7, n)
        for k in range(7):
            xk, wk = map_to_segment(n, a[k], b[k])
            assert np.array_equal(x[k], xk) and np.array_equal(w[k], wk)


def test_tensor_rule_integrates_separable_function():
    X, T, W = tensor_rule(3, 4, (0.0, 2.0, 0.0, 3.0))
    assert X.shape == T.shape == W.shape == (12,)
    assert abs(W.sum() - 6.0) <= 1e-13
    assert abs(W @ (X * T) - 9.0) <= 1e-13
    assert abs(W @ (X**2 * T**3) - (8.0 / 3.0) * (81.0 / 4.0)) <= 1e-12


def test_invalid_requests_raise():
    with pytest.raises(ZeroPoints):
        gauss_rule(0)
    with pytest.raises(ZeroPoints):
        gauss_rule(-2)
    with pytest.raises(DegenerateSegment):
        map_to_segment(2, 1.0, 1.0)
    with pytest.raises(DegenerateSegment):
        map_to_segment(2, 2.0, 1.0)
    with pytest.raises(DegenerateSegment, match=r"\[3.0, 3.0\]"):
        map_to_segment(2, np.array([0.0, 3.0, 1.0]), np.array([1.0, 3.0, 2.0]))
    with pytest.raises(DegenerateSegment):
        map_to_segment(2, np.array([0.0, np.nan]), np.array([1.0, 2.0]))
