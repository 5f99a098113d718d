import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from berrylab.angles import TWO_PI, circle_distance, wrap_2pi, wrap_pm_pi

finite_angles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def test_wrap_2pi_examples():
    assert wrap_2pi(0.0) == 0.0
    assert wrap_2pi(TWO_PI) == 0.0
    assert math.isclose(wrap_2pi(7 * math.pi), math.pi, abs_tol=1e-12)
    assert math.isclose(wrap_2pi(-math.pi / 2), 1.5 * math.pi, abs_tol=1e-12)


def test_wrap_2pi_kills_signed_zero():
    # str() of a reported angle must never show "-0.0"
    assert str(wrap_2pi(-0.0)) == "0.0"
    assert str(wrap_2pi(-1e-300)) in ("0.0", str(TWO_PI - 1e-300))


def test_wrap_pm_pi_branch():
    # half-open branch (-pi, pi]: pi stays, -pi flips to +pi
    assert wrap_pm_pi(math.pi) == math.pi
    assert wrap_pm_pi(-math.pi) == math.pi
    assert math.isclose(wrap_pm_pi(3.5 * math.pi), -0.5 * math.pi, abs_tol=1e-12)


@pytest.mark.parametrize("x", [math.inf, -math.inf, np.array([0.5, math.inf])])
def test_infinite_angles_are_refused(x):
    # an infinite angle has no branch; the maps raise rather than return NaN
    for wrap in (wrap_2pi, wrap_pm_pi):
        with pytest.raises(FloatingPointError):
            wrap(x)


def test_circle_distance_examples():
    assert math.isclose(circle_distance(0.1, TWO_PI - 0.1), 0.2, abs_tol=1e-12)
    assert circle_distance(1.3, 1.3) == 0.0
    assert math.isclose(circle_distance(0.0, math.pi), math.pi, abs_tol=1e-12)


@given(finite_angles)
def test_wrap_2pi_range(x):
    y = wrap_2pi(x)
    assert 0.0 <= y < TWO_PI


@given(finite_angles)
def test_wrap_pm_pi_range(x):
    y = wrap_pm_pi(x)
    assert -math.pi < y <= math.pi


@given(finite_angles, st.integers(min_value=-50, max_value=50))
def test_wrap_2pi_period(x, k):
    # adding whole turns must not move the wrapped value (beyond float noise
    # proportional to the shift magnitude)
    tol = 1e-9 * (1.0 + abs(k))
    assert circle_distance(wrap_2pi(x + k * TWO_PI), wrap_2pi(x)) < tol


@given(finite_angles, finite_angles)
def test_circle_distance_symmetric_and_bounded(a, b):
    d = circle_distance(a, b)
    assert 0.0 <= d <= math.pi + 1e-12
    assert math.isclose(d, circle_distance(b, a), abs_tol=1e-12)


@given(finite_angles, finite_angles, finite_angles)
def test_circle_distance_triangle(a, b, c):
    assert circle_distance(a, c) <= circle_distance(a, b) + circle_distance(b, c) + 1e-9
