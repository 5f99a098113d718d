"""Wrapping helpers for phases that live on the circle.

Every reported phase in this package is a point on [0, 2pi); the half-open
branch (-pi, pi] appears only inside phase reconstruction, where a difference
of two measured phases has to be unwrapped before rescaling, and in the
verifier's energy readouts.  Keeping these three-line maps in one place
avoids the classic off-by-2pi bugs.  Each takes a float or an array, and an
array's elements get the bits their floats would.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_2pi(x):
    """Map x to the principal branch [0, 2pi): a float, or each element of an array."""
    with np.errstate(invalid="raise"):  # an infinite angle is refused, as math.fmod does
        y = np.fmod(x, TWO_PI)
    y = np.where(y < 0.0, y + TWO_PI, y)
    # fmod can return TWO_PI - eps rounding up to TWO_PI after the add
    y = np.where(y >= TWO_PI, y - TWO_PI, y) + 0.0  # normalize -0.0
    return y if np.ndim(x) else float(y)


def wrap_pm_pi(x):
    """Map x to the half-open branch (-pi, pi]: a float, or each element of an array."""
    # x on the branch passes as is: via [0, 2pi) a tiny negative x would round to 0.
    y = wrap_2pi(x)
    y = np.where((-math.pi < x) & (x <= math.pi), x + 0.0, np.where(y > math.pi, y - TWO_PI, y))
    return y if np.ndim(x) else float(y)


def circle_distance(a, b):
    """Geodesic distance between two angles, in [0, pi]; elementwise on arrays."""
    return abs(wrap_pm_pi(a - b))
