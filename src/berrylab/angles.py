"""Wrapping helpers for phases that live on the circle.

Every reported phase in this package is a point on [0, 2pi); the half-open
branch (-pi, pi] appears only inside phase reconstruction, where a difference
of two measured phases has to be unwrapped before rescaling, and in the
verifier's energy readouts.  Keeping these three-line maps in one place
avoids the classic off-by-2pi bugs.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def wrap_2pi(x: float) -> float:
    """Map x to the principal branch [0, 2pi)."""
    y = math.fmod(x, TWO_PI)
    if y < 0.0:
        y += TWO_PI
    # fmod can return TWO_PI - eps rounding up to TWO_PI after the add
    if y >= TWO_PI:
        y -= TWO_PI
    return y + 0.0  # normalize -0.0


def wrap_pm_pi(x: float) -> float:
    """Map x to the half-open branch (-pi, pi]."""
    if -math.pi < x <= math.pi:
        # already on the branch: return it untouched.  Routing through the
        # [0, 2pi) map would round 2pi - eps up to 2pi for |x| below the
        # resolution of 2pi, silently collapsing tiny angles to zero.
        return x + 0.0  # normalize -0.0
    y = wrap_2pi(x)
    if y > math.pi:
        y -= TWO_PI
    return y


def circle_distance(a: float, b: float) -> float:
    """Geodesic distance between two angles, in [0, pi]."""
    d = abs(wrap_pm_pi(a - b))
    return d
