"""Phase estimation on loop propagators, simulated at the distribution level.

Textbook QPE with m ancilla bits on a unitary W and input |psi> produces
outcome j with probability

    P(j) = sum_l |<w_l|psi>|^2 * F_m(phi_l - 2 pi j / 2^m),

where W|w_l> = e^{i phi_l}|w_l> and F_m is the Fejer-type kernel
|2^-m sum_k e^{i k theta}|^2.  We compute this distribution exactly from the
dense eigensystem of W and sample outcomes from it, which is statistically
identical to running the circuit with exact controlled powers, but lets a
single propagator build serve many seeds.

Repetitions are aggregated by the circular median, which concentrates at the
true eigenphase because a single shot lands within two grid spacings with
probability >= 8/pi^2 > 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dynamics import AdiabaticSchedule, StateVector, loop_propagator
from .errors import CapacityError, ConfigError
from .hamiltonians import HamiltonianFamily

MAX_PHASE_BITS = 20
TWO_PI = 2.0 * math.pi

# One grid spacing of slack on each side of the rounded eigenphase.
PRECISION_SPILLOVER = 1

# A distribution whose largest eigenvector weight is below this is flagged
# low_fidelity.
FIDELITY_FLOOR = 0.9


def bits_for_precision(eps_ph: float, cap: int = MAX_PHASE_BITS) -> int:
    """Smallest m with reported precision 4 pi / 2^m <= eps_ph."""
    if eps_ph <= 0:
        raise ConfigError(f"phase precision must be positive, got {eps_ph}")
    m = max(1, math.ceil(math.log2(4.0 * math.pi / eps_ph)))
    if m > cap:
        raise CapacityError(
            f"phase precision {eps_ph:.3e} needs m={m} ancilla bits, over the "
            f"budget of {cap}"
        )
    return m


@dataclass
class PhaseEstimate:
    """Aggregated QPE readout.  value = 2 pi * (circular median outcome) / 2^m."""

    value: float
    precision: float
    m: int
    repetitions: int
    raw_outcomes: tuple
    low_fidelity_warning: bool


@dataclass
class QpeDistribution:
    """Exact outcome distribution for one (unitary, input state) pair."""

    m: int
    phases: np.ndarray
    weights: np.ndarray
    probs: np.ndarray
    max_weight: float
    low_fidelity: bool
    _cdf: np.ndarray | None = None

    def cdf(self) -> np.ndarray:
        if self._cdf is None:
            self._cdf = np.cumsum(self.probs)
            self._cdf[-1] = 1.0
        return self._cdf


def _fejer_row(phi: float, m: int) -> np.ndarray:
    """F_m(phi - 2 pi j / 2^m) for j = 0 .. 2^m - 1; rows sum to 1 exactly
    in the analytic limit."""
    M = 2 ** m
    theta = phi - TWO_PI * np.arange(M) / M
    half = 0.5 * theta
    s = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        row = (np.sin(M * half) / (M * s)) ** 2
    row[np.abs(s) < 1e-12] = 1.0
    return row


def distribution_from_phases(phases, weights, m: int) -> QpeDistribution:
    """Exact m-bit QPE outcome distribution for a spectral mixture."""
    if not (1 <= m <= MAX_PHASE_BITS):
        raise CapacityError(
            f"m={m} ancilla bits outside the supported range 1..{MAX_PHASE_BITS}"
        )
    phases = np.asarray(phases, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if phases.shape != weights.shape:
        raise ConfigError("phases and weights must have matching shapes")
    total = float(weights.sum())
    if not (0.999999 <= total <= 1.000001):
        raise ConfigError(f"weights must sum to 1, got {total:.6f}")
    keep = weights > 1e-14
    M = 2 ** m
    probs = np.zeros(M)
    for phi, w in zip(phases[keep], weights[keep]):
        probs += w * _fejer_row(float(phi), m)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    max_weight = float(weights.max()) if weights.size else 0.0
    return QpeDistribution(
        m=m,
        phases=phases,
        weights=weights,
        probs=probs,
        max_weight=max_weight,
        low_fidelity=max_weight < FIDELITY_FLOOR,
    )


def distribution_for_unitary(W: np.ndarray, psi: np.ndarray, m: int) -> QpeDistribution:
    """QPE outcome distribution for a dense unitary W and input state psi.

    W is unitary, hence normal, so its complex Schur form is diagonal and
    yields an orthonormal eigenbasis.
    """
    T, Q = scipy.linalg.schur(W, output="complex")
    phases = np.angle(np.diag(T))
    weights = np.abs(Q.conj().T @ psi) ** 2
    return distribution_from_phases(phases, weights, m)


def distribution_for_loop(
    family: HamiltonianFamily,
    schedule: AdiabaticSchedule,
    input_state,
    m: int,
) -> QpeDistribution:
    """QPE outcome distribution for the loop propagator of a schedule."""
    if isinstance(input_state, StateVector):
        input_state = input_state.amplitudes
    psi = np.asarray(input_state, dtype=complex)
    if psi.shape != (family.dim,):
        raise ConfigError(
            f"input state has shape {psi.shape}, expected ({family.dim},)"
        )
    return distribution_for_unitary(loop_propagator(family, schedule), psi, m)


def sample_outcomes(dist: QpeDistribution, R: int, rng: np.random.Generator) -> np.ndarray:
    if R < 1:
        raise ConfigError(f"repetitions must be >= 1, got {R}")
    u = rng.random(R)
    return np.searchsorted(dist.cdf(), u, side="right")


def estimate_from_distribution(
    dist: QpeDistribution, R: int, rng: np.random.Generator
) -> PhaseEstimate:
    outcomes = sample_outcomes(dist, R, rng)
    angles = TWO_PI * outcomes / (2 ** dist.m)
    value = circular_median(angles)
    return PhaseEstimate(
        value=value,
        precision=(1 + PRECISION_SPILLOVER) * TWO_PI / (2 ** dist.m),
        m=dist.m,
        repetitions=R,
        raw_outcomes=tuple(int(j) for j in outcomes),
        low_fidelity_warning=dist.low_fidelity,
    )


def qpe_run(
    family: HamiltonianFamily,
    schedule: AdiabaticSchedule,
    input_state,
    m: int,
    R: int,
    seed: int,
) -> PhaseEstimate:
    """End-to-end QPE: build the loop propagator, sample R outcomes, take the
    circular median."""
    dist = distribution_for_loop(family, schedule, input_state, m)
    rng = np.random.default_rng(seed)
    return estimate_from_distribution(dist, R, rng)


def circular_median(angles) -> float:
    """Frechet median on the circle: the sample point minimizing the summed
    circle distance to all samples; ties break to the smallest angle in
    [0, 2 pi)."""
    a = np.asarray(angles, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ConfigError("circular_median needs a non-empty 1-d sample")
    w = np.mod(a, TWO_PI)
    diff = w[:, None] - w[None, :]
    dist = np.abs((diff + math.pi) % TWO_PI - math.pi)
    cost = dist.sum(axis=1)
    order = np.lexsort((w, cost))
    return float(w[order[0]])
