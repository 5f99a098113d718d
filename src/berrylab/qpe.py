"""Phase estimation on loop propagators, simulated from the spectral mixture.

Textbook QPE with m ancilla bits on a unitary W and input |psi> produces
outcome j with probability

    P(j) = sum_l |<w_l|psi>|^2 * F_m(phi_l - 2 pi j / 2^m),

where W|w_l> = e^{i phi_l}|w_l> and F_m is the Fejer-type kernel
|2^-m sum_k e^{i k theta}|^2 (Cleve, Ekert, Macchiavello & Mosca, Proc. R.
Soc. A 454, 339, 1998).  A distribution is that mixture (phi_l, w_l), from
the dense eigensystem of W; sample_outcomes reads it out bit by bit, which is
statistically identical to running the circuit with exact controlled powers,
but lets a single propagator build serve many seeds.  unitary_eigensystem
finds W's eigensystem with Hermitian solves alone, through a Cayley transform.

Repetitions are aggregated by the circular median, which concentrates at the
true eigenphase because a single shot lands within two grid spacings with
probability >= 8/pi^2 > 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI
from .dynamics import AdiabaticSchedule, StateVector, loop_propagator
from .errors import CapacityError, ConfigError
from .exact import eigh_blocks
from .hamiltonians import HamiltonianFamily

# The readout bits are exact in float64 up to m = 53; bins narrower than
# 2 pi / 2^48 (2.2e-14 rad) would only resolve eigenphase rounding.
MAX_PHASE_BITS = 48

# One grid spacing of slack on each side of the rounded eigenphase.
PRECISION_SPILLOVER = 1

# A distribution whose largest eigenvector weight is below this is flagged
# low_fidelity.
FIDELITY_FLOOR = 0.9


def bits_for_precision(eps_ph: float) -> int:
    """Smallest m with reported precision 4 pi / 2^m <= eps_ph."""
    if eps_ph <= 0:
        raise ConfigError(f"phase precision must be positive, got {eps_ph}")
    m = max(1, math.ceil(math.log2(4.0 * math.pi / eps_ph)))
    if m > MAX_PHASE_BITS:
        raise CapacityError(
            f"phase precision {eps_ph:.3e} needs m={m} ancilla bits, over the "
            f"budget of {MAX_PHASE_BITS}"
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
    """Exact m-bit outcome distribution for one (unitary, input state) pair,
    held as its spectral mixture: eigenphases and their weights."""

    m: int
    phases: np.ndarray
    weights: np.ndarray
    max_weight: float
    low_fidelity: bool

    def angles(self, outcomes) -> np.ndarray:
        """Readout angles 2 pi j / 2^m of outcomes j, in [0, 2 pi)."""
        return TWO_PI * outcomes / 2 ** self.m


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
    max_weight = float(weights.max()) if weights.size else 0.0
    return QpeDistribution(
        m=m,
        phases=phases,
        weights=weights,
        max_weight=max_weight,
        low_fidelity=max_weight < FIDELITY_FLOOR,
    )


def unitary_eigensystem(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phases on (-pi, pi], orthonormal eigenvectors as columns) of a dense
    unitary W, from two solves of exact.eigh_blocks.

    The eigenvalues c of (W + W^dag)/2 are cos phi, so the eigenphases lie
    among +-arccos c.  R = e^{-i phi0} W puts -1 midway across the widest gap
    of that set, at least pi/d wide.  R's Cayley transform i(I - R)(I + R)^-1
    is 2iX - iI, X = (I + R)^-1, with the Hermitian part i(X - X^dag): its
    eigenvectors are W's, also when W is degenerate, and X keeps W's block
    pattern.  Each phase is the angle of v^dag W v for its eigenvector v."""
    cos = eigh_blocks(0.5 * (W + W.conj().T)[None])[0][0]
    arc = np.arccos(np.clip(cos, -1.0, 1.0))
    ring = np.sort(np.concatenate((arc, TWO_PI - arc)))
    gaps = np.diff(ring, append=ring[0] + TWO_PI)
    k = int(np.argmax(gaps))
    phi0 = ring[k] + 0.5 * gaps[k] - math.pi
    X = np.linalg.inv(np.eye(W.shape[0]) + np.exp(-1j * phi0) * W)
    V = eigh_blocks((1j * (X - X.conj().T))[None])[1][0]
    return np.angle(np.einsum("ij,ij->j", V.conj(), W @ V)), V


def distribution_for_unitary(W: np.ndarray, psi: np.ndarray, m: int) -> QpeDistribution:
    """QPE outcome distribution for a dense unitary W and input state psi."""
    phases, V = unitary_eigensystem(W)
    return distribution_from_phases(phases, np.abs(V.conj().T @ psi) ** 2, m)


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


def sample_outcomes(dist: QpeDistribution, R: int, rng) -> np.ndarray:
    """R outcomes drawn from a Generator; from a list of Generators, one row
    of R per Generator, each row what that Generator alone would give.

    Each readout takes m + 1 uniforms.  The first picks a component among
    the weights above 1e-14.  The others measure the inverse QFT
    semiclassically, least significant bit first (Griffiths & Niu, PRL 76,
    3228, 1996): with j the value of the bits already read, bit b is 1 with
    probability sin^2(pi (frac(2^(m-1-b) phi / 2 pi) - j / 2^(b+1))), and the
    product is F_m exactly.  The fractions are exact in float64, so an
    on-grid phase reads exactly."""
    if R < 1:
        raise ConfigError(f"repetitions must be >= 1, got {R}")
    m = dist.m
    u = (np.stack([g.random((R, m + 1)) for g in rng]) if isinstance(rng, list)
         else rng.random((R, m + 1)))
    keep = np.flatnonzero(dist.weights > 1e-14)
    cum = np.cumsum(dist.weights[keep])
    pick = np.minimum(np.searchsorted(cum, u[..., 0] * cum[-1], side="right"), keep.size - 1)
    frac = np.mod(np.outer(2.0 ** np.arange(m - 1, -1, -1), dist.phases[keep] / TWO_PI), 1.0)
    j = np.zeros(pick.shape)
    for b in range(m):
        one = np.sin(math.pi * (frac[b][pick] - j / 2.0 ** (b + 1))) ** 2  # P(bit b = 1)
        j += (u[..., b + 1] < one) * 2.0 ** b
    return j.astype(np.int64)


def estimate_from_distribution(
    dist: QpeDistribution, R: int, rng: np.random.Generator
) -> PhaseEstimate:
    outcomes = sample_outcomes(dist, R, rng)
    value = circular_median(dist.angles(outcomes))
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


def circular_median(angles):
    """Frechet median on the circle: the sample point minimizing the summed
    circle distance to all samples; ties break to the smallest angle in
    [0, 2 pi).  A 2-d sample gives an array of one median per row, each
    equal to the 1-d call on that row."""
    a = np.asarray(angles, dtype=float)
    if a.ndim not in (1, 2) or a.size == 0:
        raise ConfigError("circular_median needs a non-empty 1-d or 2-d sample")
    w = np.mod(a, TWO_PI)
    diff = w[..., :, None] - w[..., None, :]
    dist = np.abs((diff + math.pi) % TWO_PI - math.pi)
    cost = dist.sum(axis=-1)
    first = np.lexsort((w, cost))[..., :1]
    median = np.take_along_axis(w, first, axis=-1)[..., 0]
    return float(median) if a.ndim == 1 else median
