"""Phase estimation on loop propagators, simulated from the spectral mixture.

Textbook QPE with m ancilla bits on a unitary W and input |psi> produces
outcome j with probability

    P(j) = sum_l |<w_l|psi>|^2 * F_m(phi_l - 2 pi j / 2^m),

where W|w_l> = e^{i phi_l}|w_l> and F_m is the Fejer-type kernel
|2^-m sum_k e^{i k theta}|^2 (Cleve, Ekert, Macchiavello & Mosca, Proc. R.
Soc. A 454, 339, 1998).  A distribution is that mixture (phi_l, w_l), from
the dense eigensystem of W; sample_outcomes reads it out bit by bit, which is
statistically identical to running the circuit with exact controlled powers,
but lets a single propagator build serve many seeds.  A bit's probability
depends only on the component and the bits already read, so while those
pairs are no more than the readouts it is evaluated once per pair, from the
same float64 operands.  unitary_eigensystem finds W's eigensystem with
Hermitian solves alone, through a Cayley transform, as one block: the
estimators' loops are psi0's sector's alone.

stream_uniforms draws every stream.  A seed is an int >= 0, and its stream
is a pure function of one 64-bit key (seed_words) and the draw index, so a
run replays from its seed and a batch of streams equals its streams drawn
one at a time.  A child stream's key (SeedWords.child) mixes the parent's
key with the child's index, and a block of keys draws its uniforms as one
array expression.

Repetitions are aggregated by the circular median, which concentrates at the
true eigenphase because a single shot lands within two grid spacings with
probability >= 8/pi^2 > 1/2.  It is read from each row's sorted samples and
prefix sums (Storath & Weinmann, IEEE TPAMI 40, 639, 2018).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .angles import TWO_PI
from .dynamics import AdiabaticSchedule, loop_propagator, unit_amplitudes
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
    if not (eps_ph > 0 and math.isfinite(eps_ph)):
        raise ConfigError(f"phase precision must be positive and finite, got {eps_ph}")
    q = 4.0 * math.pi / eps_ph  # overflows below about 7e-308: then a difference of logs
    bits = math.log2(q) if q < math.inf else math.log2(4.0 * math.pi) - math.log2(eps_ph)
    m = max(1, math.ceil(bits))
    if m > MAX_PHASE_BITS:
        raise CapacityError(
            f"phase precision {eps_ph:.3e} needs m={m} ancilla bits, over the "
            f"per-run budget of {MAX_PHASE_BITS}"
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
    eigenvectors are W's, also when W is degenerate, and X is block diagonal
    where W is.  Each phase is the angle of v^dag W v for its eigenvector v."""
    cos = eigh_blocks(0.5 * (W + W.conj().T)[None])[0][0]
    arc = np.arccos(np.clip(cos, -1.0, 1.0))
    ring = np.sort(np.concatenate((arc, TWO_PI - arc)))
    gaps = np.diff(ring, append=ring[0] + TWO_PI)
    k = int(np.argmax(gaps))
    phi0 = ring[k] + 0.5 * gaps[k] - math.pi
    X = np.linalg.inv(np.eye(W.shape[0]) + np.exp(-1j * phi0) * W)
    V = eigh_blocks((1j * (X - X.conj().T))[None])[1][0]
    return np.angle(np.einsum("ij,ij->j", V.conj(), W @ V)), V


def distribution_for_unitary(W, psi, m: int) -> QpeDistribution:
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
    psi = unit_amplitudes(input_state)
    if psi.shape != (family.dim,):
        raise ConfigError(
            f"input state has shape {psi.shape}, expected ({family.dim},)"
        )
    return distribution_for_unitary(loop_propagator(family, schedule), psi, m)


# A stream is a pure function of a 64-bit key and a draw index, as in
# counter-based generators (Salmon et al., SC 2011), each draw mixed by
# SplitMix64's finaliser from its key plus the index times the golden-ratio
# increment (Steele, Lea & Flood, OOPSLA 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser of each element of a uint64 array."""
    z = (z ^ z >> 30) * _M1
    z = (z ^ z >> 27) * _M2
    return z ^ z >> 31


class SeedWords(NamedTuple):
    """One uint64 key per seed: the key of its stream and of its children."""

    keys: np.ndarray

    def child(self, c, rows=slice(None)) -> SeedWords:
        """The keys of child c (an int >= 0, or an array of them broadcast
        against the rows) of each seed, or of the seeds at `rows`:
        mix(key ^ mix((c + 1) gamma))."""
        c = np.atleast_1d(c)
        if c.dtype.kind not in "iu" or (c < 0).any():
            raise ConfigError(f"child indices must be ints >= 0, got {c}")
        return SeedWords(_mix(self.keys[rows] ^ _mix((c.astype(np.uint64) + 1) * _GAMMA)))


def seed_words(seeds) -> SeedWords:
    """SeedWords of a list of seeds, each an int >= 0 and any other refused:
    a seed's key chains its 64-bit words, low first, through the finaliser,
    starting from the word count.  SeedWords are returned as they are."""
    if isinstance(seeds, SeedWords):
        return seeds
    words = []
    for s in seeds:
        if not isinstance(s, (int, np.integer)) or s < 0:
            raise ConfigError(f"seeds must be ints >= 0, got {s!r}")
        words.append([int(s) >> b & 2**64 - 1 for b in range(0, max(int(s).bit_length(), 1), 64)])
    count = np.array(list(map(len, words)), dtype=np.uint64)
    keys = _mix(count)
    for j in range(max(map(len, words), default=0)):
        w = np.array([r[j] if j < len(r) else 0 for r in words], dtype=np.uint64)
        keys = np.where(j < count, _mix(keys ^ w), keys)
    return SeedWords(keys)


def stream_uniforms(seeds, shape) -> np.ndarray:
    """Uniforms in [0, 1) of shape (len(seeds), *shape), one row per seed of
    a list or per key of SeedWords.  Draw k of a row, in C order, is
    (mix(key + (k + 1) gamma) >> 11) 2^-53: SplitMix64's k-th output from
    the key, one array expression over the block."""
    keys = seed_words(seeds).keys
    draws = np.arange(1, math.prod(shape) + 1, dtype=np.uint64) * _GAMMA
    return (_mix(keys[:, None] + draws) >> 11).reshape(len(keys), *shape) * 2.0**-53


def sample_outcomes(dist: QpeDistribution, R: int, uniforms: np.ndarray) -> np.ndarray:
    """R outcomes from uniforms of shape (..., R, m + 1), such as
    stream_uniforms gives: one row of R per leading index, each row what
    its own uniforms alone would give.

    Each readout takes m + 1 uniforms.  The first picks a component among
    the weights above 1e-14.  The others measure the inverse QFT
    semiclassically, least significant bit first (Griffiths & Niu, PRL 76,
    3228, 1996): with j the value of the bits already read, bit b is 1 with
    probability sin^2(pi (frac(2^(m-1-b) phi / 2 pi) - j / 2^(b+1))), and the
    product is F_m exactly.  The fractions are exact in float64, so an
    on-grid phase reads exactly.  While keep.size * 2^b is at most the
    readouts, bit b's probabilities are a (component, j) table gathered at
    (pick << b) + j: the same float64 operands, so the same bits and draws."""
    if R < 1:
        raise ConfigError(f"repetitions must be >= 1, got {R}")
    m = dist.m
    u = np.asarray(uniforms)
    if u.shape[-2:] != (R, m + 1):
        raise ConfigError(f"uniforms of shape {u.shape} do not end in ({R}, {m + 1})")
    keep = np.flatnonzero(dist.weights > 1e-14)
    cum = np.cumsum(dist.weights[keep])
    pick = np.minimum(np.searchsorted(cum, u[..., 0] * cum[-1], side="right"), keep.size - 1)
    frac = np.mod(np.outer(2.0 ** np.arange(m - 1, -1, -1), dist.phases[keep] / TWO_PI), 1.0)
    j = np.zeros(pick.shape, dtype=np.int64)
    for b in range(m):
        if keep.size << b <= pick.size:  # P(bit b = 1) once per (component, prefix)
            prefix = np.arange(1 << b) / 2.0 ** (b + 1)
            one = (np.sin(math.pi * (frac[b][:, None] - prefix)) ** 2).ravel()[(pick << b) + j]
        else:
            one = np.sin(math.pi * (frac[b][pick] - j / 2.0 ** (b + 1))) ** 2
        j += (u[..., b + 1] < one).astype(np.int64) << b
    return j


def estimate_from_distribution(
    dist: QpeDistribution, R: int, uniforms: np.ndarray
) -> PhaseEstimate:
    outcomes = sample_outcomes(dist, R, uniforms)
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
    return estimate_from_distribution(dist, R, stream_uniforms([seed], (R, m + 1))[0])


def circular_median(angles):
    """Frechet median on the circle: the sample point whose float64 sum of
    circle distances |(x - y + pi) mod 2 pi - pi| to all samples is least;
    equal sums go to the smallest angle in [0, 2 pi], so sums equal in exact
    arithmetic break by rounding.  A 2-d sample gives one median per row,
    each equal to the 1-d call on that row; no rows give no medians.

    Each row is sorted and every sample's cost read from prefix sums over the
    doubled ring, in O(R log R); a row whose costs within 1e-9 R pi of its
    least hold two distinct angles or more is settled by those float sums."""
    a = np.asarray(angles, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] == 0:
        raise ConfigError("circular_median needs a non-empty 1-d sample or rows of one")
    w = np.mod(a, TWO_PI).reshape(-1, a.shape[-1])
    R, i = w.shape[1], np.arange(w.shape[1])
    s = np.sort(w, axis=-1)
    ring = np.concatenate((s, s + TWO_PI), axis=-1)
    prefix = np.concatenate((np.zeros((len(s), 1)), np.cumsum(ring, axis=-1)), axis=-1)
    # ahead[:, i] counts the ring points <= s[i] + pi: the stable rank of
    # s[i] + pi among the ring and the shifted samples, less the i before it.
    # So ring[i:ahead] lie up to pi ahead of s[i], ring[ahead:i + R] behind.
    merged = np.argsort(np.concatenate((ring, s + math.pi), axis=-1), axis=-1, kind="stable")
    rank = np.empty_like(merged)  # merged's inverse permutation
    np.put_along_axis(rank, merged, np.arange(3 * R), -1)
    ahead = rank[:, 2 * R:] - i
    middle = np.take_along_axis(prefix, ahead, -1)
    cost = (middle - prefix[:, :R] - (ahead - i) * s
            + (i + R - ahead) * (TWO_PI + s) - (prefix[:, R:2 * R] - middle))
    close = cost <= cost.min(axis=-1, keepdims=True) + 1e-9 * R * math.pi
    median = np.where(close, s, np.inf).min(axis=-1)
    tie = median != np.where(close, s, -np.inf).max(axis=-1)
    if tie.any():
        t = w[tie]
        cube = np.abs((t[:, :, None] - t[:, None, :] + math.pi) % TWO_PI - math.pi).sum(axis=-1)
        median[tie] = np.take_along_axis(t, np.lexsort((t, cube))[:, :1], axis=-1)[:, 0]
    return float(median[0]) if a.ndim == 1 else median
