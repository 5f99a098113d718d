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
stream_uniforms draws many seeds' streams at once, bit for bit the uniforms
numpy's default_rng of each would give.

Repetitions are aggregated by the circular median, which concentrates at the
true eigenphase because a single shot lands within two grid spacings with
probability >= 8/pi^2 > 1/2.
"""

from __future__ import annotations

import functools
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


# numpy's SeedSequence hash (after M. E. O'Neill's seed_seq_fe) and PCG64
# (O'Neill, HMC-CS-2014-0905, 2014); NEP 19 keeps both streams fixed.
_M32, _M64 = 2**32 - 1, 2**64 - 1
_HASH_A, _MULT_A, _HASH_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_M = 0x2360ED051FC65DA44385DF649FCCF645
_JUMP = 256  # draws per jump block


def seed_row(seed, *path) -> tuple:
    """(entropy, spawn key) of the stream default_rng(seed) draws, for an
    int, a SeedSequence or such a row; with a path (c, k, ...), of the child
    seed.spawn would make c-th, then its k-th child, and so on, without
    spawning anything."""
    if isinstance(seed, np.random.SeedSequence):
        if seed.pool_size != 4:
            raise ConfigError(f"SeedSequence pool size {seed.pool_size} is not 4")
        entropy, key, spawned = seed.entropy, seed.spawn_key, seed.n_children_spawned
    elif isinstance(seed, tuple):
        (entropy, key), spawned = seed, 0
    else:
        entropy, key, spawned = seed, (), 0
    return (entropy, (*key, spawned + path[0], *path[1:])) if path else (entropy, tuple(key))


def _words(x) -> list:
    """numpy's uint32 words of an int, or of a sequence of ints, low first."""
    if isinstance(x, (int, np.integer)):
        if 0 <= x <= _M32:
            return [int(x)]
        if x < 0:
            raise ConfigError(f"seed entropy must be non-negative, got {x}")
        return [int(x) >> s & _M32 for s in range(0, int(x).bit_length(), 32)]
    return [w for v in x for w in ([v] if type(v) is int and 0 <= v <= _M32 else _words(v))]


def _mul(ah, al, bh, bl):
    """(a * b) mod 2^128 of (high, low) uint64 words."""
    a1, a0, b1, b0 = al >> 32, al & _M32, bl >> 32, bl & _M32
    mid = a1 * b0 + (a0 * b0 >> 32)
    mid2 = a0 * b1 + (mid & _M32)
    return a1 * b1 + (mid >> 32) + (mid2 >> 32) + al * bh + ah * bl, al * bl


def _add(ah, al, bh, bl):
    lo = al + bl
    return ah + bh + (lo < al), lo


@functools.cache
def _jump() -> tuple:
    """(M^j, sum_{i<j} M^i) for j = 1 .. _JUMP, as high and low words."""
    terms, a, b = [], 1, 0
    for _ in range(_JUMP):
        a, b = a * _PCG_M & 2**128 - 1, (b * _PCG_M + 1) & 2**128 - 1
        terms.append((a >> 64, a & _M64, b >> 64, b & _M64))
    return tuple(np.array(c, dtype=np.uint64) for c in zip(*terms))


def _pcg64_seeds(words: np.ndarray) -> tuple:
    """PCG64's state before its first draw and its increment, as (n, 1) high
    and low words, seeded by SeedSequence's pool of rows of assembled entropy
    words (n, L)."""
    n, L = words.shape
    a = np.array([_HASH_A * _MULT_A ** i & _M32 for i in range(17 + 4 * max(0, L - 4))],
                 dtype=np.uint32)
    t = 0

    def hashmix(v, k):  # the next k hash calls, one per column
        nonlocal t
        v, t = (v ^ a[t:t + k]) * a[t + 1:t + k + 1], t + k
        return v ^ v >> 16

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ r >> 16

    ent = np.zeros((n, max(4, L)), dtype=np.uint32)
    ent[:, :L] = words
    pool = hashmix(ent[:, :4], 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src:src + 1], 3))
    for src in range(4, L):
        pool = mix(pool, hashmix(ent[:, src:src + 1], 4))
    b = np.array([_HASH_B * _MULT_B ** i & _M32 for i in range(9)], dtype=np.uint32)
    s = (pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ b[:8]) * b[1:]  # generate_state(4, uint64)
    s = (s ^ s >> 16).astype(np.uint64)
    v = s[:, 0::2] | s[:, 1::2] << 32
    inc = (v[:, 2:3] << 1 | v[:, 3:] >> 63, v[:, 3:] << 1 | 1)
    M = (np.uint64(_PCG_M >> 64), np.uint64(_PCG_M & _M64))
    return (*_add(*_mul(*_add(*inc, v[:, :1], v[:, 1:2]), *M), *inc), *inc)


def stream_uniforms(rows, shape) -> np.ndarray:
    """np.stack([default_rng(SeedSequence(entropy, spawn_key=key)).random(shape)
    for entropy, key in rows]), bit for bit, as array arithmetic.

    Rows of one assembled entropy length share each step: SeedSequence's
    pool, PCG64's seeding, then its 128-bit LCG x -> M x + c read out by
    XSL-RR and (x >> 11) 2^-53.  Draw j = 1 .. J of a jump block is
    M^j x + (sum_{i<j} M^i) c from the state x before the block, so each
    block is two array products, and its last state starts the next."""
    draws = math.prod(shape)
    words = []
    for entropy, key in rows:
        w = _words(entropy)
        words.append(w + [0] * (4 - len(w)) + _words(key) if key else w)
    out = np.empty((len(words), draws))
    Ah, Al, Bh, Bl = _jump()
    lengths = [len(w) for w in words]
    for size in set(lengths):
        idx = [i for i, length in enumerate(lengths) if length == size]
        xh, xl, ch, cl = _pcg64_seeds(np.array([words[i] for i in idx], dtype=np.uint32))
        for start in range(0, draws, _JUMP):
            J = min(_JUMP, draws - start)
            hi, lo = _add(*_mul(xh, xl, Ah[:J], Al[:J]), *_mul(ch, cl, Bh[:J], Bl[:J]))
            xh, xl, x, rot = hi[:, -1:], lo[:, -1:], hi ^ lo, hi >> 58
            out[idx, start:start + J] = ((x >> rot | x << (64 - rot & 63)) >> 11) * 2.0 ** -53
    return out.reshape(len(words), *shape)


def sample_outcomes(dist: QpeDistribution, R: int, rng) -> np.ndarray:
    """R outcomes drawn from a Generator; from an array of uniforms of shape
    (..., R, m + 1), such as stream_uniforms gives, one row of R per leading
    index, each row what its stream's Generator alone would give.

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
    u = rng if isinstance(rng, np.ndarray) else rng.random((R, m + 1))
    if u.shape[-2:] != (R, m + 1):
        raise ConfigError(f"uniforms of shape {u.shape} do not end in ({R}, {m + 1})")
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
