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
finds W's eigensystem with Hermitian solves alone, through a Cayley transform,
as one block: the estimators' loops are psi0's sector's alone.  stream_uniforms draws every stream,
bit for bit the uniforms numpy's default_rng of each seed would give: the
seeds' SeedSequence words (seed_words, children as appended columns) are
hashed, and PCG64 seeded from the hash, as array arithmetic on 64-bit limbs.
A coin, a stream of one uniform, is one more LCG step and its output on
those arrays; numpy's own PCG64 draws each longer row from its seeded state.

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


# numpy's SeedSequence hash (after M. E. O'Neill's seed_seq_fe) and PCG64's
# seeding (O'Neill, HMC-CS-2014-0905, 2014); NEP 19 keeps both streams fixed.
_M32 = 2**32 - 1
_HASH_A, _MULT_A, _HASH_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)  # multiplier


def seed_row(seed, *path) -> tuple:
    """(entropy, spawn key) of the stream default_rng(seed) draws, for an
    int, a SeedSequence or such a row; with a path (c, k, ...), of the child
    seed.spawn would make c-th, then its k-th child, and so on, without
    spawning anything.  Any other seed, or a negative one, is refused."""
    if isinstance(seed, np.random.SeedSequence):
        if seed.pool_size != 4:
            raise ConfigError(f"SeedSequence pool size {seed.pool_size} is not 4")
        entropy, key, spawned = seed.entropy, seed.spawn_key, seed.n_children_spawned
    elif isinstance(seed, tuple):
        (entropy, key), spawned = seed if len(seed) == 2 else (None, None), 0
    else:
        entropy, key, spawned = seed, (), 0
    if not isinstance(key, tuple) or not (isinstance(entropy, (int, np.integer)) and entropy >= 0
                                          or isinstance(entropy, (list, tuple, np.ndarray))):
        raise ConfigError(f"{seed!r} is not an int >= 0, a SeedSequence or an (entropy, key) row")
    return (entropy, (*key, spawned + path[0], *path[1:])) if path else (entropy, tuple(key))


def _words(x) -> list:
    """numpy's uint32 words of an int, or of a sequence of ints, low first."""
    if isinstance(x, (int, np.integer)) and 0 <= x <= _M32:
        return [int(x)]
    if isinstance(x, (int, np.integer)) and x > _M32:
        return [int(x) >> s & _M32 for s in range(0, int(x).bit_length(), 32)]
    if not isinstance(x, (list, tuple, np.ndarray)) or getattr(x, "ndim", 1) == 0:
        raise ConfigError(f"seed entropy and spawn keys must be ints >= 0, got {x!r}")
    return [w for v in x for w in ([v] if type(v) is int and 0 <= v <= _M32 else _words(v))]


class SeedWords(NamedTuple):
    """The uint32 words SeedSequence hashes for each of a list of seeds, one
    row each, left-aligned in its first `lengths` columns, and the number of
    children each seed has spawned already."""

    words: np.ndarray
    lengths: np.ndarray
    spawned: np.ndarray

    def child(self, c, rows=slice(None)) -> SeedWords:
        """The words of the child seed.spawn would make c-th (c an int, or an
        array broadcast against the rows), of each seed or of the seeds at
        `rows`: the index appended as a column."""
        n = self.spawned[rows] + c
        if (n > _M32).any():  # numpy's SeedSequence counts no further either
            raise ConfigError(f"child {c} needs a spawn count past 2^32 - 1")
        length = np.broadcast_to(self.lengths[rows], n.shape)
        words = np.zeros((len(n), self.words.shape[1] + 1), dtype=np.uint32)
        words[:, :-1] = self.words[rows]
        words[np.arange(len(n)), length] = n
        return SeedWords(words, length + 1, np.zeros_like(n))


def seed_words(seeds) -> SeedWords:
    """SeedWords of a list of seeds (ints, SeedSequences or (entropy, key)
    rows), each refused or named by one seed_row call: its entropy words,
    zero-padded to SeedSequence's pool of 4 (which hashes as no padding
    does), then its spawn key's.  SeedWords are returned as they are."""
    if isinstance(seeds, SeedWords):
        return seeds
    rows, spawned = [], []
    for s in seeds:
        entropy, (*key, n) = seed_row(s, 0)
        w = _words(entropy)
        rows.append(w + [0] * (4 - len(w)) + _words(key))
        spawned.append(n)
    L = max(map(len, rows), default=4)
    words = np.array([r + [0] * (L - len(r)) for r in rows], dtype=np.uint32).reshape(-1, L)
    lengths = np.array([len(r) for r in rows], dtype=int)
    return SeedWords(words, lengths, np.array(spawned, dtype=np.int64))


def _seed_states(words: np.ndarray) -> np.ndarray:
    """generate_state(4, np.uint64) of the SeedSequence of each row of words
    (n, L >= 4), as an (n, 4) array."""
    L = words.shape[1]
    a = np.multiply.accumulate(np.array([_HASH_A] + [_MULT_A] * 4 * L, np.uint32), dtype=np.uint32)
    t = 0

    def hashmix(v, k):  # the next k hash calls, one per column
        nonlocal t
        v, t = (v ^ a[t:t + k]) * a[t + 1:t + k + 1], t + k
        return v ^ v >> 16

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ r >> 16

    pool = hashmix(words[:, :4], 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src:src + 1], 3))
    for src in range(4, L):
        pool = mix(pool, hashmix(words[:, src:src + 1], 4))
    b = np.multiply.accumulate(np.array([_HASH_B] + [_MULT_B] * 8, np.uint32), dtype=np.uint32)
    s = (pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ b[:8]) * b[1:]  # generate_state(4, uint64)
    s = (s ^ s >> 16).astype(np.uint64)
    return s[:, 0::2] | s[:, 1::2] << 32


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products of uint64 arrays a and b."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)  # each sum stays below 2^64
    return a1 * b1 + (mid >> 32) + (a0 * b1 + (mid & _M32) >> 32)


def _add(hi, lo, b_hi, b_lo):
    """(hi, lo) + (b_hi, b_lo) mod 2^128, as uint64 (high, low) limbs."""
    lo = lo + b_lo
    return hi + b_hi + (lo < b_lo), lo


def _lcg(hi, lo, inc):
    """One PCG64 LCG step, state * multiplier + inc mod 2^128, in limbs."""
    return _add(_mulhi(lo, _PCG_LO) + lo * _PCG_HI + hi * _PCG_LO, lo * _PCG_LO, *inc)


def _seeded_pcg64(words):
    """PCG64(SeedSequence).state of each row of words, as limb pairs
    ((state high, state low), (inc high, inc low)) of uint64 arrays: the
    increment is the last two hash words shifted in a 1, and the LCG steps
    once from the increment plus the first two."""
    s0, s1, c0, c1 = _seed_states(words).T
    inc = c0 << 1 | c1 >> 63, c1 << 1 | 1
    return _lcg(*_add(s0, s1, *inc), inc), inc


def stream_uniforms(seeds, shape) -> np.ndarray:
    """np.stack([default_rng(s).random(shape) for s in seeds]), bit for bit,
    for a list of seeds or their SeedWords.

    SeedSequence's hash and PCG64's seeding (_seeded_pcg64) are array
    arithmetic over the rows of one word length.  A one-uniform stream is
    one more LCG step and the XSL-RR output's top 53 bits, on the arrays;
    a longer one writes its row's state and increment into one PCG64,
    whose Generator fills the row."""
    w = seed_words(seeds)
    size = math.prod(shape)
    out = np.empty((len(w.lengths), size))
    bits, pcg = np.random.PCG64(), {}
    gen, state = np.random.Generator(bits), {"bit_generator": "PCG64", "state": pcg,
                                             "has_uint32": 0, "uinteger": 0}
    for L in np.unique(w.lengths).tolist():
        idx = np.flatnonzero(w.lengths == L)
        (hi, lo), inc = _seeded_pcg64(w.words[idx, :L])
        if size == 1:
            hi, lo = _lcg(hi, lo, inc)
            x, r = hi ^ lo, hi >> 58
            out[idx, 0] = ((x >> r | x << (-r & 63)) >> 11) * 2.0**-53
            continue
        for i, s_hi, s_lo, c_hi, c_lo in zip(idx.tolist(), *(a.tolist() for a in (hi, lo, *inc))):
            pcg["state"], pcg["inc"] = s_hi << 64 | s_lo, c_hi << 64 | c_lo
            bits.state = state
            gen.random(out=out[i])
    return out.reshape(len(out), *shape)


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
    dist: QpeDistribution, R: int, rng: np.random.Generator | np.ndarray
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
    ahead = np.argsort(merged, axis=-1)[:, 2 * R:] - i
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
