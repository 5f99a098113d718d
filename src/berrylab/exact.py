"""Exact-diagonalization ground truth for loop families.

Everything here works on dense spectra: instantaneous eigensystems, minimum
spectral gaps along the loop, Wilson-loop Berry phases (gauge invariant by
construction) with a discretization error estimate, and the local Berry
connection both exactly (finite differences in an explicitly anchored gauge)
and to leading order in a perturbation strength r.  Every scan along the
loop, and the step kernel in dynamics, takes its eigensystems from one
chunked sweep (spectra, sweep).  A family's sectors, the blocks H(lambda)
decouples into, are found once, cached on it and are the lab's one block
structure, and only this module looks them up: the sweep solves each block
size over many lambdas per call and yields block eigensystems in chunks
sized by d^2, forming dense eigenvectors only when a caller reads them; for
the step kernel it solves the one sector a state lies in (ground_sector)
alone.  A stack of one block is handed out as eigh returned it.  The scans
along the loop read only E0, E1 and the ground state, so sweep evaluates and
solves only the blocks that certified, lambda-uniform bounds leave able to
hold E0 or E1 (_pruned); diagonalize and the step kernel solve every block.

The Wilson loop reads the minimum gap on its grid from the slices it
solves, so the oracle's two numbers come from one scan of the loop.  The
step check and runtime calibration refine on the lab's one ladder, refine.

All reported angles live in [0, 2 pi).
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .angles import circle_distance, wrap_2pi
from .errors import CapacityError, ConfigError, DegeneracyError, NumericalError
from .hamiltonians import (
    HamiltonianFamily,
    _actions_for,
    _group_entries,
    check_dense_budget,
    derivative_family,
    eval_hamiltonian,
)

# A gap below this relative threshold is treated as an exact degeneracy.
DEGENERACY_RTOL = 1e-8

# Adjacent-point ground-state overlap below this aborts a Wilson loop.
MIN_LOOP_OVERLAP = 0.5

# Default Wilson-loop convergence tolerance on the error estimate (radians).
WILSON_TOL = 1e-5

# Each grid point costs one eigensolve, as an exact step does, so a grid is
# held to the same budget as a run's steps (dynamics.MAX_TOTAL_STEPS).
MAX_GRID_POINTS = 2_000_000


@dataclass
class SpectrumSlice:
    """Instantaneous eigensystem of H(lambda) at one point of the loop."""

    lam: float
    eigenvalues: np.ndarray  # ascending; kept levels (sweep), E0 and E1 are the family's
    gap: float  # E1 - E0
    degenerate: bool  # ground gap below the degeneracy threshold
    family: HamiltonianFamily
    blocks: BlockEigensystems  # its chunk's
    point: int  # its place in the chunk

    @property
    def eigenvectors(self) -> np.ndarray:
        """Columns, unitary; the chunk's dense stack is formed on first read."""
        return self.blocks.dense()[self.point]

    @property
    def residual(self) -> float:
        """max_k || H v_k - E_k v_k ||, formed only when read: it costs a d^3
        product that no scan along the loop needs."""
        H = eval_hamiltonian(self.family, self.lam)
        V, E = self.eigenvectors, self.eigenvalues
        return float(np.max(np.linalg.norm(H @ V - V * E[None, :], axis=0)))

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ground_state(self) -> np.ndarray:
        return self.blocks.ground(self.point)


# Bytes per stacked complex array of a sweep.  An output chunk holds as many
# points as dense (d, d) eigenvector matrices fit, should a caller read them:
# 64 points at d = 16, one point from d = 128 on.  A solve chunk holds as
# many points as the family's block stacks fit, a whole number of output
# chunks.  Larger chunks raise peak memory and gain little; each point gets
# the bits of a one-point solve whatever else is in its stack.
_CHUNK_BYTES = 256 * 1024

# A sweep solves a family below this dimension as one block even when
# H(lambda) is block diagonal, so its scans keep the bits that tests and
# outputs pin.  A connected family is one block at any dimension.
_SPLIT_MIN_DIM = 64


class _Sectors(NamedTuple):
    """A family's sectors as labels (each index's the least in its sector); the
    blocks its sweep solves, in _groups_of's form (one below _SPLIT_MIN_DIM);
    the ends of their block-size stacks (count * s^2 entries per point each, in
    the order of groups); and where its group entries go: entry src of one
    point's (groups, len(cols)) entries on the columns cols, flattened, is entry
    dst of those stacks.  kept: those five for the blocks that can hold E0 or
    E1 (_pruned); floor: a bound on |E| in the others."""

    labels: np.ndarray
    groups: list
    ends: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    cols: np.ndarray
    kept: tuple
    floor: float


def spectra(family: HamiltonianFamily, lams, sector=None, prune=False):
    """Yield (lams, eigenvalues, BlockEigensystems) over consecutive chunks
    of a lambda sequence, sized so that no dense eigenvector stack, once
    read, is above _CHUNK_BYTES unless a single matrix is.  The family's
    block-size stacks are filled straight from its group entries on the
    columns they take, with no dense H(lambda), and each size is solved once
    per solve chunk; with prune only the blocks that can hold E0 or E1, or
    a given sector's (basis indices) block alone, in its basis."""
    check_dense_budget(family.n_qubits, "Hamiltonian evaluation")
    lams = np.asarray(lams, dtype=float)
    if not np.all(np.isfinite(lams)):
        raise ConfigError(f"lambda must be finite, got {lams[~np.isfinite(lams)][0]}")
    sec, d = _sectors_for(family), family.dim
    (groups, ends, src, dst, cols), floor = (sec.kept, sec.floor) if prune else (sec[1:6], 0.0)
    if sector is not None and len(sector) < d:
        d, (groups, ends, src, dst, cols) = len(sector), _placement(family, [np.asarray(sector)[None]])
    per_out = max(1, _CHUNK_BYTES // (16 * d ** 2))
    per_solve = per_out * max(1, _CHUNK_BYTES // (16 * ends[-1]) // per_out)
    for start in range(0, lams.size, per_solve):
        part = lams[start:start + per_solve]
        flat = np.zeros((part.size, ends[-1]), dtype=complex)
        entries = _group_entries(family, part, cols).transpose(1, 0, 2).reshape(part.size, -1)
        flat[:, dst] = entries[:, src]
        solved = _eigh([a.reshape(part.size, *idx.shape, -1) for a, idx
                        in zip(np.split(flat, ends[:-1], axis=1), groups)])
        for a in range(0, part.size, per_out):
            at = slice(a, a + per_out)
            out = BlockEigensystems(groups, [(w[at], V[at]) for w, V in solved], d, floor)
            yield part[at], out.eigenvalues, out


def _sectors_for(family: HamiltonianFamily) -> _Sectors:
    """The family's sectors, found once and cached on it: the connected
    components of the entries of H(lambda) that are not identically zero in
    lambda.  Its sweep's one block below _SPLIT_MIN_DIM."""
    if family._sectors is None:
        family._sectors = _find_sectors(family)
    return family._sectors


def _find_sectors(family: HamiltonianFamily) -> _Sectors:
    d, actions = family.dim, _actions_for(family)
    rows = np.array([r for r, _ in actions], dtype=np.int64).reshape(-1, d)  # (groups, d)
    amps = [_column_amps(family, m) for _, m in actions]
    coupled = np.array([a.any(axis=0) & (r[0] != 0)  # r[0]: the flip
                        for (r, _), a in zip(actions, amps)], dtype=bool).reshape(rows.shape)
    labels = _blocks(rows[coupled], np.nonzero(coupled)[1], d)
    swept = labels if d >= _SPLIT_MIN_DIM else 0 * labels
    keep, floor = _pruned(swept, rows[:, 0], amps)
    whole, kept = _placement(family, _groups_of(swept)), np.flatnonzero(keep)
    return _Sectors(labels, *whole, whole if keep.all() else _placement(
        family, [kept[idx] for idx in _groups_of(swept[kept])]), floor)


def _placement(family: HamiltonianFamily, groups: list) -> tuple:
    """(groups, ends, src, dst, cols) of _Sectors for blocks in _groups_of's form."""
    d = family.dim
    rows = np.array([r for r, _ in _actions_for(family)], dtype=np.int64).reshape(-1, d)
    ends = np.cumsum([idx.size * idx.shape[1] for idx in groups])
    place = np.full((d, d), -1, dtype=np.int32)  # each in-block entry's place in the stacks
    for idx, end in zip(groups, ends):
        span = np.arange(end - idx.size * idx.shape[1], end)
        place[idx[:, :, None], idx[:, None, :]] = span.reshape(*idx.shape, -1)
    cols = np.sort(np.concatenate([idx.ravel() for idx in groups]))
    at = place[rows[:, cols], cols]  # group g's entry (rows[g, x], x)
    return groups, ends, np.flatnonzero(at >= 0), at[at >= 0], cols


def _pruned(labels: np.ndarray, flips, amps) -> tuple:
    """(keep, floor): which basis indices lie in a block of the labelling that can
    hold E0 or E1 at some lambda, and a bound on |E| in the other blocks.  From
    the groups' flips (0: the diagonal) and _column_amps, over every lambda, H_xx
    lies in [lo, hi] and column x's off-diagonal entries sum to at most radius in
    modulus: a cos + b sin is at most hypot(|a|, |b|).  A block's least eigenvalue
    is at least its least lo - radius (Gershgorin) and at most its least hi; two
    blocks' basis vectors span a trial space, so the second least such hi
    bounds E1 at every lambda (Courant-Fischer)."""
    lo = hi = radius = np.zeros(labels.size)
    for flip, a in zip(flips, amps):
        reach = np.hypot(abs(a[1::2]), abs(a[2::2])).sum(axis=0)
        if flip:
            radius = radius + abs(a[0]) + reach
        else:
            lo, hi = a[0].real - reach, a[0].real + reach
    least, top = np.full(labels.size, np.inf), np.full(labels.size, np.inf)
    np.minimum.at(least, labels, lo - radius)
    np.minimum.at(top, labels, hi)
    bound = np.maximum(abs(lo - radius), abs(hi + radius))
    margin = DEGENERACY_RTOL * max(1.0, np.max(bound))  # for rounding
    keep = least[labels] <= np.partition(top, 1)[1] + margin
    return keep, float(np.max(bound[~keep], initial=0.0)) + margin


def ground_sector(family: HamiltonianFamily, psi: np.ndarray) -> tuple:
    """(basis indices, amplitudes) of a unit psi in its largest amplitude's sector,
    where it is propagated; on the whole space psi itself, as a copy of a column
    moves bits.  More than rounding of weight elsewhere is refused, not dropped."""
    labels = _sectors_for(family).labels
    sector = np.flatnonzero(labels == labels[np.argmax(np.abs(psi))])
    amps = psi if sector.size == psi.size else psi[sector]
    if 1.0 - np.vdot(amps, amps).real > 1e-12:
        raise NumericalError("the state has more than rounding of its weight outside one sector")
    return sector, amps


def _column_amps(family: HamiltonianFamily, members) -> np.ndarray:
    """Per column x (axis 1), the constant (row 0), then each harmonic's cosine
    and sine amplitude of a group's entry sum_i c_i(lambda) vals_i[x]: the
    members' amplitudes weighted by vals_i[x] (+-1 or +-i), summed exactly
    (math.fsum) in the real and the imaginary part, so the entry is identically
    zero where they are all zero.  Columns with the same vals share one sum:
    a lexsort of the int8 sign columns puts equal ones side by side, and a
    neighbour compare groups them exactly.  Each complex sum is laid out from
    its two parts, as re + 1j*im would turn a real part of -0.0 into +0.0."""
    m, amps = len(members), {}  # 0: the constant; +-j: harmonic j's cosine, sine
    for i, (k, _) in enumerate(members):
        c = family.terms[k][1]
        for key, a in [(0, c.const), *c.cos_terms, *[(-j, b) for j, b in c.sin_terms]]:
            amps.setdefault(key, np.zeros(m))[i] = a
    keys = [0, *[s * j for j in sorted({abs(k) for k in amps} - {0}) for s in (1, -1)]]
    table = np.array([amps.get(k, np.zeros(m)) for k in keys])
    vals = np.array([v for _, v in members])
    signs = np.concatenate([vals.real, vals.imag]).T.astype(np.int8)  # (d, 2m)
    order = np.lexsort(signs.T)
    ranked = signs[order]
    new = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))
    where = (np.cumsum(new) - 1)[np.argsort(order)]  # each column's distinct one
    terms = table[:, None, None] * ranked[new].reshape(-1, 2, m)  # (keys, distinct, re/im, m)
    parts = np.array([math.fsum(row) for row in terms.reshape(-1, m).tolist()])
    return parts.reshape(*terms.shape[:2], 2).view(complex)[..., 0][:, where]


def _blocks(rows: np.ndarray, cols: np.ndarray, d: int) -> np.ndarray:
    """Connected-component label of each of d basis indices under the
    symmetric edges (rows[e], cols[e]): the smallest index of its component."""
    labels = np.arange(d)
    while True:
        # Take the smallest label among the neighbours, then jump pointers:
        # labels only fall, and stop once constant on every component.
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _groups_of(labels: np.ndarray) -> list:
    """One (count, size) array of basis indices per block size of a
    labelling, each block's indices ascending."""
    sizes = np.unique(labels, return_counts=True)[1]
    members = np.argsort(labels, kind="stable")  # block by block, ascending
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return [members[starts[sizes == s][:, None] + np.arange(s)] for s in np.unique(sizes)]


def _eigh(stacks) -> list:
    """Stacked eigh of each array: the lab's one eigensolver call."""
    return [np.linalg.eigh(a) for a in stacks]


class BlockEigensystems:
    """A chunk's eigensystems in the blocks solved per size of groups
    (_groups_of's form), eigenpairs taking their block's indices as slots,
    ordered by a stable sort of each point's eigenvalues.  The dense stack is
    formed on first read; one block of all d states is eigh's own (w, V)."""

    def __init__(self, groups, solved, d: int, floor: float = 0.0):
        self.groups, self.solved, self.floor = groups, solved, floor  # floor: bounds |E| in unsolved blocks
        if groups[0].shape == (1, d):
            self.eigenvalues, self._dense = solved[0][0][:, 0], solved[0][1][:, 0]
            return
        w = np.full((solved[0][0].shape[0], d), np.inf)  # slots of unsolved blocks sort last
        for idx, (bw, _) in zip(groups, solved):
            w[:, idx] = bw
        self.order = np.argsort(w, axis=1, kind="stable")  # slots by ascending eigenvalue
        kept = sum(idx.size for idx in groups)
        self.eigenvalues, self._dense = np.take_along_axis(w, self.order, axis=1)[:, :kept], None

    def ground_block(self, p: int) -> tuple:
        """(basis indices, eigenvalues, eigenvectors) of the block that holds point
        p's ground state, ascending, the ground first; all levels once dense."""
        if self._dense is not None:
            return slice(None), self.eigenvalues[p], self._dense[p]
        for idx, (bw, bV) in zip(self.groups, self.solved):
            for b, _ in np.argwhere(idx == self.order[p, 0]):  # the ground slot's block
                return idx[b], bw[p, b], bV[p, b]

    def ground(self, p: int) -> np.ndarray:
        """Point p's ground state from its block, as a strided column like the
        dense stack's: OpenBLAS sums a unit-stride np.vdot on another path,
        so a contiguous copy would move the Wilson loop's last bit."""
        if self._dense is not None:
            return self._dense[p][:, 0]
        idx, _, V = self.ground_block(p)
        psi = np.zeros((self.order.shape[1], 2), dtype=complex)[:, 0]
        psi[idx] = V[:, 0]
        return psi

    def dense(self) -> np.ndarray:
        """The (n, d, levels) eigenvector stack, columns in ascending order."""
        if self._dense is None:
            n, d = self.order.shape
            rank = np.empty_like(self.order)  # rank[p, slot]: the slot's column in V
            np.put_along_axis(rank, self.order, np.arange(d)[None, :], axis=1)
            self._dense = np.zeros((n, d, self.eigenvalues.shape[1]), dtype=complex)
            points = np.arange(n)[:, None, None, None]
            for idx, (_, bV) in zip(self.groups, self.solved):
                self._dense[points, idx[None, :, :, None], rank[:, idx][:, :, None, :]] = bV
        return self._dense


def eigh_blocks(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked eigh of H, shape (n, d, d), as one block."""
    return _eigh([H])[0]


def _slice(family: HamiltonianFamily, lam, evals, blocks, p: int) -> SpectrumSlice:
    # A pruned slice's scale takes the unsolved blocks' bound, so it never shrinks.
    scale = max(1.0, blocks.floor, float(np.max(np.abs(evals))))
    gap = float(evals[1] - evals[0]) if evals.size > 1 else math.inf
    return SpectrumSlice(
        lam=float(lam),
        eigenvalues=evals,
        gap=gap,
        degenerate=gap < DEGENERACY_RTOL * scale,
        family=family,
        blocks=blocks, point=p,
    )


def _gapped(s: SpectrumSlice, ground_in=None) -> SpectrumSlice:
    if s.degenerate:
        raise DegeneracyError(
            f"degenerate ground space at lambda={s.lam:.6f} (gap={s.gap:.3e})"
        )
    if ground_in is not None and np.argmax(np.abs(s.ground_state)) not in ground_in:
        raise DegeneracyError(f"the ground state leaves its sector at lambda={s.lam:.6f}")
    return s


def sweep(family: HamiltonianFamily, lams, ground_in=None):
    """Yield the SpectrumSlice at each lambda in order, refusing a
    numerically degenerate ground space, or one outside the sector ground_in
    (basis indices): the one spectral sweep along the loop.  It solves only
    the blocks that can hold E0 or E1, so a slice holds their levels alone.
    A slice keeps its chunk's eigenvectors alive; a ground state read from a
    split chunk does not."""
    for part, w, blocks in spectra(family, lams, prune=True):
        for p, (lam, evals) in enumerate(zip(part, w)):
            yield _gapped(_slice(family, lam, evals, blocks, p), ground_in)


def diagonalize(family: HamiltonianFamily, lam: float) -> SpectrumSlice:
    """Full eigensystem at one lambda; its residual is formed on demand."""
    ((_, w, blocks),) = spectra(family, [lam])
    return _slice(family, lam, w[0], blocks, 0)


def gapped_slice(family: HamiltonianFamily, lam: float) -> SpectrumSlice:
    """diagonalize(family, lam), refusing a numerically degenerate ground
    space by the rule every sweep applies."""
    return _gapped(diagonalize(family, lam))


def ground_state(family: HamiltonianFamily, lam: float) -> tuple[float, np.ndarray]:
    """(E0, |psi0>) at lambda; refuses a numerically degenerate ground space."""
    s = gapped_slice(family, lam)
    return s.ground_energy, s.ground_state


def min_gap(family: HamiltonianFamily, grid, ground_in=None) -> tuple[float, float]:
    """Minimum E1 - E0 over a lambda grid and its argmin.

    ``grid`` is either a point count (uniform grid on [0, 1)) or an explicit
    sequence of lambdas.  Raises DegeneracyError naming the offending lambda
    if any slice is degenerate, or its ground state leaves the sector ground_in.
    """
    slices = sweep(family, lambda_grid(family, grid), ground_in=ground_in)
    return min(((s.gap, s.lam) for s in slices), key=lambda t: t[0])  # the first minimum


def lambda_grid(family: HamiltonianFamily, grid, offset: float = 0.0) -> np.ndarray:
    """The lambdas of a grid.  A point count n gives the uniform grid
    (j + offset) / n on [0, 1); it is refused when n <= 2 k for the family's
    highest harmonic k, since such a grid aliases that harmonic, and above
    MAX_GRID_POINTS.  An explicit sequence of lambdas is taken as given."""
    if isinstance(grid, (int, np.integer)):
        if grid < 2:
            raise ConfigError(f"grid must have at least 2 points, got {grid}")
        if grid > MAX_GRID_POINTS:
            raise CapacityError(
                f"a {grid}-point lambda grid is over the budget of "
                f"{MAX_GRID_POINTS} points"
            )
        k = max((j for _, c in family.terms for j, _ in c.cos_terms + c.sin_terms),
                default=0)
        if grid <= 2 * k:
            raise ConfigError(
                f"a {grid}-point lambda grid aliases the family's harmonic "
                f"{k}; use more than {2 * k} points"
            )
        return (np.arange(int(grid)) + offset) / float(grid)
    lams = np.asarray(grid, dtype=float)
    if lams.ndim != 1 or lams.size < 2:
        raise ConfigError("grid must be an int or a 1-d sequence of lambdas")
    return lams


def refine(levels, measure, accept) -> tuple:
    """The one refinement ladder: ``measure(level)`` gives (result, value), once
    per level in order, until ``accept(previous value or None, value)`` holds.
    Returns the last level's result and the record {"tested": [[level, value],
    ...], "converged": bool}, unconverged if the levels ran out unaccepted."""
    tested, previous = [], None
    for level in levels:
        result, value = measure(level)
        tested.append([level, value])
        if accept(previous, value):
            return result, {"tested": tested, "converged": True}
        previous = value
    return result, {"tested": tested, "converged": False}


# ---------------------------------------------------------------------------
# Wilson loop
# ---------------------------------------------------------------------------


@dataclass
class BerryPhaseResult:
    """Wilson-loop estimate of the ground-state Berry phase, the minimum gap
    E1 - E0 on its grid with its first argmin (as min_gap), and E1 - E0 at 0."""

    theta_B: float  # in [0, 2 pi)
    grid_size: int
    converged: bool
    estimated_discretization_error: float
    min_overlap: float  # smallest adjacent |<psi_j|psi_{j+1}>| seen
    min_gap: float
    min_gap_lambda: float
    gap_lambda0: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _wilson_angle(overlaps) -> tuple[float, float]:
    """(theta_B, min overlap magnitude) from the adjacent ground-state
    overlaps of a closed chain, in chain order."""
    total = 0.0
    min_abs = 1.0
    for j, o in enumerate(overlaps):
        mag = abs(o)
        min_abs = min(min_abs, mag)
        if mag < MIN_LOOP_OVERLAP:
            raise NumericalError(
                f"adjacent ground-state overlap {mag:.3f} at segment {j}: "
                "grid too coarse for a Wilson loop, refine and retry"
            )
        total += math.atan2(o.imag, o.real)
    return wrap_2pi(-total), min_abs


def wilson_loop_berry_phase(
    family: HamiltonianFamily, N: int = 256, tol: float = WILSON_TOL
) -> BerryPhaseResult:
    """Berry phase of the ground band from an N-point Wilson loop, the
    minimum gap over its grid and the gap at its first point, lambda = 0.

    The product of adjacent-overlap phases around the closed loop is gauge
    invariant, so arbitrary eigenvector phases from the dense solver do not
    matter.  The discretization error is estimated by comparing against the
    N/2-point loop built from every other grid point (N must be even); the
    result is converged when that estimate is at most ``tol``.
    """
    if N < 4 or N % 2 != 0:
        raise ConfigError(f"Wilson grid size must be even and >= 4, got {N}")
    # Overlaps are taken as the sweep goes, so only the first ground state
    # and the last two (which close the N- and N/2-point loops) stay alive.
    # They are strided columns (BlockEigensystems.ground): a copy moves the last bit.
    full, half = [], []
    first = prev = prev2 = None
    gap = (math.inf, 0.0)
    for j, s in enumerate(sweep(family, lambda_grid(family, N))):
        gap = min(gap, (s.gap, s.lam), key=lambda t: t[0])  # the first minimum, as min_gap
        psi = s.ground_state
        if j == 0:
            first, gap0 = psi, s.gap
        else:
            full.append(complex(np.vdot(prev, psi)))
        if j % 2 == 0 and j > 0:
            half.append(complex(np.vdot(prev2, psi)))
        prev2, prev = prev, psi
    full.append(complex(np.vdot(prev, first)))
    half.append(complex(np.vdot(prev2, first)))
    theta, min_overlap = _wilson_angle(full)
    theta_half, _ = _wilson_angle(half)
    # O(1/N^2) convergence: the next doubling moves theta by about a quarter
    # of the last halving step, so half that step is a safe error estimate.
    est = max(circle_distance(theta, theta_half) / 2.0, 1e-11)
    converged = est <= tol and min_overlap >= 0.9
    return BerryPhaseResult(
        theta_B=theta,
        grid_size=N,
        converged=converged,
        estimated_discretization_error=est,
        min_overlap=min_overlap,
        min_gap=gap[0],
        min_gap_lambda=gap[1],
        gap_lambda0=gap0,
    )


# ---------------------------------------------------------------------------
# Local Berry connection
# ---------------------------------------------------------------------------


def berry_connection_exact(
    family: HamiltonianFamily, lam: float, h: float = 1e-4, anchor=None
) -> float:
    """Central-difference estimate of i A_lambda(lambda) in an anchored gauge.

    Only the loop integral of the connection is gauge invariant; the
    pointwise value depends on how eigenvector phases are tied together
    across lambda, and the dense solver returns arbitrary phases.  We fix
    the gauge by rotating each ground state so its overlap with a fixed
    anchor is real and positive:

    - anchor=None uses the basis direction carrying the largest
      ground-state amplitude at lambda — a canonical choice that is smooth
      wherever that amplitude stays away from zero (on the reference
      single-qubit loops it gives the textbook constant integrand);
    - for a weakly perturbed family, passing the unperturbed ground state
      as the anchor reproduces the gauge in which
      berry_connection_perturbative is derived, making the two directly
      comparable point by point.
    """
    return berry_connections(family, [lam], h, anchor)[0]


def berry_connections(
    family: HamiltonianFamily, lams, h: float = 1e-4, anchor=None
) -> list[float]:
    """berry_connection_exact at each lambda, from one sweep over the
    stencil points lambda - h, lambda, lambda + h of every lambda."""
    return [
        _connection(lam, h, anchor, lo, mid, hi)
        for lam, mid, lo, hi in _stencil(family, lams, h)
    ]


def _stencil(family: HamiltonianFamily, lams, h: float):
    """(lambda, slices at lambda, lambda - h, lambda + h) for each lambda.
    The centre is solved first, so a row that is degenerate throughout is
    refused at its own lambda."""
    if h <= 0:
        raise ConfigError(f"finite-difference step must be positive, got {h}")
    lams = np.asarray(lams, dtype=float)
    slices = sweep(family, np.stack([lams, lams - h, lams + h], axis=1).ravel())
    return zip(lams, *[slices] * 3)  # consecutive triples of the one sweep


def _connection(lam, h: float, anchor, lo, mid, hi) -> float:
    """The central difference of berry_connection_exact at lambda, from the
    slices at lambda - h, lambda and lambda + h."""
    states = [lo.ground_state, mid.ground_state, hi.ground_state]
    if anchor is None:
        # First index whose amplitude is within a whisker of the maximum:
        # plain argmax would flip between exactly tied components under
        # solver noise and tear the gauge.
        mags = np.abs(states[1])
        idx = int(np.argmax(mags >= mags.max() * (1.0 - 1e-6)))
        projections = [psi[idx] for psi in states]
    else:
        a = np.asarray(anchor, dtype=complex)
        projections = [complex(np.vdot(a, psi)) for psi in states]
    rotated = []
    for psi, p in zip(states, projections):
        mag = abs(p)
        if mag < 1e-8:
            raise NumericalError(
                f"gauge anchor nearly orthogonal to the ground state at "
                f"lambda={lam:.6f} (|overlap|={mag:.2e}); supply an anchor "
                "with support on the ground state"
            )
        rotated.append(psi * (mag / p))
    o_in = complex(np.vdot(rotated[0], rotated[1]))
    o_out = complex(np.vdot(rotated[1], rotated[2]))
    if min(abs(o_in), abs(o_out)) < 0.99:
        raise NumericalError(
            f"finite-difference step h={h:g} too large at lambda={lam:.6f}: "
            f"adjacent overlap {min(abs(o_in), abs(o_out)):.4f} < 0.99"
        )
    value = -(
        math.atan2(o_in.imag, o_in.real) + math.atan2(o_out.imag, o_out.real)
    ) / (2.0 * h)
    return value + 0.0  # normalize -0.0


class PerturbativeConnection(NamedTuple):
    value: float
    regime_warning: bool


def berry_connection_perturbative(
    base: SpectrumSlice,
    V: HamiltonianFamily,
    r: float,
    lam: float,
) -> PerturbativeConnection:
    """Leading-order connection i A_lambda for H_base + r V(lambda).

    First-order perturbation theory in r dresses the (lambda-independent)
    base ground state through V(lambda); the induced connection is

        i A_lambda = -r^2 Im < psi0 | V P dV/dlambda | psi0 > + O(r^3),

    with P the squared-inverse-energy projector onto excited states.  The
    regime flag is set when r is no longer small against the base gap
    (r >= gap / 4), where O(r^3) terms start to matter.
    """
    return berry_connections_perturbative(base, V, r, [lam])[0]


def berry_connections_perturbative(
    base: SpectrumSlice, V: HamiltonianFamily, r: float, lams
) -> list[PerturbativeConnection]:
    """berry_connection_perturbative at each lambda, with the base's
    eigenbasis, dV/dlambda and the denominators formed once."""
    if base.degenerate:
        raise DegeneracyError(
            "perturbative connection needs a non-degenerate base ground state"
        )
    psi0, evals, dV = base.ground_state, base.eigenvalues, derivative_family(V)
    # Components of V|psi0> and dV|psi0> in the excited eigenbasis, row per lambda.
    Vh = base.eigenvectors.conj().T
    w, u = np.array([[Vh @ (eval_hamiltonian(f, lam) @ psi0) for lam in lams]
                     for f in (V, dV)]).reshape(2, len(lams), evals.size)[:, :, 1:]
    # Im(conj(w_k) u_k / denom_k) rounded as numpy's scalar complex ops round it
    # (its vectorised product may not), summed over k left to right from 0.0.
    terms = (w.real * u.imag + -w.imag * u.real) * (1.0 / (evals[1:] - evals[0]) ** 2)
    s = np.add.accumulate(np.insert(terms, 0, 0.0, axis=1), axis=1)[:, -1]
    return [PerturbativeConnection(-(r ** 2) * x, bool(r >= base.gap / 4.0)) for x in s]


# ---------------------------------------------------------------------------
# Sweep emission
# ---------------------------------------------------------------------------


def write_sweep_csv(
    family: HamiltonianFamily, grid, path: str, h: float = 1e-4
) -> None:
    """CSV sweep of (lambda, E0, E1, gap, iA_lambda) over a grid.

    One gauge anchor (the dominant basis direction of the ground state at
    the first grid point) is used for every row, so the iA column is a
    single smooth gauge rather than per-row choices.
    """
    # Every row is computed before the file is opened, so a failing slice
    # leaves no partial sweep behind.  Only formatted rows are kept, never
    # the slices: the sweep holds one chunk of eigensystems at a time.
    rows = []
    anchor = None
    for lam, s, lo, hi in _stencil(family, lambda_grid(family, grid), h):
        if anchor is None:
            anchor = np.zeros(family.dim, dtype=complex)
            anchor[int(np.argmax(np.abs(s.ground_state)))] = 1.0
        conn = _connection(lam, h, anchor, lo, s, hi)
        rows.append([f"{lam:.10f}", f"{s.eigenvalues[0]:.12e}",
                     f"{s.eigenvalues[1]:.12e}", f"{s.gap:.12e}", f"{conn:.12e}"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "E0", "E1", "gap", "iA_lambda"])
        writer.writerows(rows)
