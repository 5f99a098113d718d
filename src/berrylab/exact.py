"""Exact-diagonalization ground truth for loop families.

Everything here works on dense spectra: instantaneous eigensystems, minimum
spectral gaps along the loop, Wilson-loop Berry phases (gauge invariant by
construction) with a discretization error estimate, and the local Berry
connection both exactly (finite differences in an explicitly anchored gauge)
and to leading order in a perturbation strength r.  Every scan along the
loop, and the step kernel in dynamics, takes its eigensystems from one
chunked sweep (spectra, sweep).

All reported angles live in [0, 2 pi).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .angles import circle_distance, wrap_2pi
from .errors import CapacityError, ConfigError, DegeneracyError, NumericalError
from .hamiltonians import HamiltonianFamily, eval_hamiltonian, eval_hamiltonians

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
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # columns, unitary
    gap: float  # E1 - E0
    degenerate: bool  # ground gap below the degeneracy threshold
    family: HamiltonianFamily

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
        return self.eigenvectors[:, 0]


# Bytes per stacked complex (n, d, d) array of a sweep: 64 points at d = 16,
# one point from d = 128 on.  Larger chunks raise peak memory and gain little;
# each point gets the bits of a one-point solve whatever else is in its stack.
_CHUNK_BYTES = 256 * 1024

# Families below this dimension are solved whole even when H(lambda) is block
# diagonal, so their eigensystems keep the bits that tests and outputs pin.
_SPLIT_MIN_DIM = 64


def spectra(family: HamiltonianFamily, lams):
    """Yield (lams, eigenvalues, eigenvectors) over consecutive chunks of a
    lambda sequence: one stack of H(lambda) per chunk, no stack above
    _CHUNK_BYTES unless a single matrix is, solved by _eigh_blocks."""
    lams = np.asarray(lams, dtype=float)
    chunk = max(1, _CHUNK_BYTES // (16 * family.dim ** 2))
    for start in range(0, lams.size, chunk):
        part = lams[start:start + chunk]
        yield (part, *_eigh_blocks(eval_hamiltonians(family, part)))


def _blocks(pattern: np.ndarray) -> np.ndarray:
    """Connected-component label of each basis index under a symmetric
    boolean pattern: the smallest index of its component."""
    rows, cols = np.nonzero(pattern)
    labels = np.arange(pattern.shape[0])
    while True:
        # Take the smallest label among the neighbours, then jump pointers:
        # labels only fall, and stop once constant on every component.
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _block_groups(H: np.ndarray) -> list:
    """The decoupled blocks of a stack H, shape (n, d, d): one (count, size)
    array of basis indices per block size, each block's indices ascending.
    [None] when H is solved whole: a connected pattern, or d below
    _SPLIT_MIN_DIM.

    The blocks are the connected components of the entries that are nonzero
    in any matrix of the stack, so every entry they leave out is exactly 0.0.
    """
    if H.shape[-1] < _SPLIT_MIN_DIM:
        return [None]
    labels = _blocks((H != 0).any(axis=0))
    sizes = np.unique(labels, return_counts=True)[1]
    if sizes.size == 1:
        return [None]
    members = np.argsort(labels, kind="stable")  # block by block, ascending
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return [members[starts[sizes == s][:, None] + np.arange(s)] for s in np.unique(sizes)]


def _eigh_blocks(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked eigh of H, shape (n, d, d), with one batched call per block
    size of _block_groups.  A block's eigenpairs take its own indices as
    slots, and a stable sort of the slots' eigenvalues orders the columns."""
    groups = _block_groups(H)
    solved = [np.linalg.eigh(H if idx is None else H[:, idx[:, :, None], idx[:, None, :]])
              for idx in groups]
    if groups[0] is None:
        return solved[0]
    n, d, _ = H.shape
    w = np.empty((n, d))
    for idx, (bw, _) in zip(groups, solved):
        w[:, idx] = bw
    order = np.argsort(w, axis=1, kind="stable")
    rank = np.empty_like(order)  # rank[p, slot]: the slot's column in V
    np.put_along_axis(rank, order, np.arange(d)[None, :], axis=1)
    V = np.zeros((n, d, d), dtype=complex)
    points = np.arange(n)[:, None, None, None]
    for idx, (_, bV) in zip(groups, solved):
        V[points, idx[None, :, :, None], rank[:, idx][:, :, None, :]] = bV
    return np.take_along_axis(w, order, axis=1), V


def _slice(family: HamiltonianFamily, lam, evals, evecs) -> SpectrumSlice:
    scale = max(1.0, float(np.max(np.abs(evals))) if evals.size else 1.0)
    gap = float(evals[1] - evals[0]) if evals.size > 1 else math.inf
    return SpectrumSlice(
        lam=float(lam),
        eigenvalues=evals,
        eigenvectors=evecs,
        gap=gap,
        degenerate=gap < DEGENERACY_RTOL * scale,
        family=family,
    )


def _gapped(s: SpectrumSlice) -> SpectrumSlice:
    if s.degenerate:
        raise DegeneracyError(
            f"degenerate ground space at lambda={s.lam:.6f} (gap={s.gap:.3e})"
        )
    return s


def sweep(family: HamiltonianFamily, lams):
    """Yield the SpectrumSlice at each lambda in order, refusing a
    numerically degenerate ground space: the one spectral sweep along the
    loop.  A slice's arrays are views into its chunk's stacks, so a slice
    kept alive keeps that chunk's eigenvectors alive."""
    for part, w, V in spectra(family, lams):
        for lam, evals, evecs in zip(part, w, V):
            yield _gapped(_slice(family, lam, evals, evecs))


def diagonalize(family: HamiltonianFamily, lam: float) -> SpectrumSlice:
    """Full eigensystem at one lambda; its residual is formed on demand."""
    ((_, w, V),) = spectra(family, [lam])
    return _slice(family, lam, w[0], V[0])


def gapped_slice(family: HamiltonianFamily, lam: float) -> SpectrumSlice:
    """diagonalize(family, lam), refusing a numerically degenerate ground
    space by the rule every sweep applies."""
    return _gapped(diagonalize(family, lam))


def ground_state(family: HamiltonianFamily, lam: float) -> tuple[float, np.ndarray]:
    """(E0, |psi0>) at lambda; refuses a numerically degenerate ground space."""
    s = gapped_slice(family, lam)
    return s.ground_energy, s.ground_state


def min_gap(family: HamiltonianFamily, grid) -> tuple[float, float]:
    """Minimum E1 - E0 over a lambda grid and its argmin.

    ``grid`` is either a point count (uniform grid on [0, 1)) or an explicit
    sequence of lambdas.  Raises DegeneracyError naming the offending lambda
    if any slice is degenerate.
    """
    lams = lambda_grid(family, grid)
    best_gap = math.inf
    best_lam = float(lams[0])
    for s in sweep(family, lams):
        if s.gap < best_gap:
            best_gap, best_lam = s.gap, s.lam
    return best_gap, best_lam


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


# ---------------------------------------------------------------------------
# Wilson loop
# ---------------------------------------------------------------------------


@dataclass
class BerryPhaseResult:
    """Wilson-loop estimate of the ground-state Berry phase."""

    theta_B: float  # in [0, 2 pi)
    grid_size: int
    converged: bool
    estimated_discretization_error: float
    min_overlap: float  # smallest adjacent |<psi_j|psi_{j+1}>| seen

    def to_json_dict(self) -> dict:
        return {
            "theta_B": self.theta_B,
            "grid_size": self.grid_size,
            "converged": self.converged,
            "estimated_discretization_error": self.estimated_discretization_error,
            "min_overlap": self.min_overlap,
        }


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
    """Berry phase of the ground band from an N-point Wilson loop.

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
    # They are the solver's column views: a copy would move the last bit.
    full, half = [], []
    first = prev = prev2 = None
    for j, s in enumerate(sweep(family, lambda_grid(family, N))):
        psi = s.ground_state
        if j == 0:
            first = psi
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
    from .hamiltonians import derivative_family

    if base.degenerate:
        raise DegeneracyError(
            "perturbative connection needs a non-degenerate base ground state"
        )
    psi0 = base.ground_state
    evals = base.eigenvalues
    Vm = eval_hamiltonian(V, lam)
    dVm = eval_hamiltonian(derivative_family(V), lam)
    # Components of V|psi0> and dV|psi0> in the excited eigenbasis.
    w = base.eigenvectors.conj().T @ (Vm @ psi0)
    u = base.eigenvectors.conj().T @ (dVm @ psi0)
    denom = (evals - evals[0]) ** 2
    s = 0.0
    for k in range(1, evals.size):
        s += (np.conj(w[k]) * u[k] / denom[k]).imag
    return PerturbativeConnection(
        value=-(r ** 2) * s,
        regime_warning=bool(r >= base.gap / 4.0),
    )


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
            anchor = np.zeros(s.eigenvalues.size, dtype=complex)
            anchor[int(np.argmax(np.abs(s.ground_state)))] = 1.0
        conn = _connection(lam, h, anchor, lo, s, hi)
        rows.append([f"{lam:.10f}", f"{s.eigenvalues[0]:.12e}",
                     f"{s.eigenvalues[1]:.12e}", f"{s.gap:.12e}", f"{conn:.12e}"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "E0", "E1", "gap", "iA_lambda"])
        writer.writerows(rows)
