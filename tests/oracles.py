"""Independent reference implementations the tests check the package against.

Everything here is deliberately built from different primitives than the
package uses: propagators call scipy.linalg.expm on densely evaluated
Hamiltonians, derivatives come from central differences, and Berry phases
from a raw overlap product over independently re-phased eigenvectors.
Slow and simple on purpose.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np
import scipy.linalg

from berrylab.angles import circle_distance, wrap_2pi
from berrylab.bpe import _dominant_phase, reconstruct_phases
from berrylab.dynamics import AdiabaticSchedule, loop_propagator
from berrylab.errors import ConfigError
from berrylab.exact import ground_state
from berrylab.hamiltonians import derivative_family, eval_hamiltonian
from berrylab.qpe import bits_for_precision, distribution_for_unitary


def expm_loop(family, T: float, steps: int, conjugate: bool = False) -> np.ndarray:
    """Step-exponential product around the loop, midpoint lambda grid.

    With conjugate=False each step is expm(-i H(lam_j) dt), i.e. ordinary
    Schroedinger evolution; conjugate=True flips every step to
    expm(+i H(lam_j) dt) while keeping the same ascending lambda order.
    """
    dt = T / steps
    sgn = 1j if conjugate else -1j
    W = np.eye(family.dim, dtype=complex)
    for j in range(steps):
        H = eval_hamiltonian(family, (j + 0.5) / steps)
        W = scipy.linalg.expm(sgn * H * dt) @ W
    return W


def expm_evolve(family, vec: np.ndarray, T: float, steps: int) -> np.ndarray:
    return expm_loop(family, T, steps) @ np.asarray(vec, dtype=complex)


# Pinned step-by-step kernel ---------------------------------------------------
#
# One eigh(eval_hamiltonian(family, lam_j)) per exact step, in step order: the
# per-step form of the chunked dynamics._step_factors.  Same lambda grid and
# step sign.  The step-by-step state evolution has the package's order, so it
# must match bit for bit; so must the pairwise propagator, which reassociates
# the product as the package does.  The step-by-step propagator is the
# reference that reassociation is measured against.


def _stepwise_factors(family, schedule):
    sign = 1.0 if schedule.direction == "forward" else -1.0
    for j in range(schedule.steps):
        w, V = np.linalg.eigh(eval_hamiltonian(family, (j + 0.5) / schedule.steps))
        yield V, np.exp(sign * -1j * w * schedule.dt)


def stepwise_loop_propagator(family, schedule) -> np.ndarray:
    W = np.eye(family.dim, dtype=complex)
    for V, phases in _stepwise_factors(family, schedule):
        W = ((V * phases) @ V.conj().T) @ W
    return W


def pairwise_loop_propagator(family, schedule, chunk: int) -> np.ndarray:
    """The same step unitaries, a list of 2-d products per chunk of ``chunk``
    consecutive steps: each level multiplies neighbours (later @ earlier),
    an odd last one passes up unchanged, and the chunk products multiply in
    step order.  The package's log-depth product must match it bit for bit."""
    steps = [(V * phases) @ V.conj().T for V, phases in _stepwise_factors(family, schedule)]
    W = np.eye(family.dim, dtype=complex)
    for start in range(0, len(steps), chunk):
        level = steps[start:start + chunk]
        while len(level) > 1:
            odd = level[-1:] if len(level) % 2 else []
            level = [later @ earlier for earlier, later in zip(level[0::2], level[1::2])] + odd
        W = level[0] @ W
    return W


def stepwise_propagate(vec: np.ndarray, family, schedule) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    for V, phases in _stepwise_factors(family, schedule):
        vec = (V * phases) @ (V.conj().T @ vec)
    return vec


# One sweep per leg ---------------------------------------------------------------
#
# BpeEngine._pair with each leg built by a loop_propagator of its own: one
# sweep per schedule, nothing kept for the next level.  Every point of a sweep
# keeps the bits of a one-point solve and each schedule's phases and products
# are formed on their own, so the engine's distributions and step check, with
# legs of two levels from one sweep, must match these bit for bit.  With
# whole_space, the legs span the whole space and start from the full ground
# state, as they did before the engine propagated psi0's sector alone.


def per_leg_pair(engine, steps: int, whole_space: bool = False) -> tuple[dict, float]:
    """The engine's pair at ``steps`` steps per runtime T, one sweep per leg."""
    steps_alpha = engine._alpha_steps(steps)
    alpha, dt = steps_alpha / steps, engine.T / steps
    eps_ph = engine.config.epsilon_B * (alpha - 1.0) / (alpha + 1.0)
    m = bits_for_precision(0.5 * eps_ph)
    legs = [AdiabaticSchedule(engine.T, steps), AdiabaticSchedule(dt * steps_alpha, steps_alpha)]
    sector, psi0 = ((None, ground_state(engine.family, 0.0)[1]) if whole_space
                    else (engine.sector, engine.psi0))
    dist1, dist_alpha = (
        distribution_for_unitary(loop_propagator(engine.family, leg, sector=sector), psi0, m)
        for leg in legs
    )
    _, theta_B = reconstruct_phases(_dominant_phase(dist1), _dominant_phase(dist_alpha),
                                    alpha, engine.config.alpha_mode)
    return {
        "steps": steps, "steps_alpha": steps_alpha, "alpha": alpha, "dt": dt,
        "T_alpha": legs[1].T, "eps_ph": eps_ph, "m": m,
        "dist1": dist1, "dist_alpha": dist_alpha,
    }, theta_B


# Float angle maps on the math module ------------------------------------------
#
# The branch maps as plain float code, one angle at a time: the reference that
# berrylab.angles' numpy maps must match bit for bit, on floats and on arrays.


def math_wrap_2pi(x: float) -> float:
    y = math.fmod(x, 2.0 * math.pi)
    if y < 0.0:
        y += 2.0 * math.pi
    if y >= 2.0 * math.pi:
        y -= 2.0 * math.pi
    return y + 0.0


def math_wrap_pm_pi(x: float) -> float:
    if -math.pi < x <= math.pi:
        return x + 0.0
    y = math_wrap_2pi(x)
    return y - 2.0 * math.pi if y > math.pi else y


# Pinned point-by-point scans --------------------------------------------------
#
# One eigh(eval_hamiltonian(family, lam)) per lambda, in grid order: the
# per-point form of the chunked exact.sweep.  Same lambdas, same gauge and
# stencil rules, same sums in the same order, so every scan along the loop
# must match these bit for bit.  The sweep CSV re-solves each row's centre,
# as the point-by-point scan did.


def _point(family, lam):
    return np.linalg.eigh(eval_hamiltonian(family, lam))


def pointwise_min_gap(family, lams) -> tuple[float, float]:
    best_gap, best_lam = math.inf, float(lams[0])
    for lam in lams:
        w, _ = _point(family, lam)
        if float(w[1] - w[0]) < best_gap:
            best_gap, best_lam = float(w[1] - w[0]), float(lam)
    return best_gap, best_lam


def _chain_angle(states) -> tuple[float, float]:
    total, min_abs = 0.0, 1.0
    for j in range(len(states)):
        o = complex(np.vdot(states[j], states[(j + 1) % len(states)]))
        min_abs = min(min_abs, abs(o))
        total += math.atan2(o.imag, o.real)
    return wrap_2pi(-total), min_abs


def pointwise_wilson(family, lams) -> dict:
    """BerryPhaseResult.to_json_dict() of the Wilson loop over lams, its
    minimum gap and first point's gap read from the same per-point solves."""
    points = [_point(family, lam) for lam in lams]
    states = [V[:, 0] for _, V in points]
    theta, min_overlap = _chain_angle(states)
    theta_half, _ = _chain_angle(states[::2])
    est = max(circle_distance(theta, theta_half) / 2.0, 1e-11)
    gap, gap_lam = math.inf, float(lams[0])
    for lam, (w, _) in zip(lams, points):
        if float(w[1] - w[0]) < gap:
            gap, gap_lam = float(w[1] - w[0]), float(lam)
    return {
        "theta_B": theta,
        "grid_size": len(lams),
        "converged": est <= 1e-5 and min_overlap >= 0.9,
        "estimated_discretization_error": est,
        "min_overlap": min_overlap,
        "min_gap": gap,
        "min_gap_lambda": gap_lam,
        "gap_lambda0": float(points[0][0][1] - points[0][0][0]),
    }


def pointwise_connection(family, lam, h: float = 1e-4, anchor=None) -> float:
    states = [_point(family, x)[1][:, 0] for x in (lam - h, lam, lam + h)]
    if anchor is None:
        mags = np.abs(states[1])
        idx = int(np.argmax(mags >= mags.max() * (1.0 - 1e-6)))
        projections = [psi[idx] for psi in states]
    else:
        projections = [complex(np.vdot(anchor, psi)) for psi in states]
    rotated = [psi * (abs(p) / p) for psi, p in zip(states, projections)]
    o_in = complex(np.vdot(rotated[0], rotated[1]))
    o_out = complex(np.vdot(rotated[1], rotated[2]))
    value = -(math.atan2(o_in.imag, o_in.real) + math.atan2(o_out.imag, o_out.real))
    return value / (2.0 * h) + 0.0


def pointwise_sweep_csv(family, lams, h: float = 1e-4) -> bytes:
    """The bytes write_sweep_csv writes for the grid lams."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["lambda", "E0", "E1", "gap", "iA_lambda"])
    anchor = None
    for lam in lams:
        w, V = _point(family, lam)
        if anchor is None:
            anchor = np.zeros(w.size, dtype=complex)
            anchor[int(np.argmax(np.abs(V[:, 0])))] = 1.0
        conn = pointwise_connection(family, lam, h, anchor)
        writer.writerow([f"{lam:.10f}", f"{w[0]:.12e}", f"{w[1]:.12e}",
                         f"{float(w[1] - w[0]):.12e}", f"{conn:.12e}"])
    return buf.getvalue().encode()


def pointwise_phase_lag(family, lams) -> float:
    dfam = derivative_family(family, 1)
    total = 0.0
    for lam in lams:
        w, V = _point(family, lam)
        amps = V[:, 1:].conj().T @ (eval_hamiltonian(dfam, lam) @ V[:, 0])
        total += float(np.sum(np.abs(amps) ** 2 / (w[1:] - w[0]) ** 3))
    return total / len(lams)


def pointwise_perturbative_connection(base, V, r: float, lam: float) -> float:
    """berry_connection_perturbative's value at one lambda, with the base's
    eigenbasis adjoint and dV/dlambda formed again for the point."""
    psi0, evals = base.ground_state, base.eigenvalues
    Vh = base.eigenvectors.conj().T
    w = Vh @ (eval_hamiltonian(V, lam) @ psi0)
    u = Vh @ (eval_hamiltonian(derivative_family(V), lam) @ psi0)
    s = 0.0
    for k in range(1, evals.size):
        s += (np.conj(w[k]) * u[k] / (evals[k] - evals[0]) ** 2).imag
    return -(r ** 2) * s


_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def kron_pauli(axes: str) -> np.ndarray:
    """Dense Pauli string as a chain of Kronecker products, qubit 0 leftmost."""
    out = np.eye(1, dtype=complex)
    for a in axes:
        out = np.kron(out, _PAULI_MATRICES[a])
    return out


def kron_local_pauli_coeffs(matrix: np.ndarray) -> list[tuple[str, float]]:
    """Pauli-string expansion of a small Hermitian matrix, one kron_pauli
    string at a time: c_P = sum(P * M^T) / 2^k, labels in
    itertools.product("IXYZ") order, the same refusal and drop thresholds
    as hardness._local_pauli_coeffs."""
    dim = matrix.shape[0]
    k = dim.bit_length() - 1
    out = []
    for letters in itertools.product("IXYZ", repeat=k):
        axes = "".join(letters)
        c = complex(np.sum(kron_pauli(axes) * matrix.T)) / dim
        if abs(c.imag) > 1e-10:
            raise ConfigError("local operator is not Hermitian")
        if abs(c.real) > 1e-12:
            out.append((axes, float(c.real)))
    return out


def fd_family_derivative(family, lam: float, h: float = 1e-6) -> np.ndarray:
    """Central-difference d/dlam of the dense Hamiltonian."""
    return (eval_hamiltonian(family, lam + h) - eval_hamiltonian(family, lam - h)) / (
        2.0 * h
    )


def overlap_product_phase(family, N: int, rng: np.random.Generator | None = None) -> float:
    """Berry phase from the raw ground-state overlap product.

    The eigensolver's phases are arbitrary; passing an rng additionally
    scrambles each vector by a fresh random phase, which must not move the
    answer (the product telescopes every local phase away).
    """
    states = []
    for j in range(N):
        w, V = np.linalg.eigh(eval_hamiltonian(family, j / N))
        v = V[:, 0]
        if rng is not None:
            v = v * np.exp(2j * np.pi * rng.random())
        states.append(v)
    prod = 1.0 + 0.0j
    for j in range(N):
        prod *= np.vdot(states[j], states[(j + 1) % N])
    return float(np.mod(-np.angle(prod), 2.0 * np.pi))


def ground_pair(family, lam: float) -> tuple[float, np.ndarray]:
    w, V = np.linalg.eigh(eval_hamiltonian(family, lam))
    return float(w[0]), V[:, 0]


def dense_norm(family, lam: float) -> float:
    return float(np.linalg.norm(eval_hamiltonian(family, lam), 2))


def pattern_sectors(family, lam: float = 0.2137) -> list:
    """The connected components of H(lam)'s nonzero pattern, from
    scipy.sparse.csgraph: one (count, size) array of basis indices per block
    size, sizes ascending, blocks by their smallest index, each ascending."""
    import scipy.sparse
    from scipy.sparse.csgraph import connected_components

    pattern = scipy.sparse.csr_matrix(eval_hamiltonian(family, lam) != 0)
    n, labels = connected_components(pattern, directed=False)
    blocks = sorted(np.flatnonzero(labels == c).tolist() for c in range(n))
    return [np.array([b for b in blocks if len(b) == s])
            for s in sorted({len(b) for b in blocks})]


def ungrouped_column_amps(family, members) -> np.ndarray:
    """exact._column_amps one column at a time, with no grouping of equal
    columns: per column x and amplitude row (the constant, then each harmonic
    j's cosine and sine, j ascending over the members' harmonics), one
    math.fsum over the members of a_i times vals_i[x]'s real part, taken as an
    int, one of its imaginary part, and a complex made from the two sums."""
    coeffs = [family.terms[k][1] for k, _ in members]
    harmonics = sorted({j for c in coeffs for j, _ in (*c.cos_terms, *c.sin_terms)})
    rows = [[c.const for c in coeffs]]
    for j in harmonics:
        rows += [[dict(c.cos_terms).get(j, 0.0) for c in coeffs],
                 [dict(c.sin_terms).get(j, 0.0) for c in coeffs]]
    out = np.empty((len(rows), family.dim), dtype=complex)
    for x in range(family.dim):
        column = [v[x] for _, v in members]
        for r, amps in enumerate(rows):
            out[r, x] = complex(math.fsum(a * int(v.real) for a, v in zip(amps, column)),
                                math.fsum(a * int(v.imag) for a, v in zip(amps, column)))
    return out


# Closed forms for the single-qubit reference loops -------------------------
#
# H(lam) = -(cos 2 pi lam X + sin 2 pi lam Y) traces the equator of the
# Bloch sphere; its ground band encloses half the sphere, so the geometric
# phase is pi, the ground energy is -1 everywhere, and the finite-runtime
# loop eigenphase has the exact rotating-frame value pi + sqrt(T^2 + pi^2).

EQUATORIAL_THETA_B = np.pi
EQUATORIAL_E0 = -1.0


def equatorial_loop_eigenphase(T: float) -> float:
    """Exact arg of the dressed ground eigenvalue of the equatorial loop."""
    return float(np.mod(np.pi + np.sqrt(T * T + np.pi * np.pi), 2.0 * np.pi))


def equatorial_phase_lag_coefficient() -> float:
    """Large-T coefficient of the lag behind the ideal -E0 T + theta_B."""
    return float(np.pi * np.pi / 2.0)


def tilted_theta_B(polar_angle: float) -> float:
    """Solid-angle phase pi (1 - cos a) for a loop at fixed polar angle."""
    return float(np.mod(np.pi * (1.0 - np.cos(polar_angle)), 2.0 * np.pi))


def fejer_row(phi: float, m: int) -> np.ndarray:
    """F_m(phi - 2 pi j / 2^m) for j = 0 .. 2^m - 1, the textbook m-bit QPE
    outcome probabilities of one eigenphase, tabulated densely."""
    M = 2 ** m
    theta = phi - 2.0 * np.pi * np.arange(M) / M
    half = 0.5 * theta
    s = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        row = (np.sin(M * half) / (M * s)) ** 2
    row[np.abs(s) < 1e-12] = 1.0
    return row


def readout_sample_outcomes(dist, R: int, uniforms, at_edge=None):
    """qpe.sample_outcomes with every bit's probability evaluated per
    readout: the same component pick, fractions and sin^2 formula, with the
    bits read so far held as a float, so each probability is formed from
    the same float64 operands as the package's (component, prefix) table.

    With at_edge, a bool array of the shape of uniforms[..., 1:], bit b's
    uniform is replaced by its probability (False) or the float below it
    (True), so a probability one ulp off flips a bit; the outcomes are then
    returned with the uniforms they were read from."""
    m, u = dist.m, np.array(uniforms, dtype=float)
    keep = np.flatnonzero(dist.weights > 1e-14)
    cum = np.cumsum(dist.weights[keep])
    pick = np.minimum(np.searchsorted(cum, u[..., 0] * cum[-1], side="right"), keep.size - 1)
    scales = 2.0 ** np.arange(m - 1, -1, -1)
    frac = np.mod(np.outer(scales, dist.phases[keep] / (2.0 * np.pi)), 1.0)
    j = np.zeros(pick.shape)
    for b in range(m):
        one = np.sin(np.pi * (frac[b][pick] - j / 2.0 ** (b + 1))) ** 2  # P(bit b = 1)
        if at_edge is not None:
            u[..., b + 1] = np.where(at_edge[..., b], np.nextafter(one, 0.0), one)
        j += (u[..., b + 1] < one) * 2.0 ** b
    return j.astype(np.int64) if at_edge is None else (j.astype(np.int64), u)


def cube_circular_median(angles):
    """The circle-distance cube form of qpe.circular_median: every sample's
    summed |(x - y + pi) mod 2 pi - pi| to all samples, and the least sum,
    exact float ties to the smallest angle in [0, 2 pi]; one per row."""
    w = np.mod(np.asarray(angles, dtype=float), 2.0 * np.pi)
    diff = w[..., :, None] - w[..., None, :]
    cost = np.abs((diff + np.pi) % (2.0 * np.pi) - np.pi).sum(axis=-1)
    first = np.lexsort((w, cost))[..., :1]
    return np.take_along_axis(w, first, axis=-1)[..., 0]


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) one Python int at a time: the
# generator's own state walk, not the package's closed form over arrays.
_MASK64 = 2**64 - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_mix(z: int) -> int:
    """SplitMix64's finaliser of one 64-bit int."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def splitmix64_key(seed: int, *path: int) -> int:
    """The stream key of an int seed >= 0: its 64-bit words, low first, each
    xored into the running key and mixed, from the mixed word count; with a
    path (c, k, ...), the key of its child c, then that child's child k."""
    words = [seed >> shift & _MASK64 for shift in range(0, max(seed.bit_length(), 1), 64)]
    key = splitmix64_mix(len(words))
    for word in words:
        key = splitmix64_mix(key ^ word)
    for c in path:
        key = splitmix64_mix(key ^ splitmix64_mix((c + 1) * _GOLDEN_GAMMA & _MASK64))
    return key


def splitmix64_uniforms(key: int, n: int) -> list:
    """The first n outputs of SplitMix64 seeded with key, each as its top 53
    bits over 2^53: the state steps by the golden gamma before each output."""
    out = []
    for _ in range(n):
        key = key + _GOLDEN_GAMMA & _MASK64
        out.append((splitmix64_mix(key) >> 11) / 2**53)
    return out
