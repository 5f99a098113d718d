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
import math

import numpy as np
import scipy.linalg

from berrylab.angles import circle_distance, wrap_2pi
from berrylab.hamiltonians import derivative_family, eval_hamiltonian


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
# per-step form of the chunked dynamics._step_factors.  Same lambda grid, step
# sign and product order, so the package must match it bit for bit.


def _stepwise_factors(family, schedule):
    sign = 1.0 if schedule.direction == "forward" else -1.0
    if family.is_constant():
        lams, dt = [0.0], schedule.T
    else:
        lams = [(j + 0.5) / schedule.steps for j in range(schedule.steps)]
        dt = schedule.dt
    for lam in lams:
        w, V = np.linalg.eigh(eval_hamiltonian(family, lam))
        yield V, np.exp(sign * -1j * w * dt)


def stepwise_loop_propagator(family, schedule) -> np.ndarray:
    W = np.eye(family.dim, dtype=complex)
    for V, phases in _stepwise_factors(family, schedule):
        W = ((V * phases) @ V.conj().T) @ W
    return W


def stepwise_propagate(vec: np.ndarray, family, schedule) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    for V, phases in _stepwise_factors(family, schedule):
        vec = (V * phases) @ (V.conj().T @ vec)
    return vec


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
    """BerryPhaseResult.to_json_dict() of the Wilson loop over lams."""
    states = [_point(family, lam)[1][:, 0] for lam in lams]
    theta, min_overlap = _chain_angle(states)
    theta_half, _ = _chain_angle(states[::2])
    est = max(circle_distance(theta, theta_half) / 2.0, 1e-11)
    return {
        "theta_B": theta,
        "grid_size": len(lams),
        "converged": est <= 1e-5 and min_overlap >= 0.9,
        "estimated_discretization_error": est,
        "min_overlap": min_overlap,
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
