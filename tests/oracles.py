"""Independent reference implementations the tests check the package against.

Everything here is deliberately built from different primitives than the
package uses: propagators call scipy.linalg.expm on densely evaluated
Hamiltonians, derivatives come from central differences, and Berry phases
from a raw overlap product over independently re-phased eigenvectors.
Slow and simple on purpose.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from berrylab.hamiltonians import eval_hamiltonian


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
        shift = 0.5 if schedule.trotter_order == 2 else 0.0
        lams = [(j + shift) / schedule.steps for j in range(schedule.steps)]
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
