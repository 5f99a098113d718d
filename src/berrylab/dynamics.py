"""Adiabatic loop evolution at statevector precision.

The loop schedule is linear, lambda(t) = t/T, discretized into Trotter steps
that are each applied *exactly* (eigendecomposition of the instantaneous
Hamiltonian), so the only discretization is in freezing lambda within a step
at the step's midpoint.  The reversed direction
evolves under -H along the same lambda sequence, which is the partner
evolution that doubles the geometric phase while cancelling the dynamical
one.

An exact exponential at the step's midpoint is a second-order Magnus step:
its error scales with dt^2 ||[H, dH/dlam]||, not with H_max.  step_count
keeps dt * H_max <= 1/oversampling, which is the finest density a run may
take (the cap) and the count the step budget is checked against.  The
estimators in ``bpe`` build coarser: they start from guess_step_count and
keep the coarsest step count whose Berry phase an a-posteriori check
accepts.

For a lambda-independent family the step product collapses to a single
matrix exponential, which is used as an exact shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigError, NumericalError
from .exact import ground_state, lambda_grid, spectra, sweep
from .hamiltonians import (
    HamiltonianFamily,
    commutator_bound,
    derivative_family,
    eval_hamiltonian,
    norm_bounds,
)

DEFAULT_OVERSAMPLING = 10.0  # steps per unit of T * H_max
# guess_step_count's T sqrt(C) per step: an empirical scale at which the
# estimators' step check mostly accepts its first or second doubling.
STEP_GUESS_KAPPA = 0.5
CALIBRATION_DOUBLINGS = 40  # runtimes 1, 2, 4, ... tried by calibrate_runtime

# Exact per-step propagators are dense eigendecompositions; cap the total
# step count per estimation run so pathological (near-gapless) families fail
# fast with a capacity error instead of grinding.
MAX_TOTAL_STEPS = 2_000_000


@dataclass
class StateVector:
    """Dense state with named qubit registers.

    ``registers`` maps a name ('system', 'clock', 'ancilla', ...) to the
    tuple of global qubit indices it occupies, most significant first.
    Qubit 0 is the most significant bit of the amplitude index.
    """

    amplitudes: np.ndarray
    registers: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 2 or amp.size & (amp.size - 1):
            raise ConfigError("amplitudes must be a 1-d array of length 2**n")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > 1e-8:
            raise ConfigError(f"state not normalized: ||psi|| = {norm:.3e}")
        self.amplitudes = amp
        used = [q for qs in self.registers.values() for q in qs]
        if len(used) != len(set(used)):
            raise ConfigError("registers overlap")
        if used and (min(used) < 0 or max(used) >= self.n_qubits):
            raise ConfigError("register qubit index out of range")

    @property
    def n_qubits(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1


@dataclass(frozen=True)
class AdiabaticSchedule:
    """One traversal of the loop: runtime T split into exact Trotter steps."""

    T: float
    steps: int
    direction: str = "forward"

    def __post_init__(self) -> None:
        if self.T <= 0:
            raise ConfigError(f"runtime must be positive, got {self.T}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.direction not in ("forward", "reversed"):
            raise ConfigError(f"unknown direction {self.direction!r}")

    @property
    def dt(self) -> float:
        return self.T / self.steps


def make_schedule(
    family: HamiltonianFamily,
    T: float,
    oversampling: float = DEFAULT_OVERSAMPLING,
    direction: str = "forward",
) -> AdiabaticSchedule:
    """Schedule with enough steps that dt * H_max <= 1/oversampling."""
    if oversampling < 2.0:
        raise ConfigError(f"oversampling must be >= 2, got {oversampling}")
    steps = step_count(T, norm_bounds(family)[0], oversampling)
    return AdiabaticSchedule(T=T, steps=steps, direction=direction)


def step_count(T: float, h_max: float, oversampling: float) -> int:
    """Exact Trotter steps keeping dt * H_max <= 1/oversampling: the finest
    density, which calibration uses and the estimators' step check never
    exceeds.  A count that is not finite or over MAX_TOTAL_STEPS raises
    CapacityError."""
    steps = T * max(h_max, 1e-12) * oversampling
    if not steps <= MAX_TOTAL_STEPS:
        raise CapacityError(
            f"runtime T={T:.3e} needs {steps:.3e} exact Trotter steps, over "
            f"the per-run budget of {MAX_TOTAL_STEPS}"
        )
    return max(1, math.ceil(steps))


def guess_step_count(family: HamiltonianFamily, T: float) -> float:
    """Commutator guess T sqrt(C) / STEP_GUESS_KAPPA for the steps a loop of
    runtime T needs, C = commutator_bound(family): the phase error of the
    midpoint rule over the loop scales as (T sqrt(C) / steps)^2.  A float,
    unrounded, so a huge guess compares with the cap without overflow."""
    return T * math.sqrt(commutator_bound(family)) / STEP_GUESS_KAPPA


def _step_lambdas(schedule: AdiabaticSchedule) -> np.ndarray:
    """The midpoint of each step."""
    return (np.arange(schedule.steps, dtype=float) + 0.5) / schedule.steps


def _step_factors(family: HamiltonianFamily, schedule: AdiabaticSchedule):
    """Yield (V, phases) stacks over the sweep's chunks of consecutive exact
    steps, U_j = (V[j] * phases[j]) @ V[j]^dagger; a lambda-independent
    family is one step of length T at lambda = 0.  The unitaries still
    multiply one at a time, in step order."""
    sign = 1.0 if schedule.direction == "forward" else -1.0
    if family.is_constant():
        lams, dt = np.zeros(1), schedule.T
    else:
        lams, dt = _step_lambdas(schedule), schedule.dt
    for _, w, V in spectra(family, lams):
        yield V, np.exp(sign * -1j * w * dt)


def adiabatic_propagate(state, family: HamiltonianFamily, schedule: AdiabaticSchedule):
    """Evolve a state once around the loop.

    Accepts a bare amplitude vector or a StateVector whose 'system' register
    (or full register set) spans exactly the family's qubits, and returns the
    same type.
    """
    if isinstance(state, StateVector):
        if state.n_qubits != family.n_qubits:
            raise ConfigError(
                "state and family qubit counts differ; use controlled_power_apply "
                "for embedded registers"
            )
        out = adiabatic_propagate(state.amplitudes, family, schedule)
        return StateVector(out, dict(state.registers))
    vec = np.asarray(state, dtype=complex)
    if vec.shape != (family.dim,):
        raise ConfigError(f"state has shape {vec.shape}, expected ({family.dim},)")
    for V, phases in _step_factors(family, schedule):
        for A, B in zip(V * phases[:, None, :], V.conj().transpose(0, 2, 1)):
            vec = A @ (B @ vec)
    return vec


def loop_propagator(family: HamiltonianFamily, schedule: AdiabaticSchedule) -> np.ndarray:
    """Dense unitary for one traversal of the loop under the schedule."""
    W = np.eye(family.dim, dtype=complex)
    for V, phases in _step_factors(family, schedule):
        for U in (V * phases[:, None, :]) @ V.conj().transpose(0, 2, 1):
            W = U @ W
    return W


def controlled_power_apply(
    state: StateVector,
    family: HamiltonianFamily,
    schedule: AdiabaticSchedule,
    power: int,
    control: int,
) -> StateVector:
    """Apply (loop propagator)^power to the 'system' register, conditioned
    on the control qubit being |1>.

    Matrix powers are formed by binary exponentiation, which agrees with
    power-fold repetition of adiabatic_propagate to rounding error.
    """
    if power < 0:
        raise ConfigError(f"power must be >= 0, got {power}")
    if "system" not in state.registers:
        raise ConfigError("state needs a 'system' register")
    sys_axes = list(state.registers["system"])
    if len(sys_axes) != family.n_qubits:
        raise ConfigError(
            f"system register has {len(sys_axes)} qubits, family needs "
            f"{family.n_qubits}"
        )
    if control in sys_axes:
        raise ConfigError("control qubit lies inside the system register")
    n = state.n_qubits
    if not (0 <= control < n):
        raise ConfigError(f"control qubit {control} out of range")
    if power == 0:
        return StateVector(state.amplitudes.copy(), dict(state.registers))

    W = loop_propagator(family, schedule)
    Wp = np.linalg.matrix_power(W, power)

    psi = state.amplitudes.reshape((2,) * n)
    src = [control] + sys_axes
    dst = [0] + list(range(n - len(sys_axes), n))
    psi = np.moveaxis(psi, src, dst)
    shape = psi.shape
    psi = psi.reshape(2, -1, family.dim)
    psi = psi.copy()
    psi[1] = psi[1] @ Wp.T  # rows of psi[1] are amplitude vectors
    psi = psi.reshape(shape)
    psi = np.moveaxis(psi, dst, src)
    return StateVector(psi.reshape(-1), dict(state.registers))


# ---------------------------------------------------------------------------
# Runtime selection
# ---------------------------------------------------------------------------


def required_runtime(
    family: HamiltonianFamily,
    delta_adia: float,
    gap: float | None = None,
    grid: int = 64,
) -> float:
    """Worst-case adiabatic runtime bound for loop infidelity delta_adia^2.

    T >= (1e5 / delta_adia^2) * max(dH^3 / gap^4, dH * d2H / gap^3), with the
    certified sup-norm bounds for the first two lambda-derivatives.  The gap
    is measured on a grid unless a promised value is supplied.
    """
    if not (0.0 < delta_adia < 1.0):
        raise ConfigError(f"delta_adia must be in (0, 1), got {delta_adia}")
    if gap is None:
        from .exact import min_gap

        gap, _ = min_gap(family, grid)
    if gap <= 0:
        raise ConfigError(f"gap must be positive, got {gap}")
    _, d1, d2 = norm_bounds(family)
    return (1e5 / delta_adia ** 2) * max(d1 ** 3 / gap ** 4, d1 * d2 / gap ** 3)


def loop_infidelity(
    family: HamiltonianFamily,
    T: float,
    oversampling: float = DEFAULT_OVERSAMPLING,
) -> float:
    """1 - |<psi0| U(T) |psi0>|^2 for the exact ground state at lambda = 0."""
    _, psi0 = ground_state(family, 0.0)
    schedule = make_schedule(family, T, oversampling=oversampling)
    out = adiabatic_propagate(psi0, family, schedule)
    return max(0.0, 1.0 - abs(np.vdot(psi0, out)) ** 2)


def phase_lag_scale(family: HamiltonianFamily, grid: int = 64) -> float:
    """1/T coefficient of the loop eigenphase's lag behind -E0 T + theta_B.

    Traversing the loop at finite rate dresses the tracked eigenstate, and
    second-order response in the rate shifts the propagator eigenphase by
    about G/T with

        G = integral_0^1 sum_{k>0} |<k| dH/dlam |0>|^2 / (E_k - E0)^3 dlam

    (all quantities at fixed lambda; the shift is a level-repulsion push, so
    G >= 0).  Unlike the end-state infidelity, which falls off as 1/T^2,
    this lag is first order in 1/T and is what limits phase accuracy at
    moderate runtimes, so runtime selection must floor T against it
    explicitly.
    """
    if grid < 4:
        raise ConfigError(f"phase-lag grid must be >= 4, got {grid}")
    if family.is_constant():
        return 0.0
    dfam = derivative_family(family, 1)
    total = 0.0
    # The sweep refuses a degenerate slice: no finite adiabatic runtime
    # without a gap.
    for s in sweep(family, lambda_grid(family, grid, offset=0.5)):
        V = s.eigenvectors
        denom = s.eigenvalues[1:] - s.eigenvalues[0]
        amps = V[:, 1:].conj().T @ (eval_hamiltonian(dfam, s.lam) @ V[:, 0])
        total += float(np.sum(np.abs(amps) ** 2 / denom ** 3))
    return total / grid


def calibrate_runtime(
    family: HamiltonianFamily,
    delta_adia: float,
    oversampling: float = DEFAULT_OVERSAMPLING,
) -> tuple[float, dict]:
    """Smallest runtime T = 2^k, k = 0 .. CALIBRATION_DOUBLINGS - 1, with
    measured loop infidelity at most delta_adia^2.  Desk-scale replacement
    for the worst-case bound; returns (T, diagnostics)."""
    if not (0.0 < delta_adia < 1.0):
        raise ConfigError(f"delta_adia must be in (0, 1), got {delta_adia}")
    infidelity_target = delta_adia ** 2
    tested = []
    T = 1.0
    for _ in range(CALIBRATION_DOUBLINGS):
        infid = loop_infidelity(family, T, oversampling=oversampling)
        tested.append((T, infid))
        if infid <= infidelity_target:
            return T, {"tested": tested, "infidelity": infid,
                       "target": infidelity_target}
        T *= 2.0
    raise NumericalError(
        f"no runtime up to T={T / 2:.3e} reached loop infidelity "
        f"{infidelity_target:.3e}; last measured {tested[-1][1]:.3e}"
    )
