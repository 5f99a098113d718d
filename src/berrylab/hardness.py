"""Circuit-to-Hamiltonian constructions with a loop perturbation.

A circuit U_T ... U_1 on n system qubits, padded with M idle steps, compiles
to the standard 5-local clock Hamiltonian on n + (T+M) qubits,

    H_hist = H_in + H_prop + H_clock,

whose null space is spanned by history states: uniform superpositions of
partial computations entangled with a unary clock 1^t 0^(T+M-t).  H_in
penalizes non-witness system qubits in |1> at clock zero, H_clock penalizes
illegal (non-unary) clock configurations, and each propagation term is

    H_t = -1/2 U_t (x) |t><t-1| - 1/2 U_t^dag (x) |t-1><t| + 1/2 (|t><t| + |t-1><t-1|),

with the clock projectors and hops encoded 3-locally on neighboring clock
qubits.  Adding a loop coupling r V(lambda) on an output qubit, with

    V(lambda) = e^{2 pi i lambda}|1><0| + e^{-2 pi i lambda}|0><1|
              = cos(2 pi lambda) X + sin(2 pi lambda) Y,

turns the acceptance probability of the circuit into the sign and size of
the ground-state Berry connection: two-sided instances separate into
theta_B near 0+ (accepting) versus near 2 pi - (rejecting).

Two instance kinds are built here: plain acceptance instances (H_hist + rV,
one output qubit) and thresholded two-output instances (H_0 + H_1 + rV with
an unpenalized witness register, a small end-of-computation penalty
eps |0><0|_out2 (x) |T+M><T+M|, and an energy threshold
E_th = eps / (2 (T+M+1)) separating the accepting witness from all others).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    GateCircuit,
    circuit_from_json_dict,
    circuit_to_json_dict,
    one_probability,
    partial_states,
    simulate,
    with_idle_steps,
)
from .dynamics import StateVector
from .errors import ConfigError
from .exact import (
    WILSON_TOL,
    berry_connection_perturbative,
    berry_connections,
    diagonalize,
    lambda_grid,
    min_gap,
    wilson_loop_berry_phase,
)
from .hamiltonians import (
    HamiltonianFamily,
    _json_float,
    apply_hamiltonian,
    check_dense_budget,
    constant,
    cosine,
    dense_pauli,
    load_family,
    make_family,
    save_family,
    scale_and_add,
    sine,
)

_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
_RAISE = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|

DEFAULT_CONNECTION_GRID = 17
DEFAULT_ORACLE_GRID = 128
DETERMINISM_TOL = 1e-6
CERTIFICATION_SAFETY = 0.9


# ---------------------------------------------------------------------------
# Local-operator plumbing
# ---------------------------------------------------------------------------


def _local_pauli_coeffs(matrix: np.ndarray) -> list[tuple[str, float]]:
    """Expand a small Hermitian matrix in the Pauli-string basis."""
    dim = matrix.shape[0]
    k = dim.bit_length() - 1
    if matrix.shape != (dim, dim) or 2 ** k != dim:
        raise ConfigError(f"local operator has non-qubit shape {matrix.shape}")
    out = []
    for letters in itertools.product("IXYZ", repeat=k):
        axes = "".join(letters)
        c = complex(np.sum(dense_pauli(axes) * matrix.T)) / dim
        if abs(c.imag) > 1e-10:
            raise ConfigError("local operator is not Hermitian")
        if abs(c.real) > 1e-12:
            out.append((axes, float(c.real)))
    return out


def _embed_axes(local_axes: str, qubits: list[int], n_total: int) -> str:
    letters = ["I"] * n_total
    for letter, q in zip(local_axes, qubits):
        letters[q] = letter
    return "".join(letters)


def _gate_on_sorted(g) -> np.ndarray:
    """Gate matrix re-expressed with its targets in ascending qubit order."""
    if len(g.targets) == 1 or g.targets[0] < g.targets[1]:
        return g.matrix
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    return swap @ g.matrix @ swap


def _clock_projector(t: int, L: int) -> tuple[list[int], np.ndarray]:
    """|t><t| on the unary clock, as (1-based clock positions, local matrix)."""
    if t == 0:
        return [1], _P0
    if t == L:
        return [L], _P1
    return [t, t + 1], np.kron(_P1, _P0)


def _clock_raise(t: int, L: int) -> tuple[list[int], np.ndarray]:
    """|t><t-1| on the unary clock (boundary neighbors dropped)."""
    qubits: list[int] = []
    parts: list[np.ndarray] = []
    if t - 1 >= 1:
        qubits.append(t - 1)
        parts.append(_P1)
    qubits.append(t)
    parts.append(_RAISE)
    if t + 1 <= L:
        qubits.append(t + 1)
        parts.append(_P0)
    m = parts[0]
    for p in parts[1:]:
        m = np.kron(m, p)
    return qubits, m


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def compile_history(circuit: GateCircuit) -> HamiltonianFamily:
    """H_hist for the circuit: lambda-independent, 5-local, ground energy 0.

    Witness qubits (if any) are exempt from the input penalty, so the null
    space is 2**n_witness dimensional, spanned by the history states of the
    witness basis.
    """
    n = circuit.n_system
    L = circuit.T + circuit.M
    ntot = n + L
    check_dense_budget(ntot, "history compilation")
    terms: list[tuple[str, float]] = []

    def emit(matrix: np.ndarray, qubits: list[int]) -> None:
        for local_axes, c in _local_pauli_coeffs(matrix):
            terms.append((_embed_axes(local_axes, qubits, ntot), c))

    penalized = [q for q in range(n) if q not in circuit.witness_qubits]
    for q in penalized:  # H_in: non-witness qubits must read 0 at clock zero
        emit(np.kron(_P1, _P0), [q, n])

    for t in range(1, L):  # H_clock: no 0 -> 1 pattern in the unary register
        emit(np.kron(_P0, _P1), [n + t - 1, n + t])

    for t in range(1, L + 1):  # H_prop
        hop_pos, hop = _clock_raise(t, L)
        hop_qubits = [n + j - 1 for j in hop_pos]
        if t <= circuit.T:
            g = circuit.gates[t - 1]
            gq = sorted(g.targets)
            Ug = _gate_on_sorted(g)
            coupling = -0.5 * (
                np.kron(Ug, hop) + np.kron(Ug.conj().T, hop.conj().T)
            )
            emit(coupling, list(gq) + hop_qubits)
        else:  # idle step: identity gate, clock-only hop
            emit(-0.5 * (hop + hop.conj().T), hop_qubits)
        for tt in (t, t - 1):
            proj_pos, proj = _clock_projector(tt, L)
            emit(0.5 * proj, [n + j - 1 for j in proj_pos])

    family = make_family(
        ntot,
        [(axes, constant(c)) for axes, c in terms],
        metadata={
            "construction": "history",
            "n_system": n,
            "T": circuit.T,
            "M": circuit.M,
            "system_qubits": list(range(n)),
            "clock_qubits": list(range(n, ntot)),
            "penalized_qubits": penalized,
        },
    )
    if family.k_max > 5:
        raise ConfigError(
            f"compiled family is {family.k_max}-local; the clock encoding "
            "should never exceed 5"
        )
    return family


def _clock_basis_index(t: int, L: int) -> int:
    """Unary pattern 1^t 0^(L-t) as an integer over the clock block."""
    return sum(1 << (L - j) for j in range(1, t + 1))


def _clock_state(circuit: GateCircuit, slices: dict) -> StateVector:
    """sum_t slices[t] (x) |t> over the clock times t given, each with
    weight 1/sqrt(len(slices))."""
    n = circuit.n_system
    L = circuit.T + circuit.M
    amp = np.zeros((2 ** n, 2 ** L), dtype=complex)
    norm = 1.0 / math.sqrt(len(slices))
    for t, phi in slices.items():
        amp[:, _clock_basis_index(t, L)] += norm * phi
    registers = {"system": tuple(range(n)), "clock": tuple(range(n, n + L))}
    return StateVector(amp.reshape(-1), registers)


def history_state(circuit: GateCircuit, witness=None) -> StateVector:
    """The null vector of compile_history for this circuit (and witness):
    (1/sqrt(T+M+1)) sum_t U_t...U_1 |input> (x) |t>."""
    phis = partial_states(circuit, witness)
    L = circuit.T + circuit.M
    return _clock_state(circuit, {t: phis[min(t, circuit.T)] for t in range(L + 1)})


def window_guiding_state(circuit: GateCircuit, witness=None) -> StateVector:
    """|c> = (final state) (x) uniform clock window over t in [T, T+M]."""
    phi = simulate(circuit, witness)
    L = circuit.T + circuit.M
    return _clock_state(circuit, {t: phi for t in range(circuit.T, L + 1)})


def product_guiding_state(circuit: GateCircuit) -> StateVector:
    """|0^n> (x) |t=0>: the gate-free guiding alternative."""
    return _clock_state(circuit, {0: np.eye(2 ** circuit.n_system)[0]})


def _overlap(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def make_V(output_qubit: int, n_qubits: int) -> HamiltonianFamily:
    """Loop coupling on one qubit: cos(2 pi lambda) X + sin(2 pi lambda) Y,
    i.e. e^{2 pi i lambda}|1><0| + h.c.  Unit norm at every lambda."""
    if not 0 <= output_qubit < n_qubits:
        raise ConfigError(
            f"output qubit {output_qubit} out of range for {n_qubits} qubits"
        )
    x_axes = _embed_axes("X", [output_qubit], n_qubits)
    y_axes = _embed_axes("Y", [output_qubit], n_qubits)
    return make_family(
        n_qubits,
        [(x_axes, cosine(1)), (y_axes, sine(1))],
        metadata={"construction": "output-coupling", "output_qubit": output_qubit},
    )


def accept_operator_spectrum(circuit: GateCircuit) -> np.ndarray:
    """Eigenvalues (descending) of Q = A^dag Pi_out2=1 A, where A embeds a
    witness into the circuit's witness register with ancillas zeroed and
    runs it."""
    if not circuit.witness_qubits:
        raise ConfigError("accept operator needs a declared witness register")
    if circuit.output2_qubit is None:
        raise ConfigError("accept operator needs output2_qubit")
    n = circuit.n_system
    w = circuit.n_witness
    bitpos = n - 1 - circuit.output2_qubit
    cols = []
    for idx in range(2 ** w):
        psi = simulate(circuit, witness=idx)
        mask = ((np.arange(2 ** n) >> bitpos) & 1).astype(bool)
        psi = np.where(mask, psi, 0.0)
        cols.append(psi)
    A = np.stack(cols, axis=1)
    Q = A.conj().T @ A
    evals = np.linalg.eigvalsh(Q)
    return evals[::-1]


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass
class HardnessInstance:
    """A compiled loop family plus everything needed to use and audit it.
    ``provenance`` (the sidecar less its warnings) keeps each value once."""

    family: HamiltonianFamily
    circuit: GateCircuit | None
    provenance: dict
    warnings: list = field(default_factory=list)

    @property
    def kind(self) -> str:  # 'bqp' | 'duqma' | 'synthetic'
        return self.provenance["kind"]

    @property
    def r(self) -> float:
        return self.provenance["r"]

    @property
    def E_th(self) -> float | None:
        return self.provenance["E_th"]

    @property
    def interval(self) -> tuple:  # (a, b, certified delta)
        return tuple(self.provenance["interval"])

    @property
    def certified_delta(self) -> float:
        return float(self.provenance["interval"][2])


def _certify_connection_exact(
    family, grid_size: int, anchor
) -> tuple[float, float, float]:
    """(min |iA|, max |iA|, sign) over a lambda grid, by finite differences.

    The anchor (the unperturbed ground state) fixes the gauge to the one
    the perturbative analysis is written in, so the pointwise sign is
    meaningful.
    """
    lams = lambda_grid(family, grid_size, offset=0.5)
    return _connection_stats(berry_connections(family, lams, anchor=anchor))


def oracle_tolerance(delta: float) -> float:
    """Wilson-loop convergence tolerance for an instance with decision
    margin delta: a tenth of delta, so converged is relative to the phase
    being decided; the default tolerance when no margin is certified."""
    return delta / 10.0 if delta > 0 else WILSON_TOL


def _connection_stats(vals: list[float]) -> tuple[float, float, float]:
    lo = min(abs(v) for v in vals)
    hi = max(abs(v) for v in vals)
    sign = math.copysign(1.0, vals[0]) if all(
        math.copysign(1.0, v) == math.copysign(1.0, vals[0]) for v in vals
    ) else 0.0
    return lo, hi, sign


def _finish_instance(
    kind: str, circuit: GateCircuit, witness, family: HamiltonianFamily,
    hstate: StateVector, r: float, method: str, connection, warnings: list[str],
    *, thresholds: dict, spectrum: dict, checks: dict, tail: dict,
) -> HardnessInstance:
    """The step both builders end in: certify the margin delta as 0.9 times
    the smallest |iA_lambda| that ``connection()`` reports (none when r = 0),
    run the Wilson-loop oracle and write the provenance.  A builder's own
    entries go in the slots that keep the sidecar's key order."""
    conn_lo, conn_hi, conn_sign = connection() if r > 0 else (0.0, 0.0, 0.0)
    delta_cert = CERTIFICATION_SAFETY * conn_lo
    oracle_tol = oracle_tolerance(delta_cert)
    oracle = wilson_loop_berry_phase(family, DEFAULT_ORACLE_GRID, oracle_tol)
    head = {"kind": kind, "circuit": circuit_to_json_dict(circuit)}
    if isinstance(witness, (int, np.integer)):
        head["witness"] = int(witness)
    elif witness is not None:
        head["witness"] = [
            [float(z.real), float(z.imag)] for z in np.asarray(witness, dtype=complex)
        ]
    provenance = {
        **head,
        "T": circuit.T,
        "M": circuit.M,
        "r": float(r),
        **thresholds,
        "certified_delta": float(delta_cert),
        "oracle_theta_B": float(oracle.theta_B),
        "oracle_converged": bool(oracle.converged),
        "oracle_grid": DEFAULT_ORACLE_GRID,
        "oracle_tolerance": oracle_tol,
        "oracle_error_estimate": float(oracle.estimated_discretization_error),
        **spectrum,
        "gap_lambda0": float(diagonalize(family, 0.0).gap),
        "connection_min_abs": float(conn_lo),
        "connection_max_abs": float(conn_hi),
        "connection_sign": float(conn_sign),
        "connection_method": method,
        "connection_grid": DEFAULT_CONNECTION_GRID,
        **checks,
        "window_overlap": _overlap(window_guiding_state(circuit, witness), hstate),
        **tail,
        "interval": [0.0, math.pi, float(delta_cert)],
        "guiding_state_descriptor": "history-window",
    }
    return HardnessInstance(family, circuit, provenance, warnings)


def build_bqp_instance(
    circuit: GateCircuit,
    r: float | None = None,
    M: int | None = None,
) -> HardnessInstance:
    """H_hist + r V(lambda) on the first output qubit.

    Defaults: r = (measured gap of H_hist)/8; refuses r above gap/4.  The
    instance certifies its own decision margin delta as 0.9 times the
    smallest |iA_lambda| seen on a grid, and records the Wilson-loop oracle
    phase.
    """
    if M is not None:
        circuit = with_idle_steps(circuit, M)
    if circuit.output1_qubit is None:
        raise ConfigError("acceptance instance needs output1_qubit")
    if circuit.witness_qubits:
        raise ConfigError(
            "acceptance instances take no witness register; use the "
            "two-output builder"
        )
    warnings: list[str] = []
    n = circuit.n_system
    L = circuit.T + circuit.M
    p1 = one_probability(simulate(circuit), circuit.output1_qubit, n)
    if min(p1, 1.0 - p1) > DETERMINISM_TOL:
        warnings.append(
            f"circuit acceptance probability {p1:.6f} is not within "
            f"{DETERMINISM_TOL:g} of 0 or 1; phase separation is not certified"
        )

    hist = compile_history(circuit)
    s0 = diagonalize(hist, 0.0)
    gap_hist = s0.gap
    if r is None:
        r = gap_hist / 8.0
    if r < 0:
        raise ConfigError(f"r must be non-negative, got {r}")
    if r > gap_hist / 4.0 * (1.0 + 1e-12):
        raise ConfigError(
            f"r={r:.6g} exceeds a quarter of the measured gap "
            f"{gap_hist:.6g}; the perturbative regime needs r <= gap/4"
        )

    family = scale_and_add(1.0, hist, r, make_V(circuit.output1_qubit, n + L))
    gap_full_min, gap_full_argmin = min_gap(family, DEFAULT_CONNECTION_GRID)
    if gap_full_min < gap_hist / 2.0:
        warnings.append(
            f"perturbed gap {gap_full_min:.6g} fell below half the bare gap "
            f"{gap_hist:.6g}"
        )

    hstate = history_state(circuit)
    return _finish_instance(
        "bqp", circuit, None, family, hstate, r, "finite-difference",
        lambda: _certify_connection_exact(
            family, DEFAULT_CONNECTION_GRID, anchor=s0.ground_state
        ),
        warnings,
        thresholds={"epsilon_penalty": 0.0, "E_th": None},
        spectrum={
            "gap_hist": float(gap_hist),
            "ground_energy_hist": float(s0.eigenvalues[0]),
            "gap_full_min": float(gap_full_min),
            "gap_full_argmin": float(gap_full_argmin),
        },
        checks={"acceptance_probability": float(p1)},
        tail={"product_overlap": _overlap(product_guiding_state(circuit), hstate)},
    )


def build_duqma_instance(
    circuit: GateCircuit,
    witness,
    r: float | None = None,
    epsilon_penalty: float | None = None,
    M: int | None = None,
) -> HardnessInstance:
    """H_0 + H_1 + r V(lambda) for a two-output circuit with a witness
    register.

    H_0 is the history Hamiltonian with the witness exempt from input
    penalties; H_1 = eps |0><0|_out2 (x) |T+M><T+M| charges rejecting
    computations at the end of the clock.  Defaults: eps = Delta_0/16,
    r = Delta_01/8; E_th = eps/(2(T+M+1)).  Regime violations are recorded
    as warnings on the instance rather than refusals.
    """
    if M is not None:
        circuit = with_idle_steps(circuit, M)
    if circuit.output1_qubit is None or circuit.output2_qubit is None:
        raise ConfigError("two-output instance needs output1_qubit and output2_qubit")
    if not circuit.witness_qubits:
        raise ConfigError("two-output instance needs a witness register")
    warnings: list[str] = []
    n = circuit.n_system
    L = circuit.T + circuit.M
    ntot = n + L
    w = circuit.n_witness

    p2 = one_probability(
        simulate(circuit, witness), circuit.output2_qubit, n
    )
    if abs(1.0 - p2) > DETERMINISM_TOL:
        warnings.append(
            f"supplied witness accepts with probability {p2:.6f}, not "
            "near-deterministically"
        )

    hist0 = compile_history(circuit)
    evals0 = diagonalize(hist0, 0.0).eigenvalues
    null_dim = int(np.sum(evals0 < 1e-9))
    if null_dim != 2 ** w:
        warnings.append(
            f"witness-free null space has dimension {null_dim}, expected {2 ** w}"
        )
    delta0 = float(evals0[2 ** w] - evals0[2 ** w - 1])

    eps = delta0 / 16.0 if epsilon_penalty is None else float(epsilon_penalty)
    if eps <= 0:
        raise ConfigError(f"penalty strength must be positive, got {eps}")
    if eps > delta0 / 16.0 * (1.0 + 1e-9):
        warnings.append(
            f"penalty eps={eps:.6g} above Delta_0/16 = {delta0 / 16.0:.6g}; "
            "threshold separation is not certified"
        )

    h1_terms = [
        (_embed_axes(axes, [circuit.output2_qubit, ntot - 1], ntot), constant(c))
        for axes, c in _local_pauli_coeffs(np.kron(_P0, _P1))
    ]
    h1 = make_family(ntot, h1_terms, metadata={"construction": "end-penalty"})
    h01 = scale_and_add(1.0, hist0, eps, h1)

    s01 = diagonalize(h01, 0.0)
    E0, E1 = float(s01.eigenvalues[0]), float(s01.eigenvalues[1])
    delta01 = E1 - E0
    E_th = eps / (2.0 * (L + 1))
    if not (E0 <= E_th <= E1):
        warnings.append(
            f"threshold E_th={E_th:.6g} does not separate E0={E0:.6g} from "
            f"E1={E1:.6g}"
        )

    if r is None:
        r = delta01 / 8.0
    if r < 0:
        raise ConfigError(f"r must be non-negative, got {r}")
    if r > delta01 / 4.0 * (1.0 + 1e-12):
        warnings.append(
            f"r={r:.6g} above a quarter of the thresholded gap {delta01:.6g}"
        )

    V = make_V(circuit.output1_qubit, ntot)
    family = scale_and_add(1.0, h01, r, V)
    hstate = history_state(circuit, witness)

    # The bare coupling is O(r^2 / gap^2) here, far below eigensolver phase
    # noise, so the margin is certified through the perturbative connection
    # on the lambda-independent base spectrum.
    return _finish_instance(
        "duqma", circuit, witness, family, hstate, r, "perturbative",
        lambda: _connection_stats([
            berry_connection_perturbative(s01, V, r, lam).value
            for lam in lambda_grid(V, DEFAULT_CONNECTION_GRID, offset=0.5)
        ]),
        warnings,
        thresholds={"epsilon_penalty": float(eps), "E_th": float(E_th)},
        spectrum={
            "delta0": delta0,
            "null_dim": null_dim,
            "E0": E0,
            "E1": E1,
            "delta01": float(delta01),
        },
        checks={
            "witness_accept_probability": float(p2),
            "accepted_history_residual": float(
                np.linalg.norm(apply_hamiltonian(h01, 0.0, hstate.amplitudes))
            ),
            "accept_spectrum_top": [float(v) for v in accept_operator_spectrum(circuit)[:2]],
        },
        tail={},
    )


# ---------------------------------------------------------------------------
# Instance files: family JSON + provenance sidecar
# ---------------------------------------------------------------------------


def save_instance(instance: HardnessInstance, prefix: str) -> tuple[str, str]:
    family_path = f"{prefix}.json"
    prov_path = f"{prefix}.provenance.json"
    save_family(instance.family, family_path)
    with open(prov_path, "w") as fh:
        json.dump({**instance.provenance, "warnings": list(instance.warnings)}, fh, indent=2)
        fh.write("\n")
    return family_path, prov_path


def load_instance(prefix: str) -> HardnessInstance:
    """Validate and normalise the values the record's properties read; a
    missing epsilon_penalty, E_th or guiding_state_descriptor is appended."""
    family = load_family(f"{prefix}.json")
    with open(f"{prefix}.provenance.json") as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise ConfigError("provenance record is not an object")
    warnings = record.pop("warnings", [])
    try:
        raw_circuit = record.get("circuit")
        circuit = None if raw_circuit is None else circuit_from_json_dict(raw_circuit)
        kind = record["kind"]
        interval = record["interval"]
        record["r"] = _finite(record["r"], "r")
    except KeyError as exc:
        raise ConfigError(f"provenance record missing field {exc}") from exc
    if not isinstance(interval, list) or len(interval) != 3:
        raise ConfigError(f"provenance interval must be [a, b, delta], got {interval!r}")
    e_th = record.get("E_th")
    record["epsilon_penalty"] = _finite(record.get("epsilon_penalty", 0.0), "epsilon_penalty")
    record["E_th"] = None if e_th is None else _finite(e_th, "E_th")
    record["interval"] = [_finite(v, "interval bound") for v in interval]
    descriptor = record.setdefault("guiding_state_descriptor", "history-window")
    if not (isinstance(kind, str) and isinstance(descriptor, str)
            and isinstance(warnings, list)):
        raise ConfigError("provenance kind and guiding_state_descriptor must be "
                          "strings, and warnings a list")
    return HardnessInstance(family, circuit, record, list(warnings))


def _finite(value, what: str) -> float:
    x = _json_float(value, f"provenance {what}")
    if not math.isfinite(x):
        raise ConfigError(f"provenance {what} must be finite, got {x}")
    return x
