"""Small gate circuits: the inputs to the circuit-to-Hamiltonian compiler.

Circuits act on ``n_system`` qubits with 1- and 2-qubit gates from a named
library (plus a matrix-literal escape hatch for arbitrary unitaries), carry
an idle-step count M appended after the last gate, and optionally designate
output and witness qubits.  Qubit 0 is the most significant bit; for a
2-qubit gate the first target is the most significant bit of its 4x4 matrix
(so CNOT's first target is the control).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .hamiltonians import _json_int

_SQ2 = 1.0 / math.sqrt(2.0)

GATE_LIBRARY: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


@dataclass(eq=False)
class Gate:
    name: str
    targets: tuple
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.targets = tuple(_json_int(q, "gate target") for q in self.targets)
        if len(self.targets) not in (1, 2):
            raise ConfigError(f"gate {self.name!r} must touch 1 or 2 qubits")
        if len(set(self.targets)) != len(self.targets):
            raise ConfigError(f"gate {self.name!r} has repeated targets")
        m = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** len(self.targets)
        if m.shape != (dim, dim):
            raise ConfigError(
                f"gate {self.name!r} matrix shape {m.shape} does not match "
                f"{len(self.targets)} targets"
            )
        if not np.max(np.abs(m.conj().T @ m - np.eye(dim))) <= 1e-12:  # NaN too
            raise ConfigError(f"gate {self.name!r} is not unitary to 1e-12")
        self.matrix = m


def gate(name: str, *targets: int, matrix=None) -> Gate:
    """Construct a named library gate, or a custom one from a matrix."""
    if matrix is not None:
        return Gate(name=name or "custom", targets=tuple(targets), matrix=matrix)
    key = name.upper()
    if key not in GATE_LIBRARY:
        raise ConfigError(
            f"unknown gate {name!r}; known: {sorted(GATE_LIBRARY)} or pass a matrix"
        )
    return Gate(name=key, targets=tuple(targets), matrix=GATE_LIBRARY[key])


@dataclass(eq=False)
class GateCircuit:
    """Ordered gate list with M idle steps appended after the last gate."""

    n_system: int
    gates: tuple
    M: int = 0
    output1_qubit: int | None = None
    output2_qubit: int | None = None
    witness_qubits: tuple = ()

    def __post_init__(self) -> None:
        self.n_system = _json_int(self.n_system, "n_system")
        self.M = _json_int(self.M, "M")
        self.output1_qubit = _json_qubit(self.output1_qubit, "output1_qubit")
        self.output2_qubit = _json_qubit(self.output2_qubit, "output2_qubit")
        if self.n_system < 1:
            raise ConfigError(f"n_system must be >= 1, got {self.n_system}")
        self.gates = tuple(self.gates)
        if not self.gates:
            raise ConfigError("circuit needs at least one gate")
        if self.M < 0:
            raise ConfigError(f"M must be >= 0, got {self.M}")
        for g in self.gates:
            if not isinstance(g, Gate):
                raise ConfigError("gates must be Gate instances")
            if any(not 0 <= q < self.n_system for q in g.targets):
                raise ConfigError(
                    f"gate {g.name!r} targets {g.targets} out of range for "
                    f"{self.n_system} qubits"
                )
        self.witness_qubits = tuple(_json_int(q, "witness qubit") for q in self.witness_qubits)
        for q in self.witness_qubits:
            if not 0 <= q < self.n_system:
                raise ConfigError(f"witness qubit {q} out of range")
        for label, q in (("output1", self.output1_qubit),
                         ("output2", self.output2_qubit)):
            if q is not None:
                if not 0 <= q < self.n_system:
                    raise ConfigError(f"{label} qubit {q} out of range")
                if q in self.witness_qubits:
                    raise ConfigError(f"{label} qubit {q} overlaps the witness")

    @property
    def T(self) -> int:
        return len(self.gates)

    @property
    def n_witness(self) -> int:
        return len(self.witness_qubits)


def apply_gate(vec: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """Apply a gate to an n-qubit statevector (qubit 0 = most significant)."""
    k = len(g.targets)
    psi = vec.reshape((2,) * n)
    psi = np.moveaxis(psi, g.targets, range(k))
    shape = psi.shape
    psi = g.matrix @ psi.reshape(2 ** k, -1)
    psi = np.moveaxis(psi.reshape(shape), range(k), g.targets)
    return psi.reshape(-1)


def initial_system_state(circuit: GateCircuit, witness=None) -> np.ndarray:
    """|0...0> with the witness register optionally set.

    ``witness`` may be None (all zeros), a basis index into the witness
    register (first listed witness qubit = most significant bit), or an
    amplitude vector of length 2**n_witness.
    """
    n = circuit.n_system
    amp = np.zeros(2 ** n, dtype=complex)
    if witness is None:
        amp[0] = 1.0
        return amp
    w = circuit.n_witness
    if w == 0:
        raise ConfigError("circuit declares no witness register")
    if isinstance(witness, (int, np.integer)):
        if not 0 <= witness < 2 ** w:
            raise ConfigError(f"witness index {witness} out of range for {w} qubits")
        wvec = np.zeros(2 ** w, dtype=complex)
        wvec[int(witness)] = 1.0
    else:
        wvec = np.asarray(witness, dtype=complex)
        if wvec.shape != (2 ** w,):
            raise ConfigError(
                f"witness vector has shape {wvec.shape}, expected ({2 ** w},)"
            )
        if abs(np.linalg.norm(wvec) - 1.0) > 1e-8:
            raise ConfigError("witness vector must be normalized")
    for idx in range(2 ** w):
        if wvec[idx] == 0:
            continue
        sys_idx = 0
        for i, q in enumerate(circuit.witness_qubits):
            bit = (idx >> (w - 1 - i)) & 1
            sys_idx |= bit << (n - 1 - q)
        amp[sys_idx] = wvec[idx]
    return amp


def simulate(circuit: GateCircuit, witness=None) -> np.ndarray:
    """Final statevector U_T ... U_1 applied to the initial state."""
    vec = initial_system_state(circuit, witness)
    for g in circuit.gates:
        vec = apply_gate(vec, g, circuit.n_system)
    return vec


def partial_states(circuit: GateCircuit, witness=None) -> list[np.ndarray]:
    """[phi_0, ..., phi_T]: the state after each gate prefix."""
    vec = initial_system_state(circuit, witness)
    out = [vec]
    for g in circuit.gates:
        vec = apply_gate(vec, g, circuit.n_system)
        out.append(vec)
    return out


def one_probability(vec: np.ndarray, qubit: int, n: int) -> float:
    """Probability that the given qubit reads 1."""
    psi = vec.reshape((2,) * n)
    psi = np.moveaxis(psi, qubit, 0)
    return float(np.sum(np.abs(psi[1]) ** 2))


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def circuit_to_json_dict(circuit: GateCircuit) -> dict:
    records = []
    for g in circuit.gates:
        rec: dict = {"gate": g.name, "targets": list(g.targets)}
        if g.name not in GATE_LIBRARY:
            rec["matrix"] = [
                [[float(z.real), float(z.imag)] for z in row] for row in g.matrix
            ]
        records.append(rec)
    out: dict = {"n_system": circuit.n_system, "gates": records, "M": circuit.M}
    if circuit.output1_qubit is not None:
        out["output1_qubit"] = circuit.output1_qubit
    if circuit.output2_qubit is not None:
        out["output2_qubit"] = circuit.output2_qubit
    if circuit.witness_qubits:
        out["witness_qubits"] = list(circuit.witness_qubits)
    return out


def _json_qubit(value, what: str) -> int | None:
    return None if value is None else _json_int(value, what)


def circuit_from_json_dict(obj: dict) -> GateCircuit:
    """Load a circuit record; the constructors refuse a count or qubit index
    that is not an integer (int() would also take 1.5, true and "1")."""
    try:
        gates = []
        for rec in obj["gates"]:
            name = rec["gate"]
            if not isinstance(name, str):
                raise ConfigError(f"malformed circuit record: gate name {name!r}")
            if "matrix" in rec:
                m = np.array(
                    [[complex(re, im) for re, im in row] for row in rec["matrix"]]
                )
                gates.append(gate(name, *rec["targets"], matrix=m))
            else:
                gates.append(gate(name, *rec["targets"]))
        return GateCircuit(
            n_system=obj["n_system"],
            gates=tuple(gates),
            M=obj.get("M", 0),
            output1_qubit=obj.get("output1_qubit"),
            output2_qubit=obj.get("output2_qubit"),
            witness_qubits=obj.get("witness_qubits", ()),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed circuit record (gate entry {exc})") from exc


def with_idle_steps(circuit: GateCircuit, M: int) -> GateCircuit:
    return replace(circuit, M=M)
