import math

import numpy as np
import pytest

from berrylab.circuits import (
    Gate,
    GateCircuit,
    apply_gate,
    circuit_from_json_dict,
    circuit_to_json_dict,
    gate,
    initial_system_state,
    one_probability,
    partial_states,
    simulate,
    with_idle_steps,
)
from berrylab.errors import ConfigError


def test_gate_library_matrices():
    h = gate("H", 0)
    assert np.allclose(h.matrix, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    t = gate("T", 0)
    assert t.matrix[1, 1] == pytest.approx(np.exp(1j * math.pi / 4))
    cx = gate("CNOT", 0, 1)
    assert np.allclose(abs(cx.matrix), np.eye(4)[[0, 1, 3, 2]])


def test_gate_unitarity_enforced():
    with pytest.raises(ConfigError):
        gate("X", 0, matrix=np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ConfigError):
        gate("NOSUCH", 0)


def test_bell_state_msb_convention():
    circ = GateCircuit(n_system=2, gates=(gate("H", 0), gate("CNOT", 0, 1)))
    out = simulate(circ)
    want = np.zeros(4, dtype=complex)
    want[0] = want[3] = 1.0 / math.sqrt(2.0)  # |00> and |11>
    assert np.allclose(out, want, atol=1e-12)
    assert one_probability(out, 0, 2) == pytest.approx(0.5)
    assert one_probability(out, 1, 2) == pytest.approx(0.5)


def test_apply_gate_on_noncontiguous_targets():
    # CNOT with control qubit 2 and target qubit 0 on three qubits
    vec = np.zeros(8, dtype=complex)
    vec[1] = 1.0  # |001>
    out = apply_gate(vec, gate("CNOT", 2, 0), 3)
    want = np.zeros(8, dtype=complex)
    want[5] = 1.0  # |101>
    assert np.allclose(out, want)


def test_partial_states_prefix_structure():
    circ = GateCircuit(n_system=1, gates=(gate("X", 0), gate("X", 0)))
    steps = partial_states(circ)
    assert len(steps) == 3
    assert np.allclose(steps[0], [1, 0])
    assert np.allclose(steps[1], [0, 1])
    assert np.allclose(steps[2], [1, 0])


def test_with_idle_steps():
    circ = GateCircuit(n_system=1, gates=(gate("X", 0),))
    idled = with_idle_steps(circ, 3)
    assert idled.M == 3
    assert idled.gates == circ.gates
    # idle padding is clock bookkeeping only: the gate-step trajectory is
    # untouched (one state per gate application, idle slices repeat the last)
    orig, padded = partial_states(circ), partial_states(idled)
    assert len(padded) == len(orig) == 2
    for a, b in zip(orig, padded):
        assert np.array_equal(a, b)


def test_witness_basis_index_msb():
    circ = GateCircuit(
        n_system=2,
        gates=(gate("I", 0),),
        witness_qubits=(0,),
    )
    vec = initial_system_state(circ, witness=1)
    want = np.zeros(4, dtype=complex)
    want[2] = 1.0  # witness qubit (qubit 0) set -> |10>
    assert np.allclose(vec, want)


def test_witness_amplitude_vector():
    circ = GateCircuit(n_system=2, gates=(gate("I", 0),), witness_qubits=(0,))
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    vec = initial_system_state(circ, witness=plus)
    assert vec[0] == pytest.approx(1 / math.sqrt(2))
    assert vec[2] == pytest.approx(1 / math.sqrt(2))
    with pytest.raises(ConfigError):
        initial_system_state(circ, witness=np.array([1.0, 1.0]))  # unnormalized
    with pytest.raises(ConfigError):
        initial_system_state(circ, witness=np.array([1.0]))  # wrong length
    with pytest.raises(ConfigError):
        initial_system_state(circ, witness=5)  # out of range for one qubit


def test_circuit_validation():
    with pytest.raises(ConfigError):
        GateCircuit(n_system=1, gates=(gate("X", 1),))  # target out of range
    with pytest.raises(ConfigError):
        GateCircuit(n_system=1, gates=())  # needs at least one gate
    with pytest.raises(ConfigError):
        GateCircuit(n_system=2, gates=(gate("X", 0),), output1_qubit=7)
    # counts and qubits must be integers, as the JSON loader requires
    with pytest.raises(ConfigError):
        gate("X", 0.9)
    with pytest.raises(ConfigError):
        GateCircuit(n_system=2.5, gates=(gate("X", 0),))
    with pytest.raises(ConfigError):
        GateCircuit(n_system=2, gates=(gate("X", 0),), witness_qubits=(1.5,))
    with pytest.raises(ConfigError):
        GateCircuit(n_system=2, gates=(gate("X", 0),), output1_qubit=True)
    with pytest.raises(ConfigError):
        with_idle_steps(GateCircuit(n_system=1, gates=(gate("X", 0),)), 1.7)


def test_circuit_json_round_trip():
    circ = GateCircuit(
        n_system=2,
        gates=(gate("H", 0), gate("CNOT", 0, 1), gate("T", 1)),
        M=2,
        output1_qubit=1,
        witness_qubits=(0,),
    )
    back = circuit_from_json_dict(circuit_to_json_dict(circ))
    assert back.n_system == circ.n_system
    assert back.M == circ.M
    assert back.output1_qubit == circ.output1_qubit
    assert back.witness_qubits == circ.witness_qubits
    assert len(back.gates) == len(circ.gates)
    assert np.allclose(simulate(back), simulate(circ), atol=1e-14)


def test_circuit_json_matrix_escape_hatch(rng):
    # a non-library unitary survives the round trip bit-for-bit enough to
    # reproduce the same simulation
    from scipy.stats import unitary_group

    U = unitary_group.rvs(4, random_state=np.random.RandomState(7))
    circ = GateCircuit(
        n_system=2, gates=(gate("custom", 0, 1, matrix=U),)
    )
    obj = circuit_to_json_dict(circ)
    assert "matrix" in obj["gates"][0]
    back = circuit_from_json_dict(obj)
    assert np.allclose(simulate(back), simulate(circ), atol=1e-12)


def test_circuit_json_keeps_a_custom_matrix_under_a_library_name():
    # a Hadamard named X is not the library's X: its matrix is written, and
    # the reloaded circuit still makes |+>, not |1>
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    circ = GateCircuit(n_system=1, gates=[gate("X", 0, matrix=H)], output1_qubit=0)
    obj = circuit_to_json_dict(circ)
    assert "matrix" in obj["gates"][0]
    back = simulate(circuit_from_json_dict(obj))
    assert np.allclose(back, [1.0 / math.sqrt(2.0)] * 2, atol=1e-15)
    # the library's own X is written by name alone
    assert "matrix" not in circuit_to_json_dict(GateCircuit(1, [gate("X", 0)]))["gates"][0]


def test_circuit_json_rejects_malformed():
    with pytest.raises(ConfigError):
        circuit_from_json_dict({"gates": []})
    with pytest.raises(ConfigError):
        circuit_from_json_dict(
            {"n_system": 1, "gates": [{"gate": "NOSUCH", "targets": [0]}]}
        )


@pytest.mark.parametrize("record", [
    {"n_system": 1, "gates": [{"gate": 5, "targets": [0]}]},
    {"n_system": 1, "gates": [{"gate": "X", "targets": ["a"]}]},
    {"n_system": "one", "gates": [{"gate": "X", "targets": [0]}]},
    {"n_system": 1, "gates": [{"gate": "U", "targets": [0],
                               "matrix": [[[math.nan, 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [1.0, 0.0]]]}]},
    # Counts and qubit indices that int() would coerce.
    {"n_system": 2.7, "gates": [{"gate": "X", "targets": [0]}]},
    {"n_system": 2, "gates": [{"gate": "X", "targets": [0]}], "M": 1.5},
    {"n_system": 2, "gates": [{"gate": "X", "targets": [0.9]}]},
    {"n_system": 2, "gates": [{"gate": "X", "targets": [0]}], "output1_qubit": True},
    {"n_system": 2, "gates": [{"gate": "X", "targets": [0]}], "output1_qubit": 0.5},
    {"n_system": 2, "gates": [{"gate": "X", "targets": [0]}], "output2_qubit": "1"},
    {"n_system": 2, "gates": [{"gate": "X", "targets": [0]}], "witness_qubits": [1.0]},
], ids=["name-not-a-string", "target-not-a-number", "n-system-not-a-number", "nan-matrix",
        "n-system-float", "m-float", "target-float", "output1-true", "output1-half",
        "output2-string", "witness-float"])
def test_circuit_json_refuses_unusable_entries(record):
    with pytest.raises(ConfigError):
        circuit_from_json_dict(record)
