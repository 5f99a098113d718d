"""Constructors and helpers refuse what they cannot use with ConfigError.

One table of in-process calls, each of which must end in ConfigError (exit 2
at the CLI) from the check it names, and in nothing else.  A state handed
to the lab is checked once, as a StateVector is, and a bad guiding state is
refused before any eigensolve.
"""

import numpy as np
import pytest

from berrylab import exact
from berrylab.bpe import BpeConfig, BpeEngine, murta_bpe, reconstruct_phases, run_bpe
from berrylab.cli import _resolve_witness
from berrylab.circuits import Gate, GateCircuit, gate
from berrylab.corpus import duqma_yes_circuit, equatorial_loop, synthetic_verifier_instance
from berrylab.dynamics import AdiabaticSchedule, StateVector, loop_propagators
from berrylab.errors import ConfigError
from berrylab.exact import diagonalize, ground_state, min_gap
from berrylab.hamiltonians import constant, derivative_family, make_family
from berrylab.hardness import build_duqma_instance
from berrylab.qpe import bits_for_precision, seed_words, stream_uniforms
from berrylab.verifier import energy_test, run_verifier

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
ZERO2 = np.array([1.0, 0.0, 0.0, 0.0])
NAN2 = np.array([np.nan, np.nan])
PSI0 = ground_state(equatorial_loop(), 0.0)[1]
# fidelity 0.1 with the ground state, scaled by 3: read as 0.9 were it not refused
SCALED_GUIDE = 3.0 * (np.sqrt(0.1) * PSI0 + np.sqrt(0.9) * np.array([-PSI0[1], PSI0[0]]).conj())
GUIDES = {"nan": NAN2, "scaled": SCALED_GUIDE}
ESTIMATORS = {"bpe": run_bpe, "murta": murta_bpe}

REFUSALS = {  # case: (the refusal's message, the call)
    "schedule-T-zero": ("runtime must be positive", lambda: AdiabaticSchedule(T=0.0, steps=4)),
    "schedule-T-negative": ("runtime must be positive",
                            lambda: AdiabaticSchedule(T=-1.0, steps=4)),
    "schedule-T-nan": ("runtime must be positive and finite",
                       lambda: AdiabaticSchedule(T=float("nan"), steps=4)),
    "schedule-T-inf": ("runtime must be positive and finite",
                       lambda: AdiabaticSchedule(T=float("inf"), steps=4)),
    "schedule-no-steps": ("steps must be", lambda: AdiabaticSchedule(T=1.0, steps=0)),
    "propagators-two-step-counts": ("schedules of one step count", lambda: loop_propagators(
        equatorial_loop(), AdiabaticSchedule(T=1.0, steps=4), AdiabaticSchedule(T=1.0, steps=5))),
    "schedule-direction": ("unknown direction",
                           lambda: AdiabaticSchedule(T=1.0, steps=4, direction="sideways")),
    "state-length-3": (r"length 2\*\*n", lambda: StateVector(np.ones(3) / np.sqrt(3.0))),
    "state-unnormalized": ("not normalized", lambda: StateVector(np.array([1.0, 1.0]))),
    "state-nan": ("not normalized", lambda: StateVector(np.array([np.nan, 1.0]))),
    **{f"{name}-guide-{kind}": ("not normalized", lambda e=estimator, g=guide: e(
        equatorial_loop(), g, BpeConfig(T=50.0)))
       for name, estimator in ESTIMATORS.items() for kind, guide in GUIDES.items()},
    "verifier-witness-nan": ("not normalized", lambda: run_verifier(
        synthetic_verifier_instance("yes"), np.array([np.nan, 1.0]))),
    # ground takes no argument: ground:1 is not read as ground
    "witness-ground-with-argument": ("unknown witness spec 'ground:1'",
                                     lambda: _resolve_witness(
                                         synthetic_verifier_instance("yes"), "ground:1")),
    # an empty argument is not read as none: excited: is not excited, level 1,
    # and history: on an instance with a circuit is not history with no bits
    "witness-excited-empty-argument": ("witness 'excited:' has an empty argument",
                                       lambda: _resolve_witness(
                                           synthetic_verifier_instance("yes"), "excited:")),
    "witness-history-empty-argument": ("witness 'history:' has an empty argument",
                                       lambda: _resolve_witness(build_duqma_instance(
                                           duqma_yes_circuit(), 0), "history:")),
    "state-registers-overlap": ("registers overlap",
                                lambda: StateVector(ZERO2, {"a": (0,), "b": (0, 1)})),
    "state-register-out-of-range": ("out of range", lambda: StateVector(ZERO2, {"a": (2,)})),
    "gate-three-targets": ("1 or 2 qubits", lambda: Gate("X3", (0, 1, 2), np.eye(8))),
    "gate-repeated-target": ("repeated targets", lambda: Gate("CX", (1, 1), np.eye(4))),
    "gate-matrix-shape": ("matrix shape", lambda: Gate("X", (0,), np.eye(4))),
    "circuit-no-system": ("n_system", lambda: GateCircuit(0, (gate("H", 0),))),
    "circuit-negative-M": ("M must be", lambda: GateCircuit(1, (gate("H", 0),), M=-1)),
    "circuit-non-gate": ("Gate instances", lambda: GateCircuit(1, ("H",))),
    "circuit-witness-out-of-range": (
        "witness qubit 2 out of range",
        lambda: GateCircuit(2, (gate("H", 0),), witness_qubits=(2,)),
    ),
    "circuit-output-on-witness": (
        "overlaps the witness",
        lambda: GateCircuit(2, (gate("H", 0),), output2_qubit=1, witness_qubits=(1,)),
    ),
    "bpe-epsilon-zero": ("epsilon_B", lambda: BpeConfig(epsilon_B=0.0)),
    "bpe-eta-zero": ("eta must be in", lambda: BpeConfig(eta=0.0)),
    "bpe-eta-one": ("eta must be in", lambda: BpeConfig(eta=1.0)),
    "bpe-T-zero": ("runtime T", lambda: BpeConfig(T=0.0)),
    "bpe-oversampling": ("oversampling", lambda: BpeConfig(oversampling=1.5)),
    "reconstruct-mode": ("unknown alpha mode",
                         lambda: reconstruct_phases(0.1, 0.2, 2.0, "halving")),
    # a seed is an int >= 0: numpy's seed forms, tuple rows and floats are refused
    "seed-pool-size": ("must be ints >= 0",
                       lambda: seed_words([np.random.SeedSequence(1, pool_size=8)])),
    "seed-sequence": ("must be ints >= 0", lambda: energy_test(
        synthetic_verifier_instance("yes"), PLUS, seed=np.random.SeedSequence(1))),
    "seed-negative-entropy": ("must be ints >= 0", lambda: seed_words([-1])),
    "seed-negative-numpy-int": ("must be ints >= 0", lambda: run_verifier(
        synthetic_verifier_instance("yes"), PLUS, seed=np.int64(-2**63))),
    "seed-float-entropy": ("must be ints >= 0", lambda: seed_words([1.5])),
    "seed-row-too-short": ("must be ints >= 0", lambda: seed_words([(1,)])),
    "seed-row-key-not-tuple": ("must be ints >= 0", lambda: seed_words([(3, 4)])),
    "seed-row-negative-key": ("must be ints >= 0",
                              lambda: stream_uniforms([(3, (-1,))], (1,))),
    "seed-row-in-run-verifier": ("must be ints >= 0", lambda: run_verifier(
        synthetic_verifier_instance("yes"), PLUS, seed=[(12, (3,))])),
    # a 0-d array is one seed, whose entropy is no int and no sequence
    "seed-0-d-energy-test": ("must be ints >= 0", lambda: energy_test(
        synthetic_verifier_instance("yes"), PLUS, seed=np.array(3))),
    "seed-0-d-verifier": ("must be ints >= 0", lambda: run_verifier(
        synthetic_verifier_instance("yes"), PLUS, seed=np.array(3))),
    "seed-0-d-bpe-engine": ("must be ints >= 0", lambda: BpeEngine(
        equatorial_loop(), BpeConfig(T=50.0), guiding_state=PSI0).run(np.array(3))),
    "seed-child-negative": ("child indices must be ints >= 0",
                            lambda: seed_words([1]).child(np.array([0, -1]))),
    "seed-child-past-2^64": ("child indices must be ints >= 0",
                             lambda: seed_words([1]).child(2**64)),
    "seed-child-float": ("child indices must be ints >= 0", lambda: seed_words([1]).child(1.0)),
    "diagonalize-lambda-nan": ("lambda must be finite",
                               lambda: diagonalize(equatorial_loop(), float("nan"))),
    "min-gap-lambda-nan": ("lambda must be finite",
                           lambda: min_gap(equatorial_loop(), [float("nan"), 0.5])),
    "precision-inf": ("phase precision must be positive and finite",
                      lambda: bits_for_precision(float("inf"))),
    "precision-nan": ("phase precision must be positive and finite",
                      lambda: bits_for_precision(float("nan"))),
    "derivative-order": ("derivative order",
                         lambda: derivative_family(equatorial_loop(), order=-1)),
    "family-k-max": ("k_max", lambda: make_family(2, [("XX", constant(1.0))], k_max=1)),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused_with_config_error(case):
    message, call = REFUSALS[case]
    with pytest.raises(ConfigError, match=message):
        call()


@pytest.mark.parametrize("case", [c for c in REFUSALS if "-guide-" in c])
def test_a_bad_guide_is_refused_before_any_solve(case, monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("an eigensolve ran before the guide was checked")

    monkeypatch.setattr(exact, "spectra", spy)
    message, call = REFUSALS[case]
    with pytest.raises(ConfigError, match=message):
        call()


def test_a_valid_call_of_each_kind_passes():
    # The table's calls fail on their one bad argument, not on the set-up.
    AdiabaticSchedule(T=1.0, steps=4, direction="reversed")
    loop_propagators(equatorial_loop(), AdiabaticSchedule(T=1.0, steps=4),
                     AdiabaticSchedule(T=2.0, steps=4, direction="reversed"))
    StateVector(ZERO2, {"a": (0,), "b": (1,)})
    StateVector(PLUS)
    for estimator in ESTIMATORS.values():
        estimator(equatorial_loop(), PSI0, BpeConfig(T=50.0))
    run_verifier(synthetic_verifier_instance("yes"), PSI0)
    _resolve_witness(synthetic_verifier_instance("yes"), "ground")
    Gate("CX", (0, 1), np.eye(4))
    GateCircuit(2, (gate("H", 0),), output2_qubit=0, witness_qubits=(1,))
    BpeConfig(epsilon_B=0.1, eta=0.5, T=1.0, oversampling=2.0)
    reconstruct_phases(0.1, 0.2, 2.0, "integer")
    assert seed_words([3, np.uint64(2**64 - 1)]).child(np.arange(2), [1]).keys.size == 2
    derivative_family(equatorial_loop(), order=0)
    diagonalize(equatorial_loop(), 0.5)
    min_gap(equatorial_loop(), [0.0, 0.5])
    assert bits_for_precision(0.05) == 8
    make_family(2, [("XX", constant(1.0))], k_max=2)
