import json
import math

import numpy as np
import pytest

from berrylab.angles import wrap_pm_pi
from berrylab.bpe import BpeEngine
from berrylab.corpus import duqma_yes_circuit, synthetic_verifier_instance
from berrylab.errors import ConfigError
from berrylab.hamiltonians import eval_hamiltonian
from berrylab.hardness import build_bqp_instance, build_duqma_instance, history_state
from berrylab.qpe import sample_outcomes
from berrylab.verifier import (
    ENERGY_REPETITIONS,
    VerifierConfig,
    energy_distribution,
    energy_test,
    run_verifier,
)


@pytest.fixture(scope="module")
def yes_instance():
    return synthetic_verifier_instance("yes")


@pytest.fixture(scope="module")
def no_instance():
    return synthetic_verifier_instance("no")


def _eigenstates(instance):
    H = eval_hamiltonian(instance.family, 0.0)
    w, V = np.linalg.eigh(H)
    return w, V


# -- the energy gate -------------------------------------------------------------


def test_ground_witness_passes(yes_instance):
    w, V = _eigenstates(yes_instance)
    dist = energy_distribution(yes_instance, V[:, 0])
    estimate, passed = energy_test(yes_instance, V[:, 0], distribution=dist, seed=0)
    assert passed
    assert abs(estimate - w[0]) <= dist.delta_min / 4.0


def test_excited_witness_fails(yes_instance):
    w, V = _eigenstates(yes_instance)
    dist = energy_distribution(yes_instance, V[:, 1])
    for seed in range(10):
        estimate, passed = energy_test(
            yes_instance, V[:, 1], distribution=dist, seed=seed
        )
        assert not passed
        assert estimate >= w[1] - dist.delta_min / 4.0


def test_superposition_witness_is_a_coin_flip(yes_instance):
    _, V = _eigenstates(yes_instance)
    half = (V[:, 0] + V[:, 1]) / math.sqrt(2.0)
    dist = energy_distribution(yes_instance, half)
    passes = sum(
        energy_test(yes_instance, half, distribution=dist, seed=s)[1]
        for s in range(1000)
    )
    assert abs(passes / 1000.0 - 0.5) <= 0.05


def test_energy_test_deterministic_per_seed(yes_instance):
    _, V = _eigenstates(yes_instance)
    a = energy_test(yes_instance, V[:, 0], seed=5)
    b = energy_test(yes_instance, V[:, 0], seed=5)
    assert a == b


def test_unique_passing_basis_witness():
    # exactly one computational-basis witness opens the energy gate
    inst = build_duqma_instance(duqma_yes_circuit(), witness=0, M=2)
    rates = []
    for w in (0, 1):
        hs = history_state(inst.circuit, witness=w)
        dist = energy_distribution(inst, hs.amplitudes)
        passes = sum(
            energy_test(inst, hs.amplitudes, distribution=dist, seed=s)[1]
            for s in range(30)
        )
        rates.append(passes / 30.0)
    assert rates[0] > 2.0 / 3.0
    assert rates[1] < 1.0 / 3.0
    assert sum(r > 2.0 / 3.0 for r in rates) == 1


# -- full protocol ----------------------------------------------------------------


def test_completeness_on_yes(yes_instance):
    _, V = _eigenstates(yes_instance)
    witness = V[:, 0]
    accepts = 0
    for out in run_verifier(yes_instance, witness, seed=list(range(50))):
        accepts += out.accept
        assert out.energy_pass
        assert out.theta_estimate is not None
        if out.accept:
            assert out.decision == "accept-1"
    assert accepts >= 45


def test_soundness_on_no(no_instance):
    _, V = _eigenstates(no_instance)
    witness = V[:, 0]
    accepts = 0
    for out in run_verifier(no_instance, witness, seed=list(range(200))):
        accepts += out.accept
        assert out.decision in ("accept-prob-bounded", "accept-1")
    # the phase lands in the complement arc, so acceptance is the bounded coin
    assert 0.15 <= accepts / 200.0 <= 0.5


def test_orthogonal_witness_fails_energy_gate(yes_instance):
    _, V = _eigenstates(yes_instance)
    bogus = V[:, -1]
    accepts = 0
    for out in run_verifier(yes_instance, bogus, seed=list(range(200))):
        assert not out.energy_pass
        assert out.theta_estimate is None
        accepts += out.accept
    # energy-fail branch accepts with probability 1/3 - soundness_delta = 1/4
    assert 0.1 <= accepts / 200.0 <= 0.4


def test_completeness_soundness_gap(yes_instance):
    _, V = _eigenstates(yes_instance)
    good = V[:, 0]
    bad = V[:, -1]
    n = 500
    acc_good = sum(o.accept for o in run_verifier(yes_instance, good, seed=list(range(n))))
    acc_bad = sum(o.accept for o in run_verifier(yes_instance, bad, seed=list(range(n))))
    assert acc_good / n - acc_bad / n >= 1.0 / 3.0


def test_reject_branch_when_soundness_delta_saturates(yes_instance):
    _, V = _eigenstates(yes_instance)
    bogus = V[:, -1]
    cfg = VerifierConfig(soundness_delta=1.0 / 3.0)
    out = run_verifier(yes_instance, bogus, config=cfg, seed=0)
    assert out.decision == "reject"
    assert not out.accept
    assert out.accept_probability == 0.0


def test_run_verifier_deterministic_per_seed(yes_instance):
    _, V = _eigenstates(yes_instance)
    a = run_verifier(yes_instance, V[:, 0], seed=11)
    b = run_verifier(yes_instance, V[:, 0], seed=11)
    assert a.accept == b.accept
    assert a.energy_estimate == b.energy_estimate
    assert a.theta_estimate == b.theta_estimate


def test_transcript_records_both_steps(yes_instance):
    _, V = _eigenstates(yes_instance)
    out = run_verifier(yes_instance, V[:, 0], seed=2)
    steps = [t["step"] for t in out.transcript]
    assert steps[0] == "energy-test"
    assert "decision" in steps
    assert out.decision in ("accept-1", "accept-prob-bounded", "reject")


def test_instance_without_threshold_is_refused():
    from berrylab.corpus import bqp_yes_circuit
    from berrylab.circuits import with_idle_steps

    inst = build_bqp_instance(with_idle_steps(bqp_yes_circuit(), 2))
    w, V = np.linalg.eigh(eval_hamiltonian(inst.family, 0.0))
    with pytest.raises(ConfigError):
        run_verifier(inst, V[:, 0], seed=0)


@pytest.mark.parametrize("case", ["yes-int-seeds", "no-seed-sequences"])
def test_batch_equals_single_runs(yes_instance, no_instance, monkeypatch, case):
    # 300 runs cross a block boundary; the superposition witness passes the
    # gate about half the time, so a block mixes both branches.
    from berrylab import verifier

    instance = yes_instance if case.startswith("yes") else no_instance
    _, V = _eigenstates(instance)
    witness = (V[:, 0] + V[:, 1]) / math.sqrt(2.0)
    if "int" in case:
        batch_seeds, single_seeds, tree_seeds = list(range(300)), list(range(300)), range(300)
    else:  # a spawned SeedSequence is spent by its run, so spawn once per use
        batch_seeds, single_seeds, tree_seeds = (
            np.random.SeedSequence(7).spawn(300) for _ in range(3)
        )
    batch = run_verifier(instance, witness, seed=batch_seeds)
    assert {o.energy_pass for o in batch} == {True, False}

    # The singles share one energy distribution and one engine, as the batch does.
    dist = energy_distribution(instance, witness)
    engine = BpeEngine(instance.family, VerifierConfig().bpe, guiding_state=witness)
    monkeypatch.setattr(verifier, "energy_distribution", lambda *args: dist)
    monkeypatch.setattr(verifier, "BpeEngine", lambda *args, **kwargs: engine)
    single = [run_verifier(instance, witness, seed=s) for s in single_seeds]
    assert [json.dumps(o.to_json_dict()) for o in batch] == [
        json.dumps(o.to_json_dict()) for o in single
    ]

    # The seed tree, rebuilt outside the batch code: each run's energy seed
    # draws its readouts through the scalar wrap_pm_pi, and its bpe seed
    # gives the engine's own run.
    for out, s in zip(batch, tree_seeds):
        energy_seed, bpe_seed, _ = (
            s if isinstance(s, np.random.SeedSequence) else np.random.SeedSequence(s)
        ).spawn(3)
        qpe = dist.distribution
        js = sample_outcomes(qpe, ENERGY_REPETITIONS, np.random.default_rng(energy_seed))
        energies = [-wrap_pm_pi(2.0 * math.pi * j / 2 ** qpe.m) / dist.tau for j in js]
        assert out.energy_estimate == float(np.median(energies))
        if out.energy_pass:
            assert out.theta_estimate == engine.run(bpe_seed)[0]


# -- pinned outcomes -------------------------------------------------------------

# to_json_dict() of one run per decision, key order included: the energy-fail
# coin, the saturated reject, certain acceptance and the interval coin.
PINNED_OUTCOMES = json.loads("""
{
 "energy-fail-coin": {
  "energy_estimate": 1.0,
  "energy_pass": false,
  "theta_estimate": null,
  "decision": "accept-prob-bounded",
  "accept": true,
  "accept_probability": 0.25,
  "transcript": [
   {
    "step": "energy-test",
    "estimate": 1.0,
    "threshold": 0.0,
    "margin": 0.5,
    "repetitions": 15,
    "pass": false
   },
   {
    "step": "decision",
    "branch": "energy-fail",
    "decision": "accept-prob-bounded",
    "accept_probability": 0.25,
    "coin": 0.23316830360018304,
    "accept": true
   }
  ]
 },
 "reject": {
  "energy_estimate": 1.0,
  "energy_pass": false,
  "theta_estimate": null,
  "decision": "reject",
  "accept": false,
  "accept_probability": 0.0,
  "transcript": [
   {
    "step": "energy-test",
    "estimate": 1.0,
    "threshold": 0.0,
    "margin": 0.5,
    "repetitions": 15,
    "pass": false
   },
   {
    "step": "decision",
    "branch": "energy-fail",
    "decision": "reject",
    "accept_probability": 0.0,
    "coin": null,
    "accept": false
   }
  ]
 },
 "accept-1": {
  "energy_estimate": -1.0,
  "energy_pass": true,
  "theta_estimate": 3.163068384620192,
  "decision": "accept-1",
  "accept": true,
  "accept_probability": 1.0,
  "transcript": [
   {
    "step": "energy-test",
    "estimate": -1.0,
    "threshold": 0.0,
    "margin": 0.5,
    "repetitions": 15,
    "pass": true
   },
   {
    "step": "phase-estimation",
    "theta_B_hat": 3.163068384620192,
    "theta_D_hat": 5.218602640386951,
    "epsilon_B": 0.05,
    "alpha": 2.0,
    "T": 394.78417604357395,
    "m": 11,
    "R": 19
   },
   {
    "step": "decision",
    "branch": "interval-test",
    "interval": [
     0.0,
     3.141592653589793,
     0.3
    ],
    "in_yes_interval": 1,
    "decision": "accept-1",
    "accept_probability": 1.0,
    "coin": null,
    "accept": true
   }
  ]
 },
 "interval-coin": {
  "energy_estimate": -1.0,
  "energy_pass": true,
  "theta_estimate": 4.733864711415088,
  "decision": "accept-prob-bounded",
  "accept": true,
  "accept_probability": 0.3333333333333333,
  "transcript": [
   {
    "step": "energy-test",
    "estimate": -1.0,
    "threshold": 0.0,
    "margin": 0.5,
    "repetitions": 15,
    "pass": true
   },
   {
    "step": "phase-estimation",
    "theta_B_hat": 4.733864711415088,
    "theta_D_hat": 0.770058355518592,
    "epsilon_B": 0.05,
    "alpha": 2.0,
    "T": 296.0881320326804,
    "m": 11,
    "R": 19
   },
   {
    "step": "decision",
    "branch": "interval-test",
    "interval": [
     0.0,
     3.141592653589793,
     0.3
    ],
    "in_yes_interval": 0,
    "decision": "accept-prob-bounded",
    "accept_probability": 0.3333333333333333,
    "coin": 0.23316830360018304,
    "accept": true
   }
  ]
 }
}
""")


@pytest.mark.parametrize("case", PINNED_OUTCOMES)
def test_outcome_is_pinned(yes_instance, no_instance, case):
    instance = no_instance if case == "interval-coin" else yes_instance
    _, V = _eigenstates(instance)
    witness = V[:, 1] if case in ("energy-fail-coin", "reject") else V[:, 0]
    config = VerifierConfig(soundness_delta=1.0 / 3.0) if case == "reject" else None
    seed = 1 if case in ("energy-fail-coin", "interval-coin") else 0
    out = run_verifier(instance, witness, config, seed=seed)
    assert json.dumps(out.to_json_dict()) == json.dumps(PINNED_OUTCOMES[case])
