import json
import math
from dataclasses import replace

import numpy as np
import pytest

from berrylab.angles import wrap_pm_pi
from berrylab.bpe import BpeEngine, reconstruct_phases
from berrylab.corpus import duqma_yes_circuit, synthetic_verifier_instance
from berrylab.errors import ConfigError
from berrylab.hamiltonians import eval_hamiltonian
from berrylab.hardness import build_bqp_instance, build_duqma_instance, history_state
from berrylab.qpe import SeedWords, sample_outcomes, seed_words, stream_uniforms
from berrylab.verifier import (
    BLOCK_RUNS,
    ENERGY_REPETITIONS,
    VerifierConfig,
    energy_distribution,
    energy_test,
    run_verifier,
    runs_json,
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


def test_a_seed_row_is_one_run(yes_instance):
    # A seed's row of SeedWords, its one key, is the run of that seed.
    _, V = _eigenstates(yes_instance)
    row = run_verifier(yes_instance, V[:, 0], seed=seed_words([12]))
    assert len(row) == 1
    assert json.dumps(row[0].to_json_dict()) == json.dumps(
        run_verifier(yes_instance, V[:, 0], seed=12).to_json_dict())


def test_seed_words_are_the_runs_of_their_rows(yes_instance):
    # SeedWords are a tuple, yet many seeds: run for run, across a block
    # boundary and through both branches of the gate, the runs of their seeds.
    _, V = _eigenstates(yes_instance)
    witness = (V[:, 0] + V[:, 1]) / math.sqrt(2.0)
    seeds = [2**64 + i for i in range(BLOCK_RUNS + 44)]
    by_words = run_verifier(yes_instance, witness, seed=seed_words(seeds))
    by_rows = run_verifier(yes_instance, witness, seed=seeds)
    assert {o.energy_pass for o in by_rows} == {True, False}
    assert [json.dumps(o.to_json_dict()) for o in by_words] == [
        json.dumps(o.to_json_dict()) for o in by_rows
    ]


# Each form of seeds 2, or 1, 2 and 3, made afresh: a generator is spent by its use.
ONE_OR_MANY = {
    "int": lambda: 2, "numpy-int": lambda: np.uint64(2), "tuple": lambda: (1, 2, 3),
    "list": lambda: [1, 2, 3], "ndarray": lambda: np.arange(1, 4), "range": lambda: range(1, 4),
    "generator": lambda: (s for s in [1, 2, 3]), "seed-words": lambda: seed_words([1, 2, 3]),
}


@pytest.mark.parametrize("form", ONE_OR_MANY)
def test_energy_test_and_run_verifier_share_one_seed_rule(yes_instance, form):
    # A non-iterable or a 0-d array is one seed; any iterable is many,
    # in energy_test as in run_verifier, and each form gives its seeds' runs.
    _, V = _eigenstates(yes_instance)
    dist = energy_distribution(yes_instance, V[:, 1])
    estimates, passed = energy_test(yes_instance, V[:, 1], seed=ONE_OR_MANY[form](),
                                    distribution=dist)
    outcomes = run_verifier(yes_instance, V[:, 1], seed=ONE_OR_MANY[form]())
    if form in ("int", "numpy-int"):
        assert isinstance(estimates, float) and isinstance(passed, bool)
        assert (estimates, passed) == energy_test(yes_instance, V[:, 1], seed=2,
                                                  distribution=dist)
        assert json.dumps(outcomes.to_json_dict()) == json.dumps(
            run_verifier(yes_instance, V[:, 1], seed=[2])[0].to_json_dict())
    else:
        listed = energy_test(yes_instance, V[:, 1], seed=[1, 2, 3], distribution=dist)
        assert estimates.tolist() == listed[0].tolist() and passed.tolist() == listed[1].tolist()
        assert [json.dumps(o.to_json_dict()) for o in outcomes] == [
            json.dumps(o.to_json_dict())
            for o in run_verifier(yes_instance, V[:, 1], seed=[1, 2, 3])
        ]


@pytest.mark.parametrize("seed", [1.5, np.random.SeedSequence(1), np.arange(1, 4).reshape(3, 1),
                                  (1.0, ()), -2, (1, (1.5,)), (1, ("a",)), ([1, -2], ())])
def test_malformed_seeds_are_config_errors(yes_instance, seed):
    _, V = _eigenstates(yes_instance)
    dist = energy_distribution(yes_instance, V[:, 0])
    with pytest.raises(ConfigError):
        energy_test(yes_instance, V[:, 0], seed=seed, distribution=dist)
    with pytest.raises(ConfigError):
        run_verifier(yes_instance, V[:, 0], seed=seed)


def test_no_seeds_give_no_results(yes_instance):
    _, V = _eigenstates(yes_instance)
    estimates, passed = energy_test(yes_instance, V[:, 0], seed=[])
    assert estimates.shape == passed.shape == (0,)
    assert run_verifier(yes_instance, V[:, 0], seed=[]) == []


def test_transcript_records_both_steps(yes_instance):
    _, V = _eigenstates(yes_instance)
    out = run_verifier(yes_instance, V[:, 0], seed=2)
    steps = [t["step"] for t in out.transcript]
    assert steps[0] == "energy-test"
    assert "decision" in steps
    assert out.decision in ("accept-1", "accept-prob-bounded", "reject")


def test_instance_without_threshold_is_refused(monkeypatch):
    from berrylab import verifier
    from berrylab.corpus import bqp_yes_circuit
    from berrylab.circuits import with_idle_steps

    inst = build_bqp_instance(with_idle_steps(bqp_yes_circuit(), 2))
    w, V = np.linalg.eigh(eval_hamiltonian(inst.family, 0.0))
    with pytest.raises(ConfigError):
        run_verifier(inst, V[:, 0], seed=0)

    # with no seeds as with one, and before H(0) is solved
    def spy(*args, **kwargs):
        raise AssertionError("H(0) was solved before the threshold was checked")

    monkeypatch.setattr(verifier, "gapped_slice", spy)
    for run in (run_verifier, energy_test):
        with pytest.raises(ConfigError, match="no energy threshold"):
            run(inst, V[:, 0], seed=[])


@pytest.mark.parametrize("case", ["yes-int-seeds", "no-child-keys"])
def test_batch_equals_single_runs(yes_instance, no_instance, monkeypatch, case):
    # 300 runs cross a block boundary; the superposition witness passes the
    # gate about half the time, so a block mixes both branches.
    from berrylab import verifier

    instance = yes_instance if case.startswith("yes") else no_instance
    _, V = _eigenstates(instance)
    witness = (V[:, 0] + V[:, 1]) / math.sqrt(2.0)
    if "int" in case:
        batch_seeds, single_seeds = list(range(300)), list(range(300))
    else:  # the verify command's runs: children 0..299 of one seed
        batch_seeds = seed_words([7]).child(np.arange(300))
        single_seeds = [SeedWords(batch_seeds.keys[i:i + 1]) for i in range(300)]
    batch = run_verifier(instance, witness, seed=batch_seeds)
    assert {o.energy_pass for o in batch} == {True, False}

    # The singles share one energy distribution and one engine, as the batch does.
    dist = energy_distribution(instance, witness)
    engine = BpeEngine(instance.family, VerifierConfig().bpe, guiding_state=witness)
    monkeypatch.setattr(verifier, "energy_distribution", lambda *args: dist)
    monkeypatch.setattr(verifier, "BpeEngine", lambda *args, **kwargs: engine)
    single = [run_verifier(instance, witness, seed=s) for s in single_seeds]
    single = [o if "int" in case else o[0] for o in single]
    assert [json.dumps(o.to_json_dict()) for o in batch] == [
        json.dumps(o.to_json_dict()) for o in single
    ]

    # Each run rebuilt from its own seed alone, outside the batch code: its
    # energy child draws its readouts through the scalar wrap_pm_pi, and its
    # bpe child gives the engine's readouts of that seed alone.
    qpe = dist.distribution
    for out, s in zip(batch, single_seeds):
        words = seed_words([s] if "int" in case else s)
        u = stream_uniforms(words.child(0), (ENERGY_REPETITIONS, qpe.m + 1))[0]
        js = sample_outcomes(qpe, ENERGY_REPETITIONS, u)
        energies = [-wrap_pm_pi(2.0 * math.pi * j / 2 ** qpe.m) / dist.tau for j in js]
        assert out.energy_estimate == float(np.median(energies))
        if out.energy_pass:
            (m1,), (m_alpha,), _, _ = engine.readouts(words.child(1))
            assert (out.theta_D, out.theta_estimate) == reconstruct_phases(
                m1, m_alpha, engine.alpha, engine.config.alpha_mode)


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
  "accept": false,
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
    "coin": 0.8229311390254723,
    "accept": false
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
  "theta_estimate": 4.730796749839317,
  "decision": "accept-prob-bounded",
  "accept": false,
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
    "theta_B_hat": 4.730796749839317,
    "theta_D_hat": 0.7731263170943636,
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
    "coin": 0.8229311390254723,
    "accept": false
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


# -- the runs' JSON text -----------------------------------------------------------


@pytest.fixture(scope="module")
def duqma_yes_instance():
    return build_duqma_instance(duqma_yes_circuit(), 0)


def _encoder_case(case, yes_instance, no_instance, duqma_yes_instance):
    """(instance, witness, config) of each record shape the verify command
    writes: gated runs inside and outside the arc, failed gates with a coin
    and with p = 0, the DUQMA history witness, and both shapes in one job."""
    if case == "duqma-yes-history:1":
        inst = duqma_yes_instance
        return inst, history_state(inst.circuit, 1).amplitudes, None
    inst = no_instance if case.startswith("syn-no") else yes_instance
    _, V = _eigenstates(inst)
    witness = {"ground": V[:, 0], "excited:1": V[:, 1],
               "half": (V[:, 0] + V[:, 1]) / math.sqrt(2.0)}[case.split(" ")[1]]
    config = VerifierConfig(soundness_delta=1.0 / 3.0) if case.endswith("reject") else None
    return inst, witness, config


ENCODER_CASES = [
    ("syn-yes ground", 300), ("syn-no ground", 300), ("syn-yes excited:1", 300),
    ("syn-yes excited:1 reject", 300), ("duqma-yes-history:1", 300),
    ("syn-yes half", 1), ("syn-yes half", 256), ("syn-yes half", 257),
]


@pytest.mark.parametrize("case, n", ENCODER_CASES, ids=[f"{c} {n}" for c, n in ENCODER_CASES])
def test_runs_json_equals_json_dumps(yes_instance, no_instance, duqma_yes_instance, case, n):
    instance, witness, config = _encoder_case(case, yes_instance, no_instance,
                                              duqma_yes_instance)
    outcomes = run_verifier(instance, witness, config, seed=list(range(n)))
    before = [json.dumps(o.to_json_dict()) for o in outcomes]
    pieces = list(runs_json(outcomes))
    # record by record first: a failure then names its run, with no diff of
    # two long lines to compute
    records = [json.dumps(o.to_json_dict(), sort_keys=True, separators=(",", ":"))
               for o in outcomes]
    assert [p[1:] for p in pieces[:-1]] == records
    assert "".join(pieces) == json.dumps([o.to_json_dict() for o in outcomes], sort_keys=True,
                                         separators=(",", ":"))
    assert [json.dumps(o.to_json_dict()) for o in outcomes] == before
    decisions = {o.decision for o in outcomes}
    if case.endswith("reject"):
        assert decisions == {"reject"} and {o.transcript[-1]["coin"] for o in outcomes} == {None}
    if "half" in case and n > 1:
        assert {o.energy_pass for o in outcomes} == {True, False}


def test_runs_json_of_outcomes_from_two_calls(yes_instance, no_instance):
    # Records of one shape from two calls keep each call's own constants
    # (the two engines' T and alpha differ), and so does a job equal in value
    # to another but not in text: a threshold of -0.0 against 0.0.
    outcomes = []
    for instance in (yes_instance, no_instance):
        _, V = _eigenstates(instance)
        outcomes += run_verifier(instance, V[:, 0], seed=[1, 2])
    assert [o.energy_pass for o in outcomes] == [True] * 4
    assert outcomes[0].job[2] != outcomes[2].job[2]
    signed = replace(outcomes[1], job=(-0.0, *outcomes[1].job[1:]))
    assert signed.job == outcomes[1].job
    outcomes.insert(2, signed)
    records = [json.dumps(o.to_json_dict(), sort_keys=True, separators=(",", ":"))
               for o in outcomes]
    assert [p[1:] for p in list(runs_json(outcomes))[:-1]] == records
    assert '"threshold":-0.0' in records[2]


def test_runs_json_of_no_runs_is_an_empty_list():
    assert "".join(runs_json([])) == "[]"


def test_records_share_no_mutable_constant(yes_instance):
    # Every record is built afresh: editing one leaves the other runs'
    # records, its own next record and the runs' text as they were.
    _, V = _eigenstates(yes_instance)
    outcomes = run_verifier(yes_instance, V[:, 0], seed=[1, 2])
    assert [o.energy_pass for o in outcomes] == [True, True]
    before = [json.dumps(o.to_json_dict()) for o in outcomes]
    text = "".join(runs_json(outcomes))
    outcomes[0].to_json_dict()["transcript"][-1]["interval"][0] = 9.0
    outcomes[0].transcript[-1]["interval"].append(9.0)
    outcomes[0].to_json_dict()["transcript"][1]["T"] = 0.0
    assert [json.dumps(o.to_json_dict()) for o in outcomes] == before
    assert "".join(runs_json(outcomes)) == text

