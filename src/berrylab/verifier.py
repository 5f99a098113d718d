"""Verification protocol for thresholded instances with an interval promise.

The verifier receives a witness state for an instance carrying an energy
threshold E_th and a promise interval (a, b, delta).  The witness is checked
once, as a StateVector is (dynamics.unit_amplitudes: finite, of length 2^n,
unit norm to 1e-8), and the same amplitudes go to the gate and the estimator:

1. Energy gate: estimate <H(0)> of the witness by phase estimation on
   exp(-i H(0) tau) and pass iff the median of ENERGY_REPETITIONS readouts
   is below E_th + Delta_min/4, where Delta_min is the measured spectral
   gap at lambda = 0 and E_th the instance's threshold.  Each readout has
   precision Delta_min/4.  tau is fixed at pi / (||H|| + 1) so every
   eigenphase sits strictly inside (-pi, pi) and no wraparound aliasing
   can occur.
2. Only if the gate passes, the two-runtime phase algorithm estimates
   theta_B starting from the witness as guiding state.
3. One decision: accept with probability p = max(1/3 - Delta, 0) on a
   failed gate (Delta defaults to 1/12), 1 when theta_B lies in the arc
   and exactly 1/3 outside it.  A seeded coin, recorded in the
   transcript, is drawn only when 0 < p < 1.

run_verifier is one batch path, a single run being its one-seed case: it
takes the runs' seed words (qpe.SeedWords, one row per run) BLOCK_RUNS
rows at a time and makes each block's runs as arrays.  Each run keeps its
own SeedSequence tree, unchanged: the run's seed has energy, bpe and coin
children, and the bpe child one child per runtime.  Nothing is spawned: a
child's words append its index as a column, so the verify command's runs,
children 0..n-1 of one seed, are one array with no per-run seed, and
qpe.stream_uniforms draws a block's streams from those rows, coins with no
Generator, bit for bit what default_rng of each child draws.  So outputs
stay byte-identical, and a batch equals its runs made singly.

runs_json writes outcomes as JSON from one template per record shape (a
failed gate, or an interval test): constants are encoded once per shape,
and the per-run leaves a column at a time, by json.dumps of a list.
"""

from __future__ import annotations

import copy
import json
import math
import re
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .angles import wrap_pm_pi
from .bpe import BpeConfig, BpeEngine, check_decision_margin, decide_interval, reconstruct_phases
from .dynamics import unit_amplitudes
from .errors import ConfigError
from .exact import gapped_slice
from .qpe import (
    QpeDistribution,
    SeedWords,
    bits_for_precision,
    distribution_from_phases,
    sample_outcomes,
    seed_words,
    stream_uniforms,
)

ENERGY_REPETITIONS = 15
DEFAULT_SOUNDNESS_DELTA = 1.0 / 12.0
BLOCK_RUNS = 256  # runs per block: bounds each block's child words and uniform arrays
# Like MAX_GRID_POINTS and MAX_TOTAL_STEPS: the most protocol runs one
# verify command makes, refused before any seed is drawn.
MAX_VERIFY_RUNS = 100_000


@dataclass(frozen=True)
class VerifierConfig:
    """The settings of one protocol run: the soundness margin Delta and the
    estimator's configuration.  The energy gate's repetitions and precision
    are fixed (ENERGY_REPETITIONS, Delta_min/4)."""

    soundness_delta: float = DEFAULT_SOUNDNESS_DELTA
    bpe: BpeConfig = field(default_factory=BpeConfig)

    def __post_init__(self):
        if not 0.0 < self.soundness_delta < 1.0 / 3.0 + 1e-12:
            raise ConfigError(
                f"soundness margin must lie in (0, 1/3], got {self.soundness_delta}"
            )


@dataclass
class VerifierOutcome:
    energy_estimate: float
    energy_pass: bool
    theta_estimate: float | None  # present iff energy_pass
    decision: str  # 'accept-1' | 'accept-prob-bounded' | 'reject'
    transcript: list
    accept: bool
    accept_probability: float

    def to_json_dict(self) -> dict:
        return {
            "energy_estimate": self.energy_estimate,
            "energy_pass": self.energy_pass,
            "theta_estimate": self.theta_estimate,
            "decision": self.decision,
            "accept": self.accept,
            "accept_probability": self.accept_probability,
            "transcript": self.transcript,
        }


# A record's per-run leaves: the sentinel a template holds, and its column.
_LEAF = re.compile(r'"<(\w+)>"')
_COLUMNS = {"estimate": attrgetter("energy_estimate"), "theta_B": attrgetter("theta_estimate"),
            "decision": attrgetter("decision"), "p": attrgetter("accept_probability"),
            "accept": attrgetter("accept"), "theta_D": lambda o: o.transcript[1]["theta_D_hat"],
            "in_arc": lambda o: o.transcript[-1]["in_yes_interval"],
            "coin": lambda o: o.transcript[-1]["coin"]}


def _template(outcome) -> tuple[list, list]:
    """The literal texts of the outcome's record shape (a failed gate, or an
    interval test), each constant encoded once, and the leaves between them."""
    record = copy.deepcopy(outcome.to_json_dict())  # not the live transcript
    gate, *phase, branch = record["transcript"]
    record.update(energy_estimate="<estimate>", decision="<decision>", accept_probability="<p>",
                  accept="<accept>")
    gate["estimate"] = "<estimate>"
    branch.update(decision="<decision>", accept_probability="<p>", coin="<coin>", accept="<accept>")
    if phase:  # the gate passed
        record["theta_estimate"] = phase[0]["theta_B_hat"] = "<theta_B>"
        phase[0]["theta_D_hat"], branch["in_yes_interval"] = "<theta_D>", "<in_arc>"
    parts = _LEAF.split(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return parts[0::2], parts[1::2]


def runs_json(outcomes):
    """The text of json.dumps([o.to_json_dict() for o in outcomes],
    sort_keys=True, separators=(",", ":")), in pieces, for the outcomes of
    one run_verifier call: its records of one shape share every constant."""
    shapes = [o.energy_pass for o in outcomes]
    records = {}
    for shape in set(shapes):
        runs = [o for o, s in zip(outcomes, shapes) if s == shape]
        literals, leaves = _template(runs[0])
        # Split at commas: numbers, bools, nulls and decisions hold none.
        texts = {name: json.dumps(list(map(_COLUMNS[name], runs)), separators=(",", ":"))[1:-1]
                 .split(",") for name in set(leaves)}
        spliced = chain.from_iterable(zip(map(repeat, literals), map(texts.get, leaves)))
        records[shape] = map("".join, zip(repeat(","), *spliced, repeat(literals[-1])))
    pieces = map(next, map(records.get, shapes))  # each led by a comma, the first's dropped
    yield "[" + next(pieces, ",")[1:]
    yield from pieces
    yield "]"


class EnergyDistribution(NamedTuple):
    """Precomputed QPE outcome distribution for one (instance, witness)."""

    distribution: QpeDistribution
    tau: float
    delta_min: float


def energy_distribution(instance, witness_state) -> EnergyDistribution:
    """Diagonalize H(0) and build the exact QPE outcome distribution for the
    witness, at precision Delta_min/4.  Heavy (one dense eigh); reuse across
    seeds.  A degenerate ground space at lambda = 0 raises DegeneracyError."""
    psi = unit_amplitudes(witness_state)
    if instance.family.dim != psi.size:
        raise ConfigError(
            f"witness dimension {psi.size} does not match instance "
            f"dimension {instance.family.dim}"
        )
    s = gapped_slice(instance.family, 0.0)
    evals, vecs = s.eigenvalues, s.eigenvectors
    delta_min = s.gap
    tau = math.pi / (float(np.max(np.abs(evals))) + 1.0)
    m = bits_for_precision(tau * (delta_min / 4.0))
    weights = np.abs(vecs.conj().T @ psi) ** 2
    phases = np.mod(-evals * tau, 2.0 * math.pi)
    dist = distribution_from_phases(phases, weights, m)
    return EnergyDistribution(dist, tau, delta_min)


def _one_seed(seed) -> bool:
    # A row is a tuple, and so are SeedWords: only the bare tuple is one seed.
    return type(seed) is tuple or not hasattr(seed, "__iter__")


def energy_test(instance, witness_state, *, seed=0,
                distribution: EnergyDistribution | None = None):
    """Median-of-ENERGY_REPETITIONS energy estimate and the threshold gate.

    Returns (estimate, passed) with passed iff
    estimate < instance.E_th + Delta_min/4; for any other iterable of seeds,
    SeedWords too, an array of each, one entry per seed.  A seed is an int,
    a SeedSequence or an (entropy, spawn key) row, and its readouts are what
    its default_rng would draw.  Pass `distribution` (from
    energy_distribution) to amortize the diagonalization across seeds.
    """
    if instance.E_th is None:
        raise ConfigError("instance carries no energy threshold")
    if distribution is None:
        distribution = energy_distribution(instance, witness_state)
    dist, tau, delta_min = distribution
    single = _one_seed(seed)
    u = stream_uniforms([seed] if single else seed, (ENERGY_REPETITIONS, dist.m + 1))
    readouts = dist.angles(sample_outcomes(dist, ENERGY_REPETITIONS, u))
    energies = -wrap_pm_pi(readouts) / tau
    estimates = np.median(energies, axis=1)
    passed = estimates < instance.E_th + delta_min / 4.0
    if single:
        return float(estimates[0]), bool(passed[0])
    return estimates, passed


def run_verifier(instance, witness_state, config: VerifierConfig | None = None, seed=0):
    """Protocol runs: one VerifierOutcome for a seed (an int, a SeedSequence
    or an (entropy, spawn key) row), a list of them for an iterable of
    seeds or SeedWords, run BLOCK_RUNS rows at a time.  The first run to
    pass the gate builds the estimator and the promise arc, after the
    decision margin is checked; if none does, no loop is propagated."""
    config = config or VerifierConfig()
    single = _one_seed(seed)
    words = seed_words([seed] if single else seed)
    witness = unit_amplitudes(witness_state)
    energy_dist = energy_distribution(instance, witness)
    eps_B = config.bpe.epsilon_B
    fail_p = max(1.0 / 3.0 - config.soundness_delta, 0.0)
    engine, outcomes = None, []
    for start in range(0, len(words.lengths), BLOCK_RUNS):
        runs = SeedWords(*(a[start:start + BLOCK_RUNS] for a in words))
        estimates, passed = energy_test(instance, witness, seed=runs.child(0),
                                        distribution=energy_dist)
        gated = np.flatnonzero(passed).tolist()
        phases, inside = {}, {}
        if gated:
            if engine is None:
                a, b, delta = instance.interval
                check_decision_margin(delta, eps_B)  # before any propagation
                engine = BpeEngine(instance.family, config.bpe, guiding_state=witness)
            m1, m_alpha, _, _ = engine.readouts(runs.child(1, gated))
            theta_D, theta_B = reconstruct_phases(np.array(m1), np.array(m_alpha), engine.alpha,
                                                  engine.config.alpha_mode)
            phases = dict(zip(gated, zip(theta_D.tolist(), theta_B.tolist())))
            inside = dict(zip(gated, decide_interval(theta_B, a, b, delta, eps_B).tolist()))
        probabilities = [(1.0 if inside[i] else 1.0 / 3.0) if i in inside else fail_p
                         for i in range(len(runs.lengths))]
        # Certain outcomes draw no coin; every other p is one coin from its coin seed.
        tossed = [i for i, p in enumerate(probabilities) if 0.0 < p < 1.0]
        coins = dict(zip(tossed, stream_uniforms(runs.child(2, tossed), ()).tolist()))
        for i, (estimate, passed_i) in enumerate(zip(estimates.tolist(), passed.tolist())):
            transcript = [{"step": "energy-test", "estimate": estimate, "threshold": instance.E_th,
                           "margin": energy_dist.delta_min / 4.0,
                           "repetitions": ENERGY_REPETITIONS, "pass": passed_i}]
            theta_B = None
            if passed_i:
                theta_D, theta_B = phases[i]
                transcript.append(
                    {"step": "phase-estimation", "theta_B_hat": theta_B, "theta_D_hat": theta_D,
                     "epsilon_B": eps_B, "alpha": engine.alpha, "T": engine.T, "m": engine.m,
                     "R": engine.R})
                branch = {"step": "decision", "branch": "interval-test",
                          "interval": [a, b, delta], "in_yes_interval": inside[i]}
            else:
                branch = {"step": "decision", "branch": "energy-fail"}
            p, coin = probabilities[i], coins.get(i)
            decision = "accept-1" if p == 1.0 else "reject" if p == 0.0 else "accept-prob-bounded"
            accept = p == 1.0 if coin is None else coin < p
            transcript.append({**branch, "decision": decision, "accept_probability": p,
                               "coin": coin, "accept": accept})
            outcomes.append(VerifierOutcome(
                energy_estimate=estimate, energy_pass=passed_i, theta_estimate=theta_B,
                decision=decision, transcript=transcript, accept=accept, accept_probability=p))
    return outcomes[0] if single else outcomes
