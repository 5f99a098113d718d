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
takes the runs' seed keys (qpe.SeedWords, one per run) BLOCK_RUNS at a time
and makes each block's runs as arrays.  A run's seed has energy, bpe and
coin children, and the bpe child one child per runtime; each child's key
mixes its parent's key with its index, so the verify command's runs,
children 0..n-1 of one seed, are one array of keys with no per-run seed,
and qpe.stream_uniforms draws a block's streams from those keys as one
array.  Each stream is a pure function of its key and draw index, so a run
replays from its seed, and a batch equals its runs made singly.

A VerifierOutcome holds its run's own values and its call's constants, and
its to_json_dict is the one spelling of a run's record.  runs_json writes
outcomes as JSON from one template per record shape (a failed gate, or an
interval test) and job, to_json_dict's with the per-run leaves as
sentinels: the constants are encoded once per template, the leaves a
column at a time.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields, replace
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
# Like MAX_TOTAL_STEPS, the eigensolve budget: the most protocol runs one
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


@dataclass(slots=True)
class VerifierOutcome:
    """One protocol run: its own values, and `job`, the constants its call's
    records share: (threshold, margin, the estimator's (epsilon_B, alpha, T,
    m, R), interval), the last two None until a run passes the gate.
    to_json_dict is the one spelling of a run's record."""

    energy_estimate: float
    energy_pass: bool
    theta_estimate: float | None  # theta_B; with theta_D and in_arc, present iff energy_pass
    theta_D: float | None
    in_arc: int | None
    decision: str  # 'accept-1' | 'accept-prob-bounded' | 'reject'
    accept_probability: float
    coin: float | None  # drawn iff 0 < p < 1
    accept: bool
    job: tuple

    def to_json_dict(self) -> dict:
        threshold, margin, estimator, interval = self.job
        transcript = [{"step": "energy-test", "estimate": self.energy_estimate,
                       "threshold": threshold, "margin": margin,
                       "repetitions": ENERGY_REPETITIONS, "pass": self.energy_pass}]
        if self.energy_pass:
            eps_B, alpha, T, m, R = estimator
            transcript.append({"step": "phase-estimation", "theta_B_hat": self.theta_estimate,
                               "theta_D_hat": self.theta_D, "epsilon_B": eps_B, "alpha": alpha,
                               "T": T, "m": m, "R": R})
            branch = {"step": "decision", "branch": "interval-test", "interval": list(interval),
                      "in_yes_interval": self.in_arc}
        else:
            branch = {"step": "decision", "branch": "energy-fail"}
        transcript.append({**branch, "decision": self.decision,
                           "accept_probability": self.accept_probability, "coin": self.coin,
                           "accept": self.accept})
        return {"energy_estimate": self.energy_estimate, "energy_pass": self.energy_pass,
                "theta_estimate": self.theta_estimate, "decision": self.decision,
                "accept": self.accept, "accept_probability": self.accept_probability,
                "transcript": transcript}

    @property
    def transcript(self) -> list:
        return self.to_json_dict()["transcript"]


# A record's per-run leaves: every field but the shape and the job, and the
# sentinel that stands for a leaf in its shape's template.
_LEAVES = [f.name for f in fields(VerifierOutcome) if f.name not in ("energy_pass", "job")]
_LEAF = re.compile(r'"<(\w+)>"')


def runs_json(outcomes):
    """The text of json.dumps([o.to_json_dict() for o in outcomes],
    sort_keys=True, separators=(",", ":")), in pieces.  The records of one
    shape and one job share every constant; a job is told by identity, as
    equal numbers can differ in text (1 and 1.0, 0.0 and -0.0).  Each
    group's template is its first record with sentinel leaves, dumped once,
    and the leaves are dumped a column at a time and spliced in."""
    jobs = map(id, map(attrgetter("job"), outcomes))
    shapes = list(zip(map(attrgetter("energy_pass"), outcomes), jobs))
    records = {}
    for shape in set(shapes):
        runs = [o for o, s in zip(outcomes, shapes) if s == shape]
        template = replace(runs[0], **{name: f"<{name}>" for name in _LEAVES}).to_json_dict()
        parts = _LEAF.split(json.dumps(template, sort_keys=True, separators=(",", ":")))
        literals, leaves = parts[0::2], parts[1::2]
        # Split at commas: numbers, bools, nulls and decisions hold none.
        texts = {name: json.dumps(list(map(attrgetter(name), runs)), separators=(",", ":"))[1:-1]
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
    # A 0-d array has __iter__ but iterates to nothing but an error, so it is
    # one seed.
    return not hasattr(seed, "__iter__") or getattr(seed, "ndim", 1) == 0


def energy_test(instance, witness_state, *, seed=0,
                distribution: EnergyDistribution | None = None):
    """Median-of-ENERGY_REPETITIONS energy estimate and the threshold gate.

    Returns (estimate, passed) with passed iff
    estimate < instance.E_th + Delta_min/4, for one seed (an int >= 0); for
    an iterable of seeds, SeedWords too, an array of each, one entry per
    seed, each what its seed alone would give.  Pass `distribution` (from
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
    """Protocol runs: one VerifierOutcome for a seed (an int >= 0), a list of
    them for an iterable of seeds or SeedWords, run BLOCK_RUNS keys at a
    time.  The first run to pass the gate builds the estimator and the
    promise arc, after the decision margin is checked; if none does, no
    loop is propagated.  An instance with no energy threshold is refused
    before any solve."""
    if instance.E_th is None:
        raise ConfigError("instance carries no energy threshold")
    config = config or VerifierConfig()
    single = _one_seed(seed)
    words = seed_words([seed] if single else seed)
    witness = unit_amplitudes(witness_state)
    energy_dist = energy_distribution(instance, witness)
    eps_B = config.bpe.epsilon_B
    fail_p = max(1.0 / 3.0 - config.soundness_delta, 0.0)
    engine, outcomes = None, []
    job = (instance.E_th, energy_dist.delta_min / 4.0, None, None)
    for start in range(0, len(words.keys), BLOCK_RUNS):
        runs = SeedWords(words.keys[start:start + BLOCK_RUNS])
        estimates, passed = energy_test(instance, witness, seed=runs.child(0),
                                        distribution=energy_dist)
        gated = np.flatnonzero(passed)
        theta_B, theta_D, inside, coin = np.full((4, len(passed)), None)  # None where not run
        p = np.full(len(passed), fail_p)
        if gated.size:
            if engine is None:
                a, b, delta = instance.interval
                check_decision_margin(delta, eps_B)  # before any propagation
                engine = BpeEngine(instance.family, config.bpe, guiding_state=witness)
                job = (*job[:2], (eps_B, engine.alpha, engine.T, engine.m, engine.R), (a, b, delta))
            m1, m_alpha, _, _ = engine.readouts(runs.child(1, gated))
            phase_D, phase_B = reconstruct_phases(np.array(m1), np.array(m_alpha), engine.alpha,
                                                  engine.config.alpha_mode)
            arc = decide_interval(phase_B, a, b, delta, eps_B)
            theta_D[gated], theta_B[gated], inside[gated] = phase_D, phase_B, arc
            p[gated] = np.where(arc == 1, 1.0, 1.0 / 3.0)
        # Certain outcomes draw no coin; every other p is one coin from its coin seed.
        tossed = np.flatnonzero((0.0 < p) & (p < 1.0))
        coin[tossed] = u = stream_uniforms(runs.child(2, tossed), ())
        accept = p == 1.0
        accept[tossed] = u < p[tossed]
        decision = np.select([p == 1.0, p == 0.0], ["accept-1", "reject"], "accept-prob-bounded")
        outcomes += [VerifierOutcome(*run, job) for run in zip(
            estimates.tolist(), passed.tolist(), theta_B.tolist(), theta_D.tolist(),
            inside.tolist(), decision.tolist(), p.tolist(), coin.tolist(), accept.tolist())]
    return outcomes[0] if single else outcomes
