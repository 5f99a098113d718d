"""Verification protocol for thresholded instances with an interval promise.

The verifier receives a witness state for an instance carrying an energy
threshold E_th and a promise interval (a, b, delta):

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
takes the seeds BLOCK_RUNS at a time and makes each block's runs as arrays.
Each run keeps its own SeedSequence tree, unchanged: the run's seed has
energy, bpe and coin children, and the bpe child one child per runtime.
Nothing is spawned: qpe.seed_row names each child by its entropy and spawn
key, and qpe.stream_uniforms draws a block's streams as one array, bit for
bit what default_rng of each child draws.  So outputs stay byte-identical,
and a batch equals its runs made singly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .angles import TWO_PI
from .bpe import BpeConfig, BpeEngine, WrappedInterval, check_decision_margin, reconstruct_phases
from .dynamics import StateVector
from .errors import ConfigError
from .exact import gapped_slice
from .qpe import (
    QpeDistribution,
    bits_for_precision,
    distribution_from_phases,
    sample_outcomes,
    seed_row,
    stream_uniforms,
)

ENERGY_REPETITIONS = 15
DEFAULT_SOUNDNESS_DELTA = 1.0 / 12.0
BLOCK_RUNS = 256  # runs per block: bounds the (runs, R, R) temporaries and the live seeds
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


class EnergyDistribution(NamedTuple):
    """Precomputed QPE outcome distribution for one (instance, witness)."""

    distribution: QpeDistribution
    tau: float
    delta_min: float


def _as_amplitudes(witness_state) -> np.ndarray:
    if isinstance(witness_state, StateVector):
        return witness_state.amplitudes
    vec = np.asarray(witness_state, dtype=complex)
    n = np.linalg.norm(vec)
    if abs(n - 1.0) > 1e-8:
        raise ConfigError(f"witness state norm {n:.3g} is not 1")
    return vec


def energy_distribution(instance, witness_state) -> EnergyDistribution:
    """Diagonalize H(0) and build the exact QPE outcome distribution for the
    witness, at precision Delta_min/4.  Heavy (one dense eigh); reuse across
    seeds.  A degenerate ground space at lambda = 0 raises DegeneracyError."""
    psi = _as_amplitudes(witness_state)
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


def energy_test(
    instance,
    witness_state,
    *,
    seed=0,
    distribution: EnergyDistribution | None = None,
):
    """Median-of-ENERGY_REPETITIONS energy estimate and the threshold gate.

    Returns (estimate, passed) with passed iff
    estimate < instance.E_th + Delta_min/4; for a list of seeds, an array of
    each, one entry per seed.  A seed is an int, a SeedSequence or an
    (entropy, spawn key) row, and its readouts are what its default_rng
    would draw.  Pass `distribution` (from energy_distribution) to amortize
    the diagonalization across seeds.
    """
    if instance.E_th is None:
        raise ConfigError("instance carries no energy threshold")
    if distribution is None:
        distribution = energy_distribution(instance, witness_state)
    dist, tau, delta_min = distribution
    rows = [seed_row(s) for s in (seed if isinstance(seed, list) else [seed])]
    u = stream_uniforms(rows, (ENERGY_REPETITIONS, dist.m + 1))
    readouts = dist.angles(sample_outcomes(dist, ENERGY_REPETITIONS, u))
    # wrap_pm_pi, bit for bit, on readouts in [0, 2 pi)
    energies = -np.where(readouts > math.pi, readouts - TWO_PI, readouts) / tau
    estimates = np.median(energies, axis=1)
    passed = estimates < instance.E_th + delta_min / 4.0
    if isinstance(seed, list):
        return estimates, passed
    return float(estimates[0]), bool(passed[0])


def run_verifier(
    instance,
    witness_state,
    config: VerifierConfig | None = None,
    seed=0,
):
    """Protocol runs: one VerifierOutcome for a seed (an int or a
    SeedSequence), a list of them for an iterable of seeds (ints,
    SeedSequences or (entropy, spawn key) rows), which is read BLOCK_RUNS at
    a time.  The first run to pass the gate builds the estimator and the
    promise arc, after the decision margin is checked; if none does, no loop
    is propagated."""
    config = config or VerifierConfig()
    single = isinstance(seed, (int, np.integer, np.random.SeedSequence))
    seeds = iter([seed] if single else seed)
    energy_dist = energy_distribution(instance, witness_state)
    eps_B = config.bpe.epsilon_B
    fail_p = max(1.0 / 3.0 - config.soundness_delta, 0.0)
    engine, outcomes = None, []
    while block := list(itertools.islice(seeds, BLOCK_RUNS)):
        estimates, passed = energy_test(instance, witness_state,
                                        seed=[seed_row(s, 0) for s in block],
                                        distribution=energy_dist)
        gated = np.flatnonzero(passed).tolist()
        phases, inside = {}, {}
        if gated:
            if engine is None:
                a, b, delta = instance.interval
                check_decision_margin(delta, eps_B)  # before any propagation
                engine = BpeEngine(
                    instance.family, config.bpe, guiding_state=_as_amplitudes(witness_state)
                )
                arc, reach = WrappedInterval(a, b), delta - eps_B  # decide_interval's test
            m1, m_alpha, _, _ = engine.readouts([seed_row(block[i], 1) for i in gated])
            for i, readouts in zip(gated, zip(m1, m_alpha)):
                phases[i] = reconstruct_phases(*readouts, engine.alpha, engine.config.alpha_mode)
                inside[i] = int(arc.distance(phases[i][1]) <= reach)
        probabilities = [(1.0 if inside[i] else 1.0 / 3.0) if i in inside else fail_p
                         for i in range(len(block))]
        # Certain outcomes draw no coin; every other p is one coin from its coin seed.
        tossed = [i for i, p in enumerate(probabilities) if 0.0 < p < 1.0]
        coins = dict(zip(tossed, stream_uniforms([seed_row(block[i], 2) for i in tossed],
                                                 ()).tolist()))
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
                     "R": engine.R}
                )
                branch = {"step": "decision", "branch": "interval-test",
                          "interval": [a, b, delta], "in_yes_interval": inside[i]}
            else:
                branch = {"step": "decision", "branch": "energy-fail"}
            p, coin = probabilities[i], coins.get(i)
            decision = "accept-1" if p == 1.0 else "reject" if p == 0.0 else "accept-prob-bounded"
            accept = p == 1.0 if coin is None else coin < p
            transcript.append(
                {**branch, "decision": decision, "accept_probability": p, "coin": coin,
                 "accept": accept}
            )
            outcomes.append(VerifierOutcome(
                energy_estimate=estimate,
                energy_pass=passed_i,
                theta_estimate=theta_B,
                decision=decision,
                transcript=transcript,
                accept=accept,
                accept_probability=p,
            ))
    return outcomes[0] if single else outcomes
