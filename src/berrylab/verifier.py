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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .angles import wrap_pm_pi
from .bpe import BpeConfig, BpeEngine, check_decision_margin, decide_interval
from .dynamics import StateVector
from .errors import ConfigError
from .exact import gapped_slice
from .qpe import QpeDistribution, bits_for_precision, distribution_from_phases, sample_outcomes

ENERGY_REPETITIONS = 15
DEFAULT_SOUNDNESS_DELTA = 1.0 / 12.0


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
) -> tuple[float, bool]:
    """Median-of-ENERGY_REPETITIONS energy estimate and the threshold gate.

    Returns (estimate, passed) with passed iff
    estimate < instance.E_th + Delta_min/4.  Pass `distribution` (from
    energy_distribution) to amortize the diagonalization across seeds.
    """
    if instance.E_th is None:
        raise ConfigError("instance carries no energy threshold")
    if distribution is None:
        distribution = energy_distribution(instance, witness_state)
    dist, tau, delta_min = distribution
    rng = np.random.default_rng(seed)
    outcomes = sample_outcomes(dist, ENERGY_REPETITIONS, rng)
    energies = [-wrap_pm_pi(2.0 * math.pi * j / 2 ** dist.m) / tau for j in outcomes]
    estimate = float(np.median(energies))
    passed = estimate < instance.E_th + delta_min / 4.0
    return estimate, passed


def run_verifier(
    instance,
    witness_state,
    config: VerifierConfig | None = None,
    seed=0,
    *,
    energy_dist: EnergyDistribution | None = None,
    bpe_engine=None,
) -> VerifierOutcome:
    """One full protocol run: energy gate, phase estimation, decision.

    ``energy_dist`` and ``bpe_engine`` amortize the dense diagonalization and
    the loop-propagator construction across seeds: pass the outputs of
    energy_distribution(...) and BpeEngine(instance.family, config.bpe,
    guiding_state=witness) when sweeping many runs on one instance.
    """
    config = config or VerifierConfig()
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    energy_seed, bpe_seed, coin_seed = ss.spawn(3)

    if energy_dist is None:
        energy_dist = energy_distribution(instance, witness_state)
    estimate, passed = energy_test(
        instance, witness_state, seed=energy_seed, distribution=energy_dist
    )
    transcript = [
        {
            "step": "energy-test",
            "estimate": estimate,
            "threshold": instance.E_th,
            "margin": energy_dist.delta_min / 4.0,
            "repetitions": ENERGY_REPETITIONS,
            "pass": passed,
        }
    ]

    theta_B = None
    if passed:
        a, b, delta = instance.interval
        eps_B = config.bpe.epsilon_B
        check_decision_margin(delta, eps_B)  # before any propagation
        if bpe_engine is None:
            bpe_engine = BpeEngine(
                instance.family, config.bpe, guiding_state=_as_amplitudes(witness_state)
            )
        theta_B, theta_D, diagnostics = bpe_engine.run(bpe_seed)
        transcript.append(
            {"step": "phase-estimation", "theta_B_hat": theta_B, "theta_D_hat": theta_D,
             "epsilon_B": eps_B, **{k: diagnostics[k] for k in ("alpha", "T", "m", "R")}}
        )
        inside = decide_interval(theta_B, a, b, delta, eps_B)
        p = 1.0 if inside == 1 else 1.0 / 3.0
        branch = {"step": "decision", "branch": "interval-test",
                  "interval": [a, b, delta], "in_yes_interval": inside}
    else:
        p = max(1.0 / 3.0 - config.soundness_delta, 0.0)
        branch = {"step": "decision", "branch": "energy-fail"}

    # Certain outcomes draw no coin; every other p is one coin from coin_seed.
    decision = "accept-1" if p == 1.0 else "reject" if p == 0.0 else "accept-prob-bounded"
    coin = float(np.random.default_rng(coin_seed).random()) if 0.0 < p < 1.0 else None
    accept = p == 1.0 if coin is None else coin < p
    transcript.append(
        {**branch, "decision": decision, "accept_probability": p, "coin": coin, "accept": accept}
    )
    return VerifierOutcome(
        energy_estimate=estimate,
        energy_pass=passed,
        theta_estimate=theta_B,
        decision=decision,
        transcript=transcript,
        accept=accept,
        accept_probability=p,
    )
