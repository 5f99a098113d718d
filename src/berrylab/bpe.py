"""Two-runtime Berry phase estimation and the phase-doubling baseline.

One loop traversal imprints theta_B - theta_D(T) on the ground state, with
the dynamical part linear in the runtime T.  Running phase estimation at two
runtimes T and alpha*T and subtracting eliminates the geometric part from the
difference, so the dynamical phase can be divided out and removed:

    theta_D_hat = ((m_alpha - m1)_(-pi, pi] / (alpha - 1))_[0, 2pi)
    theta_B_hat = (m1 - theta_D_hat)_[0, 2pi)

With 1/(alpha-1) a positive integer the reconstruction is exact for *any*
dynamical phase (the unwrapping ambiguity cancels mod 2 pi); with the formula
alpha = 1 + pi/(T H_max + 2 eps_B) it is exact whenever |theta_D (alpha-1)|
stays below pi.  Per-measurement phase errors eps_ph propagate to at most
eps_ph (1 + 2/(alpha-1)) = eps_B on theta_B_hat; half of that budget goes to
QPE readout and half to the finite-runtime eigenphase lag (about G/T, see
dynamics.phase_lag_scale), which the runtime floor T >= 4 G / eps_B keeps in
bounds after its milder (alpha+1)/alpha amplification.

Both runtimes share the same Trotter step dt (the alpha-run simply takes
proportionally more steps), so step-discretization phase errors that are
linear in T cancel in the reconstruction exactly like the dynamical phase.
What is left of the step error spoils theta_B alone, so the step is sized
by checking theta_B on the lab's one refinement ladder (exact.refine):
starting from the commutator guess, the step count doubles until the pairs
at n and n/2 steps reconstruct theta_B within eps_B/100 of each other,
never past the H_max cap of dynamics.step_count.  A guess of at least half
the cap is the one-level ladder at the cap, built unchecked.  Both alpha
rules run this check.  The alpha-run takes n + floor((alpha - 1) n)
steps, so its realized ratio never exceeds the nominal alpha and the formula
rule's unwrap window holds at every level.  In integer mode that is 2n steps,
the next level's T-run grid: below the cap one sweep builds both.

The baseline (phase doubling: estimate on the reversed-then-forward composite
loop, which accumulates 2 theta_B) is included for comparison; its output is
a mod-pi quantity and aliases theta_B - pi for theta_B in [pi, 2 pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .angles import circle_distance, wrap_2pi, wrap_pm_pi
from .dynamics import (
    DEFAULT_OVERSAMPLING,
    AdiabaticSchedule,
    calibrate_runtime,
    check_step_budget,
    guess_step_count,
    loop_propagator,
    loop_propagators,
    phase_lag_scale,
    step_count,
    unit_amplitudes,
)
from .errors import ConfigError
from .exact import gapped_slice, ground_sector, lambda_grid, min_gap, refine
from .hamiltonians import HamiltonianFamily, norm_bounds
from .qpe import (
    bits_for_precision,
    circular_median,
    distribution_for_unitary,
    estimate_from_distribution,
    sample_outcomes,
    seed_words,
    stream_uniforms,
)

GAP_GRID = 64  # lambda points of the gap guard and the phase-lag scale
GUIDING_FLOOR = 0.25  # least guiding-state fidelity that can be postselected
STEP_CHECK_FRACTION = 0.01  # the step check's theta_B agreement, as a share of eps_B
DOMINANT_TIE = 1e-9  # weights this close to the largest tie for the dominant phase


def _dominant_phase(dist) -> float:
    """Eigenphase of the component carrying the most weight.  Weights within
    DOMINANT_TIE of the largest tie, and the phase smallest in [0, 2 pi) wins:
    an even split must not hang on the solver's rounding or order."""
    tied = dist.phases[dist.weights >= dist.weights.max() - DOMINANT_TIE]
    return float(min(tied, key=wrap_2pi))


def _checked_build(family: HamiltonianFamily, T: float, cap: int, total: int, low: int,
                   tol: float, build):
    """Build at the coarsest step count that the a-posteriori check accepts.

    ``total``, the steps of the estimator's legs at the cap, is held to the
    step budget first, before any propagation: the estimators' one check.
    ``build(n)`` makes the estimator's propagators at n steps per runtime T
    and returns (result, phase), the phase read from dominant eigenphases.
    n starts at twice the larger of ``low`` and half the commutator guess,
    rounded up (a lambda-independent family guesses 0).  The refine ladder
    n/2, n, 2n, ... below the cap, then the cap, accepts a level whose phase
    is within tol of the level before's.  A start at the cap, as a guess of
    at least half the cap makes, is the one-level ladder [cap], unchecked.
    The level after n is 2n unless 2n passes the cap, so ``build(n)`` may
    build level 2n's work too, from the same sweep.  Returns (result, record).
    """
    check_step_budget(T, total)
    guess = guess_step_count(family, T)
    n = min(cap, 2 * max(low, math.ceil(guess / 2))) if 2.0 * guess < cap else cap
    below = [n // 2, *(n << k for k in range(((cap - 1) // n).bit_length()))] if n < cap else []
    result, record = refine(below + [cap], build, lambda previous, phase: (
        previous is not None and circle_distance(phase, previous) <= tol))
    return result, {"guess": guess, "cap": cap, **record, "phase": record["tested"][-1][1]}


# ---------------------------------------------------------------------------
# Wrapped intervals and the decision rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WrappedInterval:
    """Arc [a, b] on the circle: plain [a, b] if b >= a after wrapping,
    otherwise the union [0, b] cup [a, 2 pi).  Closed at both endpoints."""

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", wrap_2pi(self.a))
        object.__setattr__(self, "b", wrap_2pi(self.b))

    def contains(self, theta):
        t = wrap_2pi(theta)
        if self.b >= self.a:
            return (self.a <= t) & (t <= self.b)
        return (t <= self.b) | (t >= self.a)

    def distance(self, theta):
        """Wrapped distance from theta to the arc (0 when inside), elementwise on arrays."""
        ends = np.minimum(circle_distance(theta, self.a), circle_distance(theta, self.b))
        d = np.where(self.contains(theta), 0.0, ends)
        return d if np.ndim(theta) else float(d)


def check_decision_margin(delta: float, eps_B: float) -> None:
    """Refuse eps_B >= 2 delta, where no estimate can be decided.  It needs
    no estimate, so callers can run it before any spectral work."""
    if not eps_B < 2.0 * delta:
        raise ConfigError(
            f"need eps_B < 2*delta for a meaningful decision margin, got "
            f"eps_B={eps_B}, delta={delta}"
        )


def decide_interval(theta_hat, a: float, b: float, delta: float, eps_B: float):
    """1 iff theta_hat lies within delta - eps_B of the arc [a, b]; for an
    array of estimates, an int array of the decisions, one per estimate.
    The CLI's estimators and the verifier decide by this one test.

    Under the promise (true phase inside the shrunken arc or deep in its
    complement) this reproduces the true interval bit whenever the estimate
    is eps_B-accurate.
    """
    check_decision_margin(delta, eps_B)
    inside = WrappedInterval(a, b).distance(theta_hat) <= delta - eps_B
    return inside.astype(int) if np.ndim(theta_hat) else int(inside)


# ---------------------------------------------------------------------------
# Runtime-pair selection and reconstruction
# ---------------------------------------------------------------------------


def choose_alpha(T: float, H_max: float, eps_B: float, mode: str = "formula") -> float:
    """Second-runtime ratio alpha.

    formula mode: alpha = 1 + pi/(T H_max + 2 eps_B), which keeps
    |theta_D (alpha-1)| < pi - 2 eps_ph so the difference unwraps uniquely.

    integer mode: alpha = 2, so 1/(alpha - 1) = 1 and the reconstruction is
    exact for arbitrary dynamical phase, no unwrap condition needed.
    """
    if T < 0 or H_max < 0:
        raise ConfigError("T and H_max must be non-negative")
    if eps_B <= 0:
        raise ConfigError(f"eps_B must be positive, got {eps_B}")
    if mode == "formula":
        return 1.0 + math.pi / (T * H_max + 2.0 * eps_B)
    if mode == "integer":
        return 2.0
    raise ConfigError(f"unknown alpha mode {mode!r}")


def reconstruct_phases(m1, m_alpha, alpha: float, mode: str = "formula") -> tuple:
    """(theta_D_hat, theta_B_hat) from the two measured loop phases, floats or arrays."""
    if alpha <= 1.0:
        raise ConfigError(f"alpha must exceed 1, got {alpha}")
    if mode == "integer":
        q = 1.0 / (alpha - 1.0)
        if abs(q - round(q)) > 1e-9:
            raise ConfigError(
                f"integer mode needs 1/(alpha-1) integral, got {q:.6f}"
            )
    elif mode != "formula":
        raise ConfigError(f"unknown alpha mode {mode!r}")
    diff = wrap_pm_pi(m_alpha - m1)
    theta_D = wrap_2pi(diff / (alpha - 1.0))
    theta_B = wrap_2pi(m1 - theta_D)
    return theta_D, theta_B


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BpeConfig:
    """The five settings of a two-runtime estimation run, one per CLI flag.

    The engine derives the rest: alpha by choose_alpha, m from half the
    phase budget eps_ph = eps_B (alpha-1)/(alpha+1) (the other half absorbs
    the residual eigenphase lag), R from the failure budget, and, unless T
    is set, T by a doubling search on measured loop infidelity plus the
    phase-lag floor 4 G / eps_B.  Every step samples H(lambda) at its
    midpoint.  ``oversampling`` (at least 2) sets the finest step density,
    dt * H_max <= 1/oversampling: calibration runs at it, and the estimators
    take the coarsest step count at or below it that their step check
    accepts.
    """

    epsilon_B: float = 0.05
    eta: float = 0.05
    alpha_mode: str = "integer"
    T: float | None = None
    oversampling: float = DEFAULT_OVERSAMPLING

    def __post_init__(self) -> None:
        for name in ("epsilon_B", "oversampling", "T"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.epsilon_B <= 0:
            raise ConfigError(f"epsilon_B must be positive, got {self.epsilon_B}")
        if not (0.0 < self.eta < 1.0):
            raise ConfigError(f"eta must be in (0, 1), got {self.eta}")
        if self.eta_qpe == 0.0:
            raise ConfigError(f"eta={self.eta} is too small to split over a run's "
                              "four failure opportunities")
        if self.alpha_mode not in ("integer", "formula"):
            raise ConfigError(f"unknown alpha mode {self.alpha_mode!r}")
        if self.T is not None and self.T <= 0:
            raise ConfigError(f"runtime T must be positive, got {self.T}")
        if self.oversampling < 2.0:
            raise ConfigError(f"oversampling must be >= 2, got {self.oversampling}")

    @property
    def eta_qpe(self) -> float:
        # Four failure opportunities per run pair (two adiabatic legs, two
        # phase estimations) share the budget evenly.
        return 1.0 - (1.0 - self.eta) ** 0.25

    @property
    def delta_adia(self) -> float:
        return math.sqrt(self.eta_qpe)

    @property
    def repetitions(self) -> int:
        """R: an odd count of at least 5 and 4 ln(1/eta_qpe)."""
        R = max(5, math.ceil(4.0 * math.log(1.0 / self.eta_qpe)))
        return R if R % 2 == 1 else R + 1


def _resolve_runtime(
    family: HamiltonianFamily, cfg: BpeConfig, guiding_state=None
) -> tuple[tuple, dict]:
    """Set-up shared by both estimators: the guiding state's check (before any
    solve), norm bounds, ground state, gap guard, guiding fidelity and
    runtime T.  Returns exact.ground_sector's (sector, amplitudes) of psi0 at
    lambda = 0, the sector that every leg and the gap guard keep to, and the rest.

    Unless cfg.T is set, T comes from the doubling search on measured loop
    infidelity.  That search certifies state tracking (a 1/T^2 effect) but
    not the eigenphase, which lags the ideal -E0 T + theta_B by about G/T
    and is amplified (alpha+1)/alpha < 2 fold by the reconstruction.  The
    runtime is therefore floored at 4 G / eps_B, which keeps that systematic
    within half of eps_B; QPE readout gets the other half.  A floored
    calibration records the floor as ``phase_lag_floor``.  A set cfg.T is
    kept even below the floor, with a ``warnings`` entry saying so.
    """
    guide = None if guiding_state is None else unit_amplitudes(guiding_state)
    if guide is not None and guide.shape != (family.dim,):
        raise ConfigError(
            f"guiding state has shape {guide.shape}, expected ({family.dim},)"
        )
    h_max, d1_max, d2_max = norm_bounds(family)
    s0 = gapped_slice(family, 0.0)  # the gap guard's first point gives E0 and psi0
    E0, psi0 = s0.ground_energy, s0.ground_state
    ground = ground_sector(family, psi0)
    rest = min_gap(family, lambda_grid(family, GAP_GRID)[1:], ground_in=ground[0])
    gap, gap_argmin = min((s0.gap, 0.0), rest, key=lambda t: t[0])  # the first minimum

    guiding_fidelity = 1.0 if guide is None else float(abs(np.vdot(guide, psi0)) ** 2)
    if guiding_fidelity < GUIDING_FLOOR:
        raise ConfigError(
            f"guiding-state fidelity {guiding_fidelity:.3f} below "
            f"the floor {GUIDING_FLOOR}; cannot postselect the "
            "ground state from this input"
        )

    T, calibration = cfg.T, None
    if T is None:
        T, calibration = calibrate_runtime(family, cfg.delta_adia, cfg.oversampling,
                                           ground=ground)
    phase_lag = phase_lag_scale(family, GAP_GRID)
    T_phase_floor = 4.0 * phase_lag / cfg.epsilon_B
    warnings = []
    if cfg.T is None and T < T_phase_floor:
        T = T_phase_floor
        calibration = dict(calibration, phase_lag_floor=T_phase_floor)
    elif T < T_phase_floor:
        warnings.append(
            f"runtime T={T:.6g} is below the phase-lag floor 4G/eps_B = "
            f"{T_phase_floor:.6g}; the estimate may miss theta_B by more than eps_B"
        )
    return ground, {
        "T": float(T),
        "H_max": h_max,
        "dH_max": d1_max,
        "d2H_max": d2_max,
        "gap": gap,
        "gap_argmin": gap_argmin,
        "phase_lag": phase_lag,
        "T_phase_floor": T_phase_floor,
        "E0": E0,
        "guiding_fidelity": guiding_fidelity,
        "calibration": calibration,
        "warnings": warnings,
    }


def _note_infidelity(calibration: dict | None, overlap: complex) -> None:
    """A floored runtime reports its infidelity 1 - |<psi0|W(T)|psi0>|^2,
    from the overlap that an estimator reads off the T leg it built."""
    if "phase_lag_floor" in (calibration or {}):
        calibration["infidelity"] = max(0.0, 1.0 - abs(overlap) ** 2)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class BpeEngine:
    """Precomputed two-runtime estimator for one family.

    Building the engine does all the heavy work (gap scan, runtime
    calibration, the two loop propagators and their exact QPE outcome
    distributions); run(seed) then just samples, so sweeping many seeds on
    one family is cheap.
    """

    def __init__(
        self,
        family: HamiltonianFamily,
        config: BpeConfig | None = None,
        guiding_state=None,
    ) -> None:
        self.family = family
        self.config = config or BpeConfig()
        cfg = self.config

        (self.sector, self.psi0), self.setup = _resolve_runtime(family, cfg, guiding_state)
        self.T = self.setup["T"]
        self.calibration = self.setup["calibration"]

        self.alpha_nominal = choose_alpha(
            self.T, self.setup["H_max"], cfg.epsilon_B, cfg.alpha_mode
        )

        # Shared-step pairs: the alpha run reuses dt exactly, and the realized
        # step ratio is what enters the reconstruction.  The step check starts
        # where the half level still gets one extra alpha step, and holds both
        # legs at the cap to the budget.  _ahead holds the T leg that a level's
        # alpha sweep built for the next level.
        self._cap, self._ahead = step_count(self.T, self.setup["H_max"], cfg.oversampling), {}
        pair, self.step_check = _checked_build(
            family, self.T, self._cap, self._cap + self._alpha_steps(self._cap),
            math.ceil(1.0 / (self.alpha_nominal - 1.0)), STEP_CHECK_FRACTION * cfg.epsilon_B,
            self._pair,
        )
        vars(self).update(pair, _ahead={})  # drop a T leg built ahead, not used
        self.R = cfg.repetitions
        # the T leg's <psi0|W(T)|psi0> = sum_k weight_k e^{i phase_k}
        _note_infidelity(self.calibration,
                         np.sum(self.dist1.weights * np.exp(1j * self.dist1.phases)))

    def _alpha_steps(self, steps: int) -> int:
        """Alpha-run steps: twice ``steps`` in integer mode, and a ratio of at
        most alpha_nominal whenever (alpha_nominal - 1) steps >= 1."""
        return steps + max(1, math.floor((self.alpha_nominal - 1.0) * steps))

    def _pair(self, steps: int) -> tuple[dict, float]:
        """The two-runtime pair at ``steps`` steps per runtime T, as engine
        attributes, and its theta_B from dominant eigenphases.  An alpha leg of
        2n <= cap steps also builds level 2n's T leg, kept in ``_ahead``."""
        steps_alpha = self._alpha_steps(steps)
        alpha = steps_alpha / steps  # realized ratio, exact in floats
        dt = self.T / steps
        eps_ph = self.config.epsilon_B * (alpha - 1.0) / (alpha + 1.0)
        m = bits_for_precision(0.5 * eps_ph)
        sched1 = AdiabaticSchedule(T=self.T, steps=steps)
        sched_a = replace(sched1, T=dt * steps_alpha, steps=steps_alpha)
        W1 = (self._ahead.pop(steps) if steps in self._ahead
              else loop_propagator(self.family, sched1, sector=self.sector))
        if steps_alpha == 2 * steps <= self._cap:
            W_alpha, self._ahead[steps_alpha] = loop_propagators(
                self.family, sched_a, replace(sched1, steps=steps_alpha), sector=self.sector)
        else:
            W_alpha = loop_propagator(self.family, sched_a, sector=self.sector)
        dist1, dist_alpha = (distribution_for_unitary(W, self.psi0, m) for W in (W1, W_alpha))
        _, theta_B = reconstruct_phases(
            _dominant_phase(dist1), _dominant_phase(dist_alpha), alpha,
            self.config.alpha_mode,
        )
        return {
            "steps": steps, "steps_alpha": steps_alpha, "alpha": alpha,
            "dt": dt, "T_alpha": sched_a.T, "eps_ph": eps_ph, "m": m,
            "dist1": dist1, "dist_alpha": dist_alpha,
        }, theta_B

    def readouts(self, seeds) -> tuple[list, list, np.ndarray, np.ndarray]:
        """Both runtimes' QPE readouts for a list of seeds: the circular
        medians m1 and m_alpha, one per seed, and the raw outcomes behind
        them, one row of R per seed.  A seed is an int >= 0, or the seeds
        are SeedWords.  Runtime k's row is the stream of the seed's child k,
        each seed's rows what that seed alone would give, and all seeds'
        rows of one runtime come from one stream_uniforms call."""
        dists, words = (self.dist1, self.dist_alpha), seed_words(seeds)
        raw = [sample_outcomes(d, self.R, stream_uniforms(words.child(k), (self.R, d.m + 1)))
               for k, d in enumerate(dists)]
        m1, m_alpha = (circular_median(d.angles(r)).tolist() for d, r in zip(dists, raw))
        return m1, m_alpha, *raw

    def run(self, seed) -> tuple[float, float, dict]:
        """One seeded estimation: returns (theta_B_hat, theta_D_hat,
        diagnostics)."""
        (m1,), (m_alpha,), (raw1,), (raw_alpha,) = self.readouts([seed])
        theta_D, theta_B = reconstruct_phases(
            m1, m_alpha, self.alpha, self.config.alpha_mode
        )
        diagnostics = {
            "seed": int(seed),
            "T_alpha": self.T_alpha,
            "alpha_nominal": self.alpha_nominal,
            "alpha": self.alpha,
            "alpha_mode": self.config.alpha_mode,
            "steps": self.steps,
            "steps_alpha": self.steps_alpha,
            "dt": self.dt,
            "step_check": self.step_check,
            "m": self.m,
            "R": self.R,
            "eps_ph": self.eps_ph,
            "epsilon_B": self.config.epsilon_B,
            "eta": self.config.eta,
            "eta_qpe": self.config.eta_qpe,
            "delta_adia": self.config.delta_adia,
            **self.setup,
            "m1": m1,
            "m_alpha": m_alpha,
            "raw_outcomes_1": tuple(raw1.tolist()),
            "raw_outcomes_alpha": tuple(raw_alpha.tolist()),
            "low_fidelity_warning": bool(
                self.dist1.low_fidelity or self.dist_alpha.low_fidelity
            ),
        }
        return theta_B, theta_D, diagnostics


def run_bpe(
    family: HamiltonianFamily,
    initial_ground_state=None,
    config: BpeConfig | None = None,
    seed: int = 0,
) -> tuple[float, float, dict]:
    """Two-runtime Berry phase estimation; see BpeEngine for the heavy
    lifting.

    The initial state acts as a guide: its fidelity against the exact ground
    state of H(0) is checked (and recorded), after which the algorithm runs
    on the postselected ground state — the idealized limit of preparing with
    measurement + retry.
    """
    engine = BpeEngine(family, config, guiding_state=initial_ground_state)
    return engine.run(seed)


# ---------------------------------------------------------------------------
# Phase-doubling baseline
# ---------------------------------------------------------------------------


def murta_bpe(
    family: HamiltonianFamily,
    initial_ground_state=None,
    config: BpeConfig | None = None,
    seed: int = 0,
    return_diagnostics: bool = False,
):
    """Baseline estimator from the reversed-then-forward composite loop.

    The composite accumulates 2 theta_B with no dynamical component, so one
    phase estimation suffices, but the halved readout lives in [0, pi) and
    aliases theta_B - pi whenever theta_B >= pi.  The engine's step check,
    on the doubled phase, sets its steps; each level's sweep serves both legs.
    The diagnostics carry the engine's set-up record (_resolve_runtime's).
    """
    cfg = config or BpeConfig()
    # Same phase-lag floor as the two-runtime engine: the composite's
    # readout inherits each leg's ~G/T eigenphase lag.
    (sector, psi0), setup = _resolve_runtime(family, cfg, initial_ground_state)
    T = setup["T"]
    cap = step_count(T, setup["H_max"], cfg.oversampling)

    def build(steps):  # m is sized after the budget check, as the engine's is
        fwd = AdiabaticSchedule(T=T, steps=steps)
        W_fwd, W_rev = loop_propagators(family, fwd, replace(fwd, direction="reversed"),
                                        sector=sector)
        dist = distribution_for_unitary(W_rev @ W_fwd, psi0, bits_for_precision(cfg.epsilon_B))
        return (steps, W_fwd, dist), _dominant_phase(dist)

    # The check reads the doubled phase 2 theta_B, so its tolerance doubles.
    (steps, W_fwd, dist), step_check = _checked_build(
        family, T, cap, 2 * cap, 1, 2.0 * STEP_CHECK_FRACTION * cfg.epsilon_B, build
    )
    _note_infidelity(setup["calibration"], np.vdot(psi0, W_fwd @ psi0))

    R, m = cfg.repetitions, dist.m
    est = estimate_from_distribution(dist, R, stream_uniforms([seed], (R, m + 1))[0])
    theta = est.value / 2.0  # in [0, pi)

    if not return_diagnostics:
        return theta
    return theta, {
        "seed": int(seed),
        **setup,
        "steps": steps,
        "step_check": step_check,
        "m": m,
        "R": R,
        "doubled_phase": est.value,
        "raw_outcomes": est.raw_outcomes,
        "low_fidelity_warning": est.low_fidelity_warning,
    }
