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
by checking theta_B: starting from the commutator guess, the step count
doubles until the pairs at n and n/2 steps reconstruct theta_B within
eps_B/100 of each other, never past the H_max cap of dynamics.step_count.

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
    MAX_TOTAL_STEPS,
    AdiabaticSchedule,
    calibrate_runtime,
    guess_step_count,
    loop_propagator,
    phase_lag_scale,
    step_count,
)
from .errors import CapacityError, ConfigError
from .exact import ground_state, min_gap
from .hamiltonians import HamiltonianFamily, norm_bounds
from .qpe import (
    bits_for_precision,
    distribution_for_loop,
    distribution_for_unitary,
    estimate_from_distribution,
)

TWO_PI = 2.0 * math.pi

GAP_GRID = 64  # lambda points of the gap guard and the phase-lag scale
GUIDING_FLOOR = 0.25  # least guiding-state fidelity that can be postselected
STEP_CHECK_FRACTION = 0.01  # the step check's theta_B agreement, as a share of eps_B


def _check_step_budget(T: float, total_steps: int) -> None:
    """Refuse a run whose propagators need more than MAX_TOTAL_STEPS steps."""
    if total_steps > MAX_TOTAL_STEPS:
        raise CapacityError(
            f"runtime T={T:.3e} needs {total_steps} exact Trotter steps, over "
            f"the per-run budget of {MAX_TOTAL_STEPS}; the family's phase-lag "
            "scale or norm is too large for desk-scale estimation"
        )


def _dominant_phase(dist) -> float:
    """Eigenphase of the propagator component carrying the most weight."""
    return float(dist.phases[np.argmax(dist.weights)])


def _checked_build(family: HamiltonianFamily, T: float, cap: int, unit: int,
                   tol: float, build, check: bool = True):
    """Build at the coarsest step count that the a-posteriori check accepts.

    ``build(n)`` makes the estimator's propagators at n steps per runtime T
    and returns (result, phase), the phase read from dominant eigenphases.
    A commutator guess of at least half the cap (or ``check`` False, or a
    lambda-independent family) builds at the cap, unchecked.  Otherwise n
    starts at the guess rounded up to a multiple of 2 unit and doubles, up
    to the cap, until the phases at n and at n/2 agree within tol; the
    accepted n is the finer of the two.  Returns (result, record).
    """
    guess = guess_step_count(family, T)
    record = {"guess": guess, "cap": cap, "tested": [], "converged": False}
    n = cap
    if check and not family.is_constant() and 2.0 * guess < cap:
        n = min(cap, 2 * unit * max(1, math.ceil(guess / (2 * unit))))
    if n == cap:
        result, phase = build(n)
    else:
        _, previous = build(n // 2)
        record["tested"].append([n // 2, previous])
        while True:
            result, phase = build(n)
            record["tested"].append([n, phase])
            if circle_distance(phase, previous) <= tol:
                record["converged"] = True
                break
            if n == cap:
                break
            previous, n = phase, min(2 * n, cap)
    record["phase"] = phase
    return result, record


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

    def contains(self, theta: float) -> bool:
        t = wrap_2pi(theta)
        if self.b >= self.a:
            return self.a <= t <= self.b
        return t <= self.b or t >= self.a

    def distance(self, theta: float) -> float:
        """Wrapped distance from theta to the arc (0 when inside)."""
        if self.contains(theta):
            return 0.0
        return min(circle_distance(theta, self.a), circle_distance(theta, self.b))

    def shrink(self, delta: float) -> "WrappedInterval":
        return WrappedInterval(self.a + delta, self.b - delta)

    def promise_complement(self, delta: float) -> "WrappedInterval":
        """The opposing promise arc [b + delta, a - delta]."""
        return WrappedInterval(self.b + delta, self.a - delta)


def check_decision_margin(delta: float, eps_B: float) -> None:
    """Refuse eps_B >= 2 delta, where no estimate can be decided.  It needs
    no estimate, so callers can run it before any spectral work."""
    if not eps_B < 2.0 * delta:
        raise ConfigError(
            f"need eps_B < 2*delta for a meaningful decision margin, got "
            f"eps_B={eps_B}, delta={delta}"
        )


def decide_interval(theta_hat: float, a: float, b: float, delta: float,
                    eps_B: float) -> int:
    """1 iff theta_hat lies within delta - eps_B of the arc [a, b].

    Under the promise (true phase inside the shrunken arc or deep in its
    complement) this reproduces the true interval bit whenever the estimate
    is eps_B-accurate.
    """
    check_decision_margin(delta, eps_B)
    return int(WrappedInterval(a, b).distance(theta_hat) <= delta - eps_B)


# ---------------------------------------------------------------------------
# Runtime-pair selection and reconstruction
# ---------------------------------------------------------------------------


def choose_alpha(T: float, H_max: float, eps_B: float, mode: str = "formula",
                 cap: float | None = None) -> float:
    """Second-runtime ratio alpha.

    formula mode: alpha = 1 + pi/(T H_max + 2 eps_B), which keeps
    |theta_D (alpha-1)| < pi - 2 eps_ph so the difference unwraps uniquely.

    integer mode: alpha = 1 + 1/q with q the smallest positive integer
    keeping (alpha - 1) T H_max below ``cap`` (q = 1, i.e. alpha = 2, when no
    cap is given).  Reconstruction is then exact for arbitrary dynamical
    phase, no unwrap condition needed.
    """
    if T < 0 or H_max < 0:
        raise ConfigError("T and H_max must be non-negative")
    if eps_B <= 0:
        raise ConfigError(f"eps_B must be positive, got {eps_B}")
    if mode == "formula":
        return 1.0 + math.pi / (T * H_max + 2.0 * eps_B)
    if mode == "integer":
        if cap is None or T * H_max == 0.0:
            q = 1
        else:
            if cap <= 0:
                raise ConfigError(f"alpha cap must be positive, got {cap}")
            ratio = T * H_max / cap  # both runtimes take over 2q steps together
            if not ratio <= MAX_TOTAL_STEPS:
                raise CapacityError(
                    f"alpha cap {cap} needs 1/(alpha-1) = {ratio:.3e}, over the "
                    f"per-run budget of {MAX_TOTAL_STEPS} steps"
                )
            q = max(1, math.ceil(ratio))
        return 1.0 + 1.0 / q
    raise ConfigError(f"unknown alpha mode {mode!r}")


def reconstruct_phases(m1: float, m_alpha: float, alpha: float,
                       mode: str = "formula") -> tuple[float, float]:
    """(theta_D_hat, theta_B_hat) from the two measured loop phases."""
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
    """The six settings of a two-runtime estimation run, one per CLI flag.

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
    alpha_cap: float | None = None
    T: float | None = None
    oversampling: float = 10.0

    def __post_init__(self) -> None:
        for name in ("epsilon_B", "oversampling", "T", "alpha_cap"):
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
) -> tuple[np.ndarray, dict]:
    """Set-up shared by both estimators: norm bounds, gap guard, ground state,
    guiding check and runtime T.  Returns the ground state psi0 at lambda = 0
    and a record of the rest, keyed as in the estimators' diagnostics.

    Unless cfg.T is set, T comes from the doubling search on measured loop
    infidelity.  That search certifies state tracking (a 1/T^2 effect) but
    not the eigenphase, which lags the ideal -E0 T + theta_B by about G/T
    and is amplified (alpha+1)/alpha < 2 fold by the reconstruction.  The
    runtime is therefore floored at 4 G / eps_B, which keeps that systematic
    within half of eps_B; QPE readout gets the other half.  A floored
    calibration records the floor as ``phase_lag_floor``.  A set cfg.T is
    kept even below the floor, with a ``warnings`` entry saying so.
    """
    h_max, d1_max, d2_max = norm_bounds(family)
    gap, gap_argmin = min_gap(family, GAP_GRID)  # also the degeneracy guard
    E0, psi0 = ground_state(family, 0.0)

    guiding_fidelity = 1.0
    if guiding_state is not None:
        guide = np.asarray(guiding_state, dtype=complex)
        if guide.shape != (family.dim,):
            raise ConfigError(
                f"guiding state has shape {guide.shape}, expected "
                f"({family.dim},)"
            )
        guiding_fidelity = float(abs(np.vdot(guide, psi0)) ** 2)
        if guiding_fidelity < GUIDING_FLOOR:
            raise ConfigError(
                f"guiding-state fidelity {guiding_fidelity:.3f} below "
                f"the floor {GUIDING_FLOOR}; cannot postselect the "
                "ground state from this input"
            )

    T, calibration = cfg.T, None
    if T is None:
        T, calibration = calibrate_runtime(
            family, cfg.delta_adia, oversampling=cfg.oversampling
        )
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
    return psi0, {
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

        self.psi0, self.setup = _resolve_runtime(family, cfg, guiding_state)
        self.T = self.setup["T"]
        self.calibration = self.setup["calibration"]

        self.alpha_nominal = choose_alpha(
            self.T, self.setup["H_max"], cfg.epsilon_B, cfg.alpha_mode,
            cfg.alpha_cap
        )

        # Shared-step pairs: the alpha run reuses dt exactly, and the realized
        # step ratio is what enters the reconstruction.  Steps per runtime T
        # are multiples of step_unit, choose_alpha's q in integer mode.  The
        # budget is checked at the cap, before any propagation.
        integer = cfg.alpha_mode == "integer"
        self.step_unit = round(1.0 / (self.alpha_nominal - 1.0)) if integer else 1
        cap = step_count(self.T, self.setup["H_max"], cfg.oversampling)
        cap = self.step_unit * math.ceil(cap / self.step_unit)
        _check_step_budget(self.T, cap + self._alpha_steps(cap))
        # Formula mode's realized alpha moves with the step count, and a
        # coarse pair could break its unwrap window, so it keeps the cap.
        pair, self.step_check = _checked_build(
            family, self.T, cap, self.step_unit,
            STEP_CHECK_FRACTION * cfg.epsilon_B, self._pair, check=integer,
        )
        vars(self).update(pair)
        self.R = cfg.repetitions
        if "phase_lag_floor" in (self.calibration or {}):
            # A floored runtime reports its infidelity, read from the propagator
            # just built: <psi0|W(T)|psi0> = sum_k weight_k e^{i phase_k}.
            overlap = np.sum(self.dist1.weights * np.exp(1j * self.dist1.phases))
            self.calibration["infidelity"] = max(0.0, 1.0 - abs(overlap) ** 2)

    def _alpha_steps(self, steps: int) -> int:
        if self.config.alpha_mode == "integer":
            return steps + steps // self.step_unit
        return max(steps + 1, round(self.alpha_nominal * steps))

    def _pair(self, steps: int) -> tuple[dict, float]:
        """The two-runtime pair at ``steps`` steps per runtime T, as engine
        attributes, and the theta_B its dominant eigenphases reconstruct."""
        steps_alpha = self._alpha_steps(steps)
        alpha = steps_alpha / steps  # realized ratio, exact in floats
        dt = self.T / steps
        eps_ph = self.config.epsilon_B * (alpha - 1.0) / (alpha + 1.0)
        m = bits_for_precision(0.5 * eps_ph)
        sched1 = AdiabaticSchedule(T=self.T, steps=steps)
        sched_a = replace(sched1, T=dt * steps_alpha, steps=steps_alpha)
        dist1 = distribution_for_loop(self.family, sched1, self.psi0, m)
        dist_alpha = distribution_for_loop(self.family, sched_a, self.psi0, m)
        _, theta_B = reconstruct_phases(
            _dominant_phase(dist1), _dominant_phase(dist_alpha), alpha,
            self.config.alpha_mode,
        )
        return {
            "steps": steps, "steps_alpha": steps_alpha, "alpha": alpha,
            "dt": dt, "T_alpha": sched_a.T, "eps_ph": eps_ph, "m": m,
            "dist1": dist1, "dist_alpha": dist_alpha,
        }, theta_B

    def run(self, seed) -> tuple[float, float, dict]:
        """One seeded estimation: returns (theta_B_hat, theta_D_hat,
        diagnostics)."""
        ss = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        child1, child2 = ss.spawn(2)
        est1 = estimate_from_distribution(
            self.dist1, self.R, np.random.default_rng(child1)
        )
        est_a = estimate_from_distribution(
            self.dist_alpha, self.R, np.random.default_rng(child2)
        )
        theta_D, theta_B = reconstruct_phases(
            est1.value, est_a.value, self.alpha, self.config.alpha_mode
        )
        diagnostics = {
            "seed": seed if isinstance(seed, int) else repr(seed),
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
            "m1": est1.value,
            "m_alpha": est_a.value,
            "raw_outcomes_1": est1.raw_outcomes,
            "raw_outcomes_alpha": est_a.raw_outcomes,
            "low_fidelity_warning": bool(
                est1.low_fidelity_warning or est_a.low_fidelity_warning
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

    The composite accumulates 2 theta_B with no dynamical component, so a
    single phase estimation suffices — but the halved readout lives in
    [0, pi) and aliases theta_B - pi whenever theta_B >= pi.  Its step count
    comes from the engine's step check, applied to the doubled phase.
    """
    cfg = config or BpeConfig()
    # Same phase-lag floor as the two-runtime engine: the composite's
    # readout inherits each leg's ~G/T eigenphase lag.
    psi0, setup = _resolve_runtime(family, cfg, initial_ground_state)
    T = setup["T"]
    cap = step_count(T, setup["H_max"], cfg.oversampling)
    _check_step_budget(T, 2 * cap)
    m = bits_for_precision(cfg.epsilon_B)

    def build(steps):
        fwd = AdiabaticSchedule(T=T, steps=steps)
        W_fwd = loop_propagator(family, fwd)
        composite = loop_propagator(family, replace(fwd, direction="reversed")) @ W_fwd
        dist = distribution_for_unitary(composite, psi0, m)
        return (steps, W_fwd, dist), _dominant_phase(dist)

    # The check reads the doubled phase 2 theta_B, so its tolerance doubles.
    (steps, W_fwd, dist), step_check = _checked_build(
        family, T, cap, 1, 2.0 * STEP_CHECK_FRACTION * cfg.epsilon_B, build
    )
    if "phase_lag_floor" in (setup["calibration"] or {}):
        # A floored runtime reports its infidelity, read from the forward leg.
        overlap = np.vdot(psi0, W_fwd @ psi0)
        setup["calibration"]["infidelity"] = max(0.0, 1.0 - abs(overlap) ** 2)

    R = cfg.repetitions
    est = estimate_from_distribution(dist, R, np.random.default_rng(seed))
    theta = est.value / 2.0  # in [0, pi)

    if not return_diagnostics:
        return theta
    return theta, {
        "seed": seed if isinstance(seed, int) else repr(seed),
        "T": T,
        "T_phase_floor": setup["T_phase_floor"],
        "steps": steps,
        "step_check": step_check,
        "m": m,
        "R": R,
        "doubled_phase": est.value,
        "raw_outcomes": est.raw_outcomes,
        "calibration": setup["calibration"],
        "warnings": setup["warnings"],
        "low_fidelity_warning": est.low_fidelity_warning,
    }
