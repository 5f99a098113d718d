import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from berrylab.angles import circle_distance, wrap_2pi
from berrylab.bpe import (
    MAX_TOTAL_STEPS,
    BpeConfig,
    BpeEngine,
    WrappedInterval,
    choose_alpha,
    decide_interval,
    murta_bpe,
    reconstruct_phases,
    run_bpe,
)
from berrylab.corpus import (
    bqp_yes_circuit,
    constant_z_family,
    equatorial_loop,
    random_gapped_family,
    tilted_loop_family,
)
from berrylab.dynamics import AdiabaticSchedule, loop_propagator
from berrylab.errors import CapacityError, ConfigError
from berrylab.exact import ground_state
from berrylab.hamiltonians import constant, cosine, make_family, sine
from berrylab.hardness import build_bqp_instance
from berrylab.qpe import distribution_for_unitary

from oracles import EQUATORIAL_THETA_B, tilted_theta_B

TWO_PI = 2.0 * math.pi

angles_st = st.floats(min_value=0.0, max_value=TWO_PI - 1e-9)


# -- wrapped intervals ---------------------------------------------------------


def test_interval_plain_arc():
    arc = WrappedInterval(1.0, 2.0)
    assert arc.contains(1.5)
    assert arc.contains(1.0) and arc.contains(2.0)  # closed
    assert not arc.contains(2.5)
    assert arc.distance(1.5) == 0.0
    assert arc.distance(2.5) == pytest.approx(0.5)


def test_interval_wrapping_arc():
    arc = WrappedInterval(5.5, 0.5)  # crosses zero
    assert arc.contains(6.0)
    assert arc.contains(0.1)
    assert not arc.contains(3.0)
    assert arc.distance(1.0) == pytest.approx(0.5)


def test_interval_shrink_and_complement():
    arc = WrappedInterval(0.0, math.pi)
    inner = arc.shrink(0.3)
    assert inner.contains(0.3) and inner.contains(math.pi - 0.3)
    assert not inner.contains(0.1)
    comp = arc.promise_complement(0.3)
    assert comp.contains(math.pi + 0.4)
    assert not comp.contains(math.pi + 0.2)


@settings(max_examples=200)
@given(angles_st, angles_st, angles_st)
# regression: a point sub-ulp below the endpoint must not round to "inside"
@example(a=1.1754943508222875e-38, b=1.0, x=0.0)
def test_interval_contains_vs_distance(a, b, x):
    arc = WrappedInterval(a, b)
    d = arc.distance(x)
    assert (d == 0.0) == arc.contains(x)
    assert 0.0 <= d <= math.pi + 1e-12


@settings(max_examples=200)
@given(angles_st, angles_st, angles_st, st.floats(min_value=-20.0, max_value=20.0))
def test_interval_rotation_invariance(a, b, x, c):
    # rotating arc and point together preserves distance.  Guard the two
    # float-fuzz regimes: points on the boundary, and arcs so short that
    # adding c can flip which endpoint rounds first (reversing orientation).
    assume(circle_distance(a, b) > 1e-6)
    arc = WrappedInterval(a, b)
    rot = WrappedInterval(a + c, b + c)
    d0 = arc.distance(x)
    d1 = rot.distance(x + c)
    if min(circle_distance(x, arc.a), circle_distance(x, arc.b)) > 1e-6:
        assert abs(d0 - d1) < 1e-6


@settings(max_examples=100)
@given(angles_st, angles_st)
def test_interval_endpoints_always_inside(a, b):
    arc = WrappedInterval(a, b)
    assert arc.contains(a)
    assert arc.contains(b)


# -- decisions -----------------------------------------------------------------


def test_decide_interval_frozen_cases():
    assert decide_interval(1.0, 0.0, math.pi, delta=0.3, eps_B=0.05) == 1
    assert decide_interval(5.0, 0.0, math.pi, delta=0.3, eps_B=0.05) == 0
    # margin arithmetic: accept up to delta - eps_B outside the arc
    assert decide_interval(math.pi + 0.2, 0.0, math.pi, 0.3, 0.05) == 1
    assert decide_interval(math.pi + 0.3, 0.0, math.pi, 0.3, 0.05) == 0


def test_decide_interval_needs_margin():
    with pytest.raises(ConfigError):
        decide_interval(1.0, 0.0, math.pi, delta=0.1, eps_B=0.2)
    with pytest.raises(ConfigError):
        decide_interval(1.0, 0.0, math.pi, delta=0.1, eps_B=0.2000001)


# -- runtime-pair selection ------------------------------------------------------


def test_choose_alpha_formula_values():
    assert choose_alpha(100.0, 1.0, 0.01) == pytest.approx(
        1.0 + math.pi / 100.02, rel=1e-12
    )
    assert choose_alpha(0.0, 1.0, 0.01) == pytest.approx(
        1.0 + math.pi / 0.02, rel=1e-12
    )


def test_choose_alpha_integer_mode():
    assert choose_alpha(100.0, 1.0, 0.05, mode="integer") == 2.0
    # with a cap on the extra evolution time the ratio tightens to 1 + 1/q
    assert choose_alpha(100.0, 1.0, 0.05, mode="integer", cap=10.0) == pytest.approx(1.1)
    assert choose_alpha(100.0, 1.0, 0.05, mode="integer", cap=7.0) == pytest.approx(
        1.0 + 1.0 / 15.0
    )


def test_choose_alpha_validation():
    with pytest.raises(ConfigError):
        choose_alpha(-1.0, 1.0, 0.05)
    with pytest.raises(ConfigError):
        choose_alpha(1.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        choose_alpha(1.0, 1.0, 0.05, mode="integer", cap=-2.0)
    with pytest.raises(ConfigError):
        choose_alpha(1.0, 1.0, 0.05, mode="golden")


def test_config_rejects_integer_reciprocal_alias():
    with pytest.raises(ConfigError):
        BpeConfig(alpha_mode="integer-reciprocal")


# -- reconstruction --------------------------------------------------------------


def test_reconstruction_worked_example():
    theta_B, theta_D, alpha = 2.0, 50.0, 1.1
    m1 = wrap_2pi(theta_B + theta_D)
    m_alpha = wrap_2pi(theta_B + alpha * theta_D)
    assert m1 == pytest.approx(1.7345, abs=1e-4)
    assert m_alpha == pytest.approx(0.4513, abs=1e-4)
    D, B = reconstruct_phases(m1, m_alpha, alpha)
    assert B == pytest.approx(2.0, abs=1e-12)
    assert D == pytest.approx(wrap_2pi(50.0), abs=1e-10)


def test_reconstruction_degenerate_cases():
    # no dynamical phase: the first readout already is theta_B
    D, B = reconstruct_phases(1.25, 1.25, 2.0, mode="integer")
    assert D == 0.0
    assert B == pytest.approx(1.25)


def test_reconstruction_formula_mode_planted(rng):
    # formula-mode alpha as the engine would pick it; dynamical phases
    # anywhere inside the unwrap window reconstruct exactly
    T, H_max, eps_B = 40.0, 1.0, 0.05
    alpha = choose_alpha(T, H_max, eps_B)
    for _ in range(500):
        theta_B = TWO_PI * rng.random()
        theta_D = (2.0 * rng.random() - 1.0) * T * H_max
        m1 = wrap_2pi(theta_B + theta_D)
        m_a = wrap_2pi(theta_B + alpha * theta_D)
        D, B = reconstruct_phases(m1, m_a, alpha)
        assert circle_distance(B, theta_B) < 1e-12
        assert circle_distance(D, theta_D) < 1e-10


def test_reconstruction_integer_mode_any_dynamical_phase(rng):
    # alpha = 1 + 1/q: reconstruction is exact no matter how many times
    # the dynamical phase wraps
    for q in (1, 2, 5):
        alpha = 1.0 + 1.0 / q
        for _ in range(200):
            theta_B = TWO_PI * rng.random()
            theta_D = (2.0 * rng.random() - 1.0) * 1e4
            m1 = wrap_2pi(theta_B + theta_D)
            m_a = wrap_2pi(theta_B + alpha * theta_D)
            _, B = reconstruct_phases(m1, m_a, alpha, mode="integer")
            assert circle_distance(B, theta_B) < 1e-9


def test_reconstruction_formula_mode_fails_outside_window():
    # the formula mode's unwrap window is the whole point of choosing alpha;
    # a dynamical phase far outside it aliases
    # alpha must not be 1 + 1/q for integer q: those ratios cancel the
    # aliasing in theta_B by accident (2 pi n / (alpha - 1) is then a
    # multiple of 2 pi), which is exactly the integer mode's trick
    alpha = 1.4
    theta_B, theta_D = 1.0, 40.0  # (alpha-1)*theta_D = 16 >> pi
    m1 = wrap_2pi(theta_B + theta_D)
    m_a = wrap_2pi(theta_B + alpha * theta_D)
    _, B = reconstruct_phases(m1, m_a, alpha)
    assert circle_distance(B, theta_B) > 0.1


def test_reconstruction_rejects_bad_alpha():
    with pytest.raises(ConfigError):
        reconstruct_phases(0.1, 0.2, 1.0)
    with pytest.raises(ConfigError):
        reconstruct_phases(0.1, 0.2, 1.3, mode="integer")  # 1/(alpha-1) not integral


# -- end-to-end estimation --------------------------------------------------------


def test_run_bpe_equatorial(equatorial):
    theta_B, theta_D, diag = run_bpe(equatorial, seed=0)
    assert circle_distance(theta_B, EQUATORIAL_THETA_B) <= 0.05
    assert diag["T"] >= diag["T_phase_floor"]
    assert diag["alpha"] == pytest.approx(2.0)
    assert diag["gap"] == pytest.approx(2.0, rel=1e-9)
    # the two QPE readouts and the reconstruction are all in the record
    for key in ("m1", "m_alpha", "m", "R", "eps_ph", "phase_lag"):
        assert key in diag


def test_run_bpe_deterministic_per_seed(equatorial):
    a = run_bpe(equatorial, seed=7)
    b = run_bpe(equatorial, seed=7)
    c = run_bpe(equatorial, seed=8)
    assert a[0] == b[0] and a[1] == b[1]
    assert a[2]["raw_outcomes_1"] == b[2]["raw_outcomes_1"]
    # a different seed draws a different outcome stream, even though the
    # median-aggregated estimate usually coincides on a concentrated spectrum
    assert (
        a[2]["raw_outcomes_1"] != c[2]["raw_outcomes_1"]
        or a[2]["raw_outcomes_alpha"] != c[2]["raw_outcomes_alpha"]
    )


def test_run_bpe_tilted_loop():
    fam = tilted_loop_family(math.pi / 3)
    theta_B, _, _ = run_bpe(fam, seed=1)
    assert circle_distance(theta_B, tilted_theta_B(math.pi / 3)) <= 0.05


def test_run_bpe_formula_alpha_mode(equatorial):
    cfg = BpeConfig(alpha_mode="formula")
    theta_B, _, diag = run_bpe(equatorial, config=cfg, seed=2)
    assert circle_distance(theta_B, EQUATORIAL_THETA_B) <= 0.05
    assert 1.0 < diag["alpha"] < 1.2


def test_engine_reuse_matches_one_shot(equatorial):
    engine = BpeEngine(equatorial)
    for seed in (0, 3):
        one_shot = run_bpe(equatorial, seed=seed)
        cached = engine.run(seed)
        assert one_shot[0] == cached[0]
        assert one_shot[1] == cached[1]


def test_engine_budget_identity(equatorial):
    # eps_ph * (1 + 2/(alpha-1)) must equal the half of eps_B given to the
    # readout... i.e. the full reconstruction amplification of the
    # per-measurement budget lands exactly on eps_B
    for mode in ("integer", "formula"):
        engine = BpeEngine(equatorial, BpeConfig(alpha_mode=mode))
        amplified = engine.eps_ph * (1.0 + 2.0 / (engine.alpha - 1.0))
        assert amplified == pytest.approx(engine.config.epsilon_B, rel=1e-9)


def test_engine_guiding_state_floor(equatorial):
    from berrylab.exact import ground_state
    from berrylab.hamiltonians import eval_hamiltonian

    _, psi0 = ground_state(equatorial, 0.0)
    BpeEngine(equatorial, guiding_state=psi0)  # fine
    _, V = np.linalg.eigh(eval_hamiltonian(equatorial, 0.0))
    excited = V[:, 1]
    with pytest.raises(ConfigError):
        BpeEngine(equatorial, guiding_state=excited)


def test_fixed_runtime_skips_calibration(equatorial):
    cfg = BpeConfig(T=64.0)
    engine = BpeEngine(equatorial, cfg)
    assert engine.T == 64.0
    assert engine.calibration is None


def test_step_budget_guard(equatorial):
    with pytest.raises(CapacityError):
        BpeEngine(equatorial, BpeConfig(T=1e7))


def test_budget_error_before_long_propagation(monkeypatch):
    # The phase-lag floor of this fast loop needs more steps than the budget
    # allows; the engine must say so without first propagating at that floor.
    from berrylab import dynamics

    kernel = dynamics._step_factors

    def spy(family, schedule):
        assert schedule.steps <= MAX_TOTAL_STEPS // 2, schedule
        return kernel(family, schedule)

    monkeypatch.setattr(dynamics, "_step_factors", spy)
    fam = make_family(
        1, [("X", cosine(20, 1.0)), ("Y", sine(20, 1.0)), ("Z", constant(0.5))]
    )
    with pytest.raises(CapacityError):
        BpeEngine(fam)


def test_murta_budget_error_before_long_propagation(monkeypatch):
    # The baseline shares the engine's step-budget check: same family, same
    # CapacityError, and no propagation past the budget first.
    from berrylab import dynamics

    kernel = dynamics._step_factors

    def spy(family, schedule):
        assert schedule.steps <= MAX_TOTAL_STEPS // 2, schedule
        return kernel(family, schedule)

    monkeypatch.setattr(dynamics, "_step_factors", spy)
    fam = make_family(
        1, [("X", cosine(20, 1.0)), ("Y", sine(20, 1.0)), ("Z", constant(0.5))]
    )
    with pytest.raises(CapacityError, match="per-run budget"):
        murta_bpe(fam)


def test_floored_infidelity_agrees_between_estimators(equatorial):
    engine = BpeEngine(equatorial)
    assert "phase_lag_floor" in engine.calibration
    _, diag = murta_bpe(equatorial, seed=0, return_diagnostics=True)
    assert diag["T"] == engine.T
    assert abs(diag["calibration"]["infidelity"]
               - engine.calibration["infidelity"]) < 1e-9


@pytest.mark.parametrize("alpha_mode", ["integer", "formula"])
def test_unfloored_calibration_keeps_its_own_infidelity(equatorial, alpha_mode):
    # Above the phase-lag floor the runtime is the calibrated one, and the
    # record keeps the infidelity it measured there, not one from the
    # estimator's (possibly step-rounded) schedule.
    cfg = BpeConfig(epsilon_B=2.0, alpha_mode=alpha_mode)
    engine = BpeEngine(equatorial, cfg)
    _, diag = murta_bpe(equatorial, config=cfg, seed=0, return_diagnostics=True)
    for calibration in (engine.calibration, diag["calibration"]):
        assert "phase_lag_floor" not in calibration
        assert calibration["infidelity"] == calibration["tested"][-1][1]


# -- the step check -----------------------------------------------------------------

# The equatorial loop at oversampling 40 plants a check: its guess is a
# quarter of that cap.  The 3-qubit random family guesses below half the cap.
STEP_CHECK_CASES = {
    "equatorial-40": (equatorial_loop(), BpeConfig(oversampling=40.0)),
    "random-3-qubit": (random_gapped_family(3, np.random.default_rng(1103)), BpeConfig()),
}


def _accepted(check, steps):
    """The check ran, and its last comparison accepted the final step count."""
    return check["converged"] and check["tested"][-1][0] == steps


def _murta_phase_at(family, T, steps):
    """Dominant eigenphase of the composite loop built at ``steps`` steps."""
    _, psi0 = ground_state(family, 0.0)
    composite = (loop_propagator(family, AdiabaticSchedule(T, steps, "reversed"))
                 @ loop_propagator(family, AdiabaticSchedule(T, steps)))
    dist = distribution_for_unitary(composite, psi0, 8)
    return dist.phases[np.argmax(dist.weights)]


@pytest.mark.parametrize("name", STEP_CHECK_CASES)
def test_engine_ends_at_an_accepted_step(name):
    family, cfg = STEP_CHECK_CASES[name]
    engine = BpeEngine(family, cfg)
    check = engine.step_check
    assert check["tested"], "the check did not run"
    assert _accepted(check, engine.steps), check
    assert engine.steps < check["cap"]
    # the accepted theta_B lies within eps_B/100 of a pair built at the cap
    _, at_cap = engine._pair(check["cap"])
    assert circle_distance(check["phase"], at_cap) <= cfg.epsilon_B / 100


@pytest.mark.parametrize("name", STEP_CHECK_CASES)
def test_murta_ends_at_an_accepted_step(name):
    family, cfg = STEP_CHECK_CASES[name]
    _, diag = murta_bpe(family, config=cfg, return_diagnostics=True)
    check = diag["step_check"]
    assert check["tested"], "the check did not run"
    assert _accepted(check, diag["steps"]), check
    assert diag["steps"] < check["cap"]
    # the doubled phase, halved, lies within eps_B/100 of the cap's
    at_cap = _murta_phase_at(family, diag["T"], check["cap"])
    assert circle_distance(check["phase"], at_cap) / 2 <= cfg.epsilon_B / 100


def test_one_qubit_loops_build_at_the_cap(equatorial):
    # a guess of at least half the cap builds there unchecked, as before the check
    engine = BpeEngine(equatorial)
    _, diag = murta_bpe(equatorial, return_diagnostics=True)
    for check, steps in ((engine.step_check, engine.steps), (diag["step_check"], diag["steps"])):
        assert check["tested"] == [] and not check["converged"]
        assert steps == check["cap"] == 3948


def test_bqp_steps_at_most_a_sixteenth_of_the_cap():
    family = build_bqp_instance(bqp_yes_circuit()).family
    engine = BpeEngine(family)
    _, diag = murta_bpe(family, return_diagnostics=True)
    assert _accepted(engine.step_check, engine.steps)
    assert _accepted(diag["step_check"], diag["steps"])
    assert 16 * engine.steps <= engine.step_check["cap"]
    assert 16 * diag["steps"] <= diag["step_check"]["cap"]


def test_decide_needs_margin_vs_certified_delta(equatorial):
    # a certified interval whose margin is smaller than half of eps_B cannot
    # be decided honestly at this accuracy; the decision must refuse
    with pytest.raises(ConfigError):
        decide_interval(1.0, 0.0, math.pi, delta=0.02, eps_B=0.05)


# -- phase-doubled baseline -------------------------------------------------------


def test_murta_composite_cancels_pi_phase(equatorial):
    value = murta_bpe(equatorial, seed=0)
    assert circle_distance(value, 0.0) <= 0.1
    _, diag = murta_bpe(equatorial, seed=0, return_diagnostics=True)
    assert "T" in diag


def test_murta_recovers_small_phases():
    # for theta_B < pi the halved doubled phase is unaliased and correct
    fam = tilted_loop_family(math.pi / 3)
    value = murta_bpe(fam, seed=4)
    want = tilted_theta_B(math.pi / 3)  # pi/2, safely below the alias point
    assert circle_distance(value, want) <= 0.1


def test_murta_deterministic(equatorial):
    assert murta_bpe(equatorial, seed=9) == murta_bpe(equatorial, seed=9)
