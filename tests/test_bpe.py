import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from berrylab import bpe
from berrylab.angles import circle_distance, wrap_2pi, wrap_pm_pi
from berrylab.bpe import (
    BpeConfig,
    BpeEngine,
    WrappedInterval,
    _dominant_phase,
    choose_alpha,
    decide_interval,
    murta_bpe,
    reconstruct_phases,
    run_bpe,
)
from berrylab.corpus import (
    bqp_no_circuit,
    bqp_yes_circuit,
    constant_z_family,
    duqma_no_circuit,
    duqma_yes_circuit,
    equatorial_loop,
    random_gapped_family,
    tilted_loop_family,
)
from berrylab.dynamics import MAX_TOTAL_STEPS, AdiabaticSchedule, loop_propagator
from berrylab.errors import (
    BerrylabError,
    CapacityError,
    ConfigError,
    DegeneracyError,
    NumericalError,
)
from berrylab.exact import ground_state, wilson_loop_berry_phase
from berrylab.hamiltonians import TrigCoefficient, constant, cosine, make_family, sine
from berrylab.hardness import build_bqp_instance, build_duqma_instance
from berrylab.qpe import distribution_for_unitary, distribution_from_phases

from oracles import (
    EQUATORIAL_THETA_B,
    math_wrap_2pi,
    math_wrap_pm_pi,
    per_leg_pair,
    tilted_theta_B,
)

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


# Angles where a branch map can slip: the branch ends, a turn less an ulp,
# signed zeros and subnormal or tiny angles.
EDGE_ANGLES = [math.pi, -math.pi, TWO_PI, np.nextafter(TWO_PI, 0.0), -np.nextafter(TWO_PI, 0.0),
               0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 3.0 * math.pi, -3.0 * math.pi]


def _hexes(values) -> list:
    return [float(v).hex() for v in values]


@settings(max_examples=100)
@given(st.lists(st.tuples(*[st.floats(-50.0, 50.0)] * 2), max_size=20), angles_st, angles_st,
       st.sampled_from([(2.0, "integer"), (1.5, "integer"), (1.37, "formula"), (9.0, "formula")]))
def test_array_forms_match_the_float_forms(pairs, a, b, alpha_mode):
    # The verifier reconstructs and tests a block of runs as arrays; each
    # element must carry the bits of the float call, and the float maps
    # the bits of the plain math-module code.
    m1 = np.array([p[0] for p in pairs] + EDGE_ANGLES)
    m_alpha = np.array([p[1] for p in pairs] + EDGE_ANGLES[::-1])
    for x in (m1, m_alpha - m1):
        assert _hexes(wrap_2pi(x)) == _hexes(map(wrap_2pi, x.tolist())) \
            == _hexes(map(math_wrap_2pi, x.tolist()))
        assert _hexes(wrap_pm_pi(x)) == _hexes(map(wrap_pm_pi, x.tolist())) \
            == _hexes(map(math_wrap_pm_pi, x.tolist()))
    many = reconstruct_phases(m1, m_alpha, *alpha_mode)
    one = [reconstruct_phases(x, y, *alpha_mode) for x, y in zip(m1.tolist(), m_alpha.tolist())]
    for k in range(2):
        assert _hexes(many[k]) == _hexes(pair[k] for pair in one)
    arc = WrappedInterval(a, b)
    assert _hexes(arc.distance(m1)) == _hexes(map(arc.distance, m1.tolist()))
    assert arc.contains(m1).tolist() == [arc.contains(x) for x in m1.tolist()]


@settings(max_examples=200)
@given(st.lists(st.floats(-50.0, 50.0), max_size=20), angles_st, angles_st,
       st.floats(1e-3, 1.0), st.floats(0.0, 1.0, exclude_max=True))
@example(thetas=[0.2, 6.2, 3.0], a=5.5, b=0.5, delta=0.3, share=0.5)  # an arc through 0
def test_decide_interval_array_form_matches_the_float_calls(thetas, a, b, delta, share):
    # The verifier decides a block of runs in one call: each element must be
    # the float call's decision, on arcs that wrap through 0 too, at the
    # ends of the arc and at the ends of its reach delta - eps_B.
    eps_B = 2.0 * delta * share  # eps_B < 2 delta
    reach = delta - eps_B
    edges = [a, b, a - reach, b + reach, a - reach - 1e-9, b + reach + 1e-9]
    theta = np.array(thetas + EDGE_ANGLES + edges)
    many = decide_interval(theta, a, b, delta, eps_B)
    one = [decide_interval(x, a, b, delta, eps_B) for x in theta.tolist()]
    assert many.dtype.kind == "i" and {type(d) for d in one} <= {int}
    assert many.tolist() == one


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


def test_choose_alpha_validation():
    with pytest.raises(ConfigError):
        choose_alpha(-1.0, 1.0, 0.05)
    with pytest.raises(ConfigError):
        choose_alpha(1.0, 1.0, 0.0)
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


def test_engine_readouts_of_no_seeds_are_empty(equatorial):
    engine = BpeEngine(equatorial)
    m1, m_alpha, raw1, raw_alpha = engine.readouts([])
    assert m1 == [] and m_alpha == []
    assert raw1.shape == raw_alpha.shape == (0, engine.R)


def test_engine_budget_identity(equatorial):
    # eps_ph * (1 + 2/(alpha-1)) must equal the half of eps_B given to the
    # readout... i.e. the full reconstruction amplification of the
    # per-measurement budget lands exactly on eps_B
    for mode in ("integer", "formula"):
        engine = BpeEngine(equatorial, BpeConfig(alpha_mode=mode))
        amplified = engine.eps_ph * (1.0 + 2.0 / (engine.alpha - 1.0))
        assert amplified == pytest.approx(engine.config.epsilon_B, rel=1e-9)


def test_engine_guiding_state_floor(equatorial):
    from berrylab.exact import ground_state, wilson_loop_berry_phase
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

    def spy(family, schedule, sector=None):
        assert schedule.steps <= MAX_TOTAL_STEPS // 2, schedule
        return kernel(family, schedule, sector=sector)

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

    def spy(family, schedule, sector=None):
        assert schedule.steps <= MAX_TOTAL_STEPS // 2, schedule
        return kernel(family, schedule, sector=sector)

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


@pytest.mark.parametrize("name", ["equatorial", "bqp-yes"])
def test_murta_diagnostics_carry_the_engines_setup(equatorial, name):
    # Both estimators report one set-up record, _resolve_runtime's.  The
    # floored infidelity is each estimator's own reading of its T leg, and
    # agrees to 1e-9 (test_floored_infidelity_agrees_between_estimators).
    family = equatorial if name == "equatorial" else build_bqp_instance(bqp_yes_circuit()).family
    engine = BpeEngine(family)
    _, diag = murta_bpe(family, seed=0, return_diagnostics=True)
    for key in ("gap", "gap_argmin", "phase_lag", "E0", "guiding_fidelity", "H_max",
                "T_phase_floor"):
        assert diag[key] == engine.setup[key], key
    mine, theirs = dict(diag["calibration"]), dict(engine.setup["calibration"])
    assert abs(mine.pop("infidelity") - theirs.pop("infidelity")) < 1e-9
    assert mine == theirs


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
# quarter of that cap.  The 3-qubit random family guesses below half the cap,
# and so does the compiled bqp-yes loop, here with the formula alpha.
STEP_CHECK_CASES = {
    "equatorial-40": (equatorial_loop(), BpeConfig(oversampling=40.0)),
    "random-3-qubit": (random_gapped_family(3, np.random.default_rng(1103)), BpeConfig()),
    "bqp-yes-formula": (build_bqp_instance(bqp_yes_circuit()).family,
                        BpeConfig(alpha_mode="formula")),
}


def _accepted(check, steps):
    """The check ran, and its last comparison accepted the final step count."""
    return check["converged"] and check["tested"][-1][0] == steps


def _murta_phase_at(family, T, steps):
    """Dominant eigenphase of the composite loop built at ``steps`` steps."""
    _, psi0 = ground_state(family, 0.0)
    composite = (loop_propagator(family, AdiabaticSchedule(T, steps, "reversed"))
                 @ loop_propagator(family, AdiabaticSchedule(T, steps)))
    return _dominant_phase(distribution_for_unitary(composite, psi0, 8))


def test_dominant_phase_of_an_even_split_ignores_component_order():
    # murta's composite on the pi loop splits psi0 50/50 between +-delta;
    # rounding may tip either weight, and the pick must not follow it
    phases = np.array([0.0137, -0.0137, 2.0])
    for weights in ([0.5 + 1e-13, 0.5 - 1e-13, 0.0], [0.5 - 1e-13, 0.5 + 1e-13, 0.0]):
        dist = distribution_from_phases(phases, weights, 8)
        flipped = distribution_from_phases(phases[::-1], weights[::-1], 8)
        assert _dominant_phase(dist) == _dominant_phase(flipped) == 0.0137
    # a clear maximum is read as it stands, on its own branch
    assert _dominant_phase(distribution_from_phases(phases, [0.3, 0.6, 0.1], 8)) == -0.0137


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


@pytest.mark.parametrize("oversampling", [10.0, 40.0], ids=["cap", "checked"])
def test_murta_solves_each_step_check_grid_once(equatorial, oversampling, monkeypatch):
    # The forward and reversed legs share one midpoint grid, so each level of
    # the step check (at oversampling 10 the one build at the cap) sweeps it
    # once, not once per leg.
    from berrylab import dynamics, exact

    solved, spectra = Counter(), exact.spectra

    def spy(family, lams, sector=None, prune=False):
        solved[np.asarray(lams, dtype=float).tobytes()] += 1
        return spectra(family, lams, sector, prune)

    for module in (dynamics, exact):
        monkeypatch.setattr(module, "spectra", spy)
    cfg = BpeConfig(oversampling=oversampling)
    _, diag = murta_bpe(equatorial, config=cfg, return_diagnostics=True)
    levels = [n for n, _ in diag["step_check"]["tested"]] or [diag["steps"]]
    assert diag["steps"] in levels
    sweeps = {n: solved[((np.arange(n) + 0.5) / n).tobytes()] for n in levels}
    assert sweeps == dict.fromkeys(levels, 1)


# bqp-yes shares both levels' alpha sweeps; the 3-qubit family (levels 12 to
# 96, cap 168) shares three of its four and builds its last alpha leg alone,
# 2n passing the cap; at a zero tolerance it goes on to build at the cap;
# formula mode shares nothing.
SHARED_SWEEP_CASES = {
    "bqp-yes": (build_bqp_instance(bqp_yes_circuit()).family, BpeConfig(), 0.01),
    "random-3-qubit-4-levels": (random_gapped_family(3, np.random.default_rng(4)),
                                BpeConfig(), 0.01),
    "random-3-qubit-to-cap": (random_gapped_family(3, np.random.default_rng(4)),
                              BpeConfig(), 0.0),
    "bqp-yes-formula": (*STEP_CHECK_CASES["bqp-yes-formula"], 0.01),
}


@pytest.mark.parametrize("name", SHARED_SWEEP_CASES)
def test_shared_sweep_matches_one_sweep_per_leg(name, monkeypatch):
    # Every point of a sweep keeps its one-point bits, and each schedule's
    # phases and products are its own, so building level 2n's T leg in level
    # n's alpha sweep moves no bit of either leg's distribution or the check.
    family, cfg, fraction = SHARED_SWEEP_CASES[name]
    monkeypatch.setattr(bpe, "STEP_CHECK_FRACTION", fraction)
    engine = BpeEngine(family, cfg)
    monkeypatch.setattr(BpeEngine, "_pair", per_leg_pair)
    reference = BpeEngine(family, cfg)
    for got, want in ((engine.dist1, reference.dist1), (engine.dist_alpha, reference.dist_alpha)):
        assert got.phases.tobytes() == want.phases.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
    assert (np.array(engine.step_check["tested"]).tobytes()
            == np.array(reference.step_check["tested"]).tobytes())
    assert engine.step_check == reference.step_check
    assert engine.steps == reference.steps and engine.steps_alpha == reference.steps_alpha
    assert len(engine.step_check["tested"]) >= (4 if name.startswith("random") else 2)


@pytest.mark.parametrize("name", ["bqp-yes", "duqma-no"])
def test_bpe_solves_each_step_check_grid_once(name, monkeypatch):
    # In integer mode level n's alpha leg sweeps level 2n's T grid, so a run
    # solves every step-check grid once, in psi0's sector, whether the sweeps
    # of the scans solve the family as one block (bqp-yes) or split into
    # sectors (duqma-no).  bqp-yes solves 1,069 points (1,325 when each leg
    # swept its own grid, 1,071 when calibration solved lambda = 0 again and
    # 1,070 when _resolve_runtime did), 8 of them the loop unitaries' eigensystems.
    from berrylab import dynamics, exact

    if name == "bqp-yes":
        family, cfg = SHARED_SWEEP_CASES["bqp-yes"][:2]
    else:
        instance = build_duqma_instance(duqma_no_circuit(), 0)
        family, cfg = instance.family, BpeConfig(epsilon_B=instance.certified_delta / 2)
    solved, points, spectra, eigh = Counter(), Counter(), exact.spectra, exact._eigh

    def spy_spectra(family, lams, sector=None, prune=False):
        solved[np.asarray(lams, dtype=float).tobytes()] += 1
        return spectra(family, lams, sector, prune)

    def spy_eigh(stacks):
        points["solved"] += sum(int(np.prod(a.shape[:-2])) for a in stacks)
        return eigh(stacks)

    for module in (dynamics, exact):
        monkeypatch.setattr(module, "spectra", spy_spectra)
    monkeypatch.setattr(exact, "_eigh", spy_eigh)
    _, _, diag = run_bpe(family, config=cfg)
    levels = [n for n, _ in diag["step_check"]["tested"]]
    grids = {n: solved[((np.arange(n) + 0.5) / n).tobytes()] for n in [*levels, 2 * levels[-1]]}
    if name == "bqp-yes":
        assert levels == [127, 254]
        assert grids == {127: 1, 254: 1, 508: 1}
        assert points["solved"] == 1069
    else:
        assert levels == [32, 64, 128, 256]  # the phase-lag scan also sweeps 64 midpoints
        assert grids == {32: 1, 64: 2, 128: 1, 256: 1, 512: 1}


def test_a_check_that_cannot_agree_stops_at_the_cap(monkeypatch):
    # a zero tolerance accepts no pair, so both estimators double up to the
    # cap and build there, unconverged
    monkeypatch.setattr(bpe, "STEP_CHECK_FRACTION", 0.0)
    family = random_gapped_family(3, np.random.default_rng(11))
    engine = BpeEngine(family)
    _, diag = murta_bpe(family, return_diagnostics=True)
    for check, steps in ((engine.step_check, engine.steps), (diag["step_check"], diag["steps"])):
        assert [n for n, _ in check["tested"]] == [273, 546, 1092, 2184, 3793]
        assert steps == check["cap"] == 3793
        assert not check["converged"]


def test_one_qubit_loops_build_at_the_cap(equatorial):
    # a guess of at least half the cap is the one-level ladder [cap]: built
    # there unchecked, as before the check, with either alpha rule
    engines = [BpeEngine(equatorial, BpeConfig(alpha_mode=mode))
               for mode in ("integer", "formula")]
    _, diag = murta_bpe(equatorial, return_diagnostics=True)
    for check, steps in (*((e.step_check, e.steps) for e in engines),
                         (diag["step_check"], diag["steps"])):
        assert [n for n, _ in check["tested"]] == [3948] and not check["converged"]
        assert steps == check["cap"] == 3948


@pytest.mark.parametrize("args", [(1,), (2, 0.8)], ids=["1-qubit", "2-qubit"])
def test_lambda_independent_loops_run_the_step_check(args):
    # a lambda-independent family takes midpoint steps like any loop: its
    # commutator guess is 0, so the check builds 1 and 2 steps, which agree
    # to rounding, and both estimators read theta_B = 0
    family, cfg = constant_z_family(*args), BpeConfig()
    theta_B, _, diag = run_bpe(family, config=cfg, seed=1)
    theta_m, diag_m = murta_bpe(family, config=cfg, seed=1, return_diagnostics=True)
    for theta, d in ((theta_B, diag), (theta_m, diag_m)):
        check = d["step_check"]
        assert check["guess"] == 0.0
        assert [n for n, _ in check["tested"]] == [1, 2]
        assert _accepted(check, d["steps"]), check
        assert circle_distance(theta, 0.0) <= cfg.epsilon_B


@pytest.mark.parametrize("circuit", [bqp_yes_circuit, bqp_no_circuit], ids=["yes", "no"])
def test_formula_alpha_runs_the_step_check(circuit):
    # each tested level's alpha run stays within the nominal ratio, so the
    # unwrap window |theta_D (alpha - 1)| < pi holds at the coarse levels too
    instance, cfg = build_bqp_instance(circuit()), BpeConfig(alpha_mode="formula")
    engine = BpeEngine(instance.family, cfg)
    check = engine.step_check
    assert _accepted(check, engine.steps)
    assert 8 * engine.steps <= check["cap"]
    assert all(engine._alpha_steps(n) / n <= engine.alpha_nominal for n, _ in check["tested"])
    theta_B = engine.run(1)[0]
    assert circle_distance(theta_B, instance.provenance["oracle_theta_B"]) <= cfg.epsilon_B


def test_bqp_steps_at_most_a_sixteenth_of_the_cap():
    family = build_bqp_instance(bqp_yes_circuit()).family
    engine = BpeEngine(family)
    _, diag = murta_bpe(family, return_diagnostics=True)
    assert _accepted(engine.step_check, engine.steps)
    assert _accepted(diag["step_check"], diag["steps"])
    assert 16 * engine.steps <= engine.step_check["cap"]
    assert 16 * diag["steps"] <= diag["step_check"]["cap"]


def test_calibrated_runtime_holds_a_random_family_within_half_eps():
    # The first random family of the estimate benchmark at seed 2001.  Its
    # phase-lag floor 4G/eps_B is 4.976, but calibration sets T = 8, and at
    # the floor the same reconstruction misses by about 1.1 eps_B: a runtime
    # that starts from the floor must not lose this margin.
    family = make_family(2, [
        ("IZ", constant(1.0524535305283016)),
        ("XI", constant(0.2854326543750681).add(cosine(1, 0.16055275525434262))),
        ("YI", sine(1, 0.16055275525434262)),
        ("ZI", constant(1.3936709243677918)),
        ("ZZ", constant(0.17727966255708283)),
    ])
    engine = BpeEngine(family)
    _, theta_B = reconstruct_phases(_dominant_phase(engine.dist1),
                                    _dominant_phase(engine.dist_alpha), engine.alpha, "integer")
    wilson = wilson_loop_berry_phase(family, 256).theta_B
    assert circle_distance(theta_B, wilson) <= engine.config.epsilon_B / 2.0


@pytest.mark.xfail(strict=True, reason="bpe answers the planar loop 1.4 eps_B from pi, "
                   "with exit 0")
def test_planar_loop_lands_within_eps_or_refuses():
    # A 1-qubit loop whose Wilson phase is pi.  bpe must answer within eps_B
    # of it or refuse with a typed error.  Today it answers 3.212156, at
    # T = 31,926.7 and the cap of 655,114 steps: the lab's one known wrong exit 0.
    family = make_family(1, [("Y", cosine(1, 0.5434)),
                             ("Z", cosine(3, 0.7312 + 0.8438).add(sine(3, 0.9108)))])
    try:
        theta_B, _, _ = run_bpe(family, config=BpeConfig(epsilon_B=0.05), seed=1)
    except BerrylabError:
        return
    assert circle_distance(theta_B, math.pi) <= 0.05


def test_decide_needs_margin_vs_certified_delta(equatorial):
    # a certified interval whose margin is smaller than half of eps_B cannot
    # be decided honestly at this accuracy; the decision must refuse
    with pytest.raises(ConfigError):
        decide_interval(1.0, 0.0, math.pi, delta=0.02, eps_B=0.05)


@pytest.fixture(scope="module")
def duqma_instances():
    return {"yes": build_duqma_instance(duqma_yes_circuit(), 0),
            "no": build_duqma_instance(duqma_no_circuit(), 0)}


@pytest.mark.parametrize("name, want", [("yes", 1), ("no", 0)])
def test_duqma_decided_at_half_the_promise_gap(duqma_instances, name, want):
    # eps_ph = eps_B (alpha - 1)/(alpha + 1) at eps_B = delta/2 needs 24
    # readout bits, past what a dense outcome table of 2^m bins could hold
    instance = duqma_instances[name]
    a, b, delta = instance.interval
    eps_B = 0.5 * delta
    engine = BpeEngine(instance.family, BpeConfig(epsilon_B=eps_B))
    assert engine.m == 24
    for seed in range(5):
        theta_B = engine.run(seed)[0]
        assert decide_interval(theta_B, a, b, delta, eps_B) == want
        assert circle_distance(theta_B, instance.provenance["oracle_theta_B"]) <= eps_B


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


# -- psi0's sector ------------------------------------------------------------------


def sector_crossing_family(const: float):
    """ZI's field const + 0.5 cos 2 pi lambda changes sign along the loop, so
    the ground state changes sector where it vanishes: at lambda ~ 0.282 and
    0.718 for const = 0.1, off the 64-point gap grid; at 1/4 and 3/4 for 0."""
    return make_family(2, [("ZI", TrigCoefficient(const, ((1, 0.5),))),
                           ("IX", cosine(1, 1.0)), ("IY", sine(1, 1.0))])


@pytest.mark.parametrize("const, message", [
    (0.1, "the ground state leaves its sector at lambda=0.296875"),
    (0.0, "degenerate ground space at lambda=0.250000"),
], ids=["off-grid", "on-grid"])
def test_a_ground_state_that_changes_sector_is_refused(const, message):
    # Both estimators propagate psi0's sector alone, so a ground state that
    # leaves it along the loop is refused by the gap scan, between grid points
    # as on one; before, bpe read theta_B = 3.163068 off the grid.  The Wilson
    # loop refuses both by its overlap or degeneracy check.
    family = sector_crossing_family(const)
    for estimator in (run_bpe, murta_bpe):
        with pytest.raises(DegeneracyError, match=message):
            estimator(family, seed=1)
    with pytest.raises(NumericalError):
        wilson_loop_berry_phase(family)


def test_run_bpe_solves_lambda_zero_once(equatorial, monkeypatch):
    # The gap scan's first point gives _resolve_runtime's E0 and psi0;
    # calibration measures every doubling from that psi0 and its sector.
    from berrylab import dynamics, exact

    zeros, spectra = Counter(), exact.spectra

    def spy(family, lams, sector=None, prune=False):
        zeros["solved"] += int(np.count_nonzero(np.asarray(lams, dtype=float) == 0.0))
        return spectra(family, lams, sector=sector, prune=prune)

    for module in (dynamics, exact):
        monkeypatch.setattr(module, "spectra", spy)
    _, _, diag = run_bpe(equatorial, seed=0)
    assert len(diag["calibration"]["tested"]) == 5
    assert zeros["solved"] == 1


@pytest.mark.parametrize("name", ["equatorial", "syn-yes"])
def test_a_whole_space_sector_keeps_the_whole_space_bits(name, monkeypatch):
    # On a connected family psi0's sector is the whole space, so the engine's
    # legs and distributions are the whole-space ones, bit for bit.
    from berrylab.corpus import synthetic_verifier_instance
    from berrylab.verifier import VerifierConfig

    family, cfg, guide = equatorial_loop(), BpeConfig(), None
    if name == "syn-yes":
        family, cfg = synthetic_verifier_instance("yes").family, VerifierConfig().bpe
        guide = ground_state(family, 0.0)[1]
    engine = BpeEngine(family, cfg, guide)
    assert engine.sector.tolist() == list(range(family.dim))
    monkeypatch.setattr(BpeEngine, "_pair", lambda self, steps: per_leg_pair(self, steps, True))
    reference = BpeEngine(family, cfg, guide)
    for got, want in ((engine.dist1, reference.dist1), (engine.dist_alpha, reference.dist_alpha)):
        assert got.phases.tobytes() == want.phases.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
    assert engine.step_check == reference.step_check


def test_duqma_yes_steps_only_psi0s_sector(duqma_instances, monkeypatch):
    # psi0 lies in a sector of 10 of 128 states: every step stack the engine
    # solves or forms is 10 x 10, and no stack of the whole space is solved.
    from berrylab import dynamics, exact

    instance = duqma_instances["yes"]
    stepping, shapes = [], {"step": [], "other": []}
    spectra, eigh, dense = dynamics.spectra, exact._eigh, exact.BlockEigensystems.dense

    def spy_spectra(family, lams, sector=None):
        stepping.append(True)
        yield from spectra(family, lams, sector=sector)
        stepping.pop()

    def spy_eigh(stacks):
        shapes["step" if stepping else "other"].extend(a.shape for a in stacks)
        return eigh(stacks)

    def spy_dense(self):  # a step's dense stack is psi0's sector's
        V = dense(self)
        assert not stepping or V.shape[1:] == (10, 10), V.shape
        return V

    monkeypatch.setattr(dynamics, "spectra", spy_spectra)
    monkeypatch.setattr(exact, "_eigh", spy_eigh)
    monkeypatch.setattr(exact.BlockEigensystems, "dense", spy_dense)
    engine = BpeEngine(instance.family, BpeConfig(epsilon_B=instance.certified_delta / 2))
    assert engine.sector.size == 10
    assert shapes["step"] and all(s[1:] == (1, 10, 10) for s in shapes["step"])
    assert all(s[-1] < instance.family.dim for s in shapes["other"])
