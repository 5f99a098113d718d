import math

import numpy as np
import pytest
import scipy.linalg

from berrylab import dynamics, exact
from berrylab.corpus import (
    bqp_yes_circuit,
    constant_z_family,
    equatorial_loop,
    random_gapped_family,
    tilted_loop_family,
)
from berrylab.dynamics import (
    AdiabaticSchedule,
    StateVector,
    adiabatic_propagate,
    calibrate_runtime,
    controlled_power_apply,
    guess_step_count,
    loop_infidelity,
    loop_propagator,
    loop_propagators,
    make_schedule,
    phase_lag_scale,
    required_runtime,
    step_count,
)
from berrylab.errors import CapacityError, ConfigError, DegeneracyError, NumericalError
from berrylab.exact import ground_sector, ground_state, refine
from berrylab.hamiltonians import (
    commutator_bound,
    constant,
    cosine,
    derivative_family,
    eval_hamiltonian,
    make_family,
    norm_bounds,
    sine,
)
from berrylab.hardness import build_bqp_instance

from oracles import (
    EQUATORIAL_E0,
    equatorial_loop_eigenphase,
    equatorial_phase_lag_coefficient,
    expm_loop,
    pairwise_loop_propagator,
    stepwise_loop_propagator,
    stepwise_propagate,
)

TWO_PI = 2.0 * math.pi


def _ground_eigenphase(family, W):
    # eigenphase of the loop unitary on the branch the ground state rides;
    # finite-T leakage keeps <psi0|W|psi0> strictly inside the unit circle,
    # so diagonalize W and take the dominant-overlap eigenvalue instead
    _, psi = ground_state(family, 0.0)
    evals, evecs = np.linalg.eig(W)
    weights = np.abs(evecs.conj().T @ psi) ** 2
    k = int(np.argmax(weights))
    assert weights[k] > 0.9, "ground state not tracked"
    return float(np.mod(np.angle(evals[k]), TWO_PI))


# -- schedules ---------------------------------------------------------------


def test_make_schedule_step_count(equatorial):
    sched = make_schedule(equatorial, T=10.0, oversampling=10.0)
    h_max = norm_bounds(equatorial)[0]
    assert sched.steps == math.ceil(10.0 * h_max * 10.0)
    assert math.isclose(sched.dt * sched.steps, 10.0, rel_tol=1e-12)


def test_make_schedule_rejects_low_oversampling(equatorial):
    with pytest.raises(ConfigError):
        make_schedule(equatorial, T=1.0, oversampling=1.0)


def test_commutator_bound_covers_the_loop(rng):
    # sup ||[H, dH/dlam]|| measured on a fine grid never exceeds the bound
    for fam in (equatorial_loop(), tilted_loop_family(1.0), random_gapped_family(3, rng),
                build_bqp_instance(bqp_yes_circuit()).family):
        d1 = derivative_family(fam, 1)
        worst = 0.0
        for lam in np.arange(128) / 128:
            H, D = eval_hamiltonian(fam, lam), eval_hamiltonian(d1, lam)
            worst = max(worst, np.linalg.norm(H @ D - D @ H, 2))
        assert worst <= commutator_bound(fam) * (1 + 1e-12)
    assert commutator_bound(constant_z_family()) == 0.0


@pytest.mark.parametrize("family, near_cap", [
    (equatorial_loop(), True),
    (tilted_loop_family(math.pi / 3), True),
    (tilted_loop_family(2 * math.pi / 3), True),
    (build_bqp_instance(bqp_yes_circuit()).family, False),
], ids=["equatorial", "tilted-third", "tilted-two-thirds", "bqp-yes"])
def test_step_guess_against_the_cap(family, near_cap):
    # The 1-qubit loops guess at least half the H_max cap, so the estimators
    # build them at the cap unchecked; a compiled instance guesses far below.
    T = 100.0
    ratio = guess_step_count(family, T) / step_count(T, norm_bounds(family)[0], 10.0)
    assert (ratio >= 0.5) == near_cap
    if not near_cap:
        assert ratio <= 1 / 16


# -- propagation vs the expm oracle ------------------------------------------


def test_forward_step_sign_is_minus_iH(constant_z):
    # single qubit, H = Z: the |1> component must rotate as exp(+i t)
    sched = AdiabaticSchedule(T=1.25, steps=30)
    vec = np.array([0.0, 1.0], dtype=complex)  # ground state of Z, E0 = -1
    out = adiabatic_propagate(vec, constant_z, sched)
    phase = np.angle(np.vdot(vec, out))
    assert abs(phase - 1.25) < 1e-12


def test_loop_propagator_matches_expm_product(equatorial):
    sched = make_schedule(equatorial, T=6.0, oversampling=10.0)
    W = loop_propagator(equatorial, sched)
    ref = expm_loop(equatorial, 6.0, sched.steps)
    assert np.linalg.norm(W - ref, 2) < 1e-10


def test_loop_propagator_matches_expm_product_two_qubits(rng):
    fam = make_family(
        2,
        [
            ("XI", cosine(1, 0.8)),
            ("IY", sine(1, 0.5)),
            ("ZZ", constant(0.9)),
            ("IZ", constant(0.4)),
        ],
    )
    sched = make_schedule(fam, T=3.0)
    W = loop_propagator(fam, sched)
    ref = expm_loop(fam, 3.0, sched.steps)
    assert np.linalg.norm(W - ref, 2) < 1e-10
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vec /= np.linalg.norm(vec)
    assert np.allclose(adiabatic_propagate(vec, fam, sched), ref @ vec, atol=1e-10)


def test_reversed_direction_conjugates_the_steps(equatorial):
    sched_f = make_schedule(equatorial, T=4.0)
    sched_r = make_schedule(equatorial, T=4.0, direction="reversed")
    W_rev = loop_propagator(equatorial, sched_r)
    ref = expm_loop(equatorial, 4.0, sched_f.steps, conjugate=True)
    assert np.linalg.norm(W_rev - ref, 2) < 1e-10


def test_propagator_is_unitary(equatorial):
    sched = make_schedule(equatorial, T=5.0)
    W = loop_propagator(equatorial, sched)
    assert np.linalg.norm(W @ W.conj().T - np.eye(2), 2) < 1e-12


# -- chunked step kernel vs the pinned step-by-step kernel --------------------


@pytest.fixture(scope="module")
def kernel_families():
    return {
        "constant": constant_z_family(2, 0.7),
        "equatorial": equatorial_loop(),
        "random-3q": random_gapped_family(3, np.random.default_rng(11)),
        "bqp": build_bqp_instance(bqp_yes_circuit()).family,
    }


@pytest.mark.parametrize("full_chunks, extra", [(2, 3), (0, 1), (0, 2), (1, 0)],
                         ids=["2", "1-step", "2-steps", "1-chunk"])
@pytest.mark.parametrize("direction", ["forward", "reversed"])
@pytest.mark.parametrize("name", ["constant", "equatorial", "random-3q", "bqp"])
def test_chunked_kernel_matches_stepwise_kernel(kernel_families, name, direction, full_chunks,
                                                extra):
    fam = kernel_families[name]
    chunk = max(1, exact._CHUNK_BYTES // (16 * fam.dim ** 2))
    steps = full_chunks * chunk + extra  # whole chunks, then a partial one
    sched = AdiabaticSchedule(T=0.2 * steps / norm_bounds(fam)[0], steps=steps,
                              direction=direction)
    W = loop_propagator(fam, sched)
    assert W.tobytes() == pairwise_loop_propagator(fam, sched, chunk).tobytes()
    # Reassociation moves only the last bits of the step-by-step product.
    assert np.linalg.norm(W - stepwise_loop_propagator(fam, sched), 2) <= 2e-13
    vec = np.random.default_rng(3).standard_normal(fam.dim) + 0j
    vec /= np.linalg.norm(vec)
    out = adiabatic_propagate(vec, fam, sched)
    assert out.tobytes() == stepwise_propagate(vec, fam, sched).tobytes()


def test_schedules_of_one_step_count_share_a_sweep(kernel_families, monkeypatch):
    # One sweep serves every runtime and direction of a step count, and each
    # unitary keeps the bits it has when built on its own.
    from berrylab import dynamics

    fam = kernel_families["random-3q"]
    schedules = [AdiabaticSchedule(T=T, steps=600, direction=d)
                 for T, d in ((3.0, "forward"), (3.0, "reversed"), (5.5, "forward"))]
    alone = [loop_propagator(fam, s) for s in schedules]
    calls, spectra = [], dynamics.spectra

    def spy(family, lams, sector=None):
        calls.append(len(lams))
        return spectra(family, lams, sector)

    monkeypatch.setattr(dynamics, "spectra", spy)
    shared = loop_propagators(fam, *schedules)
    assert calls == [600]
    assert [W.tobytes() for W in shared] == [W.tobytes() for W in alone]


@pytest.fixture(scope="module")
def sector_families():
    from berrylab.corpus import duqma_no_circuit, duqma_yes_circuit
    from berrylab.hardness import build_duqma_instance

    return {
        "bqp-yes": build_bqp_instance(bqp_yes_circuit()).family,
        "random-3q": random_gapped_family(3, np.random.default_rng(1103)),
        "duqma-no": build_duqma_instance(duqma_no_circuit(), 0).family,
        "duqma-yes": build_duqma_instance(duqma_yes_circuit(), 0).family,
    }


@pytest.mark.parametrize("direction", ["forward", "reversed"])
@pytest.mark.parametrize("name", ["bqp-yes", "random-3q", "duqma-no", "duqma-yes"])
def test_a_sector_propagates_as_its_block_of_the_whole(sector_families, name, direction):
    # psi0's sector, filled, solved and multiplied alone, is the dense W's
    # block of it, and the dense W couples it to the rest only by rounding.
    # bqp-yes and the 3-qubit family split below 64 states, where the
    # sweep's scans solve them whole.
    fam = sector_families[name]
    _, psi0 = ground_state(fam, 0.0)
    sector, psi = ground_sector(fam, psi0)
    assert 1 < sector.size < fam.dim
    sched = AdiabaticSchedule(T=50.0, steps=40, direction=direction)
    W, block = loop_propagator(fam, sched), loop_propagator(fam, sched, sector=sector)
    rest = np.delete(np.arange(fam.dim), sector)
    assert np.linalg.norm(block - W[np.ix_(sector, sector)], 2) <= 1e-13
    assert np.linalg.norm(W[np.ix_(rest, sector)], 2) <= 1e-14
    assert np.linalg.norm(W[np.ix_(sector, rest)], 2) <= 1e-14
    out = adiabatic_propagate(psi, fam, sched, sector=sector)
    assert np.linalg.norm(out - (W @ psi0)[sector]) <= 1e-13
    with pytest.raises(ConfigError, match=rf"expected \({sector.size},\)"):
        adiabatic_propagate(psi0, fam, sched, sector=sector)


def test_calibration_takes_psi0_and_its_sector():
    # loop_infidelity, calibration's measure, propagates psi0 in its sector.
    # On a connected family the sector is the whole space and psi0 the
    # strided column itself, whose np.vdot a contiguous copy would move.
    fields = [(q * "I" + a + (2 - q) * "I", constant(0.4 + 0.1 * q))
              for q in range(3) for a in "XZ"]
    fam = make_family(3, [("XII", cosine(1, 0.5)), ("YII", sine(1, 0.5)), *fields])
    _, psi0 = ground_state(fam, 0.0)
    ground = ground_sector(fam, psi0)
    for T in (2.0, 8.0, 16.0):
        out = adiabatic_propagate(psi0, fam, make_schedule(fam, T, 10.0))
        assert (loop_infidelity(fam, T, 10.0, ground=ground)
                == max(0.0, 1.0 - abs(np.vdot(psi0, out)) ** 2))


def test_step_kernel_stacks_stay_under_the_cap(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        assert a.nbytes <= 256 * 1024, a.shape
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    for n, steps, chunks in ((1, 130, [130]), (4, 130, [64, 64, 2]), (7, 3, [3])):
        fam = make_family(n, [("X" + "I" * (n - 1), cosine(1, 1.0)), ("Z" * n, constant(0.5))])
        shapes.clear()
        loop_propagator(fam, AdiabaticSchedule(T=0.1 * steps, steps=steps))
        assert [s[0] for s in shapes] == chunks
        if n == 7:  # 64 decoupled 2x2 blocks of all three steps, in one batched call
            assert all(s == (3, 64, 2, 2) for s in shapes)
        else:
            assert all(s[1:] == (1, fam.dim, fam.dim) for s in shapes)


# -- loop eigenphase physics --------------------------------------------------


def test_equatorial_eigenphase_closed_form():
    # the dressed ground eigenphase of the equatorial loop is exactly
    # pi + sqrt(T^2 + pi^2); this pins both the overall sign convention and
    # the finite-runtime lag in one shot
    fam = equatorial_loop()
    for T in (20.0, 40.0):
        sched = make_schedule(fam, T, oversampling=40.0)
        W = loop_propagator(fam, sched)
        got = _ground_eigenphase(fam, W)
        want = equatorial_loop_eigenphase(T)
        assert abs(got - want) < 5e-3, f"T={T}: {got} vs {want}"


def test_eigenphase_lag_shrinks_like_one_over_T():
    fam = equatorial_loop()
    lags = []
    for T in (30.0, 60.0):
        sched = make_schedule(fam, T, oversampling=40.0)
        got = _ground_eigenphase(fam, loop_propagator(fam, sched))
        ideal = np.mod(-EQUATORIAL_E0 * T + math.pi, TWO_PI)
        lag = np.mod(got - ideal + math.pi, TWO_PI) - math.pi
        lags.append(abs(lag))
    # doubling T should roughly halve the lag
    assert 1.6 < lags[0] / lags[1] < 2.4


def test_phase_lag_scale_equatorial_closed_form():
    fam = equatorial_loop()
    got = phase_lag_scale(fam, grid=128)
    assert abs(got - equatorial_phase_lag_coefficient()) < 1e-9


def test_phase_lag_scale_constant_family_is_zero(constant_z):
    assert phase_lag_scale(constant_z) == 0.0


def test_phase_lag_matches_measured_lag():
    # G from the spectral integral vs the lag actually measured at finite T
    fam = tilted_loop_family(math.pi / 3)
    G = phase_lag_scale(fam, grid=128)
    T = 60.0
    sched = make_schedule(fam, T, oversampling=40.0)
    got = _ground_eigenphase(fam, loop_propagator(fam, sched))
    E0, _ = ground_state(fam, 0.0)
    theta_B = math.pi * (1.0 - math.cos(math.pi / 3.0))
    ideal = np.mod(-E0 * T + theta_B, TWO_PI)
    lag = np.mod(got - ideal + math.pi, TWO_PI) - math.pi
    assert abs(lag - G / T) < 0.3 * G / T


def test_phase_lag_scale_rejects_degenerate():
    fam = make_family(2, [("ZI", cosine(1, 1.0))])
    with pytest.raises(NumericalError):
        phase_lag_scale(fam)


@pytest.mark.parametrize("n, axes", [(2, "ZI"), (1, "I")])
def test_phase_lag_scale_rejects_a_degenerate_constant_family(n, axes):
    # a lambda-independent family is scanned like any other, so a
    # degenerate one is refused as every sweep refuses one
    with pytest.raises(DegeneracyError):
        phase_lag_scale(make_family(n, [(axes, constant(1.0))]))


# -- fidelity and calibration --------------------------------------------------


def _ground(family):
    return ground_sector(family, ground_state(family, 0.0)[1])


def test_loop_infidelity_decreases_with_runtime(equatorial):
    slow = loop_infidelity(equatorial, 64.0, ground=_ground(equatorial))
    fast = loop_infidelity(equatorial, 8.0, ground=_ground(equatorial))
    assert slow < fast
    assert slow < 1e-2


def test_calibrate_runtime_meets_target(equatorial):
    T, info = calibrate_runtime(equatorial, delta_adia=0.05, ground=_ground(equatorial))
    assert info["infidelity"] <= 0.05**2
    assert T >= 1.0
    assert loop_infidelity(equatorial, T, ground=_ground(equatorial)) <= 0.05**2


def test_calibrate_runtime_constant_family_is_instant(constant_z):
    T, info = calibrate_runtime(constant_z, delta_adia=0.05, ground=_ground(constant_z))
    assert T == 1.0
    assert info["infidelity"] == 0.0


def test_calibration_records_its_ladder(equatorial):
    # calibration's record is refine's: each runtime tried, 1, 2, 4, ..., with
    # its infidelity, and converged at the first within the target
    T, info = calibrate_runtime(equatorial, delta_adia=0.05, ground=_ground(equatorial))
    levels = [t for t, _ in info["tested"]]
    assert levels == [2.0 ** k for k in range(len(levels))] and levels[-1] == T
    assert info["converged"] and info["tested"][-1][1] == info["infidelity"]
    assert all(infidelity > info["target"] for _, infidelity in info["tested"][:-1])


def test_calibration_ends_at_the_step_budget(equatorial, monkeypatch):
    # calibration has no doubling count of its own: with a budget of 100
    # steps and a target of 1e-14, the runtimes 1, 2, 4 and 8 are each
    # measured once, none is accepted, and T = 16, needing 160 steps, is
    # refused by the budget before it is measured
    calls = []

    def spy(family, T, *args, **kwargs):
        infidelity = loop_infidelity(family, T, *args, **kwargs)
        calls.append(T)
        return infidelity

    monkeypatch.setattr(dynamics, "MAX_TOTAL_STEPS", 100)
    monkeypatch.setattr(dynamics, "loop_infidelity", spy)
    with pytest.raises(CapacityError, match=r"T=1\.600e\+01 needs 1\.600e\+02 exact"):
        calibrate_runtime(equatorial, delta_adia=1e-7, ground=_ground(equatorial))
    assert calls == [1.0, 2.0, 4.0, 8.0]


def test_required_runtime_frozen_value(equatorial):
    # adiabatic-theorem worst-case bound; far more pessimistic than the
    # measured calibration, which is the point of having both
    got = required_runtime(equatorial, 0.1)
    assert math.isclose(got, 310062766.8029982, rel_tol=1e-9)
    measured, _ = calibrate_runtime(equatorial, 0.1, ground=_ground(equatorial))
    assert measured < got / 1e4


def test_required_runtime_scales_inverse_square(equatorial):
    a = required_runtime(equatorial, 0.1)
    b = required_runtime(equatorial, 0.05)
    assert math.isclose(b / a, 4.0, rel_tol=1e-6)


# -- the refinement ladder -----------------------------------------------------


def _ladder(values, accept):
    """refine over the levels 0, 1, ... with values[level] as each level's
    value; returns its (result, record), the levels measured and the
    (previous, value) pairs that accept was shown."""
    measured, shown = [], []

    def measure(level):
        measured.append(level)
        return f"built at {level}", values[level]

    def judge(previous, value):
        shown.append((previous, value))
        return accept(previous, value)

    return refine(range(len(values)), measure, judge), measured, shown


def _agree(previous, value):
    return previous is not None and abs(value - previous) <= 0.1


def test_refine_measures_each_level_once_in_order_until_accepted():
    (result, record), measured, shown = _ladder([1.0, 0.5, 0.45, 0.44, 0.0], _agree)
    assert measured == [0, 1, 2]
    assert shown == [(None, 1.0), (1.0, 0.5), (0.5, 0.45)]
    assert result == "built at 2"
    assert record == {"tested": [[0, 1.0], [1, 0.5], [2, 0.45]], "converged": True}


def test_refine_stops_at_a_first_level_it_accepts():
    (result, record), measured, shown = _ladder([1.0, 2.0, 3.0], lambda _, value: value < 1.5)
    assert measured == [0] and shown == [(None, 1.0)] and result == "built at 0"
    assert record == {"tested": [[0, 1.0]], "converged": True}


def test_refine_runs_out_of_levels_unconverged():
    (result, record), measured, _ = _ladder([3.0, 2.0, 1.0], _agree)
    assert measured == [0, 1, 2] and result == "built at 2"
    assert record == {"tested": [[0, 3.0], [1, 2.0], [2, 1.0]], "converged": False}


@pytest.mark.parametrize("accepted", [False, True])
def test_refine_one_level_converges_only_if_accepted_against_none(accepted):
    # _agree never accepts a first level: the step check's one level at the
    # cap is built unchecked, unconverged
    accept = (lambda previous, value: previous is None) if accepted else _agree
    (result, record), measured, shown = _ladder([7.0], accept)
    assert measured == [0] and shown == [(None, 7.0)] and result == "built at 0"
    assert record == {"tested": [[0, 7.0]], "converged": accepted}


# -- controlled powers ---------------------------------------------------------


def test_controlled_power_matches_repeated_application(equatorial):
    sched = make_schedule(equatorial, T=2.0)
    W = loop_propagator(equatorial, sched)
    _, psi = ground_state(equatorial, 0.0)
    # control qubit in |+>, target in the ground state
    amps = np.kron(np.array([1.0, 1.0]) / math.sqrt(2.0), psi).astype(complex)
    state = StateVector(amplitudes=amps, registers={"control": [0], "system": [1]})
    out = controlled_power_apply(state, equatorial, sched, power=3, control=0)
    dim = 2
    want = amps.copy().reshape(2, dim)
    want[1] = np.linalg.matrix_power(W, 3) @ want[1]
    assert np.linalg.norm(out.amplitudes - want.reshape(-1)) < 1e-8


def test_controlled_power_edge_cases(equatorial):
    sched = make_schedule(equatorial, T=2.0)
    _, psi = ground_state(equatorial, 0.0)
    amps = np.kron(np.array([1.0, 0.0]), psi).astype(complex)
    state = StateVector(amplitudes=amps, registers={"control": [0], "system": [1]})
    out = controlled_power_apply(state, equatorial, sched, power=0, control=0)
    assert np.array_equal(out.amplitudes, amps)
    with pytest.raises(ConfigError):
        controlled_power_apply(state, equatorial, sched, power=-1, control=0)
    with pytest.raises(ConfigError):
        controlled_power_apply(state, equatorial, sched, power=1, control=1)
