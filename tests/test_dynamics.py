import math

import numpy as np
import pytest
import scipy.linalg

from berrylab import exact
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
    make_schedule,
    phase_lag_scale,
    required_runtime,
    step_count,
)
from berrylab.errors import ConfigError, NumericalError
from berrylab.exact import ground_state
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


@pytest.mark.parametrize("full_chunks", [2])
@pytest.mark.parametrize("direction", ["forward", "reversed"])
@pytest.mark.parametrize("name", ["constant", "equatorial", "random-3q", "bqp"])
def test_chunked_kernel_matches_stepwise_kernel(kernel_families, name, direction, full_chunks):
    fam = kernel_families[name]
    chunk = max(1, exact._CHUNK_BYTES // (16 * fam.dim ** 2))
    steps = full_chunks * chunk + 3  # full chunks, then a partial one
    sched = AdiabaticSchedule(T=0.2 * steps / norm_bounds(fam)[0], steps=steps,
                              direction=direction)
    W = loop_propagator(fam, sched)
    assert W.tobytes() == stepwise_loop_propagator(fam, sched).tobytes()
    vec = np.random.default_rng(3).standard_normal(fam.dim) + 0j
    vec /= np.linalg.norm(vec)
    out = adiabatic_propagate(vec, fam, sched)
    assert out.tobytes() == stepwise_propagate(vec, fam, sched).tobytes()


def test_step_kernel_stacks_stay_under_the_cap(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        assert a.nbytes <= 256 * 1024, a.shape
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    for n, steps, chunks in ((1, 130, [130]), (4, 130, [64, 64, 2]), (7, 3, [1, 1, 1])):
        fam = make_family(n, [("X" + "I" * (n - 1), cosine(1, 1.0)), ("Z" * n, constant(0.5))])
        shapes.clear()
        loop_propagator(fam, AdiabaticSchedule(T=0.1 * steps, steps=steps))
        assert [s[0] for s in shapes] == chunks
        if n == 7:  # 64 decoupled 2x2 blocks, solved in one batched call
            assert all(s == (1, 64, 2, 2) for s in shapes)
        else:
            assert all(s[1:] == (fam.dim, fam.dim) for s in shapes)


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


# -- fidelity and calibration --------------------------------------------------


def test_loop_infidelity_decreases_with_runtime(equatorial):
    slow = loop_infidelity(equatorial, 64.0)
    fast = loop_infidelity(equatorial, 8.0)
    assert slow < fast
    assert slow < 1e-2


def test_calibrate_runtime_meets_target(equatorial):
    T, info = calibrate_runtime(equatorial, delta_adia=0.05)
    assert info["infidelity"] <= 0.05**2
    assert T >= 1.0
    assert loop_infidelity(equatorial, T) <= 0.05**2


def test_calibrate_runtime_constant_family_is_instant(constant_z):
    T, info = calibrate_runtime(constant_z, delta_adia=0.05)
    assert T == 1.0
    assert info["infidelity"] == 0.0


def test_required_runtime_frozen_value(equatorial):
    # adiabatic-theorem worst-case bound; far more pessimistic than the
    # measured calibration, which is the point of having both
    got = required_runtime(equatorial, 0.1)
    assert math.isclose(got, 310062766.8029982, rel_tol=1e-9)
    measured, _ = calibrate_runtime(equatorial, 0.1)
    assert measured < got / 1e4


def test_required_runtime_scales_inverse_square(equatorial):
    a = required_runtime(equatorial, 0.1)
    b = required_runtime(equatorial, 0.05)
    assert math.isclose(b / a, 4.0, rel_tol=1e-6)


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
