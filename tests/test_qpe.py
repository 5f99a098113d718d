import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berrylab.angles import circle_distance
from berrylab.dynamics import AdiabaticSchedule, make_schedule
from berrylab.errors import CapacityError, ConfigError
from berrylab.exact import ground_state
from berrylab.qpe import (
    MAX_PHASE_BITS,
    bits_for_precision,
    circular_median,
    distribution_for_loop,
    distribution_for_unitary,
    distribution_from_phases,
    estimate_from_distribution,
    qpe_run,
    sample_outcomes,
    seed_row,
    stream_uniforms,
    unitary_eigensystem,
)

from oracles import fejer_row

TWO_PI = 2.0 * math.pi


# -- bit budgeting ------------------------------------------------------------


def test_bits_for_precision_values():
    assert bits_for_precision(0.05) == 8
    assert bits_for_precision(0.01) == 11
    assert bits_for_precision(100.0) == 1


def test_bits_for_precision_errors():
    with pytest.raises(ConfigError):
        bits_for_precision(0.0)
    assert bits_for_precision(1e-5) == 21
    edge = 4.0 * math.pi / 2**MAX_PHASE_BITS  # exact: a power-of-two quotient
    assert bits_for_precision(edge) == MAX_PHASE_BITS
    with pytest.raises(CapacityError):
        bits_for_precision(0.5 * edge)  # needs MAX_PHASE_BITS + 1


# -- outcome distributions -----------------------------------------------------


def _band(count, n, p, sigmas=5.0):
    """|count - n p| within `sigmas` binomial standard deviations, plus one."""
    return abs(count - n * p) <= sigmas * math.sqrt(n * p * (1.0 - p)) + 1.0


def test_on_grid_phase_is_read_exactly():
    m = 4
    phi = TWO_PI * 5 / 2**m
    dist = distribution_from_phases([phi], [1.0], m)
    assert set(sample_outcomes(dist, 10_000, np.random.default_rng(1)).tolist()) == {5}
    assert not dist.low_fidelity


def test_off_grid_phase_spills_to_neighbours(rng):
    m, n = 6, 4000
    for _ in range(10):
        phi = TWO_PI * float(rng.random())
        dist = distribution_from_phases([phi], [1.0], m)
        draws = sample_outcomes(dist, n, rng)
        x = phi / TWO_PI * 2**m
        floor = 5.0 * math.sqrt(n / 4)  # five binomial standard deviations, at most
        # the nearest bin keeps at least 4/pi^2 of the mass, the two bins
        # bracketing the true phase together at least 8/pi^2
        assert np.count_nonzero(draws == round(x) % 2**m) >= n * 4.0 / math.pi**2 - floor
        bracket = np.isin(draws, [math.floor(x) % 2**m, math.ceil(x) % 2**m])
        assert np.count_nonzero(bracket) >= n * 8.0 / math.pi**2 - floor


def test_mixture_weights_split_the_mass():
    m, n = 6, 20_000
    phases = [TWO_PI * 8 / 2**m, TWO_PI * 40 / 2**m]
    dist = distribution_from_phases(phases, [0.7, 0.3], m)
    draws = sample_outcomes(dist, n, np.random.default_rng(3))
    assert set(draws.tolist()) == {8, 40}
    assert _band(np.count_nonzero(draws == 8), n, 0.7)


class _LastUniform:
    """A Generator stand-in whose every uniform is the largest below 1."""

    def random(self, shape):
        return np.full(shape, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("m", [1, 3, 7])
def test_sampled_frequencies_match_the_fejer_mixture(m):
    # phases on both branches, (-pi, pi] and [0, 2 pi), and one component of
    # weight 1e-15 on a bin of its own, after the others
    phases = [-2.9, 0.4, 4.0, 5.5, TWO_PI * (2**m - 1) / 2**m]
    weights = [0.4, 0.3, 0.2, 0.1 - 1e-15, 1e-15]
    dist = distribution_from_phases(phases, weights, m)
    n = 200_000
    counts = np.bincount(sample_outcomes(dist, n, np.random.default_rng(m)), minlength=2**m)
    want = sum(w * fejer_row(phi, m) for phi, w in zip(phases[:4], weights[:4]))
    assert all(_band(c, n, p) for c, p in zip(counts, want))
    # Uniforms just below 1 pick the last component kept and read as 0 every
    # bit whose probability is below 1.  Were the 1e-15 component not cut,
    # they would pick it, and its bits, each of probability 1, read 2^m - 1.
    assert sample_outcomes(dist, 1, _LastUniform())[0] != 2**m - 1


def test_rows_of_stream_uniforms_match_each_generator():
    dist = distribution_from_phases([-2.9, 0.4, 4.0], [0.5, 0.3, 0.2], 9)
    uniforms = stream_uniforms([seed_row(s) for s in range(40)], (15, 10))
    rows = sample_outcomes(dist, 15, uniforms)
    assert rows.shape == (40, 15)
    for s, row in enumerate(rows):
        assert np.array_equal(row, sample_outcomes(dist, 15, np.random.default_rng(s)))
    with pytest.raises(ConfigError):
        sample_outcomes(dist, 14, uniforms)


# Entropy of one and of two words, at and past each boundary, and sequences.
ENTROPY = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 12345]),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=5),
)


@settings(max_examples=60, deadline=None)
@given(
    entropy=ENTROPY,
    key=st.lists(st.integers(0, 2**33), max_size=3),
    spawned=st.integers(0, 2),
    path=st.lists(st.integers(0, 2), max_size=2),
    bits=st.integers(2, 49),
    R=st.integers(1, 30),
    many=st.booleans(),
)
def test_stream_uniforms_equal_numpy_bit_for_bit(entropy, key, spawned, path, bits, R, many):
    # Row 0 is a descendant of a SeedSequence that has already spawned
    # children; with `many`, 300 more rows follow, whose entropy, one past
    # the last, can take one word more, so rows of two lengths share a call.
    parent = np.random.SeedSequence(entropy, spawn_key=key)
    parent.spawn(spawned)
    rows = [seed_row(parent, *path)]
    child = parent
    for c in path:
        child = child.spawn(c + 1)[c]
    seeds = [child]
    if many:
        R = min(R, 3)
        for j in range(1, 301):
            e = entropy + j if isinstance(entropy, int) else [*entropy, j]
            rows.append((e, tuple(key)))
            seeds.append(np.random.SeedSequence(e, spawn_key=key))
    want = np.stack([np.random.default_rng(s).random((R, bits)) for s in seeds])
    got = stream_uniforms(rows, (R, bits))
    assert got.shape == want.shape and np.array_equal(got, want)


def test_low_fidelity_flag():
    m = 4
    phases = [0.3, 2.0]
    dist = distribution_from_phases(phases, [0.5, 0.5], m)
    assert dist.low_fidelity


def test_distribution_input_validation():
    with pytest.raises(ConfigError):
        distribution_from_phases([0.1], [0.5], 4)  # weights must sum to 1
    with pytest.raises(ConfigError):
        distribution_from_phases([0.1, 0.2], [1.0], 4)  # shape mismatch
    with pytest.raises(CapacityError):
        distribution_from_phases([0.1], [1.0], MAX_PHASE_BITS + 1)


# -- sampling ------------------------------------------------------------------


def test_sampling_is_deterministic_per_seed():
    dist = distribution_from_phases([1.234], [1.0], 7)
    a = sample_outcomes(dist, 25, np.random.default_rng(5))
    b = sample_outcomes(dist, 25, np.random.default_rng(5))
    assert np.array_equal(a, b)
    c = sample_outcomes(dist, 25, np.random.default_rng(6))
    assert not np.array_equal(a, c)
    with pytest.raises(ConfigError):
        sample_outcomes(dist, 0, np.random.default_rng(0))


def test_estimate_reports_grid_value_and_precision():
    m = 5
    phi = TWO_PI * 11 / 2**m
    dist = distribution_from_phases([phi], [1.0], m)
    est = estimate_from_distribution(dist, 7, np.random.default_rng(0))
    assert est.value == pytest.approx(phi, abs=1e-12)
    assert est.precision == pytest.approx(2.0 * TWO_PI / 2**m)
    assert est.m == m and est.repetitions == 7
    assert len(est.raw_outcomes) == 7


def test_median_concentrates_for_off_grid_phase():
    m = 8
    phi = 2.013
    dist = distribution_from_phases([phi], [1.0], m)
    est = estimate_from_distribution(dist, 31, np.random.default_rng(42))
    assert circle_distance(est.value, phi) <= est.precision


# -- circular median -----------------------------------------------------------


def test_circular_median_wraps():
    # samples straddling zero: the median must sit near zero, not near pi
    val = circular_median([0.05, 0.1, TWO_PI - 0.05])
    assert val in (0.05, 0.1, TWO_PI - 0.05)
    assert circle_distance(val, 0.0) < 0.2


def test_circular_median_single_and_errors():
    assert circular_median([1.5]) == 1.5
    with pytest.raises(ConfigError):
        circular_median([])


@pytest.mark.parametrize("m, R", [(2, 2), (3, 4), (3, 19), (5, 6), (11, 19), (11, 1)])
def test_circular_median_rows_match_the_1d_call(m, R):
    # Seeded QPE readouts 2 pi j / 2^m.  Coarse grids and even R give exact
    # cost ties, which must break to the smallest angle in each row as well.
    rng = np.random.default_rng(1000 * m + R)
    angles = TWO_PI * rng.integers(0, 2**m, size=(300, R)) / 2**m
    rows = circular_median(angles)
    assert rows.shape == (300,)
    assert [v.hex() for v in rows.tolist()] == [circular_median(a).hex() for a in angles]
    if (m, R) == (2, 2):  # two points, equal cost: the smaller one wins
        assert any(len(set(a)) == 2 for a in angles)
        assert all(v == min(a) for v, a in zip(rows.tolist(), angles.tolist()))


def test_circular_median_is_a_sample_point(rng):
    samples = list(TWO_PI * rng.random(9))
    med = circular_median(samples)
    assert any(abs((s % TWO_PI) - med) < 1e-12 for s in samples)


# -- end to end ----------------------------------------------------------------


def test_qpe_on_constant_hamiltonian(constant_z):
    sched = AdiabaticSchedule(T=2.0, steps=40)
    _, psi = ground_state(constant_z, 0.0)
    est = qpe_run(constant_z, sched, psi, m=8, R=9, seed=3)
    # ground energy -1, so the loop eigenvalue argument is +T
    assert circle_distance(est.value, 2.0) <= est.precision
    assert not est.low_fidelity_warning
    again = qpe_run(constant_z, sched, psi, m=8, R=9, seed=3)
    assert est.raw_outcomes == again.raw_outcomes


def test_qpe_input_validation(equatorial):
    sched = make_schedule(equatorial, T=2.0)
    with pytest.raises(ConfigError):
        distribution_for_loop(equatorial, sched, np.array([1.0, 0.0, 0.0]), m=4)


# -- the eigensystem of a unitary ------------------------------------------------


def _unitary(d, phases, rng):
    """A seeded random eigenbasis (Haar, by QR of a Gaussian) with the given
    eigenphases."""
    Q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    Q = Q * (np.diag(r) / np.abs(np.diag(r)))
    return (Q * np.exp(1j * np.asarray(phases))) @ Q.conj().T


SPECTRA = {
    "random": lambda d, rng: rng.uniform(-math.pi, math.pi, d),
    "degenerate-half": lambda d, rng: np.repeat(rng.uniform(-math.pi, math.pi, 2), [d // 2, d - d // 2]),
    "cluster": lambda d, rng: 0.3 + 1e-9 * rng.standard_normal(d),
    "phase-at-pi": lambda d, rng: np.r_[math.pi, rng.uniform(-math.pi, math.pi, d - 1)],
    "identity": lambda d, rng: np.zeros(d),
    "minus-identity": lambda d, rng: np.full(d, math.pi),
}


@pytest.mark.parametrize("d", [1, 2, 16, 64, 128])
@pytest.mark.parametrize("spectrum", SPECTRA)
def test_unitary_eigensystem_is_orthonormal_and_exact(d, spectrum):
    rng = np.random.default_rng([d, list(SPECTRA).index(spectrum)])
    want = SPECTRA[spectrum](d, rng)
    W = np.diag(np.exp(1j * want)) if spectrum.endswith("identity") else _unitary(d, want, rng)
    phases, V = unitary_eigensystem(W)
    assert np.all((-math.pi < phases) & (phases <= math.pi))
    assert np.abs(W @ V - V * np.exp(1j * phases)).max() <= 1e-12
    assert np.abs(V.conj().T @ V - np.eye(d)).max() <= 1e-12
    got = np.sort(np.mod(phases + 1e-6, TWO_PI))  # keep phases near 0 off the cut
    assert np.abs(got - np.sort(np.mod(want + 1e-6, TWO_PI))).max() <= 1e-12
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    weights = distribution_for_unitary(W, psi / np.linalg.norm(psi), 4).weights
    assert abs(weights.sum() - 1.0) <= 1e-12


def _weight_near(phases, weights, at):
    """Weight on the eigenphases within 1e-9 of each angle in ``at``: a
    degenerate eigenspace has no preferred basis, its total weight does."""
    apart = np.abs(np.angle(np.exp(1j * (phases[None, :] - np.asarray(at)[:, None]))))
    return (weights[None, :] * (apart < 1e-9)).sum(axis=1)


def _propagators():
    from berrylab.corpus import (
        bqp_yes_circuit,
        constant_z_family,
        duqma_yes_circuit,
        equatorial_loop,
    )
    from berrylab.hardness import build_bqp_instance, build_duqma_instance

    yield "equatorial", equatorial_loop(), AdiabaticSchedule(T=40.0, steps=400)
    yield "constant-z-2", constant_z_family(2, 1.0), AdiabaticSchedule(T=2.0, steps=1)
    yield "bqp-yes", build_bqp_instance(bqp_yes_circuit()).family, AdiabaticSchedule(100.0, 200)
    duqma = build_duqma_instance(duqma_yes_circuit(), 0).family
    yield "duqma-yes", duqma, AdiabaticSchedule(T=573.6, steps=80)


def test_unitary_eigensystem_matches_schur_on_loop_propagators():
    # scipy is a test-only dependency; its complex Schur form of a unitary is
    # diagonal and was the lab's eigensystem before the Hermitian one
    import scipy.linalg

    from berrylab.dynamics import loop_propagator

    rng = np.random.default_rng(1309)
    for name, family, schedule in _propagators():
        W = loop_propagator(family, schedule)
        T, Q = scipy.linalg.schur(W, output="complex")
        ref_phases = np.angle(np.diag(T))
        _, ground = ground_state(family, 0.0)
        mixed = rng.standard_normal(family.dim) + 1j * rng.standard_normal(family.dim)
        # Any solver fixes the eigenvectors of two phases delta apart only to
        # about eps/delta, so a spread input's weights are held to 1e-13 on
        # loops with phases 1e-3 apart, and to 1e-13 * 1e-3/delta below that
        # (duqma-yes: delta = 1e-5, the instance's own promise gap).
        ring = np.sort(np.mod(ref_phases, TWO_PI))
        delta = np.diff(ring)[np.diff(ring) > 1e-9].min(initial=math.pi)
        for psi, tol in ((ground, 1e-13),
                         (mixed / np.linalg.norm(mixed), 1e-13 * max(1.0, 1e-3 / delta))):
            ref = np.abs(Q.conj().T @ psi) ** 2
            dist = distribution_for_unitary(W, psi, 8)
            assert np.abs(_weight_near(dist.phases, dist.weights, ref_phases)
                          - _weight_near(ref_phases, ref, ref_phases)).max() <= tol, name
        # the ground state's dominant component is nondegenerate on every loop
        dist = distribution_for_unitary(W, ground, 8)
        ref = np.abs(Q.conj().T @ ground) ** 2
        assert circle_distance(dist.phases[np.argmax(dist.weights)],
                               ref_phases[np.argmax(ref)]) <= 1e-14, name
        assert abs(dist.max_weight - ref.max()) <= 1e-13, name
