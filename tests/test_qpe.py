import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    seed_words,
    stream_uniforms,
    unitary_eigensystem,
)
from berrylab.verifier import BLOCK_RUNS

from oracles import (
    cube_circular_median,
    fejer_row,
    readout_sample_outcomes,
    splitmix64_key,
    splitmix64_uniforms,
)

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
    with pytest.raises(CapacityError, match="m=1067 "):
        bits_for_precision(1e-320)  # subnormal: 4 pi / eps_ph overflows to inf


# -- outcome distributions -----------------------------------------------------


def _band(count, n, p, sigmas=5.0):
    """|count - n p| within `sigmas` binomial standard deviations, plus one."""
    return abs(count - n * p) <= sigmas * math.sqrt(n * p * (1.0 - p)) + 1.0


def test_on_grid_phase_is_read_exactly():
    m = 4
    phi = TWO_PI * 5 / 2**m
    dist = distribution_from_phases([phi], [1.0], m)
    uniforms = np.random.default_rng(1).random((10_000, m + 1))
    assert set(sample_outcomes(dist, 10_000, uniforms).tolist()) == {5}
    assert not dist.low_fidelity


def test_off_grid_phase_spills_to_neighbours(rng):
    m, n = 6, 4000
    for _ in range(10):
        phi = TWO_PI * float(rng.random())
        dist = distribution_from_phases([phi], [1.0], m)
        draws = sample_outcomes(dist, n, rng.random((n, m + 1)))
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
    draws = sample_outcomes(dist, n, np.random.default_rng(3).random((n, m + 1)))
    assert set(draws.tolist()) == {8, 40}
    assert _band(np.count_nonzero(draws == 8), n, 0.7)


@pytest.mark.parametrize("m", [1, 3, 7])
def test_sampled_frequencies_match_the_fejer_mixture(m):
    # phases on both branches, (-pi, pi] and [0, 2 pi), and one component of
    # weight 1e-15 on a bin of its own, after the others
    phases = [-2.9, 0.4, 4.0, 5.5, TWO_PI * (2**m - 1) / 2**m]
    weights = [0.4, 0.3, 0.2, 0.1 - 1e-15, 1e-15]
    dist = distribution_from_phases(phases, weights, m)
    n = 200_000
    uniforms = np.random.default_rng(m).random((n, m + 1))
    counts = np.bincount(sample_outcomes(dist, n, uniforms), minlength=2**m)
    want = sum(w * fejer_row(phi, m) for phi, w in zip(phases[:4], weights[:4]))
    assert all(_band(c, n, p) for c, p in zip(counts, want))
    # Uniforms just below 1 pick the last component kept and read as 0 every
    # bit whose probability is below 1.  Were the 1e-15 component not cut,
    # they would pick it, and its bits, each of probability 1, read 2^m - 1.
    assert sample_outcomes(dist, 1, np.full((1, m + 1), np.nextafter(1.0, 0.0)))[0] != 2**m - 1


def _mixture(m, n, seed):
    rng = np.random.default_rng(seed)
    weights = rng.random(n)
    return distribution_from_phases(rng.uniform(-math.pi, math.pi, n), weights / weights.sum(), m)


# name: (distribution, shape of the uniforms (..., R, m + 1))
SAMPLER_CASES = {
    # 10 components over 256 x 15 readouts: bits 0-8 read from the (component,
    # prefix) table (10 x 2^8 <= 3840 entries), bits 9-17 per readout
    "crosses-the-switch": (_mixture(18, 10, 1), (256, 15, 19)),
    "on-grid": (distribution_from_phases(TWO_PI * np.array([3, 17, 40, 63]) / 2**6,
                                         [0.4, 0.3, 0.2, 0.1], 6), (64, 19, 7)),
    "under-the-cut": (distribution_from_phases([-2.9, 0.4, 5.5], [0.6, 0.4 - 1e-15, 1e-15], 5),
                      (256, 19, 6)),
    "m-48": (_mixture(48, 3, 2), (4, 19, 49)),
    "one-readout": (_mixture(11, 2, 3), (1, 12)),
    "two-leading-dims": (_mixture(7, 4, 4), (3, 5, 9, 8)),
}


@pytest.mark.parametrize("uniforms", ["random", "below-one", "at-the-probabilities"])
@pytest.mark.parametrize("case", SAMPLER_CASES)
def test_sample_outcomes_equal_the_per_readout_reference(case, uniforms):
    # At the probabilities, each bit's uniform is the reference's probability
    # or the float below it, so one ulp of difference in a probability shows.
    dist, shape = SAMPLER_CASES[case]
    rng = np.random.default_rng(len(case))
    u = np.full(shape, np.nextafter(1.0, 0.0)) if uniforms == "below-one" else rng.random(shape)
    if uniforms == "at-the-probabilities":
        want, u = readout_sample_outcomes(dist, shape[-2], u, at_edge=rng.random(shape) < 0.5)
    else:
        want = readout_sample_outcomes(dist, shape[-2], u)
    got = sample_outcomes(dist, shape[-2], u)
    assert got.dtype == np.int64 and got.shape == shape[:-1]
    assert np.array_equal(got, want)


def test_rows_of_stream_uniforms_match_each_generator():
    # A block of streams, read as one array, gives each seed's own readouts.
    dist = distribution_from_phases([-2.9, 0.4, 4.0], [0.5, 0.3, 0.2], 9)
    uniforms = stream_uniforms(range(40), (15, 10))
    rows = sample_outcomes(dist, 15, uniforms)
    assert rows.shape == (40, 15)
    for s, row in enumerate(rows):
        assert np.array_equal(row, sample_outcomes(dist, 15, stream_uniforms([s], (15, 10))[0]))
    with pytest.raises(ConfigError):
        sample_outcomes(dist, 14, uniforms)


# Seeds of one word, at and past each word boundary, and of several words.
SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**128 - 1, 2**128 + 7]),
    st.integers(0, 2**64 - 1),
    st.integers(2**64, 2**200),
)


@settings(max_examples=80, deadline=None)
@given(
    seeds=st.lists(SEEDS, max_size=6),
    path=st.lists(st.integers(0, 2**40), max_size=2),
    shape=st.lists(st.integers(1, 6), max_size=3),
    numpy_ints=st.booleans(),
)
def test_stream_uniforms_equal_the_splitmix_reference(seeds, path, shape, numpy_ints):
    # Keys, children's keys and every draw, bit for bit, against SplitMix64's
    # scalar state walk; numpy ints key as Python ints do, and a shape of ()
    # is one coin per seed.
    given_seeds = [np.uint64(s) for s in seeds if s < 2**64] if numpy_ints else seeds
    words = seed_words(given_seeds)
    for c in path:
        words = words.child(c)
    keys = [splitmix64_key(int(s), *path) for s in given_seeds]
    assert words.keys.dtype == np.uint64 and words.keys.tolist() == keys
    got = stream_uniforms(words, tuple(shape))
    assert got.shape == (len(keys), *shape)
    assert got.reshape(len(keys), math.prod(shape)).tolist() == [
        splitmix64_uniforms(k, math.prod(shape)) for k in keys
    ]
    if not path:
        assert np.array_equal(stream_uniforms(given_seeds, tuple(shape)), got)


@pytest.mark.parametrize("seed", [
    7,
    np.uint64(12),
    np.int64(5),
    2**70 + 5,
    np.uint64(2**64 - 1),
])
def test_child_words_equal_the_row_path(seed):
    # A run's key once, its children's keys mixed in: each path's key and
    # stream equal the reference's for that path, and the path's seed row
    # is the row of its seed in a list of seeds.
    runs = seed_words([seed, 4])
    for c, k in [(0, None), (1, 0), (1, 1), (2, None)]:
        words = runs.child(c, [0])
        path = (c,)
        if k is not None:
            words, path = words.child(k), (c, k)
        key = splitmix64_key(int(seed), *path)
        assert words.keys.tolist() == [key]
        assert stream_uniforms(words, (3, 4))[0].ravel().tolist() == splitmix64_uniforms(key, 12)


def test_coins_equal_the_splitmix_reference():
    # A coin is a stream of one uniform: the first draw of each seed's
    # stream, for seeds of one to four words, and of a child's.
    seeds = [0, 2**32 - 1, 2**64 - 1, 2**64 + 3, 2**128 + 7, 2**192]
    coin = stream_uniforms(seeds, ())
    assert coin.shape == (len(seeds),)
    assert coin.tolist() == [splitmix64_uniforms(splitmix64_key(s), 1)[0] for s in seeds]
    assert np.array_equal(stream_uniforms(seeds, (1, 1))[:, 0, 0], coin)
    child = stream_uniforms(seed_words([seeds[3]]).child(1), ())
    assert child.tolist() == splitmix64_uniforms(splitmix64_key(seeds[3], 1), 1)


def test_array_children_equal_the_rows_of_each_child():
    # One seed's children 0..n-1 as one array, past a block of runs and with
    # a two-word seed: each key is the child's made singly; and children
    # broadcast against chosen rows.
    s, n = 2**70 + 7, BLOCK_RUNS + 44
    got = seed_words([s]).child(np.arange(n))
    assert got.keys.tolist() == [int(seed_words([s]).child(i).keys[0]) for i in range(n)]
    words = seed_words([s, 4, 9])
    assert words.child(np.array([3, 5]), [2, 0]).keys.tolist() == [
        int(seed_words([9]).child(3).keys[0]), int(seed_words([s]).child(5).keys[0])]
    assert words.child(1, [1]).keys.tolist() == seed_words([4]).child(1).keys.tolist()


def test_streams_are_uniform_on_a_fixed_block():
    # 256 seeds' streams of 4,096 draws, 2^20 uniforms in all.  The bounds
    # are five standard errors of an ideal uniform sample: the mean's
    # (1/12 N)^1/2 = 2.8e-4, the variance's ((1/80 - 1/144) / N)^1/2 =
    # 7.3e-5 and a correlation's N^-1/2 = 9.8e-4.  The lag-1 correlation is
    # taken along each stream and across neighbouring seeds' streams.
    u = stream_uniforms(range(256), (4096,))
    N = u.size
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) <= 5 * math.sqrt(1 / 12 / N)
    assert abs(u.var() - 1 / 12) <= 5 * math.sqrt((1 / 80 - 1 / 144) / N)
    z = (u - 0.5) * math.sqrt(12.0)
    assert abs(np.mean(z[:, 1:] * z[:, :-1])) <= 5 / math.sqrt(N)
    assert abs(np.mean(z[1:] * z[:-1])) <= 5 / math.sqrt(N)


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
    a = sample_outcomes(dist, 25, stream_uniforms([5], (25, 8))[0])
    b = sample_outcomes(dist, 25, stream_uniforms([5], (25, 8))[0])
    assert np.array_equal(a, b)
    c = sample_outcomes(dist, 25, stream_uniforms([6], (25, 8))[0])
    assert not np.array_equal(a, c)
    with pytest.raises(ConfigError):
        sample_outcomes(dist, 0, np.zeros((0, 8)))


def test_estimate_reports_grid_value_and_precision():
    m = 5
    phi = TWO_PI * 11 / 2**m
    dist = distribution_from_phases([phi], [1.0], m)
    est = estimate_from_distribution(dist, 7, np.random.default_rng(0).random((7, m + 1)))
    assert est.value == pytest.approx(phi, abs=1e-12)
    assert est.precision == pytest.approx(2.0 * TWO_PI / 2**m)
    assert est.m == m and est.repetitions == 7
    assert len(est.raw_outcomes) == 7


def test_median_concentrates_for_off_grid_phase():
    m = 8
    phi = 2.013
    dist = distribution_from_phases([phi], [1.0], m)
    est = estimate_from_distribution(dist, 31, np.random.default_rng(42).random((31, m + 1)))
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


@st.composite
def _median_rows(draw):
    # Readouts 2 pi j / 2^m: uniform over the grid, or a few bins around one
    # centre (across 0 too), where exact and rounding-level ties occur, or a
    # handful of such bins each read many times, as verify's readouts are; or
    # uniform floats, on and off [0, 2 pi).
    R, n = draw(st.integers(1, 20)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind, m = draw(st.sampled_from(["grid", "near", "few", "float"])), draw(st.integers(2, 48))
    if kind == "float":
        return rng.uniform(-7.0, 14.0, size=(n, R))
    j = rng.integers(0, 2**m, size=(n, R))
    if kind in ("near", "few"):
        width = draw(st.integers(1, 4))
        j = rng.integers(0, 2**m, size=(n, 1)) + rng.integers(-width, width + 1, size=(n, R))
    if kind == "few":
        bins = j[:, :draw(st.integers(1, 3))]
        j = np.take_along_axis(bins, rng.integers(0, bins.shape[1], size=(n, R)), axis=1)
    return TWO_PI * (j % 2**m) / 2**m


# A block of 256 rows of 19 sampled readouts: 33 distinct grid values, about
# three to a row, most of them read many times.
_SAMPLED = distribution_from_phases([1.0, -2.0, 2.5], [0.7, 0.2, 0.1], 11)
SAMPLED_ROWS = _SAMPLED.angles(
    sample_outcomes(_SAMPLED, 19, np.random.default_rng(5).random((256, 19, 12))))


@settings(max_examples=400, deadline=None)
@given(rows=_median_rows())
@example(rows=SAMPLED_ROWS)
def test_circular_median_equals_the_cube_form(rows):
    want = [v.hex() for v in cube_circular_median(rows).tolist()]
    assert [v.hex() for v in circular_median(rows).tolist()] == want
    assert [circular_median(row).hex() for row in rows] == want


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


# -- a loop unitary inherits its family's sectors -------------------------------


@pytest.fixture(scope="module")
def sector_families():
    from berrylab.corpus import duqma_no_circuit, duqma_yes_circuit
    from berrylab.hardness import build_duqma_instance

    return {
        "duqma-no": build_duqma_instance(duqma_no_circuit(), 0).family,
        "duqma-yes": build_duqma_instance(duqma_yes_circuit(), 0).family,
        "duqma-M2": build_duqma_instance(duqma_yes_circuit(), 0, M=2).family,
    }


@pytest.mark.parametrize("steps", [7, 40])
@pytest.mark.parametrize("direction", ["forward", "reversed"])
@pytest.mark.parametrize("name", ["duqma-no", "duqma-yes", "duqma-M2"])
def test_loop_unitary_and_cayley_vanish_off_the_family_sectors(
    sector_families, monkeypatch, name, direction, steps
):
    # A loop unitary and its Cayley X = (I + e^{-i phi0} W)^-1 are exactly 0.0
    # outside the family's sectors, so the estimators propagate and solve
    # psi0's sector alone with nothing lost.
    from berrylab import qpe
    from berrylab.dynamics import loop_propagator
    from berrylab.exact import _sectors_for

    fam = sector_families[name]
    groups = _sectors_for(fam).groups
    assert sum(idx.shape[0] for idx in groups) > 1  # the family splits
    off = np.ones((fam.dim, fam.dim), dtype=bool)
    for idx in groups:
        off[idx[:, :, None], idx[:, None, :]] = False
    W = loop_propagator(fam, AdiabaticSchedule(T=50.0, steps=steps, direction=direction))
    inverses = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(inv(a)) or inverses[-1])
    qpe.unitary_eigensystem(W)
    (X,) = inverses
    assert np.all(W[off] == 0.0)
    assert np.all(X[off] == 0.0)


@pytest.mark.parametrize("T, steps", [(50.0, 40), (573.6, 80)])
def test_a_family_solve_matches_the_one_block_solve(sector_families, T, steps):
    # The estimators' distribution, from psi0's sector's loop solved alone,
    # has the spectral mixture of the whole W solved as one block, and the
    # family's sectors' loops hold W's eigenphases between them.  Phases
    # 1e-15 apart may come out in either order, so phases are compared
    # sorted and weights by the eigenphase they sit on.
    from berrylab.dynamics import loop_propagator
    from berrylab.exact import _sectors_for, ground_sector

    fam = sector_families["duqma-no"]
    schedule = AdiabaticSchedule(T=T, steps=steps)
    W = loop_propagator(fam, schedule)
    labels = _sectors_for(fam).labels
    sectors = [np.flatnonzero(labels == k) for k in np.unique(labels)]
    assert len(sectors) == 12
    phases = [unitary_eigensystem(loop_propagator(fam, schedule, sector=s))[0] for s in sectors]
    assert np.abs(np.sort(np.concatenate(phases))
                  - np.sort(unitary_eigensystem(W)[0])).max() <= 1e-12
    _, psi0 = ground_state(fam, 0.0)
    sector, amps = ground_sector(fam, psi0)
    split = distribution_for_unitary(loop_propagator(fam, schedule, sector=sector), amps, 8)
    whole = distribution_for_loop(fam, schedule, psi0, 8)
    assert split.phases.size == sector.size == 8
    assert np.abs(_weight_near(split.phases, split.weights, whole.phases)
                  - _weight_near(whole.phases, whole.weights, whole.phases)).max() <= 1e-12


def test_a_one_block_family_solve_is_the_one_block_solve():
    # A transverse field on every qubit makes the family one sector, so the
    # estimators' distribution from psi0's sector is the whole loop's, bit for
    # bit, for its strided ground state as for a contiguous one
    from berrylab.dynamics import loop_propagator
    from berrylab.exact import ground_sector
    from berrylab.hamiltonians import constant, cosine, make_family, sine

    fields = [(q * "I" + a + (3 - q) * "I", constant(0.4 + 0.1 * q))
              for q in range(4) for a in "XZ"]
    fam = make_family(4, [("XIII", cosine(1, 0.5)), ("YIII", sine(1, 0.5)), *fields])
    schedule = AdiabaticSchedule(T=100.0, steps=200)
    _, psi = ground_state(fam, 0.0)
    for state in (psi, psi.copy()):
        sector, amps = ground_sector(fam, state)
        split = distribution_for_unitary(loop_propagator(fam, schedule, sector=sector), amps, 8)
        whole = distribution_for_loop(fam, schedule, state, 8)
        for a, b in [(split.phases, whole.phases), (split.weights, whole.weights)]:
            assert a.tobytes() == b.tobytes()
