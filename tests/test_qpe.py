import math

import numpy as np
import pytest

from berrylab.angles import circle_distance
from berrylab.dynamics import AdiabaticSchedule, make_schedule
from berrylab.errors import CapacityError, ConfigError
from berrylab.exact import ground_state
from berrylab.qpe import (
    bits_for_precision,
    circular_median,
    distribution_for_loop,
    distribution_from_phases,
    estimate_from_distribution,
    qpe_run,
    sample_outcomes,
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
    with pytest.raises(CapacityError):
        bits_for_precision(1e-5)  # needs 21 bits, cap is 20
    assert bits_for_precision(1e-5, cap=21) == 21


# -- outcome distributions -----------------------------------------------------


def test_on_grid_phase_is_read_exactly():
    m = 4
    phi = TWO_PI * 5 / 2**m
    dist = distribution_from_phases([phi], [1.0], m)
    assert dist.probs[5] > 1.0 - 1e-12
    assert not dist.low_fidelity


def test_off_grid_phase_spills_to_neighbours(rng):
    m = 6
    for _ in range(10):
        phi = TWO_PI * float(rng.random())
        dist = distribution_from_phases([phi], [1.0], m)
        j = int(np.argmax(dist.probs))
        # nearest bin keeps at least 4/pi^2 of the mass, the two bins
        # bracketing the true phase together at least 8/pi^2
        assert dist.probs[j] >= 4.0 / math.pi**2 - 1e-9
        neighbour_mass = dist.probs[j] + max(
            dist.probs[(j - 1) % 2**m], dist.probs[(j + 1) % 2**m]
        )
        assert neighbour_mass >= 8.0 / math.pi**2 - 1e-9


def test_mixture_weights_split_the_mass():
    m = 6
    phases = [TWO_PI * 8 / 2**m, TWO_PI * 40 / 2**m]
    dist = distribution_from_phases(phases, [0.7, 0.3], m)
    assert abs(dist.probs[8] - 0.7) < 1e-10
    assert abs(dist.probs[40] - 0.3) < 1e-10


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
        distribution_from_phases([0.1], [1.0], 25)


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
