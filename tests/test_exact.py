import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from berrylab.angles import circle_distance
from berrylab.corpus import constant_z_family, equatorial_loop, tilted_loop_family
from berrylab.dynamics import phase_lag_scale
from berrylab.errors import ConfigError, DegeneracyError
from berrylab.exact import (
    berry_connection_exact,
    berry_connection_perturbative,
    diagonalize,
    ground_state,
    min_gap,
    wilson_loop_berry_phase,
    write_sweep_csv,
)
from berrylab.hamiltonians import constant, cosine, make_family, sine
from berrylab.verifier import energy_distribution

from oracles import (
    EQUATORIAL_THETA_B,
    overlap_product_phase,
    tilted_theta_B,
)


# -- diagonalization ---------------------------------------------------------


def test_diagonalize_residual_and_gap(equatorial):
    s = diagonalize(equatorial, 0.3)
    assert s.residual < 1e-12
    assert math.isclose(s.gap, 2.0, rel_tol=1e-10)
    assert not s.degenerate
    assert math.isclose(s.eigenvalues[0], -1.0, abs_tol=1e-12)


def test_diagonalize_flags_degeneracy():
    fam = make_family(2, [("ZI", constant(1.0))])
    s = diagonalize(fam, 0.0)
    assert s.degenerate


def test_ground_state_is_eigvec(equatorial):
    E0, psi = ground_state(equatorial, 0.62)
    from berrylab.hamiltonians import eval_hamiltonian

    H = eval_hamiltonian(equatorial, 0.62)
    assert np.linalg.norm(H @ psi - E0 * psi) < 1e-12


def test_min_gap_equatorial(equatorial):
    gap, argmin = min_gap(equatorial, 32)
    assert math.isclose(gap, 2.0, rel_tol=1e-10)
    assert 0.0 <= argmin < 1.0


def test_min_gap_rejects_degenerate():
    fam = make_family(2, [("ZI", constant(1.0))])
    with pytest.raises(DegeneracyError):
        min_gap(fam, 8)


def test_min_gap_accepts_explicit_grid(equatorial):
    gap, _ = min_gap(equatorial, [0.0, 0.25, 0.5])
    assert math.isclose(gap, 2.0, rel_tol=1e-10)


# -- Wilson loop -------------------------------------------------------------


def test_wilson_equatorial_is_pi(equatorial):
    res = wilson_loop_berry_phase(equatorial, N=512)
    assert abs(res.theta_B - EQUATORIAL_THETA_B) < 1e-4
    assert res.converged
    assert res.min_overlap > 0.99


def test_wilson_constant_family_is_zero(constant_z):
    res = wilson_loop_berry_phase(constant_z, N=64)
    assert abs(res.theta_B) < 1e-10 or abs(res.theta_B - 2 * math.pi) < 1e-10


def test_wilson_matches_solid_angle_on_tilted_loops():
    for a in (math.pi / 3, math.pi / 4, 2.0):
        fam = tilted_loop_family(a)
        res = wilson_loop_berry_phase(fam, N=512)
        assert abs(res.theta_B - tilted_theta_B(a)) < 1e-4, f"polar angle {a}"


def test_wilson_agrees_with_overlap_product_oracle(rng):
    # same quantity computed from scratch, with every eigenvector scrambled
    # by a fresh random phase: the loop product must not care
    fam = tilted_loop_family(math.pi / 3)
    res = wilson_loop_berry_phase(fam, N=256)
    ref = overlap_product_phase(fam, 256, rng=rng)
    assert abs(res.theta_B - ref) < 1e-11


def test_wilson_error_estimate_tracks_grid_doubling():
    fam = tilted_loop_family(math.pi / 3)
    coarse = wilson_loop_berry_phase(fam, N=64)
    fine = wilson_loop_berry_phase(fam, N=256)
    true = tilted_theta_B(math.pi / 3)
    assert abs(fine.theta_B - true) < abs(coarse.theta_B - true)
    assert abs(coarse.theta_B - true) < 8.0 * coarse.estimated_discretization_error


def test_wilson_rejects_bad_grid(equatorial):
    with pytest.raises(ConfigError):
        wilson_loop_berry_phase(equatorial, N=7)
    with pytest.raises(ConfigError):
        wilson_loop_berry_phase(equatorial, N=2)


def test_wilson_raises_on_degenerate_slice():
    fam = make_family(2, [("ZI", constant(1.0))])
    with pytest.raises(DegeneracyError):
        wilson_loop_berry_phase(fam, N=8)


# -- rules shared by every scan along the loop -------------------------------

DEGENERATE_SCANS = {
    "ground_state": lambda fam, tmp: ground_state(fam, 0.0),
    "write_sweep_csv": lambda fam, tmp: write_sweep_csv(fam, 8, str(tmp / "s.csv")),
    "phase_lag_scale": lambda fam, tmp: phase_lag_scale(fam),
    "energy_distribution": lambda fam, tmp: energy_distribution(
        SimpleNamespace(family=fam), np.eye(4)[0]
    ),
}


@pytest.mark.parametrize("scan", DEGENERATE_SCANS.values(), ids=DEGENERATE_SCANS.keys())
def test_every_scan_refuses_a_degenerate_slice(scan, tmp_path):
    fam = make_family(2, [("ZI", cosine(1, 1.0))])  # doubly degenerate levels
    with pytest.raises(DegeneracyError):
        scan(fam, tmp_path)


UNIFORM_SCANS = {
    "min_gap": lambda fam, n, tmp: min_gap(fam, n),
    "wilson_loop_berry_phase": lambda fam, n, tmp: wilson_loop_berry_phase(fam, n),
    "write_sweep_csv": lambda fam, n, tmp: write_sweep_csv(fam, n, str(tmp / "s.csv")),
    "phase_lag_scale": lambda fam, n, tmp: phase_lag_scale(fam, n),
}


@pytest.mark.parametrize("scan", UNIFORM_SCANS.values(), ids=UNIFORM_SCANS.keys())
def test_uniform_scans_refuse_an_aliasing_grid(scan, tmp_path):
    # 16 points are exactly two per period of the 8th harmonic: too few to
    # resolve it.
    fam = make_family(
        1, [("X", cosine(8, 1.0)), ("Y", sine(8, 1.0)), ("Z", constant(0.5))]
    )
    with pytest.raises(ConfigError, match="aliases"):
        scan(fam, 16, tmp_path)
    assert not (tmp_path / "s.csv").exists()
    min_gap(fam, np.arange(16) / 16)  # an explicit lambda list is taken as given


def test_sweep_holds_one_eigensystem_at_a_time(monkeypatch, tmp_path):
    # Rows are all formed before the file is opened, but no slice may outlive
    # its row: a sweep needs O(d^2) memory, not O(N d^2).
    from berrylab import exact

    solve = exact.gapped_slice
    slices, bases, most = [], [], [0, 0]

    def spy(family, lam):
        most[0] = max(most[0], sum(r() is not None for r in slices))
        most[1] = max(most[1], sum(r() is not None for r in bases))
        s = solve(family, lam)
        slices.append(weakref.ref(s))
        bases.append(weakref.ref(s.eigenvectors))
        return s

    monkeypatch.setattr(exact, "gapped_slice", spy)
    write_sweep_csv(equatorial_loop(), 16, str(tmp_path / "s.csv"))
    assert len(slices) == 16 * 4  # each row's slice and its three stencil points
    assert most[0] <= 1  # the current row's slice
    assert most[1] <= 3  # ... and the two earlier stencil states


# -- local connection --------------------------------------------------------


def test_connection_constant_on_equatorial(equatorial):
    # constant integrand of magnitude pi; the value sits exactly on the
    # +/-pi branch point, so compare on the circle
    for lam in (0.05, 0.3, 0.62):
        val = berry_connection_exact(equatorial, lam)
        assert circle_distance(val, math.pi) < 1e-3, f"lambda={lam}"


def test_connection_trapezoid_integral_matches_wilson():
    fam = tilted_loop_family(math.pi / 3)
    grid = 64
    vals = [berry_connection_exact(fam, j / grid) for j in range(grid)]
    integral = float(np.mod(np.mean(vals), 2.0 * math.pi))
    res = wilson_loop_berry_phase(fam, N=512)
    assert abs(integral - res.theta_B) < 1e-4


def test_connection_rejects_bad_step(equatorial):
    with pytest.raises(ConfigError):
        berry_connection_exact(equatorial, 0.2, h=0.0)


def test_perturbative_connection_warns_out_of_regime():
    from berrylab.corpus import bqp_yes_circuit
    from berrylab.hardness import compile_history, make_V

    circuit = bqp_yes_circuit()
    base_fam = compile_history(circuit)
    base = diagonalize(base_fam, 0.0)
    V = make_V(circuit.output1_qubit, base_fam.n_qubits)
    ok = berry_connection_perturbative(base, V, r=base.gap / 8.0, lam=0.1)
    assert not ok.regime_warning
    bad = berry_connection_perturbative(base, V, r=base.gap, lam=0.1)
    assert bad.regime_warning
