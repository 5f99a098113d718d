import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from berrylab import exact
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
from berrylab.hamiltonians import constant, cosine, eval_hamiltonians, make_family, sine
from berrylab.verifier import energy_distribution

import oracles
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


def test_wilson_converged_is_relative_to_its_tolerance():
    fam = tilted_loop_family(math.pi / 3)
    res = wilson_loop_berry_phase(fam, N=64)
    est = res.estimated_discretization_error
    assert est > 1e-5 and not res.converged
    loose = wilson_loop_berry_phase(fam, N=64, tol=2.0 * est)
    assert loose.converged
    assert not wilson_loop_berry_phase(fam, N=64, tol=est / 2.0).converged
    assert loose.theta_B == res.theta_B


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
        SimpleNamespace(family=fam), np.eye(fam.dim)[0]
    ),
}


DEGENERATE_FAMILIES = {
    # doubly degenerate levels
    "": make_family(2, [("ZI", cosine(1, 1.0))]),
    # 32 identical 2x2 blocks: the ground level is degenerate across blocks
    "-6q": make_family(6, [("XIIIII", cosine(1, 1.0)), ("YIIIII", sine(1, 1.0))]),
}


@pytest.mark.parametrize(
    "scan,fam",
    [(scan, fam) for fam in DEGENERATE_FAMILIES.values() for scan in DEGENERATE_SCANS.values()],
    ids=[name + suffix for suffix in DEGENERATE_FAMILIES for name in DEGENERATE_SCANS],
)
def test_every_scan_refuses_a_degenerate_slice(scan, fam, tmp_path):
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


def _field_loop(n):
    """The equatorial loop on qubit 0 plus unequal Z fields on every qubit:
    a gapped n-qubit family."""
    fields = [("I" * q + "Z" + "I" * (n - 1 - q), constant(0.5 + 0.1 * q)) for q in range(n)]
    rest = "I" * (n - 1)
    return make_family(n, [("X" + rest, cosine(1, 1.0)), ("Y" + rest, sine(1, 1.0)), *fields])


def test_sweep_stacks_stay_under_the_cap(monkeypatch, tmp_path):
    # Memory does not grow with N: a sweep longer than one chunk solves its
    # stencil points in stacks of at most 256 KiB.
    eigh = np.linalg.eigh
    sizes = []

    def spy(a, *args, **kwargs):
        assert a.nbytes <= 256 * 1024, a.shape
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    write_sweep_csv(_field_loop(4), 33, str(tmp_path / "s.csv"))
    assert sizes == [64, 35]  # 33 rows of three stencil points at d = 16


def test_wilson_loop_keeps_only_the_states_it_needs(monkeypatch):
    # One point per chunk at 7 qubits: besides the stack being solved, only
    # the first ground state and the last two may keep their eigenvector
    # stacks alive, however long the loop.
    spectra = exact.spectra
    stacks, most = [], [0]

    def spy(family, lams):
        for part, w, V in spectra(family, lams):
            most[0] = max(most[0], sum(r() is not None for r in stacks))
            stacks.append(weakref.ref(V))
            yield part, w, V

    monkeypatch.setattr(exact, "spectra", spy)
    wilson_loop_berry_phase(_field_loop(7), N=16)
    assert len(stacks) == 16
    assert most[0] <= 4


# -- the block split of the sweep ----------------------------------------------


@pytest.fixture(scope="module")
def split_families():
    from berrylab.corpus import duqma_no_circuit, duqma_yes_circuit
    from berrylab.hardness import build_duqma_instance

    return {
        "duqma-6q": build_duqma_instance(duqma_no_circuit(), 0).family,
        "duqma-7q": build_duqma_instance(duqma_yes_circuit(), 0).family,
        "field-7q": _field_loop(7),
    }


def _dense_sweep(fam, lams):
    for part, w, V in exact.spectra(fam, lams):
        H = eval_hamiltonians(fam, part)
        yield H, w, V, np.linalg.eigh(H)


@pytest.mark.parametrize("name", ["duqma-6q", "duqma-7q", "field-7q"])
def test_split_spectra_match_dense_eigh(split_families, name):
    fam = split_families[name]
    lams = np.arange(12) / 12
    assert exact._block_groups(eval_hamiltonians(fam, lams[:1]))[0] is not None
    eye = np.eye(fam.dim)
    for H, w, V, (w_ref, _) in _dense_sweep(fam, lams):
        scale = max(1.0, float(np.max(np.abs(w_ref))))
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * scale
        assert np.all(np.diff(w, axis=1) >= 0)
        for Hj, wj, Vj in zip(H, w, V):
            assert np.linalg.norm(Hj @ Vj - Vj * wj[None, :]) <= 1e-12
            assert np.linalg.norm(Vj.conj().T @ Vj - eye) <= 1e-12
    if name.startswith("duqma"):
        got = wilson_loop_berry_phase(fam, 16).theta_B
        want = oracles.pointwise_wilson(fam, _grid(16))["theta_B"]
        assert circle_distance(got, want) <= 1e-12


def _connected_family(n, rng):
    """A transverse field on every qubit couples every basis state."""
    terms = [("I" * q + a + "I" * (n - 1 - q), constant(rng.uniform(0.3, 1.0)))
             for q in range(n) for a in "XZ"]
    rest = "I" * (n - 1)
    return make_family(n, [("X" + rest, cosine(1, 0.5)), ("Y" + rest, sine(1, 0.5)), *terms])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_whole_spectra_keep_the_dense_bits(rng, n):
    # Below 64 dimensions every family, split or not, is solved as the one
    # stack it is; from 64 on, so is a connected one.
    families = [_connected_family(n, rng)] + ([_field_loop(n)] if 2 ** n < 64 else [])
    for fam in families:
        for H, w, V, (w_ref, V_ref) in _dense_sweep(fam, np.arange(10) / 10):
            assert w.tobytes() == w_ref.tobytes()
            assert V.tobytes() == V_ref.tobytes()


def test_split_survives_a_coupling_that_vanishes_in_the_chunk():
    # sin(2 pi lambda) drops the X string's entries at lambda = 0: alone in a
    # chunk that point splits finer than its neighbours.
    fields = [("I" * q + "Z" + "I" * (5 - q), constant(0.5 + 0.1 * q)) for q in range(6)]
    fam = make_family(6, [("XIIIII", cosine(1, 0.8)), ("IXIIII", sine(1, 0.6)), *fields])
    lams = np.arange(8) / 8
    assert lams[0] == 0.0
    pieces = list(exact.spectra(fam, lams)) + list(exact.spectra(fam, [0.0]))
    for part, w, V in pieces:
        for Hj, wj, Vj in zip(eval_hamiltonians(fam, part), w, V):
            assert np.max(np.abs((Vj * wj[None, :]) @ Vj.conj().T - Hj)) <= 1e-13


# -- every scan along the loop vs the pinned point-by-point scans ------------


@pytest.fixture(scope="module")
def scan_families():
    from berrylab.corpus import bqp_yes_circuit, random_gapped_family
    from berrylab.hardness import build_bqp_instance, compile_history

    circuit = bqp_yes_circuit()
    return {
        "equatorial": (equatorial_loop(), None),
        "random-3q": (random_gapped_family(3, np.random.default_rng(11)), None),
        "bqp": (build_bqp_instance(circuit).family,
                diagonalize(compile_history(circuit), 0.0).ground_state),
    }


def _bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _grid(n, offset=0.0):
    return (np.arange(n) + offset) / n


@pytest.mark.parametrize("name", ["equatorial", "random-3q", "bqp"])
def test_sweep_scans_match_pointwise_scans(scan_families, name, tmp_path):
    from berrylab.hardness import _certify_connection_exact, _connection_stats

    fam, anchor = scan_families[name]
    chunk = max(1, exact._CHUNK_BYTES // (16 * fam.dim ** 2))
    n = 2 * chunk + 3  # two full chunks, then a partial one
    rows = n // 3 + 1  # stencil scans solve three points per row

    assert _bits(*min_gap(fam, n)) == _bits(*oracles.pointwise_min_gap(fam, _grid(n)))
    got = wilson_loop_berry_phase(fam, n + 1).to_json_dict()
    want = oracles.pointwise_wilson(fam, _grid(n + 1))
    assert list(got) == list(want)
    assert _bits(*got.values()) == _bits(*want.values())
    write_sweep_csv(fam, rows, str(tmp_path / "s.csv"))
    assert (tmp_path / "s.csv").read_bytes() == oracles.pointwise_sweep_csv(fam, _grid(rows))
    assert _bits(phase_lag_scale(fam, n)) == _bits(
        oracles.pointwise_phase_lag(fam, _grid(n, 0.5))
    )
    want_stats = _connection_stats([oracles.pointwise_connection(fam, lam, anchor=anchor)
                                    for lam in _grid(rows, 0.5)])
    assert _bits(*_certify_connection_exact(fam, rows, anchor)) == _bits(*want_stats)


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
