import hashlib
import itertools
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from berrylab import exact
from berrylab.angles import circle_distance
from berrylab.corpus import constant_z_family, equatorial_loop, tilted_loop_family
from berrylab.dynamics import phase_lag_scale
from berrylab.errors import ConfigError, DegeneracyError, NumericalError
from berrylab.exact import (
    berry_connection_exact,
    berry_connection_perturbative,
    diagonalize,
    ground_state,
    min_gap,
    wilson_loop_berry_phase,
    write_sweep_csv,
)
from berrylab.hamiltonians import (
    TrigCoefficient,
    constant,
    cosine,
    eval_hamiltonian,
    eval_hamiltonians,
    make_family,
    sine,
)
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

    def spy(family, lams, prune=False):
        for part, w, V in spectra(family, lams, prune=prune):
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
        "cancel-6q": _cancelling_loop(),
    }


def _cancelling_loop():
    """XIIIII + XIIIIZ cancels on every column whose last qubit is 1, so the
    sectors there are the pairs IXIIII couples (16 of 2 states); on the other
    half all four states that the X strings and IXIIII connect (8 of 4).  The
    sine vanishes at lambda = 0."""
    fields = [("I" * q + "Z" + "I" * (5 - q), constant(0.5 + 0.13 * q)) for q in range(6)]
    return make_family(6, [("XIIIII", cosine(1, 0.8)), ("XIIIIZ", cosine(1, 0.8)),
                           ("IXIIII", sine(1, 0.6)), *fields])


def _dense_sweep(fam, lams):
    for part, w, blocks in exact.spectra(fam, lams):
        H = eval_hamiltonians(fam, part)
        yield H, w, blocks.dense(), np.linalg.eigh(H)


@pytest.mark.parametrize("name", ["duqma-6q", "duqma-7q", "field-7q", "cancel-6q"])
def test_split_spectra_match_dense_eigh(split_families, name):
    fam = split_families[name]
    lams = np.arange(12) / 12
    assert sum(len(g) for g in oracles.pattern_sectors(fam, lams[0])) > 1
    # The cached sectors are the blocks of the pattern at a generic lambda.
    sectors = exact._sectors_for(fam).groups
    generic = oracles.pattern_sectors(fam)
    assert [s.tolist() for s in sectors] == [g.tolist() for g in generic]
    if name == "cancel-6q":
        assert [s.shape for s in sectors] == [(16, 2), (8, 4)]
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
    for part, w, blocks in pieces:
        for Hj, wj, Vj in zip(eval_hamiltonians(fam, part), w, blocks.dense()):
            assert np.max(np.abs((Vj * wj[None, :]) @ Vj.conj().T - Hj)) <= 1e-13


@pytest.mark.parametrize("name", ["duqma-6q", "duqma-7q", "field-7q", "cancel-6q"])
def test_split_scans_form_no_dense_stack(split_families, name, monkeypatch, tmp_path):
    # The scans along the loop read eigenvalues and ground states from the
    # blocks they were solved in; no (n, d, d) eigenvector stack is formed.
    def spy(self):
        raise AssertionError("a dense eigenvector stack was formed")

    monkeypatch.setattr(exact.BlockEigensystems, "dense", spy)
    fam = split_families[name]
    assert exact._sectors_for(fam).groups[0].shape != (1, fam.dim)  # split
    wilson_loop_berry_phase(fam, 16)
    min_gap(fam, 16)
    write_sweep_csv(fam, 8, str(tmp_path / "s.csv"))
    exact.berry_connections(fam, [0.1, 0.6])
    diagonalize(fam, 0.3).eigenvalues


def test_a_ground_state_read_from_its_block_is_the_dense_column(split_families):
    # On cancel-6q the sine coupling vanishes at lambda = 0.
    fam = split_families["cancel-6q"]
    for lam in np.arange(12) / 12:
        s = diagonalize(fam, lam)
        psi = s.ground_state.tobytes()  # read before the dense stack exists
        assert psi == s.eigenvectors[:, 0].tobytes()


def test_split_scans_are_pinned(split_families, tmp_path):
    # The 7-qubit duqma-yes family is solved in 20 blocks of 2 to 10 states:
    # the Wilson loop's numbers and the sweep CSV keep their bits.
    fam = split_families["duqma-7q"]
    res = wilson_loop_berry_phase(fam, 256)
    assert [getattr(res, k).hex() for k in (
        "theta_B", "min_overlap", "estimated_discretization_error", "min_gap", "gap_lambda0",
    )] == [
        "0x1.75f2d7805c2f4p-17", "0x1.fffffffae768cp-1", "0x1.cd50a1be71000p-30",
        "0x1.3e69ac4b6479ep-11", "0x1.3e69add706864p-11",
    ]
    write_sweep_csv(fam, 32, str(tmp_path / "s.csv"))
    assert hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest() == \
        "030b4dda10e27b2bef456cb600b96b2abbe67b4393466025b539370bd26d3b66"


# -- the sweep solves only the blocks that can hold E0 or E1 -------------------


def test_m2_scans_keep_the_full_block_bits(monkeypatch):
    # The 9-qubit duqma-yes instance at M = 2 splits into 52 blocks, and only
    # 4 of them (56 of 512 states) can hold E0 or E1: the sweep evaluates and
    # solves those alone, and its 128-point Wilson numbers are those of a
    # sweep that solves every block, bit for bit.
    from berrylab.circuits import with_idle_steps
    from berrylab.corpus import duqma_yes_circuit
    from berrylab.hardness import build_duqma_instance

    fam = build_duqma_instance(with_idle_steps(duqma_yes_circuit(), 2), 0).family
    sectors = exact._sectors_for(fam)
    assert sum(len(idx) for idx in sectors.groups) == 52
    assert sum(len(idx) for idx in sectors.kept[0]) == 4 and sectors.kept[4].size == 56
    keys = ("theta_B", "min_overlap", "estimated_discretization_error", "min_gap",
            "gap_lambda0", "min_gap_lambda")
    states, entries, eigh, group_entries = [], [], exact._eigh, exact._group_entries

    def spy_eigh(stacks):  # the states of one point's blocks
        states.append(sum(a.shape[-3] * a.shape[-1] for a in stacks))
        return eigh(stacks)

    def spy_entries(family, lams, cols):
        entries.append(cols.size)
        return group_entries(family, lams, cols)

    monkeypatch.setattr(exact, "_eigh", spy_eigh)
    monkeypatch.setattr(exact, "_group_entries", spy_entries)
    pruned = wilson_loop_berry_phase(fam, 128)
    assert set(states) == {56} and set(entries) == {56}
    monkeypatch.undo()
    spectra = exact.spectra
    monkeypatch.setattr(exact, "spectra", lambda family, lams, prune=False: spectra(family, lams))
    full = wilson_loop_berry_phase(fam, 128)
    assert [getattr(pruned, k).hex() for k in keys] == [getattr(full, k).hex() for k in keys]
    assert [getattr(pruned, k).hex() for k in keys[:5]] == [
        "0x1.91910195c4ae2p-18", "0x1.fffffff59d3bap-1", "0x1.ef4fd4d3a2400p-29",
        "0x1.d2be41b357462p-13", "0x1.d2be42227d016p-13",
    ]


def _dip(n, depth):
    """A Z field on qubit 2 of 1.2 - depth * sum_{k=1..4} cos(2 pi k lambda): the
    blocks whose qubit 2 is 0 lie high, except near lambda = 0."""
    return ("IIZ" + "I" * (n - 3), TrigCoefficient(1.2, tuple((k, -depth) for k in range(1, 5))))


@st.composite
def split_loops(draw):
    """A random loop whose X and Y letters sit on qubits 0 and 1: its sectors
    fix the bits of the other qubits.  Every qubit carries a random Z field."""
    n, amp = draw(st.sampled_from([6, 7])), st.floats(-1.0, 1.0)
    harmonic = st.tuples(st.integers(1, 3), amp).map(lambda h: (h,))
    coeff = st.builds(TrigCoefficient, amp, harmonic, harmonic)
    couplings = st.tuples(st.sampled_from(["XI", "YI", "IX", "XX", "XY", "YZ", "ZX"]),
                          st.text("IZ", min_size=n - 2, max_size=n - 2), coeff)
    terms = [(a + b, c) for a, b, c in draw(st.lists(couplings, min_size=1, max_size=3))]
    field = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.2, 2.0), st.floats(-0.5, 0.5))
    terms += [("I" * q + "Z" + "I" * (n - 1 - q), TrigCoefficient(sign * c, ((1, a),)))
              for q, (sign, c, a) in enumerate(draw(st.lists(field, min_size=n, max_size=n)))]
    return make_family(n, [*terms, _dip(n, draw(st.floats(0.0, 0.6)))])


# E1 in another block than psi0's: a weak field on the last qubit.
_E1_ELSEWHERE = make_family(6, [("XIIIII", cosine(1, 0.8)), ("YIIIII", sine(1, 0.8)),
                                ("IXIIII", constant(0.5)), ("IIZIII", constant(1.0)),
                                ("IIIZII", constant(0.9)), ("IIIIZI", constant(0.7)),
                                ("IIIIIZ", constant(0.01))])
# A block that comes low only near lambda = 0.
_DIPPING = make_family(6, [("XIIIII", cosine(1, 0.5)), ("IXIIZI", sine(2, 0.4)),
                           ("IIIZII", constant(0.8)), ("IIIIZI", constant(0.6)),
                           ("IIIIIZ", constant(1.5)), _dip(6, 0.45)])


def test_the_pruning_examples_have_their_features():
    lams = np.arange(16) / 16
    labels = exact._sectors_for(_E1_ELSEWHERE).labels
    slices = [diagonalize(_E1_ELSEWHERE, lam) for lam in lams]
    assert all(labels[np.argmax(np.abs(s.eigenvectors[:, 0]))]
               != labels[np.argmax(np.abs(s.eigenvectors[:, 1]))] for s in slices)
    assert exact._sectors_for(_E1_ELSEWHERE).kept[4].size < 64
    # The ground state sits in a dipping block (qubit 2 is 0) at lambda = 0 only.
    dipping = [diagonalize(_DIPPING, lam).ground_state for lam in lams]
    assert [int(np.argmax(np.abs(psi))) >> 3 & 1 for psi in dipping] == [0] + [1] * 15
    assert exact._sectors_for(_DIPPING).kept[4].size < 64


@settings(max_examples=30, deadline=None, derandomize=True)
@given(split_loops())
@example(_E1_ELSEWHERE)
@example(_DIPPING)
def test_pruned_sweeps_equal_pointwise_full_solves(fam):
    # The sweep solves only the blocks that can hold E0 or E1, each as a full
    # solve does: the gap, its argmin and the ground state keep their bits,
    # every block it leaves out lies above E1, and the degeneracy scale
    # covers the levels left out.
    lams = np.arange(16) / 16
    full = [diagonalize(fam, lam) for lam in lams]
    assume(all(f.gap > 1e-6 for f in full))
    left_out = np.setdiff1d(np.arange(fam.dim), exact._sectors_for(fam).kept[4])
    for s, f in zip(exact.sweep(fam, lams), full):
        assert _bits(s.gap, *s.eigenvalues[:2]) == _bits(f.gap, *f.eigenvalues[:2])
        assert s.ground_state.tobytes() == f.ground_state.tobytes()
        assert max(s.blocks.floor, np.max(np.abs(s.eigenvalues))) >= np.max(np.abs(f.eigenvalues))
        if left_out.size:
            H = eval_hamiltonian(fam, s.lam)[np.ix_(left_out, left_out)]
            assert np.linalg.eigvalsh(H)[0] > f.eigenvalues[1]
    first = min(((f.gap, f.lam) for f in full), key=lambda t: t[0])
    assert _bits(*min_gap(fam, 16)) == _bits(*first)


# -- the exact amplitudes sector discovery reads ------------------------------


def _x_variants(n):
    """X on qubit 0 times each of the 2^(n-1) Z strings on the other qubits:
    one group whose 2^(n-1) members give its 2^n columns 2^(n-1) distinct
    sign columns.  Amplitudes drawn from a few dyadic values, so that many
    sums cancel exactly."""
    amps = np.random.default_rng(5).choice([-1.0, -0.5, 0.5, 1.0], size=(2 ** (n - 1), 3))
    zs = itertools.product("IZ", repeat=n - 1)
    return make_family(n, [("X" + "".join(z), TrigCoefficient(c, ((1, a),), ((2, b),)))
                           for z, (c, a, b) in zip(zs, amps.tolist())])


def _assert_ungrouped_amps(fam):
    for _, members in exact._actions_for(fam):
        got, want = exact._column_amps(fam, members), oracles.ungrouped_column_amps(fam, members)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # -0.0 too


@settings(max_examples=30, deadline=None, derandomize=True)
@given(split_loops())
def test_column_amps_of_split_loops_equal_the_ungrouped_sums(fam):
    _assert_ungrouped_amps(fam)


@pytest.fixture(scope="module")
def amp_families(scan_families, split_families):
    from berrylab.circuits import with_idle_steps
    from berrylab.corpus import duqma_yes_circuit
    from berrylab.hardness import build_duqma_instance

    m2 = build_duqma_instance(with_idle_steps(duqma_yes_circuit(), 2), 0).family
    return {"bqp-yes": scan_families["bqp"][0], "duqma-no": split_families["duqma-6q"],
            "duqma-yes": split_families["duqma-7q"], "duqma-m2": m2,
            "x-variants-7q": _x_variants(7)}


@pytest.mark.parametrize("name", ["bqp-yes", "duqma-no", "duqma-yes", "duqma-m2", "x-variants-7q"])
def test_column_amps_equal_the_ungrouped_sums(amp_families, name):
    # Each column's amplitudes are exact sums of its own, whatever column
    # they are grouped with, and keep their bits, the sign of zero included.
    fam = amp_families[name]
    if name == "x-variants-7q":
        (_, members), = exact._actions_for(fam)
        signs = np.array([v for _, v in members]).real.T
        assert len(members) == 64 and len(np.unique(signs, axis=0)) == 64
    _assert_ungrouped_amps(fam)


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


def test_perturbative_connections_match_pointwise_connections():
    # The grid form forms the base's eigenbasis adjoint and dV/dlambda once;
    # each value keeps the bits of the one-point form on a duqma-sized grid.
    from berrylab.corpus import bqp_yes_circuit
    from berrylab.hardness import DEFAULT_CONNECTION_GRID, compile_history, make_V

    circuit = bqp_yes_circuit()
    base_fam = compile_history(circuit)
    base = diagonalize(base_fam, 0.0)
    V = make_V(circuit.output1_qubit, base_fam.n_qubits)
    lams = exact.lambda_grid(V, DEFAULT_CONNECTION_GRID, offset=0.5)
    r = base.gap / 8.0
    got = [c.value for c in exact.berry_connections_perturbative(base, V, r, lams)]
    want = [oracles.pointwise_perturbative_connection(base, V, r, lam) for lam in lams]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert got[3] == berry_connection_perturbative(base, V, r, lams[3]).value


def test_sectors_are_found_at_every_dimension_and_name_a_states_part():
    # ZI fixes the first qubit, IX couples the second: sectors {00, 01} and
    # {10, 11}.  The sweep still solves this 4-state family whole.
    fam = make_family(2, [("ZI", constant(0.3)), ("IX", cosine(1, 1.0))])
    assert exact._sectors_for(fam).labels.tolist() == [0, 0, 2, 2]
    assert [g.shape for g in exact._sectors_for(fam).groups] == [(1, 4)]
    for leak in (0.0, 1e-13, 1e-11):
        psi = np.array([math.sqrt(leak), 0.0, 0.0, math.sqrt(1.0 - leak)], dtype=complex)
        if leak > 1e-12:  # more than rounding would be dropped with the other sector
            with pytest.raises(NumericalError, match="outside one sector"):
                exact.ground_sector(fam, psi)
        else:
            sector, amps = exact.ground_sector(fam, psi)
            assert sector.tolist() == [2, 3] and amps.tolist() == psi[2:].tolist()
    # a sector of the whole space hands back the state itself, strides and all
    psi = ground_state(equatorial_loop(), 0.0)[1]
    sector, amps = exact.ground_sector(equatorial_loop(), psi)
    assert sector.tolist() == [0, 1] and amps is psi
