import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berrylab.errors import CapacityError, ConfigError
from berrylab.hamiltonians import (
    HamiltonianFamily,
    PauliString,
    TrigCoefficient,
    apply_hamiltonian,
    check_dense_budget,
    coeff_from_json,
    constant,
    cosine,
    dense_budget,
    dense_pauli,
    derivative_family,
    eval_hamiltonian,
    eval_hamiltonians,
    from_json_dict,
    load_family,
    make_family,
    norm_bounds,
    save_family,
    scale_and_add,
    sine,
    to_json_dict,
)

from oracles import dense_norm, fd_family_derivative, kron_pauli


# -- construction and validation --------------------------------------------


def test_pauli_string_validation():
    assert PauliString("IXYZ").weight == 3
    assert PauliString("IXYZ").support == (1, 2, 3)
    with pytest.raises(ConfigError):
        PauliString("AB")
    with pytest.raises(ConfigError):
        PauliString("")


def test_pauli_anticommutation():
    assert PauliString("X").anticommutes_with(PauliString("Z"))
    assert not PauliString("X").anticommutes_with(PauliString("X"))
    assert not PauliString("XX").anticommutes_with(PauliString("ZZ"))


def test_dense_pauli_matches_kron_reference():
    import itertools

    strings = ["".join(p) for k in range(1, 6) for p in itertools.product("IXYZ", repeat=k)]
    assert len(strings) == 1364
    for axes in strings:
        assert np.array_equal(dense_pauli(axes), kron_pauli(axes)), axes


def test_dense_pauli_qubit0_is_most_significant():
    ZI = dense_pauli("ZI")
    assert np.allclose(np.diag(ZI), [1, 1, -1, -1])
    IZ = dense_pauli("IZ")
    assert np.allclose(np.diag(IZ), [1, -1, 1, -1])
    XI = dense_pauli("XI")
    assert np.allclose(XI, np.kron(dense_pauli("X"), np.eye(2)))


def test_make_family_consolidates_like_terms():
    fam = make_family(
        1,
        [("X", constant(0.5)), ("X", constant(0.5)), ("Z", constant(0.0))],
    )
    assert len(fam.terms) == 1
    assert fam.terms[0][0].axes == "X"
    assert fam.terms[0][1].const == 1.0


def test_make_family_rejects_bad_input():
    with pytest.raises(ConfigError):
        make_family(2, [("X", constant(1.0))])  # wrong string length
    with pytest.raises(ConfigError):
        make_family(1, [("X", 1.0)])  # bare float coefficient
    with pytest.raises(ConfigError):
        make_family(0, [])


def test_trig_coefficient_canonical_form():
    c = TrigCoefficient(1.0, cos_terms=((2, 0.5), (1, 0.25), (2, -0.5)))
    assert c.cos_terms == ((1, 0.25),)
    with pytest.raises(ConfigError):
        TrigCoefficient(cos_terms=((0, 1.0),))


# -- evaluation --------------------------------------------------------------


def test_eval_is_hermitian_and_periodic(rng):
    fam = make_family(
        2,
        [
            ("XI", cosine(1, 0.7)),
            ("ZY", sine(2, -0.4)),
            ("ZZ", constant(1.1)),
        ],
    )
    for lam in rng.random(5):
        H = eval_hamiltonian(fam, float(lam))
        assert np.allclose(H, H.conj().T, atol=1e-14)
        # period 1; trig arguments differ by exactly 2 pi, so values agree
        # to roundoff but not bit-for-bit
        assert np.allclose(H, eval_hamiltonian(fam, float(lam) + 1.0),
                           atol=1e-12, rtol=0.0)
    assert np.allclose(eval_hamiltonian(fam, 0.0), eval_hamiltonian(fam, 1.0),
                       atol=1e-12, rtol=0.0)


def test_known_matrix_values():
    fam = make_family(1, [("X", cosine(1)), ("Y", sine(1))])
    H0 = eval_hamiltonian(fam, 0.0)
    assert np.allclose(H0, dense_pauli("X"), atol=1e-15)
    Hq = eval_hamiltonian(fam, 0.25)
    assert np.allclose(Hq, dense_pauli("Y"), atol=1e-12)


def test_apply_matches_dense_matvec(rng):
    fam = make_family(
        3,
        [
            ("XIZ", cosine(1, 0.3)),
            ("IYI", constant(-0.8)),
            ("ZZI", sine(1, 0.5)),
        ],
    )
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for lam in (0.0, 0.3, 0.77):
        want = eval_hamiltonian(fam, lam) @ vec
        got = apply_hamiltonian(fam, lam, vec)
        assert np.allclose(got, want, atol=1e-12)


# -- derivatives -------------------------------------------------------------


def test_derivative_matches_finite_differences():
    fam = make_family(
        2,
        [
            ("XI", cosine(1, 0.7)),
            ("IY", sine(3, -0.2)),
            ("ZZ", constant(0.9)),
        ],
    )
    d1 = derivative_family(fam, 1)
    for lam in (0.1, 0.45, 0.9):
        want = fd_family_derivative(fam, lam)
        got = eval_hamiltonian(d1, lam)
        assert np.linalg.norm(got - want, 2) < 1e-7


def test_second_derivative_matches_finite_differences():
    fam = make_family(1, [("X", cosine(2, 1.3))])
    d2 = derivative_family(fam, 2)
    lam, h = 0.37, 1e-4
    fd = (
        eval_hamiltonian(fam, lam + h)
        - 2.0 * eval_hamiltonian(fam, lam)
        + eval_hamiltonian(fam, lam - h)
    ) / h**2
    assert np.linalg.norm(eval_hamiltonian(d2, lam) - fd, 2) < 1e-5


def test_constant_family_has_zero_derivative():
    fam = make_family(1, [("Z", constant(2.0))])
    d1 = derivative_family(fam)
    assert np.allclose(eval_hamiltonian(d1, 0.4), 0.0)
    assert d1.is_constant()


# -- norm bounds -------------------------------------------------------------


def test_norm_bounds_are_upper_bounds(rng):
    fam = make_family(
        2,
        [
            ("XZ", cosine(1, 0.6)),
            ("YI", sine(2, 0.8)),
            ("IZ", constant(-1.2)),
        ],
    )
    h_max, d1_max, d2_max = norm_bounds(fam)
    d1 = derivative_family(fam, 1)
    d2 = derivative_family(fam, 2)
    for lam in rng.random(8):
        lam = float(lam)
        assert dense_norm(fam, lam) <= h_max + 1e-12
        assert dense_norm(d1, lam) <= d1_max + 1e-12
        assert dense_norm(d2, lam) <= d2_max + 1e-12


def test_norm_bound_tight_for_single_pauli():
    fam = make_family(1, [("X", constant(1.5))])
    h_max, _, _ = norm_bounds(fam)
    assert math.isclose(h_max, 1.5, rel_tol=1e-12)


def test_scale_and_add():
    f1 = make_family(1, [("X", constant(1.0))])
    f2 = make_family(1, [("X", constant(0.5)), ("Z", sine(1, 2.0))])
    combo = scale_and_add(2.0, f1, -1.0, f2)
    H = eval_hamiltonian(combo, 0.25)
    want = 2.0 * eval_hamiltonian(f1, 0.25) - eval_hamiltonian(f2, 0.25)
    assert np.allclose(H, want, atol=1e-14)
    with pytest.raises(ConfigError):
        scale_and_add(1.0, f1, 1.0, make_family(2, [("XX", constant(1.0))]))


# -- serialization -----------------------------------------------------------


def _coeff_strategy():
    vals = st.floats(
        min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
    )
    harm = st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), vals), max_size=2
    )
    return st.builds(
        TrigCoefficient, const=vals, cos_terms=harm.map(tuple), sin_terms=harm.map(tuple)
    )


def _family_strategy():
    def build(n, pairs):
        axes = st.text(alphabet="IXYZ", min_size=n, max_size=n)
        return st.lists(
            st.tuples(axes, _coeff_strategy()), min_size=1, max_size=4
        ).map(lambda terms: make_family(n, terms))

    return st.integers(min_value=1, max_value=3).flatmap(lambda n: build(n, None))


@settings(max_examples=60, deadline=None)
@given(_family_strategy())
def test_json_round_trip_is_exact(fam):
    back = from_json_dict(to_json_dict(fam))
    assert back.n_qubits == fam.n_qubits
    assert back.k_max == fam.k_max
    assert back.terms == fam.terms  # canonical storage, so exact equality


def test_save_load_round_trip(tmp_path):
    fam = make_family(
        2,
        [("XY", cosine(1, 0.25)), ("ZI", constant(-0.75))],
        metadata={"label": "round-trip probe"},
    )
    path = tmp_path / "fam.json"
    save_family(fam, str(path))
    back = load_family(str(path))
    assert back.terms == fam.terms
    assert back.metadata.get("label") == "round-trip probe"
    assert np.array_equal(eval_hamiltonian(back, 0.3), eval_hamiltonian(fam, 0.3))


def test_from_json_rejects_malformed():
    with pytest.raises(ConfigError):
        from_json_dict({"kind": "mystery"})


def test_from_json_rejects_non_list_terms():
    with pytest.raises(ConfigError, match="terms must be a list"):
        from_json_dict({"n_qubits": 1, "k_max": 1, "terms": 5})


@pytest.mark.parametrize(
    "coeff",
    [
        {"const": float("nan")},
        {"const": float("inf")},
        {"cos": [[1, float("nan")]]},
        {"sin": [[2, float("-inf")]]},
        {"cos": [[1, 1e308], [1, 1e308]]},  # merged harmonics overflow
    ],
)
def test_from_json_rejects_non_finite_coefficients(coeff):
    with pytest.raises(ConfigError, match="finite"):
        from_json_dict(
            {"n_qubits": 1, "k_max": 1, "terms": [{"pauli": "X", "coeff": coeff}]}
        )


@pytest.mark.parametrize(
    "record",
    [
        {"n_qubits": 1, "k_max": 1, "terms": [{"pauli": "X", "coeff": {"cos": [[1.5, 1.0]]}}]},
        {"n_qubits": 1, "k_max": 1, "terms": [{"pauli": "X", "coeff": {"sin": [[True, 1.0]]}}]},
        {"n_qubits": "1", "k_max": 1, "terms": [{"pauli": "X", "coeff": {"const": 1.0}}]},
        {"n_qubits": 1, "k_max": True, "terms": [{"pauli": "X", "coeff": {"const": 1.0}}]},
    ],
    ids=["harmonic-1.5", "harmonic-true", "n-qubits-string", "k-max-true"],
)
def test_from_json_refuses_coerced_integers(record):
    with pytest.raises(ConfigError, match="must be an integer"):
        from_json_dict(record)


@pytest.mark.parametrize("k", [1.5, True, "1", 2.0])
def test_coeff_from_json_refuses_non_integer_harmonics(k):
    with pytest.raises(ConfigError, match="harmonic index"):
        coeff_from_json({"cos": [[k, 1.0]]})


# -- stacked evaluation ------------------------------------------------------


_amplitudes = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
_far_harmonics = st.lists(
    st.tuples(st.integers(min_value=1, max_value=10**6), _amplitudes), max_size=3
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(
    st.builds(TrigCoefficient, const=_amplitudes, cos_terms=_far_harmonics,
              sin_terms=_far_harmonics),
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
             min_size=1, max_size=8),
)
def test_trig_values_match_value_bit_for_bit(coeff, lams):
    table = coeff.values(np.array(lams))
    scalar = np.array([coeff.value(lam) for lam in lams])
    assert table.tobytes() == scalar.tobytes()


def test_stacked_eval_matches_single_eval(rng):
    fam = make_family(
        3,
        [("XYI", cosine(2, 0.7)), ("ZIZ", TrigCoefficient(0.3, ((1, -0.4),), ((3, 0.2),))),
         ("IIY", sine(1, -1.1)), ("ZZZ", constant(0.5))],
    )
    lams = np.concatenate([rng.uniform(-3.0, 3.0, 20), [0.0, 0.25, 0.5, -0.0]])
    stack = eval_hamiltonians(fam, lams)
    assert stack.shape == (lams.size, 8, 8)
    for lam, H in zip(lams, stack):
        assert H.tobytes() == eval_hamiltonian(fam, lam).tobytes()


@settings(max_examples=60, deadline=None)
@given(_family_strategy(), st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_eval_matches_dense_pauli_sum_bit_for_bit(fam, lam):
    # Every c * P entry is exact, so summing whole matrices in term order from
    # zero is an independent route to the same bits.
    want = np.zeros((fam.dim, fam.dim), dtype=complex)
    for p, c in fam.terms:
        want = want + c.value(lam) * dense_pauli(p.axes)
    assert eval_hamiltonian(fam, lam).tobytes() == want.tobytes()


def test_stacked_eval_checks_the_budget_once(monkeypatch):
    import berrylab.hamiltonians as hmod

    calls = []
    check = hmod.check_dense_budget
    monkeypatch.setattr(hmod, "check_dense_budget",
                        lambda *a, **k: calls.append(a) or check(*a, **k))
    fam = make_family(2, [("XZ", cosine(1, 1.0)), ("ZI", constant(0.5))])
    eval_hamiltonians(fam, np.linspace(0.0, 1.0, 50))
    assert len(calls) == 1
    monkeypatch.setenv("BERRYLAB_MAX_QUBITS", "1")
    with pytest.raises(CapacityError):
        eval_hamiltonians(fam, np.linspace(0.0, 1.0, 50))


# -- capacity ----------------------------------------------------------------


def test_dense_budget_env_override(monkeypatch):
    monkeypatch.setenv("BERRYLAB_MAX_QUBITS", "3")
    assert dense_budget() == 3
    check_dense_budget(3)
    with pytest.raises(CapacityError):
        check_dense_budget(4)
    monkeypatch.setenv("BERRYLAB_MAX_QUBITS", "zero")
    with pytest.raises(ConfigError):
        dense_budget()


def test_dense_budget_blocks_eval(monkeypatch):
    monkeypatch.setenv("BERRYLAB_MAX_QUBITS", "2")
    fam = make_family(3, [("XII", constant(1.0))])
    with pytest.raises(CapacityError):
        eval_hamiltonian(fam, 0.0)
