import json
import math

import numpy as np
import pytest

from berrylab.circuits import GateCircuit, gate, with_idle_steps
from berrylab.corpus import (
    bqp_no_circuit,
    bqp_yes_circuit,
    duqma_no_circuit,
    duqma_yes_circuit,
    equatorial_loop,
    synthetic_verifier_instance,
)
from berrylab.errors import ConfigError
from berrylab.exact import berry_connection_exact, diagonalize, wilson_loop_berry_phase
from berrylab.hamiltonians import eval_hamiltonian, norm_bounds, save_family, scale_and_add
from berrylab.hardness import (
    accept_operator_spectrum,
    build_bqp_instance,
    build_duqma_instance,
    compile_history,
    history_state,
    load_instance,
    make_V,
    product_guiding_state,
    save_instance,
    window_guiding_state,
)

TWO_PI = 2.0 * math.pi


def _gap_floor(L: int) -> float:
    return math.pi**2 / (64.0 * L**3)


# -- clock compilation ---------------------------------------------------------


def test_identity_circuit_history_state():
    circ = GateCircuit(n_system=1, gates=(gate("I", 0),))
    hs = history_state(circ)
    want = np.zeros(4, dtype=complex)
    want[0] = want[1] = 1.0 / math.sqrt(2.0)  # |0>(|t0> + |t1>)
    assert np.allclose(hs.amplitudes, want, atol=1e-12)
    H = eval_hamiltonian(compile_history(circ), 0.0)
    assert np.linalg.norm(H @ hs.amplitudes) < 1e-12
    s = diagonalize(compile_history(circ), 0.0)
    assert abs(s.eigenvalues[0]) < 1e-12


def test_x_circuit_history_state():
    circ = GateCircuit(n_system=1, gates=(gate("X", 0),))
    hs = history_state(circ)
    want = np.zeros(4, dtype=complex)
    want[0] = want[3] = 1.0 / math.sqrt(2.0)  # |0>|t0> + |1>|t1>
    assert np.allclose(hs.amplitudes, want, atol=1e-12)


def test_null_vector_property_across_corpus():
    cases = [
        (bqp_yes_circuit(), None),
        (bqp_no_circuit(), None),
        (with_idle_steps(bqp_yes_circuit(), 2), None),
        (duqma_yes_circuit(), 0),
        (duqma_yes_circuit(), 1),
        (duqma_no_circuit(), 0),
    ]
    for circ, witness in cases:
        fam = compile_history(circ)
        hs = history_state(circ, witness=witness)
        H = eval_hamiltonian(fam, 0.0)
        assert np.linalg.norm(H @ hs.amplitudes) <= 1e-10


@pytest.mark.parametrize("name", ["bqp-yes", "bqp-no", "duqma-yes", "duqma-no", "duqma-yes-m2"])
def test_compile_history_matches_kron_expansion(monkeypatch, name):
    # The local Pauli expansion reads dense_pauli once per string; the kron
    # reference must compile the same family, byte for byte.
    import berrylab.hardness as hmod
    from berrylab.hamiltonians import to_json_dict
    from oracles import kron_pauli

    circuits = {"bqp-yes": bqp_yes_circuit, "bqp-no": bqp_no_circuit,
                "duqma-yes": duqma_yes_circuit, "duqma-no": duqma_no_circuit,
                "duqma-yes-m2": lambda: with_idle_steps(duqma_yes_circuit(), 2)}
    circuit = circuits[name]()
    got = json.dumps(to_json_dict(compile_history(circuit)))
    monkeypatch.setattr(hmod, "dense_pauli", kron_pauli)
    assert got == json.dumps(to_json_dict(compile_history(circuit)))


def test_measured_gap_beats_cubic_floor():
    # witness qubits are exempt from input penalties, so a circuit with w
    # witness qubits has a 2^w-dimensional null space (one history state per
    # witness value); the advertised gap floor applies above that whole space
    for circ in (
        bqp_yes_circuit(),
        bqp_no_circuit(),
        with_idle_steps(bqp_yes_circuit(), 2),
        duqma_yes_circuit(),
    ):
        L = len(circ.gates) + circ.M
        null_dim = 2 ** len(circ.witness_qubits)
        s = diagonalize(compile_history(circ), 0.0)
        assert np.all(np.abs(s.eigenvalues[:null_dim]) < 1e-10)
        gap = float(s.eigenvalues[null_dim])
        assert gap >= _gap_floor(L), f"L={L}: gap {gap}"


def test_four_step_gap_frozen_floor():
    circ = with_idle_steps(bqp_yes_circuit(), 2)  # T=2 gates + 2 idle = 4 steps
    s = diagonalize(compile_history(circ), 0.0)
    assert s.gap >= 0.00241


# -- guiding states --------------------------------------------------------------


def test_window_overlap_exact_fraction():
    for M in (0, 2, 4):
        circ = with_idle_steps(bqp_yes_circuit(), M)
        L = len(circ.gates) + circ.M
        hs = history_state(circ)
        ws = window_guiding_state(circ)
        ov = abs(np.vdot(ws.amplitudes, hs.amplitudes)) ** 2
        assert ov == pytest.approx((M + 1) / (L + 1), abs=1e-12)


def test_product_guiding_state_overlap():
    circ = with_idle_steps(bqp_yes_circuit(), 2)
    L = len(circ.gates) + circ.M
    hs = history_state(circ)
    ps = product_guiding_state(circ)
    ov = abs(np.vdot(ps.amplitudes, hs.amplitudes)) ** 2
    assert ov == pytest.approx(1.0 / (L + 1), abs=1e-12)


# -- the lambda-dependent perturbation -------------------------------------------


def test_make_V_matches_defining_expression(rng):
    # V(lam) on the output qubit is e^{2 pi i lam}|1><0| + h.c.
    V = make_V(0, 1)
    for lam in (0.0, 0.25, 0.33, 0.8):
        got = eval_hamiltonian(V, lam)
        want = np.array(
            [
                [0.0, np.exp(-2j * math.pi * lam)],
                [np.exp(2j * math.pi * lam), 0.0],
            ]
        )
        assert np.allclose(got, want, atol=1e-12), f"lam={lam}"
    # lam=0 is X; quarter turn is +Y
    assert np.allclose(eval_hamiltonian(V, 0.0), [[0, 1], [1, 0]])
    assert np.allclose(eval_hamiltonian(V, 0.25), [[0, -1j], [1j, 0]], atol=1e-12)


def test_make_V_unit_norm_everywhere(rng):
    V = make_V(1, 3)
    for lam in rng.random(20):
        w = np.linalg.eigvalsh(eval_hamiltonian(V, float(lam)))
        assert np.max(np.abs(w)) == pytest.approx(1.0, abs=1e-12)


def test_make_V_derivative():
    from berrylab.hamiltonians import derivative_family

    V = make_V(0, 1)
    dV = derivative_family(V)
    lam = 0.3
    want = 2j * math.pi * np.array(
        [
            [0.0, -np.exp(-2j * math.pi * lam)],
            [np.exp(2j * math.pi * lam), 0.0],
        ]
    )
    assert np.allclose(eval_hamiltonian(dV, lam), want, atol=1e-12)


def test_make_V_validates_index():
    with pytest.raises(ConfigError):
        make_V(3, 2)


# -- hardness instances (output-phase type) ---------------------------------------


@pytest.fixture(scope="module")
def yes_instance():
    return build_bqp_instance(with_idle_steps(bqp_yes_circuit(), 2))


@pytest.fixture(scope="module")
def no_instance():
    return build_bqp_instance(with_idle_steps(bqp_no_circuit(), 2))


def test_yes_instance_phase_region(yes_instance):
    theta = yes_instance.provenance["oracle_theta_B"]
    assert 0.0 < theta <= math.pi / 2.0
    assert yes_instance.provenance["connection_sign"] > 0


def test_no_instance_phase_region(no_instance):
    theta = no_instance.provenance["oracle_theta_B"]
    assert 1.5 * math.pi <= theta < TWO_PI
    assert no_instance.provenance["connection_sign"] < 0


def test_oracle_converges_relative_to_the_margin(yes_instance, no_instance):
    # The error estimates (about 4e-5) miss the absolute default of 1e-5, but
    # sit far below the certified margins (about 0.06) the instances decide.
    for inst in (yes_instance, no_instance):
        prov = inst.provenance
        assert prov["oracle_tolerance"] == inst.certified_delta / 10.0
        assert 1e-5 < prov["oracle_error_estimate"] <= prov["oracle_tolerance"]
        assert prov["oracle_converged"] is True


def test_instances_decide_correctly(yes_instance, no_instance):
    from berrylab.bpe import decide_interval

    for inst, want in ((yes_instance, 1), (no_instance, 0)):
        a, b, delta = inst.interval
        theta = inst.provenance["oracle_theta_B"]
        eps_B = min(0.05, 1.9 * delta)
        assert decide_interval(theta, a, b, delta, eps_B) == want


def test_instance_r_respects_perturbative_regime(yes_instance):
    gap_hist = yes_instance.provenance["gap_hist"]
    assert yes_instance.r <= gap_hist / 4.0
    # the perturbed family keeps at least half the unperturbed gap
    assert yes_instance.provenance["gap_full_min"] >= gap_hist / 2.0


def test_r_above_quarter_gap_refused():
    with pytest.raises(ConfigError):
        build_bqp_instance(bqp_yes_circuit(), r=1.0)


def test_r_zero_gives_flat_loop():
    inst = build_bqp_instance(with_idle_steps(bqp_yes_circuit(), 2), r=0.0)
    res = wilson_loop_berry_phase(inst.family, N=32)
    assert res.theta_B == pytest.approx(0.0, abs=1e-10)


def test_connection_bounds_with_fitted_cubic(yes_instance):
    # |iA| must sit inside [2 pi r^2 / ||H||^2 - C r^3, 2 pi r^2 / gap^2 + C r^3]
    # with the cubic constant fitted on the three smallest r and then
    # extrapolated to a larger r it has never seen
    circ = with_idle_steps(bqp_yes_circuit(), 2)
    hist = compile_history(circ)
    V = make_V(circ.output1_qubit, hist.n_qubits)
    gap = diagonalize(hist, 0.0).gap
    h_norm = norm_bounds(hist)[0]
    lams = (0.1, 0.3, 0.5, 0.7, 0.9)

    def measured(r):
        fam = scale_and_add(1.0, hist, r, V)
        vals = [abs(berry_connection_exact(fam, lam)) for lam in lams]
        return min(vals), max(vals)

    def residual(r):
        lo, hi = measured(r)
        lower = TWO_PI * r * r / h_norm**2
        upper = TWO_PI * r * r / gap**2
        return max(lower - lo, hi - upper, 0.0)

    rs_fit = [gap / 16, gap / 32, gap / 64]
    C = max(residual(r) / r**3 for r in rs_fit)
    r_probe = gap / 8
    assert residual(r_probe) <= 1.5 * C * r_probe**3 + 1e-12


def test_instance_round_trip(tmp_path, yes_instance):
    prefix = str(tmp_path / "inst")
    save_instance(yes_instance, prefix)
    back = load_instance(prefix)
    assert back.kind == yes_instance.kind
    assert back.r == yes_instance.r
    assert back.interval == yes_instance.interval
    assert back.family.terms == yes_instance.family.terms
    assert back.provenance["oracle_theta_B"] == pytest.approx(
        yes_instance.provenance["oracle_theta_B"]
    )
    assert back.circuit is not None
    assert len(back.circuit.gates) == len(yes_instance.circuit.gates)


@pytest.mark.parametrize("name", ["yes_instance", "duqma_yes_instance", "synthetic"])
def test_save_load_save_is_byte_identical(tmp_path, request, name):
    if name == "synthetic":
        inst = synthetic_verifier_instance("no", delta=0.2)
    else:
        inst = request.getfixturevalue(name)
    save_instance(inst, str(tmp_path / "a"))
    save_instance(load_instance(str(tmp_path / "a")), str(tmp_path / "b"))
    for suffix in (".json", ".provenance.json"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_minimal_record_gains_its_defaults_in_order(tmp_path):
    # numbers come back as floats; the missing keys follow the record's own
    # keys in this order, and warnings comes last
    save_family(equatorial_loop(), str(tmp_path / "min.json"))
    (tmp_path / "min.provenance.json").write_text(
        json.dumps({"kind": "bqp", "r": 1, "interval": [0, 3.14, 0.05]})
    )
    save_instance(load_instance(str(tmp_path / "min")), str(tmp_path / "out"))
    want = {
        "kind": "bqp",
        "r": 1.0,
        "interval": [0.0, 3.14, 0.05],
        "epsilon_penalty": 0.0,
        "E_th": None,
        "guiding_state_descriptor": "history-window",
        "warnings": [],
    }
    assert (tmp_path / "out.provenance.json").read_text() == json.dumps(want, indent=2) + "\n"


# -- accept operators --------------------------------------------------------------


@pytest.mark.parametrize("field, value", [
    ("interval", [0.0, math.pi, math.nan]),
    ("interval", [0.0, math.pi]),
    ("r", "0.02"),
    ("E_th", math.inf),
    ("kind", ["bqp"]),
    ("warnings", "none"),
])
def test_load_instance_refuses_unusable_fields(tmp_path, yes_instance, field, value):
    save_instance(yes_instance, str(tmp_path / "inst"))
    path = tmp_path / "inst.provenance.json"
    record = json.loads(path.read_text())
    path.write_text(json.dumps({**record, field: value}))
    with pytest.raises(ConfigError):
        load_instance(str(tmp_path / "inst"))


def test_accept_spectrum_unconditional_circuit():
    circ = GateCircuit(
        n_system=3,
        gates=(gate("X", 1),),
        output2_qubit=1,
        witness_qubits=(2,),
    )
    spec = accept_operator_spectrum(circ)
    assert np.allclose(spec, 1.0, atol=1e-12)


def test_accept_spectrum_single_witness_toys():
    for circ in (duqma_yes_circuit(), duqma_no_circuit()):
        spec = np.sort(accept_operator_spectrum(circ))
        assert spec.shape == (2,)
        assert spec[0] == pytest.approx(0.0, abs=1e-12)
        assert spec[-1] == pytest.approx(1.0, abs=1e-12)


def test_accept_spectrum_matches_brute_force():
    # two-witness circuit computing out2 = w1 xor w2
    circ = GateCircuit(
        n_system=3,
        gates=(gate("CNOT", 1, 0), gate("CNOT", 2, 0)),
        output2_qubit=0,
        witness_qubits=(1, 2),
    )
    spec = np.sort(accept_operator_spectrum(circ))
    assert np.allclose(spec, [0.0, 0.0, 1.0, 1.0], atol=1e-12)

    from berrylab.circuits import initial_system_state, one_probability, simulate

    brute = []
    for w in range(4):
        out = simulate(circ, witness=w)
        brute.append(one_probability(out, 0, 3))
    assert np.allclose(np.sort(brute), [0.0, 0.0, 1.0, 1.0], atol=1e-12)


# -- hardness instances (energy-threshold type) ------------------------------------


@pytest.fixture(scope="module")
def duqma_yes_instance():
    return build_duqma_instance(duqma_yes_circuit(), witness=0, M=2)


def test_duqma_energy_sandwich(duqma_yes_instance):
    p = duqma_yes_instance.provenance
    assert p["E0"] < duqma_yes_instance.E_th < p["E1"]
    assert duqma_yes_instance.E_th == pytest.approx(
        p["epsilon_penalty"] / (2.0 * (p["T"] + p["M"] + 1)), rel=1e-12
    )


def test_duqma_threshold_formula_frozen():
    # epsilon 1e-4, four gates plus two idle steps: seven history slices
    inst = build_duqma_instance(
        duqma_yes_circuit(), witness=0, M=2, epsilon_penalty=1e-4
    )
    assert inst.E_th == pytest.approx(1e-4 / 14.0, rel=1e-12)


def test_duqma_yes_phase_region(duqma_yes_instance):
    theta = duqma_yes_instance.provenance["oracle_theta_B"]
    assert 0.0 < theta <= math.pi / 2.0


def test_duqma_no_phase_region():
    inst = build_duqma_instance(duqma_no_circuit(), witness=0, M=2)
    theta = inst.provenance["oracle_theta_B"]
    assert 1.5 * math.pi <= theta < TWO_PI


def test_duqma_witness_validates(duqma_yes_instance):
    assert duqma_yes_instance.provenance["witness_accept_probability"] == pytest.approx(
        1.0, abs=1e-12
    )


def test_duqma_round_trip(tmp_path, duqma_yes_instance):
    prefix = str(tmp_path / "duq")
    save_instance(duqma_yes_instance, prefix)
    back = load_instance(prefix)
    assert back.E_th == pytest.approx(duqma_yes_instance.E_th)
    assert back.kind == "duqma"
    assert back.provenance["witness"] == duqma_yes_instance.provenance["witness"]
