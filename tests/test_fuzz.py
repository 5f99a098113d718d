"""Fuzz the loaders and the CLI with JSON-shaped values.

A family record, an instance's provenance record or a command-line value
that the lab cannot use must end in ConfigError (exit 2), never in another
exception or a traceback.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from berrylab import cli
from berrylab.circuits import circuit_from_json_dict, circuit_to_json_dict
from berrylab.corpus import bqp_yes_circuit, duqma_yes_circuit, equatorial_loop
from berrylab.errors import ConfigError
from berrylab.hamiltonians import from_json_dict, to_json_dict
from berrylab.hardness import HardnessInstance, load_instance

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _shaped(fields: dict):
    """Records carrying a schema's keys, some with fuzzed values."""
    return st.fixed_dictionaries(
        {}, optional={k: st.one_of(JSON_VALUES, st.just(v)) for k, v in fields.items()}
    )


_FAMILY = to_json_dict(equatorial_loop())
_TERM = _FAMILY["terms"][0]
FAMILY_VALUES = st.one_of(
    JSON_VALUES,
    _shaped({**_FAMILY, "terms": [_TERM]}),  # fuzzed top-level fields
    JSON_VALUES.map(lambda t: {**_FAMILY, "terms": [_TERM, t]}),  # a fuzzed term
    _shaped(_TERM).map(lambda t: {**_FAMILY, "terms": [t]}),  # fuzzed term fields
    _shaped(_TERM["coeff"]).map(lambda c: {**_FAMILY, "terms": [{"pauli": "X", "coeff": c}]}),
)

_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _write(path, value) -> None:
    path.write_text(json.dumps(value))


_BAD_TERM = {"n_qubits": 1, "k_max": 1, "terms": [{"pauli": "X", "coeff": {}}]}


@_FUZZ
@given(FAMILY_VALUES)
@example({**_BAD_TERM, "terms": [{"pauli": ["X"], "coeff": {}}]})
@example({**_BAD_TERM, "terms": [{"pauli": "X", "coeff": []}]})
@example({**_BAD_TERM, "terms": [{"pauli": "X", "coeff": {"const": 10**400}}]})
def test_family_loader_refuses_with_config_error(record):
    try:
        from_json_dict(record)
    except ConfigError:
        pass


_CIRCUIT = circuit_to_json_dict(duqma_yes_circuit())
_GATE = _CIRCUIT["gates"][0]
CIRCUIT_VALUES = st.one_of(
    _shaped(_CIRCUIT),  # fuzzed top-level fields
    _shaped(_GATE).map(lambda g: {**_CIRCUIT, "gates": [g]}),  # fuzzed gate fields
)


@_FUZZ
@given(CIRCUIT_VALUES)
@example({**_CIRCUIT, "output1_qubit": True})
@example({**_CIRCUIT, "output2_qubit": 0.5})
@example({**_CIRCUIT, "witness_qubits": "0"})
def test_circuit_loader_refuses_or_loads_integers(record):
    try:
        c = circuit_from_json_dict(record)
    except ConfigError:
        return
    counts = [c.n_system, c.M, *c.witness_qubits, *(q for g in c.gates for q in g.targets)]
    counts += [q for q in (c.output1_qubit, c.output2_qubit) if q is not None]
    assert all(type(v) is int for v in counts), counts


PROVENANCE = {
    "kind": "bqp",
    "circuit": circuit_to_json_dict(bqp_yes_circuit()),
    "r": 0.02,
    "epsilon_penalty": 0.0,
    "E_th": None,
    "interval": [0.0, 3.14, 0.05],
    "guiding_state_descriptor": "history-window",
    "warnings": [],
}


@_FUZZ
@given(family=st.one_of(st.just(_FAMILY), FAMILY_VALUES),
       record=st.one_of(JSON_VALUES, _shaped(PROVENANCE)))
@example(family=_FAMILY, record=None)
@example(family=_FAMILY, record={**PROVENANCE, "interval": 5})
def test_instance_loader_refuses_with_config_error(tmp_path, family, record):
    _write(tmp_path / "inst.json", family)
    _write(tmp_path / "inst.provenance.json", record)
    try:
        assert isinstance(load_instance(str(tmp_path / "inst")), HardnessInstance)
    except ConfigError:
        pass


COMMANDS = {
    "--seed": ["bpe", "--instance", "{inst}", "--seed", "{value}"],
    "--runs": ["verify", "--instance", "{inst}", "--witness", "ground", "--runs", "{value}",
               "--seed", "1"],
    "--witness": ["verify", "--instance", "{inst}", "--witness", "{value}", "--seed", "1"],
    "--grid-size": ["oracle", "--instance", "{inst}", "--grid-size", "{value}"],
}


@_FUZZ
@given(flag=st.sampled_from(sorted(COMMANDS)), value=JSON_VALUES,
       family=FAMILY_VALUES, record=JSON_VALUES)
@example(flag="--runs", value=100001, family=None, record=None)  # over budget, bad instance
def test_cli_refuses_with_exit_2(tmp_path, capsys, flag, value, family, record):
    _write(tmp_path / "inst.json", family)
    _write(tmp_path / "inst.provenance.json", record)
    text = value if isinstance(value, str) else json.dumps(value)
    argv = [a.format(inst=tmp_path / "inst", value=text) if "{" in a else a
            for a in COMMANDS[flag]] + ["--out", str(tmp_path / "o.json")]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses a value with exit 2
        code = exc.code
    assert code == 2, capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
