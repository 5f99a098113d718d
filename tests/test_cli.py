import argparse
import filecmp
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import berrylab
from berrylab.bpe import BpeConfig
from berrylab.circuits import circuit_to_json_dict
from berrylab.cli import build_parser
from berrylab.corpus import (
    bqp_yes_circuit,
    duqma_yes_circuit,
    equatorial_loop,
    synthetic_verifier_instance,
)
from berrylab.dynamics import DEFAULT_OVERSAMPLING
from berrylab.hamiltonians import constant, cosine, make_family, save_family, sine
from berrylab.hardness import build_bqp_instance, build_duqma_instance, save_instance
from berrylab.verifier import VerifierConfig


def run_cli(*argv, env=None):
    cmd = [sys.executable, "-m", "berrylab.cli", *[str(a) for a in argv]]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    save_family(equatorial_loop(), str(d / "eq.json"))
    save_instance(synthetic_verifier_instance("yes"), str(d / "syn"))
    with open(d / "yes.circuit.json", "w") as fh:
        json.dump(circuit_to_json_dict(bqp_yes_circuit()), fh)
    with open(d / "duqma.circuit.json", "w") as fh:
        json.dump(circuit_to_json_dict(duqma_yes_circuit()), fh)
    return d


# -- oracle --------------------------------------------------------------------


def test_oracle_equatorial(work):
    out = work / "oracle.json"
    p = run_cli("oracle", "--instance", work / "eq.json", "--out", out)
    assert p.returncode == 0, p.stderr
    payload = json.loads(out.read_text())
    assert abs(payload["theta_B"] - math.pi) < 1e-4
    assert payload["converged"] is True
    assert payload["min_gap"] == pytest.approx(2.0, rel=1e-9)
    assert (work / "oracle.json.manifest.json").exists()
    assert (work / "oracle.json.sweep.csv").exists()


def test_oracle_reads_the_planar_loops_gap_on_its_wilson_grid(tmp_path):
    # The gap dips sharply: a 64-point scan reads 0.3168, the 256-point
    # Wilson grid 0.18859 and 4,096 points 0.1881.
    from berrylab import cli

    fam = make_family(1, [("Y", cosine(1, 0.5434)),
                          ("Z", cosine(3, 0.7312).add(cosine(3, 0.8438)).add(sine(3, 0.9108)))])
    save_family(fam, str(tmp_path / "planar.json"))
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle", "--instance", str(tmp_path / "planar.json"),
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["min_gap"] == pytest.approx(0.188, rel=0.01)


def test_oracle_on_an_instance_converges_relative_to_its_margin(tmp_path):
    from berrylab.hardness import build_bqp_instance

    instance = build_bqp_instance(bqp_yes_circuit())
    save_instance(instance, str(tmp_path / "bqp"))
    out = tmp_path / "oracle.json"
    p = run_cli("oracle", "--instance", tmp_path / "bqp", "--grid-size", 128,
                "--out", out)
    assert p.returncode == 0, p.stderr
    payload = json.loads(out.read_text())
    assert 1e-5 < payload["estimated_discretization_error"] <= instance.certified_delta / 10.0
    assert payload["converged"] is True


def test_oracle_manifest_golden(work):
    out = work / "oracle2.json"
    p = run_cli("oracle", "--instance", work / "eq.json", "--out", out)
    assert p.returncode == 0
    manifest = json.loads((work / "oracle2.json.manifest.json").read_text())
    assert manifest == {
        "command": "oracle",
        "package_version": berrylab.__version__,
        "parameters": {
            "instance": str(work / "eq.json"),
            "grid_size": 256,
            "sweep_grid": 33,
            "sweep_out": str(work / "oracle2.json.sweep.csv"),
            "out": str(out),
        },
        "seed": None,
    }


def test_oracle_rerun_bit_identical(work):
    a, b = work / "rep_a.json", work / "rep_b.json"
    assert run_cli("oracle", "--instance", work / "eq.json", "--out", a).returncode == 0
    assert run_cli("oracle", "--instance", work / "eq.json", "--out", b).returncode == 0
    assert a.read_text() == b.read_text()
    assert (work / "rep_a.json.sweep.csv").read_text() == (
        work / "rep_b.json.sweep.csv"
    ).read_text()


# -- error paths ---------------------------------------------------------------


def test_malformed_json_names_the_position(work, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    p = run_cli("oracle", "--instance", bad, "--out", tmp_path / "x.json")
    assert p.returncode == 2
    assert "line 1" in p.stderr


def test_unknown_family_record(work, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "mystery"}))
    p = run_cli("oracle", "--instance", bad, "--out", tmp_path / "x.json")
    assert p.returncode == 2


def test_missing_file(tmp_path):
    p = run_cli("oracle", "--instance", tmp_path / "nope.json", "--out", tmp_path / "x")
    assert p.returncode == 2
    assert "nope.json" in p.stderr


@pytest.mark.parametrize("case", ["whole", "split"])
def test_capacity_exit_code(tmp_path, case):
    # The split case is the compiled 6-qubit duqma-no family, which the sweep
    # solves by sectors: the budget holds there before any block is filled.
    import os

    from berrylab.corpus import duqma_no_circuit

    if case == "whole":
        fam = make_family(3, [("ZXI", constant(1.0)), ("IXZ", constant(0.4))])
        save_family(fam, str(tmp_path / "big.json"))
        instance, budget = tmp_path / "big.json", "2"
    else:
        save_instance(build_duqma_instance(duqma_no_circuit(), 0), str(tmp_path / "no"))
        instance, budget = tmp_path / "no", "5"
    env = dict(os.environ, BERRYLAB_MAX_QUBITS=budget)
    p = run_cli(
        "oracle", "--instance", instance, "--out", tmp_path / "o.json",
        env=env,
    )
    assert p.returncode == 3


def test_degenerate_family_exit_code(tmp_path):
    fam = make_family(2, [("ZI", constant(1.0))])
    save_family(fam, str(tmp_path / "deg.json"))
    p = run_cli(
        "oracle", "--instance", tmp_path / "deg.json", "--out", tmp_path / "o.json"
    )
    assert p.returncode == 4
    assert "degenerate" in p.stderr


def test_failed_sweep_leaves_no_csv(tmp_path):
    # H = cos(2 pi lambda) Z vanishes at lambda = 1/4, the second grid point.
    save_family(make_family(1, [("Z", cosine(1, 1.0))]), str(tmp_path / "cz.json"))
    out = tmp_path / "s.csv"
    p = run_cli("sweep", "--instance", tmp_path / "cz.json", "--grid-size", 4,
                "--out", out)
    assert p.returncode == 4, p.stderr
    assert not out.exists()


def test_verify_refuses_missing_threshold_before_any_work(tmp_path, monkeypatch):
    from berrylab import cli, verifier
    from berrylab.hardness import build_bqp_instance

    def engine(*args, **kwargs):
        raise AssertionError("BpeEngine built for an instance without E_th")

    monkeypatch.setattr(verifier, "BpeEngine", engine)
    instance = build_bqp_instance(bqp_yes_circuit())
    assert instance.E_th is None
    save_instance(instance, str(tmp_path / "bqp"))
    out = tmp_path / "o.json"
    rc = cli.main(["verify", "--instance", str(tmp_path / "bqp"), "--witness",
                   "history", "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("command, estimator", [("bpe", "run_bpe"), ("murta", "murta_bpe")])
def test_estimators_refuse_a_margin_below_epsilon_before_any_work(
    tmp_path, monkeypatch, command, estimator
):
    from berrylab import cli

    def fail(*args, **kwargs):
        raise AssertionError(f"{estimator} ran with eps_B >= 2 delta")

    monkeypatch.setattr(cli, estimator, fail)
    save_instance(synthetic_verifier_instance("yes", delta=0.3), str(tmp_path / "syn"))
    out = tmp_path / "o.json"
    rc = cli.main([command, "--instance", str(tmp_path / "syn"), "--epsilon-b", "0.6",
                   "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, estimator, flag", [
    (command, estimator, flag)
    for command, estimator in [("bpe", "run_bpe"), ("murta", "murta_bpe")]
    for flag in ["--epsilon-b", "--oversampling", "--runtime"]
])
def test_estimators_refuse_non_finite_flags_before_any_work(
    work, tmp_path, monkeypatch, command, estimator, flag, value
):
    from berrylab import cli

    def fail(*args, **kwargs):
        raise AssertionError(f"{estimator} ran with {flag} {value}")

    monkeypatch.setattr(cli, estimator, fail)
    rc = cli.main([command, "--instance", str(work / "eq.json"), f"{flag}={value}",
                   "--seed", "1", "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert not list(tmp_path.iterdir())


EXTREME_FLAGS = [
    *[(command, ["--epsilon-b", "1e-320"], 3) for command in ("bpe", "murta", "verify")],
    *[(command, [flag, value], 3) for command in ("bpe", "murta")
      for flag, value in [("--runtime", "1e308"), ("--oversampling", "1e12")]],
    *[(command, ["--eta", "1e-300", *runtime], 2) for command in ("bpe", "murta")
      for runtime in ([], ["--runtime", "50"])],
    # 4 pi / eps_B overflows to inf before the bit count's log
    ("bpe", ["--epsilon-b", "1e-308", "--runtime", "1"], 3),
    # alpha - 1 rounds to 0 here: the step budget refuses before 1/(alpha - 1)
    ("bpe", ["--runtime", "1e308", "--alpha-mode", "formula"], 3),
]


@pytest.mark.parametrize("command, flags, code", EXTREME_FLAGS,
                         ids=[" ".join([c, *f]) for c, f, _ in EXTREME_FLAGS])
def test_extreme_flags_are_refused(work, tmp_path, monkeypatch, capsys, command, flags, code):
    # A runtime, oversampling or eps_B needing more exact steps than
    # the budget exits 3, and an eta too small to split over four stages exits
    # 2 naming it, rather than ending in an OverflowError, a huge allocation or
    # a division by zero.
    from berrylab import cli, dynamics

    def spy(family, schedule):
        raise AssertionError(f"propagation started: {schedule}")

    if flags[0] != "--epsilon-b":  # that case calibrates before its floor overflows
        monkeypatch.setattr(dynamics, "_step_factors", spy)
    target = ["--instance", str(work / "eq.json")]
    if command == "verify":
        target = ["--instance", str(work / "syn"), "--witness", "ground"]
    rc = cli.main([command, *target, *flags, "--seed", "1",
                   "--out", str(tmp_path / "o.json")])
    assert rc == code
    err = capsys.readouterr().err
    assert ("per-run budget" if code == 3 else "eta=1e-300") in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["bpe", "murta"])
def test_a_ground_state_that_changes_sector_exits_4(tmp_path, capsys, command):
    # ZI's field changes sign off the gap grid, at lambda ~ 0.282: the ground
    # state leaves psi0's sector, which is all the estimators propagate.
    from berrylab import cli
    from berrylab.hamiltonians import TrigCoefficient

    fam = make_family(2, [("ZI", TrigCoefficient(0.1, ((1, 0.5),))),
                          ("IX", cosine(1, 1.0)), ("IY", sine(1, 1.0))])
    save_family(fam, str(tmp_path / "cross.json"))
    out = tmp_path / "o.json"
    rc = cli.main([command, "--instance", str(tmp_path / "cross.json"), "--seed", "1",
                   "--out", str(out)])
    assert rc == 4
    assert "leaves its sector at lambda=0.296875" in capsys.readouterr().err
    assert not out.exists()


def _verify_without_engine(tmp_path, monkeypatch, witness):
    from berrylab import cli, verifier

    def engine(*args, **kwargs):
        raise AssertionError("BpeEngine built")

    monkeypatch.setattr(verifier, "BpeEngine", engine)
    save_instance(synthetic_verifier_instance("yes", delta=0.3), str(tmp_path / "syn"))
    out = tmp_path / "o.json"
    rc = cli.main(["verify", "--instance", str(tmp_path / "syn"), "--witness", witness,
                   "--runs", "3", "--epsilon-b", "0.6", "--seed", "1", "--out", str(out)])
    return rc, out


def test_verify_refuses_a_margin_below_epsilon_before_the_engine(tmp_path, monkeypatch):
    # the exact ground state passes the energy gate, so a run reaches the
    # decision, whose margin cannot hold eps_B = 0.6 >= 2 * 0.3
    rc, out = _verify_without_engine(tmp_path, monkeypatch, "ground")
    assert rc == 2
    assert not out.exists()


def test_verify_builds_no_engine_when_every_run_fails_the_gate(tmp_path, monkeypatch):
    # the excited state fails the gate on every run: no decision is made,
    # so neither the engine nor the margin is needed
    rc, out = _verify_without_engine(tmp_path, monkeypatch, "excited:1")
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["energy_pass_rate"] == 0.0


def test_verify_builds_one_engine_across_blocks(work, tmp_path, monkeypatch):
    # 300 runs span two blocks, and the first passing run builds the one engine
    from berrylab import cli, verifier

    made = []

    class Counted(verifier.BpeEngine):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(verifier, "BpeEngine", Counted)
    rc = cli.main(["verify", "--instance", str(work / "syn"), "--witness", "ground",
                   "--runs", "300", "--seed", "2", "--out", str(tmp_path / "o.json")])
    assert rc == 0
    assert len(made) == 1


BAD_FAMILIES = {
    "terms-not-a-list": {"n_qubits": 1, "k_max": 1, "terms": 5},
    "nan-coefficient": {
        "n_qubits": 1,
        "k_max": 1,
        "terms": [{"pauli": "X", "coeff": {"const": float("nan")}}],
    },
    "harmonic-aliased-by-every-grid": {
        "n_qubits": 1,
        "k_max": 1,
        "terms": [
            {"pauli": "X", "coeff": {"cos": [[100_000_000, 1.0]]}},
            {"pauli": "Z", "coeff": {"const": 0.5}},
        ],
    },
    # Counts and harmonics that int() would coerce into a gapped family.
    "harmonic-not-an-integer": {
        "n_qubits": 1,
        "k_max": 1,
        "terms": [
            {"pauli": "X", "coeff": {"cos": [[1.5, 1.0]]}},
            {"pauli": "Z", "coeff": {"const": 0.5}},
        ],
    },
    "harmonic-true": {
        "n_qubits": 1,
        "k_max": 1,
        "terms": [
            {"pauli": "X", "coeff": {"cos": [[True, 1.0]]}},
            {"pauli": "Z", "coeff": {"const": 0.5}},
        ],
    },
    "n-qubits-string": {
        "n_qubits": "1",
        "k_max": 1,
        "terms": [
            {"pauli": "X", "coeff": {"cos": [[1, 1.0]]}},
            {"pauli": "Z", "coeff": {"const": 0.5}},
        ],
    },
    "k-max-true": {
        "n_qubits": 1,
        "k_max": True,
        "terms": [
            {"pauli": "X", "coeff": {"cos": [[1, 1.0]]}},
            {"pauli": "Z", "coeff": {"const": 0.5}},
        ],
    },
}


@pytest.mark.parametrize("record", BAD_FAMILIES.values(), ids=BAD_FAMILIES.keys())
@pytest.mark.parametrize("command", ["oracle", "bpe"])
def test_bad_family_file_exit_code(tmp_path, command, record):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(record))  # NaN is written as the literal NaN
    extra = ["--seed", 0] if command == "bpe" else []
    p = run_cli(command, "--instance", bad, *extra, "--out", tmp_path / "o.json")
    assert p.returncode == 2, p.stderr
    assert "Traceback" not in p.stderr
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--instance", "syn", "--witness", "ground", "--runs", 0],
        ["verify", "--instance", "syn", "--witness", "ground", "--runs", -3],
        ["bpe", "--instance", "eq.json", "--seed", -1],
        ["verify", "--instance", "syn", "--witness", "excited:x"],
        ["verify", "--instance", "syn", "--witness", "basis:2"],
        ["genhard", "--circuit", "duqma.circuit.json", "--kind", "duqma",
         "--witness", "x"],
        ["genhard", "--circuit", "yes.circuit.json", "--kind", "bqp",
         "--epsilon", 0.3, "--witness", 1],
        ["murta", "--instance", "eq.json", "--alpha-cap", 5, "--seed", 1],
        ["murta", "--instance", "eq.json", "--alpha-mode", "formula", "--seed", 1],
        ["bpe", "--instance", "eq.json", "--runtime", 50, "--oversampling", 1, "--seed", 1],
        ["murta", "--instance", "eq.json", "--runtime", 50, "--oversampling", 1, "--seed", 1],
    ],
    ids=["runs-0", "runs-negative", "seed-negative", "excited-not-int",
         "basis-not-bits", "genhard-witness-not-bits", "genhard-bqp-duqma-flags",
         "murta-alpha-cap", "murta-alpha-mode", "bpe-oversampling-1",
         "murta-oversampling-1"],
)
def test_bad_argument_exit_code(work, tmp_path, argv):
    argv = [work / a if a in ("syn", "eq.json", "yes.circuit.json", "duqma.circuit.json")
            else a for a in argv]
    if argv[0] == "verify":
        argv += ["--seed", 1]
    p = run_cli(*argv, "--out", tmp_path / "o.json")
    assert p.returncode == 2, p.stderr
    assert "Traceback" not in p.stderr
    assert not (tmp_path / "o.json").exists()


BAD_INPUTS = {
    "truncated-family": ({"eq.json": '{"n_qubits": 1, "terms": ['},
                         ["bpe", "--instance", "eq.json", "--seed", 1], 2),
    "family-with-string-coefficient": (
        {"eq.json": json.dumps({"n_qubits": 1, "k_max": 1,
                                "terms": [{"pauli": "X", "coeff": {"const": "1"}}]})},
        ["murta", "--instance", "eq.json", "--seed", 1], 2),
    "instance-with-bad-interval": (
        {"eq.json": "bqp.json", "eq.provenance.json": json.dumps({"kind": "bqp", "interval": 5})},
        ["bpe", "--instance", "eq", "--seed", 1], 2),
    "instance-without-threshold": (
        {"eq.json": "bqp.json", "eq.provenance.json": "bqp.provenance.json"},
        ["verify", "--instance", "eq", "--witness", "ground", "--seed", 1], 2),
    "oversampling-1e12": ({"eq.json": "eq.json"},
                          ["bpe", "--instance", "eq.json", "--oversampling", "1e12", "--seed", 1],
                          3),
    "runtime-1e308": ({"eq.json": "eq.json"},
                      ["murta", "--instance", "eq.json", "--runtime", "1e308", "--seed", 1], 3),
    "epsilon-b-1e-320": ({"eq.json": "eq.json"},
                         ["bpe", "--instance", "eq.json", "--epsilon-b", "1e-320", "--seed", 1],
                         3),
    "grid-size-huge": ({"eq.json": "eq.json"},
                       ["oracle", "--instance", "eq.json", "--grid-size", 10**12], 3),
    "sweep-grid-huge": ({"eq.json": "eq.json"},
                        ["oracle", "--instance", "eq.json", "--sweep-grid", 10**12], 3),
    # Refused before a seed is drawn for any of the 10^8 runs.
    "verify-runs-huge": ({"eq.json": "syn.json", "eq.provenance.json": "syn.provenance.json"},
                         ["verify", "--instance", "eq", "--witness", "ground",
                          "--runs", 10**8, "--seed", 1], 3),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_in_a_subprocess(work, tmp_path, name):
    # A typed exit, never a traceback or a crash below Python, in a fresh
    # interpreter.  A file given by name, not by its JSON text, is copied
    # from the shared fixtures.
    files, argv, code = BAD_INPUTS[name]
    if not (work / "bqp.json").exists():
        save_instance(build_bqp_instance(bqp_yes_circuit()), str(work / "bqp"))
    for fname, text in files.items():
        if not text.startswith("{"):
            text = (work / text).read_text()
        (tmp_path / fname).write_text(text)
    argv = [tmp_path / a if a in ("eq.json", "eq") else a for a in argv]
    p = run_cli(*argv, "--out", tmp_path / "o.json")
    assert p.returncode == code, (p.returncode, p.stderr)
    assert "Traceback" not in p.stderr
    assert not (tmp_path / "o.json").exists()


# -- manifests -------------------------------------------------------------------


def _flags(command):
    """Dests of every option the subcommand's parser defines."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions
            if a.option_strings and a.dest != "help"}


@pytest.mark.parametrize("command", ["sweep", "genhard", "verify"])
def test_manifest_records_every_flag(work, command):
    out = work / f"manifest_{command}"
    argv = {
        "sweep": ["--instance", work / "eq.json", "--grid-size", 5],
        "genhard": ["--circuit", work / "yes.circuit.json", "--kind", "bqp",
                    "--idle-steps", 2],
        "verify": ["--instance", work / "syn", "--witness", "ground",
                   "--runs", 2, "--seed", 4],
    }[command]
    p = run_cli(command, *argv, "--out", out)
    assert p.returncode == 0, p.stderr
    manifest = json.loads((work / f"manifest_{command}.manifest.json").read_text())
    assert manifest["command"] == command
    assert set(manifest["parameters"]) == _flags(command) - {"seed"}
    assert manifest["parameters"]["out"] == str(out)
    assert manifest["seed"] == (4 if command == "verify" else None)
    if command == "verify":
        rates = manifest["parameters"]["rates_csv"]
        assert rates == f"{out}.rates.csv"
        assert (work / f"manifest_{command}.rates.csv").exists()
    if command == "genhard":
        assert manifest["parameters"]["r"] is None
        assert manifest["parameters"]["idle_steps"] == 2


@pytest.mark.parametrize("command", ["bpe", "murta", "verify"])
def test_flag_defaults_are_the_config_defaults(command):
    witness = ["--witness", "ground"] if command == "verify" else []
    args = build_parser().parse_args(
        [command, "--instance", "x", *witness, "--seed", "1", "--out", "o.json"])
    bpe = BpeConfig()
    assert (args.epsilon_b, args.eta) == (bpe.epsilon_B, bpe.eta)
    if command == "verify":
        assert args.soundness_delta == VerifierConfig().soundness_delta
    else:
        assert (args.runtime, args.oversampling) == (bpe.T, bpe.oversampling)
        assert bpe.oversampling == DEFAULT_OVERSAMPLING
    if command == "bpe":
        assert args.alpha_mode == bpe.alpha_mode


# -- bpe / murta ------------------------------------------------------------------


def test_bpe_equatorial_and_determinism(work):
    a, b = work / "bpe_a.json", work / "bpe_b.json"
    pa = run_cli("bpe", "--instance", work / "eq.json", "--seed", 11, "--out", a)
    assert pa.returncode == 0, pa.stderr
    pb = run_cli("bpe", "--instance", work / "eq.json", "--seed", 11, "--out", b)
    assert pb.returncode == 0
    assert a.read_text() == b.read_text()
    payload = json.loads(a.read_text())
    assert abs(payload["theta_B_hat"] - math.pi) <= 0.05
    assert json.loads((work / "bpe_a.json.manifest.json").read_text())["seed"] == 11


def test_murta_subcommand(work):
    out = work / "murta.json"
    p = run_cli("murta", "--instance", work / "eq.json", "--seed", 0, "--out", out)
    assert p.returncode == 0, p.stderr
    payload = json.loads(out.read_text())
    est = payload["theta_B_hat"]
    assert min(est, 2 * math.pi - est) <= 0.1  # aliased to 0, not pi


@pytest.mark.parametrize("command", ["bpe", "murta"])
def test_short_runtime_is_flagged_not_refused(work, tmp_path, command):
    # T = 5 lies far below the equatorial loop's phase-lag floor of 394.8:
    # the run exits 0, and the payload and stderr say so.
    out = tmp_path / "short.json"
    p = run_cli(command, "--instance", work / "eq.json", "--runtime", 5, "--seed", 1,
                "--out", out)
    assert p.returncode == 0, p.stderr
    payload = json.loads(out.read_text())
    assert payload["T"] == 5.0
    assert payload["T_phase_floor"] == pytest.approx(394.78, abs=0.01)
    assert len(payload["warnings"]) == 1 and "phase-lag floor" in payload["warnings"][0]
    assert "warning: runtime T=5 is below the phase-lag floor" in p.stderr
    # a calibrated run keeps its payload's keys
    p = run_cli(command, "--instance", work / "eq.json", "--seed", 1, "--out", out)
    assert p.returncode == 0, p.stderr
    assert not {"T_phase_floor", "warnings"} & json.loads(out.read_text()).keys()
    assert "warning" not in p.stderr


@pytest.fixture(scope="module")
def duqma_yes(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("duqma") / "duqma-yes"
    save_instance(build_duqma_instance(duqma_yes_circuit(), 0), str(prefix))
    return prefix


def test_bpe_decides_duqma_yes_at_half_the_promise_gap(duqma_yes, tmp_path):
    # epsilon_B = 5e-6 < delta/2 = 5.016e-6 needs m = 24 readout bits
    from berrylab import cli

    out = tmp_path / "bpe.json"
    rc = cli.main(["bpe", "--instance", str(duqma_yes), "--epsilon-b", "5e-6",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["decision"] == 1
    assert payload["m"] == 24


# SHA-256 of the payload and the manifest of each estimator run at --seed 7,
# run from the inputs' directory so that the manifest's paths are relative.
# The cases take every payload field: the decision and oracle_theta_B
# (bqp-yes), the short-runtime warning and T_phase_floor (--runtime 64),
# murta's doubled phase, and its decision (syn-yes).  bqp-yes's payload was
# recorded again for the counter-based streams; the other estimates' circular
# medians land on the same readouts.
PINNED_ESTIMATE = {
    ("bpe", "eq.json", ()): (
        "1b3129c270d857c6833c2d54791b80d56ce14546b70ff186dd25eab628489648",
        "d5549d5e11728e7f72bbee255546131840bc74b4f9d1f11ccd6d700600ed036c"),
    ("bpe", "bqp-yes", ()): (
        "cc9d503c6af0deee4edcc5255bcdb6da80df099e79600ae165a8fe8f20024fb0",
        "cb45d9a4b5ca684e7c7b393d32fe7722667eb80637fa6145009ab5bf339dba0e"),
    ("bpe", "eq.json", ("--runtime", "64")): (
        "93fe8d4801c2a451845bab4170eff20bddabe5d52fe53a9b708a84e10644136c",
        "28923fac891e30ebfd20b554b81269e48f02578f5e7edcd171642137548318ae"),
    ("murta", "eq.json", ()): (
        "695fb3331cbad30bdf7454ebb7187f4c6675a7fe7de8f9732df0c29df489927a",
        "e597dbe2ae9c3fc6321bd96c0f012627983d06120eeeb88ac73c2d462315695c"),
    ("murta", "syn-yes", ()): (
        "648fc49c044e01463c0026e0d62b5db01c7acba4410aa0280548736d0d9c28b9",
        "f4817fb87de14ab8b62de7bdec1f27fd46e0c2a778d5ab9a4d40acc8315b4263"),
}


@pytest.mark.parametrize("case", PINNED_ESTIMATE, ids=lambda c: " ".join([c[0], c[1], *c[2]]))
def test_estimate_bytes_are_pinned(tmp_path, monkeypatch, case):
    from berrylab import cli

    command, target, flags = case
    monkeypatch.chdir(tmp_path)
    if target == "eq.json":
        save_family(equatorial_loop(), target)
    elif target == "bqp-yes":
        save_instance(build_bqp_instance(bqp_yes_circuit()), target)
    else:
        save_instance(synthetic_verifier_instance("yes"), target)
    rc = cli.main([command, "--instance", target, *flags, "--seed", "7", "--out", "o.json"])
    assert rc == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("o.json", "o.json.manifest.json"))
    assert digests == PINNED_ESTIMATE[case]


# -- genhard ------------------------------------------------------------------------


def test_genhard_bqp_round_trip(work):
    p = run_cli(
        "genhard", "--circuit", work / "yes.circuit.json", "--kind", "bqp",
        "--idle-steps", 2, "--out", work / "ghy",
    )
    assert p.returncode == 0, p.stderr
    prov = json.loads((work / "ghy.provenance.json").read_text())
    assert 0.0 < prov["oracle_theta_B"] <= math.pi / 2.0
    from berrylab.hardness import load_instance

    inst = load_instance(str(work / "ghy"))
    assert inst.kind == "bqp"
    assert inst.circuit is not None


def test_genhard_duqma_needs_witness(work):
    p = run_cli(
        "genhard", "--circuit", work / "duqma.circuit.json", "--kind", "duqma",
        "--out", work / "ghd",
    )
    assert p.returncode == 2
    assert "witness" in p.stderr.lower()


def test_genhard_refuses_a_non_integer_output_qubit(work, tmp_path):
    # int() read `true` as qubit 1 and compiled a different instance
    record = {**circuit_to_json_dict(bqp_yes_circuit()), "output1_qubit": True}
    circuit = tmp_path / "bool.circuit.json"
    circuit.write_text(json.dumps(record))
    p = run_cli("genhard", "--circuit", circuit, "--kind", "bqp", "--out", tmp_path / "g")
    assert p.returncode == 2, p.stderr
    assert "Traceback" not in p.stderr
    assert not (tmp_path / "g.json").exists()


def test_genhard_refuses_oversized_r(work):
    p = run_cli(
        "genhard", "--circuit", work / "yes.circuit.json", "--kind", "bqp",
        "--idle-steps", 2, "--r", 0.9, "--out", work / "ghbad",
    )
    assert p.returncode == 2
    assert "gap" in p.stderr


GENHARD_NON_FINITE = [
    (["--kind", "bqp", "--r", "nan"], "yes", "error: r must"),
    (["--kind", "duqma", "--witness", "0", "--epsilon", "nan"], "duqma", "epsilon"),
    (["--kind", "duqma", "--witness", "0", "--r", "inf"], "duqma", "error: r must"),
]


@pytest.mark.parametrize("flags, circuit, named", GENHARD_NON_FINITE,
                         ids=[" ".join(f) for f, _, _ in GENHARD_NON_FINITE])
def test_genhard_refuses_a_non_finite_strength_by_name(work, tmp_path, capsys, flags, circuit,
                                                       named):
    # r and epsilon are refused by name, before make_family or the quarter-gap
    # warning sees a NaN or an infinity
    from berrylab import cli

    rc = cli.main(["genhard", "--circuit", str(work / f"{circuit}.circuit.json"), *flags,
                   "--out", str(tmp_path / "g")])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and "constant term" not in err and "quarter" not in err
    assert not list(tmp_path.iterdir())


# -- verify ---------------------------------------------------------------------------


def test_verify_on_synthetic_instance(work):
    out = work / "verify.json"
    p = run_cli(
        "verify", "--instance", work / "syn", "--witness", "ground",
        "--runs", 10, "--seed", 5, "--out", out,
    )
    assert p.returncode == 0, p.stderr
    payload = json.loads(out.read_text())
    assert payload["accept_rate"] == 1.0
    assert payload["energy_pass_rate"] == 1.0
    assert len(payload["runs"]) == 10
    assert (work / "verify.json.rates.csv").exists()


@pytest.mark.parametrize("rates", ["o.json", "o.json.manifest.json", "sub/../o.json"])
def test_verify_refuses_a_rates_csv_on_another_output(work, tmp_path, capsys, rates):
    # The CSV would overwrite the payload or its manifest after "wrote" was
    # printed; the clash is refused before any run, and nothing is written.
    from berrylab import cli

    (tmp_path / "sub").mkdir()
    rc = cli.main(["verify", "--instance", str(work / "syn"), "--witness", "ground",
                   "--rates-csv", str(tmp_path / rates), "--seed", "1",
                   "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "--rates-csv" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


def test_verify_history_witness_accepts_duqma_yes(duqma_yes, tmp_path):
    from berrylab import cli

    out = tmp_path / "verify.json"
    rc = cli.main(["verify", "--instance", str(duqma_yes), "--witness", "history:0",
                   "--epsilon-b", "5e-6", "--runs", "50", "--seed", "2", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["accept_rate"] == 1.0


def test_verify_rerun_bit_identical(work):
    a, b = work / "ver_a.json", work / "ver_b.json"
    for out in (a, b):
        p = run_cli(
            "verify", "--instance", work / "syn", "--witness", "ground",
            "--runs", 5, "--seed", 9, "--out", out,
        )
        assert p.returncode == 0
    assert a.read_text() == b.read_text()


# SHA-256 of the payload and the rates CSV of `verify --runs 300 --seed 12`,
# recorded before the runs went through as arrays.  The payload digests were
# recorded again for the compact JSON writer, on payloads that parse equal to
# the indented ones, and the first three again for the counter-based streams,
# which move every coin and off-grid readout.  Together the cases take every
# decision: certain acceptance, the interval coin, the energy-fail coin and
# the saturated reject; 300 runs cross a block boundary.
PINNED_VERIFY = {
    ("syn-yes", "ground", ()): (
        "e1ae5cae73360e3fe777ee9fc792d1b30d6051a93ade82ec474e7a49f8b0d2dc",
        "8a141864c967ced43bc4833221041a6365f2c88e23bfa246bb77a10ae8383ff2"),
    ("syn-no", "ground", ()): (
        "b891ec9a36af9f80e01cf033b6e4a31bce3145823d4c954cba519016c47ef4a0",
        "ee702817275cab6107a055796036a2826fd56327629a5dca0e7a16803c0a3a6e"),
    ("syn-yes", "excited:1", ()): (
        "618383a75bc394636be98e1c72b2346829065b9e283f6a3944b1408b41b875c0",
        "d2c966da90a2b7a64c5e5d29df04772f4b0b9176281ca2dd9faa41306a3dd7b8"),
    ("syn-yes", "excited:1", ("--soundness-delta", "0.3333333333333333")): (
        "d66e6118f5c0f1a1ffcd0cda73645c1bb54cef5130ada9bf71e74bc103e37ec8",
        "6a23d40b8c05a9d8ac8744771534c98fc98301e1c985f32578138d5d57f04b16"),
}


@pytest.mark.parametrize("case", PINNED_VERIFY, ids=lambda c: " ".join([c[0], c[1], *c[2]]))
def test_verify_bytes_are_pinned(tmp_path, case):
    from berrylab import cli

    name, witness, flags = case
    save_instance(synthetic_verifier_instance(name.removeprefix("syn-")), str(tmp_path / name))
    out = tmp_path / "o.json"
    rc = cli.main(["verify", "--instance", str(tmp_path / name), "--witness", witness,
                   "--runs", "300", "--seed", "12", *flags, "--out", str(out)])
    assert rc == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (out, tmp_path / "o.json.rates.csv"))
    assert digests == PINNED_VERIFY[case]


def test_verify_excited_witness_rejects_often(work):
    out = work / "verify_exc.json"
    p = run_cli(
        "verify", "--instance", work / "syn", "--witness", "excited:1",
        "--runs", 20, "--seed", 7, "--out", out,
    )
    assert p.returncode == 0, p.stderr
    payload = json.loads(out.read_text())
    assert payload["energy_pass_rate"] == 0.0
    assert payload["accept_rate"] <= 0.5


# -- sweep -----------------------------------------------------------------------------


def test_sweep_csv_shape(work):
    out = work / "sweep.csv"
    p = run_cli("sweep", "--instance", work / "eq.json", "--grid-size", 9, "--out", out)
    assert p.returncode == 0, p.stderr
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "lambda"
    assert len(lines) == 10  # header + 9 grid points
