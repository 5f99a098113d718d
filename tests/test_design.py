"""Design guards: solver call sites, settings and the package root.

Every spectrum along the loop, the eigensystem of a loop unitary in ``qpe``
and the accept operator's spectrum in ``hardness`` come from the one
Hermitian block solver in ``exact``, whose ``np.linalg.eigh`` is the lab's
only solve, and its blocks come from one place: a family's sectors.  A new
solver call site, a second block finder, a second gap scan of one loop, a
new reader of dense eigenvectors or a second check of a state's norm shows up here before it can fork the
numerics or the memory of a scan, and so does a module
reaching into another's private names beyond a short list, or a branch on
a lambda-independent family outside ``hamiltonians``, or a second path that
builds loop propagators of one step count from a sweep each.  Every
refinement ladder, the estimators' step check and runtime calibration, runs
on ``exact.refine``, and no ``while`` loop but two that are not ladders is
left, so a third hand-written ladder shows up here.  The step budget is
one bound, defined once in ``exact`` and checked where the work is sized:
by ``step_count`` and by the estimators' checked build.  Nothing
in the package spawns a SeedSequence or makes a numpy generator or bit
generator, since every stream is a pure function of its key, so numpy's
seeding cannot come back unseen; nor can per-run seeding, since the
verifier and the CLI build no seed tuple per run: verify's runs are one
SeedWords array of keys.  The CLI loads no scipy module and no
importlib.metadata, neither on import nor while it runs.  The fields of the
configuration classes, of the instance record, of the energy distribution
and of the QPE distribution are pinned, and so are the flags of ``oracle``,
the estimators and ``verify``.  The verifier builds its outcome at one site,
the estimators write their payload at one site, verify's runs are spelled
only in the verifier, a transcript step's keys only in
``VerifierOutcome.to_json_dict``, and written in one call, every interval decision is
``decide_interval``'s, and the package root re-exports nothing, so a new setting, a value kept
twice or a second import path for a name shows up here too.  A QPE
distribution draws readouts at the top bit count in well under a megabyte.
The benchmark's tracer still binds every function it lists, so a rename
that would stop a traced pass shows up here as well.
"""

import argparse
import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

import berrylab
from berrylab import hardness
from berrylab.bpe import BpeConfig
from berrylab.cli import build_parser
from berrylab.dynamics import AdiabaticSchedule
from berrylab.qpe import MAX_PHASE_BITS, QpeDistribution, distribution_from_phases, sample_outcomes
from berrylab.verifier import EnergyDistribution, VerifierConfig

SOLVERS = {"eig", "eigh", "eigvals", "eigvalsh", "eigsh", "eigs", "schur"}


def _dotted(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _call_sites(tails, kind=ast.Call, keyword=None) -> Counter:
    """(module, outermost enclosing function or None, dotted name) of every
    call, or with ``kind=ast.Attribute`` every attribute read, whose name
    ends in one of ``tails``; with a keyword, only the calls passing it."""
    sites = Counter()
    for path in sorted(Path(berrylab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # outer functions come first
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn) if node not in owner)
        for node in ast.walk(tree):
            if isinstance(node, kind):
                name = _dotted(node.func if kind is ast.Call else node)
                if name is not None and name.rsplit(".", 1)[-1] in tails and (
                        keyword is None or keyword in {k.arg for k in node.keywords}):
                    sites[(path.stem, owner.get(node), name)] += 1
    return sites


def _solver_sites() -> Counter:
    sites = Counter()
    for (module, _, name), count in _call_sites(SOLVERS).items():
        sites[(module, name)] += count
    return sites


def test_eigensolver_call_sites():
    assert _solver_sites() == {("exact", "np.linalg.eigh"): 1}


def test_block_solver_call_sites():
    # A family's sectors are the one block structure, and only exact looks
    # them up: the sweep, and ground_sector, which names a state's sector.
    # The estimators' loop unitaries are psi0's sector's already, so qpe
    # solves a unitary, like the accept operator, as one block.  A second block finder would
    # show up here.
    assert _call_sites({"eigh_blocks", "_sectors_for"}) == {
        ("exact", "spectra", "_sectors_for"): 1,
        ("exact", "ground_sector", "_sectors_for"): 1,
        ("qpe", "unitary_eigensystem", "eigh_blocks"): 2,
        ("hardness", "accept_operator_spectrum", "eigh_blocks"): 1,
    }


def test_sector_call_sites():
    # Only exact computes sector labels; the estimators' set-up takes psi0's
    # sector from ground_sector and hands it to calibration.  Only these
    # propagate in a sector: the engine's legs, murta's and calibration's
    # state; the rest is dynamics handing it down to the sweep.  The gap scan
    # alone checks that the ground state stays in psi0's sector (ground_in),
    # solving the whole family.  A whole-space propagation creeping back into
    # the estimator, or a second sector finder, would show up here.
    assert _call_sites({"_find_sectors", "_blocks"}) == {
        ("exact", "_sectors_for", "_find_sectors"): 1,
        ("exact", "_find_sectors", "_blocks"): 1,
    }
    assert _call_sites({"ground_sector"}) == {
        ("bpe", "_resolve_runtime", "ground_sector"): 1,
    }
    propagators = {"spectra", "_step_factors", "loop_propagators", "loop_propagator",
                   "adiabatic_propagate", "min_gap", "sweep"}
    assert _call_sites(propagators, keyword="ground_in") == {
        ("bpe", "_resolve_runtime", "min_gap"): 1,
        ("exact", "min_gap", "sweep"): 1,
    }
    assert _call_sites(propagators, keyword="sector") == {
        ("bpe", "_pair", "loop_propagator"): 2,
        ("bpe", "_pair", "loop_propagators"): 1,
        ("bpe", "murta_bpe", "loop_propagators"): 1,
        ("dynamics", "loop_infidelity", "adiabatic_propagate"): 1,
        ("dynamics", "_step_factors", "spectra"): 1,
        ("dynamics", "adiabatic_propagate", "_step_factors"): 1,
        ("dynamics", "loop_propagators", "_step_factors"): 1,
        ("dynamics", "loop_propagator", "loop_propagators"): 1,
    }


def test_dense_eigenvector_call_sites():
    # A sweep hands out its eigenvectors in the blocks it solved them in, and
    # the scans along the loop read ground states from there.  Only these
    # form a chunk's dense stack: the step kernel, a loop unitary's
    # eigensystem and a slice's eigenvectors, which the verifier, the excited
    # witness, the perturbative connection and the residual read; the
    # phase-lag scan reads the ground state's block.  A scan that starts
    # forming dense stacks shows up here.
    assert _call_sites({"dense"}) == {
        ("exact", "eigenvectors", "self.blocks.dense"): 1,
        ("dynamics", "_step_factors", "blocks.dense"): 1,
    }
    assert _call_sites({"eigenvectors"}, ast.Attribute) == {
        ("exact", "residual", "self.eigenvectors"): 1,
        ("exact", "berry_connections_perturbative", "base.eigenvectors"): 1,
        ("verifier", "energy_distribution", "s.eigenvectors"): 1,
        ("cli", "_resolve_witness", "s.eigenvectors"): 2,
    }


# Private names one module may import from another: the group entries exact
# fills its stacks from and the shared JSON validators.  Only exact sizes a
# sweep's chunks; phase_lag_scale takes them as the sweep hands them out.
SHARED_PRIVATE = {
    ("hamiltonians", "_actions_for"), ("hamiltonians", "_group_entries"),
    ("hamiltonians", "_json_int"), ("hamiltonians", "_json_float"),
}


def test_no_module_imports_another_modules_private_names():
    reach_ins = [
        (path.stem, node.module, alias.name)
        for path in sorted(Path(berrylab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
        and (node.module, alias.name) not in SHARED_PRIVATE
    ]
    assert reach_ins == []


def test_unit_state_call_sites():
    # A state handed to the lab (a witness, a guiding state, a QPE input) is
    # checked once, by StateVector's constructor, through unit_amplitudes.
    # A second norm test, one that NaN slips through, would show up here.
    assert _call_sites({"unit_amplitudes"}) == {
        ("bpe", "_resolve_runtime", "unit_amplitudes"): 1,
        ("qpe", "distribution_for_loop", "unit_amplitudes"): 1,
        ("verifier", "energy_distribution", "unit_amplitudes"): 1,
        ("verifier", "run_verifier", "unit_amplitudes"): 1,
        ("circuits", "initial_system_state", "unit_amplitudes"): 1,
    }


def test_loop_propagator_call_sites():
    # Legs of one step count are built from one sweep: murta's two legs, and
    # the engine's alpha leg with the next level's T leg, all in psi0's
    # sector (test_sector_call_sites).  The engine builds a leg alone
    # otherwise: near the cap, in formula mode, or for its first T leg.  A
    # second per-schedule sweep path would show up here.
    assert _call_sites({"loop_propagator", "loop_propagators"}) == {
        ("bpe", "_pair", "loop_propagator"): 2,
        ("bpe", "_pair", "loop_propagators"): 1,
        ("bpe", "murta_bpe", "loop_propagators"): 1,
        ("dynamics", "loop_propagator", "loop_propagators"): 1,
        ("dynamics", "controlled_power_apply", "loop_propagator"): 1,
        ("qpe", "distribution_for_loop", "loop_propagator"): 1,
    }


def test_one_refinement_ladder():
    # The step check and calibration measure their levels through refine, the
    # one ladder.  The only while loops are the pairwise step product and the
    # sector finder's label propagation, neither a ladder: a doubling search
    # written by hand shows up as a third.
    assert _call_sites({"refine"}) == {
        ("bpe", "_checked_build", "refine"): 1,
        ("dynamics", "calibrate_runtime", "refine"): 1,
    }
    loops = Counter()
    for path in sorted(Path(berrylab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in tree.body:
            loops.update((path.stem, getattr(fn, "name", None))
                         for node in ast.walk(fn) if isinstance(node, ast.While))
    assert loops == {("dynamics", "loop_propagators"): 1, ("exact", "_blocks"): 1}


def test_one_step_budget():
    # One bound on an estimator run's eigensolves, assigned once, in exact:
    # step_count holds a schedule to it, and so calibration's doubling, and
    # _checked_build holds the estimators' legs at the cap to it.  A second
    # budget constant or a copied check would show up here.
    assert _call_sites({"check_step_budget"}) == {
        ("dynamics", "step_count", "check_step_budget"): 1,
        ("bpe", "_checked_build", "check_step_budget"): 1,
    }
    assigned = Counter(
        (path.stem, target.id)
        for path in sorted(Path(berrylab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
        and target.id.startswith("MAX_") and target.id.endswith(("STEPS", "POINTS"))
    )
    assert assigned == {("exact", "MAX_TOTAL_STEPS"): 1}


def test_gap_scan_call_sites():
    # The Wilson loop reads the minimum gap from the slices it solves, so
    # oracle and the instance builders make no scan of their own; only the
    # estimator's runtime choice, the random corpus and the adiabatic bound
    # scan the gap.  A second scan of one loop would show up here.
    assert _call_sites({"min_gap"}) == {
        ("bpe", "_resolve_runtime", "min_gap"): 1,
        ("corpus", "random_gapped_family", "min_gap"): 1,
        ("dynamics", "required_runtime", "min_gap"): 1,
    }


def test_lambda_independence_call_sites():
    # A lambda-independent loop takes the one step rule, the step check and
    # the phase-lag scan like any other, so no module branches on it; only
    # a coefficient's constant fast path and the family's own test read it.
    assert _call_sites({"is_constant"}) == {
        ("hamiltonians", "values", "self.is_constant"): 1,
        ("hamiltonians", "is_constant", "c.is_constant"): 1,
    }


def test_seeding_call_sites():
    # Nothing spawns, and no numpy generator or bit generator is made: every
    # stream comes from qpe.stream_uniforms, a pure function of its keys.
    assert _call_sites({"spawn", "default_rng", "Generator", "SeedSequence", "RandomState",
                        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}) == {}


def test_runs_are_seeded_as_arrays():
    # verify's runs are one SeedWords array, the run index mixed into the
    # key of --seed, and run_verifier reads SeedWords in blocks: neither
    # module keys seeds elsewhere or builds a seed per run in a comprehension.
    sites = _call_sites({"seed_words"})
    assert {site: n for site, n in sites.items() if site[0] in ("verifier", "cli")} == {
        ("cli", "cmd_verify", "seed_words"): 1,
        ("verifier", "run_verifier", "seed_words"): 1,
    }
    comprehensions = (ast.GeneratorExp, ast.ListComp, ast.SetComp)
    for module in ("verifier", "cli"):
        tree = ast.parse((Path(berrylab.__file__).parent / f"{module}.py").read_text())
        per_run = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, comprehensions)
                   and any(isinstance(part, ast.Tuple) for part in ast.walk(node.elt))]
        assert per_run == [], module


def test_configuration_fields():
    assert [f.name for f in fields(BpeConfig)] == [
        "epsilon_B", "eta", "alpha_mode", "T", "oversampling"
    ]
    assert [f.name for f in fields(VerifierConfig)] == ["soundness_delta", "bpe"]
    assert [f.name for f in fields(AdiabaticSchedule)] == ["T", "steps", "direction"]


def test_cli_flags():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {command: [o for a in sub.choices[command]._actions for o in a.option_strings]
             for command in ("oracle", "bpe", "murta", "verify")}
    estimator = ["-h", "--help", "--instance", "--epsilon-b", "--eta", "--runtime",
                 "--oversampling"]
    assert flags == {
        "oracle": ["-h", "--help", "--instance", "--grid-size", "--sweep-grid", "--sweep-out",
                   "--out"],
        "bpe": [*estimator, "--alpha-mode", "--seed", "--out"],
        "murta": [*estimator, "--seed", "--out"],
        "verify": ["-h", "--help", "--instance", "--witness", "--runs", "--epsilon-b", "--eta",
                   "--soundness-delta", "--rates-csv", "--seed", "--out"],
    }


def test_instance_fields():
    # kind, r, E_th and the interval are read from the provenance, not kept twice
    assert [f.name for f in fields(hardness.HardnessInstance)] == [
        "family", "circuit", "provenance", "warnings"
    ]


def test_energy_distribution_fields():
    # m is the distribution's own m; the ground energy is read by nothing
    assert EnergyDistribution._fields == ("distribution", "tau", "delta_min")


def test_qpe_distribution_is_its_spectral_mixture():
    # no outcome table: the eigenphases and weights are the distribution
    assert [f.name for f in fields(QpeDistribution)] == [
        "m", "phases", "weights", "max_weight", "low_fidelity"
    ]


def test_top_bit_count_samples_in_small_memory():
    # 1,000 readouts at m = MAX_PHASE_BITS over 128 components: a table of
    # 2^m outcomes would need 2 PB, the readouts need well under 1 MB
    import tracemalloc

    import numpy as np

    rng = np.random.default_rng(48)
    weights = rng.random(128)
    tracemalloc.start()
    try:
        dist = distribution_from_phases(rng.uniform(-3.0, 3.0, 128), weights / weights.sum(),
                                        MAX_PHASE_BITS)
        draws = sample_outcomes(dist, 1000, rng.random((1000, MAX_PHASE_BITS + 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.shape == (1000,) and 0 <= draws.min() and draws.max() < 2**MAX_PHASE_BITS
    assert peak < 1 << 20, peak


def test_one_verifier_outcome_site():
    # run_verifier makes one decision and builds its outcome in one place
    sites = [
        (path.stem, node.lineno)
        for path in sorted(Path(berrylab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _dotted(node.func) == "VerifierOutcome"
    ]
    assert len(sites) == 1, sites


def test_run_records_are_spelled_only_in_verifier():
    # verify's runs leave as verifier.runs_json's text, from templates dumped
    # from a record, so cli spells no run-record key.  The estimator body and
    # commands are the exception: their payload shares names with the
    # phase-estimation step.  cmd_verify writes its payload in one call.
    def functions(module):
        tree = ast.parse((Path(berrylab.__file__).parent / f"{module}.py").read_text())
        return {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}, tree

    verifier, _ = functions("verifier")
    keys = {key.value for name in ("to_json_dict", "run_verifier")
            for node in ast.walk(verifier[name]) if isinstance(node, ast.Dict)
            for key in node.keys if isinstance(key, ast.Constant)}
    assert {"energy_pass", "transcript", "coin", "in_yes_interval", "threshold"} <= keys
    cli, tree = functions("cli")
    estimators = {node for name in ("_estimate", "cmd_bpe", "cmd_murta")
                  for node in ast.walk(cli[name])}
    spelled = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
               and node not in estimators and node.value in keys}
    assert spelled == set()
    writes = [node for node in ast.walk(cli["cmd_verify"])
              if isinstance(node, ast.Call) and _dotted(node.func) == "_write_json"]
    assert len(writes) == 1


def test_record_keys_are_spelled_only_in_to_json_dict():
    # A run record's layout is spelled once: runs_json templates from
    # VerifierOutcome.to_json_dict, and run_verifier hands it values, not
    # dicts.  So no other verifier code names a key of a transcript step, as
    # a string or a keyword, and no copy of a record is made.
    tree = ast.parse(Path(berrylab.__file__).with_name("verifier.py").read_text())
    to_json = next(fn for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "to_json_dict")
    inside = set(ast.walk(to_json))
    record = next(node.value for node in inside if isinstance(node, ast.Return))
    steps = {key.value for node in inside if isinstance(node, ast.Dict) and node is not record
             for key in node.keys if isinstance(key, ast.Constant)}
    assert {"threshold", "theta_D_hat", "in_yes_interval", "coin"} <= steps
    named = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and node not in inside} | {node.arg for node in ast.walk(tree)
                                        if isinstance(node, ast.keyword)}
    assert named & steps == set()
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "copy" not in imported


def test_one_interval_decision():
    # Every interval decision, the CLI's and the verifier's, is
    # decide_interval's test: no other site builds the promise arc.
    assert _call_sites({"WrappedInterval"}) == {("bpe", "decide_interval", "WrappedInterval"): 1}


def test_one_estimator_payload_site():
    # bpe and murta write their payload from one body in cli, which decides
    # the interval and writes the payload and the manifest; each command
    # only runs its estimator and adds its own fields.
    tree = ast.parse(Path(berrylab.__file__).with_name("cli.py").read_text())
    calls = {fn.name: {_dotted(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}
             for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    bodies = [name for name, called in calls.items() if "decide_interval" in called]
    assert len(bodies) == 1, bodies
    assert {"BpeConfig", "_write_json", "_write_manifest"} <= calls[bodies[0]]
    for command in ("cmd_bpe", "cmd_murta"):
        assert bodies[0] in calls[command]
        assert not {"BpeConfig", "decide_interval", "_write_json", "_write_manifest"} & calls[command]


def test_package_root_has_no_relative_import():
    tree = ast.parse(Path(berrylab.__file__).read_text())
    relative = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert relative == []


def test_cli_import_loads_no_sparse_module(tmp_path):
    # The lab runs on numpy alone: scipy (its sparse module and csgraph, or
    # its linalg) would add to every command's start-up and memory, and so
    # would importlib.metadata, with the email and zipfile modules it pulls
    # in; the package version is a literal.  Checked after the import,
    # and again after bpe, murta and verify run in process.
    import subprocess
    import sys

    code = """if True:
        import sys, berrylab.cli
        from berrylab import corpus, hamiltonians, hardness
        def loaded():
            return sorted(m for m in sys.modules
                          if m.split(".")[0] == "scipy" or m == "importlib.metadata")
        print(loaded())
        hamiltonians.save_family(corpus.equatorial_loop(), "eq.json")
        hardness.save_instance(corpus.synthetic_verifier_instance("yes"), "syn")
        for argv in (["bpe", "--instance", "eq.json", "--seed", "1"],
                     ["murta", "--instance", "eq.json", "--seed", "1"],
                     ["verify", "--instance", "syn", "--witness", "ground",
                      "--runs", "3", "--seed", "1"]):
            assert berrylab.cli.main([*argv, "--out", "o.json"]) == 0, argv
        print(loaded())
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, timeout=300, check=True).stdout
    assert out.splitlines()[0] == "[]"
    assert out.splitlines()[-1] == "[]"


def test_perfbench_tracer_binds_every_listed_function(monkeypatch):
    # A renamed or deleted layer function makes Tracer() raise TracerError,
    # which stops a traced bench pass before any work.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import tracer

    from berrylab import bpe, corpus, hamiltonians

    tr = tracer.Tracer()
    assert len(tr.names) == sum(len(funcs) for _, funcs in tracer.LAYERS.values())
    original = hamiltonians.norm_bounds
    tr.install()
    try:
        assert bpe.norm_bounds is not original  # the alias in bpe is rebound too
        bpe.norm_bounds(corpus.equatorial_loop())
    finally:
        tr.uninstall()
    assert bpe.norm_bounds is original and hamiltonians.norm_bounds is original
    assert tr.calls[tr.names.index("hamiltonians.norm_bounds")] == 1
