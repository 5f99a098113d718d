"""Design guards: solver call sites, settings and the package root.

Every spectrum along the loop, the eigensystem of a loop unitary in ``qpe``
and the accept operator's spectrum in ``hardness`` come from the one
Hermitian block solver in ``exact``, whose ``np.linalg.eigh`` is the lab's
only solve.  A new solver call site shows up here before it can fork the
numerics.  Nothing spawns a SeedSequence, and numpy's default_rng draws a
stream only where one unspawned seed draws one, so per-run Generator
construction cannot come back unseen.  The CLI loads no scipy module and no importlib.metadata, neither
on import nor while it runs.  The fields of the configuration classes, of the
instance record, of the energy distribution and of the QPE distribution are
pinned, and so are the flags of the estimators and of ``verify``.  The
verifier builds its outcome at one site, and the package root re-exports
nothing, so a new setting, a value kept twice or a second import path for a
name shows up here too.  A QPE distribution draws readouts at the
top bit count in well under a megabyte.  The benchmark's tracer still binds
every function it lists, so a rename that would stop a traced pass shows up
here as well.
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


def _call_sites(tails) -> Counter:
    """(module, outermost enclosing function or None, dotted name) of every
    call whose name ends in one of ``tails``."""
    sites = Counter()
    for path in sorted(Path(berrylab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # outer functions come first
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn) if node not in owner)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name is not None and name.rsplit(".", 1)[-1] in tails:
                    sites[(path.stem, owner.get(node), name)] += 1
    return sites


def _solver_sites() -> Counter:
    sites = Counter()
    for (module, _, name), count in _call_sites(SOLVERS).items():
        sites[(module, name)] += count
    return sites


def test_eigensolver_call_sites():
    assert _solver_sites() == {("exact", "np.linalg.eigh"): 1}


def test_seeding_call_sites():
    # Nothing spawns, and numpy draws a stream only where one unspawned seed
    # draws one; every other stream comes from qpe.stream_uniforms.
    assert _call_sites({"spawn", "default_rng"}) == {
        ("bpe", "murta_bpe", "np.random.default_rng"): 1,
        ("qpe", "qpe_run", "np.random.default_rng"): 1,
    }


def test_configuration_fields():
    assert [f.name for f in fields(BpeConfig)] == [
        "epsilon_B", "eta", "alpha_mode", "T", "oversampling"
    ]
    assert [f.name for f in fields(VerifierConfig)] == ["soundness_delta", "bpe"]
    assert [f.name for f in fields(AdiabaticSchedule)] == ["T", "steps", "direction"]


def test_cli_flags():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {command: [o for a in sub.choices[command]._actions for o in a.option_strings]
             for command in ("bpe", "murta", "verify")}
    estimator = ["-h", "--help", "--instance", "--epsilon-b", "--eta", "--runtime",
                 "--oversampling"]
    assert flags == {
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
        draws = sample_outcomes(dist, 1000, rng)
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
