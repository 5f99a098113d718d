"""Design guards: solver call sites, settings and the package root.

Every spectrum along the loop comes from the one sweep in ``exact``; the
``eigvalsh`` of the accept operator in ``hardness`` (whose bits differ from
``eigh``) and the one Schur decomposition in ``qpe`` are the only other
solves.  A new solver call site shows up here before it can fork the
numerics.  The CLI also imports no sparse module.  The fields of the
configuration classes, of the instance record and of the energy
distribution are pinned, the verifier builds its outcome at one site, and the
package root re-exports nothing, so a new setting, a value kept twice or a
second import path for a name shows up here too.
"""

import ast
import inspect
from collections import Counter
from dataclasses import fields
from pathlib import Path

import berrylab
from berrylab import hardness
from berrylab.bpe import BpeConfig
from berrylab.dynamics import AdiabaticSchedule
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


def _solver_sites() -> Counter:
    sites = Counter()
    for path in sorted(Path(berrylab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name is not None and name.rsplit(".", 1)[-1] in SOLVERS:
                    sites[(path.stem, name)] += 1
    return sites


def test_eigensolver_call_sites():
    assert _solver_sites() == {
        ("exact", "np.linalg.eigh"): 1,
        ("hardness", "np.linalg.eigvalsh"): 1,
        ("qpe", "scipy.linalg.schur"): 1,
    }
    assert "np.linalg.eigvalsh" in inspect.getsource(hardness.accept_operator_spectrum)


def test_configuration_fields():
    assert [f.name for f in fields(BpeConfig)] == [
        "epsilon_B", "eta", "alpha_mode", "alpha_cap", "T", "oversampling"
    ]
    assert [f.name for f in fields(VerifierConfig)] == ["soundness_delta", "bpe"]
    assert [f.name for f in fields(AdiabaticSchedule)] == ["T", "steps", "direction"]


def test_instance_fields():
    # kind, r, E_th and the interval are read from the provenance, not kept twice
    assert [f.name for f in fields(hardness.HardnessInstance)] == [
        "family", "circuit", "provenance", "warnings"
    ]


def test_energy_distribution_fields():
    # m is the distribution's own m; the ground energy is read by nothing
    assert EnergyDistribution._fields == ("distribution", "tau", "delta_min")


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


def test_cli_import_loads_no_sparse_module():
    # The block split finds its blocks with numpy alone: scipy.sparse (and
    # its csgraph) would add to every command's start-up and memory.
    import subprocess
    import sys

    code = "import sys, berrylab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True).stdout
    assert out.strip() == "[]"
