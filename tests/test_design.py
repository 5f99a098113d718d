"""Call-site guard: where the package may call a dense eigensolver.

Every spectrum along the loop comes from the one sweep in ``exact``; the
two ``eigvalsh`` calls in ``hardness`` (whose bits differ from ``eigh``) and
the one Schur decomposition in ``qpe`` are the only other solves.  A new
solver call site shows up here before it can fork the numerics.  The CLI
also imports no sparse module.
"""

import ast
from collections import Counter
from pathlib import Path

import berrylab

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
    sites = _solver_sites()
    eigvalsh = sites.pop(("hardness", "np.linalg.eigvalsh"), 0)
    assert eigvalsh <= 2
    assert sites == {("exact", "np.linalg.eigh"): 1, ("qpe", "scipy.linalg.schur"): 1}


def test_cli_import_loads_no_sparse_module():
    # The block split finds its blocks with numpy alone: scipy.sparse (and
    # its csgraph) would add to every command's start-up and memory.
    import subprocess
    import sys

    code = "import sys, berrylab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True).stdout
    assert out.strip() == "[]"
