"""berrylab: a desk-scale laboratory for Berry phase estimation.

Layers, bottom up:

- hamiltonians / exact: periodic operator families H(lambda) with
  trigonometric coefficients, dense diagonalization, Wilson-loop Berry
  phases, and Berry connections (finite-difference and perturbative).
- dynamics / qpe: Trotterized adiabatic loop evolution, exact phase
  estimation outcome distributions, and seeded sampling from them.
- bpe: the two-runtime estimator separating geometric from dynamical
  phase, the phase-doubling baseline, and interval decisions.
- circuits / hardness: gate circuits compiled into clock Hamiltonians
  whose ground-state Berry phase encodes acceptance.
- verifier: the energy-gated interval-decision protocol.
- corpus: analytic reference families, toy circuits, synthetic instances.
- cli: reproducible command-line experiments (`berrylab ...`).

Each name is imported from its module (``from berrylab.bpe import
run_bpe``); the package root holds only ``__version__``.
"""

from importlib import metadata as _metadata

try:
    __version__ = _metadata.version("artifact")
except _metadata.PackageNotFoundError:  # running from a source tree
    __version__ = "0.0.0"
