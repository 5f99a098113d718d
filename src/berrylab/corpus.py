"""Reference families, toy circuits, and synthetic protocol instances.

Everything here is deterministic given its arguments (pass a seeded
Generator where randomness is wanted), small enough for dense methods, and
chosen so the interesting quantities have closed forms:

- the equatorial loop has Berry phase exactly pi and gap 2;
- a loop tilted to polar angle a has ground-state Berry phase
  pi (1 - cos a) mod 2 pi and gap 2 at every lambda;
- constant families have Berry phase 0 and purely dynamical evolution;
- the toy circuits are classical (X/CNOT only), so acceptance is exact.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import GateCircuit, gate
from .errors import ConfigError, NumericalError
from .exact import min_gap, wilson_loop_berry_phase
from .hamiltonians import HamiltonianFamily, TrigCoefficient, constant, cosine, make_family, sine
from .hardness import HardnessInstance


# ---------------------------------------------------------------------------
# Analytic single-qubit loops
# ---------------------------------------------------------------------------


def tilted_loop_family(polar_angle: float) -> HamiltonianFamily:
    """H(lambda) = cos(a) Z + sin(a) (cos(2 pi lambda) X + sin(2 pi lambda) Y).

    The field direction traces the Bloch circle at polar angle a, so the
    ground-state Berry phase is pi (1 - cos a) mod 2 pi; the gap is 2
    everywhere.
    """
    if not 0.0 < polar_angle < math.pi:
        raise ConfigError(
            f"polar angle must lie in (0, pi), got {polar_angle}"
        )
    ca, sa = math.cos(polar_angle), math.sin(polar_angle)
    terms = [("X", cosine(1, sa)), ("Y", sine(1, sa))]
    if abs(ca) > 1e-15:
        terms.append(("Z", constant(ca)))
    return make_family(
        1, terms, metadata={"name": "tilted-loop", "polar_angle": polar_angle}
    )


def equatorial_loop() -> HamiltonianFamily:
    """The maximally tilted loop: Berry phase exactly pi."""
    fam = tilted_loop_family(math.pi / 2.0)
    return make_family(fam.n_qubits, list(fam.terms), metadata={"name": "equatorial-loop"})


def constant_z_family(n_qubits: int = 1, strength: float = 1.0) -> HamiltonianFamily:
    """H = strength * sum_q Z_q, lambda-independent.  Berry phase 0, ground
    energy -n * strength, gap 2 * strength."""
    if strength <= 0:
        raise ConfigError(f"strength must be positive, got {strength}")
    terms = [
        ("I" * q + "Z" + "I" * (n_qubits - q - 1), constant(strength))
        for q in range(n_qubits)
    ]
    return make_family(
        n_qubits,
        terms,
        metadata={"name": "constant-z", "strength": strength},
    )


# ---------------------------------------------------------------------------
# Random gapped families
# ---------------------------------------------------------------------------


def random_gapped_family(
    n_qubits: int,
    rng: np.random.Generator,
    gap_floor: float = 0.5,
    grid: int = 64,
    max_tries: int = 200,
) -> HamiltonianFamily:
    """A random 2-/3-qubit loop family whose gap stays above gap_floor.

    Static part: ferromagnetic-leaning Z fields, one random ZZ bond, one
    weak transverse X.  Loop part: first-harmonic X/Y coupling on qubit 0,
    occasionally with a weak second harmonic.  Candidates are rejection
    sampled against the measured minimum gap, so the draw is deterministic
    for a seeded generator.
    """
    if n_qubits < 1:
        raise ConfigError("need at least one qubit")

    def axes(letter: str, q: int) -> str:
        s = ["I"] * n_qubits
        s[q] = letter
        return "".join(s)

    for _ in range(max_tries):
        terms: list[tuple[str, TrigCoefficient]] = []
        for q in range(n_qubits):
            terms.append((axes("Z", q), constant(rng.uniform(0.7, 1.5))))
        if n_qubits >= 2:
            i, j = rng.choice(n_qubits, size=2, replace=False)
            s = ["I"] * n_qubits
            s[i] = s[j] = "Z"
            terms.append(("".join(s), constant(rng.uniform(-0.5, 0.5))))
        terms.append(
            (axes("X", rng.integers(n_qubits)), constant(rng.uniform(-0.3, 0.3)))
        )
        r = rng.uniform(0.15, 0.35)
        cos_coeff = cosine(1, r)
        if rng.random() < 0.5:
            cos_coeff = cos_coeff.add(cosine(2, rng.uniform(0.05, 0.15)))
        terms.append((axes("X", 0), cos_coeff))
        terms.append((axes("Y", 0), sine(1, r)))

        family = make_family(
            n_qubits, terms, metadata={"name": "random-gapped"}
        )
        gap, _ = min_gap(family, grid)
        if gap >= gap_floor:
            return family
    raise NumericalError(
        f"no candidate reached gap {gap_floor} in {max_tries} tries"
    )


# ---------------------------------------------------------------------------
# Toy circuits
# ---------------------------------------------------------------------------


def bqp_yes_circuit() -> GateCircuit:
    """Two qubits, T=2, output qubit 0 ends in |1>: accepting."""
    return GateCircuit(
        n_system=2,
        gates=[gate("X", 0), gate("X", 1)],
        output1_qubit=0,
    )


def bqp_no_circuit() -> GateCircuit:
    """Two qubits, T=2, output qubit 0 stays |0>: rejecting."""
    return GateCircuit(
        n_system=2,
        gates=[gate("X", 1), gate("X", 1)],
        output1_qubit=0,
    )


def duqma_yes_circuit() -> GateCircuit:
    """Three qubits (out1=0, out2=1, witness=2), T=4.  The witness |0>
    uniquely drives out2 to |1>, and out1 is set: a YES instance.

    out1 is raised by the first gate so that it reads 1 in four of the five
    history slices; the compiled instance's Berry-connection sign tracks the
    slice-weighted majority of the out1 bit, so an output flipped only at
    the last step would be outvoted by its own prefix.
    """
    return GateCircuit(
        n_system=3,
        gates=[gate("X", 0), gate("X", 2), gate("CNOT", 2, 1), gate("X", 2)],
        output1_qubit=0,
        output2_qubit=1,
        witness_qubits=(2,),
    )


def duqma_no_circuit() -> GateCircuit:
    """Same accepting witness structure, but out1 is never set: a NO
    instance."""
    return GateCircuit(
        n_system=3,
        gates=[gate("X", 2), gate("CNOT", 2, 1), gate("X", 2)],
        output1_qubit=0,
        output2_qubit=1,
        witness_qubits=(2,),
    )


# ---------------------------------------------------------------------------
# Synthetic protocol instances
# ---------------------------------------------------------------------------


def synthetic_verifier_instance(
    variant: str = "yes", delta: float = 0.3
) -> HardnessInstance:
    """A single-qubit instance for end-to-end protocol runs.

    'yes': equatorial loop, theta_B = pi, inside the promise interval
    (0, pi).  'no': loop tilted to 2 pi / 3, theta_B = 3 pi / 2, outside
    it.  The energy threshold sits mid-gap at 0 (spectrum is {-1, +1} at
    lambda = 0), so the exact ground state passes the gate and anything
    orthogonal to it fails.
    """
    if variant == "yes":
        family = equatorial_loop()
    elif variant == "no":
        family = tilted_loop_family(2.0 * math.pi / 3.0)
    else:
        raise ConfigError(f"unknown variant {variant!r}; use 'yes' or 'no'")
    oracle = wilson_loop_berry_phase(family, 256)
    return HardnessInstance(family, None, {
        "kind": "synthetic",
        "variant": variant,
        "oracle_theta_B": float(oracle.theta_B),
        "oracle_converged": bool(oracle.converged),
        "r": float(family.metadata.get("polar_angle", math.pi / 2.0)),
        "epsilon_penalty": 0.0,
        "E_th": 0.0,
        "interval": [0.0, math.pi, float(delta)],
        "guiding_state_descriptor": "exact-ground",
    })
