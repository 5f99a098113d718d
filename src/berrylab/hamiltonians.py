"""Loop Hamiltonian families H(lambda) on qubits.

A family is a finite sum of Pauli strings with trigonometric-polynomial
coefficients in the loop parameter lambda, periodic with period 1:

    H(lambda) = sum_i c_i(lambda) P_i,
    c_i(lambda) = const + sum_k a_k cos(2 pi k lambda) + sum_k b_k sin(2 pi k lambda).

Coefficients are real, so H(lambda) is Hermitian for every lambda by
construction.  Differentiation in lambda is closed on this class, which is
what makes the operator-norm bounds on H, H', H'' cheap and certified.

Conventions: qubit 0 is the leftmost letter of a Pauli string and the most
significant bit of a basis index (tensor products follow numpy.kron order).
Basis states are indexed 0 .. 2**n - 1.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .angles import TWO_PI
from .errors import CapacityError, ConfigError

DEFAULT_DENSE_BUDGET = 14  # qubits; 2**14 x 2**14 complex is ~4 GiB worst case
_BUDGET_ENV_VAR = "BERRYLAB_MAX_QUBITS"

_VALID_AXES = frozenset("IXYZ")


def dense_budget() -> int:
    """Largest qubit count for which dense matrices may be materialized."""
    raw = os.environ.get(_BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_DENSE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{_BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"{_BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def check_dense_budget(n_qubits: int, what: str = "dense operation") -> None:
    budget = dense_budget()
    if n_qubits > budget:
        raise CapacityError(
            f"{what} on {n_qubits} qubits exceeds the dense budget of "
            f"{budget} qubits (override with {_BUDGET_ENV_VAR})"
        )


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Pauli operators, e.g. 'IXZY'."""

    axes: str

    def __post_init__(self) -> None:
        if not self.axes or not set(self.axes) <= _VALID_AXES:
            raise ConfigError(f"invalid Pauli string {self.axes!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.axes)

    @property
    def weight(self) -> int:
        return sum(1 for a in self.axes if a != "I")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q, a in enumerate(self.axes) if a != "I")

    def anticommutes_with(self, other: "PauliString") -> bool:
        if len(self.axes) != len(other.axes):
            raise ConfigError("Pauli strings act on different qubit counts")
        clashes = sum(
            1
            for a, b in zip(self.axes, other.axes)
            if a != "I" and b != "I" and a != b
        )
        return clashes % 2 == 1


def _canon_harmonics(pairs) -> tuple[tuple[int, float], ...]:
    acc: dict[int, float] = {}
    for k, a in pairs:
        k = int(k)
        a = float(a)
        if k < 1:
            raise ConfigError(f"harmonic index must be >= 1, got {k}")
        acc[k] = acc.get(k, 0.0) + a
    if not all(math.isfinite(a) for a in acc.values()):
        raise ConfigError(f"harmonic amplitudes must be finite, got {acc}")
    return tuple((k, acc[k]) for k in sorted(acc) if acc[k] != 0.0)


@dataclass(frozen=True)
class TrigCoefficient:
    """Real trigonometric polynomial in lambda with period 1.

    Stored canonically: harmonics sorted, duplicates merged, exact zeros
    dropped, so equal polynomials compare equal as dataclasses.  The norm
    bounds square a coefficient through its Fourier coefficients (_fourier).
    """

    const: float = 0.0
    cos_terms: tuple[tuple[int, float], ...] = ()
    sin_terms: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "const", float(self.const))
        if not math.isfinite(self.const):
            raise ConfigError(f"constant term must be finite, got {self.const}")
        object.__setattr__(self, "cos_terms", _canon_harmonics(self.cos_terms))
        object.__setattr__(self, "sin_terms", _canon_harmonics(self.sin_terms))

    def value(self, lam: float) -> float:
        # Reduce first so evaluation is periodic *by construction*: identical
        # bits in, identical bits out for lam and lam mod 1.
        x = TWO_PI * (float(lam) % 1.0)
        out = self.const
        for k, a in self.cos_terms:
            out += a * math.cos(k * x)
        for k, b in self.sin_terms:
            out += b * math.sin(k * x)
        return out

    def values(self, lams: np.ndarray) -> np.ndarray:
        """value() at each lambda of an array, in the same operation order,
        so every entry carries the same bits."""
        if self.is_constant():
            return np.full(np.shape(lams), self.const)
        x = TWO_PI * (np.asarray(lams, dtype=float) % 1.0)
        out = np.full(x.shape, self.const)
        for k, a in self.cos_terms:
            out += a * np.cos(k * x)
        for k, b in self.sin_terms:
            out += b * np.sin(k * x)
        return out

    def derivative(self) -> "TrigCoefficient":
        cos_out = [(k, TWO_PI * k * b) for k, b in self.sin_terms]
        sin_out = [(k, -TWO_PI * k * a) for k, a in self.cos_terms]
        return TrigCoefficient(0.0, tuple(cos_out), tuple(sin_out))

    def bound(self) -> float:
        """sup_lambda |c(lambda)| <= |const| + sum of harmonic amplitudes."""
        return (
            abs(self.const)
            + sum(abs(a) for _, a in self.cos_terms)
            + sum(abs(b) for _, b in self.sin_terms)
        )

    def scale(self, a: float) -> "TrigCoefficient":
        a = float(a)
        if a == 0.0:
            return TrigCoefficient()
        return TrigCoefficient(
            a * self.const,
            tuple((k, a * c) for k, c in self.cos_terms),
            tuple((k, a * s) for k, s in self.sin_terms),
        )

    def add(self, other: "TrigCoefficient") -> "TrigCoefficient":
        return TrigCoefficient(
            self.const + other.const,
            self.cos_terms + other.cos_terms,
            self.sin_terms + other.sin_terms,
        )

    def is_zero(self) -> bool:
        return self.const == 0.0 and not self.cos_terms and not self.sin_terms

    def is_constant(self) -> bool:
        return not self.cos_terms and not self.sin_terms


def constant(c: float) -> TrigCoefficient:
    return TrigCoefficient(const=c)


def cosine(k: int, a: float = 1.0) -> TrigCoefficient:
    return TrigCoefficient(cos_terms=((k, a),))


def sine(k: int, b: float = 1.0) -> TrigCoefficient:
    return TrigCoefficient(sin_terms=((k, b),))


@dataclass(eq=True)
class HamiltonianFamily:
    """Immutable-by-convention container for one loop family.

    ``terms`` pairs each Pauli string with its coefficient polynomial.
    ``k_max`` is the promised locality (every stored string has weight
    <= k_max).  ``metadata`` is free-form provenance carried through
    serialization; it never influences numerics.
    """

    n_qubits: int
    terms: tuple[tuple[PauliString, TrigCoefficient], ...]
    k_max: int
    metadata: dict = field(default_factory=dict)
    _actions: list | None = field(default=None, repr=False, compare=False, init=False)
    _sectors: tuple | None = field(default=None, repr=False, compare=False, init=False)
    _norms: tuple | None = field(default=None, repr=False, compare=False, init=False)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def is_constant(self) -> bool:
        return all(c.is_constant() for _, c in self.terms)


def make_family(
    n_qubits: int,
    terms,
    metadata: dict | None = None,
    k_max: int | None = None,
) -> HamiltonianFamily:
    """Build a family from (axes-or-PauliString, TrigCoefficient) pairs.

    Like terms are consolidated and exact-zero coefficients dropped, so the
    stored representation is canonical for the given qubit count.
    """
    if n_qubits < 1:
        raise ConfigError(f"n_qubits must be >= 1, got {n_qubits}")
    acc: dict[str, TrigCoefficient] = {}
    for pauli, coeff in terms:
        axes = pauli.axes if isinstance(pauli, PauliString) else str(pauli)
        if len(axes) != n_qubits:
            raise ConfigError(
                f"Pauli string {axes!r} has length {len(axes)}, expected {n_qubits}"
            )
        PauliString(axes)  # validates letters
        if not isinstance(coeff, TrigCoefficient):
            raise ConfigError(f"coefficient for {axes!r} is not a TrigCoefficient")
        acc[axes] = acc[axes].add(coeff) if axes in acc else coeff
    kept = tuple(
        (PauliString(axes), coeff)
        for axes, coeff in sorted(acc.items())
        if not coeff.is_zero()
    )
    max_weight = max((p.weight for p, _ in kept), default=0)
    if k_max is None:
        k_max = max_weight
    elif k_max < max_weight:
        raise ConfigError(
            f"declared k_max={k_max} below the heaviest stored string ({max_weight})"
        )
    return HamiltonianFamily(
        n_qubits=n_qubits,
        terms=kept,
        k_max=int(k_max),
        metadata=dict(metadata) if metadata else {},
    )


# ---------------------------------------------------------------------------
# Dense evaluation
# ---------------------------------------------------------------------------


def _string_action(axes: str) -> tuple[np.ndarray, np.ndarray]:
    """Sparse action of a Pauli string: P |x> = vals[x] |rows[x]>.

    Each string is a signed permutation of the computational basis, so a
    single (rows, vals) pair captures it with 2**n numbers.
    """
    n = len(axes)
    d = 2 ** n
    cols = np.arange(d, dtype=np.int64)
    flip = 0
    vals = np.ones(d, dtype=complex)
    for q, a in enumerate(axes):
        if a == "I":
            continue
        bitpos = n - 1 - q  # qubit 0 is the most significant bit
        bit = (cols >> bitpos) & 1
        if a == "X":
            flip |= 1 << bitpos
        elif a == "Y":
            flip |= 1 << bitpos
            vals = vals * (1j * (1.0 - 2.0 * bit))
        elif a == "Z":
            vals = vals * (1.0 - 2.0 * bit)
    rows = cols ^ flip
    return rows, vals


def _actions_for(family: HamiltonianFamily) -> list:
    """The family's strings grouped by the basis permutation they make (same
    X/Y letters): [(rows, [(term index, vals), ...]), ...], groups in order of
    first appearance and members in term order.  Built once per family."""
    if family._actions is None:
        groups: dict[int, tuple] = {}
        for k, (p, _) in enumerate(family.terms):
            rows, vals = _string_action(p.axes)
            groups.setdefault(int(rows[0]), (rows, []))[1].append((k, vals))
        family._actions = list(groups.values())
    return family._actions


def eval_hamiltonian(family: HamiltonianFamily, lam: float) -> np.ndarray:
    """Dense Hermitian matrix H(lambda), qubit 0 as most significant bit."""
    return eval_hamiltonians(family, np.array([float(lam)]))[0]


def _group_entries(family: HamiltonianFamily, lams: np.ndarray, cols=None) -> np.ndarray:
    """The entries each group of _actions_for fills on the columns cols (all d
    if None), shape (groups, len(lams), len(cols)): group g puts entries[g, :, i]
    at (rows_g[x], x), x = cols[i], and no other group touches that entry.  Each
    group sums its terms in term order, from zero.  Every product c_i * vals is
    exact (vals are +-1 and +-i), so an entry carries the same bits whatever
    else is in the stack."""
    lams = np.asarray(lams, dtype=float)
    groups, cols = _actions_for(family), np.arange(family.dim) if cols is None else cols
    out = np.zeros((len(groups), lams.size, cols.size), dtype=complex)
    for entries, (_, members) in zip(out, groups):
        for k, vals in members:
            entries += family.terms[k][1].values(lams)[:, None] * vals[cols]
    return out


def eval_hamiltonians(family: HamiltonianFamily, lams: np.ndarray) -> np.ndarray:
    """Stack of dense H(lambda_j), shape (len(lams), d, d), scattered from
    _group_entries."""
    check_dense_budget(family.n_qubits, "Hamiltonian evaluation")
    lams = np.asarray(lams, dtype=float)
    d = family.dim
    H = np.zeros((lams.size, d, d), dtype=complex)
    cols = np.arange(d, dtype=np.int64)
    for (rows, _), entries in zip(_actions_for(family), _group_entries(family, lams)):
        H[:, rows, cols] = entries
    return H


def apply_hamiltonian(family: HamiltonianFamily, lam: float, vec: np.ndarray) -> np.ndarray:
    """H(lambda) @ vec without materializing the matrix, summed in term order."""
    actions = {k: (rows, vals) for rows, members in _actions_for(family)
               for k, vals in members}
    out = np.zeros_like(vec, dtype=complex)
    for k, (_, coeff) in enumerate(family.terms):
        c = coeff.value(lam)
        if c != 0.0:
            rows, vals = actions[k]
            out[rows] += c * vals * vec
    return out


def dense_pauli(axes: str) -> np.ndarray:
    """Dense matrix of a Pauli string, scattered from its signed permutation:
    the hardness compiler's Pauli transform reads the four 1-qubit ones."""
    rows, vals = _string_action(axes)
    out = np.zeros((rows.size, rows.size), dtype=complex)
    out[rows, np.arange(rows.size)] = vals
    return out


# ---------------------------------------------------------------------------
# Certified norm bounds
# ---------------------------------------------------------------------------


def derivative_family(family: HamiltonianFamily, order: int = 1) -> HamiltonianFamily:
    """Same strings, coefficients differentiated `order` times in lambda."""
    if order < 0:
        raise ConfigError("derivative order must be >= 0")
    terms = family.terms
    for _ in range(order):
        terms = tuple((p, c.derivative()) for p, c in terms)
    return make_family(
        family.n_qubits,
        terms,
        metadata=dict(family.metadata),
        k_max=family.k_max,
    )


def _fourier(c: TrigCoefficient) -> dict[int, complex]:
    """Complex Fourier coefficients z_k of c(lambda) = sum_k z_k e^{2 pi i k lambda}
    over the harmonics present: z_0 = const, z_{+-k} = a_k/2 for a cosine
    and -+i b_k/2 for a sine."""
    z = {0: complex(c.const)}
    for k, a in c.cos_terms:
        z[k] = z[-k] = complex(0.5 * a)
    for k, b in c.sin_terms:
        z[k] = z.get(k, 0.0) - 0.5j * b
        z[-k] = z.get(-k, 0.0) + 0.5j * b
    return z


def _grouped_norm_bound(terms) -> float:
    """Upper bound on sup_lambda || sum c_i(lambda) P_i ||.

    Strings are greedily packed into pairwise-anticommuting groups.  Within a
    group, (sum c_i P_i)^2 = (sum c_i^2) I exactly, so the group norm is
    sqrt(sum c_i^2).  Each c_i^2 is the autoconvolution w_k = sum_{j+l=k}
    z_j z_l of its Fourier coefficients, summed over the group in one dict
    over the harmonics present (a harmonic of 10^8 costs nothing), and the
    real polynomial w_0 + sum_{k>0} 2 Re w_k cos - 2 Im w_k sin is bounded
    by |w_0| plus its amplitudes.  Groups combine by the triangle inequality.
    This is never below the true sup over lambda and is exact for a single
    group of anticommuting strings with a constant sum of squares.
    """
    terms = [(p, c) for p, c in terms if not c.is_zero()]
    groups: list[list[tuple[PauliString, TrigCoefficient]]] = []
    for p, c in terms:
        for g in groups:
            if all(p.anticommutes_with(q) for q, _ in g):
                g.append((p, c))
                break
        else:
            groups.append([(p, c)])
    total = 0.0
    for g in groups:
        sq: dict[int, complex] = {}
        for _, c in g:
            z = _fourier(c)
            for j, zj in z.items():  # k = j + l >= 0 only: w_{-k} is conj(w_k)
                for l, zl in z.items():
                    if j <= l and j + l >= 0:
                        sq[j + l] = sq.get(j + l, 0.0) + (zj * zl if j == l else 2.0 * zj * zl)
        harmonics = sorted(k for k in sq if k > 0)
        bound = (abs(sq[0].real) + sum(2.0 * abs(sq[k].real) for k in harmonics)
                 + sum(2.0 * abs(sq[k].imag) for k in harmonics))
        if not math.isfinite(bound):
            raise ConfigError(f"the squared coefficients of a term group overflow: {bound}")
        total += math.sqrt(bound)
    return total


def norm_bounds(family: HamiltonianFamily) -> tuple[float, float, float]:
    """Certified (H_max, dH_max, d2H_max): sup-lambda operator-norm bounds
    for the family and its first two lambda-derivatives, found once and
    cached on the family."""
    if family._norms is None:
        d1 = derivative_family(family, 1)
        d2 = derivative_family(d1, 1)
        family._norms = tuple(_grouped_norm_bound(f.terms) for f in (family, d1, d2))
    return family._norms


def commutator_bound(family: HamiltonianFamily) -> float:
    """Upper bound on sup_lambda ||[H, dH/dlam]||.  Two Pauli strings commute
    or anticommute, and [P, Q] = 2 P Q for an anticommuting pair, so the
    bound is 2 * sum over anticommuting pairs of bound(c_P) * bound(c'_Q)."""
    d1 = derivative_family(family, 1)
    return 2.0 * sum(
        c.bound() * c1.bound()
        for p, c in family.terms
        for q, c1 in d1.terms
        if p.anticommutes_with(q)
    )


def scale_and_add(
    a: float, fam1: HamiltonianFamily, b: float, fam2: HamiltonianFamily
) -> HamiltonianFamily:
    """a * fam1 + b * fam2 with like-term consolidation."""
    if fam1.n_qubits != fam2.n_qubits:
        raise ConfigError(
            f"cannot combine families on {fam1.n_qubits} and {fam2.n_qubits} qubits"
        )
    terms = [(p, c.scale(a)) for p, c in fam1.terms]
    terms += [(p, c.scale(b)) for p, c in fam2.terms]
    return make_family(
        fam1.n_qubits,
        terms,
        metadata={**fam2.metadata, **fam1.metadata},
        k_max=max(fam1.k_max, fam2.k_max),
    )


# ---------------------------------------------------------------------------
# Serialization (lossless round-trip)
# ---------------------------------------------------------------------------


def coeff_to_json(coeff: TrigCoefficient) -> dict:
    return {
        "const": coeff.const,
        "cos": [[k, a] for k, a in coeff.cos_terms],
        "sin": [[k, b] for k, b in coeff.sin_terms],
    }


def _json_int(value, what: str) -> int:
    """A JSON integer as an int; int() would also take 1.5, true and "1"."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _json_float(value, what: str) -> float:
    """A JSON number as a float; float() would also take true and "1.5",
    and overflows on an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} {value} is beyond the float range") from None


def coeff_from_json(obj: dict) -> TrigCoefficient:
    if not isinstance(obj, dict):
        raise ConfigError(f"coefficient must be an object, got {obj!r}")
    return TrigCoefficient(
        const=_json_float(obj.get("const", 0.0), "constant term"),
        cos_terms=tuple((_json_int(k, "harmonic index"), _json_float(a, "amplitude"))
                        for k, a in obj.get("cos", [])),
        sin_terms=tuple((_json_int(k, "harmonic index"), _json_float(b, "amplitude"))
                        for k, b in obj.get("sin", [])),
    )


def to_json_dict(family: HamiltonianFamily) -> dict:
    return {
        "n_qubits": family.n_qubits,
        "k_max": family.k_max,
        "terms": [
            {"pauli": p.axes, "coeff": coeff_to_json(c)} for p, c in family.terms
        ],
        "metadata": family.metadata,
    }


def from_json_dict(obj: dict) -> HamiltonianFamily:
    if not isinstance(obj, dict):
        raise ConfigError(f"malformed family record: not an object: {obj!r}")
    try:
        n = _json_int(obj["n_qubits"], "n_qubits")
        k_max = _json_int(obj["k_max"], "k_max")
        raw_terms = obj["terms"]
    except KeyError as exc:
        raise ConfigError(f"malformed family record: missing {exc}") from exc
    metadata = obj.get("metadata", {})
    if not isinstance(raw_terms, list) or not isinstance(metadata, dict):
        raise ConfigError("malformed family record: terms must be a list and "
                          "metadata an object")
    terms = []
    for i, t in enumerate(raw_terms):
        pauli = t.get("pauli") if isinstance(t, dict) else None
        if not isinstance(pauli, str):
            raise ConfigError(f"malformed family record: term {i} ({t!r}) "
                              "needs a Pauli string")
        try:
            terms.append((PauliString(pauli), coeff_from_json(t.get("coeff"))))
        except (TypeError, ValueError, ConfigError) as exc:
            raise ConfigError(
                f"malformed family record: term {i} ({pauli}): {exc}"
            ) from exc
    return make_family(n, terms, metadata=metadata, k_max=k_max)


def save_family(family: HamiltonianFamily, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(family), fh, indent=2)
        fh.write("\n")


def load_family(path: str) -> HamiltonianFamily:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
