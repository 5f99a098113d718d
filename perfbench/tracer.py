"""Outside-in tracer: spans around berrylab's layers, recorded from outside.

The tracer replaces each listed function with a timing wrapper and rebinds
every alias of it across ``berrylab.*`` (``from .exact import diagonalize``
in ``bpe`` holds its own reference), so calls between layers go through the
wrapper too.  ``numpy.linalg.eigh``/``eigvalsh`` and ``scipy.linalg.schur``
form the ``lapack`` pseudo-layer.  ``uninstall`` puts every original back.

A span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum over its functions.  Spans stay in memory, in
flat arrays, until the benchmark writes them out.  A listed function that is
missing fails installation, so a rename cannot silently drop a layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# Layer -> (module, functions).  "Class.method" names patch the class.
LAYERS = {
    "hamiltonians": ("berrylab.hamiltonians", (
        "dense_budget", "check_dense_budget", "constant", "cosine", "sine",
        "make_family", "eval_hamiltonian", "apply_hamiltonian", "dense_pauli",
        "derivative_family", "norm_bounds", "scale_and_add", "coeff_to_json",
        "coeff_from_json", "to_json_dict", "from_json_dict", "save_family",
        "load_family",
    )),
    "exact": ("berrylab.exact", (
        "diagonalize", "ground_state", "min_gap", "wilson_loop_berry_phase",
        "berry_connection_exact", "berry_connection_perturbative", "write_sweep_csv",
    )),
    "dynamics": ("berrylab.dynamics", (
        "make_schedule", "adiabatic_propagate", "loop_propagator",
        "controlled_power_apply", "required_runtime", "loop_infidelity",
        "phase_lag_scale", "calibrate_runtime",
    )),
    "qpe": ("berrylab.qpe", (
        "bits_for_precision", "distribution_from_phases", "distribution_for_loop",
        "sample_outcomes", "estimate_from_distribution", "qpe_run", "circular_median",
    )),
    "bpe": ("berrylab.bpe", (
        "decide_interval", "choose_alpha", "reconstruct_phases", "run_bpe",
        "murta_bpe", "BpeEngine.__init__", "BpeEngine.run",
    )),
    "hardness": ("berrylab.hardness", (
        "compile_history", "history_state", "window_guiding_state",
        "product_guiding_state", "make_V", "accept_operator_spectrum",
        "build_bqp_instance", "build_duqma_instance", "save_instance", "load_instance",
    )),
    "verifier": ("berrylab.verifier", (
        "energy_distribution", "energy_test", "run_verifier",
    )),
    # _write_json is the CLI's one output writer; cli.write_s times it.
    "cli": ("berrylab.cli", (
        "cmd_oracle", "cmd_sweep", "cmd_bpe", "cmd_murta", "cmd_genhard",
        "cmd_verify", "build_parser", "main", "_write_json",
    )),
    "lapack": (None, ("numpy.linalg.eigh", "numpy.linalg.eigvalsh", "scipy.linalg.schur")),
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric == "bpe.T":
        return "a.u."  # the family's time unit: inverse energy
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "1"
    return "count"


class TracerError(RuntimeError):
    """A listed function could not be found or bound."""


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counter hooks, run after a successful call: hook(tracer, args, kwargs).
def _steps(family, schedule) -> int:
    return 1 if family.is_constant() else schedule.steps


def _hook_loop_propagator(tr, args, kwargs):
    n = _steps(_arg(args, kwargs, 0, "family"), _arg(args, kwargs, 1, "schedule"))
    tr.counters["dynamics.steps"] += n
    tr.counters["dynamics.useful_steps"] += n


def _hook_adiabatic_propagate(tr, args, kwargs):
    from berrylab.dynamics import StateVector

    # A StateVector call recurses once on its amplitudes; count that call only.
    if not isinstance(_arg(args, kwargs, 0, "state"), StateVector):
        n = _steps(_arg(args, kwargs, 1, "family"), _arg(args, kwargs, 2, "schedule"))
        tr.counters["dynamics.steps"] += n


def _hook_eigh(tr, args, kwargs):
    shape = _arg(args, kwargs, 0, "a").shape
    batch = 1
    for s in shape[:-2]:
        batch *= s
    tr.counters["lapack.eigh_work"] += batch * shape[-1] ** 3


def _hook_distribution(tr, args, kwargs):
    import numpy as np

    weights = np.asarray(_arg(args, kwargs, 1, "weights"), dtype=float)
    m = _arg(args, kwargs, 2, "m")
    tr.counters["qpe.fejer_evals"] += int(np.count_nonzero(weights > 1e-14)) * 2 ** m


def _hook_sample(tr, args, kwargs):
    tr.counters["qpe.samples"] += _arg(args, kwargs, 1, "R")


def _hook_diagonalize(tr, args, kwargs):
    family = _arg(args, kwargs, 0, "family")
    tr.points.add((family.n_qubits, family.terms, float(_arg(args, kwargs, 1, "lam"))))


def _hook_engine(tr, args, kwargs):
    tr.counters["bpe.T"] += args[0].T


HOOKS = {
    "dynamics.loop_propagator": _hook_loop_propagator,
    "dynamics.adiabatic_propagate": _hook_adiabatic_propagate,
    "lapack.numpy.linalg.eigh": _hook_eigh,
    "lapack.numpy.linalg.eigvalsh": _hook_eigh,
    "qpe.distribution_from_phases": _hook_distribution,
    "qpe.sample_outcomes": _hook_sample,
    "exact.diagonalize": _hook_diagonalize,
    "bpe.BpeEngine.__init__": _hook_engine,
}


class Tracer:
    """Install with ``install()``; read one pass with ``take()``."""

    def __init__(self) -> None:
        import numpy as np

        from berrylab.errors import BerrylabError

        # Exceptions a layer may raise by design; anything else is a crash.
        self.typed = (BerrylabError, np.linalg.LinAlgError)
        self.names: list[str] = []  # function id -> "layer.function"
        self.layers: list[str] = []  # function id -> layer
        self.targets = []  # function id -> (owner, attribute, original)
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self._bound: list = []  # (owner, attribute, original) to restore
        self._resolve()
        self.reset()

    # -- binding ------------------------------------------------------------

    def _resolve(self) -> None:
        for layer, (modname, funcs) in LAYERS.items():
            for qual in funcs:
                if modname is None:
                    owner_name, _, attr = qual.rpartition(".")
                    owner = importlib.import_module(owner_name)
                else:
                    owner = importlib.import_module(modname)
                    cls, _, attr = qual.rpartition(".")
                    if cls:
                        owner = getattr(owner, cls, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if not callable(original):
                    raise TracerError(f"{layer}: {qual} is not defined; update perfbench/tracer.py")
                self.names.append(f"{layer}.{qual}")
                self.layers.append(layer)
                self.targets.append((owner, attr, original))

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "berrylab" or name.startswith("berrylab."))]
        for fid, (owner, attr, original) in enumerate(self.targets):
            wrapper = self._wrap(fid, original)
            self._bind(owner, attr, original, wrapper)
            if isinstance(owner, type):
                continue
            for mod in modules:  # every `from .x import y` alias of the same object
                for name, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._bind(mod, name, original, wrapper)

    def _bind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._bound.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bound):
            setattr(owner, attr, original)
        self._bound.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, fid: int, fn):
        tracer = self
        layer = self.layers[fid]
        hook = HOOKS.get(self.names[fid])
        typed = self.typed
        span_fn, span_parent = self.span_fn, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            idx = len(span_fn)
            span_fn.append(fid)
            span_parent.append(parent[0] if parent else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            span_start.append(t0)
            span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            except typed:
                # Counted once, where it leaves the layer.
                if parent is None or tracer.layers[span_fn[parent[0]]] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                span_end[idx] = t1
                tracer.calls[fid] += 1
                tracer.incl[fid] += dur
                tracer.self_time[fid] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
            if hook is not None:
                hook(tracer, args, kwargs)
            return result

        return traced

    def reset(self) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self.self_time = [0.0] * n
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.points: set = set()

    def _fid(self, name: str) -> int:
        return self.names.index(name)

    def take(self) -> dict:
        """Per-layer metrics of everything recorded since the last take."""
        calls = lambda n: self.calls[self._fid(n)]  # noqa: E731
        incl = lambda n: self.incl[self._fid(n)]  # noqa: E731
        selft = lambda n: self.self_time[self._fid(n)]  # noqa: E731
        c = self.counters
        diag = calls("exact.diagonalize")
        m = {
            "hamiltonians.eval_calls": calls("hamiltonians.eval_hamiltonian"),
            "hamiltonians.eval_self_s": selft("hamiltonians.eval_hamiltonian"),
            "dynamics.steps": c["dynamics.steps"],
            "dynamics.useful_step_frac": (
                c["dynamics.useful_steps"] / c["dynamics.steps"] if c["dynamics.steps"] else 0.0
            ),
            "bpe.engine_builds": calls("bpe.BpeEngine.__init__"),
            "bpe.engine_build_s": incl("bpe.BpeEngine.__init__"),
            "bpe.T": float(c["bpe.T"]),
            "exact.diagonalize_calls": diag,
            "exact.wilson_s": incl("exact.wilson_loop_berry_phase"),
            "exact.unique_point_frac": len(self.points) / diag if diag else 0.0,
            "hardness.compile_history_s": incl("hardness.compile_history"),
            "hardness.build_self_s": (
                selft("hardness.build_bqp_instance") + selft("hardness.build_duqma_instance")
            ),
            "lapack.eigh_calls": calls("lapack.numpy.linalg.eigh")
            + calls("lapack.numpy.linalg.eigvalsh"),
            "lapack.eigh_s": incl("lapack.numpy.linalg.eigh")
            + incl("lapack.numpy.linalg.eigvalsh"),
            "lapack.eigh_work": c["lapack.eigh_work"],
            "lapack.schur_calls": calls("lapack.scipy.linalg.schur"),
            "lapack.schur_s": incl("lapack.scipy.linalg.schur"),
            "qpe.distribution_s": incl("qpe.distribution_from_phases"),
            "qpe.fejer_evals": c["qpe.fejer_evals"],
            "qpe.sample_s": incl("qpe.sample_outcomes"),
            "qpe.samples": c["qpe.samples"],
            "verifier.runs": calls("verifier.run_verifier"),
            "verifier.run_s": incl("verifier.run_verifier"),
            "verifier.energy_dist_s": incl("verifier.energy_distribution"),
            "cli.write_s": incl("cli._write_json"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                t for t, lay in zip(self.self_time, self.layers) if lay == layer
            )
            m[f"{layer}.errors"] = self.errors[layer]
        self.reset()
        return m

    def spans(self) -> dict:
        """All spans recorded so far, as parallel lists; times in microseconds
        from the first span's start."""
        t0 = self.span_start[0] if self.span_start else 0.0
        return {
            "functions": self.names,
            "function": self.span_fn.tolist(),
            "parent": self.span_parent.tolist(),
            "start_us": [round((t - t0) * 1e6) for t in self.span_start],
            "end_us": [round((t - t0) * 1e6) for t in self.span_end],
        }
