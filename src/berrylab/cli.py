"""Command-line surface: reproducible experiments over family/instance files.

Subcommands
-----------
oracle   exact Berry phase + minimum gap for a family file
sweep    spectral sweep CSV (lambda, E0, E1, gap, iA_lambda)
bpe      two-runtime Berry phase estimation on a family/instance
murta    phase-doubling baseline estimator
genhard  compile a circuit file into a hardness instance (+ provenance)
verify   seeded protocol runs against an instance, transcripts + rates CSV

Every command writes `<out>.manifest.json` capturing the full parameter set,
the package version, and the seed; reruns from the same manifest are
bit-identical in all non-timing fields.  Exit codes: 0 success, 2
configuration/precondition, 3 capacity, 4 numerical.  The dense-matrix
budget is overridable via the BERRYLAB_MAX_QUBITS environment variable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import __version__
from .bpe import BpeConfig, BpeEngine, check_decision_margin, decide_interval, murta_bpe, run_bpe
from .circuits import circuit_from_json_dict
from .errors import CapacityError, ConfigError, NumericalError
from .exact import diagonalize, ground_state, min_gap, wilson_loop_berry_phase, write_sweep_csv
from .hamiltonians import load_family
from .hardness import (
    HardnessInstance,
    build_bqp_instance,
    build_duqma_instance,
    history_state,
    load_instance,
    oracle_tolerance,
    save_instance,
)
from .verifier import VerifierConfig, energy_distribution, run_verifier


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(args) -> None:
    """Write ``<out>.manifest.json`` recording every parsed option of the
    subcommand; a command resolves its path defaults into ``args`` first."""
    params = {
        k: v for k, v in vars(args).items() if k not in ("command", "func", "seed")
    }
    manifest = {
        "command": args.command,
        "parameters": params,
        "package_version": __version__,
        "seed": getattr(args, "seed", None),
    }
    _write_json(f"{args.out}.manifest.json", manifest)


def _resolve_target(path: str):
    """Accept a family JSON path or an instance prefix; return
    (family, instance-or-None)."""
    if path.endswith(".json"):
        prefix = path[: -len(".json")]
    else:
        prefix = path
    family_path = prefix + ".json"
    if not os.path.exists(family_path):
        raise ConfigError(f"no family file at {family_path}")
    if os.path.exists(prefix + ".provenance.json"):
        instance = load_instance(prefix)
        return instance.family, instance
    return load_family(family_path), None


def _maybe_decide(theta_B: float, instance, epsilon_B: float):
    if instance is None:
        return None
    a, b, delta = instance.interval
    return decide_interval(theta_B, a, b, delta, epsilon_B)


def _flag_short_runtime(payload: dict, diag: dict) -> None:
    """Mark a payload whose set --runtime lies below the phase-lag floor."""
    if diag["warnings"]:
        payload["T_phase_floor"] = diag["T_phase_floor"]
        payload["warnings"] = diag["warnings"]
        for w in diag["warnings"]:
            print(f"warning: {w}", file=sys.stderr)


def _parse_int(text: str, base: int, what: str) -> int:
    try:
        return int(text, base)
    except ValueError:
        raise ConfigError(f"{what}: {text!r} is not a base-{base} integer") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_oracle(args) -> int:
    family, instance = _resolve_target(args.instance)
    tol = oracle_tolerance(0.0 if instance is None else instance.certified_delta)
    result = wilson_loop_berry_phase(family, args.grid_size, tol)
    gap, gap_lam = min_gap(family, args.gap_grid)
    payload = {
        **result.to_json_dict(),
        "min_gap": gap,
        "min_gap_lambda": gap_lam,
    }
    # The sweep goes first, so a refused sweep grid leaves no payload behind.
    args.sweep_out = args.sweep_out or f"{args.out}.sweep.csv"
    write_sweep_csv(family, args.sweep_grid, args.sweep_out)
    _write_json(args.out, payload)
    _write_manifest(args)
    print(f"theta_B = {result.theta_B:.12f} (converged={result.converged}); wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    family, _ = _resolve_target(args.instance)
    write_sweep_csv(family, args.grid_size, args.out)
    _write_manifest(args)
    print(f"wrote {args.out}")
    return 0


def _bpe_config(args, instance, **alpha) -> BpeConfig:
    if instance is not None:  # refuse an unusable margin before any spectral work
        check_decision_margin(instance.interval[2], args.epsilon_b)
    return BpeConfig(
        epsilon_B=args.epsilon_b,
        eta=args.eta,
        T=args.runtime,
        oversampling=args.oversampling,
        **alpha,
    )


def cmd_bpe(args) -> int:
    family, instance = _resolve_target(args.instance)
    config = _bpe_config(args, instance, alpha_mode=args.alpha_mode, alpha_cap=args.alpha_cap)
    theta_B, theta_D, diag = run_bpe(family, config=config, seed=args.seed)
    decision = _maybe_decide(theta_B, instance, args.epsilon_b)
    payload = {
        "theta_B_hat": theta_B,
        "theta_D_hat": theta_D,
        "epsilon_B": args.epsilon_b,
        "eta": args.eta,
        "alpha": diag["alpha"],
        "alpha_mode": diag["alpha_mode"],
        "T": diag["T"],
        "m": diag["m"],
        "R": diag["R"],
        "seed": args.seed,
        "decision": decision,
    }
    if instance is not None and "oracle_theta_B" in instance.provenance:
        payload["oracle_theta_B"] = instance.provenance["oracle_theta_B"]
    _flag_short_runtime(payload, diag)
    _write_json(args.out, payload)
    _write_manifest(args)
    print(f"theta_B_hat = {theta_B:.6f}, theta_D_hat = {theta_D:.6f}; wrote {args.out}")
    return 0


def cmd_murta(args) -> int:
    family, instance = _resolve_target(args.instance)
    config = _bpe_config(args, instance)
    theta, diag = murta_bpe(family, config=config, seed=args.seed, return_diagnostics=True)
    decision = _maybe_decide(theta, instance, args.epsilon_b)
    payload = {
        "theta_B_hat": theta,
        "doubled_phase": diag["doubled_phase"],
        "epsilon_B": args.epsilon_b,
        "T": diag["T"],
        "m": diag["m"],
        "R": diag["R"],
        "seed": args.seed,
        "decision": decision,
    }
    _flag_short_runtime(payload, diag)
    _write_json(args.out, payload)
    _write_manifest(args)
    print(f"theta_B_hat = {theta:.6f} (halved readout, [0, pi)); wrote {args.out}")
    return 0


def cmd_genhard(args) -> int:
    if args.kind == "bqp" and (args.witness is not None or args.epsilon is not None):
        raise ConfigError("kind=bqp takes neither --witness nor --epsilon")
    with open(args.circuit) as fh:
        circuit = circuit_from_json_dict(json.load(fh))
    if args.kind == "bqp":
        instance = build_bqp_instance(circuit, r=args.r, M=args.idle_steps)
    else:
        if args.witness is None:
            raise ConfigError("kind=duqma requires --witness (basis bits)")
        witness = _parse_int(args.witness, 2, "--witness")
        instance = build_duqma_instance(
            circuit,
            witness,
            r=args.r,
            epsilon_penalty=args.epsilon,
            M=args.idle_steps,
        )
    family_path, prov_path = save_instance(instance, args.out)
    for w in instance.warnings:
        print(f"warning: {w}", file=sys.stderr)
    _write_manifest(args)
    print(
        f"kind={instance.kind} oracle_theta_B={instance.provenance['oracle_theta_B']:.6f} "
        f"certified_delta={instance.certified_delta:.3g}; wrote {family_path}, {prov_path}"
    )
    return 0


def _resolve_witness(instance: HardnessInstance, spec: str) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    if kind == "ground":
        return ground_state(instance.family, 0.0)[1]
    if kind == "excited":
        k = _parse_int(arg, 10, f"witness {spec!r}") if arg else 1
        s = diagonalize(instance.family, 0.0)
        if not 0 <= k < s.eigenvectors.shape[1]:
            raise ConfigError(f"excited level {k} out of range")
        return np.ascontiguousarray(s.eigenvectors[:, k])
    if kind == "basis":
        if not arg:
            raise ConfigError("basis witness needs bits, e.g. basis:0101")
        dim = 2 ** instance.family.n_qubits
        idx = _parse_int(arg, 2, f"witness {spec!r}")
        if not 0 <= idx < dim:
            raise ConfigError(f"basis index {arg} out of range for dim {dim}")
        vec = np.zeros(dim, dtype=complex)
        vec[idx] = 1.0
        return vec
    if kind == "history":
        if instance.circuit is None:
            raise ConfigError("instance carries no circuit; history witness unavailable")
        witness = _parse_int(arg, 2, f"witness {spec!r}") if arg else None
        return history_state(instance.circuit, witness).amplitudes
    raise ConfigError(
        f"unknown witness spec {spec!r}; use ground | excited:<k> | "
        "basis:<bits> | history:<bits>"
    )


def cmd_verify(args) -> int:
    _, instance = _resolve_target(args.instance)
    if instance is None:
        raise ConfigError(
            f"{args.instance} has no provenance sidecar; verification needs "
            "a full instance"
        )
    if instance.E_th is None:  # refuse before any spectral work
        raise ConfigError("instance carries no energy threshold")
    witness = _resolve_witness(instance, args.witness)
    config = VerifierConfig(
        soundness_delta=args.soundness_delta,
        bpe=BpeConfig(epsilon_B=args.epsilon_b, eta=args.eta),
    )
    shared_dist = energy_distribution(instance, witness)
    # The engine is built when a run first passes the energy gate, after
    # run_verifier has checked the decision margin; if every run fails the
    # gate, no loop is propagated.
    build = functools.cache(lambda: BpeEngine(instance.family, config.bpe, guiding_state=witness))
    engine = SimpleNamespace(run=lambda seed: build().run(seed))
    children = np.random.SeedSequence(args.seed).spawn(args.runs)
    outcomes = [
        run_verifier(instance, witness, config, seed=child,
                     energy_dist=shared_dist, bpe_engine=engine)
        for child in children
    ]
    accept_rate = float(np.mean([o.accept for o in outcomes]))
    energy_pass_rate = float(np.mean([o.energy_pass for o in outcomes]))
    payload = {
        "runs": [o.to_json_dict() for o in outcomes],
        "accept_rate": accept_rate,
        "energy_pass_rate": energy_pass_rate,
        "n_runs": args.runs,
        "seed": args.seed,
        "witness": args.witness,
    }
    _write_json(args.out, payload)
    args.rates_csv = args.rates_csv or f"{args.out}.rates.csv"
    with open(args.rates_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "energy_pass", "decision", "accept"])
        for i, o in enumerate(outcomes):
            writer.writerow([i, int(o.energy_pass), o.decision, int(o.accept)])
    _write_manifest(args)
    print(
        f"accept_rate = {accept_rate:.3f}, energy_pass_rate = {energy_pass_rate:.3f} "
        f"over {args.runs} runs; wrote {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _add_bpe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon-b", type=float, default=0.05, help="target Berry phase error (radians)")
    p.add_argument("--eta", type=float, default=0.05, help="total failure probability budget")
    p.add_argument("--runtime", type=float, default=None, help="override the calibrated loop runtime T")
    p.add_argument("--oversampling", type=float, default=10.0,
                   help="finest step density, steps per unit of T * H_max (>= 2): the cap "
                   "on the coarsest step count the phase check accepts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berrylab",
        description="Berry phase estimation laboratory",
        epilog="Dense-matrix budget: set BERRYLAB_MAX_QUBITS to override the "
        "default ceiling of 14 qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="exact Berry phase and minimum gap")
    p.add_argument("--instance", required=True, help="family JSON file or instance prefix")
    p.add_argument("--grid-size", type=int, default=256)
    p.add_argument("--gap-grid", type=int, default=64)
    p.add_argument("--sweep-grid", type=int, default=33)
    p.add_argument("--sweep-out", default=None, help="sweep CSV path (default: <out>.sweep.csv)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="spectral sweep CSV")
    p.add_argument("--instance", required=True)
    p.add_argument("--grid-size", type=int, default=65)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bpe", help="two-runtime Berry phase estimation")
    p.add_argument("--instance", required=True)
    _add_bpe_flags(p)
    p.add_argument("--alpha-mode", choices=["integer", "formula"], default="integer")
    p.add_argument("--alpha-cap", type=float, default=None, help="integer mode: bound on the wrapped dynamical phase increment")
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bpe)

    p = sub.add_parser("murta", help="phase-doubling baseline estimator")
    p.add_argument("--instance", required=True)
    _add_bpe_flags(p)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_murta)

    p = sub.add_parser("genhard", help="compile a circuit into a hardness instance")
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.add_argument("--kind", choices=["bqp", "duqma"], required=True)
    p.add_argument("--witness", default=None, help="duqma: witness basis bits, e.g. 0 or 01")
    p.add_argument("--r", type=float, default=None, help="loop coupling strength")
    p.add_argument("--epsilon", type=float, default=None, help="duqma: end-of-clock penalty strength")
    p.add_argument("--idle-steps", type=int, default=None, help="pad the circuit with identity steps")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_genhard)

    p = sub.add_parser("verify", help="seeded protocol runs against an instance")
    p.add_argument("--instance", required=True, help="instance prefix (family + provenance)")
    p.add_argument("--witness", required=True, help="ground | excited:<k> | basis:<bits> | history:<bits>")
    p.add_argument("--runs", type=_int_at_least(1), default=1)
    p.add_argument("--epsilon-b", type=float, default=0.05)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--soundness-delta", type=float, default=1.0 / 12.0)
    p.add_argument("--rates-csv", default=None, help="accept-rate CSV path (default: <out>.rates.csv)")
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
