"""The benchmark's workloads: inputs made from a seed, job lists, output checks.

Each workload is a fixed list of ``berrylab`` CLI commands.  Paths in a job's
argv are relative to the workload's directory: inputs live in ``in/``, a pass
writes its outputs to ``pass/``, and the independent truth used by the checks
is in ``truth.json``.  Because every pass uses the same relative paths, the
digest of ``pass/`` is the same for every pass, seed for seed.

Inputs depend on the workload seed alone.  The program under test sees only
the generated files and the per-job ``--seed`` values.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

EPSILON_B = 0.05  # the CLI default target error; an estimate within it is a hit
VERIFY_RUNS = 4000
WORKLOADS = ("estimate", "compile", "verify")

TWO_PI = 2.0 * math.pi


def circle_distance(a: float, b: float) -> float:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


@dataclass
class Outcome:
    """What one job's output showed: hard failures, estimate hits, decisions."""

    problems: list = field(default_factory=list)
    hits: int = 0
    estimates: int = 0
    right: int = 0
    decisions: int = 0

    def estimate(self, value: float, truth: float) -> None:
        self.estimates += 1
        self.hits += circle_distance(value, truth) <= EPSILON_B

    def decide(self, got, want) -> None:
        self.decisions += 1
        self.right += got == want

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


@dataclass
class Job:
    name: str
    argv: list
    runs: int  # results the job produces: protocol runs for verify, else one
    check: object  # check(truth) -> Outcome, reading the job's output files


def _seed_sequence(workload: str, seed: int):
    import numpy as np

    return np.random.SeedSequence([seed, WORKLOADS.index(workload)])


def _cli_seeds(workload: str, seed: int, n: int) -> list:
    import numpy as np

    job_ss = _seed_sequence(workload, seed).spawn(2)[1]
    return [int(s) for s in np.random.default_rng(job_ss).integers(0, 2**31, size=n)]


# ---------------------------------------------------------------------------
# Inputs: generated inside the timed set-up, after importing berrylab.cli
# ---------------------------------------------------------------------------

# Two draws: a random family's bpe cost is heavy-tailed (0.05 s to 1.5 s,
# set by its gap and phase-lag runtime floor), and with four draws that tail
# alone spread the workload's wall time by 10 % from seed to seed.
RANDOM_FAMILY_QUBITS = (2, 3)


def generate_inputs(workload: str, seed: int, dest: str) -> None:
    """Write the workload's input files under ``dest/in``."""
    import numpy as np

    from berrylab import corpus
    from berrylab.circuits import circuit_to_json_dict
    from berrylab.hamiltonians import save_family
    from berrylab.hardness import build_bqp_instance, build_duqma_instance, save_instance

    inp = os.path.join(dest, "in")
    os.makedirs(inp, exist_ok=True)
    if workload == "estimate":
        save_family(corpus.equatorial_loop(), os.path.join(inp, "eq.json"))
        save_family(corpus.tilted_loop_family(math.pi / 3.0), os.path.join(inp, "tilted.json"))
        fam_ss = _seed_sequence(workload, seed).spawn(2)[0]
        rng = np.random.default_rng(fam_ss)
        for i, n in enumerate(RANDOM_FAMILY_QUBITS):
            family = corpus.random_gapped_family(n, rng)
            save_family(family, os.path.join(inp, f"rand{i}.json"))
        save_instance(build_bqp_instance(corpus.bqp_yes_circuit()), os.path.join(inp, "bqp-yes"))
        save_instance(build_bqp_instance(corpus.bqp_no_circuit()), os.path.join(inp, "bqp-no"))
    elif workload == "compile":
        circuits = {
            "bqp-yes": corpus.bqp_yes_circuit(),
            "bqp-no": corpus.bqp_no_circuit(),
            "duqma-yes": corpus.duqma_yes_circuit(),
            "duqma-no": corpus.duqma_no_circuit(),
        }
        for name, circuit in circuits.items():
            with open(os.path.join(inp, f"{name}.circuit.json"), "w") as fh:
                json.dump(circuit_to_json_dict(circuit), fh, indent=2)
        save_family(corpus.equatorial_loop(), os.path.join(inp, "eq.json"))
    elif workload == "verify":
        save_instance(corpus.synthetic_verifier_instance("yes"), os.path.join(inp, "syn-yes"))
        save_instance(corpus.synthetic_verifier_instance("no"), os.path.join(inp, "syn-no"))
        save_instance(
            build_duqma_instance(corpus.duqma_yes_circuit(), 0), os.path.join(inp, "duqma-yes")
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")


def compute_truth(workload: str, dest: str) -> None:
    """Write ``dest/truth.json``: reference values the checks compare against.

    Runs after the set-up timer stops and in the set-up process, so it warms
    nothing in the process that runs the jobs.
    """
    from berrylab.exact import wilson_loop_berry_phase
    from berrylab.hamiltonians import load_family

    truth = {}
    if workload == "estimate":
        for i in range(len(RANDOM_FAMILY_QUBITS)):
            family = load_family(os.path.join(dest, "in", f"rand{i}.json"))
            truth[f"rand{i}"] = wilson_loop_berry_phase(family, 256).theta_B
    with open(os.path.join(dest, "truth.json"), "w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _load(path: str, out: Outcome):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        out.problems.append(f"{path}: {exc}")
        return None


def _angle_ok(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value < TWO_PI


def _bpe_check(path: str, truth_of, want_decision=None):
    def check(truth) -> Outcome:
        out = Outcome()
        res = _load(path, out)
        if res is None:
            return out
        theta = res.get("theta_B_hat")
        out.require(_angle_ok(theta), f"{path}: theta_B_hat {theta!r} not an angle")
        out.require(res.get("T", 0) > 0 and res.get("m", 0) >= 1 and res.get("R", 0) >= 1,
                    f"{path}: bad T/m/R")
        if out.problems:
            return out
        out.estimate(theta, truth_of(truth, res))
        if want_decision is not None:
            out.require(res.get("decision") in (0, 1), f"{path}: no decision")
            out.decide(res.get("decision"), want_decision)
        return out

    return check


def _murta_check(path: str):
    def check(truth) -> Outcome:
        out = Outcome()
        res = _load(path, out)
        if res is None:
            return out
        theta = res.get("theta_B_hat")
        out.require(isinstance(theta, float) and 0.0 <= theta < math.pi,
                    f"{path}: halved readout {theta!r} outside [0, pi)")
        if not out.problems:
            # The doubled phase of the pi loop is 0 mod 2 pi, so the halved
            # readout sits at 0 on the mod-pi circle: the baseline's alias.
            out.estimates += 1
            out.hits += circle_distance(2.0 * theta, 0.0) / 2.0 <= EPSILON_B
        return out

    return check


def _genhard_check(prefix: str, want_yes: bool, threshold: bool):
    def check(truth) -> Outcome:
        out = Outcome()
        prov = _load(prefix + ".provenance.json", out)
        _load(prefix + ".json", out)
        if out.problems:
            return out
        theta = prov.get("oracle_theta_B")
        out.require(_angle_ok(theta), f"{prefix}: oracle theta {theta!r}")
        if out.problems:
            return out
        if prov["kind"] == "bqp":
            # Compiled YES lands in (0, pi/2], NO in [3 pi/2, 2 pi).
            in_arc = 0.0 < theta <= math.pi / 2 if want_yes else theta >= 1.5 * math.pi
            out.require(in_arc, f"{prefix}: oracle theta {theta:.6g} outside its arc")
        if threshold:
            out.require(prov["E0"] < prov["E_th"] < prov["E1"],
                        f"{prefix}: E_th does not separate E0 from E1")
        a, b, _ = prov["interval"]
        out.decide(int(a <= theta <= b), int(want_yes))
        out.require(out.right == out.decisions, f"{prefix}: oracle decision wrong")
        return out

    return check


def _oracle_check(path: str, truth_of, gap=None, tol=None):
    def check(truth) -> Outcome:
        out = Outcome()
        res = _load(path, out)
        sweep = path + ".sweep.csv"
        try:
            with open(sweep) as fh:
                rows = fh.read().splitlines()
            out.require(len(rows) == 34, f"{sweep}: {len(rows)} lines, want 34")
        except OSError as exc:
            out.problems.append(f"{sweep}: {exc}")
        if res is None or out.problems:
            return out
        theta = res.get("theta_B")
        out.require(_angle_ok(theta), f"{path}: theta_B {theta!r}")
        if out.problems:
            return out
        want = truth_of(truth)
        if tol is not None:
            out.require(circle_distance(theta, want) <= tol,
                        f"{path}: theta_B {theta:.8f} not within {tol} of {want:.8f}")
        if gap is not None:
            out.require(abs(res["min_gap"] - gap) <= 1e-9, f"{path}: min_gap {res['min_gap']}")
        out.estimate(theta, want)
        return out

    return check


def _binomial_ok(rate: float, p: float, n: int, slack: float) -> bool:
    """rate within 5 sigma of p, widened by ``slack`` for estimator misses."""
    return abs(rate - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n) + slack + 1e-12


def _verify_check(path: str, gate_passes: bool, yes: bool, accept_p: float, theta_truth):
    def check(truth) -> Outcome:
        out = Outcome()
        res = _load(path, out)
        if res is None:
            return out
        runs = res.get("runs", [])
        out.require(res.get("n_runs") == VERIFY_RUNS and len(runs) == VERIFY_RUNS,
                    f"{path}: {len(runs)} runs, want {VERIFY_RUNS}")
        if out.problems:
            return out
        # A missed estimate turns a certain accept into a 1/3 coin (or back),
        # so the band is widened by the estimator's failure budget eta.
        slack = 0.05 if gate_passes else 0.0
        rate = res["accept_rate"]
        out.require(_binomial_ok(rate, accept_p, VERIFY_RUNS, slack),
                    f"{path}: accept rate {rate:.4f} outside the band around {accept_p:.4f}")
        for run in runs:
            if run["energy_pass"] != gate_passes:
                out.decide(run["energy_pass"], gate_passes)
                continue
            if not gate_passes:
                out.decide(False, False)
                continue
            theta = run["theta_estimate"]
            out.estimate(theta, theta_truth)
            interval = run["transcript"][-1]
            out.decide(interval["in_yes_interval"], int(yes))
        return out

    return check


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------


def jobs(workload: str, seed: int) -> list:
    """The workload's commands, in the order one pass runs them."""
    if workload == "estimate":
        names = ["eq", "tilted"] + [f"rand{i}" for i in range(len(RANDOM_FAMILY_QUBITS))]
        names += ["bqp-yes", "bqp-no", "murta-eq"]
        seeds = _cli_seeds(workload, seed, len(names))
        analytic = {"eq": math.pi, "tilted": math.pi * (1.0 - math.cos(math.pi / 3.0))}
        out = []
        for name, s in zip(names, seeds):
            dst = f"pass/{name}.json"
            if name == "murta-eq":
                argv = ["murta", "--instance", "in/eq.json"]
                check = _murta_check(dst)
            elif name.startswith("bqp"):
                argv = ["bpe", "--instance", f"in/{name}"]
                check = _bpe_check(dst, lambda t, r: r["oracle_theta_B"],
                                   want_decision=int(name == "bqp-yes"))
            elif name in analytic:
                argv = ["bpe", "--instance", f"in/{name}.json"]
                check = _bpe_check(dst, lambda t, r, v=analytic[name]: v)
            else:
                argv = ["bpe", "--instance", f"in/{name}.json"]
                check = _bpe_check(dst, lambda t, r, n=name: t[n])
            out.append(Job(f"{argv[0]}-{name.removeprefix('murta-')}",
                           argv + ["--seed", str(s), "--out", dst], 1, check))
        return out
    if workload == "compile":
        spec = [
            ("bqp-yes", ["--kind", "bqp"], True, False),
            ("bqp-no", ["--kind", "bqp"], False, False),
            ("duqma-yes", ["--kind", "duqma", "--witness", "0"], True, True),
            ("duqma-no", ["--kind", "duqma", "--witness", "0"], False, False),
            ("duqma-yes-m2", ["--kind", "duqma", "--witness", "0", "--idle-steps", "2"],
             True, True),
        ]
        out = []
        for name, flags, yes, threshold in spec:
            circuit = name.removesuffix("-m2")
            out.append(Job(
                f"genhard-{name}",
                ["genhard", "--circuit", f"in/{circuit}.circuit.json", *flags,
                 "--out", f"pass/{name}"],
                1,
                _genhard_check(f"pass/{name}", yes, threshold),
            ))

        def provenance_theta(truth):
            with open("pass/duqma-yes.provenance.json") as fh:
                return json.load(fh)["oracle_theta_B"]

        out.append(Job("oracle-duqma-yes",
                       ["oracle", "--instance", "pass/duqma-yes", "--out", "pass/oracle-duqma.json"],
                       1, _oracle_check("pass/oracle-duqma.json", provenance_theta)))
        out.append(Job("oracle-eq",
                       ["oracle", "--instance", "in/eq.json", "--out", "pass/oracle-eq.json"],
                       1, _oracle_check("pass/oracle-eq.json", lambda t: math.pi, gap=2.0, tol=1e-4)))
        return out
    if workload == "verify":
        # (name, instance, witness, gate passes, YES instance, accept rate, theta_B)
        spec = [
            ("syn-yes-ground", "syn-yes", "ground", True, True, 1.0, math.pi),
            ("syn-no-ground", "syn-no", "ground", True, False, 1.0 / 3.0, 1.5 * math.pi),
            ("syn-yes-excited", "syn-yes", "excited:1", False, True, 0.25, None),
            ("duqma-history1", "duqma-yes", "history:1", False, True, 0.25, None),
        ]
        seeds = _cli_seeds(workload, seed, len(spec))
        out = []
        for (name, inst, witness, gate, yes, p, theta), s in zip(spec, seeds):
            dst = f"pass/{name}.json"
            out.append(Job(
                f"verify-{name}",
                ["verify", "--instance", f"in/{inst}", "--witness", witness,
                 "--runs", str(VERIFY_RUNS), "--seed", str(s), "--out", dst],
                VERIFY_RUNS,
                _verify_check(dst, gate, yes, p, theta),
            ))
        return out
    raise ValueError(f"unknown workload {workload!r}")
