"""berrylab benchmark: one workload of CLI commands per process.

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

- ``estimate``: ``bpe`` on analytic, random and compiled families, ``murta``.
- ``compile``: ``genhard`` for bqp and DUQMA (6, 7 and 9 qubits), ``oracle``.
- ``verify``: ``verify`` with 4000 protocol runs per job on four witnesses.

Load is a closed loop with one client: jobs run one after another, each as
``berrylab.cli.main(argv)`` in this process, and a pass runs every job of the
workload once.  Passes repeat until ``--seconds`` have been measured.  Set-up
(importing ``berrylab.cli`` and generating the inputs from ``--seed``) runs
five times in child processes; ``setup_s`` is their median.  BLAS threads
are capped at the number of usable cores.  Job times are scaled to a
reference machine speed measured around every job (``SpeedProbe``); set-up
times are not.  The raw job times are in the report.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs each job once untraced and then once more untraced and once traced,
reports per-layer metrics from the traced runs (medians over passes) and the
tracing overhead, and checks that all runs of a job write byte-identical
outputs.

Every job's output is checked against independent truth (``workloads.py``).
The last line of stdout is the result as JSON; a fuller report, with machine
information, percentiles, per-job times and output digests, goes to
``perfbench/out/reports/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
REFERENCE_PROBE_S = 0.0004  # one timed SpeedProbe kernel on the reference host, uncontended
SETUP_TIMEOUT_S = 30  # a set-up child takes about 2 s

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (stdlib only at import time)


def _limit_blas_threads() -> int:
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc + 1
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _files(root: str) -> set:
    return {os.path.join(d, f) for d, _, files in os.walk(root) for f in files}


def _digest(paths, base: str = ".") -> str:
    """SHA-256 over the files' paths relative to ``base`` and their contents."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, base).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Set-up: runs in a child process so that the import is timed cold each time
# ---------------------------------------------------------------------------


def setup_child(workload: str, seed: int, dest: str) -> None:
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import berrylab.cli  # noqa: F401

    workloads.generate_inputs(workload, seed, dest)
    setup_s = time.perf_counter() - t0
    workloads.compute_truth(workload, dest)
    inputs = os.path.join(dest, "in")
    print(json.dumps({"setup_s": setup_s, "digest": _digest(_files(inputs), inputs)}))


def run_setups(workload: str, seed: int, base: str) -> tuple[list, list]:
    """(set-up times, input digests), one per child.

    Set-up is not scaled by the speed probe.  It is mostly imports (reading
    files, loading shared libraries), which the probe does not model: over
    ten seeds, scaled set-up spread by 11-26 % and raw set-up by 8-14 %.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times, digests = [], []
    for i in range(SETUP_REPEATS):
        dest = os.path.join(base, f"setup{i}")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-into", dest,
             "--workload", workload, "--seed", str(seed)],
            env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(res["setup_s"])
        digests.append(res["digest"])
    return times, digests


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def start_blas_threads() -> None:
    """Start the BLAS thread pools (numpy's and scipy's) before timing.

    The first threaded OpenBLAS call in a process can take about a second
    (a 128x128 complex eigh: 1033 ms cold, 4.5 ms warm, on a 2-vCPU KVM
    guest with OpenBLAS 0.3.31).  Only the first pass would pay it, so
    passes, and runs with different pass counts, would not be comparable.
    """
    import numpy as np
    import scipy.linalg

    a = np.random.default_rng(0).standard_normal((256, 256)) * (1 + 1j)
    a = a + a.conj().T
    np.linalg.eigh(a)
    scipy.linalg.eigh(a)


class SpeedProbe:
    """How fast this machine runs right now, measured without berrylab.

    The host these figures were made on (a 2-vCPU KVM guest, Xeon at
    2.1 GHz) runs the same code up to 1.6 times slower for seconds to
    minutes at a time, and quartiles of raw job times over ten runs spread
    by 11-18 %.  The probe times a small fixed kernel (interpreter work and
    16x16 eigensolves, about 0.4 ms) before and after a job and, from a
    SIGALRM timer, every ``PERIOD_S`` while the job runs.  The job's time
    without the probe's own share is scaled by ``REFERENCE_PROBE_S`` over
    the mean kernel time (a tenth of the samples at each end left out),
    which reads as seconds on that host at its uncontended speed.  Python runs the handler between bytecodes, so a
    long native call delays a sample but is never interrupted.
    """

    PERIOD_S = 0.2

    def __init__(self) -> None:
        import numpy as np

        m = np.random.default_rng(0).standard_normal((16, 16))
        self.matrix = m + m.T
        self.eigh = np.linalg.eigh
        self.samples: list = []
        self.own = 0.0  # seconds spent sampling inside the current window
        self.active = False
        # Installed once: a SIGALRM that arrives after pause() finds a no-op.
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _kernel(self) -> None:
        for _ in range(10):
            self.eigh(self.matrix)
            acc = 0.0
            for k in range(40):
                acc += math.cos(k * 0.1)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        # A job evicts the kernel from the caches; timing only a second run
        # keeps the job's memory footprint out of the speed reading.
        self._kernel()
        t1 = time.perf_counter()
        self._kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.own += t2 - t0

    def _on_alarm(self, signum, frame) -> None:
        if self.active:
            self._sample()

    def start(self) -> None:
        self.samples = []
        self._sample()
        self.own = 0.0
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.active = False

    def close(self) -> float:
        """Take the closing sample; return the sampling time inside the window."""
        own = self.own
        self._sample()
        return own

    def scale(self, seconds: float) -> float:
        # The kernel's work is fixed, so a sample many times the others was
        # held up (one read 7 ms among 0.4-0.7 ms ones during a 9-qubit
        # build).  A tenth at each end is left out of the mean.
        samples = sorted(self.samples)
        k = len(samples) // 10
        return seconds * REFERENCE_PROBE_S / statistics.fmean(samples[k:len(samples) - k])


def run_job(cli, argv, probe=None) -> tuple:
    """(seconds, scaled seconds or None, exit code, captured output) of one
    CLI command."""
    captured = io.StringIO()
    if probe:
        probe.start()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed job, not a failed benchmark
        code = "traceback"
        captured.write(traceback.format_exc())
    finally:
        if probe:
            probe.pause()
    seconds = time.perf_counter() - t0
    scaled = None
    if probe:
        seconds -= probe.close()
        scaled = probe.scale(seconds)
    return seconds, scaled, code, captured.getvalue()


def run_pass(jobs, truth, cli, probe=None, tracer=None) -> dict:
    """Run every job once into ``pass/``; check outputs after the timer.

    With a probe, each job's time is also scaled to the reference speed.
    With a tracer, each job runs three times, back to back, so that the runs
    see the same machine state: untraced, then untraced and traced in an
    order that alternates from job to job.  A job's first run maps fresh
    memory and fills caches (on compile it read about 7 % slower than the
    next), so only the two later runs are compared.  Every run must write
    the outputs the first one wrote; they are removed before the next run.
    """
    shutil.rmtree("pass", ignore_errors=True)
    os.makedirs("pass")
    times, scaled, traced_times, codes, logs, mismatched = [], [], [], [], [], set()
    for i, job in enumerate(jobs):
        before = _files("pass") if tracer else None
        seconds, scaled_seconds, code, log = run_job(cli, job.argv, probe)
        scaled.append(scaled_seconds)
        if tracer:
            plain = _digest(_files("pass") - before)
            warm = {}
            for traced in (False, True) if i % 2 else (True, False):
                for path in _files("pass") - before:
                    os.remove(path)
                if traced:
                    tracer.install()
                try:
                    warm[traced], _, again_code, _ = run_job(cli, job.argv)
                finally:
                    tracer.uninstall()
                if again_code != code or _digest(_files("pass") - before) != plain:
                    mismatched.add(job.name)
            seconds = warm[False]
            traced_times.append(warm[True])
        times.append(seconds)
        codes.append(code)
        logs.append(log)
    outcomes = []
    for job, code, log in zip(jobs, codes, logs):
        if code == 0:
            outcome = job.check(truth)
        else:
            outcome = workloads.Outcome(problems=[f"exit code {code}: {log[-500:]}"])
        if job.name in mismatched:
            outcome.problems.append("traced and untraced runs wrote different outputs")
        outcomes.append(outcome)
    return {
        "job_s": times,
        "scaled_job_s": scaled,
        "traced_job_s": traced_times,
        "outcomes": outcomes,
        "digest": _digest(_files("pass")),
        "bytes_written": sum(os.path.getsize(p) for p in _files("pass")),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(samples) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    samples = sorted(samples)
    n = len(samples)
    out = {"median": _median(samples), "n": n, "percentile": None, "value": None}
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            out["percentile"] = p
            out["value"] = statistics.quantiles(samples, n=1000, method="inclusive")[
                int(round(p * 10)) - 1
            ]
            break
    return out


def end_to_end(passes, jobs, setup_times) -> dict:
    """The end-to-end metrics; times are scaled to the reference speed."""
    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.problems)
    job_time = sum(t for p in passes for t in p["scaled_job_s"])
    runs = len(passes) * sum(j.runs for j in jobs)
    hits = sum(o.hits for o in outcomes)
    estimates = sum(o.estimates for o in outcomes)
    right = sum(o.right for o in outcomes)
    decisions = sum(o.decisions for o in outcomes)
    return {
        "setup_s": (_median(setup_times), "s"),
        "wall_s": (_median([sum(p["scaled_job_s"]) for p in passes]), "s"),
        "slowest_job_s": (_median([max(p["scaled_job_s"]) for p in passes]), "s"),
        "runs_per_s": (runs / job_time, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_frac": ((attempted - failed) / attempted, "1"),
        "est_hit_rate": (hits / estimates if estimates else 0.0, "1"),
        "decision_accuracy": (right / decisions if decisions else 0.0, "1"),
    }


# ---------------------------------------------------------------------------
# Machine information
# ---------------------------------------------------------------------------


def _blas_info() -> list:
    import ctypes

    libs = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path not in libs:
                libs.append(path)
    info = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        info.append(entry)
    return info


def machine_info(nproc: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            # A checkout that is not a repository must not report an enclosing one.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "berrylab", "cli.py")):
        print(f"error: no berrylab source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = _limit_blas_threads()
    if args.setup_into:
        setup_child(args.workload, args.seed, args.setup_into)
        return 0

    sys.path.insert(0, SRC)
    import berrylab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported berrylab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer, unit

        tracer = Tracer()  # fails here, before any work, if a layer function is gone
    machine = machine_info(nproc)
    start_blas_threads()
    probe = None if tracer else SpeedProbe()  # traced passes compare raw times

    base = os.path.join(OUT, args.workload)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    setup_times, setup_digests = run_setups(args.workload, args.seed, base)
    os.chdir(os.path.join(base, "setup0"))
    with open("truth.json") as fh:
        truth = json.load(fh)
    jobs = workloads.jobs(args.workload, args.seed)

    passes = []
    t_start = time.perf_counter()
    while True:
        p = run_pass(jobs, truth, cli, probe, tracer)
        if tracer:
            p["layers"] = tracer.take()
        passes.append(p)
        if time.perf_counter() - t_start >= args.seconds:
            break

    outcomes = [o for p in passes for o in p["outcomes"]]
    problems = [f"{j.name}: {msg}" for p in passes for j, o in zip(jobs, p["outcomes"])
                for msg in o.problems]
    if len(set(setup_digests)) != 1:
        problems.append(f"set-up is not deterministic: input digests {setup_digests}")
    if len({p["digest"] for p in passes}) != 1:
        problems.append("passes wrote different outputs: "
                        + ", ".join(p["digest"][:12] for p in passes))

    if tracer is None:
        metrics = end_to_end(passes, jobs, setup_times)
    else:
        metrics = {}
        for name in passes[0]["layers"]:
            metrics[name] = (_median([p["layers"][name] for p in passes]), unit(name))
        metrics["cli.bytes_written"] = (passes[0]["bytes_written"], "B")
        metrics["trace.overhead_frac"] = (
            _median([sum(p["traced_job_s"]) / sum(p["job_s"]) - 1.0 for p in passes]), "1"
        )

    timings = {
        "setup_s": summarize(setup_times),
        "raw_jobs": {
            j.name: summarize([p["job_s"][i] for p in passes]) for i, j in enumerate(jobs)
        },
    }
    if tracer is None:
        timings["wall_s"] = summarize([sum(p["scaled_job_s"]) for p in passes])
        timings["raw_wall_s"] = summarize([sum(p["job_s"]) for p in passes])
        timings["jobs"] = {
            j.name: summarize([p["scaled_job_s"][i] for p in passes]) for i, j in enumerate(jobs)
        }
    else:
        timings["traced_jobs"] = {
            j.name: summarize([p["traced_job_s"][i] for p in passes]) for i, j in enumerate(jobs)
        }
        durations = {}
        for fid, start, end in zip(tracer.span_fn, tracer.span_start, tracer.span_end):
            durations.setdefault(tracer.names[fid], []).append(end - start)
        timings["spans"] = {name: summarize(d) for name, d in sorted(durations.items())}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "passes": len(passes),
        "input_digest": setup_digests[0],
        "output_digest": passes[0]["digest"],
        "timings": timings,
        "outcomes": {
            j.name: {k: sum(getattr(p["outcomes"][i], k) for p in passes)
                     for k in ("hits", "estimates", "right", "decisions")}
            for i, j in enumerate(jobs)
        },
        "problems": problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    reports = os.path.join(OUT, "reports")
    os.makedirs(reports, exist_ok=True)
    stem = os.path.join(reports, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=2)
    if tracer is not None:  # the latest traced run's spans, per workload
        with open(os.path.join(reports, f"{args.workload}.spans.json"), "w") as fh:
            json.dump(tracer.spans(), fh)

    for msg in problems[:20]:
        print(f"problem: {msg}")
    for name, t in [("setup_s", timings["setup_s"]), ("wall_s", timings.get("wall_s"))] + [
        (f"job {name}", t) for name, t in timings.get("jobs", {}).items()
    ]:
        if t is None:
            continue
        tail = f", p{t['percentile']:g} {t['value']:.4f}" if t["percentile"] else ""
        print(f"timing: {name}: median {t['median']:.4f} s over {t['n']} samples{tail}")
    print(f"machine: {json.dumps(machine)}")
    print(f"passes: {len(passes)}{' (traced)' if tracer else ''}; output digest {passes[0]['digest']}")
    print(f"report: {os.path.relpath(stem + '.json', ROOT)}")
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
