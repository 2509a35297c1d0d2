"""Certification benchmark for cqwiretap: time-to-certificate end to end,
and time and counts per library layer.

Run from the root of a source checkout (no install needed; ``src`` is put
on the path)::

    python3 perfbench/run.py --workload modular-pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a closed loop with one client: this single-threaded
process (numpy's BLAS is held to one thread) runs the jobs back to back
in-process through ``cqwiretap.cli.main``.  A job is one CLI call, except
in ``modular-pipeline`` where it is a whole pipeline.  Jobs are taken in
whole passes over the workload's catalogue, in a seeded order per pass,
for as long as the next pass is expected to end within ``--seconds``.
Every job's outputs are checked (``workloads.check_job``) and one job is
rerun for a byte-identical report.

The end-to-end times take each catalogue job at its median latency over
the run's passes.  Before the first job and after every job a fixed
calibration (``Calibration``) that calls no cqwiretap code is timed, and
every job time is scaled by ``CALIBRATION_REF_S`` over the median of the
six calibration samples nearest it: the speed of a shared host drifts by
up to twofold for minutes at a time, and the scaled times are those of
the run at the speed the benchmark was sized at.  ``jobs_per_s`` is the catalogue size over the sum of the
scaled per-job medians, ``job_p50_s`` their median and ``job_tail_s``
their maximum, the slowest job of the catalogue.  ``setup_s`` is scaled
the same way, by calibration samples taken between the set-up processes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the passes
with every public library function wrapped (``tracer.py``), then the same
passes untraced, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with run metadata, latencies and spans, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one client on one thread: OpenBLAS threads on a small shared host spin on
# the other cores and make the timings depend on who else runs there; set
# before numpy is first imported, here and in every set-up process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("adversarial-search", "modular-pipeline", "typical-projection")
SETUP_REPEATS = 15
# median time of one calibration sample on the machine the benchmark was
# sized on (2-core x86 VM, Python 3.11, numpy 2.4 with OpenBLAS on one thread)
CALIBRATION_REF_S = 0.030
CALIBRATION_SEED = 2001_05719


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", default=None, help=argparse.SUPPRESS)
    return parser


def _library_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# set-up: a fresh process imports the CLI and writes the workload's files


def _setup_child(workload, seed, directory):
    sys.path.insert(0, str(SRC))
    import cqwiretap.cli  # noqa: F401  (the import every CLI user pays)
    import workloads

    workloads.generate(workload, seed, Path(directory))


def _setup(workload, seed, directory, calibration):
    """Wall times of SETUP_REPEATS fresh set-up processes, and the same
    times scaled by the calibration samples taken before and after each."""
    times = []
    calibration.sample()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup", str(directory)]
        start = time.perf_counter()
        done = subprocess.run(cmd, env=_library_env(), capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr[-2000:]}")
        calibration.sample()
    return times, calibration.scaled(times)


# ---------------------------------------------------------------------------
# calibration: the machine's speed, from work that calls no cqwiretap code


class Calibration:
    """Times a fixed mix of the kinds of work the library does: a
    pure-Python loop, numpy calls on 2x2 and 4x4 operators, Kronecker
    products up to 32x32, and Hermitian eigensolves at 128 and 256 (about
    30 ms).

    On a shared host the CPU's speed drifts by up to twofold, for seconds
    to minutes at a time.  A time measured among samples, divided by
    their median and multiplied by CALIBRATION_REF_S, is the time it
    would have taken at the speed the benchmark was sized at.  The
    calibration runs none of the program's code, so a change to the
    program moves the scaled times by as much as it moves the raw ones.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        g = np.random.Generator(np.random.Philox(CALIBRATION_SEED))
        self.large = []
        for dim in (128, 256):
            a = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
            self.large.append(a + a.conj().T)
        b = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
        self.small = (b + b.conj().T) / 4
        self.samples = []

    def sample(self):
        np = self.np
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i % 7
        x = self.small
        for _ in range(100):
            x = (x @ self.small + self.small @ x.conj().T) / 2
            np.linalg.eigvalsh(np.kron(x, self.small))
        for _ in range(60):
            np.kron(np.kron(np.kron(self.small, self.small), self.small), np.eye(4)).sum()
        for large in self.large:
            np.linalg.eigvalsh(large)
        self.samples.append(time.perf_counter() - start)

    def scaled(self, times):
        """The last ``len(times)`` times, each taken between two of the
        last ``len(times) + 1`` samples, at the reference speed: each is
        scaled by the median of the six samples nearest it, three before
        and three after, so that one disturbed sample does not move it."""
        around = self.samples[-len(times) - 1:]
        return [t * CALIBRATION_REF_S / statistics.median(around[max(0, i - 2):i + 4])
                for i, t in enumerate(times)]


# ---------------------------------------------------------------------------
# metadata


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _metadata(workload, seed):
    import numpy as np

    from cqwiretap import _kernels
    import workloads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except Exception:  # the config layout differs across numpy versions
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cqwiretap").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "numba_present": bool(_kernels.HAS_NUMBA),
        "numba_active": bool(_kernels.USE_NUMBA),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# the measured loop


class Loop:
    """Runs passes over the plan and checks every job's outputs."""

    def __init__(self, seed, plan, reference):
        import workloads

        self.workloads = workloads
        self.seed = seed
        self.plan = plan
        self.reference = reference
        self.latencies = []
        self.scaled = []  # latencies at the reference speed, from calibrated passes
        self.job_ids = []
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.first_ok = None  # (job id, output bytes) of the first checked job

    def job(self, job_id, wrap=None):
        steps = self.plan["jobs"][job_id]
        start = time.perf_counter()
        try:
            if wrap is None:
                results = self.workloads.run_job(steps)
            else:
                with wrap(job_id):
                    results = self.workloads.run_job(steps)
            problems = []
        except Exception as exc:  # a job that raises counts as failed
            results, problems = None, [f"{job_id}: raised {exc!r}"]
        elapsed = time.perf_counter() - start
        if results is not None:
            try:
                problems = self.workloads.check_job(job_id, steps, results, self.reference)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                problems = [f"{job_id}: unreadable output: {exc!r}"]
        return elapsed, problems

    def passes(self, seconds=None, count=None, wrap=None, calibration=None):
        """Run ``count`` whole passes, or, without a count, whole passes for
        as long as the next one is expected to end within ``seconds`` of
        wall time (at least one).  With a ``calibration``, a sample is
        taken before the first job and after every job, and every job's
        scaled time goes to ``self.scaled``.  Return the number of passes
        and the summed job time."""
        measured = 0.0
        latencies = []
        start = time.perf_counter()
        if calibration is not None:
            calibration.sample()
        index = 0
        while True:
            for job_id in self.workloads.pass_order(self.plan, self.seed, index):
                elapsed, problems = self.job(job_id, wrap)
                if calibration is not None:
                    calibration.sample()
                measured += elapsed
                latencies.append(elapsed)
                self.job_ids.append(job_id)
                self.attempted += 1
                if problems:
                    self.failed += 1
                    self.problems += problems
                elif self.first_ok is None:
                    steps = self.plan["jobs"][job_id]
                    self.first_ok = (job_id, self.workloads.output_bytes(steps))
            index += 1
            wall = time.perf_counter() - start
            if index == count or (count is None and wall * (index + 1) / index > seconds):
                break
        self.latencies += latencies
        if calibration is not None:
            self.scaled += calibration.scaled(latencies)
        return index, measured

    def warm_up(self):
        job_id = self.workloads.pass_order(self.plan, self.seed, 0)[0]
        _, problems = self.job(job_id)
        self.problems += problems

    def rerun_identical(self):
        """Rerun the first checked job; its outputs must match byte for byte."""
        if self.first_ok is None:
            self.problems.append("no job passed its checks, nothing to rerun")
            return
        job_id, before = self.first_ok
        _, problems = self.job(job_id)
        after = self.workloads.output_bytes(self.plan["jobs"][job_id])
        self.problems += problems
        for path in before:
            if before[path] != after[path]:
                self.problems.append(f"{job_id}: rerun changed {Path(path).name}")


def _median_per_job(job_ids, latencies):
    """Each catalogue job's median latency over the run's passes, sorted."""
    per_job = {}
    for job_id, elapsed in zip(job_ids, latencies):
        per_job.setdefault(job_id, []).append(elapsed)
    return sorted(statistics.median(times) for times in per_job.values())


def run_workload(args):
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        calibration = Calibration()
        setup_times, setup_scaled = _setup(args.workload, args.seed, work, calibration)
        import cqwiretap
        import workloads

        plan = json.loads((work / "plan.json").read_text())
        reference = json.loads((BENCH / "reference.json").read_text())[args.workload]
        loop = Loop(args.seed, plan, reference)
        loop.warm_up()
        record = {"metadata": _metadata(args.workload, args.seed), "setup_times_s": setup_times,
                  "setup_scaled_s": setup_scaled}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(cqwiretap)
            tracer.install()
            try:
                n_passes, traced_s = loop.passes(args.seconds / 2, wrap=tracer.job)
            finally:
                tracer.uninstall()
            traced_jobs = loop.attempted
            _, untraced_s = loop.passes(count=n_passes)
            metrics = tracer.metrics()
            metrics["trace.wall_s"] = (traced_s, "s")
            metrics["trace.untraced_wall_s"] = (untraced_s, "s")
            metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
            metrics["trace.jobs"] = (traced_jobs, "count")
            record["spans"] = tracer.spans
        else:
            n_passes, _ = loop.passes(args.seconds, calibration=calibration)
            raw = _median_per_job(loop.job_ids, loop.latencies)
            job_s = _median_per_job(loop.job_ids, loop.scaled)
            metrics = {
                "jobs_per_s": (len(job_s) / sum(job_s), "jobs/s"),
                "job_p50_s": (statistics.median(job_s), "s"),
                "job_tail_s": (job_s[-1], "s"),
                "ok_frac": (1.0 - loop.failed / loop.attempted, "ratio"),
                "setup_s": (statistics.median(setup_scaled), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            record["unscaled"] = {
                "jobs_per_s": len(raw) / sum(raw), "job_p50_s": statistics.median(raw),
                "job_tail_s": raw[-1], "setup_s": statistics.median(setup_times),
            }
            record["calibration_s"] = calibration.samples
            record["scaled_jobs"] = loop.scaled
            record["passes"] = n_passes
            record["jobs"] = list(zip(loop.job_ids, loop.latencies))
        loop.rerun_identical()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not loop.problems
    for line in loop.problems[:20]:
        print(f"CHECK FAILED: {line}")
    meta = record["metadata"]
    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    print("metadata " + json.dumps(meta, sort_keys=True))
    print(f"jobs {loop.attempted} failed {loop.failed} failed_frac {loop.failed / loop.attempted:.4g}")
    if not args.trace:
        print(f"job times are each catalogue job's median over {record['passes']} passes, "
              f"at the reference speed (median calibration sample "
              f"{statistics.median(record['calibration_s']) * 1e3:.4g} ms, reference "
              f"{CALIBRATION_REF_S * 1e3:.4g} ms); unscaled " + json.dumps(record["unscaled"], sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:34s} {value:>16.6g} {unit}")
    record.update({"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "problems": loop.problems, "attempted": loop.attempted, "failed": loop.failed})
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=float) + "\n"
    )
    return {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr[-2000:], file=sys.stderr)
            raise SystemExit(f"workload {workload} exited {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None):
    args = _parser().parse_args(argv)
    if not (SRC / "cqwiretap" / "cli.py").is_file():
        print(f"perfbench: no cqwiretap sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup:
        _setup_child(args.workload, args.seed, args.setup)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
