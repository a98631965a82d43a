"""critshe benchmark: one workload per run, checked outputs, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload moment-n3-qmc --seed 2026 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: set-up time of
fresh interpreters, then closed-loop passes of the workload until the next
pass would end after ``--seconds`` (at least one pass).  With ``--trace 1`` it
runs one untraced and one traced pass, the single-thread baseline of the
workload's threaded call, and the layer micro kernels, and reports the
per-layer metrics; the spans go to ``.perfbench/`` in the repository root.

Earlier stdout lines carry the environment and per-pass details; the last
line is {"correct", "attempted", "failed", "metrics"}.  Exit code 2 means the
benchmark could not run (no ``src/critshe`` next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import micro
import tracing
import warmup
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": _nproc(),
        "threads": threads,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_setup() -> float:
    """Median wall time of fresh interpreters running ``warmup.py``."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).with_name("warmup.py")), str(SRC)],
                       cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Run:
    """The checked passes of one run and their tallies."""

    def __init__(self, workload: str, seed: int, threads: int):
        self.workload, self.seed, self.threads = workload, seed, threads
        self.attempted = 0
        self.failed: list[str] = []
        self.records: list[dict] = []

    def tally(self, checks) -> None:
        self.attempted += len(checks)
        self.failed += [name for name, ok in checks if not ok]

    def one_pass(self, label: str) -> tuple[dict | None, float, float]:
        """Run, time and check one pass; returns (outputs, wall s, cpu s)."""
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            out = workloads.PASSES[self.workload](self.seed, self.threads)
        except Exception:  # a crash is a failed operation, not a benchmark error
            traceback.print_exc()
            out = None
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        checks = workloads.CHECKS[self.workload](out) if out is not None else [("pass-completed", False)]
        self.tally(checks)
        if out is not None and not self.records:
            blind = workloads.self_test(self.workload, out)
            self.tally([(f"self-test-{name}", False) for name in blind])
        self.records.append({"pass": label, "wall_s": wall, "cpu_s": cpu,
                             "failed": [n for n, ok in checks if not ok]})
        return out, wall, cpu


def run_untraced(run: Run, seconds: float) -> dict:
    setup_s = measure_setup()
    warmup.warm_up()
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        _, wall, cpu = run.one_pass(f"timed-{len(walls)}")
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() - start + wall > seconds:
            break
    n = len(walls)
    # highest percentile with at least ten passes beyond it
    tail = None
    if n > 10:
        tail = {"percentile": 100.0 * (n - 10) / n, "wall_s": sorted(walls)[n - 11]}
    print(json.dumps({"wall_s": {"median": statistics.median(walls), "passes": n, "tail": tail}}))
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(run: Run) -> dict:
    warmup.warm_up()
    out, untraced_wall, _ = run.one_pass("untraced")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, traced_wall, _ = run.one_pass("traced")
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)

    for name, layer in (("moment-n3-qmc", "simplexint"), ("prelimit-n2", "shesim")):
        eff = 0.0
        if run.workload == name and out is not None:
            eff = 1.0
            if run.threads > 1:
                wall_1, same = workloads.single_thread(name, run.seed, out)
                run.tally([("thread-count-invariance", same)])
                eff = wall_1 / (run.threads * out["sampling_s"])
        metrics[f"{layer}.parallel_eff"] = (eff, "ratio")
    metrics["s_to_1pct"] = (workloads.s_to_1pct(run.workload, out) if out is not None else 0.0, "s")
    for k, v in micro.run_all().items():
        metrics[k] = (v, "ms" if k.endswith("_ms") else "s")
    metrics["trace_overhead_s"] = (traced_wall - untraced_wall, "s")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{run.workload}-seed{run.seed}.json")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "critshe" / "__init__.py").is_file():
        print(f"error: no critshe package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    threads = _nproc()
    print(json.dumps({"environment": environment(threads), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    run = Run(args.workload, args.seed, threads)
    metrics = run_traced(run) if args.trace else run_untraced(run, args.seconds)
    print(json.dumps({"passes": run.records, "failed_checks": run.failed,
                      "fail_frac": len(run.failed) / max(run.attempted, 1)}))
    print(json.dumps({
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
