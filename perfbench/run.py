"""freepick benchmark: one seeded workload, checked outputs, named metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-series --seed 1 --seconds 20 --trace 0

The workload runs as a closed loop from this single process: each task is
issued only after the previous one returned. The timed phase runs whole
rounds of the workload's task list and stops at the first round boundary
after --seconds, so every run sees the same mix of task shapes. A task's
latency covers its library calls only; its output check runs after the
timing ends and is not timed.

--trace 0 prints the end-to-end metrics (see BENCHMARK.json). --trace 1
alternates untraced and traced rounds, prints the per-layer metrics from
the traced rounds and trace_overhead_frac from the pair, and writes the
spans to .perfbench_runs/. The last stdout line is always one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread, set before numpy is first imported, so every run is a
# plain single-threaded baseline on a shared machine.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Stats:
    """Latencies of passing tasks, failure count and busy time of the loop."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.failures: list[str] = []

    def record(self, kind: str, seconds: float, error: str | None) -> None:
        self.attempted += 1
        self.busy += seconds
        if error is None:
            self.latencies.append(seconds)
        else:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{kind}: {error}")


def run_round(tasks, stats: Stats, tracer=None) -> None:
    """Issue every task once, in order; time the call, then check its output."""
    for task in tasks:
        if tracer is not None:
            root = tracer.open("task." + task.kind)
            tracer.enabled = True
        start = time.perf_counter()
        try:
            out = task.run()
            error = None
        except Exception as exc:  # a raising task is a failed task, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
            tracer.close(root, error is not None)
        if error is None:
            try:
                error = task.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        stats.record(task.kind, seconds, error)


def timed_loop(tasks, seconds: float, stats: Stats) -> int:
    """Whole rounds until --seconds have passed; returns the number of rounds."""
    rounds = 0
    start = time.perf_counter()
    while True:
        run_round(tasks, stats)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return rounds


def traced_loop(tasks, seconds: float, plain: Stats, traced: Stats, tracer) -> None:
    """Alternate untraced and traced rounds until --seconds have passed."""
    start = time.perf_counter()
    while True:
        run_round(tasks, plain)
        tracer.install()
        try:
            run_round(tasks, traced, tracer)
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return


def latency_metrics(stats: Stats) -> dict:
    if len(stats.latencies) < 2:
        raise SystemExit("fewer than two passing tasks; no latency percentiles")
    deciles = statistics.quantiles(stats.latencies, n=10, method="inclusive")
    p90 = deciles[8]
    above = sum(1 for x in stats.latencies if x > p90)
    if above < 10:
        print(f"warning: only {above} tasks above the p90; lengthen --seconds", file=sys.stderr)
    return {
        "tasks_per_s": {"value": len(stats.latencies) / stats.busy, "unit": "tasks/s"},
        "task_p50_ms": {"value": deciles[4] * 1e3, "unit": "ms"},
        "task_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
    }, above


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import freepick, freepick.cli, freepick.jsonio, numpy; print(time.perf_counter() - t)"
)


def child_import_s(src: Path) -> float:
    """Import time of numpy and freepick in a fresh interpreter (same BLAS pin)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)], capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def blas_threads():
    """Thread count reported by the OpenBLAS numpy links against, if found."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
    }


def main(argv=None) -> dict:
    args = parse_args(argv)
    src = ROOT / "src"
    fixtures = ROOT / "tests" / "fixtures"
    if not (src / "freepick" / "__init__.py").is_file() or not fixtures.is_dir():
        print(f"perfbench: no freepick sources under {src} or fixtures under {fixtures}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    t_import = time.perf_counter()
    import freepick
    import freepick.cli
    import freepick.jsonio
    import numpy

    import_s = statistics.median([time.perf_counter() - t_import] + [child_import_s(src) for _ in range(2)])
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        raise SystemExit(2)
    build = workloads.WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_runs"
    env = environment(args, numpy.__version__)
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            workdir = work_root / f"setup{rep}"
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            tasks, warmup = build(freepick, args.seed, workdir, fixtures)
            for task in warmup:
                task.run()
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)

        if args.trace == 0:
            stats = Stats()
            rounds = timed_loop(tasks, args.seconds, stats)
            metrics, above = latency_metrics(stats)
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
            summary = {
                "tasks_per_round": len(tasks),
                "rounds": rounds,
                "passed": len(stats.latencies),
                "above_p90": above,
                "failed_frac": stats.failed / stats.attempted,
            }
            attempted, failed, failures = stats.attempted, stats.failed, stats.failures
        else:
            plain, traced = Stats(), Stats()
            tracer = spans.Tracer(freepick)
            traced_loop(tasks, args.seconds, plain, traced, tracer)
            metrics = tracer.metrics(traced.attempted)
            metrics["trace_overhead_frac"] = {"value": traced.busy / plain.busy - 1.0, "unit": "ratio"}
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            failures = plain.failures + traced.failures
            summary = {"tasks_per_round": len(tasks), "traced_tasks": traced.attempted, "spans": len(tracer.spans), "failed_frac": failed / attempted}
            out_dir.mkdir(exist_ok=True)
            stem = f"{args.workload}-seed{args.seed}"
            tracer.write(out_dir / f"spans-{stem}.jsonl", {"env": env, "traced_tasks": traced.attempted})
            (out_dir / f"layers-{stem}.txt").write_text(layer_text(tracer.layer_table(), traced.attempted), encoding="utf-8")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if work_root.parent.is_dir() and not any(work_root.parent.iterdir()):
            work_root.parent.rmdir()

    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir.mkdir(exist_ok=True)
    record = {"env": env, "summary": summary, "setup_runs_s": setup_times, "import_s": import_s, **result}
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("env " + json.dumps(env, sort_keys=True))
    print("summary " + json.dumps(summary, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return result


def layer_text(table: dict, tasks: int) -> str:
    """Self-time table per span name, heaviest first."""
    lines = [f"{'span':<44} {'calls/task':>11} {'self ms/task':>13} {'total ms/task':>14} {'raised':>7}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(
            f"{name:<44} {row['calls'] / tasks:>11.3f} {row['self_ns'] / 1e6 / tasks:>13.4f} "
            f"{row['total_ns'] / 1e6 / tasks:>14.4f} {row['raised']:>7d}"
        )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
