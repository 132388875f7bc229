"""Self-test of the benchmark: its checks catch wrong output, and a short run
prints every metric named in BENCHMARK.json with its unit.

    python3 perfbench/selftest.py

For every task kind of every workload, the test first runs the task and
requires its check to pass, then feeds deliberately wrong versions of the
same output (gate 13's entrywise-|.| evaluator, a perturbed derivative, a
flipped verdict, a wrong exit code, a tampered report, ...) through the
benchmark's own round runner and requires each to be counted as failed.
Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _scaled(M, factor: float = 1 + 1e-5):
    return np.asarray(M) * factor


def _tamper(out):
    """Change one byte of a CLI report on disk, keeping it valid JSON."""
    rc, path = out
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"command"', '"command" ', 1), encoding="utf-8")
    return rc, path


def _wrong_rc(out):
    rc, path = out
    return (0 if rc else 2), path


def _flip_verdict(cert):
    return dataclasses.replace(cert, verdict="refuted" if cert.verdict == "certified_psd" else "certified_psd")


def _negative_choi(report):
    c = report.coordinates[0]
    bad = dataclasses.replace(c, report=dataclasses.replace(c.report, min_eig=-1e-3, is_psd=False))
    return dataclasses.replace(report, coordinates=(bad,) + report.coordinates[1:])


def _axiom_residual(report):
    t = report.trials[0]
    return dataclasses.replace(report, trials=(dataclasses.replace(t, similarity_residual=1e-6),) + report.trials[1:])


# task kind -> wrong versions of a correct output
CORRUPTIONS = {
    "series": (
        lambda o: (dataclasses.replace(o[0], value=np.abs(o[0].value)), o[1], o[2]),
        lambda o: (o[0], o[1], _scaled(o[2])),
        lambda o: (o[0], _scaled(o[1], 1 + 1e-8), o[2]),
    ),
    "hardy": (
        lambda o: (dataclasses.replace(o[0], K=o[0].K * (1 + 1e-6)), o[1]),
        lambda o: (o[0], dataclasses.replace(o[1], coeffs={w: c * (1 + 1e-6) for w, c in o[1].coeffs.items()})),
    ),
    "localizing": (_scaled,),
    "certify": (_flip_verdict,),
    "hamburger": (lambda o: (o[0], o[1] + 1e-3 * np.eye(o[1].shape[0])),),
    "choi": (_negative_choi,),
    "herglotz": (lambda o: (np.abs(o[0]), o[1]), lambda o: (o[0], o[1] * 1.5)),
    "herglotz_center": (lambda h: h + 1e-9,),
    "pick": (lambda h: np.conj(h),),
    "bridge": (lambda o: (o[0] * (1 + 1e-8), o[1], o[2]),),
    "axioms": (_axiom_residual,),
}
CLI_CORRUPTIONS = (_wrong_rc, _tamper)


def corruptions(kind: str):
    return CLI_CORRUPTIONS if kind.startswith("cli.") else CORRUPTIONS[kind]


def check_catches_bad_output(fp, workloads, workdir: Path) -> int:
    fixtures = ROOT / "tests" / "fixtures"
    caught = 0
    for name, build in workloads.WORKLOADS.items():
        tasks, _warmup = build(fp, 11, workdir / name, fixtures)
        seen: set[str] = set()
        for task in tasks:
            if task.kind in seen and not task.kind.startswith("cli."):
                continue
            seen.add(task.kind)
            good = run.Stats()
            run.run_round([task, task], good)  # the second call also exercises the repeat check
            if good.failed:
                raise SystemExit(f"{name}/{task.kind}: correct output rejected: {good.failures}")
            for corrupt in corruptions(task.kind):
                wrong = workloads.Task(task.kind, lambda t=task, c=corrupt: c(t.run()), task.check)
                stats = run.Stats()
                run.run_round([wrong], stats)
                if stats.failed != 1:
                    raise SystemExit(f"{name}/{task.kind}: wrong output {corrupt} was not counted as failed")
                caught += 1
        print(f"selftest: {name}: {len(seen)} task kinds, every wrong output counted as failed")

    # gate 13 verbatim: the entrywise-|.| evaluator fails the axiom check
    spec = fp.jsonio.parse_spec(str(fixtures / "type1_rep.json"))
    honest = fp.nevanlinna.representation_evaluator(spec)

    def broken():
        return fp.series.axiom_verify(lambda Z: np.abs(honest(Z)), spec.d, trials=20, seed=0, tol=1e-9, sampler=fp.nevanlinna.pi_sampler(spec.d))

    stats = run.Stats()
    run.run_round([workloads._axiom_task(fp, spec, 0), workloads.Task("axioms", broken, workloads._axiom_task(fp, spec, 0).check)], stats)
    if (stats.attempted, stats.failed) != (2, 1):
        raise SystemExit("gate 13's entrywise-|.| evaluator was not counted as failed")
    return caught + 1


def check_metrics_printed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                result = run.main(["--workload", workload["name"], "--seed", "5", "--seconds", "0.2", "--trace", str(trace)])
            last = json.loads(buf.getvalue().strip().splitlines()[-1])
            if last != json.loads(json.dumps(result)) or set(last) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit(f"{workload['name']}: the last stdout line is not the result object")
            if not last["correct"] or last["failed"]:
                raise SystemExit(f"{workload['name']} trace {trace}: {last['failed']} of {last['attempted']} tasks failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            if got != want:
                raise SystemExit(f"{workload['name']} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
            for name, m in last["metrics"].items():
                if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
                    raise SystemExit(f"{workload['name']}: metric {name} is not a number")
            print(f"selftest: {workload['name']} --trace {trace}: {len(got)} metrics with units, {last['attempted']} tasks passed")


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import freepick
    import freepick.cli
    import freepick.jsonio
    import workloads

    workdir = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for name in workloads.WORKLOADS:
            (workdir / name).mkdir(parents=True)
        caught = check_catches_bad_output(freepick, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {caught} wrong outputs counted as failed")
    check_metrics_printed()
    print("selftest: OK")


if __name__ == "__main__":
    main()
