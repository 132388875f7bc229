"""Compare the CLI's outputs between two freepick source trees, byte for byte.

Usage:

    python3 scripts/compare_reports.py SRC_A SRC_B

SRC_A and SRC_B are directories holding the freepick package (the src/ of
two checkouts). Every CLI example in the README, the series commands of
`series_commands` and `interpolate` at a generic two-letter point run once
per tree in a child interpreter with PYTHONPATH set to that tree and one
BLAS thread. Each run writes its report with --out to report.json in a
fresh working directory of its own, so the argv is the same for both trees.
The report bytes, stdout, stderr and exit code of the two runs are
compared, with the tree's own path in stderr (a warning's source line)
written as <src>. One line per command says `same` or names what differs;
the exit status is 1 when anything differs, else 0.
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# a generic point in two letters (full-rank kernels at degree 5) and a target
GENERIC_POINT = {
    "d": 2,
    "n": 2,
    "matrices": [
        [[[0.31, 0.04], [-0.12, 0.1]], [[0.27, -0.06], [0.05, 0.02]]],
        [[[-0.08, 0.03], [0.22, 0.0]], [[0.14, -0.11], [0.35, 0.07]]],
    ],
}
GENERIC_TARGET = [[1.0, [0.3, -0.2]], [-0.5, [0.7, 0.1]]]


def readme_commands() -> list[list[str]]:
    """The argv of every `freepick ...` line in the README's CLI section,
    backslash continuations joined and fixture paths made absolute."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "freepick":
                commands.append([str(ROOT / a) if a.startswith("tests/fixtures/") else a for a in argv[1:]])
    return commands


def series_commands(point: Path) -> list[list[str]]:
    """The series commands past the README examples: eval and every deriv
    method on halfres, monotone at several degrees (halfres at degree 5 is a
    README example), eval on d2res at the generic point and an axioms fuzz."""

    def fixture(name: str) -> str:
        return str(FIXTURES / f"{name}.json")

    halfres = ["--series", fixture("halfres_series"), "--point", fixture("x_point")]
    commands = [["eval", *halfres]]
    for method in ("block", "localizing", "fd"):
        commands.append(["deriv", *halfres, "--direction", fixture("h_dir"), "--method", method])
    for name, degree in (("x3_series", 1), ("halfres_series", 2), ("d2res_series", 3)):
        commands.append(["monotone", "--series", fixture(name), "--degree", str(degree)])
    commands.append(["eval", "--series", fixture("d2res_series"), "--point", str(point)])
    commands.append(["axioms", "--series", fixture("halfres_series"), "--samples", "10"])
    return commands


def run(src: Path, argv: list[str]) -> tuple[bytes | None, str, str, int]:
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in BLAS_ENV})
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "freepick", *argv, "--out", "report.json"],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        out = Path(cwd) / "report.json"
        report = out.read_bytes() if out.exists() else None
    return report, proc.stdout, proc.stderr.replace(str(src), "<src>"), proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_a", type=Path)
    ap.add_argument("src_b", type=Path)
    args = ap.parse_args()
    trees = [p.resolve() for p in (args.src_a, args.src_b)]
    for p in trees:
        if not (p / "freepick" / "__init__.py").is_file():
            ap.error(f"{p} holds no freepick package")
    with tempfile.TemporaryDirectory() as tmp:
        point, target = Path(tmp) / "generic_point.json", Path(tmp) / "generic_target.json"
        point.write_text(json.dumps(GENERIC_POINT), encoding="utf-8")
        target.write_text(json.dumps(GENERIC_TARGET), encoding="utf-8")
        commands = readme_commands() + series_commands(point)
        commands.append(["interpolate", "--point", str(point), "--direction", str(target), "--degree", "5"])
        differ = 0
        for argv in commands:
            a, b = (run(src, argv) for src in trees)
            bad = [name for name, x, y in zip(("report", "stdout", "stderr", "exit code"), a, b) if x != y]
            differ += bool(bad)
            label = " ".join(Path(x).name if os.sep in x else x for x in argv)
            print(f"{'differ (' + ', '.join(bad) + ')' if bad else 'same'}: {label} (exit {a[3]}/{b[3]})")
    print(f"{len(commands) - differ} of {len(commands)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
