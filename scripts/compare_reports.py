"""Compare the CLI's outputs between two freepick source trees, byte for byte.

Usage:

    python3 scripts/compare_reports.py SRC_A SRC_B

SRC_A and SRC_B are directories holding the freepick package (the src/ of
two checkouts). Every CLI example in the README, the series commands of
`series_commands` (three of them on malformed series, which fail with
a schema error), the tuple commands of `tuple_commands`, `interpolate`
at a generic two-letter point and the five commands of `edge_commands`
(the sparse series where its report has exact zeros, two series whose
header the constructor refuses, and eval and monotone on a real-free
series of degree 70) run once per tree, as do `interpolate` and the
localizing `deriv` of d2res at a generated 3 x 3 two-letter point, and the
two Herglotz forms of `herglotz_commands` on a generated model. Each
tree's commands run in one child interpreter with PYTHONPATH set to that
tree and one BLAS thread, which calls `freepick.cli.main` once per
command. Each command runs in a fresh working directory of its own and
writes its report with --out to
report.json there, so the argv is the same for both trees. Its stdout and
stderr are captured, its exit code is main's return value or the code of
the SystemExit it raised, and it runs inside `warnings.catch_warnings()`,
so a warning prints for each command as it would in a fresh process.
The report bytes, stdout, stderr and exit code of the two runs are
compared, with the tree's own path in stderr (a warning's source line)
written as <src> and the line number of a source location under it as
<line>, so an edit that only moves the warning's calling line compares
the same. One line per command says `same` or names what differs; the exit
status is 1 when anything differs, else 0.
"""

import argparse
import contextlib
import io
import json
import math
import os
import pickle
import re
import shlex
import subprocess
import sys
import tempfile
import traceback
import warnings
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


def generated_matrix(n: int, phase: int, scale: float) -> list:
    """An n x n matrix of [re, im] entries, each part scale times a sine or
    cosine of the entry's position, rounded to four places."""
    return [
        [[round(scale * math.sin(phase + 3 * i + 7 * j + 1), 4), round(scale * math.cos(2 * phase + 5 * i + 2 * j), 4)] for j in range(n)]
        for i in range(n)
    ]


# a generated 3 x 3 two-letter point, a direction and an interpolation
# target, for a size that neither the fixtures nor the generic point reach.
# The point's norms (about 1.6) keep the degree-4 kernel Gram well
# conditioned (about 33), so the interpolant moves only as far as the
# monomial stack's own rounding; the localizing deriv there warns that the
# point is off the small polydisk
WIDE_POINT = {"d": 2, "n": 3, "matrices": [generated_matrix(3, k, 0.7) for k in (1, 2)]}
WIDE_DIRECTION = {"d": 2, "n": 3, "matrices": [generated_matrix(3, k, 0.5) for k in (3, 4)]}
WIDE_TARGET = generated_matrix(3, 5, 1.0)


def phase_permutation(size: int) -> list:
    """A size x size unitary of [re, im] entries: column k holds
    cos(1 + 2k) + i sin(1 + 2k) in row k + 1 (mod size) and zeros elsewhere."""
    U = [[[0.0, 0.0] for _ in range(size)] for _ in range(size)]
    for k in range(size):
        U[(k + 1) % size][k] = [math.cos(1 + 2 * k), math.sin(1 + 2 * k)]
    return U


# a generated Herglotz model with d = m = 2 and a two-letter 2 x 2 strict
# contraction (entries of modulus at most 0.3 sqrt 2, so norms under 0.85), where
# both forms solve a non-scalar pencil (the Moebius fixture's is 1 x 1)
HERGLOTZ_MODEL = {"d": 2, "m": 2, "U": phase_permutation(4), "v": [0.5, 0.5, 0.5, 0.5], "a": 0.5}
DISK_POINT = {"d": 2, "n": 2, "matrices": [generated_matrix(2, k, 0.3) for k in (6, 7)]}

# a sparse two-letter series: the x_1 block of its level 3 reaches only half
# the level above, so the Horner pass starts that level at +0.0 with -0.0 at
# the parents of the x_2 block (every fixture series has dense levels only)
SPARSE_SERIES = {
    "d": 2,
    "degree": 6,
    "terms": [
        {"word": w, "re": c}
        for w, c in (
            ([], 0.25), ([2], 0.5), ([2, 1], 1.0), ([1, 2, 2], -1.0),
            ([1, 2, 1, 2], 1.0), ([1, 1, 2, 1], 1.0), ([2, 2, 1, 2, 1, 1], -0.5),
        )
    ],
}

# three malformed series, each refused with a schema error on stderr and exit
# code 1: a bad letter in the last of several terms, a NaN "re" and a word
# longer than the degree
REJECTED_SERIES = {
    "bad_letter_series": {**SPARSE_SERIES, "terms": [*SPARSE_SERIES["terms"], {"word": [2, 3], "re": 1.0}]},
    "nan_re_series": {"d": 2, "degree": 2, "terms": [{"word": [1], "re": 1.0}, {"word": [2, 1], "re": math.nan}]},
    "long_word_series": {"d": 2, "degree": 2, "terms": [{"word": [], "re": 1.0}, {"word": [1, 2, 1], "re": 0.5}]},
}

# a diagonal two-letter point: every product is diagonal, so the off-diagonal
# entries of a report are exact zeros, signed by how the Horner pass starts
# a sparse level (the generic point has no exact zero)
DIAGONAL_POINT = {"d": 2, "n": 2, "matrices": [[[0.5, 0.0], [0.0, -0.25]], [[0.3, 0.0], [0.0, 0.2]]]}

# two series with clean terms and a header the constructor refuses: d = 0
# with only the empty word, and a decay rate of 0
HEADER_REJECTED_SERIES = {
    "zero_d_series": {"d": 0, "degree": 0, "terms": [{"word": [], "re": 1.0}]},
    "zero_rate_series": {**SPARSE_SERIES, "decay_rate": 0},
}


# a real-free two-letter series of degree 70: 1/(2 - x_1) plus 0.1 x_2 and
# 0.01 x_2 x_1 x_2. Its long words are past every enumerable word order, and
# the degree-3 certificate reads only words of length <= 7, so it is refuted
# by the x_2 pencil as its truncation is
DEEP_SERIES = {
    "d": 2,
    "degree": 70,
    "real_free": True,
    "decay_rate": 1.9,
    "terms": [{"word": [1] * k, "re": 2.0 ** -(k + 1)} for k in range(71)]
    + [{"word": [2], "re": 0.1}, {"word": [2, 1, 2], "re": 0.01}],
}


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


def series_commands(point: Path, sparse: Path, rejected: tuple[Path, ...]) -> list[list[str]]:
    """The series commands past the README examples: eval and every deriv
    method on halfres, monotone at several degrees (halfres at degree 5 is a
    README example), eval on d2res at the generic point, an axioms fuzz,
    eval and the block and fd derivatives of the sparse series at the
    generic point, and eval of each rejected series there."""

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
    at = ["--series", str(sparse), "--point", str(point)]
    commands.append(["eval", *at])
    for method in ("block", "fd"):
        commands.append(["deriv", *at, "--direction", fixture("pi2_point"), "--method", method])
    commands.extend(["eval", "--series", str(path), "--point", str(point)] for path in rejected)
    return commands


def edge_commands(
    point: Path, sparse: Path, diagonal: Path, header_rejected: tuple[Path, ...], deep: Path
) -> list[list[str]]:
    """eval of the sparse series at the diagonal point, eval of each
    header-rejected series at the generic point, and eval at the generic
    point and monotone at degree 3 of the deep series."""
    commands = [["eval", "--series", str(sparse), "--point", str(diagonal)]]
    commands.extend(["eval", "--series", str(path), "--point", str(point)] for path in header_rejected)
    commands.append(["eval", "--series", str(deep), "--point", str(point)])
    commands.append(["monotone", "--series", str(deep), "--degree", "3"])
    return commands


def tuple_commands(point: Path) -> list[list[str]]:
    """The commands past the README examples that stack, embed or transform
    matrix tuples: axioms fuzzing (direct sums and conjugations) on a
    kind-4 representation, on d2res up to size 3 and on a kind-2
    representation over 30 trials of sizes 1-4 (batches of several points
    at each point size 1-5 and 7), the half-plane Cayley
    direction, the three derivative routes in two letters, both Herglotz
    forms of the Moebius fixture, kind-4 and kind-3 representations at a
    two-letter point and the kind-3 type probe."""

    def fixture(name: str) -> str:
        return str(FIXTURES / f"{name}.json")

    return [
        ["axioms", "--rep", fixture("type4_rep"), "--samples", "10"],
        ["axioms", "--series", fixture("d2res_series"), "--samples", "10", "--dim", "3"],
        ["axioms", "--rep", fixture("type2_rep"), "--samples", "30", "--dim", "4", "--seed", "7"],
        ["cayley", "--point", fixture("pi2_point"), "--direction", "half2disk"],
        *(
            ["deriv", "--series", fixture("d2res_series"), "--point", str(point), "--direction", fixture("pi2_point"), "--method", method]
            for method in ("block", "localizing", "fd")
        ),
        *(
            ["herglotz-eval", "--model", fixture("moebius_model"), "--point", fixture("half_scalar_point"), "--method", method]
            for method in ("resolvent", "cayley")
        ),
        ["rep-eval", "--rep", fixture("type4_rep"), "--point", fixture("pi2_point")],
        ["rep-eval", "--rep", fixture("type3_rep"), "--point", fixture("pi2_point")],
        ["rep-classify", "--rep", fixture("type3_rep")],
    ]


def herglotz_commands(model: Path, point: Path) -> list[list[str]]:
    """herglotz-eval of the generated model at the generated contraction
    point in either form."""
    return [["herglotz-eval", "--model", str(model), "--point", str(point), "--method", m] for m in ("cayley", "resolvent")]


def run_here(main, argv: list[str]) -> tuple[bytes | None, str, str, int]:
    """The report bytes, stdout, stderr and exit code of main(argv + --out
    report.json), run in a fresh working directory."""
    stdout, stderr, home = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as cwd:
        os.chdir(cwd)
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main([*argv, "--out", "report.json"])
                except SystemExit as exc:  # mapped to an exit code as the interpreter does
                    code = 0 if exc.code is None else exc.code
                    if not isinstance(code, int):
                        print(code, file=sys.stderr)
                        code = 1
                except Exception:
                    traceback.print_exc()
                    code = 1
            out = Path(cwd) / "report.json"
            report = out.read_bytes() if out.exists() else None
        finally:
            os.chdir(home)
    return report, stdout.getvalue(), stderr.getvalue(), code


def child(results: str) -> int:
    """Run the commands listed as JSON on stdin with this interpreter's
    freepick, and pickle their outcomes to the file results."""
    from freepick.cli import main

    outcomes = [run_here(main, argv) for argv in json.load(sys.stdin)]
    Path(results).write_bytes(pickle.dumps(outcomes))
    return 0


def run_tree(src: Path, commands: list[list[str]]) -> list[tuple[bytes | None, str, str, int]]:
    """The outcome of every command against the tree src, from one child
    interpreter, with the tree's path normalised in stderr."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in BLAS_ENV})
    with tempfile.TemporaryDirectory() as tmp:
        results = Path(tmp) / "results.pickle"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", str(results)],
            input=json.dumps(commands),
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        if proc.returncode != 0 or not results.exists():
            raise RuntimeError(f"the child for {src} exited with {proc.returncode}:\n{proc.stderr}")
        outcomes = pickle.loads(results.read_bytes())
    return [(report, out, normalize_stderr(err, src), code) for report, out, err, code in outcomes]


def normalize_stderr(text: str, src: Path) -> str:
    """stderr with the tree's path as <src> and the line number of a source
    location under it as <line>."""
    return re.sub(r"(<src>\S*?\.py):\d+:", r"\1:<line>:", text.replace(str(src), "<src>"))


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
        files = {
            "generic_point": GENERIC_POINT,
            "generic_target": GENERIC_TARGET,
            "sparse_series": SPARSE_SERIES,
            "diagonal_point": DIAGONAL_POINT,
            **REJECTED_SERIES,
            **HEADER_REJECTED_SERIES,
            "deep_series": DEEP_SERIES,
            "wide_point": WIDE_POINT,
            "wide_direction": WIDE_DIRECTION,
            "wide_target": WIDE_TARGET,
            "herglotz_model": HERGLOTZ_MODEL,
            "disk_point": DISK_POINT,
        }
        for name, data in files.items():
            (Path(tmp) / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
        point, target, sparse, diagonal, deep, wide, wide_direction, wide_target = (
            Path(tmp) / f"{name}.json"
            for name in (
                "generic_point", "generic_target", "sparse_series", "diagonal_point", "deep_series",
                "wide_point", "wide_direction", "wide_target",
            )
        )
        rejected = tuple(Path(tmp) / f"{name}.json" for name in REJECTED_SERIES)
        header_rejected = tuple(Path(tmp) / f"{name}.json" for name in HEADER_REJECTED_SERIES)
        commands = readme_commands() + series_commands(point, sparse, rejected) + tuple_commands(point)
        commands.append(["interpolate", "--point", str(point), "--direction", str(target), "--degree", "5"])
        commands.append(["interpolate", "--point", str(wide), "--direction", str(wide_target), "--degree", "4"])
        commands.append(
            ["deriv", "--series", str(FIXTURES / "d2res_series.json"), "--point", str(wide),
             "--direction", str(wide_direction), "--method", "localizing"]
        )
        commands += edge_commands(point, sparse, diagonal, header_rejected, deep)
        commands += herglotz_commands(Path(tmp) / "herglotz_model.json", Path(tmp) / "disk_point.json")
        differ = 0
        runs = [run_tree(src, commands) for src in trees]
        for argv, a, b in zip(commands, *runs):
            bad = [name for name, x, y in zip(("report", "stdout", "stderr", "exit code"), a, b) if x != y]
            differ += bool(bad)
            label = " ".join(Path(x).name if os.sep in x else x for x in argv)
            print(f"{'differ (' + ', '.join(bad) + ')' if bad else 'same'}: {label} (exit {a[3]}/{b[3]})")
    print(f"{len(commands) - differ} of {len(commands)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(child(sys.argv[2]) if sys.argv[1:2] == ["--child"] else main())
