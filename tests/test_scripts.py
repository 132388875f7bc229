"""Smoke-run the example scripts so the library names they import stay valid,
and check that the report comparison script finds differences."""

import importlib.util
import json
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

from freepick.herglotz import FORMS, eval_herglotz
from freepick.jsonio import parse_series, parse_spec, parse_tuple
from freepick.matcore import SchemaError
from freepick.monotone import REFUTED, certify_monotone
from freepick.series import eval_series

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["derivative_crosscheck.py", "--trials", "2", "--degree", "3"],
        ["certificate_sweep.py", "--max-degree", "3"],
        ["classify_demo.py", "--samples", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def load_compare_reports():
    spec = importlib.util.spec_from_file_location("compare_reports", ROOT / "scripts" / "compare_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_finds_no_difference_within_one_tree():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_reports.py"), src, src],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "46 of 46 commands identical"
    assert sum(line.startswith("same: interpolate ") for line in lines) == 3
    wide = "--point wide_point.json --direction wide_direction.json --method localizing (exit 0/0)"
    assert f"same: deriv --series d2res_series.json {wide}" in lines


def test_compare_reports_reads_every_readme_example():
    commands = load_compare_reports().readme_commands()
    assert [argv[0] for argv in commands] == [
        "eval", "deriv", "monotone", "interpolate", "axioms", "rep-eval", "rep-classify", "herglotz-eval", "cayley",
    ]
    assert all(pathlib.Path(a).is_file() for argv in commands for a in argv if a.startswith(str(ROOT)))


def test_compare_reports_runs_the_series_commands(tmp_path):
    module = load_compare_reports()
    point, sparse = tmp_path / "generic_point.json", tmp_path / "sparse_series.json"
    rejected = tuple(tmp_path / f"{name}.json" for name in module.REJECTED_SERIES)
    commands = module.series_commands(point, sparse, rejected)
    labels = [" ".join(pathlib.Path(a).stem if pathlib.Path(a).is_absolute() else a for a in argv) for argv in commands]
    assert labels == [
        "eval --series halfres_series --point x_point",
        "deriv --series halfres_series --point x_point --direction h_dir --method block",
        "deriv --series halfres_series --point x_point --direction h_dir --method localizing",
        "deriv --series halfres_series --point x_point --direction h_dir --method fd",
        "monotone --series x3_series --degree 1",
        "monotone --series halfres_series --degree 2",
        "monotone --series d2res_series --degree 3",
        "eval --series d2res_series --point generic_point",
        "axioms --series halfres_series --samples 10",
        "eval --series sparse_series --point generic_point",
        "deriv --series sparse_series --point generic_point --direction pi2_point --method block",
        "deriv --series sparse_series --point generic_point --direction pi2_point --method fd",
        "eval --series bad_letter_series --point generic_point",
        "eval --series nan_re_series --point generic_point",
        "eval --series long_word_series --point generic_point",
    ]
    assert all(pathlib.Path(a).is_file() for argv in commands for a in argv if a.startswith(str(ROOT)))
    # the sparse series starts a Horner level from a sparse first block
    sparse.write_text(json.dumps(module.SPARSE_SERIES), encoding="utf-8")
    trie = parse_series(str(sparse)).suffix_trie
    _, a, b = trie[3].blocks[0]
    assert b - a < trie[2].size
    # each rejected series fails its own check, the bad letter in the last term
    messages = {
        "bad_letter_series": r"^\$\.terms\[7\]\.word\[1\]: letter 3 outside 1\.\.2$",
        "nan_re_series": r"^\$\.terms\[1\]\.re: number must be finite$",
        "long_word_series": r"^\$: word \[1, 2, 1\] is longer than the degree 2$",
    }
    for path, (name, data) in zip(rejected, module.REJECTED_SERIES.items()):
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(SchemaError, match=messages[name]):
            parse_series(str(path))
    assert len(module.REJECTED_SERIES["bad_letter_series"]["terms"]) == 8
    # halfres at degree 5 is a README example, so no command runs twice
    readme = module.readme_commands()
    assert ["monotone", "--series", str(ROOT / "tests" / "fixtures" / "halfres_series.json"), "--degree", "5"] in readme
    assert not any(argv in readme for argv in commands)


def test_compare_reports_runs_the_tuple_commands(tmp_path):
    module = load_compare_reports()
    point = tmp_path / "generic_point.json"
    commands = module.tuple_commands(point)
    labels = [" ".join(pathlib.Path(a).stem if pathlib.Path(a).is_absolute() else a for a in argv) for argv in commands]
    assert labels == [
        "axioms --rep type4_rep --samples 10",
        "axioms --series d2res_series --samples 10 --dim 3",
        "axioms --rep type2_rep --samples 30 --dim 4 --seed 7",
        "cayley --point pi2_point --direction half2disk",
        "deriv --series d2res_series --point generic_point --direction pi2_point --method block",
        "deriv --series d2res_series --point generic_point --direction pi2_point --method localizing",
        "deriv --series d2res_series --point generic_point --direction pi2_point --method fd",
        "herglotz-eval --model moebius_model --point half_scalar_point --method resolvent",
        "herglotz-eval --model moebius_model --point half_scalar_point --method cayley",
        "rep-eval --rep type4_rep --point pi2_point",
        "rep-eval --rep type3_rep --point pi2_point",
        "rep-classify --rep type3_rep",
    ]
    assert all(pathlib.Path(a).is_file() for argv in commands for a in argv if a.startswith(str(ROOT)))
    rejected = tuple(tmp_path / f"{name}.json" for name in module.REJECTED_SERIES)
    earlier = module.readme_commands() + module.series_commands(point, tmp_path / "sparse_series.json", rejected)
    assert not any(argv in earlier for argv in commands)


def test_compare_reports_runs_the_edge_commands(tmp_path):
    module = load_compare_reports()
    point, sparse, diagonal, deep = (
        tmp_path / f"{name}.json" for name in ("generic_point", "sparse_series", "diagonal_point", "deep_series")
    )
    header_rejected = tuple(tmp_path / f"{name}.json" for name in module.HEADER_REJECTED_SERIES)
    commands = module.edge_commands(point, sparse, diagonal, header_rejected, deep)
    labels = [" ".join(pathlib.Path(a).stem if pathlib.Path(a).is_absolute() else a for a in argv) for argv in commands]
    assert labels == [
        "eval --series sparse_series --point diagonal_point",
        "eval --series zero_d_series --point generic_point",
        "eval --series zero_rate_series --point generic_point",
        "eval --series deep_series --point generic_point",
        "monotone --series deep_series --degree 3",
    ]
    # the sparse series at the diagonal point has an exact zero off the diagonal
    sparse.write_text(json.dumps(module.SPARSE_SERIES), encoding="utf-8")
    diagonal.write_text(json.dumps(module.DIAGONAL_POINT), encoding="utf-8")
    value = eval_series(parse_series(str(sparse)), parse_tuple(str(diagonal))).value
    assert value[0, 1] == 0 and value[0, 0] != 0
    # each header-rejected series has clean terms and fails the constructor's header check
    messages = {
        "zero_d_series": r"^\$: need d >= 1 and degree >= 0, got d=0, degree=0$",
        "zero_rate_series": r"^\$: decay_rate must be positive when given$",
    }
    for path, (name, data) in zip(header_rejected, module.HEADER_REJECTED_SERIES.items()):
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(SchemaError, match=messages[name]):
            parse_series(str(path))
    # the deep series parses, and its degree-3 certificate is refuted
    deep.write_text(json.dumps(module.DEEP_SERIES), encoding="utf-8")
    f = parse_series(str(deep))
    assert f.degree == 70 and certify_monotone(f, 3).verdict == REFUTED
    rejected = tuple(tmp_path / f"{name}.json" for name in module.REJECTED_SERIES)
    earlier = module.readme_commands() + module.series_commands(point, sparse, rejected) + module.tuple_commands(point)
    assert not any(argv in earlier for argv in commands)


def test_compare_reports_runs_the_herglotz_commands(tmp_path):
    module = load_compare_reports()
    model_path, point_path = tmp_path / "herglotz_model.json", tmp_path / "disk_point.json"
    commands = module.herglotz_commands(model_path, point_path)
    labels = [" ".join(pathlib.Path(a).stem if pathlib.Path(a).is_absolute() else a for a in argv) for argv in commands]
    assert labels == [
        "herglotz-eval --model herglotz_model --point disk_point --method cayley",
        "herglotz-eval --model herglotz_model --point disk_point --method resolvent",
    ]
    # the generated model is unitary to rounding, and the point is a strict contraction
    model_path.write_text(json.dumps(module.HERGLOTZ_MODEL), encoding="utf-8")
    point_path.write_text(json.dumps(module.DISK_POINT), encoding="utf-8")
    model, X = parse_spec(str(model_path)), parse_tuple(str(point_path))
    assert (model.d, model.m, X.d, X.n) == (2, 2, 2, 2)
    assert np.abs(model.U.conj().T @ model.U - np.eye(4)).max() <= 1e-15
    assert X.max_norm() < 0.85
    assert all(eval_herglotz(model, X, form).shape == (2, 2) for form in FORMS)
    earlier = module.readme_commands() + module.tuple_commands(tmp_path / "generic_point.json")
    assert not any(argv in earlier for argv in commands)


FIELDS = ("report", "stdout", "stderr", "exit code")


@pytest.mark.parametrize("field", range(len(FIELDS)), ids=FIELDS)
def test_compare_reports_flags_any_difference(field, tmp_path, monkeypatch, capsys):
    # the child runs are stubbed: tree b differs from tree a in one field of one command
    module = load_compare_reports()
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        (tree / "freepick").mkdir(parents=True)
        (tree / "freepick" / "__init__.py").touch()

    def run(tree, argv):
        out = [b"{}\n", "", "", 0]
        if argv[0] == "cayley" and tree == trees[1]:
            out[field] = (None, "x", "freepick: x\n", 1)[field]
        return tuple(out)

    monkeypatch.setattr(module, "run_tree", lambda tree, commands: [run(tree, argv) for argv in commands])
    monkeypatch.setattr(sys, "argv", ["compare_reports.py", *map(str, trees)])
    assert module.main() == 1
    out = capsys.readouterr().out
    assert f"differ ({FIELDS[field]}): cayley" in out
    assert f"differ ({FIELDS[field]}): cayley --point pi2_point.json --direction half2disk" in out
    assert out.splitlines()[-1] == "44 of 46 commands identical"


WARNING = "{src}/freepick/cli.py:149: UserWarning: pencil off the small polydisk\n  D = series.derivative(f, X, H)\n"


@pytest.mark.parametrize(
    ("stderr_b", "verdict"),
    [
        (WARNING, "same"),
        (WARNING.replace(":149:", ":150:"), "same"),
        (WARNING.replace("cli.py", "series.py"), "differ (stderr)"),
        (WARNING.replace("small", "closed"), "differ (stderr)"),
        (WARNING.replace("X, H)", "X, H) # 149"), "differ (stderr)"),
        ("freepick: x\n", "differ (stderr)"),
    ],
    ids=["identical", "moved-line", "other-file", "other-message", "other-number", "other-text"],
)
def test_compare_reports_ignores_only_a_source_line_number(stderr_b, verdict, tmp_path, monkeypatch, capsys):
    # the child processes are stubbed; each tree's stderr names a source line under that tree
    module = load_compare_reports()
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        (tree / "freepick").mkdir(parents=True)
        (tree / "freepick" / "__init__.py").touch()

    def fake_run(argv, input, env, **kwargs):
        src = env["PYTHONPATH"]
        stderr = (WARNING if src == str(trees[0]) else stderr_b).format(src=src)
        # the child pickles one outcome per command to the file named last
        outcomes = [(b"{}\n", "", stderr, 0) for _ in json.loads(input)]
        pathlib.Path(argv[-1]).write_bytes(pickle.dumps(outcomes))
        return subprocess.CompletedProcess(argv, 0, stdout="", stderr="")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["compare_reports.py", *map(str, trees)])
    assert module.main() == (verdict != "same")
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith(f"{verdict}: ") for line in lines[:-1])
    assert lines[-1] == f"{46 if verdict == 'same' else 0} of 46 commands identical"


def test_compare_reports_child_runs_each_command_as_a_fresh_process():
    # one child interpreter runs every command: each gets its own warning,
    # its own working directory for report.json and its own exit code
    module = load_compare_reports()
    fixture = lambda name: str(ROOT / "tests" / "fixtures" / f"{name}.json")  # noqa: E731
    localizing = [
        "deriv", "--series", fixture("halfres_series"), "--point", fixture("x_point"),
        "--direction", fixture("h_dir"), "--method", "localizing",
    ]
    commands = [localizing, ["eval", "--bogus"], localizing, ["monotone", "--series", fixture("x3_series"), "--degree", "1"]]
    outcomes = module.run_tree(ROOT / "src", commands)
    assert [code for *_, code in outcomes] == [0, 1, 0, 0]
    assert outcomes[0] == outcomes[2]
    report, stdout, stderr, _ = outcomes[0]
    assert json.loads(report)["method"] == "localizing" and stdout == ""
    assert stderr.startswith("<src>/freepick/cli.py:<line>: UserWarning: localizing derivative")
    report, stdout, stderr, _ = outcomes[1]
    assert report is None and stdout == "" and "error: the following arguments are required" in stderr
    assert json.loads(outcomes[3][0])["command"] == "monotone"
