"""Smoke-run the example scripts so the library names they import stay valid,
and check that the report comparison script finds differences."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

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
    assert lines[-1] == "19 of 19 commands identical"
    assert sum(line.startswith("same: interpolate ") for line in lines) == 2


def test_compare_reports_reads_every_readme_example():
    commands = load_compare_reports().readme_commands()
    assert [argv[0] for argv in commands] == [
        "eval", "deriv", "monotone", "interpolate", "axioms", "rep-eval", "rep-classify", "herglotz-eval", "cayley",
    ]
    assert all(pathlib.Path(a).is_file() for argv in commands for a in argv if a.startswith(str(ROOT)))


def test_compare_reports_runs_the_series_commands(tmp_path):
    module = load_compare_reports()
    point = tmp_path / "generic_point.json"
    commands = module.series_commands(point)
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
    ]
    assert all(pathlib.Path(a).is_file() for argv in commands for a in argv if a.startswith(str(ROOT)))
    # halfres at degree 5 is a README example, so no command runs twice
    readme = module.readme_commands()
    assert ["monotone", "--series", str(ROOT / "tests" / "fixtures" / "halfres_series.json"), "--degree", "5"] in readme
    assert not any(argv in readme for argv in commands)


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

    monkeypatch.setattr(module, "run", run)
    monkeypatch.setattr(sys, "argv", ["compare_reports.py", *map(str, trees)])
    assert module.main() == 1
    out = capsys.readouterr().out
    assert f"differ ({FIELDS[field]}): cayley" in out
    assert out.splitlines()[-1] == "18 of 19 commands identical"
