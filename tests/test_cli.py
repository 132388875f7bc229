"""End-to-end CLI checks through subprocess, exit codes included."""

import argparse
import json
import pathlib
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from freepick import cli
from freepick.matcore import DISK_TO_HALF, MatrixTuple
from freepick.series import FreeSeries, eval_series

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "freepick", *args],
        capture_output=True,
        text=True,
    )


def report_of(proc):
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def as_complex(entry):
    if entry is None:
        return complex("nan")
    if isinstance(entry, list):
        return complex(entry[0], entry[1])
    return complex(entry)


def as_matrix(rows):
    return np.array([[as_complex(e) for e in row] for row in rows])


def fx(fixtures_dir, name):
    return str(fixtures_dir / name)


# ------------------------------------------------------------------ happy path


def test_eval_cube_worked_pair(fixtures_dir):
    proc = run(
        "eval",
        "--series", fx(fixtures_dir, "x3_series.json"),
        "--point", fx(fixtures_dir, "x_point.json"),
    )
    assert proc.returncode == 0
    report = report_of(proc)
    np.testing.assert_allclose(as_matrix(report["value"]), np.full((2, 2), 4.0), atol=1e-12)
    assert report["tail_bound"] is None


def test_deriv_cube_worked_pair(fixtures_dir):
    proc = run(
        "deriv",
        "--series", fx(fixtures_dir, "x3_series.json"),
        "--point", fx(fixtures_dir, "x_point.json"),
        "--direction", fx(fixtures_dir, "h_dir.json"),
    )
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["method"] == "block"
    np.testing.assert_allclose(as_matrix(report["value"]), np.full((2, 2), 6.0), atol=1e-12)


def test_deriv_fd_method_agrees(fixtures_dir):
    proc = run(
        "deriv",
        "--series", fx(fixtures_dir, "x3_series.json"),
        "--point", fx(fixtures_dir, "x_point.json"),
        "--direction", fx(fixtures_dir, "h_dir.json"),
        "--method", "fd",
    )
    assert proc.returncode == 0
    report = report_of(proc)
    np.testing.assert_allclose(as_matrix(report["value"]), np.full((2, 2), 6.0), atol=1e-6)


def test_monotone_refutes_cube(fixtures_dir):
    proc = run(
        "monotone",
        "--series", fx(fixtures_dir, "x3_series.json"),
        "--degree", "2",
    )
    assert proc.returncode == 2
    cert = report_of(proc)["certificate"]
    assert cert["verdict"] == "refuted"
    assert cert["coefficient_horizon"] == 5
    assert cert["witness"]["k"] == 1
    assert cert["witness"]["min_eig"] == pytest.approx(-1.0, abs=1e-12)
    assert cert["letters"][0]["psd"] is False


def test_monotone_certifies_resolvent(fixtures_dir):
    proc = run(
        "monotone",
        "--series", fx(fixtures_dir, "halfres_series.json"),
        "--degree", "5",
    )
    assert proc.returncode == 0
    cert = report_of(proc)["certificate"]
    assert cert["verdict"] == "certified_psd"
    assert cert["witness"] is None
    assert all(entry["psd"] for entry in cert["letters"])


def test_interpolate_matches_target(fixtures_dir):
    proc = run(
        "interpolate",
        "--point", fx(fixtures_dir, "jordan_point.json"),
        "--direction", fx(fixtures_dir, "jordan_target.json"),
        "--degree", "12",
    )
    assert proc.returncode == 0
    report = report_of(proc)
    terms = report["series"]["terms"]
    assert len(terms) == 13
    f = FreeSeries(
        d=report["series"]["d"],
        degree=report["series"]["degree"],
        coeffs={tuple(t["word"]): complex(t["re"], t["im"]) for t in terms},
    )
    X = MatrixTuple((np.array([[0.4, 0.4], [0.0, 0.4]]),))
    target = np.array([[2.0, 1.2], [0.0, 2.0]])
    np.testing.assert_allclose(eval_series(f, X).value, target, atol=1e-6)
    assert report["norm"] == pytest.approx(
        sum(abs(complex(t["re"], t["im"])) ** 2 for t in terms) ** 0.5
    )


def test_axioms_series_passes(fixtures_dir):
    proc = run(
        "axioms",
        "--series", fx(fixtures_dir, "x3_series.json"),
        "--samples", "20",
    )
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["subject"] == "series"
    assert report["passed"] is True
    assert report["errors"] == []
    assert report["trials"] == 20


def test_axioms_representation_passes(fixtures_dir):
    proc = run(
        "axioms",
        "--rep", fx(fixtures_dir, "type1_rep.json"),
        "--samples", "15",
        "--tol", "1e-8",
    )
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["subject"] == "representation"
    assert report["passed"] is True


def test_rep_eval_lands_in_upper_half_plane(fixtures_dir):
    proc = run(
        "rep-eval",
        "--rep", fx(fixtures_dir, "type1_rep.json"),
        "--point", fx(fixtures_dir, "pi2_point.json"),
    )
    assert proc.returncode == 0
    value = as_matrix(report_of(proc)["value"])
    assert value.shape == (2, 2)
    imag = (value - value.conj().T) / 2j
    assert np.linalg.eigvalsh(imag).min() >= -1e-9


def test_rep_classify_types(fixtures_dir):
    proc = run("rep-classify", "--rep", fx(fixtures_dir, "type1_rep.json"))
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["type"] == 1
    assert not report["inconclusive"]
    assert report["limits"]["scaled_modulus"] == pytest.approx(1.0, rel=1e-3)

    report = report_of(run("rep-classify", "--rep", fx(fixtures_dir, "type2_rep.json")))
    assert report["type"] == 2
    assert report["limits"]["scaled_imag"] == pytest.approx(1.0, rel=1e-3)

    report = report_of(run("rep-classify", "--rep", fx(fixtures_dir, "type4_rep.json")))
    assert report["type"] == 4
    assert not report["inconclusive"]
    assert report["limits"]["damped_imag"] == pytest.approx(0.64, rel=1e-3)


def test_herglotz_eval_moebius(fixtures_dir):
    for form in ("cayley", "resolvent"):
        proc = run(
            "herglotz-eval",
            "--model", fx(fixtures_dir, "moebius_model.json"),
            "--point", fx(fixtures_dir, "half_scalar_point.json"),
            "--method", form,
        )
        assert proc.returncode == 0
        report = report_of(proc)
        assert report["form"] == form
        np.testing.assert_allclose(as_matrix(report["value"]), [[3.0]], atol=1e-12)


def test_cayley_sends_origin_to_i(fixtures_dir):
    proc = run(
        "cayley",
        "--point", fx(fixtures_dir, "zero2_point.json"),
        "--direction", "disk2half",
    )
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["direction"] == DISK_TO_HALF
    for mat in report["tuple"]["matrices"]:
        np.testing.assert_allclose(as_matrix(mat), 1j * np.eye(2), atol=1e-12)


def test_cayley_refuses_the_library_direction_name(fixtures_dir):
    proc = run(
        "cayley",
        "--point", fx(fixtures_dir, "zero2_point.json"),
        "--direction", DISK_TO_HALF,
    )
    assert proc.returncode == 1
    assert "invalid choice: 'disk_to_half'" in proc.stderr


# ---------------------------------------------------------------- error paths


def test_unknown_command_exits_one():
    proc = run("frobnicate")
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_missing_file_exits_one(fixtures_dir):
    proc = run(
        "eval",
        "--series", "/nonexistent/series.json",
        "--point", fx(fixtures_dir, "x_point.json"),
    )
    assert proc.returncode == 1
    assert "cannot read" in proc.stderr


def test_infeasible_target_exits_one(fixtures_dir, tmp_path):
    bad = tmp_path / "bad_target.json"
    bad.write_text(json.dumps([[2.0, 1.2], [0.5, 2.0]]))
    proc = run(
        "interpolate",
        "--point", fx(fixtures_dir, "jordan_point.json"),
        "--direction", str(bad),
        "--degree", "12",
    )
    assert proc.returncode == 1
    assert "kernel span" in proc.stderr


def test_axioms_requires_exactly_one_subject(fixtures_dir):
    neither = run("axioms")
    assert neither.returncode == 1
    both = run(
        "axioms",
        "--series", fx(fixtures_dir, "x3_series.json"),
        "--rep", fx(fixtures_dir, "type1_rep.json"),
    )
    assert both.returncode == 1
    assert "exactly one" in both.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rep-eval", "--rep", "moebius_model.json", "--point", "pi2_point.json"],
         "rep-eval needs a representation file, not a model"),
        (["rep-classify", "--rep", "moebius_model.json"],
         "rep-classify needs a representation file, not a model"),
        (["axioms", "--rep", "moebius_model.json"],
         "axioms --rep needs a representation file, not a model"),
        (["herglotz-eval", "--model", "type1_rep.json", "--point", "half_scalar_point.json"],
         "herglotz-eval needs a model file, not a representation"),
    ],
    ids=["rep-eval", "rep-classify", "axioms-rep", "herglotz-eval"],
)
def test_wrong_spec_file_exits_one(fixtures_dir, argv, message):
    proc = run(*(fx(fixtures_dir, a) if a.endswith(".json") else a for a in argv))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"freepick: {message}\n"


def test_bad_config_exits_one(fixtures_dir):
    proc = run(
        "axioms",
        "--series", fx(fixtures_dir, "x3_series.json"),
        "--samples", "0",
    )
    assert proc.returncode == 1
    assert "positive" in proc.stderr


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_nonfinite_tol_exits_one(fixtures_dir, tol):
    proc = run("monotone", "--series", fx(fixtures_dir, "x3_series.json"), "--tol", tol)
    assert proc.returncode == 1
    assert proc.stderr == "freepick: tol must be finite\n"


def test_smax_below_one_exits_one(fixtures_dir):
    proc = run("rep-classify", "--rep", fx(fixtures_dir, "type1_rep.json"), "--smax", "0.5")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "freepick: smax must be finite and at least 1, got 0.5\n"


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"real_free": "no"}, "$.real_free: expected a boolean, got str"),
        ({"terms": [{"word": [1, 1, 1], "re": 10**400}]}, "$.terms[0].re: number is too large for a float"),
    ],
    ids=["real-free-string", "huge-integer"],
)
def test_series_schema_holes_exit_one(fixtures_dir, tmp_path, patch, message):
    bad = tmp_path / "series.json"
    bad.write_text(json.dumps({**json.loads((fixtures_dir / "x3_series.json").read_text()), **patch}))
    proc = run("eval", "--series", str(bad), "--point", fx(fixtures_dir, "x_point.json"))
    assert proc.returncode == 1
    assert proc.stderr == f"freepick: {message}\n"


def test_decay_bound_past_the_float_range_runs(fixtures_dir, tmp_path):
    # one 120-letter word at decay rate 0.001: its bound 1e360 passes the float range
    deep = tmp_path / "deep.json"
    terms = [{"word": [1] * 120, "re": 1.0}, {"word": [1], "re": 0.5}]
    deep.write_text(json.dumps({"d": 1, "degree": 120, "real_free": True, "decay_rate": 0.001, "terms": terms}))
    out = tmp_path / "report.json"
    assert cli.main(["eval", "--series", str(deep), "--point", fx(fixtures_dir, "x_point.json"), "--out", str(out)]) == 0
    value = as_matrix(json.loads(out.read_text())["value"])
    np.testing.assert_allclose(value, 0.5 * np.ones((2, 2)) + 2.0**119 * np.ones((2, 2)))
    assert cli.main(["monotone", "--series", str(deep), "--degree", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["certificate"]["verdict"] == "certified_psd"


# ------------------------------------------------------------- report plumbing


def test_out_flag_writes_report(fixtures_dir, tmp_path):
    out = tmp_path / "report.json"
    proc = run(
        "eval",
        "--series", fx(fixtures_dir, "x3_series.json"),
        "--point", fx(fixtures_dir, "x_point.json"),
        "--out", str(out),
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    direct = run(
        "eval",
        "--series", fx(fixtures_dir, "x3_series.json"),
        "--point", fx(fixtures_dir, "x_point.json"),
    )
    assert out.read_text() == direct.stdout


def test_reports_are_byte_identical(fixtures_dir):
    args = ("rep-classify", "--rep", fx(fixtures_dir, "type4_rep.json"))
    first = run(*args)
    second = run(*args)
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")
    report = json.loads(first.stdout)
    assert report["command"] == "rep-classify"
    assert report["config"]["seed"] == 0


def test_in_process_calls_share_one_parser(fixtures_dir, tmp_path, capsys):
    # the parser is built once; a usage error, other commands and other
    # flag values in between leave later reports unchanged
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "eval.json"
    args = ["eval", "--series", fx(fixtures_dir, "x3_series.json"), "--point", fx(fixtures_dir, "y_point.json")]
    assert cli.main(args + ["--out", str(out)]) == 0
    first = out.read_text()
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--series", fx(fixtures_dir, "x3_series.json")])
    assert exc.value.code == 1
    assert cli.main(["monotone", "--series", fx(fixtures_dir, "x3_series.json"), "--degree", "2", "--out", str(tmp_path / "m.json")]) == 2
    seeded = ["axioms", "--series", fx(fixtures_dir, "x3_series.json"), "--samples", "3", "--seed", "5"]
    assert cli.main(seeded + ["--out", str(tmp_path / "seeded.json")]) == 0
    assert json.loads((tmp_path / "seeded.json").read_text())["config"]["seed"] == 5
    assert cli.main(args + ["--out", str(out)]) == 0
    assert out.read_text() == first
    assert json.loads(first)["config"]["seed"] == 0
    assert "usage: freepick eval" in capsys.readouterr().err


# ------------------------------------------------------------- config flags

COMMAND_ARGS = {
    "eval": ["--series", "x3_series.json", "--point", "x_point.json"],
    "deriv": ["--series", "x3_series.json", "--point", "x_point.json", "--direction", "h_dir.json"],
    "monotone": ["--series", "halfres_series.json"],
    "interpolate": ["--point", "jordan_point.json", "--direction", "jordan_target.json"],
    "axioms": ["--series", "x3_series.json"],
    "rep-eval": ["--rep", "type1_rep.json", "--point", "pi2_point.json"],
    "rep-classify": ["--rep", "type1_rep.json"],
    "herglotz-eval": ["--model", "moebius_model.json", "--point", "half_scalar_point.json"],
    "cayley": ["--point", "zero2_point.json", "--direction", "disk2half"],
}
CONFIG_FLAGS = {"monotone": {"degree", "tol"}, "interpolate": {"degree"}, "axioms": {"tol", "seed", "samples", "dim"}}
FLAG_VALUES = {"degree": "2", "tol": "1e-08", "seed": "3", "samples": "4", "dim": "1"}


@pytest.mark.parametrize("flag", list(FLAG_VALUES))
@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_command_takes_only_the_config_flags_it_reads(fixtures_dir, tmp_path, capsys, command, flag):
    out = tmp_path / "report.json"
    argv = [command, *(fx(fixtures_dir, a) if a.endswith(".json") else a for a in COMMAND_ARGS[command])]
    argv += [f"--{flag}", FLAG_VALUES[flag], "--out", str(out)]
    if flag not in CONFIG_FLAGS.get(command, ()):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert f"unrecognized arguments: --{flag} {FLAG_VALUES[flag]}" in capsys.readouterr().err
        return
    assert cli.main(argv) == 0
    want = asdict(cli.RunConfig())
    want[flag] = type(want[flag])(FLAG_VALUES[flag])
    assert json.loads(out.read_text())["config"] == want


def parser_flags() -> dict[str, set[str]]:
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in c._actions for s in a.option_strings} for name, c in sub.choices.items()}


def test_readme_lists_each_command_flags():
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    listed = {name: set(re.findall(r"--[\w-]+", flags)) for name, flags in re.findall(r"^- `([\w-]+)`: (.*)$", section, flags=re.M)}
    assert listed == {name: flags - {"-h", "--help", "--out"} for name, flags in parser_flags().items()}
    assert all("--out" in flags for flags in parser_flags().values())
