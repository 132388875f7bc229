"""freepick command line: evaluate, certify, classify, interpolate.

Exit codes separate failure modes so pipelines can branch on verdicts:
0 means the command ran and nothing was refuted, 2 means it ran and the
mathematical check failed (monotonicity refuted, axioms violated), and 1
means the command itself could not run (bad file, bad flag, infeasible
target, singular resolvent). Reports are JSON with sorted keys and every
report embeds the resolved config, so identical invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict, dataclass, fields

from . import hardy, herglotz, jsonio, monotone, nevanlinna, series
from .matcore import DISK_TO_HALF, HALF_TO_DISK, CalcError, MatrixTuple, cayley

_CAYLEY_DIRECTIONS = {
    "disk2half": DISK_TO_HALF,
    "half2disk": HALF_TO_DISK,
}


@dataclass(frozen=True)
class RunConfig:
    degree: int = 4
    tol: float = 1e-9
    seed: int = 0
    samples: int = 100
    dim: int = 2

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.tol <= 0 or self.samples <= 0 or self.dim <= 0:
            raise ValueError("tol, samples, and dim must be positive")
        if not math.isfinite(self.tol):
            raise ValueError("tol must be finite")


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors (2 means refuted)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process and shared by every
    :func:`main` call; parse_args does not change it, so callers must not
    either."""
    p = _Parser(prog="freepick", description="free function calculus toolkit")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def cmd(name: str, help_text: str, run, *config: str) -> argparse.ArgumentParser:
        c = sub.add_parser(name, help=help_text)
        for opt in config:  # the RunConfig fields that run reads
            default = getattr(RunConfig, opt)
            c.add_argument(f"--{opt}", type=type(default), default=default)
        c.add_argument("--out", default=None, help="write the report here instead of stdout")
        c.set_defaults(run=run)
        return c

    c = cmd("eval", "evaluate a series at a matrix tuple", _run_eval)
    c.add_argument("--series", required=True)
    c.add_argument("--point", required=True)

    c = cmd("deriv", "directional derivative of a series", _run_deriv)
    c.add_argument("--series", required=True)
    c.add_argument("--point", required=True)
    c.add_argument("--direction", required=True, help="tuple file with the direction H")
    c.add_argument("--method", choices=series.METHODS, default=series.BLOCK)

    c = cmd("monotone", "certify or refute local monotonicity near 0", _run_monotone, "degree", "tol")
    c.add_argument("--series", required=True)

    c = cmd("interpolate", "minimum-norm interpolation through the kernel span", _run_interpolate, "degree")
    c.add_argument("--point", required=True)
    c.add_argument("--direction", required=True, help="matrix file with the target value")

    c = cmd("axioms", "fuzz the free-function axioms", _run_axioms, "tol", "seed", "samples", "dim")
    c.add_argument("--series", default=None)
    c.add_argument("--rep", default=None)

    c = cmd("rep-eval", "evaluate a Nevanlinna representation on the half-plane", _run_rep_eval)
    c.add_argument("--rep", required=True)
    c.add_argument("--point", required=True)

    c = cmd("rep-classify", "asymptotic type of a representation", _run_rep_classify)
    c.add_argument("--rep", required=True)
    c.add_argument("--smax", type=float, default=2.0**20)

    c = cmd("herglotz-eval", "evaluate a Herglotz model on the polydisk", _run_herglotz_eval)
    c.add_argument("--model", required=True)
    c.add_argument("--point", required=True)
    c.add_argument("--method", choices=herglotz.FORMS, default=herglotz.CAYLEY_FORM)

    c = cmd("cayley", "coordinatewise Cayley transform of a tuple", _run_cayley)
    c.add_argument("--point", required=True)
    c.add_argument("--direction", required=True, choices=sorted(_CAYLEY_DIRECTIONS))

    return p


def _config(args: argparse.Namespace) -> RunConfig:
    """The command's config flags, and RunConfig's defaults for the rest."""
    return RunConfig(**{fld.name: getattr(args, fld.name) for fld in fields(RunConfig) if hasattr(args, fld.name)})


def _load_spec(path: str, kind: type, label: str):
    """The spec at path, refusing a representation where a model is wanted
    and the reverse."""
    spec = jsonio.parse_spec(path)
    if not isinstance(spec, kind):
        want, got = ("model", "representation") if kind is herglotz.HerglotzModel else ("representation", "model")
        raise CalcError(f"{label} needs a {want} file, not a {got}")
    return spec


def _summary_to_json(s: nevanlinna.SequenceSummary) -> dict:
    return {
        "values": [jsonio.float_to_json(x) for x in s.values],
        "limit": jsonio.float_to_json(s.limit),
        "converged": s.converged,
    }


def _run_eval(args, cfg: RunConfig) -> tuple[dict, int]:
    f = jsonio.parse_series(args.series)
    X = jsonio.parse_tuple(args.point)
    res = series.eval_series(f, X)
    return {
        "value": jsonio.matrix_to_json(res.value),
        "tail_bound": jsonio.float_to_json(res.tail_bound),
    }, 0


def _run_deriv(args, cfg: RunConfig) -> tuple[dict, int]:
    f = jsonio.parse_series(args.series)
    X = jsonio.parse_tuple(args.point)
    H = jsonio.parse_tuple(args.direction)
    D = series.derivative(f, X, H, method=args.method)
    return {"value": jsonio.matrix_to_json(D), "method": args.method}, 0


def _run_monotone(args, cfg: RunConfig) -> tuple[dict, int]:
    f = jsonio.parse_series(args.series)
    cert = monotone.certify_monotone(f, cfg.degree, cfg.tol)
    witness = None
    if cert.witness is not None:
        witness = {
            "k": cert.witness.k,
            "vector": jsonio.vector_to_json(cert.witness.vector),
            "min_eig": jsonio.float_to_json(cert.witness.min_eig),
        }
    report = {
        "certificate": {
            "degree": cert.degree,
            "coefficient_horizon": cert.coefficient_horizon,
            "letters": [
                {"k": k, "min_eig": jsonio.float_to_json(r.min_eig), "psd": r.is_psd}
                for k, r in enumerate(cert.reports, start=1)
            ],
            "verdict": cert.verdict,
            "witness": witness,
        }
    }
    return report, 0 if cert.certified else 2


def _run_interpolate(args, cfg: RunConfig) -> tuple[dict, int]:
    X = jsonio.parse_tuple(args.point)
    target = jsonio.parse_matrix(args.direction)
    f = hardy.min_norm_interpolate(X, target, cfg.degree)
    norm = float(sum(abs(c) ** 2 for c in f.coeffs.values()) ** 0.5)
    return {"series": jsonio.series_to_json(f), "norm": norm}, 0


def _run_axioms(args, cfg: RunConfig) -> tuple[dict, int]:
    if (args.series is None) == (args.rep is None):
        raise CalcError("axioms needs exactly one of --series or --rep")
    if args.series is not None:
        f = jsonio.parse_series(args.series)
        evaluator = series.series_evaluator(f)
        d = f.d
        sampler = None
        subject = "series"
    else:
        spec = _load_spec(args.rep, nevanlinna.RepresentationSpec, "axioms --rep")
        evaluator = nevanlinna.representation_evaluator(spec)
        d = spec.d
        sampler = nevanlinna.pi_sampler(d)
        subject = "representation"
    report = series.axiom_verify(
        evaluator,
        d,
        trials=cfg.samples,
        seed=cfg.seed,
        tol=cfg.tol,
        sampler=sampler,
        sizes=tuple(range(1, cfg.dim + 1)),
    )
    out = {
        "subject": subject,
        "trials": len(report.trials),
        "all_graded": report.all_graded,
        "max_direct_sum": jsonio.float_to_json(report.max_direct_sum),
        "max_similarity": jsonio.float_to_json(report.max_similarity),
        "errors": list(report.errors),
        "passed": report.passed,
    }
    return out, 0 if report.passed else 2


def _run_rep_eval(args, cfg: RunConfig) -> tuple[dict, int]:
    spec = _load_spec(args.rep, nevanlinna.RepresentationSpec, "rep-eval")
    Z = jsonio.parse_tuple(args.point)
    h = nevanlinna.eval_representation(spec, Z)
    return {"value": jsonio.matrix_to_json(h)}, 0


def _run_rep_classify(args, cfg: RunConfig) -> tuple[dict, int]:
    spec = _load_spec(args.rep, nevanlinna.RepresentationSpec, "rep-classify")
    probe = nevanlinna.asymptotic_probe(nevanlinna.scalar_evaluator(spec), smax=args.smax)
    verdict = nevanlinna.classify_type(probe)
    report = {
        "type": verdict.type,
        "inconclusive": verdict.inconclusive,
        "limits": {
            "scaled_modulus": jsonio.float_to_json(probe.scaled_modulus.limit),
            "scaled_imag": jsonio.float_to_json(probe.scaled_imag.limit),
            "damped_imag": jsonio.float_to_json(probe.damped_imag.limit),
        },
        "grid": [jsonio.float_to_json(s) for s in probe.grid],
        "sequences": {
            "scaled_modulus": _summary_to_json(probe.scaled_modulus),
            "scaled_imag": _summary_to_json(probe.scaled_imag),
            "damped_imag": _summary_to_json(probe.damped_imag),
        },
        "smax": jsonio.float_to_json(args.smax),
    }
    return report, 0


def _run_herglotz_eval(args, cfg: RunConfig) -> tuple[dict, int]:
    model = _load_spec(args.model, herglotz.HerglotzModel, "herglotz-eval")
    X = jsonio.parse_tuple(args.point)
    h = herglotz.eval_herglotz(model, X, form=args.method)
    return {"value": jsonio.matrix_to_json(h), "form": args.method}, 0


def _run_cayley(args, cfg: RunConfig) -> tuple[dict, int]:
    X = jsonio.parse_tuple(args.point)
    direction = _CAYLEY_DIRECTIONS[args.direction]
    out = cayley(X, direction)
    return {"tuple": jsonio.tuple_to_json(out), "direction": direction}, 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        body, status = args.run(args, cfg)
    except (CalcError, ValueError) as exc:
        print(f"freepick: {exc}", file=sys.stderr)
        return 1
    report = {"command": args.command, "config": asdict(cfg)}
    report.update(body)
    text = jsonio.dump_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
