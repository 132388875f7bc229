"""Sweep the localizing-certificate degree on the resolvent fixtures.

The localizing matrix at degree L reads coefficients out to word length
2L+1. Once 2L+1 passes the stored degree of a truncated series the
missing tail is silently treated as zero, which bends the matrix
slightly indefinite even when the underlying function is monotone. The
sweep prints the per-letter minimum eigenvalue for each L and flags the
rows whose coefficient horizon overflows the stored degree, so you can
see exactly where the certificate stops being meaningful.
"""

import argparse
from pathlib import Path

from freepick.jsonio import parse_series
from freepick.monotone import certify_monotone

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"


def sweep(path: Path, max_degree: int) -> None:
    f = parse_series(str(path))
    print(f"{path.name}: d={f.d}, stored degree {f.degree}")
    print("   L  horizon  verdict         min eigenvalue per letter")
    for L in range(1, max_degree + 1):
        cert = certify_monotone(f, L)
        horizon = cert.coefficient_horizon
        eigs = [rep.min_eig for rep in cert.reports]
        mark = "  <- horizon overflows stored degree" if horizon > f.degree else ""
        eig_text = "  ".join(f"{e: .3e}" for e in eigs)
        print(f"  {L:2d}  {horizon:7d}  {cert.verdict:<14s} {eig_text}{mark}")
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-degree", type=int, default=8)
    ap.add_argument(
        "--series",
        action="append",
        default=None,
        help="series JSON file; repeatable (default: the two resolvent fixtures)",
    )
    args = ap.parse_args()
    paths = (
        [Path(s) for s in args.series]
        if args.series
        else [FIXTURES / "halfres_series.json", FIXTURES / "d2res_series.json"]
    )
    for path in paths:
        sweep(path, args.max_degree)


if __name__ == "__main__":
    main()
