"""Cross-check the three derivative routes on random series.

The block route embeds (X, H) in an upper-triangular 2n x 2n tuple and
reads the corner, the localizing route contracts the coefficient pencil,
and the fd route is a central difference (the library also offers a
Richardson-refined one, which this sweep does not use). They
compute the same object, so any spread between them is numerical error;
this sweep reports the worst pairwise gap per (d, n) cell and exits
nonzero if the spread ever crosses the tolerance.
"""

import argparse
import sys

import numpy as np

from freepick.matcore import sample, spectral_norm
from freepick.series import METHODS, FreeSeries, derivative
from freepick.words import enumerate_words


def random_series(d: int, degree: int, seed: int) -> FreeSeries:
    rng = np.random.default_rng(seed)
    coeffs = {
        w: complex(rng.standard_normal(), rng.standard_normal()) / 2.0 ** len(w)
        for w in enumerate_words(d, degree).words
    }
    return FreeSeries(d=d, degree=degree, coeffs=coeffs)


def worst_gap(d: int, n: int, degree: int, trials: int, seed: int) -> float:
    worst = 0.0
    for t in range(trials):
        f = random_series(d, degree, seed=seed + t)
        X = sample("contraction_tuple", n, d, seed=seed + 1000 + t)
        H = sample("hermitian_tuple", n, d, seed=seed + 2000 + t)
        routes = [derivative(f, X, H, method=m) for m in METHODS]
        scale = max(1.0, *(spectral_norm(D) for D in routes))
        for i in range(len(routes)):
            for j in range(i + 1, len(routes)):
                worst = max(worst, spectral_norm(routes[i] - routes[j]) / scale)
    return worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=25, help="trials per (d, n) cell")
    ap.add_argument("--degree", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-6)
    args = ap.parse_args()

    print(f"routes: {', '.join(METHODS)}; {args.trials} trials per cell, degree {args.degree}")
    overall = 0.0
    for d in (1, 2):
        for n in (1, 2, 3):
            gap = worst_gap(d, n, args.degree, args.trials, args.seed + 100 * d + 10 * n)
            overall = max(overall, gap)
            print(f"  d={d} n={n}  worst pairwise relative gap {gap:.3e}")
    print(f"overall {overall:.3e} (tol {args.tol:g})")
    return 0 if overall <= args.tol else 1


if __name__ == "__main__":
    sys.exit(main())
