"""Output checks with the acceptance-gate tolerances.

Every check takes a task's output and returns None when it is correct or a
one-line reason when it is not. The references here are computed with
plain numpy from the generated inputs, independently of freepick's own
evaluation code, so a wrong kernel cannot vouch for itself.
"""

from __future__ import annotations

import numpy as np
import numpy.linalg as la

EVAL_RTOL = 1e-9  # float noise for an evaluation against the reference
ROUTE_RTOL = 5e-7  # each route within half of gate 4's pairwise 1e-6
PSD_TOL = 1e-9  # gates 8 and 9
SCHUR_TOL = 1e-9  # gate 9: ||phi|| <= 1 + 1e-9
ROUND_TRIP_TOL = 1e-10  # gate 10
CHOI_TOL = 1e-8  # gate 6
RANK_ONE_RTOL = 1e-10  # gate 3


def norm2(M) -> float:
    return float(la.norm(np.asarray(M), 2)) if np.size(M) else 0.0


def rel_gap(got, ref) -> float:
    """||got - ref||_2 / max(1, ||ref||_2), the gates' scale convention."""
    got = np.asarray(got)
    ref = np.asarray(ref)
    if got.shape != ref.shape:
        return float("inf")
    return norm2(got - ref) / max(1.0, norm2(ref))


def fail_if(condition: bool, message: str) -> str | None:
    return message if condition else None


# ------------------------------------------------------------ references
def series_value(coeffs: dict, mats) -> np.ndarray:
    """sum_w c_w X^w with X^{k w} = X_k X^w, memoised over suffixes."""
    n = mats[0].shape[0]
    memo = {(): np.eye(n, dtype=np.complex128)}

    def power(w):
        got = memo.get(w)
        if got is None:
            got = mats[w[0] - 1] @ power(w[1:])
            memo[w] = got
        return got

    acc = np.zeros((n, n), dtype=np.complex128)
    for w in sorted(coeffs, key=len):
        acc += coeffs[w] * power(w)
    return acc


def derivative_value(coeffs: dict, mats, dirs) -> np.ndarray:
    """Df(X)[H] as the upper-right corner of f([[X, H], [0, X]])."""
    n = mats[0].shape[0]
    zero = np.zeros((n, n))
    big = [np.block([[X, H], [zero, X]]) for X, H in zip(mats, dirs)]
    return series_value(coeffs, big)[:n, n:]


def localizing(coeffs: dict, d: int, k: int, L: int) -> np.ndarray:
    """(c_{I* x_k J})_{I,J} over words of length <= L in graded-lex order."""
    words = [()]
    level = [()]
    for _ in range(L):
        level = [(a,) + w for a in range(1, d + 1) for w in level]
        words.extend(level)
    M = np.zeros((len(words), len(words)), dtype=np.complex128)
    for i, I in enumerate(words):
        left = tuple(reversed(I)) + (k,)
        for j, J in enumerate(words):
            M[i, j] = coeffs.get(left + J, 0.0)
    return M


def hamburger_bound(coeffs: dict, L: int, rho: float, h: float) -> float:
    """Bound on ||reconstruct - Df(X)[H]|| for a degree-L factorization.

    The degree-L localizing matrices hold the pairs (I, J) with |I|, |J| <= L,
    so a word w of length >= L + 2 loses some of its |w| derivative terms,
    each of norm <= |c_w| rho^{|w|-1} ||H||. Float noise is added on top.
    """
    tail = sum(abs(c) * len(w) * rho ** (len(w) - 1) * h for w, c in coeffs.items() if len(w) >= L + 2)
    return tail + EVAL_RTOL * max(1.0, h)


def herglotz_value(U, v, d: int, m: int, mats) -> np.ndarray:
    """Cayley form (v*(x)I)(I + (U(x)I)D)(I - (U(x)I)D)^{-1}(v(x)I)."""
    n = mats[0].shape[0]
    size = d * m * n
    D = np.zeros((size, size), dtype=np.complex128)
    for i, X in enumerate(mats):
        for j in range(m):
            r = (i * m + j) * n
            D[r : r + n, r : r + n] = X
    UI = np.kron(U, np.eye(n))
    vcol = np.kron(v.reshape(-1, 1), np.eye(n))
    eye = np.eye(size)
    return vcol.conj().T @ (eye + UI @ D) @ la.solve(eye - UI @ D, vcol)


def resolvent_value(a: float, A, v, Y, mats) -> np.ndarray:
    """Kinds 1 and 2: a I + (v*(x)I)(A(x)I - sum Y_i (x) Z_i)^{-1}(v(x)I)."""
    n = mats[0].shape[0]
    G = np.kron(A, np.eye(n)) - sum(np.kron(Yi, Z) for Yi, Z in zip(Y, mats))
    vcol = np.kron(v.reshape(-1, 1), np.eye(n))
    return a * np.eye(n) + vcol.conj().T @ la.solve(G, vcol)


# ---------------------------------------------------------------- checks
def check_matrix(got, ref, rtol: float, what: str) -> str | None:
    gap = rel_gap(got, ref)
    return fail_if(not gap <= rtol, f"{what}: relative gap {gap:.3e} > {rtol:g}")


def check_eval(result, ref) -> str | None:
    return check_matrix(result.value, ref, EVAL_RTOL, "eval_series")


def check_route(D, ref, route: str) -> str | None:
    rtol = EVAL_RTOL if route == "block" else ROUTE_RTOL
    return check_matrix(D, ref, rtol, f"derivative[{route}]")


def check_frame(frame, coeff_vector, ref_value) -> str | None:
    """Kernel reproduction <f, k^{ij}> = f(X)_{ij} at float noise, and gram = K*K."""
    n = ref_value.shape[0]
    via = (frame.K.conj().T @ coeff_vector).reshape(n, n)
    msg = check_matrix(via, ref_value, EVAL_RTOL, "kernel reproduction")
    if msg:
        return msg
    return check_matrix(frame.gram, frame.K.conj().T @ frame.K, EVAL_RTOL, "gram")


def check_interpolant(g, X_mats, target) -> str | None:
    return check_matrix(series_value(dict(g.coeffs), X_mats), target, 1e-8, "min-norm interpolant")


def is_psd(M, tol: float) -> bool:
    """The package's relative verdict: min eig >= -tol (1 + ||M||)."""
    H = (M + M.conj().T) / 2
    return float(la.eigvalsh(H)[0]) >= -tol * (1 + norm2(H))


def check_certificate(cert, ref_mats, tol: float) -> str | None:
    """Matrices equal the independent build and the verdict follows from them."""
    if len(cert.matrices) != len(ref_mats):
        return f"certificate has {len(cert.matrices)} letters, expected {len(ref_mats)}"
    refuted = False
    for k, (M, R) in enumerate(zip(cert.matrices, ref_mats), start=1):
        if M.shape != R.shape or not np.array_equal(M, R):
            return f"localizing matrix of letter {k} differs from the reference"
        refuted |= not is_psd(R, tol)
    expected = "refuted" if refuted else "certified_psd"
    if cert.verdict != expected:
        return f"verdict {cert.verdict}, expected {expected}"
    if refuted:
        w = cert.witness
        u = np.asarray(w.vector)
        R = ref_mats[w.k - 1]
        value = float(np.real(u.conj() @ R @ u))
        if abs(la.norm(u) - 1) > 1e-9 or abs(value - w.min_eig) > 1e-9 * (1 + norm2(R)):
            return "refutation witness does not attain its min_eig"
    return None


def check_gate3(cert) -> str | None:
    """Resolvent fixtures: certified, PSD and rank one per letter."""
    if cert.verdict != "certified_psd":
        return f"resolvent certificate verdict {cert.verdict}"
    for k, M in enumerate(cert.matrices, start=1):
        vals = la.eigvalsh((M + M.conj().T) / 2)
        if vals[0] < -1e-12 or vals[-2] > RANK_ONE_RTOL * vals[-1]:
            return f"letter {k} is not PSD rank one (eigenvalues {vals[0]:.3e}, {vals[-2]:.3e})"
    return None


def check_choi(report) -> str | None:
    if report.min_eig < -CHOI_TOL:
        return f"Choi min eigenvalue {report.min_eig:.3e}"
    for c in report.coordinates:
        if c.reconstruction_residual is None or not c.reconstruction_residual <= CHOI_TOL:
            return f"Kraus reconstruction residual {c.reconstruction_residual} for letter {c.k}"
    return None


def check_herglotz(out, ref) -> str | None:
    """Gate 9 on (h, phi): Re h >= -1e-9, ||phi|| <= 1 + 1e-9, h on the reference."""
    h, phi = out
    msg = check_matrix(h, ref, EVAL_RTOL, "eval_herglotz")
    if msg:
        return msg
    low = float(la.eigvalsh((h + h.conj().T) / 2)[0])
    if low < -PSD_TOL:
        return f"Re h dips to {low:.3e}"
    eye = np.eye(h.shape[0])
    msg = check_matrix(phi, (h - eye) @ la.inv(h + eye), EVAL_RTOL, "Schur transform")
    if msg:
        return msg
    size = norm2(phi)
    return fail_if(size > 1 + SCHUR_TOL, f"Schur transform norm {size:.12f}")


def check_center(h) -> str | None:
    gap = float(np.abs(h - np.eye(h.shape[0])).max())
    return fail_if(not gap <= 1e-12, f"value at zero off the identity by {gap:.3e}")


def check_pick(h, ref=None) -> str | None:
    """Gate 8: Im h PSD; kinds 1 and 2 also against the resolvent formula."""
    if ref is not None:
        msg = check_matrix(h, ref, EVAL_RTOL, "eval_representation")
        if msg:
            return msg
    im = (h - h.conj().T) / 2j
    low = float(la.eigvalsh(im)[0])
    return fail_if(low < -PSD_TOL, f"Im h dips to {low:.3e}")


def check_round_trip(pairs) -> str | None:
    worst = max(rel_gap(a, b) for a, b in pairs)
    return fail_if(not worst <= ROUND_TRIP_TOL, f"round-trip error {worst:.3e}")


def check_axioms(report, tol: float) -> str | None:
    if not report.passed:
        return (
            f"axioms failed: direct sum {report.max_direct_sum:.3e}, "
            f"similarity {report.max_similarity:.3e}, errors {report.errors}"
        )
    return fail_if(
        not (report.max_direct_sum <= tol and report.max_similarity <= tol),
        "axiom residuals above tolerance",
    )
