"""The three workloads: seeded inputs, tasks and their output checks.

Each build function generates its inputs from the seed with numpy, writes them as
JSON into the run's work directory and reads them back through
``freepick.jsonio``, so the library only ever sees the generated files.
It returns the task list of one round and a short warm-up list. A task's
``run`` holds only library calls (it is what the latency measures); its
``check`` runs after the timing ends.

Sizes are fixed per workload; the seed changes values only, so every seed
gives the same mix of task shapes and the same amount of work per round.
Library functions are looked up through the package at call time, never
bound at build time, so the traced run sees every call.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks as C

# dense-series: (d, L, n); the localizing route runs only where its dense
# (word_count(d, L-1) * n)^2 complex kron stays at or below this size
# (a grid rather than a few points, so latency percentiles fall between
# neighbouring task shapes instead of across wide gaps)
DENSE_CONFIGS = (
    (2, 8, 4), (2, 8, 6), (2, 8, 8),
    (2, 9, 4), (2, 9, 5), (2, 9, 6),
    (2, 10, 4), (2, 10, 6), (2, 10, 8),
    (3, 6, 3), (3, 6, 4), (3, 6, 5),
)
KRON_LIMIT_MB = 160.0
# certify_monotone on random real-free series: (d, series degree, L)
CERTIFY_CONFIGS = ((2, 11, 5), (3, 7, 3))
FIXTURES = ("halfres_series.json", 5, 0.3), ("d2res_series.json", 3, 0.15)


@dataclass
class Task:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


# ----------------------------------------------------------------- inputs
class Inputs:
    """Seeded generators and the JSON files they are written to."""

    def __init__(self, seed: int, workdir: Path, prefix: str = "in") -> None:
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.prefix = prefix
        self.serial = itertools.count()

    def ginibre(self, n: int) -> np.ndarray:
        return (self.rng.standard_normal((n, n)) + 1j * self.rng.standard_normal((n, n))) / np.sqrt(2)

    def hermitian(self, n: int) -> np.ndarray:
        G = self.ginibre(n)
        return (G + G.conj().T) / 2

    def contraction(self, n: int, d: int) -> list[np.ndarray]:
        """Coordinate norms in [0.6, 0.9]: well inside the polydisk, and large
        enough that the degree-L Szego Gram at n = 8 stays invertible."""
        out = []
        for _ in range(d):
            G = self.ginibre(n)
            out.append(G * (self.rng.uniform(0.6, 0.9) / np.linalg.norm(G, 2)))
        return out

    def scaled_hermitian(self, n: int, d: int, radius: float) -> list[np.ndarray]:
        return [M * (radius / np.linalg.norm(M, 2)) for M in (self.hermitian(n) for _ in range(d))]

    def psd(self, n: int, d: int) -> list[np.ndarray]:
        mats = []
        for _ in range(d):
            B = self.ginibre(n) / np.sqrt(n)
            mats.append(B @ B.conj().T)
        return mats

    def pi_point(self, n: int, d: int) -> list[np.ndarray]:
        out = []
        for _ in range(d):
            B = self.ginibre(n) / np.sqrt(n)
            out.append(self.hermitian(n) + 1j * (0.05 * np.eye(n) + B @ B.conj().T))
        return out

    def unitary(self, n: int) -> np.ndarray:
        Q, R = np.linalg.qr(self.ginibre(n))
        phase = np.diagonal(R) / np.abs(np.diagonal(R))
        return Q * phase

    def unit_vector(self, m: int) -> np.ndarray:
        v = self.rng.standard_normal(m) + 1j * self.rng.standard_normal(m)
        return v / np.linalg.norm(v)

    def coeff(self, length: int, real: bool = False) -> complex:
        re = self.rng.standard_normal()
        im = 0.0 if real else self.rng.standard_normal()
        return complex(re, im) / 2.0**length

    def dense_series(self, d: int, L: int) -> dict:
        words = itertools.chain.from_iterable(itertools.product(range(1, d + 1), repeat=k) for k in range(L + 1))
        return {w: self.coeff(len(w)) for w in words}

    def real_free(self, words) -> dict:
        """Coefficients with c_{w*} = conj(c_w) over the words and their reversals."""
        coeffs: dict = {}
        for w in words:
            r = tuple(reversed(w))
            if w not in coeffs:
                c = self.coeff(len(w), real=(w == r))
                coeffs[w] = c
                coeffs[r] = c.conjugate()
        return coeffs

    # JSON writers: complex entries as [re, im] pairs
    def write(self, stem: str, obj) -> str:
        path = self.workdir / f"{self.prefix}{next(self.serial):03d}-{stem}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def write_series(self, d: int, degree: int, coeffs: dict, real_free: bool = False) -> str:
        terms = [{"word": list(w), "re": c.real, "im": c.imag} for w, c in coeffs.items()]
        return self.write("series", {"d": d, "degree": degree, "real_free": real_free, "terms": terms})

    def write_tuple(self, mats) -> str:
        return self.write("tuple", {"d": len(mats), "n": mats[0].shape[0], "matrices": [_mat(M) for M in mats]})

    def write_matrix(self, M) -> str:
        return self.write("matrix", _mat(M))


def _mat(M) -> list:
    return [_vec(row) for row in np.asarray(M, dtype=complex)]


def _vec(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


# ------------------------------------------------------------ dense-series
def build_dense(fp, seed: int, workdir: Path, fixtures: Path) -> tuple[list[Task], list[Task]]:
    gen = Inputs(seed, workdir)
    tasks: list[Task] = []
    for d, L, n in DENSE_CONFIGS:
        tasks += _series_case(fp, gen, d, L, n, localizing=(fp.words.word_count(d, L - 1) * n) ** 2 * 16 / 1e6 <= KRON_LIMIT_MB)
    for d, degree, L in CERTIFY_CONFIGS:
        words = itertools.chain.from_iterable(itertools.product(range(1, d + 1), repeat=k) for k in range(degree + 1))
        coeffs = gen.real_free(words)
        f = fp.jsonio.parse_series(gen.write_series(d, degree, coeffs, real_free=True))
        tasks.append(_certify_task(fp, f, coeffs, L))
    for name, L, radius in FIXTURES:
        f = fp.jsonio.parse_series(str(fixtures / name))
        tasks += _fixture_tasks(fp, gen, f, L, radius)
    warm_gen = Inputs(seed + 1, workdir, prefix="warm")
    warmup = _series_case(fp, warm_gen, 2, 3, 2, localizing=True) + [
        _certify_task(fp, fp.jsonio.parse_series(str(fixtures / "halfres_series.json")), None, 2)
    ]
    return tasks, warmup


def _series_case(fp, gen: Inputs, d: int, L: int, n: int, localizing: bool) -> list[Task]:
    coeffs = gen.dense_series(d, L)
    f = fp.jsonio.parse_series(gen.write_series(d, L, coeffs))
    Xm, Hm = gen.contraction(n, d), [gen.hermitian(n) for _ in range(d)]
    X = fp.jsonio.parse_tuple(gen.write_tuple(Xm))
    H = fp.jsonio.parse_tuple(gen.write_tuple(Hm))
    # a value of a random degree-2 series at X, so the target is in the kernel span
    target = fp.jsonio.parse_matrix(gen.write_matrix(C.series_value(gen.dense_series(d, 2), Xm)))
    ref_f = functools.cache(lambda: C.series_value(coeffs, Xm))
    ref_D = functools.cache(lambda: C.derivative_value(coeffs, Xm, Hm))

    def run_series():
        s = fp.series
        return (
            s.eval_series(f, X),
            s.derivative(f, X, H, method="block"),
            s.derivative(f, X, H, method="fd", richardson=True),
        )

    def check_series(out):
        value, block, fd = out
        return C.check_eval(value, ref_f()) or C.check_route(block, ref_D(), "block") or C.check_route(fd, ref_D(), "fd")

    def run_hardy():
        return fp.hardy.szego_kernels(X, L), fp.hardy.min_norm_interpolate(X, target, L)

    def check_hardy(out):
        frame, g = out
        c = np.array([coeffs.get(w, 0.0) for w in frame.order.words], dtype=complex)
        return C.check_frame(frame, c, ref_f()) or C.check_interpolant(g, Xm, target)

    tasks = [Task("series", run_series, check_series), Task("hardy", run_hardy, check_hardy)]
    if localizing:
        tasks.append(
            Task(
                "localizing",
                lambda: fp.series.derivative(f, X, H, method="localizing"),
                lambda D: C.check_route(D, ref_D(), "localizing"),
            )
        )
    return tasks


def _certify_task(fp, f, coeffs, L: int) -> Task:
    coeffs = dict(f.coeffs) if coeffs is None else coeffs
    refs = functools.cache(lambda: [C.localizing(coeffs, f.d, k, L) for k in range(1, f.d + 1)])
    return Task(
        "certify",
        lambda: fp.monotone.certify_monotone(f, L),
        lambda cert: C.check_certificate(cert, refs(), 1e-9),
    )


def _fixture_tasks(fp, gen: Inputs, f, L: int, radius: float) -> list[Task]:
    """Hamburger reconstruction and Choi/Kraus analysis on a certified resolvent."""
    Xm, Hm = gen.scaled_hermitian(3, f.d, radius), gen.psd(3, f.d)
    X = fp.jsonio.parse_tuple(gen.write_tuple(Xm))
    H = fp.jsonio.parse_tuple(gen.write_tuple(Hm))
    coeffs = dict(f.coeffs)
    ref_D = functools.cache(lambda: C.derivative_value(coeffs, Xm, Hm))

    def run_hamburger():
        model = fp.monotone.hamburger_factor(f, L)
        return model, model.reconstruct(X, H)

    def check_hamburger(out):
        model, R = out
        bound = C.hamburger_bound(coeffs, L, radius, max(C.norm2(M) for M in Hm))
        msg = C.check_gate3(model.certificate)
        gap = C.norm2(R - ref_D())
        return msg or C.fail_if(not gap <= bound, f"Hamburger reconstruction off by {gap:.3e} > bound {bound:.3e}")

    return [
        Task("hamburger", run_hamburger, check_hamburger),
        Task("choi", lambda: fp.monotone.choi_at(f, X, tol=1e-8), C.check_choi),
    ]


# ---------------------------------------------------------- sampled-checks
HERGLOTZ_MODELS = 12
SPECS_PER_KIND = 2
AXIOM_TRIALS = 4


def build_sampled(fp, seed: int, workdir: Path, fixtures: Path) -> tuple[list[Task], list[Task]]:
    gen = Inputs(seed, workdir)
    tasks: list[Task] = []
    for i in range(HERGLOTZ_MODELS):
        d = 1 + i % 3
        m = 1 + int(gen.rng.integers(12 // d))
        tasks += _herglotz_tasks(fp, gen, d, m)
    specs = []
    for kind in (1, 2, 3, 4):
        for j in range(SPECS_PER_KIND):
            data, raw = _spec(gen, kind, m=3 + j, d=1 + (kind + j) % 3)
            spec = fp.jsonio.parse_spec(gen.write("spec", data))
            specs.append(spec)
            tasks += [_pick_task(fp, gen, spec, raw, n) for n in (1, 2, 3)]
    for spec in specs[:SPECS_PER_KIND]:
        tasks += [_bridge_task(fp, gen, spec, n) for n in (1, 2, 1, 2)]
    for j, spec in enumerate(specs[1:3]):
        tasks.append(_axiom_task(fp, spec, seed=seed + j))
    warm = Inputs(seed + 1, workdir, prefix="warm")
    warmup = _herglotz_tasks(fp, warm, 2, 2) + [_bridge_task(fp, warm, specs[0], 2), _axiom_task(fp, specs[0], 0)]
    return tasks, warmup


def _herglotz_tasks(fp, gen: Inputs, d: int, m: int) -> list[Task]:
    U, v = gen.unitary(d * m), gen.unit_vector(d * m)
    model = fp.jsonio.parse_spec(gen.write("model", {"d": d, "m": m, "U": _mat(U), "v": _vec(v), "a": 0.0}))
    tasks = []
    zero = [np.zeros((2, 2)) for _ in range(d)]
    tasks.append(
        Task(
            "herglotz_center",
            lambda: fp.herglotz.eval_herglotz(model, fp.matcore.MatrixTuple(tuple(zero))),
            C.check_center,
        )
    )
    for n in (1, 2):
        Xm = gen.contraction(n, d)
        ref = functools.cache(lambda Xm=Xm: C.herglotz_value(U, v, d, m, Xm))

        def run(Xm=Xm):
            hg = fp.herglotz
            X = fp.matcore.MatrixTuple(tuple(Xm))
            return hg.eval_herglotz(model, X), hg.schur_cayley(hg.herglotz_evaluator(model))(X)

        tasks.append(Task("herglotz", run, lambda out, ref=ref: C.check_herglotz(out, ref())))
    return tasks


def _spec(gen: Inputs, kind: int, m: int, d: int) -> tuple[dict, dict]:
    """A random representation of the kind on C^m with d coordinates."""
    a = 0.0 if kind == 1 else float(gen.rng.standard_normal())
    v = gen.unit_vector(m)
    if kind == 4:
        dimN = 1
        Q = gen.unitary(m)
        P = [Q[:, part] @ Q[:, part].conj().T for part in np.array_split(gen.rng.permutation(m), d)]
        A = gen.hermitian(m - dimN)
        data = {"kind": 4, "a": a, "m": m, "A": _mat(A), "v": _vec(v), "P": [_mat(p) for p in P], "dimN": dimN}
        return data, {}
    B = [gen.ginibre(m) for _ in range(d)]
    B = [b @ b.conj().T for b in B]
    w, V = np.linalg.eigh(sum(B))
    S = (V / np.sqrt(w)) @ V.conj().T
    Y = [(S @ b @ S + (S @ b @ S).conj().T) / 2 for b in B]
    A = gen.hermitian(m)
    data = {"kind": kind, "a": a, "m": m, "A": _mat(A), "v": _vec(v), "Y": [_mat(y) for y in Y]}
    return data, {"a": a, "A": A, "v": v, "Y": Y} if kind in (1, 2) else {}


def _pick_task(fp, gen: Inputs, spec, raw: dict, n: int) -> Task:
    Zm = gen.pi_point(n, spec.d)
    ref = functools.cache(lambda: C.resolvent_value(raw["a"], raw["A"], raw["v"], raw["Y"], Zm) if raw else None)
    return Task(
        "pick",
        lambda: fp.nevanlinna.eval_representation(spec, fp.matcore.MatrixTuple(tuple(Zm))),
        lambda h: C.check_pick(h, ref()),
    )


def _bridge_task(fp, gen: Inputs, spec, n: int) -> Task:
    """Gate 10: Pick -> Herglotz -> Pick bridge and both Cayley round trips."""
    Zm, Xm = gen.pi_point(n, spec.d), gen.contraction(n, spec.d)
    direct = functools.cache(lambda: fp.nevanlinna.eval_representation(spec, fp.matcore.MatrixTuple(tuple(Zm))))

    def run():
        hg, mc = fp.herglotz, fp.matcore
        Z, X = mc.MatrixTuple(tuple(Zm)), mc.MatrixTuple(tuple(Xm))
        pick = fp.nevanlinna.representation_evaluator(spec)
        back = hg.pick_herglotz_bridge(hg.pick_herglotz_bridge(pick, hg.PICK_TO_HERGLOTZ), hg.HERGLOTZ_TO_PICK)
        return (
            back(Z),
            mc.cayley(mc.cayley(Z, mc.HALF_TO_DISK), mc.DISK_TO_HALF),
            mc.cayley(mc.cayley(X, mc.DISK_TO_HALF), mc.HALF_TO_DISK),
        )

    def check(out):
        h, Z2, X2 = out
        pairs = [(h, direct())] + list(zip(Z2.mats, Zm)) + list(zip(X2.mats, Xm))
        return C.check_round_trip(pairs)

    return Task("bridge", run, check)


def _axiom_task(fp, spec, seed: int) -> Task:
    def run():
        nv = fp.nevanlinna
        return fp.series.axiom_verify(
            nv.representation_evaluator(spec), spec.d, trials=AXIOM_TRIALS, seed=seed, tol=1e-9, sampler=nv.pi_sampler(spec.d)
        )

    return Task("axioms", run, lambda rep: C.check_axioms(rep, 1e-9))


# ------------------------------------------------------------ cli-fixtures
def build_cli(fp, seed: int, workdir: Path, fixtures: Path) -> tuple[list[Task], list[Task]]:
    gen = Inputs(seed, workdir)
    fx = lambda name: str(fixtures / name)  # noqa: E731
    out_dir = workdir / "reports"
    out_dir.mkdir(exist_ok=True)
    jsonio = fp.jsonio
    cmds: list[tuple[list[str], Callable[[dict], "str | None"], Callable[[], int]]] = []

    def add(argv, check_report, expected_rc=lambda: 0):
        cmds.append((argv, check_report, expected_rc))

    # series: two bundled fixtures, a sparse deep two-letter series and an x^k-type one
    deep_words = [tuple(int(x) for x in gen.rng.integers(1, 3, size=int(gen.rng.integers(0, 25)))) for _ in range(30)]
    deep = gen.real_free(deep_words + [(1,) * 24])
    powers = {(1,) * k: complex(gen.coeff(k, real=True)) for k in sorted(set(int(x) for x in gen.rng.integers(0, 31, size=12)) | {30})}
    series_files = {
        "x3": (fx("x3_series.json"), 2),
        "halfres": (fx("halfres_series.json"), 3),
        "deep": (gen.write_series(2, 24, deep, real_free=True), 3),
        "powers": (gen.write_series(1, 30, powers, real_free=True), 2),
    }
    for name, (path, n) in series_files.items():
        f = jsonio.parse_series(path)
        coeffs = dict(f.coeffs)
        Xm = gen.contraction(n, f.d)
        Hm = [gen.hermitian(n) for _ in range(f.d)]
        xp, hp = gen.write_tuple(Xm), gen.write_tuple(Hm)
        X, H = jsonio.parse_tuple(xp), jsonio.parse_tuple(hp)
        ref_f = functools.cache(lambda c=coeffs, Xm=Xm: C.series_value(c, Xm))
        ref_D = functools.cache(lambda c=coeffs, Xm=Xm, Hm=Hm: C.derivative_value(c, Xm, Hm))
        add(
            ["eval", "--series", path, "--point", xp],
            lambda r, f=f, X=X, ref=ref_f: _same(r["value"], fp.series.eval_series(f, X).value)
            or C.check_matrix(_matrix(r["value"]), ref(), C.EVAL_RTOL, "eval report"),
        )
        methods = ("block", "fd") if f.degree > 12 and f.d > 1 else ("block", "localizing", "fd")
        for method in methods:
            add(
                ["deriv", "--series", path, "--point", xp, "--direction", hp, "--method", method],
                lambda r, f=f, X=X, H=H, m=method, ref=ref_D: _same(r["value"], fp.series.derivative(f, X, H, method=m))
                or C.check_route(_matrix(r["value"]), ref(), m),
            )
    for path, L, expect in (
        (fx("x3_series.json"), 2, 2),
        (fx("halfres_series.json"), 5, 0),
        (fx("d2res_series.json"), 3, 0),
        (series_files["deep"][0], 4, None),
        (series_files["powers"][0], 7, None),
    ):
        f = jsonio.parse_series(path)
        cert = functools.cache(lambda f=f, L=L: fp.monotone.certify_monotone(f, L))
        refs = functools.cache(lambda f=f, L=L: [C.localizing(dict(f.coeffs), f.d, k, L) for k in range(1, f.d + 1)])
        add(
            ["monotone", "--series", path, "--degree", str(L)],
            lambda r, cert=cert, refs=refs: _same_certificate(r, cert()) or C.check_certificate(cert(), refs(), 1e-9),
            (lambda e=expect: e) if expect is not None else (lambda cert=cert: 0 if cert().certified else 2),
        )
    # interpolation: the Jordan fixture and a generic two-letter point
    Xm = gen.contraction(2, 2)
    for point, target, L, Xmats in (
        (fx("jordan_point.json"), fx("jordan_target.json"), 12, None),
        (gen.write_tuple(Xm), gen.write_matrix(gen.ginibre(2)), 5, Xm),
    ):
        X, T = jsonio.parse_tuple(point), jsonio.parse_matrix(target)
        g = functools.cache(lambda X=X, T=T, L=L: fp.hardy.min_norm_interpolate(X, T, L))
        add(
            ["interpolate", "--point", point, "--direction", target, "--degree", str(L)],
            lambda r, g=g, X=X, T=T: _check_interpolation(r, g(), X.mats, T),
        )
    for subject in (("--series", fx("x3_series.json")), ("--series", series_files["powers"][0]), ("--rep", fx("type1_rep.json"))):
        argv = ["axioms", *subject, "--samples", "10", "--seed", str(seed % 1000)]
        add(argv, lambda r, argv=argv: _check_axiom_report(fp, r, argv))
    for kind in (1, 2, 3, 4):
        spec = jsonio.parse_spec(fx(f"type{kind}_rep.json"))
        Zm = gen.pi_point(2, spec.d)
        zp = gen.write_tuple(Zm)
        Z = jsonio.parse_tuple(zp)
        add(
            ["rep-eval", "--rep", fx(f"type{kind}_rep.json"), "--point", zp],
            lambda r, spec=spec, Z=Z: _same(r["value"], fp.nevanlinna.eval_representation(spec, Z)) or C.check_pick(_matrix(r["value"])),
        )
        expected_type = {1: 1, 2: 2, 3: 2, 4: 4}[kind]
        add(
            ["rep-classify", "--rep", fx(f"type{kind}_rep.json")],
            lambda r, spec=spec, t=expected_type: _check_classify_report(fp, r, spec, t),
        )
    herglotz_inputs = [(fx("moebius_model.json"), fx("half_scalar_point.json"), None)]
    for d, m in ((2, 3), (3, 2)):
        U, v = gen.unitary(d * m), gen.unit_vector(d * m)
        Xm = gen.contraction(2, d)
        model = gen.write("model", {"d": d, "m": m, "U": _mat(U), "v": _vec(v), "a": 0.0})
        herglotz_inputs.append((model, gen.write_tuple(Xm), (U, v, d, m, Xm)))
    for model_path, point, raw in herglotz_inputs:
        model, X = jsonio.parse_spec(model_path), jsonio.parse_tuple(point)
        for form in ("cayley", "resolvent"):
            add(
                ["herglotz-eval", "--model", model_path, "--point", point, "--method", form],
                lambda r, model=model, X=X, form=form, raw=raw: _check_herglotz_report(fp, r, model, X, form, raw),
            )
    for direction, mats in (("disk2half", gen.contraction(2, 2)), ("half2disk", gen.pi_point(3, 2)), ("disk2half", None)):
        point = fx("zero2_point.json") if mats is None else gen.write_tuple(mats)
        X = jsonio.parse_tuple(point)
        add(["cayley", "--point", point, "--direction", direction], lambda r, X=X, dr=direction: _check_cayley_report(fp, r, X, dr))

    tasks = [_cli_task(fp, i, argv, check_report, expected_rc, out_dir) for i, (argv, check_report, expected_rc) in enumerate(cmds)]
    # the warm-up is one full round: it records each command's reference bytes
    return tasks, tasks


def _cli_task(fp, i: int, argv: list[str], check_report, expected_rc, out_dir: Path) -> Task:
    out = out_dir / f"{i:03d}-{argv[0]}.json"
    full = argv + ["--out", str(out)]
    first: dict = {}

    def run():
        try:
            return fp.cli.main(full), out
        except SystemExit as exc:  # argparse usage errors
            return exc.code, out

    def check(result):
        rc, path = result
        want = expected_rc()
        if rc != want:
            return f"{argv[0]} exited {rc}, expected {want}"
        data = path.read_bytes()
        path.unlink()
        if first.setdefault("bytes", data) != data:
            return f"{argv[0]} report differs between identical invocations"
        report = json.loads(data)
        if report.get("command") != argv[0]:
            return f"report names command {report.get('command')!r}"
        return check_report(report)

    return Task(f"cli.{argv[0]}", run, check)


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(*e) for e in row] for row in rows])


def _same(rows, M, rtol: float = 1e-12) -> "str | None":
    """A report matrix against the direct library call (JSON round trips exactly)."""
    return C.check_matrix(_matrix(rows), M, rtol, "report against the library call")


def _same_certificate(report: dict, cert) -> "str | None":
    got = report["certificate"]
    if got["verdict"] != cert.verdict or got["degree"] != cert.degree:
        return f"report verdict {got['verdict']}, library {cert.verdict}"
    eigs = [letter["min_eig"] for letter in got["letters"]]
    return C.fail_if(eigs != [r.min_eig for r in cert.reports], "report min_eig differs from the library")


def _check_interpolation(report: dict, g, X_mats, target) -> "str | None":
    coeffs = {tuple(t["word"]): complex(t["re"], t["im"]) for t in report["series"]["terms"]}
    if coeffs != dict(g.coeffs):
        return "interpolant differs from the library call"
    norm = float(np.sqrt(sum(abs(c) ** 2 for c in coeffs.values())))
    if abs(norm - report["norm"]) > 1e-12 * max(1.0, norm):
        return f"reported norm {report['norm']} differs from {norm}"
    return C.check_interpolant(g, X_mats, target)


def _check_axiom_report(fp, report: dict, argv: list[str]) -> "str | None":
    ns = fp.cli.build_parser().parse_args(argv)
    if ns.series is not None:
        f = fp.jsonio.parse_series(ns.series)
        evaluator, d, sampler = fp.series.series_evaluator(f), f.d, None
    else:
        spec = fp.jsonio.parse_spec(ns.rep)
        evaluator, d, sampler = fp.nevanlinna.representation_evaluator(spec), spec.d, fp.nevanlinna.pi_sampler(spec.d)
    rep = fp.series.axiom_verify(
        evaluator, d, trials=ns.samples, seed=ns.seed, tol=ns.tol, sampler=sampler, sizes=tuple(range(1, ns.dim + 1))
    )
    if (report["passed"], report["trials"], report["max_direct_sum"], report["max_similarity"]) != (
        rep.passed,
        len(rep.trials),
        rep.max_direct_sum,
        rep.max_similarity,
    ):
        return "axioms report differs from the library call"
    return C.check_axioms(rep, ns.tol)


def _check_classify_report(fp, report: dict, spec, expected: int) -> "str | None":
    nv = fp.nevanlinna
    verdict = nv.classify_type(nv.asymptotic_probe(nv.scalar_evaluator(spec), smax=report["smax"]))
    if (report["type"], report["inconclusive"]) != (verdict.type, verdict.inconclusive):
        return "classification report differs from the library call"
    return C.fail_if(verdict.type != expected or verdict.inconclusive, f"type {verdict.type}, expected {expected}")


def _check_herglotz_report(fp, report: dict, model, X, form: str, raw) -> "str | None":
    h = _matrix(report["value"])
    msg = _same(report["value"], fp.herglotz.eval_herglotz(model, X, form=form))
    if msg:
        return msg
    if raw is not None and form == "cayley":
        msg = C.check_matrix(h, C.herglotz_value(*raw), C.EVAL_RTOL, "herglotz report")
        if msg:
            return msg
    low = float(np.linalg.eigvalsh((h + h.conj().T) / 2)[0])
    return C.fail_if(low < -C.PSD_TOL, f"Re h dips to {low:.3e}")


def _check_cayley_report(fp, report: dict, X, direction: str) -> "str | None":
    mc = fp.matcore
    got = [_matrix(M) for M in report["tuple"]["matrices"]]
    lib = mc.cayley(X, mc.DISK_TO_HALF if direction == "disk2half" else mc.HALF_TO_DISK)
    eye = np.eye(X.n)
    for G, L_, A in zip(got, lib.mats, X.mats):
        if direction == "disk2half":
            ref = 1j * np.linalg.solve(eye - A, eye + A)
        else:
            ref = (A - 1j * eye) @ np.linalg.inv(A + 1j * eye)
        msg = C.check_matrix(G, L_, 1e-12, "cayley report") or C.check_matrix(G, ref, C.EVAL_RTOL, "cayley reference")
        if msg:
            return msg
    return None


WORKLOADS = {
    "dense-series": build_dense,
    "sampled-checks": build_sampled,
    "cli-fixtures": build_cli,
}
