"""The batched draws and the three-pass axiom fuzzer against the per-point
routes they replace.

sample_batch draws every seed with its own generator and forms the values of
the whole stack at once; oracle_sample below is the per-draw sampler it
replaces, one _ginibre call per matrix. axiom_verify draws all trials first,
evaluates the points of one size in one call and takes the residual norms in
stacked SVDs; oracle_axiom_verify is the one-trial-at-a-time loop it
replaces. Both pairs must agree exactly: the same draws bit for bit, and the
same trials field for field, error strings included. axiom_verify runs its
trials in chunks capped by series.BATCH_BYTES, so a small cap must give the
same report as one chunk.
"""

import numpy as np
import numpy.linalg as la
import pytest

from freepick.herglotz import HerglotzModel, herglotz_evaluator
from freepick.jsonio import parse_spec
from freepick.matcore import (
    CONTRACTION_TUPLE,
    HAAR_UNITARY,
    HERMITIAN_TUPLE,
    PI_POINT,
    PSD_DIRECTION,
    MatrixTuple,
    direct_sum,
    haar_unitary,
    hermitianize,
    point_sampler,
    sample,
    sample_batch,
    spectral_norm,
    spectral_norms,
)
from freepick.nevanlinna import (
    eval_representation_batch,
    pi_sampler,
    pick_positivity_check,
    representation_evaluator,
)
from freepick import series
from freepick.series import AxiomTrial, axiom_verify, series_evaluator

KINDS = (HAAR_UNITARY, HERMITIAN_TUPLE, PI_POINT, PSD_DIRECTION, CONTRACTION_TUPLE)
SIZES = ((1,), (1, 2, 3), (2, 4))
TRIALS = (0, 1, 7, 30)


# ------------------------------------------------------------------- oracles


def _ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def oracle_sample(kind, n, d=1, seed=0):
    """The per-draw sampler: one generator per call, one _ginibre per matrix."""
    if n < 1 or d < 1:
        raise ValueError("sample needs n >= 1 and d >= 1")
    rng = np.random.default_rng(seed)
    if kind == HAAR_UNITARY:
        Q, R = la.qr(_ginibre(rng, n))
        diag = np.diagonal(R).copy()
        diag[diag == 0] = 1.0
        return Q * (diag / np.abs(diag))
    if kind == HERMITIAN_TUPLE:
        return MatrixTuple(tuple(hermitianize(_ginibre(rng, n)) for _ in range(d)))
    if kind == PI_POINT:
        eye = np.eye(n)
        mats = []
        for _ in range(d):
            S = hermitianize(_ginibre(rng, n))
            B = _ginibre(rng, n) / np.sqrt(n)
            mats.append(S + 1j * (0.05 * eye + B @ B.conj().T))
        return MatrixTuple(mats)
    if kind == PSD_DIRECTION:
        mats = []
        for _ in range(d):
            B = _ginibre(rng, n) / np.sqrt(n)
            mats.append(B @ B.conj().T)
        return MatrixTuple(mats)
    if kind == CONTRACTION_TUPLE:
        draws = [(_ginibre(rng, n), 0.9 * rng.uniform(0.3, 1.0)) for _ in range(d)]
        G = np.array([g for g, _ in draws])
        radii = np.array([r for _, r in draws])
        return MatrixTuple(G * (radii / np.maximum(spectral_norms(G), 1e-30))[:, None, None])
    raise ValueError(f"unknown sample kind {kind!r}")


def oracle_axiom_verify(evaluator, d, trials=100, seed=0, tol=1e-9, sampler=None, sizes=(1, 2, 3)):
    """The fuzzer one trial at a time, each trial stopping at its first error."""
    sampler = sampler or (lambda n, s: sample(CONTRACTION_TUPLE, n, d, s))
    out = []
    for t in range(trials):
        n = sizes[t % len(sizes)]
        n2 = sizes[(t + 1) % len(sizes)]
        try:
            X = sampler(n, seed + 7919 * t)
            Y = sampler(n2, seed + 7919 * t + 1)
            fX = np.asarray(evaluator(X))
            graded = fX.shape == (n, n)
            fY = np.asarray(evaluator(Y))
            both = np.asarray(evaluator(direct_sum(X, Y)))
            stacked = np.zeros((n + n2, n + n2), dtype=np.result_type(fX, fY, np.float64))
            stacked[:n, :n], stacked[n:, n:] = fX, fY
            ds_res = spectral_norm(both - stacked) / (1 + spectral_norm(stacked))
            U = sample(HAAR_UNITARY, n, 1, seed + 7919 * t + 2)
            conjugated = MatrixTuple(U.conj().T @ X.mats @ U)
            sim = np.asarray(evaluator(conjugated))
            sim_res = spectral_norm(sim - U.conj().T @ fX @ U) / (1 + spectral_norm(fX))
            out.append(AxiomTrial(n=n, graded=graded, direct_sum_residual=float(ds_res), similarity_residual=float(sim_res)))
        except Exception as exc:
            out.append(
                AxiomTrial(n=n, graded=False, direct_sum_residual=float("nan"), similarity_residual=float("nan"), error=f"{type(exc).__name__}: {exc}")
            )
    return tuple(out)


# ------------------------------------------------------------------ samplers


def as_floats(S) -> np.ndarray:
    return np.asarray(S.mats if isinstance(S, MatrixTuple) else S).view(np.float64)


@pytest.mark.parametrize("kind", KINDS)
def test_sample_batch_equals_per_draw_sampler(kind):
    seeds = [0, 1, 2, 5, 7919, 104729 * 3 + 11, 2**40 + 3]
    for n in range(1, 5):
        for d in range(1, 4):
            stack = sample_batch(kind, n, d, seeds)
            assert stack.shape == ((len(seeds), n, n) if kind == HAAR_UNITARY else (len(seeds), d, n, n))
            for i, seed in enumerate(seeds):
                expected = as_floats(oracle_sample(kind, n, d, seed))
                assert np.array_equal(stack[i].view(np.float64), expected)
                assert np.array_equal(as_floats(sample(kind, n, d, seed)), expected)


@pytest.mark.parametrize("kind", KINDS)
def test_sample_batch_of_no_seeds_is_empty(kind):
    stack = sample_batch(kind, 3, 2, [])
    assert stack.shape == ((0, 3, 3) if kind == HAAR_UNITARY else (0, 2, 3, 3))


@pytest.mark.parametrize(("kind", "n", "d", "message"), [
    (PI_POINT, 0, 2, "sample needs n >= 1 and d >= 1"),
    (HAAR_UNITARY, 2, 0, "sample needs n >= 1 and d >= 1"),
    ("bogus", 0, 1, "sample needs n >= 1 and d >= 1"),
    ("bogus", 2, 1, "unknown sample kind 'bogus'"),
])
def test_sample_rejections_keep_their_messages(kind, n, d, message):
    for draw in (lambda: sample_batch(kind, n, d, [0, 1]), lambda: sample(kind, n, d, 0)):
        with pytest.raises(ValueError) as err:
            draw()
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        oracle_sample(kind, n, d, 0)
    assert str(err.value) == message


def test_haar_unitary_keeps_its_stream():
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    U = haar_unitary(3, rng)
    assert np.array_equal(U.view(np.float64), oracle_sample(HAAR_UNITARY, 3, 1, 4).view(np.float64))
    _ginibre(ref, 3)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("kind", KINDS)
def test_sampler_batches_equal_single_draws(kind):
    seeds = [3, 9, 27]
    sampler = point_sampler(kind, 2)
    batch = sampler.batch(2, seeds)
    assert len(batch) == len(seeds)
    for S, seed in zip(batch, seeds):
        assert type(S) is type(sampler(2, seed))
        assert np.array_equal(as_floats(S), as_floats(sampler(2, seed)))


@pytest.mark.parametrize("kind", (1, 2, 3, 4))
def test_pick_positivity_draws_as_the_per_draw_sampler(fixtures_dir, kind):
    # gate 8's settings: 100 samples, seed 0, sizes 1-3
    spec = parse_spec(str(fixtures_dir / f"type{kind}_rep.json"))
    worst = float("inf")
    for k, n in enumerate((1, 2, 3)):
        h = eval_representation_batch(spec, [oracle_sample(PI_POINT, n, spec.d, 104729 * t) for t in range(k, 100, 3)])
        worst = min(worst, float(la.eigvalsh((h - h.conj().swapaxes(1, 2)) / 2j).min()))
    report = pick_positivity_check(spec, samples=100, seed=0, tol=1e-9, levels=(1, 2, 3))
    assert np.array_equal(report.min_imag_eig, worst)


# -------------------------------------------------------------------- fuzzer


def refusing(f):
    """The series evaluator of f, made to raise on the points refuse picks."""
    ev = series_evaluator(f)

    def make(refuse, message):
        def evaluator(X):
            if refuse(X):
                raise RuntimeError(message)
            return ev(X)

        return evaluator

    return make


def is_direct_sum(X):
    # sampled points have no exact zero entry; a direct sum has a zero corner
    return X.n > 1 and not X.mats[:, 0, -1].any()


class RecordingSampler:
    """The default draws, remembering which points were drawn; the points
    are kept alive so that no later object takes one of their ids."""

    def __init__(self, d):
        self.d = d
        self.drawn = set()
        self.kept = []

    def __call__(self, n, seed):
        X = sample(CONTRACTION_TUPLE, n, self.d, seed)
        self.kept.append(X)
        self.drawn.add(id(X))
        return X


def nan_at_size(size):
    def evaluator(X):
        value = np.eye(X.n, dtype=complex)
        return value * np.nan if X.n == size else value

    return evaluator


def fuzz_cases(fixtures_dir, halfres_series, x3_series, d2res_series):
    """(name, evaluator, d, sampler factory) for every input of the comparison."""
    cases = []
    for kind in (1, 2, 3, 4):
        spec = parse_spec(str(fixtures_dir / f"type{kind}_rep.json"))
        cases.append((f"type{kind}", representation_evaluator(spec), spec.d, lambda spec=spec: pi_sampler(spec.d)))
    spec = parse_spec(str(fixtures_dir / "type2_rep.json"))
    # contractions leave the half-plane: a batch raises, and each point is redone alone
    cases.append(("type2 off the half-plane", representation_evaluator(spec), spec.d, lambda: None))
    for name, f in (("halfres", halfres_series), ("x3", x3_series), ("d2res", d2res_series)):
        cases.append((name, series_evaluator(f), f.d, lambda: None))
    rng = np.random.default_rng(5)
    U = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    model = HerglotzModel(d=2, m=2, U=U, v=v / np.linalg.norm(v))
    cases.append(("herglotz", herglotz_evaluator(model), 2, lambda: None))
    ev = series_evaluator(halfres_series)
    cases.append(("identity", lambda X: np.eye(X.n), 1, lambda: None))
    cases.append(("entrywise abs", lambda X: np.abs(ev(X)), 1, lambda: None))
    cases.append(("hadamard square", lambda X: X.mats[0] * X.mats[0], 1, lambda: None))
    refuse = refusing(x3_series)
    cases.append(("raises at size 2", refuse(lambda X: X.n == 2, "size two refused"), 1, lambda: None))
    cases.append(("raises on sums", refuse(is_direct_sum, "sum refused"), 1, lambda: None))
    sampler = RecordingSampler(1)
    similar = refuse(lambda X: id(X) not in sampler.drawn and not is_direct_sum(X), "similarity refused")
    cases.append(("raises on similarity", similar, 1, lambda: sampler))
    cases.append(("one size too large", lambda X: np.eye(X.n + 1), 1, lambda: None))
    cases.append(("always 1 x 1", lambda X: np.ones((1, 1)), 1, lambda: None))
    cases.append(("a vector", lambda X: np.ones(X.n), 1, lambda: None))
    cases.append(("a number", lambda X: 2.0, 1, lambda: None))
    cases.append(("nan at size 2", nan_at_size(2), 1, lambda: None))
    cases.append(("nan everywhere", lambda X: np.full((X.n, X.n), np.nan), 1, lambda: None))
    cases.append(("plain sampler", series_evaluator(d2res_series), 2, lambda: (lambda n, s: sample(CONTRACTION_TUPLE, n, 2, s))))
    return cases


def assert_same_trials(new, old, where):
    assert len(new) == len(old), where
    for t, (a, b) in enumerate(zip(new, old)):
        assert (a.n, a.graded, a.error) == (b.n, b.graded, b.error), (where, t)
        assert np.array_equal(a.direct_sum_residual, b.direct_sum_residual, equal_nan=True), (where, t)
        assert np.array_equal(a.similarity_residual, b.similarity_residual, equal_nan=True), (where, t)


def test_fuzzer_equals_the_per_trial_loop(fixtures_dir, halfres_series, x3_series, d2res_series):
    seen_errors = set()
    for name, evaluator, d, make_sampler in fuzz_cases(fixtures_dir, halfres_series, x3_series, d2res_series):
        for sizes in SIZES:
            for trials in TRIALS:
                seed = 3 * trials + len(sizes)
                new = axiom_verify(evaluator, d, trials=trials, seed=seed, sampler=make_sampler(), sizes=sizes)
                old = oracle_axiom_verify(evaluator, d, trials=trials, seed=seed, sampler=make_sampler(), sizes=sizes)
                assert_same_trials(new.trials, old, (name, sizes, trials))
                seen_errors.update(e.split(":")[0] for e in new.errors)
    # the comparison reached every kind of failure it is meant to
    assert {"RuntimeError", "ValueError", "LinAlgError", "DomainError"} <= seen_errors


def picky_sampler(refused):
    """Contraction draws that raise at the sizes in refused; size 0 is an empty tuple."""

    def sampler(n, seed):
        if n in refused:
            raise RuntimeError(f"no draw of size {n}")
        return MatrixTuple(np.zeros((1, 0, 0))) if n == 0 else sample(CONTRACTION_TUPLE, n, 1, seed)

    return sampler


@pytest.mark.parametrize("sizes", [(0, 1), (1, 2, 3), (3, 2, 1, 0)])
def test_fuzzer_keeps_the_error_order_of_failing_draws(sizes, x3_series):
    # each step can fail on its own: a draw (size 3), f (size 2 or NaN), the
    # U draw (size 0) and the residual norms (NaN)
    refuse = refusing(x3_series)
    evaluators = [
        refuse(lambda X: X.n == 2, "size two refused"),
        nan_at_size(1),
        lambda X: np.full((X.n, X.n), np.nan),
        lambda X: np.eye(X.n + 1),
    ]
    for evaluator in evaluators:
        for refused in ((), (3,)):
            for trials in (1, 4, 9):
                where = (sizes, refused, trials)
                new = axiom_verify(evaluator, 1, trials=trials, seed=1, sampler=picky_sampler(refused), sizes=sizes)
                old = oracle_axiom_verify(evaluator, 1, trials=trials, seed=1, sampler=picky_sampler(refused), sizes=sizes)
                assert_same_trials(new.trials, old, where)


def counting_batches(ev, calls):
    """ev with its batch form, recording the size of every call (1 for a
    single point)."""

    def evaluator(X):
        calls.append(1)
        return ev(X)

    def batch(points):
        calls.append(len(points))
        return ev.batch(points)

    evaluator.batch = batch
    return evaluator


def test_fuzzer_batches_each_point_size_once(fixtures_dir):
    spec = parse_spec(str(fixtures_dir / "type2_rep.json"))
    calls = []
    evaluator = counting_batches(representation_evaluator(spec), calls)
    report = axiom_verify(evaluator, spec.d, trials=30, seed=7, sampler=pi_sampler(spec.d), sizes=(1, 2, 3, 4))
    assert report.passed
    # X, Y and U* X U take sizes 1-4, the sums 3, 5 and 7: six calls for 120 points
    assert len(calls) == 6 and sum(calls) == 120


def test_series_fuzzer_batches_each_point_size_once(d2res_series):
    calls = []
    evaluator = counting_batches(series_evaluator(d2res_series), calls)
    report = axiom_verify(evaluator, 2, trials=30, seed=7, sizes=(1, 2, 3))
    assert report.passed
    # X, Y and U* X U take sizes 1-3 (30 points each), the sums 3, 5 and 4
    # (10 each): five calls for 120 points
    assert sorted(calls) == [10, 10, 30, 30, 40]
    old = oracle_axiom_verify(series_evaluator(d2res_series), 2, trials=30, seed=7, sizes=(1, 2, 3))
    assert_same_trials(report.trials, old, "d2res")


@pytest.mark.parametrize("cap", [1, 3000, 20000])
def test_chunked_fuzzer_equals_one_chunk(cap, fixtures_dir, halfres_series, x3_series, d2res_series, monkeypatch):
    cases = fuzz_cases(fixtures_dir, halfres_series, x3_series, d2res_series)
    whole = {}
    for name, evaluator, d, make_sampler in cases:
        whole[name] = axiom_verify(evaluator, d, trials=30, seed=5, sampler=make_sampler(), sizes=(1, 2, 3))
    monkeypatch.setattr(series, "BATCH_BYTES", cap)
    for name, evaluator, d, make_sampler in cases:
        new = axiom_verify(evaluator, d, trials=30, seed=5, sampler=make_sampler(), sizes=(1, 2, 3))
        assert_same_trials(new.trials, whole[name].trials, (name, cap))
        old = oracle_axiom_verify(evaluator, d, trials=30, seed=5, sampler=make_sampler(), sizes=(1, 2, 3))
        assert_same_trials(new.trials, old, (name, cap))
    # the cap splits the trials: more evaluator calls than point sizes
    calls = []
    spec = parse_spec(str(fixtures_dir / "type2_rep.json"))
    evaluator = counting_batches(representation_evaluator(spec), calls)
    axiom_verify(evaluator, spec.d, trials=30, seed=5, sampler=pi_sampler(spec.d), sizes=(1, 2, 3))
    assert sum(calls) == 120 and len(calls) > 5
    if cap == 1:  # one trial per chunk: X with U* X U, Y, and X (+) Y
        assert len(calls) == 90
