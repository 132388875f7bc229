"""In-memory span tracer that wraps freepick's public functions.

The traced run installs a timing wrapper around each function in TARGETS
and rebinds every module attribute of the package that refers to it, so a
name imported with ``from .matcore import checked_solve`` into herglotz and
nevanlinna is traced as well. Nothing inside the package changes; untraced
runs never create a Tracer.

A span is (id, parent id, name, start ns, end ns, raised). Spans stay in
memory until the run ends. A span's self time is its duration minus the
durations of its direct children; calls are strictly nested in this single
threaded benchmark, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("words", "matcore", "series", "monotone", "hardy", "nevanlinna", "herglotz", "jsonio", "cli")

# Functions with their own per-layer metrics (calls and self time).
REPORTED = (
    "words.eval_words",
    "words.enumerate_words",
    "matcore.checked_solve",
    "matcore.psd_min_eig",
    "matcore.sample",
    "series.eval_series",
    "series.derivative.block",
    "series.derivative.localizing",
    "series.derivative.fd",
    "monotone.localizing_matrix",
    "monotone.certify_monotone",
    "monotone.choi_at",
    "monotone.HamburgerModel.reconstruct",
    "hardy.szego_kernels",
    "hardy.min_norm_interpolate",
    "nevanlinna.eval_representation",
    "herglotz.eval_herglotz",
    "jsonio.parse_series",
    "jsonio.parse_spec",
    "jsonio.dump_report",
    "cli.build_parser",
)


def _derivative_label(args, kwargs) -> str:
    method = kwargs.get("method", args[3] if len(args) > 3 else "block")
    return f"series.derivative.{method}"


class Tracer:
    """Collects spans and work counters while installed."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.enabled = False
        self.counts: dict[str, float] = defaultdict(float)
        self.kron_mb_max = 0.0
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans
    def open(self, name: str) -> tuple:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent, name, time.perf_counter_ns()

    def close(self, handle: tuple, raised: bool) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        sid, parent, name, start = handle
        self.spans.append((sid, parent, name, start, end, raised))

    def wrap(self, label, fn, count=None, wrap_result: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            name = label(args, kwargs) if callable(label) else label
            handle = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(handle, True)
                raise
            tracer.close(handle, False)
            if count is not None:
                count(tracer, name, args, kwargs, result)
            if wrap_result and callable(result):
                result = tracer.wrap(name + ".call", result)
            return result

        return wrapper

    # ---------------------------------------------------------- patching
    def install(self) -> None:
        """Wrap every target and rebind each module attribute that names it."""
        pkg = self.package.__name__
        modules = [m for k, m in sorted(sys.modules.items()) if k == pkg or k.startswith(pkg + ".")]
        for module_name, attr, label, count, wrap_result in TARGETS:
            owner = getattr(self.package, module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(label, original, count))
                self._patches.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(label, original, count, wrap_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # ----------------------------------------------------------- results
    def self_times(self) -> dict[int, int]:
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, name, start, end, raised in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return {sid: (end - start) - child_ns[sid] for sid, _p, _n, start, end, _r in self.spans}

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self ns, total ns, raised."""
        own = self.self_times()
        table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ns": 0, "total_ns": 0, "raised": 0})
        for sid, _parent, name, start, end, raised in self.spans:
            row = table[name]
            row["calls"] += 1
            row["self_ns"] += own[sid]
            row["total_ns"] += end - start
            row["raised"] += int(raised)
        return dict(table)

    def metrics(self, tasks: int) -> dict[str, dict]:
        """Per-layer metrics, normalised per traced task where they are sums."""
        table = self.layer_table()
        out: dict[str, dict] = {}
        for module in MODULES:
            rows = [row for name, row in table.items() if name.split(".")[0] == module]
            out[f"{module}.calls"] = _m(sum(r["calls"] for r in rows) / tasks, "calls/task")
            out[f"{module}.self_ms"] = _m(sum(r["self_ns"] for r in rows) / 1e6 / tasks, "ms/task")
            out[f"{module}.failed"] = _m(sum(r["raised"] for r in rows), "count")
        for name in REPORTED:
            row = table.get(name, {"calls": 0, "self_ns": 0})
            out[f"{name}.calls"] = _m(row["calls"] / tasks, "calls/task")
            out[f"{name}.self_ms"] = _m(row["self_ns"] / 1e6 / tasks, "ms/task")
        c = self.counts
        returned = c["words.entries_returned"]
        # work counts, computed from call arguments and results
        out["words.words_evaluated"] = _m(returned / tasks, "words/task")
        out["words.useful_ratio"] = _m(c["words.requested"] / returned if returned else 0.0, "ratio")
        out["series.derivative.localizing.kron_mb_computed"] = _m(self.kron_mb_max, "MB")
        out["matcore.checked_solve.rows"] = _m(c["matcore.checked_solve.rows"] / tasks, "rows/task")
        out["jsonio.bytes_read"] = _m(c["jsonio.bytes_read"] / tasks, "B/task")
        return out

    def write(self, path, meta: dict) -> None:
        """One JSON header line, then one JSON line per span in end order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "fields": ["id", "parent", "name", "start_ns", "end_ns", "raised"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ------------------------------------------------------------- counters
def _count_eval_words(tracer, name, args, kwargs, result) -> None:
    words = args[1] if len(args) > 1 else kwargs["words"]
    # an iterator is already consumed here; count what the result shows
    tracer.counts["words.requested"] += len(words) if hasattr(words, "__len__") else len(result)
    tracer.counts["words.entries_returned"] += len(result)


def _count_localizing(tracer, name, args, kwargs, result) -> None:
    if name != "series.derivative.localizing":
        return
    f, X = args[0], args[1]
    words = tracer.package.words.word_count(f.d, max(f.degree - 1, 0))
    tracer.kron_mb_max = max(tracer.kron_mb_max, (words * X.n) ** 2 * 16 / 1e6)


def _count_solve_rows(tracer, name, args, kwargs, result) -> None:
    tracer.counts["matcore.checked_solve.rows"] += args[0].shape[0]


def _count_bytes(tracer, name, args, kwargs, result) -> None:
    tracer.counts["jsonio.bytes_read"] += os.path.getsize(args[0])


# (module, attribute, span label, counter, wrap the returned callable)
TARGETS = (
    ("words", "enumerate_words", "words.enumerate_words", None, False),
    ("words", "eval_words", "words.eval_words", _count_eval_words, False),
    ("matcore", "checked_solve", "matcore.checked_solve", _count_solve_rows, False),
    ("matcore", "psd_min_eig", "matcore.psd_min_eig", None, False),
    ("matcore", "sample", "matcore.sample", None, False),
    ("matcore", "cayley", "matcore.cayley", None, False),
    ("matcore", "direct_sum", "matcore.direct_sum", None, False),
    ("series", "eval_series", "series.eval_series", None, False),
    ("series", "derivative", _derivative_label, _count_localizing, False),
    ("series", "monomial_vector", "series.monomial_vector", None, False),
    ("series", "axiom_verify", "series.axiom_verify", None, False),
    ("monotone", "localizing_matrix", "monotone.localizing_matrix", None, False),
    ("monotone", "certify_monotone", "monotone.certify_monotone", None, False),
    ("monotone", "hamburger_factor", "monotone.hamburger_factor", None, False),
    ("monotone", "choi_at", "monotone.choi_at", None, False),
    ("monotone", "HamburgerModel.reconstruct", "monotone.HamburgerModel.reconstruct", None, False),
    ("hardy", "szego_kernels", "hardy.szego_kernels", None, False),
    ("hardy", "min_norm_interpolate", "hardy.min_norm_interpolate", None, False),
    ("nevanlinna", "eval_representation", "nevanlinna.eval_representation", None, False),
    ("nevanlinna", "asymptotic_probe", "nevanlinna.asymptotic_probe", None, False),
    ("nevanlinna", "classify_type", "nevanlinna.classify_type", None, False),
    ("herglotz", "eval_herglotz", "herglotz.eval_herglotz", None, False),
    ("herglotz", "schur_cayley", "herglotz.schur_cayley", None, True),
    ("herglotz", "pick_herglotz_bridge", "herglotz.pick_herglotz_bridge", None, True),
    ("jsonio", "parse_series", "jsonio.parse_series", _count_bytes, False),
    ("jsonio", "parse_tuple", "jsonio.parse_tuple", _count_bytes, False),
    ("jsonio", "parse_matrix", "jsonio.parse_matrix", _count_bytes, False),
    ("jsonio", "parse_spec", "jsonio.parse_spec", _count_bytes, False),
    ("jsonio", "dump_report", "jsonio.dump_report", None, False),
    ("cli", "build_parser", "cli.build_parser", None, False),
    ("cli", "main", "cli.main", None, False),
)

