"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of every ``lpifc`` module from the
outside; nothing under ``src/`` is edited.  A wrapped name is rebound in every
module that holds the same function object, so a name bound by
``from .fcrep import eval_word`` inside ``lpifc.search`` is traced as well as
``lpifc.fcrep.eval_word`` itself.

Each span is four int64 values (parent span, name id, start ns, end ns) kept
in one ``array``; ``write_spans`` dumps them at the end of the run.  The two
hot kernel methods ``UniPoly.__mul__`` and ``Mat2Poly.__mul__`` are counted,
not timed, so that tracing does not swamp the kernel it measures.  Span
times are read from a clock that stops while the worker's speed sampler
runs (``paused_ns``), so the samples land in no span.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from array import array

MODULES = ("exactalg", "linalg", "parsing", "words", "laurent", "fcrep",
           "expand", "grpalg", "search", "cli")

# Entry points of the parsing layer, wherever they are defined.
PARSE_ENTRY = ("words.parse_word", "laurent.parse_laurent",
               "fcrep.parse_fc_expr", "parsing.parse_unipoly")
# Top-level finite-algebra checks whose self time is the numpy sweep.
SWEEPS = ("grpalg.p1_check", "grpalg.bac_check",
          "grpalg.standard_poly_exhaustive", "grpalg.standard_poly_sampled")

# Per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("exactalg.Mat2Poly.mul.calls", "count"),
    ("exactalg.Mat2Poly.pow.calls", "count"),
    ("exactalg.Mat2Poly.pow.self_ms", "ms"),
    ("exactalg.Mat2Poly.inv.calls", "count"),
    ("exactalg.UniPoly.mul.calls", "count"),
    ("exactalg.coeff_mults", "count"),
    ("fcrep.eval_word.calls", "count"),
    ("fcrep.eval_word.self_ms", "ms"),
    ("fcrep.eval_word.per_check", "ratio"),
    ("fcrep.eval_laurent.calls", "count"),
    ("fcrep.eval_laurent.self_ms", "ms"),
    ("fcrep.unit_pair.calls", "count"),
    ("fcrep.unit_pair.ms", "ms"),
    ("fcrep.thekey_solve.self_ms", "ms"),
    ("fcrep.extract_g.self_ms", "ms"),
    ("laurent.obstruction_matrix.calls", "count"),
    ("laurent.obstruction_matrix.self_ms", "ms"),
    ("laurent.partial_sums.self_ms", "ms"),
    ("laurent.max_cumulus.calls", "count"),
    ("words.word_invariants.calls", "count"),
    ("words.word_invariants.self_ms", "ms"),
    ("words.factor_cumulus_one.calls", "count"),
    ("words.factor_cumulus_one.self_ms", "ms"),
    ("search.enum_words.self_ms", "ms"),
    ("grpalg.ElementTable.builds", "count"),
    ("grpalg.ElementTable.build_ms", "ms"),
    ("grpalg.ElementTable.cells", "count"),
    ("grpalg.poly_values.ms", "ms"),
    ("grpalg.sweep.self_ms", "ms"),
    ("grpalg.sweep.checked", "count"),
    ("grpalg.builds_per_check", "ratio"),
    ("parsing.calls", "count"),
    ("parsing.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.json.ms", "ms"),
    ("cli.stdout_bytes", "bytes"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_ms", "ms"),
    ("linalg.nullspace.calls", "count"),
    ("expand.expand.self_ms", "ms"),
    # Self time summed per module (parse entry points count as parsing,
    # JSON emission as cli); "bench" is benchmark code outside lpifc.
    ("layer.exactalg.self_ms", "ms"),
    ("layer.fcrep.self_ms", "ms"),
    ("layer.laurent.self_ms", "ms"),
    ("layer.words.self_ms", "ms"),
    ("layer.search.self_ms", "ms"),
    ("layer.grpalg.self_ms", "ms"),
    ("layer.linalg.self_ms", "ms"),
    ("layer.expand.self_ms", "ms"),
    ("layer.parsing.self_ms", "ms"),
    ("layer.cli.self_ms", "ms"),
    ("layer.bench.self_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack = [-1]
        self._child_ns = [0]
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        # Time spent outside the traced program; span times exclude it.
        self.paused_ns = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.spans) >> 2
        self.spans.extend((self._stack[-1], nid, _now() - self.paused_ns, 0))
        self._stack.append(sid)
        self._child_ns.append(0)
        return sid

    def close(self, sid: int, nid: int, new_call: bool = True) -> None:
        end = _now() - self.paused_ns
        self.spans[4 * sid + 3] = end
        dur = end - self.spans[4 * sid + 2]
        self._stack.pop()
        self.self_ns[nid] += dur - self._child_ns.pop()
        self._child_ns[-1] += dur
        self.total_ns[nid] += dur
        if new_call:
            self.calls[nid] += 1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    sid = tracer.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.close(sid, nid, first)
                        return
                    except BaseException:
                        tracer.close(sid, nid, first)
                        raise
                    tracer.close(sid, nid, first)
                    first = False
                    yield item
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid, nid)
        wrapper.__wrapped__ = fn
        return wrapper

    def stat(self, name: str, field: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return {"calls": self.calls, "total": self.total_ns, "self": self.self_ns}[field][nid]


def _rebind(modules, old, new) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``lpifc.cli`` so that JSON
    emission is timed as its own span."""

    def __init__(self, real, dumps):
        self._real = real
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every lpifc module in place."""
    pkg = importlib.import_module("lpifc")
    mods = {m: importlib.import_module(f"lpifc.{m}") for m in MODULES}
    everywhere = [pkg, *mods.values()]
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            # In cli only main is a layer boundary; the cmd_* handlers and
            # record building are the cli layer's own work.
            if short == "cli" and attr != "main":
                continue
            _rebind(everywhere, fn, tracer.wrap(f"{short}.{attr}", fn))

    ea, gp, cli = mods["exactalg"], mods["grpalg"], mods["cli"]

    uni_mul = ea.UniPoly.__mul__

    def counted_uni_mul(self, other):
        tracer.counters["exactalg.UniPoly.mul.calls"] += 1
        n = len(other.coeffs) if isinstance(other, ea.UniPoly) else 1
        tracer.counters["exactalg.coeff_mults"] += len(self.coeffs) * n
        return uni_mul(self, other)

    mat_mul = ea.Mat2Poly.__mul__

    def counted_mat_mul(self, other):
        tracer.counters["exactalg.Mat2Poly.mul.calls"] += 1
        return mat_mul(self, other)

    for key in ("exactalg.UniPoly.mul.calls", "exactalg.coeff_mults",
                "exactalg.Mat2Poly.mul.calls", "grpalg.ElementTable.cells",
                "grpalg.sweep.checked", "grpalg.checks"):
        tracer.counters.setdefault(key, 0)
    ea.UniPoly.__mul__ = ea.UniPoly.__rmul__ = counted_uni_mul
    ea.Mat2Poly.__mul__ = counted_mat_mul
    ea.Mat2Poly.__pow__ = tracer.wrap("exactalg.Mat2Poly.pow", ea.Mat2Poly.__pow__)
    ea.Mat2Poly.inv = tracer.wrap("exactalg.Mat2Poly.inv", ea.Mat2Poly.inv)

    table_init = tracer.wrap("grpalg.ElementTable.build", gp.ElementTable.__init__)

    def counted_table_init(self, *args, **kwargs):
        table_init(self, *args, **kwargs)
        tracer.counters["grpalg.ElementTable.cells"] += self.n * self.n

    gp.ElementTable.__init__ = counted_table_init
    gp.ElementTable.poly_values = tracer.wrap("grpalg.poly_values", gp.ElementTable.poly_values)

    # Count top-level checks and the tuples they checked; bac_check calls
    # p1_check, which is not a separate check.
    depth = [0]
    for name in SWEEPS:
        inner = getattr(gp, name.split(".")[1])

        def counted_check(*args, _inner=inner, **kwargs):
            depth[0] += 1
            try:
                result = _inner(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                tracer.counters["grpalg.checks"] += 1
                tracer.counters["grpalg.sweep.checked"] += result.checked
            return result
        _rebind(everywhere, inner, counted_check)

    cli.json = _JsonProxy(cli.json, tracer.wrap("cli.json", cli.json.dumps))


def _module_of(name: str) -> str:
    if name in PARSE_ENTRY or name.startswith("parsing."):
        return "parsing"
    return name.split(".")[0]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced pass."""
    ms = 1e-6
    st = tracer.stat
    c = tracer.counters
    out: dict[str, float] = {
        "exactalg.Mat2Poly.mul.calls": c["exactalg.Mat2Poly.mul.calls"],
        "exactalg.Mat2Poly.pow.calls": st("exactalg.Mat2Poly.pow", "calls"),
        "exactalg.Mat2Poly.pow.self_ms": st("exactalg.Mat2Poly.pow", "self") * ms,
        "exactalg.Mat2Poly.inv.calls": st("exactalg.Mat2Poly.inv", "calls"),
        "exactalg.UniPoly.mul.calls": c["exactalg.UniPoly.mul.calls"],
        "exactalg.coeff_mults": c["exactalg.coeff_mults"],
        "fcrep.eval_word.per_check": st("fcrep.eval_word", "calls") / max(c["checks"], 1),
        "fcrep.unit_pair.ms": st("fcrep.unit_pair", "total") * ms,
        "search.enum_words.self_ms": st("search.enum_words", "self") * ms,
        "grpalg.ElementTable.builds": st("grpalg.ElementTable.build", "calls"),
        "grpalg.ElementTable.build_ms": st("grpalg.ElementTable.build", "total") * ms,
        "grpalg.ElementTable.cells": c["grpalg.ElementTable.cells"],
        "grpalg.poly_values.ms": st("grpalg.poly_values", "total") * ms,
        "grpalg.sweep.self_ms": sum(st(n, "self") for n in SWEEPS) * ms,
        "grpalg.sweep.checked": c["grpalg.sweep.checked"],
        "grpalg.builds_per_check": (st("grpalg.ElementTable.build", "calls")
                                    / max(c["grpalg.checks"], 1)),
        "parsing.calls": sum(st(n, "calls") for n in PARSE_ENTRY),
        "parsing.self_ms": sum(tracer.self_ns[i] for i, n in enumerate(tracer.names)
                               if _module_of(n) == "parsing") * ms,
        "cli.json.ms": st("cli.json", "total") * ms,
        "cli.stdout_bytes": c["cli.stdout_bytes"],
    }
    for fn in ("fcrep.eval_word", "fcrep.eval_laurent", "laurent.obstruction_matrix",
               "words.word_invariants", "words.factor_cumulus_one", "linalg.rref"):
        out[f"{fn}.calls"] = st(fn, "calls")
        out[f"{fn}.self_ms"] = st(fn, "self") * ms
    for fn in ("fcrep.unit_pair", "laurent.max_cumulus", "linalg.nullspace"):
        out[f"{fn}.calls"] = st(fn, "calls")
    for fn in ("fcrep.thekey_solve", "fcrep.extract_g", "laurent.partial_sums",
               "expand.expand", "cli.main"):
        out[f"{fn}.self_ms"] = st(fn, "self") * ms
    layers = dict.fromkeys(("exactalg", "fcrep", "laurent", "words", "search", "grpalg",
                            "linalg", "expand", "parsing", "cli", "bench"), 0)
    for i, name in enumerate(tracer.names):
        layers[_module_of(name)] += tracer.self_ns[i]
    for layer, ns in layers.items():
        out[f"layer.{layer}.self_ms"] = ns * ms
    out["trace.spans"] = len(tracer.spans) >> 2
    return out


def write_spans(tracer: Tracer, path: str, meta: dict) -> None:
    """Write the span table: a JSON header line, then the raw int64 spans
    (parent, name id, start ns, end ns; parent -1 is the root)."""
    header = json.dumps({"names": tracer.names, "fields": ["parent", "name", "start_ns", "end_ns"],
                         "dtype": "int64-le", **meta}, sort_keys=True)
    with gzip.open(path, "wb", compresslevel=1) as fh:
        fh.write(header.encode() + b"\n")
        fh.write(tracer.spans.tobytes())
