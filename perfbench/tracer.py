"""Spans and counts at the layer boundaries of ``braid3``, from outside.

``Tracer.install`` wraps the public functions listed in ``TRACE_POINTS``
and rebinds every name that refers to one of them, in every loaded
``braid3`` module (so ``cli``'s ``from .hecke import homfly`` is traced
too) and on the classes whose methods are listed.  Each call records a
span ``(id, parent id, name, start, end)`` in memory plus the counts its
hook derives from the arguments and result.  ``uninstall`` restores the
originals.  Nothing in the package itself changes.

A layer is a module of ``braid3``; its self time is the time its spans
cover minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "words", "xu", "hecke", "laurent", "invariants", "enumeration", "knot_table")

# (module, attribute path) of every traced callable: the entry points of
# each layer.  Hot helpers such as ``words.shift_letter`` (millions of calls
# in a census) stay unwrapped, since a wrapper on them would swamp the self
# times being measured.  Generator functions are counted per item and get
# no span, since their frames interleave with the caller's.
TRACE_POINTS = (
    ("cli", "run"),
    ("words", "parse_word"),
    ("words", "render_word"),
    ("words", "closure_components"),
    ("words", "mirror"),
    ("xu", "reduce"),
    ("xu", "genus"),
    ("xu", "is_strongly_quasipositive"),
    ("hecke", "homfly"),
    ("laurent", "LaurentPoly1.__mul__"),
    ("laurent", "LaurentPoly2.__mul__"),
    ("laurent", "conway"),
    ("laurent", "alexander"),
    ("laurent", "mirror_image"),
    ("laurent", "parse_poly"),
    ("laurent", "render_poly"),
    ("invariants", "report"),
    ("enumeration", "generate_normal_forms"),
    ("enumeration", "canonical_key"),
    ("enumeration", "enumerate_minimal"),
    ("knot_table", "KnotTable.match"),
    ("knot_table", "load_table"),
)

# Counts that depend only on the inputs; two traced runs must agree on them.
EXACT_COUNTS = (
    "hecke.letters_folded",
    "laurent.mul_term_pairs",
    "enumeration.canonical_key_calls",
    "enumeration.orbits_kept",
    "xu.reduce_calls",
)


def _size(poly) -> int:
    # Number of stored terms; both polynomial classes keep them in ``_terms``.
    return len(poly._terms)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = [0]
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    # -- hooks: counts derived from one call --------------------------------

    def _hook(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "hecke.homfly":
            c["hecke.letters_folded"] += sum(3 if abs(l) == 3 else 1 for l in args[0])
            c["hecke.terms_out"] += _size(result)
        elif name.startswith("laurent.LaurentPoly") and name.endswith(".__mul__"):
            c["laurent.mul_term_pairs"] += _size(args[0]) * _size(args[1])
        elif name == "xu.reduce":
            c["xu.letters_in"] += len(args[0])
        elif name == "enumeration.enumerate_minimal":
            c["enumeration.orbits_kept"] += len(result)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        calls = self.calls
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                for item in fn(*args, **kwargs):
                    tracer.counts["enumeration.words_generated"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
                calls[name] += 1
            tracer._hook(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"braid3.{layer}") for layer in LAYERS}
        package = importlib.import_module("braid3")
        every_module = list(modules.values()) + [package]
        for layer, path in TRACE_POINTS:
            owner = modules[layer]
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            wrapped = self._wrap(f"{layer}.{path}", original)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if owner in every_module:
                for mod in every_module:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, counts, and total and self time per span name and per layer."""
        child: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_name: dict[str, float] = defaultdict(float)
        self_layer: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            dur = end - start
            own = dur - child.get(sid, 0.0)
            total[name] += dur
            self_name[name] += own
            self_layer[name.split(".", 1)[0]] += own
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "total": dict(total),
            "self_name": dict(self_name),
            "self_layer": dict(self_layer),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def merge(summaries) -> dict[str, dict[str, float]]:
    """Sum the summaries of several traced processes."""
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for section, values in summary.items():
            merged = out.setdefault(section, {})
            for key, value in values.items():
                merged[key] = merged.get(key, 0) + value
    return out


def exact_counts(summary) -> dict[str, int]:
    calls, counts = summary.get("calls", {}), summary.get("counts", {})
    values = {
        "enumeration.canonical_key_calls": calls.get("enumeration.canonical_key", 0),
        "xu.reduce_calls": calls.get("xu.reduce", 0),
    }
    for name in EXACT_COUNTS:
        values.setdefault(name, counts.get(name, 0))
    return values


def layer_metrics(summary, operations: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``."""
    calls = defaultdict(int, summary.get("calls", {}))
    c = defaultdict(int, summary.get("counts", {}))
    total = defaultdict(float, summary.get("total", {}))
    self_name = defaultdict(float, summary.get("self_name", {}))
    self_layer = defaultdict(float, summary.get("self_layer", {}))

    def ratio(a, b):
        return a / b if b else 0.0

    letters = c["hecke.letters_folded"]
    generated = c["enumeration.words_generated"]
    mul = ("laurent.LaurentPoly1.__mul__", "laurent.LaurentPoly2.__mul__")
    m: dict[str, tuple[float, str]] = {
        "hecke.homfly_calls": (calls["hecke.homfly"], "count"),
        "hecke.homfly_s": (total["hecke.homfly"], "s"),
        "hecke.letters_folded": (letters, "count"),
        "hecke.ns_per_letter": (1e9 * ratio(total["hecke.homfly"], letters), "ns"),
        "hecke.terms_out": (c["hecke.terms_out"], "count"),
        "laurent.mul_calls": (sum(calls[n] for n in mul), "count"),
        "laurent.mul_term_pairs": (c["laurent.mul_term_pairs"], "count"),
        "laurent.mul_s": (sum(total[n] for n in mul), "s"),
        "laurent.alexander_s": (total["laurent.alexander"], "s"),
        "laurent.conway_s": (total["laurent.conway"], "s"),
        "laurent.render_poly_s": (total["laurent.render_poly"], "s"),
        "laurent.parse_poly_s": (total["laurent.parse_poly"], "s"),
        "knot_table.match_calls": (calls["knot_table.KnotTable.match"], "count"),
        "knot_table.match_s": (total["knot_table.KnotTable.match"], "s"),
        "xu.reduce_calls": (calls["xu.reduce"], "count"),
        "xu.reduce_calls_per_op": (ratio(calls["xu.reduce"], operations), "ratio"),
        "xu.reduce_s": (total["xu.reduce"], "s"),
        "xu.letters_in": (c["xu.letters_in"], "count"),
        "xu.quasipositive_s": (total["xu.is_strongly_quasipositive"], "s"),
        "enumeration.words_generated": (generated, "count"),
        "enumeration.canonical_key_calls": (calls["enumeration.canonical_key"], "count"),
        "enumeration.canonical_key_s": (total["enumeration.canonical_key"], "s"),
        "enumeration.orbits_kept": (c["enumeration.orbits_kept"], "count"),
        "enumeration.orbit_yield": (ratio(c["enumeration.orbits_kept"], generated), "ratio"),
        "enumeration.enumerate_minimal_calls": (calls["enumeration.enumerate_minimal"], "count"),
        "enumeration.enumerate_minimal_s": (total["enumeration.enumerate_minimal"], "s"),
        "invariants.report_s": (total["invariants.report"], "s"),
        "invariants.report_self_s": (self_name["invariants.report"], "s"),
        "cli.run_s": (total["cli.run"], "s"),
        "cli.self_s": (self_name["cli.run"], "s"),
        "words.parse_word_s": (total["words.parse_word"], "s"),
    }
    for layer in LAYERS:
        m.setdefault(f"{layer}.self_s", (self_layer[layer], "s"))
    return m
