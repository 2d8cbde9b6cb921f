"""Per-module tracing of pdfam, installed from outside the package.

The tracer replaces the public functions of each traced module by wrappers
that record a span (name, start, end, parent span, job id) and the hot
scalar methods (group ``op``/``neg``, ring ``add``/``neg``/``mul``/
``is_unit``) by wrappers that only count.  A count is kept only for a call
that enters its module from outside: while any traced code of a module is
running, calls into that same module are nested and not counted.

pdfam modules bind each other's functions at import (``from .multisets
import verify``), so a wrapper is installed on every module attribute, and
every module-level dict value, that holds a wrapped function; patching the
defining module alone would silently miss those calls.  ``uninstall``
restores every attribute it replaced.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import Counter

MODULES = ("groups", "rings", "multisets", "constructions", "search",
           "catalog", "serialize", "cli")
COUNTED = {"groups": ("op", "neg"), "rings": ("add", "neg", "mul", "is_unit")}

# field and ring construction, timed as spans for rings.setup_s
RING_CLASSES = ("Zmod", "GaloisField", "ProductRing")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, job)
        self.counts: Counter = Counter()
        self.job = None
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._depth = dict.fromkeys(MODULES, 0)
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, module: str, name: str, fn, before=None, after=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        ids, clock = self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            depth[module] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[module] -= 1
                stack.pop()
                spans.append((sid, name, start, end, parent, self.job))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counter(self, module: str, key: str, fn):
        depth, counts = self._depth, self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if depth[module]:
                return fn(*args)
            counts[key] += 1
            depth[module] = 1
            try:
                return fn(*args)
            finally:
                depth[module] = 0

        return wrapper

    # -- hooks that read exact work counts off arguments and results --------

    def _verify_pairs(self, args):
        self.counts["multisets.verify_pairs"] += sum(
            b.size * (b.size - 1) for b in args[0].blocks)

    def _search_result(self, result):
        self.counts["search.nodes"] += result.nodes
        self.counts["search.hits"] += len(result.results)

    def _encoded(self, text):
        self.counts["serialize.bytes"] += len(text.encode())

    # -- installation -----------------------------------------------------

    def _patch(self, holder, key, value):
        if isinstance(holder, dict):
            self._undo.append((holder, key, holder[key], True))
            holder[key] = value
        else:
            self._undo.append((holder, key, vars(holder)[key], False))
            setattr(holder, key, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = {
            "multisets.verify": (self._verify_pairs, None),
            "search.search_hds": (None, self._search_result),
            "serialize.canonical_dumps": (None, self._encoded),
        }
        wrapped: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"pdfam.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type):
                    if obj.__module__ != mod.__name__:
                        continue
                    for meth in COUNTED.get(short, ()):
                        if meth in vars(obj):
                            self._patch(obj, meth, self._counter(
                                short, f"{short}.{meth}_calls", vars(obj)[meth]))
                    if short == "rings" and attr in RING_CLASSES:
                        self._patch(obj, "__init__", self._span(
                            short, f"rings.{attr}.__init__",
                            vars(obj)["__init__"]))
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    name = f"{short}.{attr}"
                    before, after = hooks.get(name, (None, None))
                    wrapped[id(obj)] = self._span(short, name, obj, before, after)
        for modname, mod in list(sys.modules.items()):
            if modname != "pdfam" and not modname.startswith("pdfam."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            self._patch(obj, key, wrapped[id(val)])

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original, is_dict = self._undo.pop()
            if is_dict:
                holder[key] = original
            else:
                setattr(holder, key, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


# -- per-layer metrics from one traced pass ---------------------------------

RING_SETUP = {"rings.primitive_element", "rings.build_y_powers",
              "rings.starter_reps"} | {f"rings.{c}.__init__" for c in RING_CLASSES}


def layer_metrics(spans, counts, outputs: int) -> dict[str, float]:
    """Per-layer figures of one pass: exact counts and span times.

    An ``*_s`` figure is the time inside the outermost spans of that name
    (or set of names); ``*_self_s`` is span time minus its child spans.
    """
    names = {s[0]: s[1] for s in spans}
    parents = {s[0]: s[4] for s in spans}
    child = Counter()
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start

    def inclusive(match) -> float:
        total = 0.0
        for sid, name, start, end, parent, _ in spans:
            if not match(name):
                continue
            p = parent
            while p is not None and not match(names.get(p, "")):
                p = parents.get(p)
            if p is None:
                total += end - start
        return total

    def self_time(match) -> float:
        return sum((end - start - child[sid]
                    for sid, name, start, end, _, _ in spans if match(name)), 0.0)

    def calls(match) -> int:
        return sum(1 for s in spans if match(s[1]))

    def named(n):
        return lambda name: name == n

    verify_s = inclusive(named("multisets.verify"))
    verify_calls = calls(named("multisets.verify"))
    search_s = inclusive(named("search.search_hds"))
    leaf = sum(1 for s in spans if s[1] == "multisets.verify"
               and names.get(s[4]) == "search.search_hds")
    pairs = counts["multisets.verify_pairs"]
    nodes = counts["search.nodes"]
    return {
        "groups.op_calls": counts["groups.op_calls"],
        "groups.neg_calls": counts["groups.neg_calls"],
        "groups.is_subgroup_s": inclusive(named("groups.is_subgroup")),
        "rings.mul_calls": counts["rings.mul_calls"],
        "rings.add_calls": counts["rings.add_calls"],
        "rings.is_unit_calls": counts["rings.is_unit_calls"],
        "rings.setup_s": inclusive(lambda n: n in RING_SETUP),
        "multisets.verify_calls": verify_calls,
        "multisets.verify_s": verify_s,
        "multisets.verify_self_s": self_time(named("multisets.verify")),
        "multisets.delta_family_s": inclusive(named("multisets.delta_family")),
        "multisets.make_family_s": inclusive(named("multisets.make_family")),
        "multisets.verify_pairs": pairs,
        "multisets.verify_pairs_per_s": pairs / verify_s if verify_s else 0.0,
        "multisets.verify_per_output": verify_calls / outputs,
        "constructions.sdf_lift_self_s": self_time(named("constructions.sdf_lift")),
        "constructions.expand_hadamard_pdf_self_s":
            self_time(named("constructions.expand_hadamard_pdf")),
        "constructions.make_recipe_s": inclusive(named("constructions.make_recipe")),
        "constructions.double_sdf_s": inclusive(named("constructions.double_sdf")),
        "search.nodes": nodes,
        "search.hits": counts["search.hits"],
        "search.leaf_verify_calls": leaf,
        "search.search_hds_self_s": self_time(named("search.search_hds")),
        "search.nodes_per_s": nodes / search_s if search_s else 0.0,
        "serialize.encode_s": inclusive(
            lambda n: n == "serialize.canonical_dumps"
            or (n.startswith("serialize.") and n.endswith("_to_json"))),
        "serialize.decode_s": inclusive(
            lambda n: n.startswith("serialize.") and n.endswith("_from_json")),
        "serialize.bytes": counts["serialize.bytes"],
        "cli.verify_self_s": self_time(lambda n: n.startswith("cli.")),
    }
