"""Timing wrappers around lfoc's layer boundaries, for traced passes.

The wrappers live in the benchmark's own files and are installed at run
time; no lfoc code changes.  lfoc modules bind names with
``from .category import compose``, so a function is replaced in every
``lfoc.*`` namespace that holds it; a constructor or method is replaced
on its class, which covers every call site.

Coarse boundaries (SPAN) record one span each: name, start, end, parent
span and operation number.  Hot leaves (LEAF), and any span opened
inside a leaf, only add to a (parent span, name) bucket of call count,
total time and self time, so memory stays bounded.  A nested call of a
function already being timed counts as part of the outer call.  Self
time is a frame's duration minus the durations of the frames directly
inside it, so the self times of all layers plus the benchmark's own
(`bench`) add up to the traced operation time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

SPAN, LEAF = "span", "leaf"
LAYERS = ("cli", "dsl", "footprint", "category", "expr", "sketch", "rules", "jsonio")

# (module, attribute, kind); "Class.method" patches the method on the class.
TARGETS = (
    ("cli", "main", SPAN),
    ("dsl", "parse_path", SPAN),
    ("dsl", "print_document", SPAN),
    ("dsl", "parse_morphism_literal", LEAF),
    ("jsonio", "dump", SPAN),
    ("jsonio", "payload", LEAF),
    ("jsonio", "object_json", LEAF),
    ("jsonio", "sketch_json", LEAF),
    ("jsonio", "pushout_json", LEAF),
    ("category", "compose", LEAF),
    ("category", "hom_set", LEAF),
    ("category", "pushout", SPAN),
    ("category", "morphism", LEAF),
    ("category", "identity", LEAF),
    ("category", "inclusion", LEAF),
    ("category", "inverse", LEAF),
    ("category", "canonical_copy", LEAF),
    ("category", "isomorphisms", LEAF),
    ("category", "SetMorphism.__init__", LEAF),
    ("category", "GraphMorphism.__init__", LEAF),
    ("footprint", "Structure.__init__", LEAF),
    ("footprint", "enumerate_structures", SPAN),
    ("footprint", "is_structure_hom", LEAF),
    ("expr", "solutions", SPAN),
    ("expr", "holds", SPAN),
    ("expr", "canonicalize", LEAF),
    ("expr", "substitute", LEAF),
    # the evaluator, so its time counts as expr also when sketch or rules run it
    ("expr", "_Evaluator.solutions", LEAF),
    ("sketch", "Constraint.__init__", LEAF),
    ("sketch", "models", SPAN),
    ("sketch", "entails", SPAN),
    ("sketch", "check_sketch_morphism", SPAN),
    ("sketch", "sketch_pushout", SPAN),
    ("sketch", "translate_constraint", LEAF),
    ("sketch", "structure_to_sketch_min", SPAN),
    ("sketch", "structure_to_sketch_max", SPAN),
    ("rules", "find_matches", SPAN),
    ("rules", "is_match", LEAF),
    ("rules", "apply_rule", SPAN),
    ("rules", "saturate", SPAN),
    ("rules", "is_conservative", LEAF),
    ("rules", "is_sound", SPAN),
    ("rules", "is_closed", SPAN),
)

GENERATORS = {"footprint.enumerate_structures"}


def _count_hom_set(tr, args, result):
    tr.counts["category.hom_set.morphisms"] += len(result)
    tr.pairs.add((args[0], args[1]))
    if tr.active["rules.find_matches"]:
        tr.counts["rules.find_matches.candidates"] += len(result)


def _adder(key, amount):
    def add(tr, args, result):
        tr.counts[key] += amount(args, result)
    return add


# Counters taken after a call returns, outside its timing.
AFTER = {
    "category.hom_set": _count_hom_set,
    "rules.find_matches": _adder("rules.find_matches.matches", lambda a, r: len(r)),
    "sketch.models": _adder("sketch.models.results", lambda a, r: len(r)),
    "rules.saturate": _adder("rules.saturate.steps", lambda a, r: r.steps),
    "dsl.parse_path": _adder("dsl.parse.bytes", lambda a, r: os.path.getsize(a[0])),
    "jsonio.dump": _adder("jsonio.dump.bytes", lambda a, r: len(r.encode())),
}


class Tracer:
    def __init__(self):
        # frame: [child time, layer, span index, inside a leaf]
        self.stack: list[list] = []
        self.spans: list = []
        self.leaves: dict[tuple[int, str], list] = {}
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.errors: defaultdict[str, int] = defaultdict(int)
        self.active: defaultdict[str, int] = defaultdict(int)
        self.pairs: set = set()
        self.missing: list[str] = []
        self.patched: list[tuple[object, str, object]] = []
        self.op = -1

    # -- frames --------------------------------------------------------------

    def _enter(self, layer: str, leaf: bool):
        parent = self.stack[-1]
        if leaf or parent[3]:
            frame = [0.0, layer, parent[2], True]
        else:
            frame = [0.0, layer, len(self.spans), False]
            self.spans.append(None)
        self.stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, frame: list, name: str, start: float, failed: bool) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - start
        own = duration - frame[0]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[0] += duration
        if failed and (parent is None or parent[1] != frame[1]):
            self.errors[frame[1]] += 1
        if frame[3]:
            bucket = self.leaves.get((frame[2], name))
            if bucket is None:
                bucket = self.leaves[(frame[2], name)] = [0, 0.0, 0.0]
            bucket[0] += 1
            bucket[1] += duration
            bucket[2] += own
        else:
            self.spans[frame[2]] = (self.op, name, start, end,
                                    parent[2] if parent is not None else None, own)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack = [[0.0, "bench", len(self.spans), False]]
        self.spans.append(None)
        self.root_start = time.perf_counter()

    def end_op(self) -> None:
        self._exit(self.stack[0], "bench.op", self.root_start, False)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, leaf: bool):
        tracer, layer, after = self, name.split(".")[0], AFTER.get(name)
        active = self.active

        if name in GENERATORS:
            def run_generator(it):
                active[name] += 1
                frame, start = tracer._enter(layer, leaf)
                failed, n = True, 0
                try:
                    for item in it:
                        n += 1
                        yield item
                    failed = False
                finally:
                    tracer._exit(frame, name, start, failed)
                    active[name] -= 1
                    tracer.counts[name + ".structures"] += n

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if active[name] or not tracer.stack:
                    return fn(*args, **kwargs)
                return run_generator(fn(*args, **kwargs))
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[name] or not tracer.stack:
                return fn(*args, **kwargs)
            active[name] += 1
            frame, start = tracer._enter(layer, leaf)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._exit(frame, name, start, failed)
                active[name] -= 1
            if after is not None:
                after(tracer, args, result)
            return result
        return wrapper

    def install(self) -> None:
        lfoc_modules = [m for n, m in sorted(sys.modules.items())
                        if n == "lfoc" or n.startswith("lfoc.")]
        for module, attr, kind in TARGETS:
            mod = sys.modules.get(f"lfoc.{module}")
            owner_name, _, method = attr.rpartition(".")
            name = f"{module}.{owner_name if method == '__init__' else attr}"
            leaf = kind == LEAF
            if owner_name:
                owner = getattr(mod, owner_name, None)
                fn = vars(owner).get(method) if owner is not None else None
                if fn is None:
                    self.missing.append(name)
                    continue
                setattr(owner, method, self._wrap(fn, name, leaf))
                self.patched.append((owner, method, fn))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(fn, name, leaf)
            for m in lfoc_modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
                        self.patched.append((m, key, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self.patched):
            setattr(owner, key, fn)
        self.patched.clear()

    # -- results ---------------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans, then all leaf buckets, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (op, name, start, end, parent, own) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "op": op, "name": name, "start": start,
                                     "end": end, "parent": parent, "self_s": own}) + "\n")
            for (span, name), (calls, total, own) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "span": span, "calls": calls,
                                     "total_s": total, "self_s": own}) + "\n")

    def metrics(self) -> dict[str, float]:
        """The pass's per-layer metrics (overhead ratio excepted)."""
        calls: defaultdict[str, int] = defaultdict(int)
        own: defaultdict[str, float] = defaultdict(float)
        total: defaultdict[str, float] = defaultdict(float)
        for _, name, start, end, _, self_s in self.spans:
            calls[name] += 1
            own[name] += self_s
            total[name] += end - start
        for (_, name), (n, seconds, self_s) in self.leaves.items():
            calls[name] += n
            own[name] += self_s
            total[name] += seconds
        layer_self: defaultdict[str, float] = defaultdict(float)
        for name, seconds in own.items():
            layer_self[name.split(".")[0]] += seconds
        c = self.counts
        candidates = c["rules.find_matches.candidates"]
        parse_s = total["dsl.parse_path"]
        m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        m.update({
            "bench.self_s": layer_self["bench"],
            "trace.op_s": total["bench.op"],
            "category.hom_set.calls": calls["category.hom_set"],
            "category.hom_set.morphisms": c["category.hom_set.morphisms"],
            "category.hom_set.pairs": len(self.pairs),
            "category.compose.calls": calls["category.compose"],
            "category.compose.self_s": own["category.compose"],
            "category.morphisms_built": calls["category.SetMorphism"] + calls["category.GraphMorphism"],
            "category.pushout.calls": calls["category.pushout"],
            "category.pushout.self_s": own["category.pushout"],
            "expr.solutions.calls": calls["expr.solutions"],
            "expr.holds.calls": calls["expr.holds"],
            "expr.canonicalize.calls": calls["expr.canonicalize"],
            "expr.canonicalize.self_s": own["expr.canonicalize"],
            "footprint.enumerate_structures.structures": c["footprint.enumerate_structures.structures"],
            "footprint.enumerate_structures.self_s": own["footprint.enumerate_structures"],
            "footprint.structures_built": calls["footprint.Structure"],
            "footprint.Structure.self_s": own["footprint.Structure"],
            "sketch.models.calls": calls["sketch.models"],
            "sketch.models.results": c["sketch.models.results"],
            "sketch.entails.calls": calls["sketch.entails"],
            "sketch.constraints_built": calls["sketch.Constraint"],
            "rules.is_conservative.calls": calls["rules.is_conservative"],
            "rules.is_conservative.self_s": own["rules.is_conservative"],
            "rules.find_matches.calls": calls["rules.find_matches"],
            "rules.find_matches.candidates": candidates,
            "rules.find_matches.matches": c["rules.find_matches.matches"],
            "rules.find_matches.match_ratio": (c["rules.find_matches.matches"] / candidates
                                               if candidates else 0.0),
            "rules.apply_rule.calls": calls["rules.apply_rule"],
            "rules.saturate.steps": c["rules.saturate.steps"],
            "dsl.parse.bytes": c["dsl.parse.bytes"],
            "dsl.parse.bytes_per_s": c["dsl.parse.bytes"] / parse_s if parse_s else 0.0,
            "dsl.print.self_s": own["dsl.print_document"],
            "jsonio.dump.bytes": c["jsonio.dump.bytes"],
        })
        m.update({f"{layer}.errors": self.errors[layer] for layer in LAYERS})
        return m
