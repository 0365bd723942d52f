"""Printing round-trips whole generated documents.

A seeded generator writes set and graph `.lfoc` documents with objects,
`mor` definitions, footprints, expressions (`and`/`or`/`not`,
`exists`/`forall` with and without `given`, literal, named and omitted
quantifier morphisms, references to earlier expressions), structures,
sketches and rules, laid out with varying whitespace and comments.  For
every document t: parse(print(parse(t))) == parse(t), and printing the
reparsed document gives the same text again.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from helpers import _extend_object, random_graph, random_morphism, random_set
from lfoc.category import CategoryError, FinSet, inclusion
from lfoc.dsl import parse_document, print_document

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SPACES = ("\n", "\t", "  ", "\r\n", " // note\n", "\n\n")


class DocumentWriter:
    """Writes one random document; every name it uses is defined first."""

    def __init__(self, rng: random.Random, kind: str):
        self.rng = rng
        self.kind = kind
        self.objects: dict[str, object] = {}
        self.morphisms: dict[str, object] = {}
        self.features: dict[str, object] = {}
        self.footprints: dict[str, list[str]] = {}
        self.exprs: dict[str, object] = {}
        self.sketches: dict[str, object] = {}
        self.statements = [f"base {kind};"]

    def emit(self, statement: str) -> None:
        # loosen the layout: some single spaces become other whitespace
        rng = self.rng
        self.statements.append("".join(
            rng.choice(SPACES) if ch == " " and rng.random() < 0.1 else ch
            for ch in statement))

    def pick(self, names) -> str:
        return self.rng.choice(sorted(names))

    def literal(self, m) -> str:
        return "[" + "; ".join(f"{x}->{y}" for x, y in m.name_map().items()) + "]"

    # -- definitions ---------------------------------------------------

    def obj(self, name: str, obj) -> None:
        if isinstance(obj, FinSet):
            body = " ".join(obj.elements)
        else:
            lines = [f"v {' '.join(obj.vertices)};"] if obj.vertices else []
            lines += [f"e {e}: {s}->{t};" for e, s, t in obj.edge_triples()]
            body = " ".join(lines)
        self.emit(f"obj {name} {{ {body} }};")
        self.objects[name] = obj

    def small(self, prefix: str):
        if self.kind == "set":
            return random_set(self.rng, 2, prefix)
        return random_graph(self.rng, 2, 2, prefix)

    def write(self) -> str:
        rng = self.rng
        for i in range(rng.randint(1, 3)):
            base = self.small(f"o{i}")
            self.obj(f"O{i}", base)
            self.obj(f"O{i}x", _extend_object(rng, base))
        carrier = (random_set(rng, 3, "c") if self.kind == "set"
                   else random_graph(rng, 3, 4, "c"))
        self.obj("C", carrier)
        for i in range(rng.randint(0, 3)):
            dom, cod = self.pick(self.objects), self.pick(self.objects)
            m = random_morphism(rng, self.objects[dom], self.objects[cod])
            if m is not None:
                self.emit(f"mor m{i} : {dom} -> {cod} = {self.literal(m)};")
                self.morphisms[f"m{i}"] = m
        for f in range(rng.randint(1, 2)):
            fnames = [f"f{f}{j}" for j in range(rng.randint(0, 2))]
            arities = {fname: self.pick(self.objects) for fname in fnames}
            lines = " ".join(f"feature {fname} : {a};" for fname, a in arities.items())
            self.emit(f"footprint F{f} {{ {lines} }};")
            self.footprints[f"F{f}"] = fnames
            self.features.update({fname: self.objects[a] for fname, a in arities.items()})
        for i in range(rng.randint(0, 4)):
            arity = self.pick(self.objects)
            _, text = self.term(self.objects[arity], rng.randint(0, 2))
            self.emit(f"expr e{i} : {arity} = {text};")
            self.exprs[f"e{i}"] = self.objects[arity]
        for i in range(rng.randint(0, 2)):
            self.structure(f"S{i}")
        for i in range(rng.randint(0, 3)):
            self.sketch(f"K{i}")
        for i in range(rng.randint(0, 2)):
            self.rule(f"r{i}")
        return "\n".join(self.statements) + rng.choice(("", "\n", "// end"))

    def structure(self, name: str) -> None:
        fp = self.pick(self.footprints)
        carrier = self.pick(self.objects)
        lines = []
        for fname in self.footprints[fp]:
            for _ in range(self.rng.randint(0, 2)):
                listed = [random_morphism(self.rng, self.features[fname], self.objects[carrier])
                          for _ in range(self.rng.randint(1, 3))]
                if None not in listed:
                    lines.append(f"{fname} {', '.join(map(self.literal, listed))};")
        self.emit(f"structure {name} : {fp} {{ carrier {carrier}; {' '.join(lines)} }};")

    def binding(self, dom, cod_name: str) -> str | None:
        """A literal or a named morphism dom -> cod, or None."""
        cod = self.objects[cod_name]
        named = [n for n, m in self.morphisms.items() if m.dom == dom and m.cod == cod]
        if named and self.rng.random() < 0.5:
            return self.pick(named)
        m = random_morphism(self.rng, dom, cod)
        return None if m is None else self.literal(m)

    def sketch(self, name: str) -> None:
        context = self.pick(self.objects)
        lines = []
        for _ in range(self.rng.randint(0, 3) if self.exprs else 0):
            e = self.pick(self.exprs)
            binding = self.binding(self.exprs[e], context)
            if binding is not None:
                lines.append(f"constraint {e} @ {binding};")
        self.emit(f"sketch {name} {{ context {context}; {' '.join(lines)} }};")
        self.sketches[name] = context

    def rule(self, name: str) -> None:
        if not self.sketches:
            return
        lhs, rhs = self.pick(self.sketches), self.pick(self.sketches)
        lctx, rctx = self.sketches[lhs], self.sketches[rhs]
        if self.objects[lctx] == self.objects[rctx] and self.rng.random() < 0.5:
            self.emit(f"rule {name} : {lhs} => {rhs};")
            return
        via = self.binding(self.objects[lctx], rctx)
        if via is not None:
            self.emit(f"rule {name} : {lhs} => {rhs} via {via};")

    # -- terms ---------------------------------------------------------
    #
    # Each term comes with its precedence, as the printer assigns it:
    # quantifier 0, or 1, and 2, not 3, primary 4.

    def wrap(self, term: tuple[int, str], min_prec: int) -> str:
        prec, text = term
        if prec < min_prec or self.rng.random() < 0.05:
            return f"({text})"
        return text

    def term(self, arity, depth: int) -> tuple[int, str]:
        rng = self.rng
        kinds = ["top", "bot", "atom", "atom", "ref", "not", "and", "or"]
        kind = rng.choice(kinds + ["exists", "forall"] * (depth > 0))
        if kind == "atom":
            bindings = {f: random_morphism(rng, a, arity) for f, a in self.features.items()}
            fnames = [f for f, m in bindings.items() if m is not None]
            if fnames:
                fname = self.pick(fnames)
                return 4, f"{fname}({self.literal(bindings[fname])})"
        if kind == "ref":
            refs = [e for e, a in self.exprs.items() if a == arity]
            if refs:
                return 4, self.pick(refs)
        if kind == "not":
            return 3, f"not {self.wrap(self.term(arity, depth), 3)}"
        if kind == "and":
            left, right = self.term(arity, depth), self.term(arity, depth)
            return 2, f"{self.wrap(left, 2)} and {self.wrap(right, 3)}"
        if kind == "or":
            left, right = self.term(arity, depth), self.term(arity, depth)
            return 1, f"{self.wrap(left, 1)} or {self.wrap(right, 2)}"
        if kind in ("exists", "forall"):
            return self.quantified(kind, arity, depth)
        return 4, "bot" if kind == "bot" else "top"

    def quantified(self, kw: str, arity, depth: int) -> tuple[int, str]:
        target = self.pick(self.objects)
        try:
            inclusion(arity, self.objects[target])
            included = True
        except CategoryError:
            included = False
        if included and self.rng.random() < 0.5:
            var = ""  # the inclusion shorthand
        else:
            var = self.binding(arity, target)
            if var is None:
                return 4, "top"
            var = f" {var}"
        head = ""
        if self.rng.random() < 0.4:
            head = f"given {self.wrap(self.term(arity, 0), 1)} "
        body = self.wrap(self.term(self.objects[target], depth - 1), 0)
        return 0, f"{head}{kw}{var} into {target} . {body}"


@settings(max_examples=250, deadline=None)
@given(SEEDS, st.sampled_from(["set", "graph"]))
def test_generated_documents_round_trip(seed, kind):
    text = DocumentWriter(random.Random(seed), kind).write()
    doc = parse_document(text)
    printed = print_document(doc)
    again = parse_document(printed)
    assert again == doc
    assert print_document(again) == printed
