"""Shared test helpers: independent brute-force oracles and generators.

The oracles here deliberately avoid the engine's enumeration code paths
(`hom_set`, `solutions`, ...) so that derived expected values are
computed twice by unrelated code.
"""

from __future__ import annotations

import itertools
import random

from lfoc.category import (
    FinGraph,
    FinSet,
    Morphism,
    morphism,
)
from lfoc import expr as E


def brute_force_set_homs(dom: FinSet, cod: FinSet) -> set[Morphism]:
    """All total maps dom -> cod via raw product enumeration."""
    if not dom.elements:
        return {morphism(dom, cod, {})}
    out = set()
    for images in itertools.product(cod.elements, repeat=len(dom.elements)):
        out.add(morphism(dom, cod, dict(zip(dom.elements, images))))
    return out


def brute_force_graph_homs(dom: FinGraph, cod: FinGraph) -> set[Morphism]:
    """All graph homomorphisms via raw product enumeration, with the
    preservation law checked on plain dicts."""
    out = set()
    vertex_choices = itertools.product(cod.vertices, repeat=len(dom.vertices))
    for vimages in vertex_choices:
        vmap = dict(zip(dom.vertices, vimages))
        for eimages in itertools.product(cod.edges, repeat=len(dom.edges)):
            emap = dict(zip(dom.edges, eimages))
            ok = True
            for e in dom.edges:
                d = emap[e]
                if cod.src[d] != vmap[dom.src[e]] or cod.tgt[d] != vmap[dom.tgt[e]]:
                    ok = False
                    break
            if ok:
                out.add(morphism(dom, cod, {**vmap, **emap}))
    return out


def brute_force_homs(dom, cod) -> set[Morphism]:
    if isinstance(dom, FinSet):
        return brute_force_set_homs(dom, cod)
    return brute_force_graph_homs(dom, cod)


# ---------------------------------------------------------------------------
# Random generators (seeded by the caller; used for randomized sweeps)

def random_graph(rng: random.Random, max_vertices: int, max_edges: int,
                 prefix: str = "") -> FinGraph:
    nv = rng.randint(0, max_vertices)
    vs = tuple(f"{prefix}v{i}" for i in range(nv))
    ne = rng.randint(0, max_edges) if nv else 0
    edges = tuple((f"{prefix}e{i}", rng.choice(vs), rng.choice(vs)) for i in range(ne))
    return FinGraph(vs, edges)


def random_set(rng: random.Random, max_elements: int, prefix: str = "") -> FinSet:
    n = rng.randint(0, max_elements)
    return FinSet(tuple(f"{prefix}x{i}" for i in range(n)))


def random_morphism(rng: random.Random, dom, cod) -> Morphism | None:
    """One uniformly chosen morphism dom -> cod, or None if there is none."""
    if isinstance(dom, FinSet):
        if dom.elements and not cod.elements:
            return None
        return morphism(dom, cod, {x: rng.choice(cod.elements) for x in dom.elements})
    if dom.vertices and not cod.vertices:
        return None
    for _ in range(64):
        vmap = {v: rng.choice(cod.vertices) for v in dom.vertices}
        emap = {}
        ok = True
        for e in dom.edges:
            cands = [d for d in cod.edges
                     if cod.src[d] == vmap[dom.src[e]] and cod.tgt[d] == vmap[dom.tgt[e]]]
            if not cands:
                ok = False
                break
            emap[e] = rng.choice(cands)
        if ok:
            return morphism(dom, cod, {**vmap, **emap})
    return None


def random_structure(rng: random.Random, footprint, carrier, density: float = 0.4):
    """A random structure: each hom-set member is listed independently."""
    from lfoc.category import hom_set
    from lfoc.footprint import Structure

    interp = {}
    for fname, arity in footprint.features.items():
        interp[fname] = tuple(m for m in hom_set(arity, carrier)
                              if rng.random() < density)
    return Structure("rnd", footprint, carrier, interp)


def restriction(structure, features) -> tuple:
    """The carrier and the facts of `features` (None for a feature the
    footprint lacks): all that a check mentioning only these features
    reads of the structure."""
    return (structure.carrier, *map(structure.facts.get, features))


def random_expr(rng: random.Random, footprint, arity, depth: int,
                var_objects=None) -> E.Expr:
    """A random well-formed expression of quantifier depth <= depth.

    `var_objects` supplies candidate quantifier targets; by default the
    arity extended by fresh names is used.
    """
    from lfoc.category import hom_set

    choices = ["atom", "top", "bot", "and", "or", "not"]
    if depth > 0:
        choices += ["exists", "forall"]
    kind = rng.choice(choices)
    if kind == "atom":
        feats = []
        for fname, a in footprint.features.items():
            hs = hom_set(a, arity)
            if hs:
                feats.append((fname, hs))
        if not feats:
            return E.Top(arity)
        fname, hs = rng.choice(feats)
        return E.atom(fname, rng.choice(hs))
    if kind == "top":
        return E.Top(arity)
    if kind == "bot":
        return E.Bot(arity)
    if kind == "and":
        return E.conj(random_expr(rng, footprint, arity, depth, var_objects),
                      random_expr(rng, footprint, arity, depth, var_objects))
    if kind == "or":
        return E.disj(random_expr(rng, footprint, arity, depth, var_objects),
                      random_expr(rng, footprint, arity, depth, var_objects))
    if kind == "not":
        return E.neg(random_expr(rng, footprint, arity, depth, var_objects))
    # quantifier: pick a target and a declaration morphism into it
    target = _extend_object(rng, arity)
    t = random_morphism(rng, arity, target)
    if t is None:
        return E.Top(arity)
    premise = random_expr(rng, footprint, arity, 0, var_objects)
    body = random_expr(rng, footprint, target, depth - 1, var_objects)
    node = E.cond_exists if kind == "exists" else E.cond_forall
    return node(premise, t, body)


def _fresh_names(base: str, count: int, taken) -> list[str]:
    out, i = [], 0
    taken = set(taken)
    while len(out) < count:
        name = f"{base}{i}"
        if name not in taken:
            out.append(name)
            taken.add(name)
        i += 1
    return out


def _extend_object(rng: random.Random, arity):
    if isinstance(arity, FinSet):
        extra = _fresh_names("w", rng.randint(0, 2), arity.elements)
        return FinSet(arity.elements + tuple(extra))
    taken = arity.vertices + arity.edges
    vs = arity.vertices + tuple(_fresh_names("wv", rng.randint(0, 1), taken))
    extra_edges = []
    if vs:
        enames = _fresh_names("we", rng.randint(0, 2), taken + vs)
        extra_edges = [(name, rng.choice(vs), rng.choice(vs)) for name in enames]
    return FinGraph(vs, arity.edge_triples() + tuple(extra_edges))
