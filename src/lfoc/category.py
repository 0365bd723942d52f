"""Finite base categories used by the rest of the engine.

Two kinds of finite objects are supported: named finite sets and named
finite directed multigraphs.  Objects carry *ordered* name lists so that
hom-set enumeration, pushout naming, and serialization are deterministic
and reproducible across runs.  Equality is structural, name for name and
order for order; isomorphism is a separate search (`isomorphisms`).

Composition is written in diagram order throughout: ``compose(f, g)``
is "first f, then g".

All values are immutable after construction and safe to share; every
function in this module is pure.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

SET = "set"
GRAPH = "graph"

# Refuse hom-set enumerations whose candidate count exceeds this bound.
HOM_ENUMERATION_CAP = 5_000_000


class CategoryError(ValueError):
    """Malformed object or morphism, or a boundary mismatch."""


class EnumerationLimitError(RuntimeError):
    """An exhaustive enumeration would exceed the configured cap."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


def _positions(names: tuple[str, ...], what: str, start: int = 0) -> dict[str, int]:
    """Each name's position (counted from `start`), rejecting bad and
    duplicate names."""
    position: dict[str, int] = {}
    for i, n in enumerate(names, start):
        if not isinstance(n, str) or not n:
            raise CategoryError(f"{what} name must be a non-empty string, got {n!r}")
        if n in position:
            raise CategoryError(f"duplicate {what} name {n!r}")
        position[n] = i
    return position


class FinSet:
    """A finite set presented as an ordered list of distinct names."""

    kind = SET
    __slots__ = ("elements", "names", "position", "_hash")

    def __init__(self, elements: Iterable[str] = ()):
        elements = tuple(elements)
        self.position = _positions(elements, "element")
        self.elements = self.names = elements
        self._hash = hash((SET, elements))

    @property
    def size(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinSet):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "set{%s}" % ", ".join(self.elements)


class FinGraph:
    """A finite directed multigraph with named vertices and edges.

    Vertex and edge names share one namespace within the object; edges
    are given as ``(name, source_vertex, target_vertex)`` triples.
    `names` lists the vertices, then the edges.
    """

    kind = GRAPH
    __slots__ = ("vertices", "edges", "src", "tgt", "names", "position", "_triples", "_hash")

    def __init__(self, vertices: Iterable[str] = (), edges: Iterable[tuple[str, str, str]] = ()):
        vertices = tuple(vertices)
        triples = tuple((name, s, t) for name, s, t in edges)
        edge_names = tuple(e for e, _, _ in triples)
        position = _positions(vertices, "vertex")
        edge_position = _positions(edge_names, "edge", len(vertices))
        overlap = position.keys() & edge_position.keys()
        if overlap:
            raise CategoryError(f"names used for both a vertex and an edge: {sorted(overlap)}")
        for e, s, t in triples:
            if s not in position or t not in position:
                raise CategoryError(f"edge {e!r} has endpoint outside the vertex list")
        position.update(edge_position)
        self.vertices = vertices
        self.edges = edge_names
        self.src = {e: s for e, s, _ in triples}
        self.tgt = {e: t for e, _, t in triples}
        self.names = vertices + edge_names
        self.position = position
        self._triples = triples
        self._hash = hash((GRAPH, vertices, triples))

    @property
    def size(self) -> int:
        return len(self.names)

    def edge_triples(self) -> tuple[tuple[str, str, str], ...]:
        return self._triples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._triples == other._triples

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        es = ", ".join(f"{e}: {s}->{t}" for e, s, t in self._triples)
        return "graph{%s; %s}" % (", ".join(self.vertices), es)


CatObject = Union[FinSet, FinGraph]


class Morphism:
    """A morphism dom -> cod between finite sets or between graphs.

    `images` holds, for each name of dom in declared order (vertices
    before edges for graphs), the position of its image in cod.names;
    it is also the tuple a hom search returns, and lexicographic order on
    it is hom-set order.  `SetMorphism`, `GraphMorphism` and `morphism`
    validate name maps; everything the engine derives from valid
    morphisms is built unchecked by `from_images`.
    """

    __slots__ = ("dom", "cod", "images", "_hash")

    def __init__(self, dom: CatObject, cod: CatObject, images: tuple[int, ...]):
        self.dom = dom
        self.cod = cod
        self.images = images
        # the objects' cached hashes, read directly: hash(dom) would run
        # their Python-level __hash__ on every construction
        self._hash = hash((dom._hash, cod._hash, images))

    def __call__(self, name: str) -> str:
        return self.cod.names[self.images[self.dom.position[name]]]

    def name_map(self) -> dict[str, str]:
        names = self.cod.names
        return {x: names[p] for x, p in zip(self.dom.names, self.images)}

    mapping = property(name_map)

    @property
    def vertex_map(self) -> dict[str, str]:
        names = self.cod.names
        return {v: names[p] for v, p in zip(self.dom.vertices, self.images)}

    @property
    def edge_map(self) -> dict[str, str]:
        names, nv = self.cod.names, len(self.dom.vertices)
        return {e: names[p] for e, p in zip(self.dom.edges, self.images[nv:])}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        return (self.images, self.dom, self.cod) == (other.images, other.dom, other.cod)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "map{%s}" % ", ".join(f"{x}->{y}" for x, y in self.name_map().items())


class SetMorphism(Morphism):
    """A total map between finite sets, validated from a name map."""

    kind = SET
    __slots__ = ()

    def __init__(self, dom: FinSet, cod: FinSet, mapping: Mapping[str, str]):
        if not isinstance(dom, FinSet) or not isinstance(cod, FinSet):
            raise CategoryError("set morphism endpoints must be finite sets")
        images = []
        for x in dom.elements:
            if x not in mapping:
                raise CategoryError(f"map is not total: no image for element {x!r}")
            y = mapping[x]
            if y not in cod.position:
                raise CategoryError(f"image {y!r} of {x!r} is not in the codomain {cod!r}")
            images.append(cod.position[y])
        if len(mapping) != len(images):
            extra = sorted(set(mapping) - set(dom.elements))
            raise CategoryError(f"map mentions names outside the domain: {extra}")
        super().__init__(dom, cod, tuple(images))


class GraphMorphism(Morphism):
    """A multigraph homomorphism, validated from vertex and edge name maps."""

    kind = GRAPH
    __slots__ = ()

    def __init__(self, dom: FinGraph, cod: FinGraph, vertex_map: Mapping[str, str],
                 edge_map: Mapping[str, str]):
        if not isinstance(dom, FinGraph) or not isinstance(cod, FinGraph):
            raise CategoryError("graph morphism endpoints must be graphs")
        nv = len(cod.vertices)
        images = []
        for v in dom.vertices:
            if v not in vertex_map:
                raise CategoryError(f"map is not total: no image for vertex {v!r}")
            w = vertex_map[v]
            if cod.position.get(w, nv) >= nv:
                raise CategoryError(f"image {w!r} of vertex {v!r} is not in the codomain")
            images.append(cod.position[w])
        for e in dom.edges:
            if e not in edge_map:
                raise CategoryError(f"map is not total: no image for edge {e!r}")
            d = edge_map[e]
            if cod.position.get(d, -1) < nv:
                raise CategoryError(f"image {d!r} of edge {e!r} is not in the codomain")
            # homomorphism law: sources and targets must be preserved
            s, t = vertex_map[dom.src[e]], vertex_map[dom.tgt[e]]
            if cod.src[d] != s:
                raise CategoryError(
                    f"edge {e!r}: image {d!r} has source {cod.src[d]!r} "
                    f"but the vertex map sends {dom.src[e]!r} to {s!r}")
            if cod.tgt[d] != t:
                raise CategoryError(
                    f"edge {e!r}: image {d!r} has target {cod.tgt[d]!r} "
                    f"but the vertex map sends {dom.tgt[e]!r} to {t!r}")
            images.append(cod.position[d])
        if len(vertex_map) != len(dom.vertices):
            extra = sorted(set(vertex_map) - set(dom.vertices))
            raise CategoryError(f"vertex map mentions names outside the domain: {extra}")
        if len(edge_map) != len(dom.edges):
            extra = sorted(set(edge_map) - set(dom.edges))
            raise CategoryError(f"edge map mentions names outside the domain: {extra}")
        super().__init__(dom, cod, tuple(images))


_CLASSES = {SET: SetMorphism, GRAPH: GraphMorphism}


def from_images(dom: CatObject, cod: CatObject, images: tuple[int, ...]) -> Morphism:
    """The morphism dom -> cod with these image positions, unchecked.

    Only for images that already form a morphism: composites, inverses,
    hom-search results and the like.
    """
    m = object.__new__(_CLASSES[dom.kind])
    Morphism.__init__(m, dom, cod, images)
    return m


def morphism(dom: CatObject, cod: CatObject, mapping: Mapping[str, str]) -> Morphism:
    """Build a morphism from one combined name-to-name mapping.

    For graphs the mapping is split into vertex and edge parts by the
    domain's namespaces.
    """
    if dom.kind != cod.kind:
        raise CategoryError(f"kind mismatch: {dom!r} is a {dom.kind}, {cod!r} is a {cod.kind}")
    if isinstance(dom, FinSet):
        return SetMorphism(dom, cod, mapping)
    nv = len(dom.vertices)
    vmap = {k: v for k, v in mapping.items() if dom.position.get(k, nv) < nv}
    emap = {k: v for k, v in mapping.items() if dom.position.get(k, -1) >= nv}
    if len(vmap) + len(emap) != len(mapping):
        extra = sorted(set(mapping) - set(vmap) - set(emap))
        raise CategoryError(f"map mentions names outside the domain: {extra}")
    return GraphMorphism(dom, cod, vmap, emap)


def identity(obj: CatObject) -> Morphism:
    return from_images(obj, obj, tuple(range(obj.size)))


def inclusion(sub: CatObject, obj: CatObject) -> Morphism:
    """The name-preserving morphism from `sub` into `obj`."""
    return morphism(sub, obj, {n: n for n in sub.names})


def compose(f: Morphism, g: Morphism) -> Morphism:
    """Diagram-order composite: first `f`, then `g`."""
    if f.cod != getattr(g, "dom", None):
        raise CategoryError(
            f"cannot compose: the first morphism ends at {f.cod!r} "
            f"but the second starts at {getattr(g, 'dom', None)!r}")
    images = g.images
    return from_images(f.dom, g.cod, tuple(images[p] for p in f.images))


def is_extension(b: Morphism, t: Morphism, a: Morphism) -> bool:
    """Is `b` an extension of `a` along `t`, i.e. does t;b = a hold?"""
    if t.dom != a.dom:
        raise CategoryError(f"extension check: {t!r} and {a!r} start at different objects")
    if t.cod != b.dom:
        raise CategoryError(f"extension check: {b!r} does not start where {t!r} ends")
    if b.cod != a.cod:
        raise CategoryError(f"extension check: {b!r} and {a!r} end at different objects")
    return compose(t, b) == a


# ---------------------------------------------------------------------------
# Hom-set enumeration and search
#
# Inside a search a morphism b: X -> C is its image tuple (see
# `Morphism`); lexicographic order on these tuples is hom-set order.

_HOM_CACHE: dict[tuple[CatObject, CatObject], tuple[Morphism, ...]] = {}


def hom_set(dom: CatObject, cod: CatObject) -> tuple[Morphism, ...]:
    """All morphisms dom -> cod, in lexicographic order.

    The order is lexicographic over the domain's ordered name list
    (vertices before edges for graphs), with candidate images taken in
    the codomain's declared order.  The result is cached per object
    pair.
    """
    key = (dom, cod)
    cached = _HOM_CACHE.get(key)
    if cached is None:
        cached = tuple(from_images(dom, cod, b) for b in hom_search(dom, cod))
        _HOM_CACHE[key] = cached
    return cached


def hom_search(dom: CatObject, cod: CatObject, atoms=(),
               index: SearchIndex | None = None) -> list[tuple[int, ...]]:
    """Every b: dom -> cod with delta;b in R for each atom, in hom-set order.

    An atom (binding, relation) stands for a morphism delta: A -> dom and
    a set R of morphisms A -> cod: `binding` holds the positions in dom
    of delta's images of A's names, and `relation` holds image tuples in
    cod, both in A's name order.  Results are image tuples.

    Names of dom are bound one at a time in declared order, each to the
    candidates every atom over it still allows (Generic Join); an edge's
    candidates come from the edges between its bound endpoints.  With no
    constraining atom this is all of hom(dom, cod), refused by estimate
    past HOM_ENUMERATION_CAP; otherwise the search refuses once its
    output passes the cap.
    """
    if dom.kind != cod.kind:
        raise CategoryError(f"kind mismatch: {dom!r} is a {dom.kind}, {cod!r} is a {cod.kind}")
    if index is None:
        index = SearchIndex()
    reduced = []
    for binding, relation in atoms:
        variables, columns, repeats = index.plan(binding)
        if columns is not None:
            relation = {tuple(r[c] for c in columns) for r in relation
                        if all(r[j] == r[k] for j, k in repeats)}
        if not relation:
            return []
        if variables:
            reduced.append((variables, relation))
    if not reduced:
        return list(index.homs(dom, cod))
    n = dom.size
    full = [a for a in reduced if len(a[0]) == n]
    if full:
        # one atom binds every name: its facts are the candidates
        chosen = min(full, key=lambda a: len(a[1]))
        others = [a for a in reduced if a is not chosen]
        return sorted(b for b in chosen[1]
                      if all(tuple(b[p] for p in v) in f for v, f in others))
    return _join(dom, cod, reduced, index)


def _join(dom: CatObject, cod: CatObject, atoms, index: SearchIndex) -> list[tuple[int, ...]]:
    n = dom.size
    # one trie per atom, its levels in the order of its positions; built
    # from sorted facts, so every node lists its keys in ascending order
    tries: list[dict] = []
    at: list[list[int]] = [[] for _ in range(n)]
    for variables, facts in atoms:
        root: dict = {}
        for fact in sorted(facts):
            node = root
            for v in fact:
                node = node.setdefault(v, {})
        for p in variables:
            at[p].append(len(tries))
        tries.append(root)
    if isinstance(dom, FinSet):
        nv, ends = n, None
        vertices = range(len(cod.elements))
    else:
        nv, ends = len(dom.vertices), index.edges_between(cod)
        vertices = range(len(cod.vertices))
        pos = dom.position
        endpoints = [(pos[dom.src[e]], pos[dom.tgt[e]]) for e in dom.edges]

    out: list[tuple[int, ...]] = []
    b = [0] * n

    def extend(i: int) -> None:
        if i == n:
            out.append(tuple(b))
            if len(out) > HOM_ENUMERATION_CAP:
                raise EnumerationLimitError(
                    f"hom search {dom!r} -> {cod!r} has over {HOM_ENUMERATION_CAP} "
                    f"results", len(out))
            return
        if i < nv:
            candidates = vertices
        else:
            s, t = endpoints[i - nv]
            candidates = ends.get((b[s], b[t]), ())
        ks = at[i]
        live = [tries[k] for k in ks]
        if live:
            smallest = min(live, key=len)
            candidates = [v for v in smallest
                          if v in candidates and all(v in node for node in live)]
        for v in candidates:
            b[i] = v
            for k, node in zip(ks, live):
                tries[k] = node[v]
            extend(i + 1)
        for k, node in zip(ks, live):
            tries[k] = node

    extend(0)
    return out


class SearchIndex:
    """Structure-independent lookups for the hom searches of one call.

    It holds the reading plan per atom binding, the edge index per graph
    carrier and hom sets as tuples per object pair.  A caller that
    searches many structures (a registry) creates one and passes it
    down, so all of this is computed once per call; nothing outlives the
    call.
    """

    __slots__ = ("_plans", "_ends", "_homs")

    def __init__(self):
        self._plans: dict[tuple[int, ...], tuple] = {}
        self._ends: dict[FinGraph, dict[tuple[int, int], tuple[int, ...]]] = {}
        self._homs: dict[tuple[CatObject, CatObject], tuple[tuple[int, ...], ...]] = {}

    def plan(self, binding: tuple[int, ...]):
        """How to read an atom's facts at its distinct positions.

        Returns the distinct positions in ascending order, the fact
        columns to read at them (None when that is every column in
        order) and the column pairs a repeated position must agree on.
        """
        plan = self._plans.get(binding)
        if plan is None:
            first: dict[int, int] = {}
            for j, p in enumerate(binding):
                first.setdefault(p, j)
            variables = tuple(sorted(first))
            columns = tuple(first[p] for p in variables)
            repeats = tuple((j, first[p]) for j, p in enumerate(binding) if first[p] != j)
            if columns == tuple(range(len(binding))):
                columns = None
            plan = self._plans[binding] = (variables, columns, repeats)
        return plan

    def edges_between(self, cod: FinGraph) -> dict[tuple[int, int], tuple[int, ...]]:
        """Edge positions of cod keyed by (source, target) positions."""
        ends = self._ends.get(cod)
        if ends is None:
            pos = cod.position
            lists: dict[tuple[int, int], list[int]] = {}
            for e in cod.edges:
                lists.setdefault((pos[cod.src[e]], pos[cod.tgt[e]]), []).append(pos[e])
            ends = self._ends[cod] = {k: tuple(v) for k, v in lists.items()}
        return ends

    def homs(self, dom: CatObject, cod: CatObject) -> tuple[tuple[int, ...], ...]:
        """All of hom(dom, cod) as tuples; refused by estimate past the cap."""
        key = (dom, cod)
        out = self._homs.get(key)
        if out is None:
            if isinstance(dom, FinSet):
                estimate = len(cod.elements) ** len(dom.elements)
                if estimate > HOM_ENUMERATION_CAP:
                    raise EnumerationLimitError(
                        f"hom set {dom!r} -> {cod!r} has {estimate} candidates "
                        f"(cap {HOM_ENUMERATION_CAP})", estimate)
                out = tuple(itertools.product(range(len(cod.elements)),
                                              repeat=len(dom.elements)))
            else:
                estimate = (len(cod.vertices) ** len(dom.vertices)
                            * max(1, len(cod.edges)) ** len(dom.edges))
                if estimate > HOM_ENUMERATION_CAP:
                    raise EnumerationLimitError(
                        f"hom set {dom!r} -> {cod!r} has up to {estimate} candidates "
                        f"(cap {HOM_ENUMERATION_CAP})", estimate)
                out = tuple(_join(dom, cod, (), self))
            self._homs[key] = out
        return out


def precompose(binding: tuple[int, ...], images: tuple[int, ...]) -> tuple[int, ...]:
    """delta;b as a tuple, from delta's positions and b's images."""
    return tuple(images[p] for p in binding)


# ---------------------------------------------------------------------------
# Isomorphisms and renamings

def isomorphisms(a: CatObject, b: CatObject) -> tuple[Morphism, ...]:
    """All isomorphisms a -> b, in hom-set order.

    Bijections are enumerated directly: permutations of the names of a
    set, or of the vertices of a graph, each followed by the bijections
    of edges that respect endpoints.  No hom set is built or cached.
    Refused past HOM_ENUMERATION_CAP candidate bijections (n! for n
    elements; v! * e! for v vertices and e edges).
    """
    if a.kind != b.kind or a.size != b.size:
        return ()
    nv = len(a.vertices) if a.kind == GRAPH else a.size
    if a.kind == GRAPH and nv != len(b.vertices):
        return ()
    estimate = math.factorial(nv) * math.factorial(a.size - nv)
    if estimate > HOM_ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"isomorphisms {a!r} -> {b!r} have up to {estimate} candidates "
            f"(cap {HOM_ENUMERATION_CAP})", estimate)
    if a.kind == SET:
        return tuple(from_images(a, b, p) for p in itertools.permutations(range(nv)))
    ends = [(a.position[a.src[e]], a.position[a.tgt[e]]) for e in a.edges]
    parallel: dict[tuple[int, int], list[int]] = {}
    for p, e in enumerate(b.edges, nv):
        parallel.setdefault((b.position[b.src[e]], b.position[b.tgt[e]]), []).append(p)
    out = []
    for vertex_images in itertools.permutations(range(nv)):
        wanted = [(vertex_images[s], vertex_images[t]) for s, t in ends]
        needed = Counter(wanted)
        if any(len(parallel.get(key, ())) != n for key, n in needed.items()):
            continue
        for edge_images in _injections([parallel[key] for key in wanted]):
            out.append(from_images(a, b, vertex_images + edge_images))
    return tuple(out)


def _injections(candidates: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """Tuples of distinct picks, one from each list, in lexicographic order."""
    chosen: list[int] = []

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(candidates):
            yield tuple(chosen)
            return
        for c in candidates[i]:
            if c not in chosen:
                chosen.append(c)
                yield from extend(i + 1)
                chosen.pop()

    return extend(0)


def objects_isomorphic(a: CatObject, b: CatObject) -> bool:
    return bool(isomorphisms(a, b))


def is_isomorphism(m: Morphism) -> bool:
    # images never mix vertices with edges, so a bijection on all names
    # is one on the vertices and one on the edges
    return m.dom.size == m.cod.size == len(set(m.images))


def inverse(m: Morphism) -> Morphism:
    if not is_isomorphism(m):
        raise CategoryError(f"{m!r} is not an isomorphism")
    images = [0] * len(m.images)
    for i, p in enumerate(m.images):
        images[p] = i
    return from_images(m.cod, m.dom, tuple(images))


def renaming(obj: CatObject, mapping: Mapping[str, str]) -> Morphism:
    """The isomorphism from `obj` onto its copy with names replaced."""
    if isinstance(obj, FinSet):
        target = FinSet(tuple(mapping[x] for x in obj.elements))
    else:
        target = FinGraph(
            tuple(mapping[v] for v in obj.vertices),
            tuple((mapping[e], mapping[s], mapping[t]) for e, s, t in obj.edge_triples()))
    return from_images(obj, target, tuple(range(obj.size)))


def canonical_copy(obj: CatObject) -> Morphism:
    """Isomorphism onto a copy with positional names (q1.., qv1../qe1..)."""
    if isinstance(obj, FinSet):
        mapping = {x: f"q{i + 1}" for i, x in enumerate(obj.elements)}
    else:
        mapping = {v: f"qv{i + 1}" for i, v in enumerate(obj.vertices)}
        mapping.update({e: f"qe{i + 1}" for i, e in enumerate(obj.edges)})
    return renaming(obj, mapping)


# ---------------------------------------------------------------------------
# Initial object and pushouts

def initial_object(kind: str) -> CatObject:
    if kind == SET:
        return FinSet(())
    if kind == GRAPH:
        return FinGraph((), ())
    raise CategoryError(f"unknown kind {kind!r}")


def initial_morphism(obj: CatObject) -> Morphism:
    return from_images(initial_object(obj.kind), obj, ())


@dataclass(frozen=True)
class PushoutResult:
    """Apex and injections of a pushout square."""

    apex: CatObject
    inj_left: Morphism
    inj_right: Morphism


def _merge_names(left: tuple[str, ...], right: tuple[str, ...],
                 glue: Iterable[tuple[str, str]]):
    """Quotient the disjoint union of two name lists.

    Returns the apex name list (first-occurrence order, scanning left
    names then right names) and the two injection name maps.  Each
    class is named after its least original name, tagged by the side
    that name came from ("l." or "r.", left winning ties).
    """
    items = [("l", n) for n in left] + [("r", n) for n in right]
    parent = {it: it for it in items}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for ln, rn in glue:
        ra, rb = find(("l", ln)), find(("r", rn))
        if ra != rb:
            parent[ra] = rb

    classes: dict[tuple[str, str], list[tuple[str, str]]] = {}
    order = []
    for it in items:
        root = find(it)
        if root not in classes:
            classes[root] = []
            order.append(root)
        classes[root].append(it)

    names = {}
    for root in order:
        side, base = min(classes[root], key=lambda p: (p[1], 0 if p[0] == "l" else 1))
        names[root] = f"{side}.{base}"
    apex_names = tuple(names[root] for root in order)
    left_map = {n: names[find(("l", n))] for n in left}
    right_map = {n: names[find(("r", n))] for n in right}
    return apex_names, left_map, right_map


def pushout(f: Morphism, g: Morphism) -> PushoutResult:
    """Pushout of the span (f: X -> A, g: X -> B).

    Apex names are deterministic: each glued class is named after its
    least original member, tagged by side.  Glue pairs never mix
    vertices with edges, so one quotient of A's names and B's names
    covers both.
    """
    if f.dom != getattr(g, "dom", None):
        raise CategoryError(
            f"pushout needs a span with one common domain, got {f!r} from "
            f"{f.dom!r} and {g!r} from {getattr(g, 'dom', None)!r}")
    a, b = f.cod, g.cod
    glue = [(a.names[p], b.names[q]) for p, q in zip(f.images, g.images)]
    apex_names, lmap, rmap = _merge_names(a.names, b.names, glue)
    if isinstance(a, FinSet):
        apex = FinSet(apex_names)
    else:
        vertices = {lmap[v] for v in a.vertices} | {rmap[v] for v in b.vertices}
        # endpoints of a glued edge follow any member; well defined since f, g
        # are homomorphisms
        ends = {}
        for side, obj in ((lmap, a), (rmap, b)):
            for e, s, t in obj.edge_triples():
                ends.setdefault(side[e], (side[s], side[t]))
        apex = FinGraph([n for n in apex_names if n in vertices],
                        [(n, *ends[n]) for n in apex_names if n not in vertices])
    pos = apex.position
    result = PushoutResult(apex,
                           from_images(a, apex, tuple(pos[lmap[n]] for n in a.names)),
                           from_images(b, apex, tuple(pos[rmap[n]] for n in b.names)))
    if compose(f, result.inj_left) != compose(g, result.inj_right):
        raise AssertionError("pushout square failed to commute")
    return result
