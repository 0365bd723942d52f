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


def _check_names(names: tuple[str, ...], what: str) -> None:
    seen = set()
    for n in names:
        if not isinstance(n, str) or not n:
            raise CategoryError(f"{what} name must be a non-empty string, got {n!r}")
        if n in seen:
            raise CategoryError(f"duplicate {what} name {n!r}")
        seen.add(n)


class FinSet:
    """A finite set presented as an ordered list of distinct names."""

    kind = SET
    __slots__ = ("elements", "_hash")

    def __init__(self, elements: Iterable[str] = ()):
        elements = tuple(elements)
        _check_names(elements, "element")
        self.elements = elements
        self._hash = hash((SET, elements))

    @property
    def names(self) -> tuple[str, ...]:
        return self.elements

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
    """

    kind = GRAPH
    __slots__ = ("vertices", "edges", "src", "tgt", "_hash")

    def __init__(self, vertices: Iterable[str] = (), edges: Iterable[tuple[str, str, str]] = ()):
        vertices = tuple(vertices)
        _check_names(vertices, "vertex")
        names, src, tgt = [], {}, {}
        for name, s, t in edges:
            names.append(name)
            src[name] = s
            tgt[name] = t
        names = tuple(names)
        _check_names(names, "edge")
        overlap = set(vertices) & set(names)
        if overlap:
            raise CategoryError(f"names used for both a vertex and an edge: {sorted(overlap)}")
        vset = set(vertices)
        for e in names:
            if src[e] not in vset or tgt[e] not in vset:
                raise CategoryError(f"edge {e!r} has endpoint outside the vertex list")
        self.vertices = vertices
        self.edges = names
        self.src = src
        self.tgt = tgt
        self._hash = hash((GRAPH, vertices, tuple((e, src[e], tgt[e]) for e in names)))

    @property
    def names(self) -> tuple[str, ...]:
        return self.vertices + self.edges

    @property
    def size(self) -> int:
        return len(self.vertices) + len(self.edges)

    def edge_triples(self) -> tuple[tuple[str, str, str], ...]:
        return tuple((e, self.src[e], self.tgt[e]) for e in self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edge_triples() == other.edge_triples()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        es = ", ".join(f"{e}: {self.src[e]}->{self.tgt[e]}" for e in self.edges)
        return "graph{%s; %s}" % (", ".join(self.vertices), es)


CatObject = Union[FinSet, FinGraph]


class SetMorphism:
    """A total map between finite sets."""

    kind = SET
    __slots__ = ("dom", "cod", "mapping", "_hash")

    def __init__(self, dom: FinSet, cod: FinSet, mapping: Mapping[str, str]):
        if not isinstance(dom, FinSet) or not isinstance(cod, FinSet):
            raise CategoryError("set morphism endpoints must be finite sets")
        cod_names = set(cod.elements)
        normalized = {}
        for x in dom.elements:
            if x not in mapping:
                raise CategoryError(f"map is not total: no image for element {x!r}")
            y = mapping[x]
            if y not in cod_names:
                raise CategoryError(f"image {y!r} of {x!r} is not in the codomain {cod!r}")
            normalized[x] = y
        if len(mapping) != len(normalized):
            extra = sorted(set(mapping) - set(normalized))
            raise CategoryError(f"map mentions names outside the domain: {extra}")
        self.dom = dom
        self.cod = cod
        self.mapping = normalized
        self._hash = hash((SET, dom, cod, tuple(normalized.items())))

    def __call__(self, name: str) -> str:
        return self.mapping[name]

    def name_map(self) -> dict[str, str]:
        return dict(self.mapping)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetMorphism):
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod and self.mapping == other.mapping

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "map{%s}" % ", ".join(f"{x}->{y}" for x, y in self.mapping.items())


class GraphMorphism:
    """A multigraph homomorphism: vertex and edge maps preserving endpoints."""

    kind = GRAPH
    __slots__ = ("dom", "cod", "vertex_map", "edge_map", "_hash")

    def __init__(self, dom: FinGraph, cod: FinGraph, vertex_map: Mapping[str, str],
                 edge_map: Mapping[str, str]):
        if not isinstance(dom, FinGraph) or not isinstance(cod, FinGraph):
            raise CategoryError("graph morphism endpoints must be graphs")
        vmap = {}
        cod_vs = set(cod.vertices)
        for v in dom.vertices:
            if v not in vertex_map:
                raise CategoryError(f"map is not total: no image for vertex {v!r}")
            w = vertex_map[v]
            if w not in cod_vs:
                raise CategoryError(f"image {w!r} of vertex {v!r} is not in the codomain")
            vmap[v] = w
        emap = {}
        cod_es = set(cod.edges)
        for e in dom.edges:
            if e not in edge_map:
                raise CategoryError(f"map is not total: no image for edge {e!r}")
            d = edge_map[e]
            if d not in cod_es:
                raise CategoryError(f"image {d!r} of edge {e!r} is not in the codomain")
            # homomorphism law: sources and targets must be preserved
            if cod.src[d] != vmap[dom.src[e]]:
                raise CategoryError(
                    f"edge {e!r}: image {d!r} has source {cod.src[d]!r} "
                    f"but the vertex map sends {dom.src[e]!r} to {vmap[dom.src[e]]!r}")
            if cod.tgt[d] != vmap[dom.tgt[e]]:
                raise CategoryError(
                    f"edge {e!r}: image {d!r} has target {cod.tgt[d]!r} "
                    f"but the vertex map sends {dom.tgt[e]!r} to {vmap[dom.tgt[e]]!r}")
            emap[e] = d
        if len(vertex_map) != len(vmap):
            extra = sorted(set(vertex_map) - set(vmap))
            raise CategoryError(f"vertex map mentions names outside the domain: {extra}")
        if len(edge_map) != len(emap):
            extra = sorted(set(edge_map) - set(emap))
            raise CategoryError(f"edge map mentions names outside the domain: {extra}")
        self.dom = dom
        self.cod = cod
        self.vertex_map = vmap
        self.edge_map = emap
        self._hash = hash((GRAPH, dom, cod, tuple(vmap.items()), tuple(emap.items())))

    def __call__(self, name: str) -> str:
        if name in self.vertex_map:
            return self.vertex_map[name]
        return self.edge_map[name]

    def name_map(self) -> dict[str, str]:
        out = dict(self.vertex_map)
        out.update(self.edge_map)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphMorphism):
            return NotImplemented
        return (self.dom == other.dom and self.cod == other.cod
                and self.vertex_map == other.vertex_map and self.edge_map == other.edge_map)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        items = itertools.chain(self.vertex_map.items(), self.edge_map.items())
        return "map{%s}" % ", ".join(f"{x}->{y}" for x, y in items)


Morphism = Union[SetMorphism, GraphMorphism]


def morphism(dom: CatObject, cod: CatObject, mapping: Mapping[str, str]) -> Morphism:
    """Build a morphism from one combined name-to-name mapping.

    For graphs the mapping is split into vertex and edge parts by the
    domain's namespaces.
    """
    if dom.kind != cod.kind:
        raise CategoryError(f"kind mismatch: {dom!r} is a {dom.kind}, {cod!r} is a {cod.kind}")
    if isinstance(dom, FinSet):
        return SetMorphism(dom, cod, mapping)
    vmap = {k: v for k, v in mapping.items() if k in set(dom.vertices)}
    emap = {k: v for k, v in mapping.items() if k in set(dom.edges)}
    if len(vmap) + len(emap) != len(mapping):
        extra = sorted(set(mapping) - set(vmap) - set(emap))
        raise CategoryError(f"map mentions names outside the domain: {extra}")
    return GraphMorphism(dom, cod, vmap, emap)


def identity(obj: CatObject) -> Morphism:
    if isinstance(obj, FinSet):
        return SetMorphism(obj, obj, {x: x for x in obj.elements})
    return GraphMorphism(obj, obj, {v: v for v in obj.vertices}, {e: e for e in obj.edges})


def inclusion(sub: CatObject, obj: CatObject) -> Morphism:
    """The name-preserving morphism from `sub` into `obj`."""
    return morphism(sub, obj, {n: n for n in sub.names})


def compose(f: Morphism, g: Morphism) -> Morphism:
    """Diagram-order composite: first `f`, then `g`."""
    if type(f) is not type(g) or f.cod != g.dom:
        raise CategoryError(
            f"cannot compose: the first morphism ends at {f.cod!r} "
            f"but the second starts at {getattr(g, 'dom', None)!r}")
    if isinstance(f, SetMorphism):
        return SetMorphism(f.dom, g.cod, {x: g.mapping[y] for x, y in f.mapping.items()})
    return GraphMorphism(
        f.dom, g.cod,
        {v: g.vertex_map[w] for v, w in f.vertex_map.items()},
        {e: g.edge_map[d] for e, d in f.edge_map.items()})


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
# Inside a search a morphism b: X -> C is a tuple of positions in C's
# name list, one per name of X in declared order (vertices before edges
# for graphs).  Lexicographic order on these tuples is hom-set order.

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
        index = SearchIndex()
        cached = tuple(index.morphisms(dom, cod, hom_search(dom, cod, (), index)))
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
        pos = index.positions(dom)
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

    It holds name positions per object, image tuples per morphism, the
    reading plan per atom binding, the edge index per graph carrier, hom
    sets as tuples per object pair and the morphisms built from tuples.
    A caller that searches many structures (a registry) creates one and
    passes it down, so all of this is computed once per call; nothing
    outlives the call.
    """

    __slots__ = ("_positions", "_images", "_plans", "_ends", "_homs", "_morphisms")

    def __init__(self):
        self._positions: dict[CatObject, dict[str, int]] = {}
        self._images: dict[Morphism, tuple[int, ...]] = {}
        self._plans: dict[tuple[int, ...], tuple] = {}
        self._ends: dict[FinGraph, dict[tuple[int, int], tuple[int, ...]]] = {}
        self._homs: dict[tuple[CatObject, CatObject], tuple[tuple[int, ...], ...]] = {}
        self._morphisms: dict[tuple[CatObject, CatObject], dict[tuple[int, ...], Morphism]] = {}

    def positions(self, obj: CatObject) -> dict[str, int]:
        pos = self._positions.get(obj)
        if pos is None:
            pos = self._positions[obj] = {name: i for i, name in enumerate(obj.names)}
        return pos

    def image(self, m: Morphism) -> tuple[int, ...]:
        """Positions in m.cod of the images of m.dom's names."""
        out = self._images.get(m)
        if out is None:
            pos = self.positions(m.cod)
            if isinstance(m, SetMorphism):
                images = m.mapping.values()
            else:
                images = itertools.chain(m.vertex_map.values(), m.edge_map.values())
            out = self._images[m] = tuple(pos[y] for y in images)
        return out

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
            pos = self.positions(cod)
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

    def morphisms(self, dom: CatObject, cod: CatObject, tuples) -> list[Morphism]:
        """The morphisms dom -> cod with these image tuples, built once
        each through the validated constructors."""
        built = self._morphisms.get((dom, cod))
        if built is None:
            built = self._morphisms[(dom, cod)] = {}
        out = []
        for images in tuples:
            m = built.get(images)
            if m is None:
                m = built[images] = _build(dom, cod, images)
            out.append(m)
        return out

    def morphism(self, dom: CatObject, cod: CatObject, images: tuple[int, ...]) -> Morphism:
        return self.morphisms(dom, cod, (images,))[0]


def _build(dom: CatObject, cod: CatObject, images: tuple[int, ...]) -> Morphism:
    if isinstance(dom, FinSet):
        names = cod.elements
        return SetMorphism(dom, cod, {x: names[p] for x, p in zip(dom.elements, images)})
    nv, vs, es = len(cod.vertices), cod.vertices, cod.edges
    return GraphMorphism(dom, cod,
                         {v: vs[p] for v, p in zip(dom.vertices, images)},
                         {e: es[p - nv] for e, p in zip(dom.edges, images[len(dom.vertices):])})


def precompose(binding: tuple[int, ...], images: tuple[int, ...]) -> tuple[int, ...]:
    """delta;b as a tuple, from delta's positions and b's images."""
    return tuple(images[p] for p in binding)


# ---------------------------------------------------------------------------
# Isomorphisms and renamings

def isomorphisms(a: CatObject, b: CatObject) -> tuple[Morphism, ...]:
    """All isomorphisms a -> b, in hom-set order."""
    if a.kind != b.kind or a.size != b.size:
        return ()
    if isinstance(a, FinSet):
        return tuple(m for m in hom_set(a, b)
                     if len(set(m.mapping.values())) == len(b.elements))
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return ()
    return tuple(m for m in hom_set(a, b)
                 if len(set(m.vertex_map.values())) == len(b.vertices)
                 and len(set(m.edge_map.values())) == len(b.edges))


def objects_isomorphic(a: CatObject, b: CatObject) -> bool:
    return bool(isomorphisms(a, b))


def is_isomorphism(m: Morphism) -> bool:
    if isinstance(m, SetMorphism):
        return (len(m.dom.elements) == len(m.cod.elements)
                and len(set(m.mapping.values())) == len(m.cod.elements))
    return (len(m.dom.vertices) == len(m.cod.vertices)
            and len(m.dom.edges) == len(m.cod.edges)
            and len(set(m.vertex_map.values())) == len(m.cod.vertices)
            and len(set(m.edge_map.values())) == len(m.cod.edges))


def inverse(m: Morphism) -> Morphism:
    if not is_isomorphism(m):
        raise CategoryError(f"{m!r} is not an isomorphism")
    if isinstance(m, SetMorphism):
        return SetMorphism(m.cod, m.dom, {y: x for x, y in m.mapping.items()})
    return GraphMorphism(m.cod, m.dom,
                         {w: v for v, w in m.vertex_map.items()},
                         {d: e for e, d in m.edge_map.items()})


def renaming(obj: CatObject, mapping: Mapping[str, str]) -> Morphism:
    """The isomorphism from `obj` onto its copy with names replaced."""
    if isinstance(obj, FinSet):
        target = FinSet(tuple(mapping[x] for x in obj.elements))
    else:
        target = FinGraph(
            tuple(mapping[v] for v in obj.vertices),
            tuple((mapping[e], mapping[obj.src[e]], mapping[obj.tgt[e]]) for e in obj.edges))
    return morphism(obj, target, dict(mapping))


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
    return morphism(initial_object(obj.kind), obj, {})


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
    least original member, tagged by side.
    """
    if type(f) is not type(g) or f.dom != g.dom:
        raise CategoryError(
            f"pushout needs a span with one common domain, got {f!r} from "
            f"{f.dom!r} and {g!r} from {getattr(g, 'dom', None)!r}")
    a, b = f.cod, g.cod
    if isinstance(f, SetMorphism):
        glue = [(f.mapping[x], g.mapping[x]) for x in f.dom.elements]
        apex_names, lmap, rmap = _merge_names(a.elements, b.elements, glue)
        apex = FinSet(apex_names)
        result = PushoutResult(apex, SetMorphism(a, apex, lmap), SetMorphism(b, apex, rmap))
    else:
        vglue = [(f.vertex_map[v], g.vertex_map[v]) for v in f.dom.vertices]
        eglue = [(f.edge_map[e], g.edge_map[e]) for e in f.dom.edges]
        vnames, lvmap, rvmap = _merge_names(a.vertices, b.vertices, vglue)
        enames, lemap, remap = _merge_names(a.edges, b.edges, eglue)
        # endpoints of a glued edge follow any member; well defined since f, g
        # are homomorphisms
        back = {}
        for e in a.edges:
            back.setdefault(lemap[e], ("l", e))
        for e in b.edges:
            back.setdefault(remap[e], ("r", e))
        triples = []
        for name in enames:
            side, e = back[name]
            if side == "l":
                triples.append((name, lvmap[a.src[e]], lvmap[a.tgt[e]]))
            else:
                triples.append((name, rvmap[b.src[e]], rvmap[b.tgt[e]]))
        apex = FinGraph(vnames, triples)
        result = PushoutResult(apex,
                               GraphMorphism(a, apex, lvmap, lemap),
                               GraphMorphism(b, apex, rvmap, remap))
    if compose(f, result.inj_left) != compose(g, result.inj_right):
        raise AssertionError("pushout square failed to commute")
    return result
