"""Finite base categories used by the rest of the engine.

Two kinds of finite objects are supported: named finite sets and named
finite directed multigraphs.  Objects carry *ordered* name lists so that
hom-set enumeration, pushout naming, and serialization are deterministic
and reproducible across runs.  Equality is structural, name for name and
order for order; an isomorphism is a hom search whose images are
distinct (`isomorphisms`).

Composition is written in diagram order throughout: ``compose(f, g)``
is "first f, then g".

All values are immutable after construction, by convention, and safe to
share; every function in this module is pure.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import itemgetter
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, Union

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


class Record:
    """A value of named fields, `_fields`, equal to an object of its own
    class with equal fields, hashed as their tuple and shown as
    ``Name(field=value, ...)``; fields are not reassigned once set."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        # from a stack, not recursively: a field pair of one class that
        # compares as records is pushed
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            for f in a._fields:
                x, y = getattr(a, f), getattr(b, f)
                if x is not y:
                    if x.__class__.__eq__ is Record.__eq__ and y.__class__ is x.__class__:
                        pairs.append((x, y))
                    elif x != y:
                        return False
        return True

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        """Written from a stack of records to show and text to copy, not
        recursively; a record's stored `_repr` is copied as it is."""
        parts: list[str] = []
        todo: list = [self]
        while todo:
            item = todo.pop()
            if item.__class__ is str:
                parts.append(item)
            elif (text := getattr(item, "_repr", None)) is not None:
                parts.append(text)
            else:
                # pushed last to first: ")", then each value after its "name="
                show = [")"]
                for f in reversed(item._fields):
                    value = getattr(item, f)
                    show += (value if isinstance(value, Record) else repr(value), f", {f}=")
                show[-1] = f"{type(item).__qualname__}({item._fields[0]}="
                todo += show
        return "".join(parts)


class FinSet:
    """A finite set presented as an ordered list of distinct names.

    It is read as the graph with these vertices and no edges: it has the
    graph attributes, so the engine's graph code serves sets too.
    """

    kind = SET
    edges: tuple[str, ...] = ()
    src = tgt = MappingProxyType({})
    __slots__ = ("elements", "vertices", "names", "position", "_hash")

    def __init__(self, elements: Iterable[str] = ()):
        elements = tuple(elements)
        self.position = _positions(elements, "element")
        self.elements = self.vertices = self.names = elements
        self._hash = hash((SET, elements))

    @property
    def size(self) -> int:
        return len(self.elements)

    def edge_triples(self) -> tuple[tuple[str, str, str], ...]:
        return ()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
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
        if self is other:
            return True
        if not isinstance(other, FinGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._triples == other._triples

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        es = ", ".join(f"{e}: {s}->{t}" for e, s, t in self._triples)
        return "graph{%s; %s}" % (", ".join(self.vertices), es)


CatObject = Union[FinSet, FinGraph]


def sized(obj: CatObject) -> str:
    """`obj` by kind and size, as a refusal names it: "set of 8 elements",
    "graph with 3000 vertices and 2000 edges".  A `repr` grows with the
    object."""
    nv, ne = len(obj.vertices), len(obj.edges)
    if obj.kind == SET:
        return f"set of {nv} element{'s' * (nv != 1)}"
    return f"graph with {nv} {'vertex' if nv == 1 else 'vertices'} and {ne} edge{'s' * (ne != 1)}"


class Morphism:
    """A morphism dom -> cod between finite sets or between graphs.

    `images` holds, for each name of dom in declared order (vertices
    before edges for graphs), the position of its image in cod.names;
    it is also the tuple a hom search returns, and lexicographic order on
    it is hom-set order.  The constructor does not check that the images
    form a morphism: it is for composites, inverses, hom-search results
    and the like.  `morphism` validates a name map.
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        return (self.images, self.dom, self.cod) == (other.images, other.dom, other.cod)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "map{%s}" % ", ".join(f"{x}->{y}" for x, y in self.name_map().items())


def morphism(dom: CatObject, cod: CatObject, mapping: Mapping[str, str]) -> Morphism:
    """The morphism dom -> cod given by a name-to-name mapping, validated
    by `checked_images`."""
    return Morphism(dom, cod, checked_images(dom, cod, mapping))


def checked_images(dom: CatObject, cod: CatObject,
                   mapping: Mapping[str, str]) -> tuple[int, ...]:
    """The image tuple of the morphism dom -> cod that a name-to-name
    mapping gives, or the `CategoryError` that says why it gives none.

    The map must be total on dom's names and mention no other name, send
    each name into cod, vertices to vertices and edges to edges, and
    preserve every edge's source and target.
    """
    if dom.kind != cod.kind:
        raise CategoryError(f"kind mismatch: {dom!r} is a {dom.kind}, {cod!r} is a {cod.kind}")
    is_set = dom.kind == SET
    if not is_set and any(x not in dom.position for x in mapping):
        raise _outside(dom, mapping)
    nv, cod_nv = len(dom.vertices), len(cod.vertices)
    images = []
    for i, x in enumerate(dom.names):
        what = "element" if is_set else "vertex" if i < nv else "edge"
        if x not in mapping:
            raise CategoryError(f"map is not total: no image for {what} {x!r}")
        y = mapping[x]
        p = cod.position.get(y)
        if p is None or (p < cod_nv) != (i < nv):
            raise CategoryError(f"image {y!r} of {x!r} is not in the codomain {cod!r}" if is_set
                                else f"image {y!r} of {what} {x!r} is not in the codomain")
        if i >= nv:
            # homomorphism law: sources and targets must be preserved
            for end, at, to in (("source", dom.src, cod.src), ("target", dom.tgt, cod.tgt)):
                v = mapping[at[x]]
                if to[y] != v:
                    raise CategoryError(
                        f"edge {x!r}: image {y!r} has {end} {to[y]!r} "
                        f"but the vertex map sends {at[x]!r} to {v!r}")
        images.append(p)
    if len(mapping) != len(images):
        raise _outside(dom, mapping)
    return tuple(images)


def _outside(dom: CatObject, mapping: Mapping[str, str]) -> CategoryError:
    extra = sorted(set(mapping) - set(dom.names))
    return CategoryError(f"map mentions names outside the domain: {extra}")


def identity(obj: CatObject) -> Morphism:
    return Morphism(obj, obj, tuple(range(obj.size)))


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
    return Morphism(f.dom, g.cod, tuple(images[p] for p in f.images))


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
# Inside a search a morphism b: X -> C is its image tuple (see `Morphism`),
# and lexicographic order on these tuples is hom-set order.  Each edge of X
# is an atom like any other; an atom's reading plan depends on its binding
# alone, so one bounded cache (`_plan`) serves every search in the process.

def hom_set(dom: CatObject, cod: CatObject) -> tuple[Morphism, ...]:
    """All morphisms dom -> cod, in lexicographic order.

    The order is lexicographic over the domain's ordered name list
    (vertices before edges for graphs), with candidate images taken in
    the codomain's declared order.  Nothing is cached.
    """
    return tuple(Morphism(dom, cod, b) for b in hom_search(dom, cod))


def hom_search(dom: CatObject, cod: CatObject, atoms=()) -> dict[tuple[int, ...], int]:
    """Every b: dom -> cod with delta;b in R for each atom, in hom-set order.

    An atom (binding, relation) stands for a morphism delta: A -> dom and
    a relation R of morphisms A -> cod: `binding` holds the positions in
    dom of delta's images of A's names, and `relation` holds image tuples
    in cod, both in A's name order.  A relation is a set of tuples, or a
    dict from tuples to int masks: then bit j of a mask says whether the
    tuple is in the j-th of several relations, such as one per structure
    of a block.  The result is a dict from each b to the AND of its
    atoms' masks, a set counting as all bits (-1), leaving out 0; with
    only sets every mask is -1.

    Each atom's facts are first read at its binding's distinct positions
    (`_plan`), and each edge e: s -> t of dom is one more atom, over (s, t, e),
    whose relation is cod's edges.  Names of dom are then bound one at a time
    in declared order, each to the candidates every atom over it still allows
    (Generic Join), or to any vertex of cod where no atom reads it; a complete
    binding ANDs its atoms' masks.  With no atom given this is all of
    hom(dom, cod), refused by estimate past HOM_ENUMERATION_CAP; otherwise the
    search refuses once its output passes the cap.  `isomorphisms` runs the
    same join with distinct images.
    """
    if dom.kind != cod.kind:
        raise CategoryError(f"kind mismatch: {dom!r} is a {dom.kind}, {cod!r} is a {cod.kind}")
    reduced, const = _reduced(atoms)
    if not const:
        return {}
    if not reduced:
        return dict.fromkeys(_homs(dom, cod), const)
    n = dom.size
    full = [a for a in reduced if len(a[0]) == n]
    if full:
        # one atom binds every name: its facts are the candidates
        chosen = min(full, key=lambda a: len(a[1]))
        # None where an atom binds every name in order: its key is b itself
        others = [(None if len(a[0]) == n else a[0], a[1]) for a in reduced if a is not chosen]
        out = {}
        for b in sorted(chosen[1]):
            m = const & _mask(chosen[1], b)
            for v, f in others:
                m &= _mask(f, b if v is None else tuple([b[p] for p in v]))
            if m:
                out[b] = m
        return out
    return _join(dom, cod, reduced, const)


def _reduced(atoms) -> tuple[list, int]:
    """The atoms that bind some name, their facts read by `_read`, and the
    AND of the masks of those that bind none; that AND is 0 when an atom
    holds of no b."""
    const = -1
    reduced = []
    for binding, relation in atoms:
        variables, relation = _read(binding, relation)
        if not variables:
            # an atom that binds no name holds of every b or of none
            const &= _mask(relation, ())
            if not const:
                return [], 0
        elif not relation:
            return [], 0
        else:
            reduced.append((variables, relation))
    return reduced, const


@functools.lru_cache(maxsize=1 << 12)
def _plan(binding: tuple[int, ...]):
    """How to read an atom's facts at its distinct positions.

    Returns the distinct positions in ascending order, a getter of the
    columns to read at them and a getter that copies each position's first
    column to its other columns (a fact equal to its copy agrees on every
    repeated position); the getters are None where facts are read as given.
    """
    first: dict[int, int] = {}
    for j, p in enumerate(binding):
        first.setdefault(p, j)
    variables = tuple(sorted(first))
    columns = [first[p] for p in variables]
    if columns == list(range(len(binding))):
        return variables, None, None
    one = slice(columns[0], columns[0] + 1)  # a getter of one column gives a 1-tuple
    read = itemgetter(*columns) if len(columns) > 1 else itemgetter(one)
    return variables, read, itemgetter(*[first[p] for p in binding])


def _read(binding: tuple[int, ...], relation):
    """An atom's distinct positions, and its facts read there by `_plan`."""
    variables, read, copy = _plan(binding)
    if read is None:
        return variables, relation
    if type(relation) is dict:
        return variables, {read(r): m for r, m in relation.items() if copy(r) == r}
    return variables, {read(r) for r in relation if copy(r) == r}


def _mask(relation, fact: tuple) -> int:
    """The mask of a fact in a relation: a set holds it at every bit."""
    if type(relation) is dict:
        return relation.get(fact, 0)
    return -1 if fact in relation else 0


def _homs(dom: CatObject, cod: CatObject) -> Collection[tuple[int, ...]]:
    """All of hom(dom, cod) as tuples; refused by estimate past the cap."""
    estimate = (len(cod.vertices) ** len(dom.vertices)
                * max(1, len(cod.edges)) ** len(dom.edges))
    if estimate > HOM_ENUMERATION_CAP:
        up_to = "" if dom.kind == SET else "up to "
        raise EnumerationLimitError(
            f"hom set {sized(dom)} -> {sized(cod)} has {up_to}{estimate} candidates "
            f"(cap {HOM_ENUMERATION_CAP})", estimate)
    if not dom.edges:
        return list(itertools.product(range(len(cod.vertices)), repeat=len(dom.vertices)))
    return _join(dom, cod, (), -1)


def _join(dom: CatObject, cod: CatObject, atoms, const: int,
          distinct: bool = False) -> dict[tuple[int, ...], int]:
    """The search over atoms that each bind some name, as a dict from each
    b to `const` (the AND of the masks of the atoms that bind no name)
    ANDed with its atoms' masks, leaving out 0.  With `distinct` (only
    `isomorphisms` asks for it) a name's candidates leave out the images
    already bound, so every b is injective."""
    n, pos, cpos = dom.size, dom.position, cod.position
    # each edge e: s -> t of dom is one more atom over (s, t, e), whose
    # relation is cod's edges as (source, target, edge) position triples
    edges = [(cpos[cod.src[e]], cpos[cod.tgt[e]], cpos[e]) for e in cod.edges]
    atoms = [*atoms, *(_read((pos[dom.src[e]], pos[dom.tgt[e]], pos[e]), edges)
                       for e in dom.edges)]
    # one trie per atom, its levels in the order of its positions; built
    # from sorted facts, so every node lists its keys in ascending order.
    # A leaf holds the fact's mask, -1 for a set
    tries: list[dict] = []
    at: list[list[int]] = [[] for _ in range(n)]
    for variables, facts in atoms:
        root: dict = {}
        has_masks = type(facts) is dict
        for fact in sorted(facts):
            node = root
            for v in fact[:-1]:
                node = node.setdefault(v, {})
            node[fact[-1]] = facts[fact] if has_masks else -1
        for p in variables:
            at[p].append(len(tries))
        tries.append(root)
    vertices = range(len(cod.vertices))

    out = {}
    b = [0] * n
    levels: list[tuple] = []  # per bound name: its tries, their nodes and candidates left
    i = 0  # the next name to bind, len(levels)
    while True:
        if i == n:
            # every trie is at the leaf of its fact: AND their masks
            mask = const
            for leaf in tries:
                mask &= leaf
            if mask:
                out[tuple(b)] = mask
                if len(out) > HOM_ENUMERATION_CAP:
                    raise EnumerationLimitError(
                        f"hom search {sized(dom)} -> {sized(cod)} has over {HOM_ENUMERATION_CAP} "
                        f"results", len(out))
        else:
            ks = at[i]
            live = [tries[k] for k in ks]
            # a name that no atom reads is a vertex; every other name takes
            # the keys its tries share (a lone trie's keys as they are)
            if len(live) > 1:
                candidates = [v for v in min(live, key=len) if all(v in node for node in live)]
            else:
                candidates = live[0] if live else vertices
            if distinct:
                # vertex and edge positions never meet, so one test serves both
                taken = b[:i]
                candidates = [v for v in candidates if v not in taken]
            levels.append((ks, live, iter(candidates)))
            i += 1
        # bind the next candidate of the deepest level that has one left
        while i:
            ks, live, it = levels[-1]
            v = next(it, None)
            if v is not None:
                b[i - 1] = v
                if ks:
                    for k, node in zip(ks, live):
                        tries[k] = node[v]
                break
            for k, node in zip(ks, live):
                tries[k] = node
            levels.pop()
            i -= 1
        else:
            return out


def precompose(binding: tuple[int, ...], images: tuple[int, ...]) -> tuple[int, ...]:
    """delta;b as a tuple, from delta's positions and b's images."""
    return tuple([images[p] for p in binding])


# ---------------------------------------------------------------------------
# Isomorphisms and renamings

def isomorphisms(a: CatObject, b: CatObject, atoms=()) -> tuple[Morphism, ...]:
    """All isomorphisms a -> b with delta;iso in R for each atom (as
    `hom_search` takes them), in hom-set order: between objects of equal
    vertex and edge counts, the morphisms with distinct images.  Refused
    past HOM_ENUMERATION_CAP (`bijection_bound`)."""
    if a.kind != b.kind or a.size != b.size or len(a.vertices) != len(b.vertices):
        return ()
    estimate = bijection_bound(a)
    if estimate > HOM_ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"isomorphisms {sized(a)} -> {sized(b)} have up to {estimate} candidates "
            f"(cap {HOM_ENUMERATION_CAP})", estimate)
    reduced, const = _reduced(atoms)
    if not const:
        return ()
    return tuple([Morphism(a, b, t) for t in _join(a, b, reduced, const, distinct=True)])


def bijection_bound(obj: CatObject) -> int:
    """How many bijections there are from `obj` to an object of its
    counts, the bound past which `isomorphisms` refuses to list them: n!
    for n elements; v! * e! for v vertices and e edges."""
    return math.factorial(len(obj.vertices)) * math.factorial(len(obj.edges))


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
    return Morphism(m.cod, m.dom, tuple(images))


def renaming(obj: CatObject, mapping: Mapping[str, str]) -> Morphism:
    """The isomorphism from `obj` onto its copy with names replaced."""
    if isinstance(obj, FinSet):
        target = FinSet(tuple(mapping[x] for x in obj.elements))
    else:
        target = FinGraph(
            tuple(mapping[v] for v in obj.vertices),
            tuple((mapping[e], mapping[s], mapping[t]) for e, s, t in obj.edge_triples()))
    return Morphism(obj, target, tuple(range(obj.size)))


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
    return Morphism(initial_object(obj.kind), obj, ())


class PushoutResult(Record):
    """Apex and injections of a pushout square."""

    __slots__ = _fields = ("apex", "inj_left", "inj_right")

    def __init__(self, apex: CatObject, inj_left: Morphism, inj_right: Morphism):
        self.apex, self.inj_left, self.inj_right = apex, inj_left, inj_right


def pushout(f: Morphism, g: Morphism) -> PushoutResult:
    """Pushout of the span (f: X -> A, g: X -> B).

    The apex quotients positions: A's names, then B's names shifted by
    |A|.  A union-find glues f(x) to g(x) for each x of X and roots each
    class at its first position; the classes in the order of their roots
    are the apex order (vertices before edges for graphs, which glue
    never mixes).  Each class is named after its least original name,
    tagged by the side that name came from ("l." or "r.", left winning
    ties), and a glued edge runs between the classes of its root's
    endpoints.
    """
    if f.dom != getattr(g, "dom", None):
        raise CategoryError(
            f"pushout needs a span with one common domain, got {f!r} from "
            f"{f.dom!r} and {g!r} from {getattr(g, 'dom', None)!r}")
    a, b = f.cod, g.cod
    na = a.size
    names = a.names + b.names
    root = list(range(len(names)))

    def find(p: int) -> int:
        while root[p] != p:
            root[p] = root[root[p]]
            p = root[p]
        return p

    for p, q in zip(f.images, g.images):
        p, q = find(p), find(na + q)
        if p < q:
            root[q] = p
        elif q < p:
            root[p] = q

    cls = [find(p) for p in range(len(names))]
    # per class, in the order of the roots, the position of its least name
    least: dict[int, int] = {}
    for p, r in enumerate(cls):
        q = least.get(r)
        if q is None or names[p] < names[q]:
            least[r] = p
    label = {r: ("l." if q < na else "r.") + names[q] for r, q in least.items()}
    va, vb = len(a.vertices), na + len(b.vertices)
    order = [r for r in least if r < va or na <= r < vb]
    edges = [r for r in least if not (r < va or na <= r < vb)]

    def ends(r: int) -> tuple[str, str]:
        obj, base = (a, 0) if r < na else (b, na)
        e = names[r]
        return (label[cls[base + obj.position[obj.src[e]]]],
                label[cls[base + obj.position[obj.tgt[e]]]])

    vertices = [label[r] for r in order]
    apex = (FinSet(vertices) if a.kind == SET
            else FinGraph(vertices, [(label[r], *ends(r)) for r in edges]))
    order += edges
    at = {r: i for i, r in enumerate(order)}
    images = tuple(at[r] for r in cls)
    result = PushoutResult(apex, Morphism(a, apex, images[:na]),
                           Morphism(b, apex, images[na:]))
    if compose(f, result.inj_left) != compose(g, result.inj_right):
        raise AssertionError("pushout square failed to commute")
    return result
