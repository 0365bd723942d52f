"""The positional pushout against the name-keyed oracle.

`category.pushout` quotients positions with a union-find; the oracle
(`oracle.pushout`) quotients ("l"/"r", name) pairs.  On random set and
graph spans they must build the same apex, names and order included,
and the same injections.  Both codomains draw names from one pool, so
a class can hold equal names from both sides (a tie the left wins) and
its least name can come from the right; objects may be empty and legs
need not be injective.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import oracle
from lfoc.category import FinGraph, FinSet, Morphism, morphism, pushout

POOL = tuple("abcdefghijkl")


def _names(rng, count: int) -> list[str]:
    pool = list(POOL)
    rng.shuffle(pool)
    return pool[:count]


def _set_leg(rng, x: FinSet) -> Morphism:
    cod = FinSet(_names(rng, rng.randint(1 if x.elements else 0, 4)))
    return morphism(x, cod, {n: rng.choice(cod.elements) for n in x.elements})


def _graph(rng, max_vertices: int, max_edges: int) -> FinGraph:
    names = _names(rng, max_vertices + max_edges)
    vertices = names[:rng.randint(0, max_vertices)]
    edges = [(e, rng.choice(vertices), rng.choice(vertices))
             for e in names[max_vertices:max_vertices + rng.randint(0, max_edges)]
             if vertices]
    return FinGraph(vertices, edges)


def _graph_leg(rng, x: FinGraph) -> Morphism:
    """A random homomorphism out of x: edges land on a fitting edge of a
    random graph where there is one, else on a fresh edge."""
    names = _names(rng, len(POOL))
    vertices = names[:rng.randint(1 if x.vertices else 0, 3)]
    free = names[3:]
    vmap = {v: rng.choice(vertices) for v in x.vertices}
    edges = [(free.pop(), rng.choice(vertices), rng.choice(vertices))
             for _ in range(rng.randint(0, 2)) if vertices]
    emap = {}
    for e in x.edges:
        ends = (vmap[x.src[e]], vmap[x.tgt[e]])
        fitting = [d for d, s, t in edges if (s, t) == ends]
        if not fitting or rng.random() < 0.3:
            edges.append((free.pop(), *ends))
            fitting = [edges[-1][0]]
        emap[e] = rng.choice(fitting)
    rng.shuffle(edges)
    return morphism(x, FinGraph(vertices, edges), {**vmap, **emap})


def _assert_same(f, g) -> None:
    got, want = pushout(f, g), oracle.pushout(f, g)
    assert repr(got.apex) == repr(want.apex)
    assert got.apex.names == want.apex.names
    assert got.inj_left.images == want.inj_left.images
    assert got.inj_right.images == want.inj_right.images


@given(st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_set_pushout_matches_oracle(rng):
    x = FinSet(_names(rng, rng.randint(0, 4)))
    _assert_same(_set_leg(rng, x), _set_leg(rng, x))


@given(st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_graph_pushout_matches_oracle(rng):
    x = _graph(rng, 3, 3)
    _assert_same(_graph_leg(rng, x), _graph_leg(rng, x))


def test_least_name_from_the_right_and_ties():
    x = FinSet(("x", "y"))
    a = FinSet(("c", "b", "d"))
    b = FinSet(("b", "a"))
    f = morphism(x, a, {"x": "c", "y": "b"})
    g = morphism(x, b, {"x": "a", "y": "b"})
    po = pushout(f, g)
    # {c, a} is named after the right's a; {b, b} is a tie the left wins
    assert po.apex.elements == ("r.a", "l.b", "l.d")
    _assert_same(f, g)


def test_empty_span():
    empty = FinGraph((), ())
    leg = morphism(empty, empty, {})
    po = pushout(leg, leg)
    assert po.apex == empty and po.inj_left.images == po.inj_right.images == ()
    _assert_same(leg, leg)
