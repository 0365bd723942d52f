"""Morphisms built unchecked from image tuples against the validated
constructors.

The engine builds composites, identities, inverses, hom-set members,
pushout injections and renamings with `from_images`; each must equal,
hash like and print like the morphism the validated constructor builds
from its name map.  Composites and inverses must also agree with the
same operations on name maps.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_graph, random_morphism, random_set
from lfoc.category import (
    CategoryError,
    FinGraph,
    GraphMorphism,
    canonical_copy,
    compose,
    hom_set,
    identity,
    inverse,
    isomorphisms,
    morphism,
    pushout,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = st.sampled_from(["set", "graph"])


def _object(rng, kind, prefix):
    if kind == "set":
        return random_set(rng, 3, prefix)
    return random_graph(rng, 3, 3, prefix)


def _assert_matches_validated(m):
    again = morphism(m.dom, m.cod, m.name_map())
    assert type(m) is type(again)
    assert m == again and again == m
    assert hash(m) == hash(again)
    assert repr(m) == repr(again)


@given(SEEDS, KINDS)
@settings(max_examples=150, deadline=None)
def test_unchecked_morphisms_equal_their_validated_rebuild(seed, kind):
    rng = random.Random(seed)
    x, a, b = (_object(rng, kind, p) for p in ("x", "a", "b"))
    f, g, h = random_morphism(rng, x, a), random_morphism(rng, x, b), random_morphism(rng, a, b)
    copy = canonical_copy(a)
    built = [identity(x), identity(a), copy, inverse(copy)]
    built += hom_set(x, a)
    assert identity(a).name_map() == {n: n for n in a.names}
    for iso in isomorphisms(a, copy.cod):
        built += [iso, inverse(iso)]
        assert inverse(iso).name_map() == {y: n for n, y in iso.name_map().items()}
    if f is not None and h is not None:
        built.append(compose(f, h))
        hmap = h.name_map()
        assert compose(f, h).name_map() == {n: hmap[y] for n, y in f.name_map().items()}
    if f is not None and g is not None:
        po = pushout(f, g)
        built += [po.inj_left, po.inj_right]
    for m in built:
        _assert_matches_validated(m)


def test_graph_morphism_keeps_vertices_and_edges_apart():
    loop = FinGraph(("u",), (("l", "u", "u"),))
    with pytest.raises(CategoryError, match="image 'l' of vertex 'u'"):
        GraphMorphism(loop, loop, {"u": "l"}, {"l": "l"})
    with pytest.raises(CategoryError, match="image 'u' of edge 'l'"):
        GraphMorphism(loop, loop, {"u": "u"}, {"l": "u"})
    with pytest.raises(CategoryError):
        morphism(loop, loop, {"u": "l", "l": "l"})
