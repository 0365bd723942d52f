from __future__ import annotations

import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from lfoc.category import (
    CategoryError,
    EnumerationLimitError,
    FinGraph,
    FinSet,
    PushoutResult,
    canonical_copy,
    compose,
    hom_search,
    hom_set,
    identity,
    inclusion,
    initial_morphism,
    initial_object,
    inverse,
    is_extension,
    is_isomorphism,
    isomorphisms,
    morphism,
    objects_isomorphic,
    pushout,
)
from lfoc.footprint import CarrierBounds, Verdict
from helpers import (
    brute_force_graph_homs,
    brute_force_homs,
    brute_force_set_homs,
    random_morphism,
    random_set,
)

AB = FinSet(("a", "b"))
XYZ = FinSet(("x", "y", "z"))
LOOP = FinGraph(("u",), (("l", "u", "u"),))
PATH = FinGraph(("p", "q"), (("f", "p", "q"),))
CYCLE3 = FinGraph(("c1", "c2", "c3"),
                  (("d1", "c1", "c2"), ("d2", "c2", "c3"), ("d3", "c3", "c1")))


def test_finset_rejects_duplicates():
    with pytest.raises(CategoryError):
        FinSet(("a", "a"))


def test_fingraph_rejects_dangling_edge():
    with pytest.raises(CategoryError):
        FinGraph(("a",), (("f", "a", "missing"),))


def test_fingraph_rejects_shared_vertex_edge_name():
    with pytest.raises(CategoryError):
        FinGraph(("a",), (("a", "a", "a"),))


def test_set_morphism_must_be_total():
    with pytest.raises(CategoryError):
        morphism(AB, XYZ, {"a": "x"})


def test_set_morphism_image_must_land():
    with pytest.raises(CategoryError):
        morphism(AB, XYZ, {"a": "x", "b": "nope"})


def test_graph_morphism_law_enforced():
    # sending the edge of PATH to the loop while separating the vertices
    # breaks source/target preservation
    with pytest.raises(CategoryError) as err:
        morphism(PATH, CYCLE3, {"p": "c1", "q": "c3", "f": "d1"})
    assert "d1" in str(err.value)


def test_compose_mismatch_names_both_objects():
    f = identity(AB)
    g = identity(XYZ)
    with pytest.raises(CategoryError) as err:
        compose(f, g)
    assert "a, b" in str(err.value) and "x, y, z" in str(err.value)


def test_compose_associative_exhaustive_sets():
    small = FinSet(("s", "t"))
    for f in hom_set(AB, small):
        for g in hom_set(small, XYZ):
            for h in hom_set(XYZ, AB):
                assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_compose_associative_exhaustive_graphs():
    for f in hom_set(PATH, CYCLE3):
        for g in hom_set(CYCLE3, CYCLE3):
            for h in hom_set(CYCLE3, LOOP):
                assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_identity_laws():
    for f in hom_set(PATH, CYCLE3):
        assert compose(identity(PATH), f) == f
        assert compose(f, identity(CYCLE3)) == f


def test_hom_set_matches_brute_force_sets():
    got = hom_set(AB, XYZ)
    assert len(got) == 9
    assert set(got) == brute_force_set_homs(AB, XYZ)


def test_hom_set_cycle_to_cycle_has_three_rotations():
    # oracle: all 27 vertex maps, filtered by the edge law
    oracle = brute_force_graph_homs(CYCLE3, CYCLE3)
    got = hom_set(CYCLE3, CYCLE3)
    assert set(got) == oracle
    assert len(got) == 3


def test_hom_set_path_and_loop():
    assert set(hom_set(PATH, LOOP)) == brute_force_graph_homs(PATH, LOOP)
    assert len(hom_set(PATH, LOOP)) == 1
    assert set(hom_set(LOOP, PATH)) == set()


def test_hom_set_lexicographic_order():
    got = hom_set(AB, XYZ)
    keys = [tuple(m(x) for x in AB.elements) for m in got]
    assert keys == sorted(keys)
    assert keys[0] == ("x", "x") and keys[-1] == ("z", "z")


def test_hom_set_graph_order_vertices_then_edges():
    two_loops = FinGraph(("u",), (("l1", "u", "u"), ("l2", "u", "u")))
    got = hom_set(two_loops, two_loops)
    keys = [(m("u"), m("l1"), m("l2")) for m in got]
    assert keys == sorted(keys)
    assert len(got) == 4


def test_hom_empty_domain_is_singleton():
    assert len(hom_set(FinSet(()), XYZ)) == 1
    assert len(hom_set(FinGraph((), ()), CYCLE3)) == 1


def test_hom_into_empty_codomain():
    assert hom_set(AB, FinSet(())) == ()
    assert len(hom_set(FinSet(()), FinSet(()))) == 1


def test_hom_set_kind_mismatch():
    with pytest.raises(CategoryError):
        hom_set(AB, LOOP)


def test_enumeration_cap_refuses_with_estimate():
    big_dom = FinSet(tuple(f"d{i}" for i in range(12)))
    big_cod = FinSet(tuple(f"c{i}" for i in range(5)))
    with pytest.raises(EnumerationLimitError) as err:
        hom_set(big_dom, big_cod)
    assert err.value.estimate == 5 ** 12


def test_is_extension():
    x = FinSet(("x",))
    t = morphism(x, AB, {"x": "a"})
    a = morphism(x, XYZ, {"x": "y"})
    good = morphism(AB, XYZ, {"a": "y", "b": "z"})
    bad = morphism(AB, XYZ, {"a": "x", "b": "z"})
    assert is_extension(good, t, a)
    assert not is_extension(bad, t, a)
    with pytest.raises(CategoryError):
        is_extension(good, t, morphism(AB, XYZ, {"a": "x", "b": "x"}))


def test_isomorphisms_and_inverse():
    ba = FinSet(("b2", "a2"))
    isos = isomorphisms(AB, ba)
    assert len(isos) == 2
    for i in isos:
        assert compose(i, inverse(i)) == identity(AB)
        assert compose(inverse(i), i) == identity(ba)
    assert objects_isomorphic(CYCLE3, CYCLE3)
    assert not objects_isomorphic(CYCLE3, LOOP)
    assert not is_isomorphism(hom_set(PATH, LOOP)[0])


def test_canonical_copy():
    iso = canonical_copy(CYCLE3)
    assert iso.cod.vertices == ("qv1", "qv2", "qv3")
    assert iso.cod.edges == ("qe1", "qe2", "qe3")
    assert is_isomorphism(iso)


def test_inclusion():
    inc = inclusion(AB, FinSet(("a", "b", "c")))
    assert inc.name_map() == {"a": "a", "b": "b"}
    with pytest.raises(CategoryError):
        inclusion(XYZ, AB)


def test_initial():
    assert initial_object("set") == FinSet(())
    m = initial_morphism(CYCLE3)
    assert m.dom == FinGraph((), ()) and m.cod == CYCLE3


# ---------------------------------------------------------------------------
# Pushouts

def test_pushout_set_example():
    x = FinSet(("x",))
    f = morphism(x, AB, {"x": "a"})
    g = morphism(x, FinSet(("c",)), {"x": "c"})
    po = pushout(f, g)
    assert po.apex.size == 2
    assert compose(f, po.inj_left) == compose(g, po.inj_right)
    # a and c are glued; the class is named after the least original name
    assert po.inj_left("a") == po.inj_right("c") == "l.a"


def test_records_compare_hash_and_show_as_the_tuple_of_their_fields():
    po = pushout(identity(AB), identity(AB))
    fields = (po.apex, po.inj_left, po.inj_right)
    assert PushoutResult(*fields) == po and hash(po) == hash(fields)
    assert repr(po) == "PushoutResult(apex=%r, inj_left=%r, inj_right=%r)" % fields
    # a record equals only a record of its own class
    bounds, verdict = CarrierBounds(None, 2, 1), Verdict(None, 2, 1)
    assert bounds != verdict and bounds.__eq__(verdict) is NotImplemented
    assert bounds != (None, 2, 1)
    assert repr(bounds) == "CarrierBounds(max_elements=None, max_vertices=2, max_edges=1)"
    assert not hasattr(po, "__dict__") and not hasattr(bounds, "__dict__")


def test_pushout_over_initial_is_disjoint_union():
    empty = FinSet(())
    f = morphism(empty, AB, {})
    g = morphism(empty, XYZ, {})
    po = pushout(f, g)
    assert po.apex.elements == ("l.a", "l.b", "r.x", "r.y", "r.z")


def test_pushout_needs_a_span():
    with pytest.raises(CategoryError):
        pushout(identity(AB), identity(XYZ))


def test_pushout_graph_glues_loop():
    v = FinGraph(("n",), ())
    into_loop = morphism(v, LOOP, {"n": "u"})
    into_path = morphism(v, PATH, {"n": "p"})
    po = pushout(into_loop, into_path)
    assert len(po.apex.vertices) == 2
    assert len(po.apex.edges) == 2
    assert compose(into_loop, po.inj_left) == compose(into_path, po.inj_right)


def _check_universal_property(f, g):
    """Oracle: enumerate every candidate mediator out of the apex and
    check that commuting cospans correspond one-to-one to mediators."""
    po = pushout(f, g)
    targets = ([FinSet(tuple(f"z{i}" for i in range(n))) for n in range(3)]
               if f.dom.kind == "set" else [LOOP, PATH, FinGraph((), ())])
    for c in targets:
        induced = {}
        for h in brute_force_homs(po.apex, c):
            key = (compose(po.inj_left, h), compose(po.inj_right, h))
            induced[key] = induced.get(key, 0) + 1
        commuting = {(p, q)
                     for p in brute_force_homs(f.cod, c)
                     for q in brute_force_homs(g.cod, c)
                     if compose(f, p) == compose(g, q)}
        assert set(induced) == commuting
        assert all(n == 1 for n in induced.values())


def test_pushout_universal_property_sets():
    x = FinSet(("x", "y"))
    for fm in hom_set(x, AB):
        for gm in hom_set(x, XYZ):
            _check_universal_property(fm, gm)


def test_pushout_universal_property_graphs():
    v = FinGraph(("n",), ())
    for fm in hom_set(v, LOOP):
        for gm in hom_set(v, PATH):
            _check_universal_property(fm, gm)


# ---------------------------------------------------------------------------
# Properties

names = st.sampled_from("abcdefg")
small_sets = st.builds(lambda xs: FinSet(tuple(sorted(xs))), st.sets(names, max_size=3))


@st.composite
def composable_triples(draw):
    a = draw(small_sets)
    b = draw(small_sets.filter(lambda s: s.elements or not a.elements))
    c = draw(small_sets.filter(lambda s: s.elements or not b.elements))
    d = draw(small_sets.filter(lambda s: s.elements or not c.elements))
    rng = draw(st.randoms(use_true_random=False))
    pick = lambda dom, cod: morphism(
        dom, cod, {x: rng.choice(cod.elements) for x in dom.elements})
    return pick(a, b), pick(b, c), pick(c, d)


@given(composable_triples())
@settings(max_examples=200, deadline=None)
def test_composition_associative_property(fgh):
    f, g, h = fgh
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(composable_triples())
@settings(max_examples=100, deadline=None)
def test_pushout_square_commutes_property(fgh):
    f, _, _ = fgh
    for g in hom_set(f.dom, XYZ):
        po = pushout(f, g)
        assert compose(f, po.inj_left) == compose(g, po.inj_right)


def test_hom_set_keeps_nothing_after_the_call():
    a = FinSet(tuple(f"retained_a{i}" for i in range(5)))
    b = FinSet(tuple(f"retained_b{i}" for i in range(5)))
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        assert len(hom_set(a, b)) == 5 ** 5
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the 3 125 morphisms alone take several hundred KB
    assert grown < 20_000


@pytest.mark.parametrize("search", [
    # a constrained search: one atom binds the first two names
    lambda: hom_search(XYZ, FinSet(("p", "q", "r", "u")), [((0, 1), {(0, 1), (1, 2), (2, 3)})]),
    # the unconstrained graph search runs the same join
    lambda: hom_search(CYCLE3, CYCLE3),
    # parallel edges make the edge bijections branch
    lambda: isomorphisms(*(2 * [FinGraph(("a", "b"), (("e1", "a", "b"), ("e2", "a", "b"),
                                                       ("e3", "b", "a")))])),
], ids=["constrained", "graph", "isomorphisms"])
def test_searches_leave_no_reference_cycles(search):
    gc.collect()
    gc.disable()
    try:
        assert search()
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# A finite set is the graph with its elements as vertices and no edges


def _discrete(s: FinSet) -> FinGraph:
    return FinGraph(s.elements, ())


def _atoms(rng, dom: FinSet, cod: FinSet):
    """Random atoms over dom: bindings with repeats, relations in cod."""
    atoms = []
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(0, 2)
        binding = tuple(rng.randrange(dom.size) for _ in range(k)) if dom.size else ()
        cells = list(itertools.product(range(cod.size), repeat=len(binding)))
        atoms.append((binding, {r for r in cells if rng.random() < 0.6}))
    return atoms


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_a_set_is_read_as_its_discrete_graph(seed):
    rng = random.Random(seed)
    x, a, b = (random_set(rng, 3, p) for p in ("x", "a", "b"))
    gx, ga, gb = _discrete(x), _discrete(a), _discrete(b)
    # dicts compare without order: compare their items in order
    assert list(hom_search(x, a).items()) == list(hom_search(gx, ga).items())
    atoms = _atoms(rng, x, a)
    assert list(hom_search(x, a, atoms).items()) == list(hom_search(gx, ga, atoms).items())
    copy = canonical_copy(a).cod
    assert ([m.images for m in isomorphisms(a, copy)]
            == [m.images for m in isomorphisms(ga, _discrete(copy))])
    assert ([m.images for m in isomorphisms(a, b)]
            == [m.images for m in isomorphisms(ga, gb)])
    f, g = random_morphism(rng, x, a), random_morphism(rng, x, b)
    if f is None or g is None:
        return
    po = pushout(f, g)
    gpo = pushout(morphism(gx, ga, f.name_map()), morphism(gx, gb, g.name_map()))
    assert po.apex.elements == gpo.apex.vertices and not gpo.apex.edges
    assert po.inj_left.images == gpo.inj_left.images
    assert po.inj_right.images == gpo.inj_right.images
