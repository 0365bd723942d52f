"""`isomorphisms` is the hom search over distinct images; it must equal
the hom-set filter (`oracle.isomorphisms`) in value and order, on sets
and graphs, empty ones included.  `structures_isomorphic` and
`sketches_isomorphic` test facts inside that search, so they answer on
carriers of 9 and 10 elements, where listing bijections takes seconds."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from helpers import random_graph, random_set
from lfoc.category import (
    EnumerationLimitError,
    FinGraph,
    FinSet,
    Morphism,
    identity,
    isomorphisms,
    renaming,
)
from lfoc.expr import atom
from lfoc.footprint import Footprint, Structure, structures_isomorphic
from lfoc.sketch import Constraint, Sketch, sketches_isomorphic

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _shuffled_copy(rng, obj):
    """A renamed copy of `obj` with its names listed in another order."""
    if isinstance(obj, FinSet):
        names = [f"y{i}" for i in range(obj.size)]
        rng.shuffle(names)
        return FinSet(names)
    copy = renaming(obj, {x: f"y{i}" for i, x in enumerate(obj.names)}).cod
    vertices, triples = list(copy.vertices), list(copy.edge_triples())
    rng.shuffle(vertices)
    rng.shuffle(triples)
    return FinGraph(vertices, triples)


def _pair(rng, kind):
    if kind == "set":
        a = random_set(rng, 5, "a")
        b = _shuffled_copy(rng, a) if rng.random() < 0.7 else random_set(rng, 5, "b")
    else:
        a = random_graph(rng, 4, 5, "a")
        b = _shuffled_copy(rng, a) if rng.random() < 0.7 else random_graph(rng, 4, 5, "b")
    return a, b


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.sampled_from(["set", "graph"]))
def test_isomorphisms_match_hom_set_filter(seed, kind):
    a, b = _pair(random.Random(seed), kind)
    got = isomorphisms(a, b)
    assert got == oracle.isomorphisms(a, b)


def test_isomorphisms_of_empty_objects():
    for empty in (FinSet(()), FinGraph((), ())):
        assert [m.images for m in isomorphisms(empty, empty)] == [()]
    assert isomorphisms(FinSet(()), FinSet(("x",))) == ()


def test_parallel_edges_and_loops():
    a = FinGraph(("u", "v"), (("e1", "u", "v"), ("l", "v", "v"), ("e2", "u", "v")))
    b = FinGraph(("p", "q"), (("f1", "q", "q"), ("f2", "p", "q"), ("f3", "p", "q")))
    got = isomorphisms(a, b)
    assert len(got) == 2
    assert got == oracle.isomorphisms(a, b)


def test_seven_element_sets_list_every_bijection_in_order():
    a = FinSet(tuple(f"a{i}" for i in range(7)))
    b = FinSet(tuple(f"b{i}" for i in range(7)))
    got = isomorphisms(a, b)
    assert len(got) == 5040
    assert [m.images for m in got] == sorted(m.images for m in got)


def test_isomorphism_count_is_capped_by_estimate():
    big = FinSet(tuple(f"x{i}" for i in range(11)))
    with pytest.raises(EnumerationLimitError) as err:
        isomorphisms(big, big)
    assert err.value.estimate == 39_916_800


P2 = FinSet(("q1", "q2"))
LIKES = Footprint("L", "set", {"likes": P2})


def _binary_facts(rng, n):
    """2n distinct pairs of positions in an n-element carrier."""
    return rng.sample([(p, q) for p in range(n) for q in range(n)], 2 * n)


def _renamed(rng, n, facts):
    """An n-element carrier with its names in another order, and the
    facts moved along the renaming onto it."""
    names = [f"y{i}" for i in range(n)]
    rng.shuffle(names)
    at = {name: p for p, name in enumerate(names)}
    send = [at[f"y{i}"] for i in range(n)]
    moved = [(send[p], send[q]) for p, q in facts]
    rng.shuffle(moved)
    return FinSet(names), moved


def _out_degrees(n, facts):
    return sorted(sum(p == v for p, _ in facts) for v in range(n))


def _one_fact_moved(rng, n, facts):
    """The facts with one moved to another source, so that the multiset
    of out-degrees, which every isomorphism keeps, changes."""
    while True:
        moved = list(facts)
        k = rng.randrange(len(moved))
        moved[k] = (rng.randrange(n), rng.randrange(n))
        if len(set(moved)) == len(moved) and _out_degrees(n, moved) != _out_degrees(n, facts):
            return moved


def _structure(name, carrier, facts):
    return Structure(name, LIKES, carrier,
                     {"likes": [Morphism(P2, carrier, pair) for pair in facts]})


def _sketch(name, context, facts):
    likes = atom("likes", identity(P2))
    return Sketch(name, context, [Constraint(likes, Morphism(P2, context, pair))
                                  for pair in facts])


def _timed(check, *args):
    start = time.process_time()
    answer = check(*args)
    return answer, time.process_time() - start


@pytest.mark.parametrize("n", [9, 10])
def test_structures_isomorphic_on_nine_and_ten_elements(n):
    rng = random.Random(n)
    carrier = FinSet(tuple(f"x{i}" for i in range(n)))
    facts = _binary_facts(rng, n)
    copy, moved = _renamed(rng, n, facts)
    a = _structure("a", carrier, facts)
    for b, want in ((_structure("b", copy, moved), True),
                    (_structure("c", copy, _one_fact_moved(rng, n, moved)), False)):
        answer, spent = _timed(structures_isomorphic, a, b)
        assert answer is want
        # testing facts only after building each of the n! bijections
        # took 4-6 s at n=9
        assert spent < 0.5


def test_sketches_isomorphic_on_nine_elements():
    rng = random.Random(9)
    context = FinSet(tuple(f"x{i}" for i in range(9)))
    facts = _binary_facts(rng, 9)
    copy, moved = _renamed(rng, 9, facts)
    a = _sketch("a", context, facts)
    for b, want in ((_sketch("b", copy, moved), True),
                    (_sketch("c", copy, _one_fact_moved(rng, 9, moved)), False)):
        answer, spent = _timed(sketches_isomorphic, a, b)
        assert answer is want
        assert spent < 0.5
