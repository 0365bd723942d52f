"""`isomorphisms` enumerates bijections directly; it must equal the
hom-set filter (`oracle.isomorphisms`) in value and order, on sets and
graphs, empty ones included, and leave the global hom cache alone."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from helpers import random_graph, random_set
from lfoc.category import (
    EnumerationLimitError,
    FinGraph,
    FinSet,
    isomorphisms,
    renaming,
)

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


def test_seven_element_sets_leave_the_hom_cache_alone():
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
