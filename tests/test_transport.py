"""`substitute` and `canonicalize` against the recursive walks they replaced.

Both move an expression along a morphism of its arity in one iterative
walk.  On generated set and graph expressions with quantifiers, along
non-injective morphisms into targets whose names collide with bound,
pushout and canonical names, they must give the oracle's expression,
with the same repr.  They must also return on expressions nested far
past Python's recursion limit; those results are checked by walking
them iteratively, since `==` on expressions still recurses.
"""

from __future__ import annotations

import random

from hypothesis import assume, given, settings, strategies as st

import oracle
from helpers import _extend_object, random_expr, random_morphism
from lfoc.category import FinGraph, FinSet, inclusion, morphism
from lfoc.expr import (
    CondExists,
    Not,
    Top,
    atom,
    canonicalize,
    cond_exists,
    cond_forall,
    conj,
    neg,
    substitute,
)
from test_search import _footprint, _small

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = st.sampled_from(["set", "graph"])

# names random arities, quantifier targets, pushout apexes and
# canonical copies use
SET_NAMES = ("x0", "x1", "w0", "w1", "q1", "q2", "l.x0", "r.w0", "l.w1")
VERTEX_NAMES = ("v0", "v1", "wv0", "qv1", "l.v0", "r.wv0")
EDGE_NAMES = ("e0", "we0", "we1", "qe1", "l.e0", "r.we0")


def _colliding_target(rng, kind):
    """A small object named from the bound-name pool, with a loop on
    every vertex so most arities map into it."""
    if kind == "set":
        return FinSet(tuple(rng.sample(SET_NAMES, rng.randint(1, 3))))
    vs = tuple(rng.sample(VERTEX_NAMES, rng.randint(1, 2)))
    names = iter(rng.sample(EDGE_NAMES, len(vs) + 2))
    edges = [(next(names), v, v) for v in vs]
    edges += [(next(names), rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 2))]
    return FinGraph(vs, edges)


def _quantified(rng, fp, arity):
    target = _extend_object(rng, arity)
    var = random_morphism(rng, arity, target) or inclusion(arity, target)
    premise = Top(arity) if rng.random() < 0.5 else random_expr(rng, fp, arity, 1)
    node = cond_exists if rng.random() < 0.5 else cond_forall
    return node(premise, var, random_expr(rng, fp, target, 2))


def _expr(rng, fp, arity):
    r = rng.random()
    if r < 0.3:
        return _quantified(rng, fp, arity)
    if r < 0.5:
        return conj(random_expr(rng, fp, arity, 1), _quantified(rng, fp, arity))
    if r < 0.6:
        return neg(_quantified(rng, fp, arity))
    return random_expr(rng, fp, arity, rng.randint(0, 3))


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_transport_equals_the_recursive_walks(seed, kind):
    rng = random.Random(seed)
    fp = _footprint(rng, kind)
    arity = _small(rng, kind, 3, "")
    e = _expr(rng, fp, arity)
    t = random_morphism(rng, arity, _colliding_target(rng, kind))
    assume(t is not None)

    got, want = substitute(e, t), oracle.substitute(e, t)
    assert got == want and repr(got) == repr(want)
    got, want = canonicalize(e), oracle.canonicalize(e)
    assert got == want and repr(got) == repr(want)
    got, want = canonicalize(substitute(e, t)), oracle.canonicalize(oracle.substitute(e, t))
    assert got == want and repr(got) == repr(want)


def test_canonical_form_is_kept_on_the_node():
    rng = random.Random(7)
    fp = _footprint(rng, "set")
    for _ in range(20):
        e = _quantified(rng, fp, _small(rng, "set", 3, ""))
        c = canonicalize(e)
        assert canonicalize(e) is c
        assert canonicalize(c) == c


# -- nesting past the recursion limit ----------------------------------------

X = FinSet(("x", "y"))
Y = FinSet(("x", "y", "w"))
Z = FinSet(("l.x",))
P2 = FinSet(("a", "b"))
T = morphism(X, Z, {"x": "l.x", "y": "l.x"})
PAIR = atom("r", morphism(P2, X, {"a": "x", "b": "y"}))
EXISTS = cond_exists(Top(X), inclusion(X, Y), atom("r", morphism(P2, Y, {"a": "w", "b": "x"})))


def _not_chain(base, n):
    e = base
    for _ in range(n):
        e = Not(base.arity, e)
    return e


def _spine(e):
    """The arities of the `not` nodes above e's first other node, and
    that node."""
    arities = []
    while isinstance(e, Not):
        arities.append(e.arity)
        e = e.body
    return arities, e


def test_deep_not_chain_is_moved_and_canonicalized():
    e = _not_chain(PAIR, 5000)
    arities, bottom = _spine(substitute(e, T))
    assert arities == [Z] * 5000
    assert bottom == oracle.substitute(PAIR, T)
    c = canonicalize(e)
    assert canonicalize(e) is c
    arities, bottom = _spine(c)
    assert arities == [X] * 5000
    assert bottom == PAIR


def test_deep_not_chain_over_an_exists():
    e = _not_chain(EXISTS, 3000)
    arities, bottom = _spine(substitute(e, T))
    assert arities == [Z] * 3000
    assert isinstance(bottom, CondExists)
    want = oracle.substitute(EXISTS, T)
    assert bottom == want and repr(bottom) == repr(want)
    arities, bottom = _spine(canonicalize(e))
    assert arities == [X] * 3000
    want = oracle.canonicalize(EXISTS)
    assert bottom == want and repr(bottom) == repr(want)
