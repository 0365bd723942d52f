"""Walks over expressions that do not recurse.

`wf_check`, `is_constructive` and `repr` are stack loops.  On generated
set and graph expressions, checked against their own and other
footprints, and on ill-formed nodes they must give the recursive walks'
answers (`oracle.wf_check`, `oracle.is_constructive`, and the dataclass
text of `oracle.expr_repr`), problems in the same order and words.  The
first hash of an expression stores every node's hash of the tuple of
its fields without recursing.  All of them, and the `Constraint` and
`Sketch` built on an expression, must return on chains nested far past
Python's recursion limit.  `postorder`, the walk under
the first hash, `features` and `is_constructive`, yields every node of a
DAG once and after its children, and skips what its `done` rules out.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

import oracle
from helpers import random_expr
from lfoc.category import identity
from lfoc.expr import (
    And,
    Atomic,
    CondExists,
    CondForall,
    Not,
    Or,
    atom,
    children,
    is_constructive,
    postorder,
    top,
    wf_check,
)
from lfoc.sketch import Constraint, Sketch
from test_expr import FP, P1, P2
from test_search import _footprint, _small
from test_transport import _not_chain

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = st.sampled_from(["set", "graph"])

MARK = atom("mark", identity(P1))

# the ill-formed nodes of test_expr.py, alone and nested
UNKNOWN = Atomic(P1, "nope", identity(P1))
BAD_BINDING = Atomic(P1, "likes", identity(P1))
MIXED = And(P1, top(P1), top(P2))
BROKEN = CondExists(P1, top(P1), identity(P1), top(P2))
ILL_FORMED = (
    UNKNOWN, BAD_BINDING, MIXED, BROKEN,
    Or(P1, And(P1, BAD_BINDING, MIXED), Not(P2, BROKEN)),
    CondForall(P2, MIXED, identity(P1), Not(P1, UNKNOWN)),
    CondExists(P1, BROKEN, identity(P2), Or(P1, UNKNOWN, Not(P1, BAD_BINDING))),
)


def _nodes(e):
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack += children(node)


def _check_walks(e, footprint):
    assert wf_check(e, footprint) == oracle.wf_check(e, footprint)
    for strict in (False, True):
        assert is_constructive(e, strict=strict) == oracle.is_constructive(e, strict=strict)
    assert repr(e) == oracle.expr_repr(e)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_walks_equal_the_recursive_ones_on_generated_expressions(seed, kind):
    rng = random.Random(seed)
    fp = _footprint(rng, kind)
    e = random_expr(rng, fp, _small(rng, kind, 3, ""), rng.randint(0, 2))
    # a foreign footprint of either kind makes most expressions ill-formed
    for footprint in (fp, _footprint(rng, kind), FP):
        _check_walks(e, footprint)


def test_walks_equal_the_recursive_ones_on_ill_formed_nodes():
    for e in ILL_FORMED:
        assert not wf_check(e, FP)
        _check_walks(e, FP)


def test_stored_hash_is_the_generated_one():
    rng = random.Random(3)
    for _ in range(50):
        kind = rng.choice(["set", "graph"])
        e = random_expr(rng, _footprint(rng, kind), _small(rng, kind, 3, ""), 2)
        hash(e)
        for node in _nodes(e):
            fields = tuple(getattr(node, f) for f in node._fields)
            assert node._hash == hash(fields)


def test_repr_of_a_deep_not_chain():
    e = _not_chain(MARK, 10_000)
    # a subtree's stored text is copied into the text of the nodes above it
    below = repr(e.body.body)
    text = repr(e)
    assert text == "Not(arity=set{p}, body=" * 10_000 + repr(MARK) + ")" * 10_000
    assert text is repr(e) and below in text
    # only the nodes asked keep their text
    assert not hasattr(e.body, "_repr")


def _and_chain(bottom, n):
    e = bottom
    for _ in range(n):
        e = And(P1, e, MARK)
    return e


def test_walks_return_on_a_deep_and_chain():
    e = _and_chain(MARK, 5000)
    assert wf_check(e, FP)
    assert is_constructive(e, strict=True)
    assert not is_constructive(And(P1, e, Not(P1, MARK)))
    res = wf_check(_and_chain(UNKNOWN, 5000), FP)
    assert not res
    assert res.witness == ("expr" + ".left" * 5000 + ": unknown feature 'nope'",)


def test_constraint_and_sketch_on_a_deep_not_chain():
    e = _not_chain(MARK, 5000)
    c = Constraint(e, identity(P1))
    sk = Sketch("deep", P1, [c])
    assert c in sk.constraints
    assert hash(Constraint(e, identity(P1))) == hash(c)
    assert hash(_not_chain(MARK, 5000)) == hash(e)


def _check_postorder(e, order):
    place = {id(node): i for i, node in enumerate(order)}
    assert len(place) == len(order), "a node came twice"
    assert order[-1] is e
    for node in order:
        assert all(place[id(kid)] < place[id(node)] for kid in children(node))


def test_postorder_yields_a_shared_node_once_after_its_children():
    shared = And(P1, MARK, top(P1))
    only_right = atom("other", identity(P1))
    left = Not(P1, shared)
    right = And(P1, shared, only_right)
    e = Or(P1, left, right)
    order = list(postorder(e))
    _check_postorder(e, order)
    assert {id(n) for n in order} == {id(n) for n in (e, left, right, shared, MARK,
                                                      shared.right, only_right)}
    # pruning the right branch keeps what the left branch reaches
    pruned = list(postorder(e, lambda node: node is right))
    assert [n for n in order if n is not right and n is not only_right] == pruned


def test_postorder_returns_on_a_deep_or_chain():
    e = MARK
    for _ in range(5000):
        e = Or(P1, e, MARK)
    order = list(postorder(e))
    _check_postorder(e, order)
    assert len(order) == 5001 and order[0] is MARK
