"""A sketch's relations against the frozenset of constraints they replaced.

A `Sketch` stores its constraints as relations, one per canonical
expression, of binding tuples.  On generated sketches, with alpha
variants among their constraints (a quantifier target renamed, on the
same binding or another), the engine must agree with `oracle`'s
frozenset sketch and `translate_constraint` walks on equality and hash,
the constraint set, the sorted constraints with the expression each
keeps and their printed text, `is_match`, `sketches_isomorphic`, and
morphism and entailment verdicts with their witnesses.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

import oracle
from helpers import random_morphism
from lfoc.category import FinSet, FinGraph, Morphism, compose, hom_set, identity, inverse
from lfoc.expr import _transport, canonicalize
from lfoc.rules import is_match
from lfoc.sketch import (
    Constraint,
    Sketch,
    check_sketch_morphism,
    entails,
    sketches_isomorphic,
    translate_constraint,
)
from test_blocks import _mixed, _registries
from test_restriction import _same
from test_rewrite import _printed
from test_search import _footprint, _small

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = st.sampled_from(["set", "graph"])


def _renamed(obj, tag: str) -> Morphism:
    """The isomorphism from obj onto its copy with every name tagged."""
    if isinstance(obj, FinSet):
        copy = FinSet(tuple(x + tag for x in obj.elements))
    else:
        copy = FinGraph(tuple(v + tag for v in obj.vertices),
                        tuple((e + tag, s + tag, t + tag) for e, s, t in obj.edge_triples()))
    return Morphism(obj, copy, tuple(range(obj.size)))


def _variant(e, tag: str):
    """e with every quantifier target renamed: equal up to bound names."""
    def bind(var, t):
        iso = _renamed(var.cod, tag)
        return compose(var if t is None else compose(inverse(t), var), iso), iso
    out = _transport(e, None, bind)
    assert canonicalize(out) == canonicalize(e)
    return out


def _given(rng, fp, context, count) -> list[Constraint]:
    """Constraints of `_mixed`, and alpha variants of some, each on its
    original's binding or another, in any order."""
    out = _mixed(rng, fp, context, count)
    for i, c in enumerate(list(out)):
        if rng.random() < 0.5:
            b = c.binding if rng.random() < 0.6 else random_morphism(rng, c.expr.arity, context)
            if b is not None:
                out.insert(rng.randint(0, len(out)), Constraint(_variant(c.expr, f"_{i}"), b))
    return out


def _pair(rng, fp, kind):
    """Two constraint lists on one context, the second a reshuffle of the
    first with a constraint dropped or added at times."""
    context = _small(rng, kind, 3, "k")
    first = _given(rng, fp, context, rng.randint(0, 3))
    second = list(first)
    rng.shuffle(second)
    if second and rng.random() < 0.3:
        second.pop()
    if rng.random() < 0.3:
        second += _given(rng, fp, context, 1)
    return context, first, second


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_relations_hold_the_frozenset_of_constraints(seed, kind):
    rng = random.Random(seed)
    fp = _footprint(rng, kind)
    context, first, second = _pair(rng, fp, kind)
    a, b = Sketch("S", context, first), Sketch("S", context, second)
    want_a, want_b = (oracle.FrozenSketch("S", context, first),
                      oracle.FrozenSketch("S", context, second))
    assert (a == b) == (want_a == want_b)
    if a == b:
        assert hash(a) == hash(b)
    assert a.constraints == want_a.constraints
    # the first given of equal constraints keeps its expression in print
    assert _printed(a, fp) == _printed(want_a, fp)
    assert Sketch("S", context, a.sorted_constraints()) == a


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_matches_and_isomorphisms_are_those_of_translated_constraints(seed, kind):
    rng = random.Random(seed)
    fp = _footprint(rng, kind)
    pattern_ctx, host_ctx = _small(rng, kind, 2, "g"), _small(rng, kind, 3, "k")
    pattern = Sketch("", pattern_ctx, _given(rng, fp, pattern_ctx, rng.randint(0, 2)))
    host_cs = _given(rng, fp, host_ctx, rng.randint(0, 2))
    for _ in range(rng.randint(0, 3)):
        phi = random_morphism(rng, pattern_ctx, host_ctx)
        if phi is not None:
            host_cs += [translate_constraint(phi, c) for c in pattern.constraints
                        if rng.random() < 0.9]
    host = Sketch("", host_ctx, host_cs)
    for phi in hom_set(pattern_ctx, host_ctx):
        assert is_match(phi, pattern, host) == oracle.is_match(phi, pattern, host)

    context, first, second = _pair(rng, fp, kind)
    a = Sketch("", context, first)
    iso = _renamed(context, "_r")
    if rng.random() < 0.5:  # another isomorphism onto the copy
        iso = rng.choice(oracle.isomorphisms(context, iso.cod))
    b = Sketch("", iso.cod, [translate_constraint(iso, c) for c in second])
    assert sketches_isomorphic(a, b) == oracle.sketches_isomorphic(a, b)
    assert sketches_isomorphic(a, a)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_morphism_and_entailment_verdicts_are_those_of_translated_constraints(seed, kind):
    rng = random.Random(seed)
    for registry, used in _registries(rng, kind):
        context = _small(rng, kind, 3, "k")
        g = _small(rng, kind, 2, "g")
        src = Sketch("", g, _given(rng, used, g, rng.randint(1, 2)))
        dst = Sketch("", context, _given(rng, used, context, rng.randint(0, 2)))
        phi = random_morphism(rng, g, context)
        if phi is not None:
            got = check_sketch_morphism(phi, src, dst, registry)
            translated = [translate_constraint(phi, c) for c in src.constraints]
            _same(got, entails(context, dst.constraints, translated, registry))
            _same(got, oracle.check_sketch_morphism(phi, src, dst, registry))
        # `lfoc entail`: the conclusions' sketch into the premises' along
        # the identity
        premises = _given(rng, used, context, rng.randint(0, 2))
        conclusions = _given(rng, used, context, rng.randint(1, 2))
        got = check_sketch_morphism(identity(context), Sketch("", context, conclusions),
                                    Sketch("", context, premises), registry)
        _same(got, entails(context, premises, conclusions, registry))
        _same(got, oracle.entails(context, premises, conclusions, registry))
