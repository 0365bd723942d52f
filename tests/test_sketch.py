from __future__ import annotations

import random

import pytest

from lfoc.category import (
    CategoryError,
    FinSet,
    compose,
    hom_set,
    identity,
    inclusion,
    morphism,
)
from lfoc.expr import atom, bot, conj, disj, exists_along, neg, top
from lfoc.footprint import (
    CarrierBounds,
    Footprint,
    Structure,
    StructureRegistry,
    is_structure_hom,
)
from lfoc.sketch import (
    Constraint,
    Interpretation,
    Sketch,
    check_initial_model,
    check_satisfaction_condition,
    check_sketch_morphism,
    entails,
    models,
    reduct,
    satisfies,
    sketch_pushout,
    sketches_isomorphic,
    structure_to_sketch_max,
    structure_to_sketch_min,
    translate_constraint,
)
from helpers import random_expr, random_morphism, random_structure

P1 = FinSet(("p",))
P2 = FinSet(("q1", "q2"))
FP = Footprint("FP", "set", {"mark": P1, "likes": P2})
CD = FinSet(("c", "d"))

MARK = atom("mark", identity(P1))


def structure(marks=(), like_pairs=()) -> Structure:
    return Structure("S", FP, CD, {
        "mark": [morphism(P1, CD, {"p": n}) for n in marks],
        "likes": [morphism(P2, CD, {"q1": a, "q2": b}) for a, b in like_pairs],
    })


def small_registry(max_elements=2) -> StructureRegistry:
    return StructureRegistry.exhaustive(FP, CarrierBounds(max_elements=max_elements))


def test_constraint_boundary_checked():
    K = FinSet(("k1", "k2"))
    with pytest.raises(CategoryError):
        Constraint(MARK, identity(K))
    c = Constraint(MARK, morphism(P1, K, {"p": "k2"}))
    assert c.context == K


def test_sketch_rejects_foreign_constraints():
    K = FinSet(("k1",))
    other = FinSet(("z",))
    c = Constraint(MARK, morphism(P1, other, {"p": "z"}))
    with pytest.raises(CategoryError):
        Sketch("bad", K, [c])


def test_constraint_dedup_up_to_bound_renaming():
    K = FinSet(("k",))
    Y1 = FinSet(("p", "w1"))
    Y2 = FinSet(("p", "w2"))
    e1 = exists_along(inclusion(P1, Y1), top(Y1))
    e2 = exists_along(inclusion(P1, Y2), top(Y2))
    b = morphism(P1, K, {"p": "k"})
    sk = Sketch("s", K, [Constraint(e1, b), Constraint(e2, b)])
    assert len(sk.constraints) == 1


def test_translate_functorial():
    K1, K2, K3 = FinSet(("a",)), FinSet(("b1", "b2")), FinSet(("c1", "c2"))
    c = Constraint(MARK, morphism(P1, K1, {"p": "a"}))
    for phi in hom_set(K1, K2):
        for psi in hom_set(K2, K3):
            assert (translate_constraint(psi, translate_constraint(phi, c))
                    == translate_constraint(compose(phi, psi), c))


def test_reduct_functorial():
    st = structure(marks=("c",))
    K1, K2 = FinSet(("a",)), FinSet(("b1", "b2"))
    for phi in hom_set(K1, K2):
        for a in hom_set(K2, CD):
            i = Interpretation(a, st)
            assert reduct(phi, i).map == compose(phi, a)


def test_satisfies():
    st = structure(marks=("c",))
    K = FinSet(("k1", "k2"))
    c = Constraint(MARK, morphism(P1, K, {"p": "k1"}))
    good = Interpretation(morphism(K, CD, {"k1": "c", "k2": "d"}), st)
    bad = Interpretation(morphism(K, CD, {"k1": "d", "k2": "c"}), st)
    assert satisfies(good, c)
    assert not satisfies(bad, c)


def test_satisfaction_condition_randomized():
    rng = random.Random(23)
    K1, K2 = FinSet(("a1", "a2")), FinSet(("b1", "b2"))
    for _ in range(150):
        st = random_structure(rng, FP, CD)
        e = random_expr(rng, FP, P1, depth=2)
        delta = random_morphism(rng, P1, K1)
        phi = random_morphism(rng, K1, K2)
        a = random_morphism(rng, K2, CD)
        c = Constraint(e, delta)
        i = Interpretation(a, st)
        assert check_satisfaction_condition(phi, c, i)


def test_models_in_hom_order():
    st = structure(marks=("c",))
    K = FinSet(("k",))
    sk = Sketch("s", K, [Constraint(MARK, morphism(P1, K, {"p": "k"}))])
    got = models(sk, st)
    assert [m.map("k") for m in got] == ["c"]
    empty_sk = Sketch("s", K, [Constraint(bot(P1), morphism(P1, K, {"p": "k"}))])
    assert models(empty_sk, st) == ()
    free = Sketch("s", K, [])
    assert len(models(free, st)) == 2


def test_entails_reflexive_and_monotone():
    reg = small_registry()
    K = FinSet(("k",))
    c = Constraint(MARK, morphism(P1, K, {"p": "k"}))
    assert entails(K, [c], [c], reg)
    assert entails(K, [c], [], reg)


def test_entails_conjunction_unfolding():
    reg = small_registry()
    K = P1
    both = Constraint(conj(MARK, disj(MARK, bot(P1))), identity(P1))
    left = Constraint(MARK, identity(P1))
    res = entails(K, [both], [left], reg)
    assert res and res.registry == reg.description
    # and the converse fails: mark alone does not entail mark-and-bot
    strong = Constraint(conj(MARK, bot(P1)), identity(P1))
    res2 = entails(K, [left], [strong], reg)
    assert not res2
    counter_structure, counter_map = res2.witness
    assert compose(left.binding, counter_map) in set(
        s for s in counter_structure.interp("mark"))


def test_entails_rejects_foreign_context():
    reg = small_registry()
    K = FinSet(("k",))
    c = Constraint(MARK, identity(P1))
    with pytest.raises(CategoryError):
        entails(K, [c], [], reg)


def test_check_sketch_morphism():
    reg = small_registry()
    K = FinSet(("k1", "k2"))
    src = Sketch("src", P1, [Constraint(MARK, identity(P1))])
    dst = Sketch("dst", K, [
        Constraint(MARK, morphism(P1, K, {"p": "k1"})),
        Constraint(MARK, morphism(P1, K, {"p": "k2"})),
    ])
    phi = morphism(P1, K, {"p": "k1"})
    assert check_sketch_morphism(phi, src, dst, reg)
    weak_dst = Sketch("weak", K, [])
    assert not check_sketch_morphism(phi, src, weak_dst, reg)


def test_sketch_pushout_unions_translated_constraints():
    shared = Sketch("shared", P1, [])
    K1, K2 = FinSet(("a1", "a2")), FinSet(("b1",))
    f = morphism(P1, K1, {"p": "a1"})
    g = morphism(P1, K2, {"p": "b1"})
    left = Sketch("left", K1, [Constraint(MARK, morphism(P1, K1, {"p": "a2"}))])
    right = Sketch("right", K2, [Constraint(MARK, morphism(P1, K2, {"p": "b1"}))])
    po = sketch_pushout(f, g, left, right, shared)
    assert po.sketch.context.size == 2
    assert len(po.sketch.constraints) == 2
    translated = {translate_constraint(po.inj_left, c) for c in left.constraints}
    translated |= {translate_constraint(po.inj_right, c) for c in right.constraints}
    assert po.sketch.constraints == translated


def test_sketch_pushout_amalgamation():
    # models of the glued sketch correspond exactly to compatible pairs
    shared = Sketch("shared", P1, [])
    K1, K2 = FinSet(("a1", "a2")), FinSet(("b1",))
    f = morphism(P1, K1, {"p": "a1"})
    g = morphism(P1, K2, {"p": "b1"})
    left = Sketch("left", K1, [Constraint(MARK, morphism(P1, K1, {"p": "a2"}))])
    right = Sketch("right", K2, [Constraint(neg(MARK), morphism(P1, K2, {"p": "b1"}))])
    po = sketch_pushout(f, g, left, right, shared)
    st = structure(marks=("c",), like_pairs=(("c", "d"),))
    glued = {m.map for m in models(po.sketch, st)}
    pairs = {(ml.map, mr.map)
             for ml in models(left, st) for mr in models(right, st)
             if compose(f, ml.map) == compose(g, mr.map)}
    projected = {(compose(po.inj_left, h), compose(po.inj_right, h)) for h in glued}
    assert projected == pairs
    assert len(glued) == len(pairs)


def test_minimal_sketch_identity_is_model():
    st = structure(marks=("c",), like_pairs=(("c", "d"), ("d", "c")))
    sk = structure_to_sketch_min(st)
    assert sk.context == CD
    assert len(sk.constraints) == 3
    ident = Interpretation(identity(CD), st)
    assert all(satisfies(ident, c) for c in sk.constraints)


def test_minimal_sketch_refuses_a_stray_as_its_constraint():
    # a listed morphism from another arity, and one into another carrier
    off_arity = morphism(P2, CD, {"q1": "c", "q2": "d"})
    off_carrier = morphism(P1, FinSet(("c", "d", "e")), {"p": "e"})
    for stray, want in ((off_arity, "constraint binding starts at"),
                        (off_carrier, "lives on")):
        st = Structure("S", FP, CD, {"mark": [morphism(P1, CD, {"p": "c"}), stray]})
        with pytest.raises(CategoryError, match=want):
            structure_to_sketch_min(st)


def test_minimal_sketch_models_are_structure_homs():
    src = structure(marks=("c",), like_pairs=(("c", "d"),))
    sk = structure_to_sketch_min(src)
    rng = random.Random(5)
    for _ in range(20):
        dst = random_structure(rng, FP, FinSet(("e1", "e2", "e3")))
        got = {m.map for m in models(sk, dst)}
        oracle = {s for s in hom_set(CD, dst.carrier) if is_structure_hom(s, src, dst)}
        assert got == oracle


def test_maximal_sketch_over_universe():
    st = structure(marks=("c",))
    exprs = [MARK, neg(MARK)]
    sk = structure_to_sketch_max(st, exprs)
    # mark has one solution (c), its negation the other (d)
    assert len(sk.constraints) == 2
    sk2 = structure_to_sketch_max(st, exprs + exprs)
    assert sk2 == sk


def test_check_initial_model():
    reg = small_registry()
    st = structure(marks=("c",), like_pairs=(("d", "c"),))
    res = check_initial_model(st, reg)
    assert res and res.registry == reg.description


def test_sketches_isomorphic():
    K1 = FinSet(("k1", "k2"))
    K2 = FinSet(("m1", "m2"))
    a = Sketch("a", K1, [Constraint(MARK, morphism(P1, K1, {"p": "k1"}))])
    b = Sketch("b", K2, [Constraint(MARK, morphism(P1, K2, {"p": "m2"}))])
    assert sketches_isomorphic(a, b)
    c = Sketch("c", K2, [Constraint(neg(MARK), morphism(P1, K2, {"p": "m2"}))])
    assert not sketches_isomorphic(a, c)


def test_initial_model_check_does_not_enumerate_carrier_maps():
    # 5^12 carrier maps are past HOM_ENUMERATION_CAP; the one model, the
    # constant map onto the single marked element, is the only candidate
    big = FinSet(tuple(f"b{i}" for i in range(12)))
    small = FinSet(tuple(f"s{i}" for i in range(5)))
    fp = Footprint("U", "set", {"mark": P1})
    st = Structure("big", fp, big, {"mark": [morphism(P1, big, {"p": b}) for b in big.elements]})
    other = Structure("small", fp, small, {"mark": [morphism(P1, small, {"p": "s3"})]})
    res = check_initial_model(st, StructureRegistry.explicit([other]))
    assert res.holds and res.witness is None
