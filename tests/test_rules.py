from __future__ import annotations

import pytest

from lfoc.category import (
    CategoryError,
    FinGraph,
    FinSet,
    compose,
    identity,
    inclusion,
    morphism,
)
from lfoc.category import HOM_ENUMERATION_CAP
from lfoc.expr import Bot, atom, conj, cond_exists, exists_along, top
from lfoc.footprint import (
    CarrierBounds,
    Footprint,
    Structure,
    StructureRegistry,
)
from lfoc.rules import (
    MatchError,
    SketchRule,
    apply_rule,
    axiom_filtered_registry,
    check_equivalence,
    find_matches,
    fold_conjunction_rule,
    intro_rule,
    is_closed,
    is_conservative,
    is_match,
    is_sound,
    modus_ponens_rule,
    saturate,
    unfold_conjunction_rule,
    SaturationLimits,
)
from lfoc.sketch import Constraint, Sketch, sketches_isomorphic

# set-kind fixtures
P1 = FinSet(("p",))
P2 = FinSet(("q1", "q2"))
FP = Footprint("FP", "set", {"mark": P1, "likes": P2})
MARK = atom("mark", identity(P1))

# graph-kind fixtures for the identity rules
ID_ARITY = FinGraph(("pv",), (("pe", "pv", "pv"),))
COMP_ARITY = FinGraph(
    ("pv1", "pv2", "pv3"),
    (("pe1", "pv1", "pv2"), ("pe2", "pv2", "pv3"), ("pe3", "pv1", "pv3")))
CAT = Footprint("CAT", "graph", {"comp": COMP_ARITY, "id": ID_ARITY})

ONE_VERTEX = FinGraph(("pv",), ())
TWO_LOOPS = FinGraph(("pv",), (("pe1", "pv", "pv"), ("pe2", "pv", "pv")))

ID_ATOM = atom("id", identity(ID_ARITY))


def identity_existence_rule() -> SketchRule:
    lhs = Sketch("lhs", ONE_VERTEX, [])
    rhs = Sketch("rhs", ID_ARITY, [Constraint(ID_ATOM, identity(ID_ARITY))])
    return SketchRule("id-exists", lhs, rhs, inclusion(ONE_VERTEX, ID_ARITY))


def identity_uniqueness_rule() -> SketchRule:
    both = conj(atom("id", morphism(ID_ARITY, TWO_LOOPS, {"pv": "pv", "pe": "pe1"})),
                atom("id", morphism(ID_ARITY, TWO_LOOPS, {"pv": "pv", "pe": "pe2"})))
    lhs = Sketch("lhs", TWO_LOOPS, [Constraint(both, identity(TWO_LOOPS))])
    rhs = Sketch("rhs", ID_ARITY, [])
    glue = morphism(TWO_LOOPS, ID_ARITY, {"pv": "pv", "pe1": "pe", "pe2": "pe"})
    return SketchRule("id-unique", lhs, rhs, glue)


ONE_LOOP = FinGraph(("c",), (("l", "c", "c"),))


def loop_structure(with_id=True) -> Structure:
    interp = {
        "comp": [morphism(COMP_ARITY, ONE_LOOP,
                          {"pv1": "c", "pv2": "c", "pv3": "c",
                           "pe1": "l", "pe2": "l", "pe3": "l"})],
    }
    if with_id:
        interp["id"] = [morphism(ID_ARITY, ONE_LOOP, {"pv": "c", "pe": "l"})]
    return Structure("loop", CAT, ONE_LOOP, interp)


def bare_vertex_structure() -> Structure:
    return Structure("bare", CAT, FinGraph(("c",), ()), {})


def test_rule_boundaries_validated():
    lhs = Sketch("lhs", ONE_VERTEX, [])
    rhs = Sketch("rhs", ID_ARITY, [])
    with pytest.raises(CategoryError):
        SketchRule("bad", lhs, rhs, identity(ONE_VERTEX))


def test_find_matches_requires_constraints_present():
    K = FinSet(("k1", "k2"))
    host = Sketch("host", K, [Constraint(MARK, morphism(P1, K, {"p": "k1"}))])
    pattern = Sketch("pat", P1, [Constraint(MARK, identity(P1))])
    got = find_matches(pattern, host)
    assert [m("p") for m in got] == ["k1"]
    free = Sketch("free", P1, [])
    assert len(find_matches(free, host)) == 2


def test_is_conservative_loop_structure():
    rule = identity_existence_rule()
    assert is_conservative(loop_structure(), rule)
    res = is_conservative(loop_structure(with_id=False), rule)
    assert not res
    assert res.witness is not None
    assert res.witness.name_map() == {"pv": "c"}


def test_is_conservative_uniqueness_rule():
    rule = identity_uniqueness_rule()
    # one loop listed once under id: the lhs needs two id loops on one
    # vertex, which forces pe1 = pe2 = l, and the rhs extension exists
    assert is_conservative(loop_structure(), rule)
    two = FinGraph(("c",), (("l1", "c", "c"), ("l2", "c", "c")))
    both_ids = Structure("two", CAT, two, {
        "id": [morphism(ID_ARITY, two, {"pv": "c", "pe": "l1"}),
               morphism(ID_ARITY, two, {"pv": "c", "pe": "l2"})],
    })
    # lhs model picking pe1=l1, pe2=l2 cannot factor through one loop
    assert not is_conservative(both_ids, rule)


# A rule whose lhs has no solution: its rhs hom set, 4^12 maps from the
# 12-element context into a 4-element carrier or host, is past the cap,
# and is never searched because there is nothing to extend or factor.
X12 = FinSet(tuple(f"x{i}" for i in range(12)))
FOUR = FinSet(("c1", "c2", "c3", "c4"))


def empty_lhs_rule() -> SketchRule:
    lhs = Sketch("lhs", X12, [Constraint(Bot(X12), identity(X12))])
    return SketchRule("never", lhs, Sketch("rhs", X12, []), identity(X12))


def test_empty_lhs_skips_the_rhs_search_for_conservativity():
    assert 4 ** 12 > HOM_ENUMERATION_CAP
    assert is_conservative(Structure("four", FP, FOUR, {}), empty_lhs_rule())


def test_empty_lhs_skips_the_rhs_search_for_closedness():
    host = Sketch("host", FOUR, [Constraint(MARK, morphism(P1, FOUR, {"p": "c1"}))])
    assert is_closed(host, empty_lhs_rule())


def test_is_sound_over_registry():
    reg = StructureRegistry.exhaustive(FP, CarrierBounds(max_elements=2))
    e = conj(MARK, MARK)
    assert is_sound(unfold_conjunction_rule(e), reg)
    assert is_sound(fold_conjunction_rule(e), reg)
    bad = intro_rule(MARK)
    res = is_sound(bad, reg)
    assert not res and res.registry == reg.description
    structure, witness = res.witness
    assert witness is not None


def test_is_closed_and_apply():
    rule = identity_existence_rule()
    host = Sketch("host", FinGraph(("a", "b"), ()), [])
    res = is_closed(host, rule)
    assert not res
    assert res.witness is not None
    first = res.witness
    out = apply_rule(host, rule, first)
    assert len(out.sketch.context.vertices) == 2
    assert len(out.sketch.context.edges) == 1
    assert len(out.sketch.constraints) == 1
    # the rewritten sketch carries an rhs match through the injection
    assert is_match(out.rhs_injection, rule.rhs, out.sketch)


def test_apply_rejects_non_match():
    K = FinSet(("k",))
    host = Sketch("host", K, [])
    pattern = Sketch("pat", P1, [Constraint(MARK, identity(P1))])
    rule = SketchRule("r", pattern, pattern, identity(P1))
    with pytest.raises(MatchError):
        apply_rule(host, rule, morphism(P1, K, {"p": "k"}))


def test_apply_identity_rule_keeps_context():
    e = conj(MARK, MARK)
    rule = unfold_conjunction_rule(e)
    K = FinSet(("k1", "k2"))
    host = Sketch("host", K, [Constraint(e, morphism(P1, K, {"p": "k1"}))])
    m = find_matches(rule.lhs, host)[0]
    out = apply_rule(host, rule, m)
    assert out.sketch.context == K
    assert out.host_injection == identity(K)
    assert host.constraints <= out.sketch.constraints
    # applying once more changes nothing
    again = apply_rule(out.sketch, rule, m)
    assert again.sketch == out.sketch
    assert sketches_isomorphic(again.sketch, out.sketch)


def test_saturate_fold_unfold_reaches_fixpoint():
    e = conj(MARK, atom("likes", morphism(P2, P1, {"q1": "p", "q2": "p"})))
    rules = [unfold_conjunction_rule(e), fold_conjunction_rule(e)]
    host = Sketch("host", P1, [Constraint(e, identity(P1))])
    res = saturate(host, rules, SaturationLimits(max_steps=10))
    assert res.status == "closed"
    assert res.steps == 1  # one unfold; the fold is then already closed
    assert len(res.sketch.constraints) == 3
    for r in rules:
        assert is_closed(res.sketch, r)
    # deterministic: same call, same result
    res2 = saturate(host, rules, SaturationLimits(max_steps=10))
    assert res2.sketch == res.sketch and res2.steps == res.steps


def test_saturate_identity_intro_on_vertices():
    rule = identity_existence_rule()
    host = Sketch("host", FinGraph(("a", "b"), ()), [])
    res = saturate(host, [rule], SaturationLimits(max_steps=10, max_vertices=2,
                                                  max_edges=2))
    assert res.status == "closed"
    assert res.steps == 2
    assert len(res.sketch.context.edges) == 2
    assert is_closed(res.sketch, rule)


def test_saturate_budget_exhausted():
    rule = identity_existence_rule()
    host = Sketch("host", FinGraph(("a",), ()), [])
    res = saturate(host, [rule], SaturationLimits(max_steps=10, max_edges=0))
    assert res.status == "budget-exhausted"
    assert res.sketch == host  # the over-budget application is not committed
    res2 = saturate(host, [rule], SaturationLimits(max_steps=0))
    assert res2.status == "budget-exhausted" and res2.steps == 0


def test_universal_rule_builders_validate():
    with pytest.raises(CategoryError):
        unfold_conjunction_rule(MARK)
    with pytest.raises(CategoryError):
        fold_conjunction_rule(MARK)
    with pytest.raises(CategoryError):
        modus_ponens_rule(MARK)


def test_modus_ponens_rule_shape():
    Y = FinSet(("p", "w"))
    e = cond_exists(MARK, inclusion(P1, Y), top(Y))
    rule = modus_ponens_rule(e)
    assert rule.lhs.context == P1 and rule.rhs.context == Y
    assert rule.morphism == e.var
    assert len(rule.lhs.constraints) == 2 and len(rule.rhs.constraints) == 1


def test_check_equivalence_cat_rules():
    for structure in (loop_structure(), loop_structure(with_id=False),
                      bare_vertex_structure()):
        for rule in (identity_existence_rule(), identity_uniqueness_rule()):
            res = check_equivalence(structure, rule)
            assert res.agree
            assert res.conservative == res.closed


def test_axiom_filtered_registry():
    reg = axiom_filtered_registry(CAT, CarrierBounds(max_vertices=1, max_edges=1),
                                  [identity_existence_rule()])
    # carriers: empty graph (vacuous), bare vertex (never conservative),
    # one loop (conservative iff the loop is listed under id)
    assert len(reg) == 3
    for st in reg:
        assert is_conservative(st, identity_existence_rule())
    assert reg.description.startswith("axioms[id-exists]")
