"""The relational rewrite against the rewrite of `Constraint` objects.

`apply_rule`, `saturate` and `sketch_pushout` rewrite a host's
constraints as relations of binding tuples; the oracle's versions
translate every constraint and merge the groups by constraint equality.
Both must give the same status, step count, context, constraints in
sorted order with the expression that prints each, JSON and printed
text, and the same injections.  Inputs:

* graph hosts (cycles, paths, random graphs) whose vertices carry 0-2
  identity loops, under identity existence and uniqueness;
* set hosts under `give_child`, `fold` and `unfold`;
* alpha variants, equal expressions with other bound names: where
  identity uniqueness glues two loops that carry different variants, or
  a match sends the two names of `pair` to one, the group's expression
  with the smaller repr is kept;
* where an rhs constraint equals a host constraint up to bound names
  (`pair` along an identity, `tag` through a pushout, and applications
  at matches that already factor), the earlier group's is kept: the
  host's along an identity, the rhs's in a pushout.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

import oracle
from lfoc import jsonio
from lfoc.category import FinGraph, FinSet, identity, inclusion, morphism
from lfoc.dsl import Document, print_document
from lfoc.expr import atom, conj, cond_exists, top
from lfoc.footprint import Footprint
from lfoc.rules import SaturationLimits, SketchRule, apply_rule, find_matches, saturate
from lfoc.sketch import Constraint, Sketch, sketch_pushout

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
VARIANTS = ("wa", "wb", "wc")

# graph hosts: the identity rules of the CAT fixture
PV = FinGraph(("pv",), ())
ID_ARITY = FinGraph(("pv",), (("pe", "pv", "pv"),))
TWO_LOOPS = FinGraph(("pv",), (("pe1", "pv", "pv"), ("pe2", "pv", "pv")))
CAT = Footprint("CAT", "graph", {"ident": ID_ARITY})
LOOP_IS_ID = atom("ident", identity(ID_ARITY))
TWO_IDS = conj(atom("ident", morphism(ID_ARITY, TWO_LOOPS, {"pv": "pv", "pe": "pe1"})),
               atom("ident", morphism(ID_ARITY, TWO_LOOPS, {"pv": "pv", "pe": "pe2"})))
ID_EXISTS = SketchRule("id_exists", Sketch("AnyVertex", PV, []),
                       Sketch("WithIdLoop", ID_ARITY, [Constraint(LOOP_IS_ID, identity(ID_ARITY))]),
                       inclusion(PV, ID_ARITY))
ID_UNIQUE = SketchRule("id_unique",
                       Sketch("TwoIdLoops", TWO_LOOPS, [Constraint(TWO_IDS, identity(TWO_LOOPS))]),
                       Sketch("OneLoop", ID_ARITY, []),
                       morphism(TWO_LOOPS, ID_ARITY, {"pv": "pv", "pe1": "pe", "pe2": "pe"}))


def _loop_variant(w: str):
    """Some vertex has an identity loop, its bound vertex named w."""
    y = FinGraph(("pv", w), (("pe", "pv", "pv"), (f"{w}e", w, w)))
    return cond_exists(top(ID_ARITY), inclusion(ID_ARITY, y),
                       atom("ident", morphism(ID_ARITY, y, {"pv": w, "pe": f"{w}e"})))


# set hosts: the FOL rules of the rewrite workload, and two that meet
# equal constraints
P1 = FinSet(("p",))
P2 = FinSet(("q1", "q2"))
PW = FinSet(("p", "w"))
PAIR = FinSet(("p1", "p2"))
FOL = Footprint("FOL", "set", {"male": P1, "female": P1, "parent": P2})
IS_F = atom("female", identity(P1))
IS_M = atom("male", identity(P1))
F_AND_M = conj(IS_F, IS_M)
PARENT = atom("parent", identity(P2))


def _set_variant(w: str):
    """Someone is male, bound as w."""
    y = FinSet(("p", w))
    return cond_exists(top(P1), inclusion(P1, y), atom("male", morphism(P1, y, {"p": w})))


def _at(e, context, names: dict) -> Constraint:
    return Constraint(e, morphism(e.arity, context, names))


SPLIT = Sketch("Split", P1, [Constraint(IS_F, identity(P1)), Constraint(IS_M, identity(P1))])
BOTH = Sketch("Both", P1, [Constraint(F_AND_M, identity(P1))])
# along an identity: two variants that a match can send to one name
PAIR_RULE = SketchRule("pair", Sketch("Pair", PAIR, []),
                       Sketch("Variants", PAIR, [_at(_set_variant("wb"), PAIR, {"p": "p1"}),
                                                 _at(_set_variant("wa"), PAIR, {"p": "p2"})]),
                       identity(PAIR))
# through a pushout: a variant on the matched name beside a new edge
TAG_RULE = SketchRule("tag", Sketch("Anyone", P1, []),
                      Sketch("Tagged", PW, [_at(_set_variant("wb"), PW, {"p": "p"}),
                                            _at(PARENT, PW, {"q1": "p", "q2": "w"})]),
                      morphism(P1, PW, {"p": "p"}))
SET_RULES = (
    SketchRule("give_child", Sketch("Anyone", P1, []),
               Sketch("ParentEdge", P2, [Constraint(PARENT, identity(P2))]),
               morphism(P1, P2, {"p": "q1"})),
    SketchRule("fold", SPLIT, BOTH, identity(P1)),
    SketchRule("unfold", BOTH, SPLIT, identity(P1)),
    PAIR_RULE,
    TAG_RULE,
)


def _graph_host(rng: random.Random) -> Sketch:
    n = rng.randint(1, 5)
    vs = [f"v{i}" for i in range(n)]
    shape = rng.choice(("cycle", "path", "random"))
    if shape == "cycle":
        pairs = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    elif shape == "path":
        pairs = [(vs[i], vs[i + 1]) for i in range(n - 1)]
    else:
        pairs = [(rng.choice(vs), rng.choice(vs)) for _ in range(n)]
    edges = [(f"e{i}", s, t) for i, (s, t) in enumerate(pairs)]
    loops = {v: [f"{v}_l{j}" for j in range(rng.randint(0, 2))] for v in vs}
    edges += [(name, v, v) for v, names in loops.items() for name in names]
    context = FinGraph(vs, edges)
    constraints = []
    for v, names in loops.items():
        for name in names:
            picks = rng.sample([LOOP_IS_ID, *map(_loop_variant, VARIANTS)], rng.randint(1, 2))
            constraints += [_at(e, context, {"pv": v, "pe": name}) for e in picks]
        if len(names) == 2 and rng.random() < 0.8:
            constraints.append(_at(TWO_IDS, context, {"pv": v, "pe1": names[0], "pe2": names[1]}))
    rng.shuffle(constraints)
    return Sketch("H", context, constraints)


def _set_host(rng: random.Random) -> Sketch:
    context = FinSet(tuple(f"k{i}" for i in range(rng.randint(1, 3))))
    ks = context.elements
    pool = [IS_F, IS_M, F_AND_M, *map(_set_variant, VARIANTS)]
    constraints = [_at(rng.choice(pool), context, {"p": rng.choice(ks)})
                   for _ in range(rng.randint(0, 5))]
    constraints += [_at(PARENT, context, {"q1": rng.choice(ks), "q2": rng.choice(ks)})
                    for _ in range(rng.randint(0, 2))]
    rng.shuffle(constraints)
    return Sketch("H", context, constraints)


def _printed(sk: Sketch, fp: Footprint) -> tuple:
    """All that output shows of a sketch: its name, context, sorted
    constraints with the expression each keeps, JSON, and the text of a
    document holding it."""
    kept = [(c.expr, c.binding) for c in sk.sorted_constraints()]
    text = print_document(Document(fp.kind, footprints={fp.name: fp}, sketches={"R": sk}))
    return sk.name, sk.context, kept, jsonio.sketch_json(sk), text


def _same_applied(got, want, fp: Footprint) -> None:
    assert _printed(got.sketch, fp) == _printed(want.sketch, fp)
    assert (got.host_injection, got.rhs_injection) == (want.host_injection, want.rhs_injection)


def _check(host: Sketch, rules, fp: Footprint, rng: random.Random) -> None:
    for rule in rules:
        found = find_matches(rule.lhs, host)
        if not found:
            continue
        m = found[0]
        _same_applied(apply_rule(host, rule, m), oracle.apply_rule(host, rule, m), fp)
        if rule.morphism != identity(rule.lhs.context):
            got = sketch_pushout(rule.morphism, m, rule.rhs, host, rule.lhs, "P")
            want = oracle.sketch_pushout(rule.morphism, m, rule.rhs, host, rule.lhs, "P")
            assert _printed(got.sketch, fp) == _printed(want.sketch, fp)
            assert (got.inj_left, got.inj_right) == (want.inj_left, want.inj_right)
    limits = SaturationLimits(max_steps=rng.randint(0, 10), max_elements=rng.choice((None, 6)),
                              max_vertices=rng.choice((None, 6)),
                              max_edges=rng.choice((None, 12)))
    got, want = saturate(host, rules, limits), oracle.saturate(host, rules, limits)
    assert (got.status, got.steps) == (want.status, want.steps)
    assert _printed(got.sketch, fp) == _printed(want.sketch, fp)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
def test_graph_rewrites_match_the_oracle(seed):
    rng = random.Random(seed)
    rules = rng.sample([ID_EXISTS, ID_UNIQUE], rng.randint(1, 2))
    _check(_graph_host(rng), rules, CAT, rng)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
def test_set_rewrites_match_the_oracle(seed):
    rng = random.Random(seed)
    rules = rng.sample(SET_RULES, rng.randint(1, len(SET_RULES)))
    _check(_set_host(rng), rules, FOL, rng)


def test_a_glued_group_keeps_its_smaller_repr_and_an_earlier_group_wins():
    # two loops of one vertex carrying variants, glued by identity uniqueness
    context = FinGraph(("v",), (("l0", "v", "v"), ("l1", "v", "v")))
    host = Sketch("H", context, [
        _at(_loop_variant("wc"), context, {"pv": "v", "pe": "l0"}),
        _at(_loop_variant("wa"), context, {"pv": "v", "pe": "l1"}),
        _at(TWO_IDS, context, {"pv": "v", "pe1": "l0", "pe2": "l1"}),
    ])
    glued = saturate(host, [ID_UNIQUE], SaturationLimits(max_steps=4))
    variants = [c.expr for c in glued.sketch.constraints if c.expr.arity == ID_ARITY]
    assert variants == [_loop_variant("wa")]
    # `pair` at (k, k): the rhs's smaller repr; then the host's variant
    # on k beats the rhs's on it
    k2 = FinSet(("k", "m"))
    one = apply_rule(Sketch("H", k2, []), PAIR_RULE, morphism(PAIR, k2, {"p1": "k", "p2": "k"}))
    assert [c.expr for c in one.sketch.constraints] == [_set_variant("wa")]
    kept = Sketch("H", k2, [_at(_set_variant("wc"), k2, {"p": "k"})])
    two = apply_rule(kept, PAIR_RULE, morphism(PAIR, k2, {"p1": "k", "p2": "m"}))
    on_k = [c.expr for c in two.sketch.constraints if c.binding.images == (0,)]
    assert on_k == [_set_variant("wc")]
    # `tag` through a pushout: the rhs's variant beats the host's
    tagged = apply_rule(kept, TAG_RULE, morphism(P1, k2, {"p": "k"}))
    on_k = [c.expr for c in tagged.sketch.constraints
            if c.expr.arity == P1 and c.binding("p") == tagged.host_injection("k")]
    assert on_k == [_set_variant("wb")]
