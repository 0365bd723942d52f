"""Acceptance suite: one test per advertised guarantee of the engine.

Every check is exact (set or structural equality); the two randomized
sweeps additionally pin a wall-clock budget of 60 seconds.  Expected
values are computed by independent oracles written in this file or in
`helpers` (raw product enumeration, union-find quotients, a direct
description-logic evaluator), never by the code paths under test.

Each test prints one `[PASS]`/`[FAIL]` line naming its criterion; run
with `-s` to see them, or rely on the per-test verdicts of `-v`.
"""

from __future__ import annotations

import functools
import itertools
import random
import time

from lfoc.category import (
    FinGraph,
    FinSet,
    compose,
    hom_set,
    identity,
    morphism,
    pushout,
)
from lfoc.expr import (
    Bot,
    Top,
    _Evaluator,
    atom,
    cond_exists,
    conj,
    disj,
    neg,
    solutions,
)
from lfoc.footprint import (
    CarrierBounds,
    Footprint,
    Structure,
    StructureRegistry,
    enumerate_carriers,
    enumerate_structures,
    is_structure_hom,
)
from lfoc.sketch import (
    Constraint,
    Interpretation,
    Sketch,
    check_initial_model,
    check_satisfaction_condition,
    models,
    satisfies,
    sketch_pushout,
)
from lfoc.rules import (
    check_equivalence,
    fold_conjunction_rule,
    is_sound,
    modus_ponens_rule,
    unfold_conjunction_rule,
)
from lfoc.dsl import parse_document, print_document
from lfoc import fixtures as fx
from lfoc.fixtures import FIXTURES, load_fixture

from helpers import (
    random_expr,
    random_graph,
    random_morphism,
    random_set,
    random_structure,
)


def criterion(number, title):
    """Print one pass/fail line per criterion around the wrapped test."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}")
                raise
            print(f"[PASS] criterion {number}: {title}")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. Satisfaction condition

@criterion(1, "satisfaction condition on 1000 randomized triples")
def test_criterion_01_satisfaction_condition():
    """translate-then-satisfy equals reduct-then-satisfy, for 1000 random
    (context morphism, constraint, interpretation) triples over graph
    carriers of up to 3 vertices and 3 edges, in under 60 seconds."""
    rng = random.Random(20260814)
    fp = fx.cat_footprint()
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        k1 = random_graph(rng, 2, 2, "k")
        k2 = random_graph(rng, 2, 2, "m")
        phi = random_morphism(rng, k1, k2)
        if phi is None:
            continue
        x = random_graph(rng, 2, 1, "x")
        binding = random_morphism(rng, x, k1)
        if binding is None:
            continue
        c = Constraint(random_expr(rng, fp, x, rng.randint(0, 2)), binding)
        u = random_structure(rng, fp, random_graph(rng, 3, 3, "c"), 0.35)
        imap = random_morphism(rng, k2, u.carrier)
        if imap is None:
            continue
        assert check_satisfaction_condition(phi, c, Interpretation(imap, u))
        checked += 1
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 2. Pushout universal property
#
# For each span the library pushout is checked three ways, which together
# are exactly "a unique mediator exists for every commuting cospan":
#   - the injections commute with the span;
#   - the injections are jointly surjective, so for any cospan at most
#     one mediator can exist;
#   - the kernel partition of the injections equals the equivalence
#     closure generated by the span, computed by an independent
#     union-find, so the canonical comparison into any commuting cospan
#     is well defined and a mediator always exists.
# On small spans the mediators are additionally enumerated literally.

def _oracle_partition(f, g):
    """Span-generated partition of the tagged names of both codomains."""
    items = [("l", n) for n in f.cod.names] + [("r", n) for n in g.cod.names]
    parent = {it: it for it in items}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    fmap, gmap = f.name_map(), g.name_map()
    for x in f.dom.names:
        ra, rb = find(("l", fmap[x])), find(("r", gmap[x]))
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for it in items:
        groups.setdefault(find(it), []).append(it)
    return frozenset(frozenset(v) for v in groups.values())


def _check_span(f, g):
    po = pushout(f, g)
    assert compose(f, po.inj_left) == compose(g, po.inj_right)
    lmap, rmap = po.inj_left.name_map(), po.inj_right.name_map()
    assert set(lmap.values()) | set(rmap.values()) == set(po.apex.names)
    classes = {}
    for n in f.cod.names:
        classes.setdefault(lmap[n], set()).add(("l", n))
    for n in g.cod.names:
        classes.setdefault(rmap[n], set()).add(("r", n))
    assert frozenset(frozenset(v) for v in classes.values()) == _oracle_partition(f, g)
    return po


def _check_mediators_enumerated(po, f, g, targets):
    for c in targets:
        commuting = {(h1, h2)
                     for h1 in hom_set(f.cod, c)
                     for h2 in hom_set(g.cod, c)
                     if compose(f, h1) == compose(g, h2)}
        induced = {}
        for m in hom_set(po.apex, c):
            key = (compose(po.inj_left, m), compose(po.inj_right, m))
            induced.setdefault(key, []).append(m)
        assert all(len(ms) == 1 for ms in induced.values())
        assert set(induced) == commuting


@criterion(2, "pushout universal property on exhaustive span sweeps")
def test_criterion_02_pushout_universal_property():
    start = time.perf_counter()
    hom_cache = {}

    def hs(a, b):
        out = hom_cache.get((a, b))
        if out is None:
            out = hom_cache[(a, b)] = hom_set(a, b)
        return out

    def sweep(objects, enumerate_when, targets):
        n = 0
        for x in objects:
            for a in objects:
                fa = hs(x, a)
                if not fa:
                    continue
                for b in objects:
                    for f in fa:
                        for g in hs(x, b):
                            po = _check_span(f, g)
                            n += 1
                            if enumerate_when(x, a, b):
                                _check_mediators_enumerated(po, f, g, targets)
        return n

    # sets: every span between the canonical sets of up to 4 names
    sets4 = list(enumerate_carriers("set", CarrierBounds(max_elements=4)))
    n_set = sweep(sets4,
                  lambda x, a, b: x.size <= 2 and a.size <= 2 and b.size <= 2,
                  list(enumerate_carriers("set", CarrierBounds(max_elements=3))))
    # sum over |X| of (sum over |A| of |A|^|X|)^2 = 25+100+900+10000+125316
    assert n_set == 136341

    # graphs: every span between the canonical graphs of up to 2
    # vertices and 2 edges, plus every span between named shapes that
    # exhaust the interesting gluings at 3 vertices and 3 edges
    graphs22 = list(enumerate_carriers("graph", CarrierBounds(max_vertices=2, max_edges=2)))
    assert len(graphs22) == 25
    shapes33 = [
        FinGraph(("a", "b", "c"), ()),
        FinGraph(("a", "b", "c"), (("e", "a", "b"), ("f", "b", "c"))),
        FinGraph(("a", "b", "c"), (("e", "a", "b"), ("f", "b", "c"), ("g", "c", "a"))),
        FinGraph(("a", "b", "c"), (("e", "a", "b"), ("f", "a", "b"), ("g", "a", "b"))),
        FinGraph(("a", "b"), (("e", "a", "b"), ("f", "b", "a"), ("g", "a", "a"))),
        FinGraph(("a",), (("e", "a", "a"), ("f", "a", "a"), ("g", "a", "a"))),
    ]
    small = {g for g in graphs22 if g.size <= 2}
    n_graph = sweep(graphs22 + shapes33,
                    lambda x, a, b: x in small and a in small and b in small,
                    sorted(small, key=lambda g: g.names))
    assert n_graph > 20000

    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 3. Amalgamation

def _random_constraints(rng, fp, context, count):
    out = []
    for _ in range(count):
        if isinstance(context, FinSet):
            x = random_set(rng, 2, "q")
        else:
            x = random_graph(rng, 1, 1, "q")
        b = random_morphism(rng, x, context)
        if b is not None:
            out.append(Constraint(random_expr(rng, fp, x, 1), b))
    return out


@criterion(3, "pushout-sketch models are exactly the compatible model pairs")
def test_criterion_03_amalgamation():
    rng = random.Random(1309)
    set_fp = fx.fol_footprint()
    graph_fp = fx.cat_footprint()
    instances = 0
    while instances < 60:
        if instances % 2:
            fp = graph_fp
            k0 = random_graph(rng, 1, 1, "s")
            k1, k2 = random_graph(rng, 2, 1, "a"), random_graph(rng, 2, 1, "b")
            carrier = random_graph(rng, 2, 2, "c")
        else:
            fp = set_fp
            k0 = random_set(rng, 1, "s")
            k1, k2 = random_set(rng, 2, "a"), random_set(rng, 2, "b")
            carrier = random_set(rng, 3, "c")
        f, g = random_morphism(rng, k0, k1), random_morphism(rng, k0, k2)
        if f is None or g is None:
            continue
        left = Sketch("L", k1, _random_constraints(rng, fp, k1, rng.randint(0, 2)))
        right = Sketch("R", k2, _random_constraints(rng, fp, k2, rng.randint(0, 2)))
        po = sketch_pushout(f, g, left, right, Sketch("S", k0, []))
        u = random_structure(rng, fp, carrier, 0.4)

        glued = [(compose(po.inj_left, m.map), compose(po.inj_right, m.map))
                 for m in models(po.sketch, u)]
        assert len(set(glued)) == len(glued)
        compatible = {(m1.map, m2.map)
                      for m1 in models(left, u)
                      for m2 in models(right, u)
                      if compose(f, m1.map) == compose(g, m2.map)}
        assert set(glued) == compatible
        instances += 1
    assert instances >= 50


# ---------------------------------------------------------------------------
# 4. Conservativity agrees with closedness of the bounded maximal sketch

@criterion(4, "rule/structure matrix: conservative iff maximal sketch closed")
def test_criterion_04_conservative_iff_closed():
    matrix = []
    cat_structs = list(enumerate_structures(
        fx.cat_footprint(), CarrierBounds(max_vertices=1, max_edges=1)))
    assert len(cat_structs) == 6  # 1 + 1 + 2^1*2^1
    matrix += [(r, s) for r in (fx.identity_existence_rule(), fx.identity_uniqueness_rule())
               for s in cat_structs]
    ua_structs = list(enumerate_structures(
        fx.ua_footprint(), CarrierBounds(max_vertices=1, max_edges=1)))
    assert len(ua_structs) == 7  # 1 + 2*1 + 2*2
    matrix += [(r, s) for r in (fx.final_rule(), fx.product_rule()) for s in ua_structs]
    alc_structs = list(enumerate_structures(
        fx.alc_footprint(), CarrierBounds(max_elements=1)))
    assert len(alc_structs) == 9  # 1 + 2*2*2
    gci = fx.gci_rule("happy_children", fx.concept("Happy"),
                      fx.forall_restriction("hasChild", fx.concept("Happy")))
    matrix += [(gci, s) for s in alc_structs]

    assert len(matrix) >= 20
    for rule, structure in matrix:
        res = check_equivalence(structure, rule)
        assert res.agree, (rule.name, structure)


# ---------------------------------------------------------------------------
# 5. Universal rules are sound

@criterion(5, "fold/unfold/modus-ponens are sound over the exhaustive registry")
def test_criterion_05_universal_rules_sound():
    p1, p2 = FinSet(("p",)), FinSet(("q1", "q2"))
    fp = Footprint("two", "set", {"mark": p1, "likes": p2})
    registry = StructureRegistry.exhaustive(fp, CarrierBounds(max_elements=2))
    assert len(registry) == 69  # 1 + 2*2 + 4*16

    t = morphism(p1, p2, {"p": "q1"})
    e1 = atom("mark", identity(p1))
    e2 = cond_exists(Top(p1), t, atom("likes", identity(p2)))
    implication = cond_exists(e1, t, atom("likes", identity(p2)))
    for rule in (fold_conjunction_rule(conj(e1, e2)),
                 unfold_conjunction_rule(conj(e1, e2)),
                 modus_ponens_rule(implication)):
        res = is_sound(rule, registry)
        assert res.holds, (rule.name, res.witness)


# ---------------------------------------------------------------------------
# 6. First-order fixture against the exhaustive assignment oracle

@criterion(6, "sibling solutions equal the 4^4 assignment oracle")
def test_criterion_06_sibling_oracle():
    smiths = fx.smith_family()
    family = fx.FAMILY.elements
    male = {m.name_map()["p"] for m in smiths.interp("male")}
    female = {m.name_map()["p"] for m in smiths.interp("female")}
    parent = {(m.name_map()["q1"], m.name_map()["q2"]) for m in smiths.interp("parent")}
    assert male == {"bob", "dave"} and female == {"alice", "carol"}

    oracle = set()
    for x1, x2, x3, x4 in itertools.product(family, repeat=4):
        if (x3 in female and x4 in male
                and (x3, x1) in parent and (x4, x1) in parent
                and (x3, x2) in parent and (x4, x2) in parent):
            oracle.add(x1)
    assert oracle == {"alice", "bob"}
    assert {a.name_map()["p"] for a in solutions(fx.sibling_expr(), smiths)} == oracle


# ---------------------------------------------------------------------------
# 7. Description-logic fixture against a direct evaluator

_CONCEPTS = ("Person", "Happy")
_ROLES = ("hasChild", "knows")


def _alc_ext(c, dom, conc, roles):
    """Textbook description-logic semantics on plain sets and pairs."""
    tag = c[0]
    if tag == "top":
        return set(dom)
    if tag == "bot":
        return set()
    if tag == "concept":
        return set(conc[c[1]])
    if tag == "not":
        return set(dom) - _alc_ext(c[1], dom, conc, roles)
    if tag == "and":
        return _alc_ext(c[1], dom, conc, roles) & _alc_ext(c[2], dom, conc, roles)
    if tag == "or":
        return _alc_ext(c[1], dom, conc, roles) | _alc_ext(c[2], dom, conc, roles)
    body = _alc_ext(c[2], dom, conc, roles)
    if tag == "exists":
        return {d for d in dom if any(b in body for a, b in roles[c[1]] if a == d)}
    return {d for d in dom if all(b in body for a, b in roles[c[1]] if a == d)}


def _alc_expr(c):
    tag = c[0]
    if tag == "top":
        return Top(fx.C1)
    if tag == "bot":
        return Bot(fx.C1)
    if tag == "concept":
        return fx.concept(c[1])
    if tag == "not":
        return neg(_alc_expr(c[1]))
    if tag == "and":
        return conj(_alc_expr(c[1]), _alc_expr(c[2]))
    if tag == "or":
        return disj(_alc_expr(c[1]), _alc_expr(c[2]))
    if tag == "exists":
        return fx.exists_restriction(c[1], _alc_expr(c[2]))
    return fx.forall_restriction(c[1], _alc_expr(c[2]))


def _random_concept(rng, depth):
    kinds = ["concept", "concept", "top", "bot", "not", "and", "or"]
    if depth > 0:
        kinds += ["exists", "exists", "forall", "forall"]
    kind = rng.choice(kinds)
    if kind == "concept":
        return (kind, rng.choice(_CONCEPTS))
    if kind in ("top", "bot"):
        return (kind,)
    if kind == "not":
        return (kind, _random_concept(rng, depth - 1))
    if kind in ("and", "or"):
        return (kind, _random_concept(rng, depth - 1), _random_concept(rng, depth - 1))
    return (kind, rng.choice(_ROLES), _random_concept(rng, depth - 1))


@criterion(7, "description-logic translations match a direct evaluator")
def test_criterion_07_alc_against_direct_evaluator():
    rng = random.Random(907)
    fp = fx.alc_footprint(_CONCEPTS, _ROLES)
    for _ in range(12):
        dom = [f"d{i}" for i in range(rng.randint(1, 4))]
        conc = {c: {d for d in dom if rng.random() < 0.5} for c in _CONCEPTS}
        roles = {r: {(a, b) for a in dom for b in dom if rng.random() < 0.3}
                 for r in _ROLES}
        carrier = FinSet(tuple(dom))
        interp = {c: tuple(morphism(fx.C1, carrier, {"x1": d}) for d in sorted(conc[c]))
                  for c in _CONCEPTS}
        interp.update(
            {r: tuple(morphism(fx.C2, carrier, {"x1": a, "x2": b})
                      for a, b in sorted(roles[r])) for r in _ROLES})
        world = Structure("world", fp, carrier, interp)

        for _ in range(8):
            c = _random_concept(rng, 3)
            direct = _alc_ext(c, dom, conc, roles)
            engine = {a.name_map()["x1"] for a in solutions(_alc_expr(c), world)}
            assert engine == direct, c

        # ABox: concept and role assertions checked as constraints
        ident = Interpretation(identity(carrier), world)
        for d in dom:
            c = _random_concept(rng, 2)
            binding = morphism(fx.C1, carrier, {"x1": d})
            assert (satisfies(ident, Constraint(_alc_expr(c), binding))
                    == (d in _alc_ext(c, dom, conc, roles)))
        for r in _ROLES:
            for a, b in itertools.product(dom, repeat=2):
                binding = morphism(fx.C2, carrier, {"x1": a, "x2": b})
                assert (satisfies(ident, Constraint(fx.role_atom(r), binding))
                        == ((a, b) in roles[r]))


# ---------------------------------------------------------------------------
# 8. Initiality of the minimal sketch presentation

@criterion(8, "minimal-sketch initiality for every structure with carriers <= 2")
def test_criterion_08_minimal_sketch_initiality():
    p1, p2 = FinSet(("p",)), FinSet(("q1", "q2"))
    fp = Footprint("two", "set", {"mark": p1, "likes": p2})
    bounds = CarrierBounds(max_elements=2)
    registry = StructureRegistry.exhaustive(fp, bounds)
    count = 0
    for structure in enumerate_structures(fp, bounds):
        assert check_initial_model(structure, registry).holds, structure
        count += 1
    assert count == 69


# ---------------------------------------------------------------------------
# 9. Strict constructive expressions are preserved by homomorphisms

def _strict_expressions(fp, arities, rounds=2):
    """All Not/CondForall-free, Top-premise expressions of height <= rounds
    over the footprint, with quantifier targets drawn from `arities`."""
    level = {}
    for x in arities:
        base = [Top(x), Bot(x)]
        for fname, ar in fp.features.items():
            base.extend(atom(fname, d) for d in hom_set(ar, x))
        level[x] = base
    for _ in range(rounds):
        nxt = {}
        for x in arities:
            combos = list(level[x])
            for lft in level[x]:
                for rgt in level[x]:
                    combos.append(conj(lft, rgt))
                    combos.append(disj(lft, rgt))
            for y in arities:
                for t in hom_set(x, y):
                    combos.extend(cond_exists(Top(x), t, body) for body in level[y])
            nxt[x] = list(dict.fromkeys(combos))
        level = nxt
    return level


@criterion(9, "strict constructive solutions are preserved by homomorphisms")
def test_criterion_09_strict_constructive_preservation():
    p1, p2 = FinSet(("p",)), FinSet(("q1", "q2"))
    fp = Footprint("one", "set", {"m": p1})
    by_arity = _strict_expressions(fp, (p1, p2))
    n_exprs = sum(len(v) for v in by_arity.values())
    assert n_exprs > 5000

    structs = list(enumerate_structures(fp, CarrierBounds(max_elements=3)))
    assert len(structs) == 15  # 1 + 2 + 4 + 8

    # solution sets once per (arity, expression, structure), as image tuples
    sols = {}
    for si, st in enumerate(structs):
        ev = _Evaluator(st)
        for x, exprs in by_arity.items():
            for ei, e in enumerate(exprs):
                sols[(x, ei, si)] = {
                    tuple(st.carrier.names[p] for p in b) for b in ev.masks(e)}

    checked_homs = 0
    for si, src in enumerate(structs):
        for di, dst in enumerate(structs):
            for s in hom_set(src.carrier, dst.carrier):
                if not is_structure_hom(s, src, dst):
                    continue
                checked_homs += 1
                smap = s.name_map()
                for x, exprs in by_arity.items():
                    for ei in range(len(exprs)):
                        after = sols[(x, ei, di)]
                        assert all(tuple(smap[v] for v in a) in after
                                   for a in sols[(x, ei, si)]), (exprs[ei], src, dst)
    assert checked_homs > 100


# ---------------------------------------------------------------------------
# 10. Concrete syntax round-trip

@criterion(10, "parse-print-parse is the identity on the fixture corpus")
def test_criterion_10_dsl_round_trip():
    for name in FIXTURES:
        doc = load_fixture(name)
        text = print_document(doc)
        again = parse_document(text)
        assert again == doc, name
        assert print_document(again) == text, name
