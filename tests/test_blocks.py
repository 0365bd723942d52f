"""Registry checks decided a block of structures at a time, as masks.

`StructureRegistry.blocks` lays a registry out in blocks of at most
`BLOCK_WIDTH` structures on one carrier, and `entails`,
`check_sketch_morphism` and `is_sound` evaluate every expression node
once per block, one int per tuple with a bit per structure.  Verdicts,
registry descriptions and witnesses (the structure's `S<n>` name and
facts, and the map) must equal those of `tests/oracle.py`'s full scan.
The block width is forced down to a few bits, so that one carrier's
restrictions span several blocks.  Expressions cover `not`, `or`,
`forall` and premises other than `top`; carriers are sets of up to 3
elements and graphs at 2,2, 1,2 and 2,1, in exhaustive and explicit
registries.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from helpers import random_expr, random_morphism, restriction
from lfoc import category, expr, footprint
from lfoc.category import CategoryError, FinSet, identity, morphism
from lfoc.expr import Bot, atom, conj, exists_along
from lfoc.fixtures import load_fixture
from lfoc.footprint import (
    BLOCK_WIDTH,
    CarrierBounds,
    Footprint,
    Structure,
    StructureRegistry,
    enumerate_structures,
)
from lfoc.rules import SketchRule, is_sound
from lfoc.sketch import Constraint, Sketch, check_sketch_morphism, entails
from test_orbits import _footprint
from test_restriction import _explicit, _footprints, _rule, _same
from test_search import _constraints, _small

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = st.sampled_from(["set", "graph"])
WIDTHS = st.sampled_from([1, 2, 4, 8, BLOCK_WIDTH])


def _mixed(rng, fp, context, count):
    """Constraints of `_constraints` and of `random_expr`, whose nodes
    include `not`, `or`, `forall` and premises other than `top`."""
    out = _constraints(rng, fp, context, count)
    for _ in range(rng.randint(0, count)):
        x = _small(rng, context.kind, 2, "q")
        b = random_morphism(rng, x, context)
        if b is not None:
            out.append(Constraint(random_expr(rng, fp, x, rng.randint(1, 2)), b))
    rng.shuffle(out)
    return out


def _registries(rng, kind):
    """An exhaustive registry and an explicit one, with the footprint
    their constraints are drawn from."""
    picked = _footprint(rng, kind, 600)
    registries = []
    if picked is not None:
        fp, used, bounds = picked
        registries.append((StructureRegistry.exhaustive(fp, bounds), used))
    fp, used = _footprints(rng, kind)
    registries.append((_explicit(rng, fp, kind), used))
    return registries


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, kind=KINDS, width=WIDTHS)
def test_block_checks_match_the_full_scan(seed, kind, width):
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(footprint, "BLOCK_WIDTH", width)
        for registry, used in _registries(rng, kind):
            context = _small(rng, kind, 3, "k")
            premises = _mixed(rng, used, context, rng.randint(0, 2))
            conclusions = _mixed(rng, used, context, rng.randint(1, 2))
            _same(entails(context, premises, conclusions, registry),
                  oracle.entails(context, premises, conclusions, registry))

            g = _small(rng, kind, 2, "g")
            src = Sketch("", g, _mixed(rng, used, g, rng.randint(1, 2)))
            dst = Sketch("", context, _mixed(rng, used, context, rng.randint(0, 2)))
            phi = random_morphism(rng, src.context, dst.context)
            if phi is not None:
                _same(check_sketch_morphism(phi, src, dst, registry),
                      oracle.check_sketch_morphism(phi, src, dst, registry))

            rule = _rule(rng, used, kind)
            rule = SketchRule("r", Sketch("", rule.lhs.context,
                                          _mixed(rng, used, rule.lhs.context, 1)),
                              Sketch("", rule.rhs.context,
                                     _mixed(rng, used, rule.rhs.context, 2)),
                              rule.morphism)
            _same(is_sound(rule, registry), oracle.is_sound(rule, registry))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, kind=KINDS, width=WIDTHS)
def test_blocks_lay_out_the_first_structure_of_each_restriction(seed, kind, width):
    rng = random.Random(seed)
    picked = _footprint(rng, kind, 600)
    if picked is None:
        return
    fp, used, bounds = picked
    mentioned = rng.sample(sorted(used.features), rng.randint(0, len(used.features)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(footprint, "BLOCK_WIDTH", width)
        blocks = list(StructureRegistry.exhaustive(fp, bounds).blocks(mentioned))
    seen, first = set(), []
    for s in enumerate_structures(fp, bounds):
        key = restriction(s, mentioned)
        if key not in seen:
            seen.add(key)
            first.append(s)
    laid = [s for block in blocks for s in block]
    assert [s.name for s in laid] == [s.name for s in first]
    assert laid == first
    for block in blocks:
        assert 1 <= block.width <= width
        assert {s.carrier for s in block} == {block.carrier}
        for f in mentioned:
            for h, mask in block.facts[f].items():
                assert mask >> block.width == 0
                assert [mask >> j & 1 for j in range(block.width)] \
                    == [h in s.facts[f] for s in block]


def test_listed_blocks_keep_registry_order_across_carriers():
    fp = Footprint("U", "set", {"mark": FinSet(("p",))})
    one, two = FinSet(("a",)), FinSet(("a", "b"))
    mark = {"mark": [morphism(FinSet(("p",)), one, {"p": "a"})]}
    listed = [Structure("A", fp, one), Structure("B", fp, two), Structure("C", fp, one, mark)]
    blocks = list(StructureRegistry.explicit(listed).blocks(["mark"]))
    assert [[s.name for s in b] for b in blocks] == [["A"], ["B"], ["C"]]
    # C, not B, fails; blocks in registry order find it after B
    p = FinSet(("p",))
    unmarked = [Constraint(expr.neg(atom("mark", identity(p))), identity(p))]
    got = entails(p, [], unmarked, StructureRegistry.explicit(listed))
    assert got.witness[0].name == "C"


def test_block_width_is_pinned():
    # a mask is one int of at most this many bits, whatever the registry
    assert BLOCK_WIDTH == 1 << 12
    fp = load_fixture("fol").footprints["FOL"]
    registry = StructureRegistry.exhaustive(fp, CarrierBounds(max_elements=3))
    widths = [b.width for b in registry.blocks(["female", "male", "parent"])]
    # 2^15 restrictions on the 3-element carrier take 8 full blocks
    assert widths[-8:] == [BLOCK_WIDTH] * 8 and max(widths) == BLOCK_WIDTH
    assert sum(widths) == len(registry)


def test_a_holding_check_over_fol_at_three_elements_is_quick():
    doc = load_fixture("fol")
    p1 = doc.objects["P1"]
    p2 = doc.objects["P2"]
    ident = identity(p1)
    male, female = atom("male", ident), atom("female", ident)
    out = exists_along(morphism(p1, p2, {"p": "q1"}), atom("parent", identity(p2)))
    registry = StructureRegistry.exhaustive(doc.footprints["FOL"],
                                            CarrierBounds(max_elements=3))
    start = time.process_time()
    got = entails(p1, [Constraint(conj(conj(male, female), out), ident)],
                  [Constraint(conj(female, out), ident)], registry)
    spent = time.process_time() - start
    assert got.holds and len(registry) == 33033
    # about 0.6 s when each restriction was decided on its own
    assert spent < 0.05


def _sparse_registry():
    """Four-element carriers with a few `r` facts each."""
    p2 = FinSet(("q1", "q2"))
    fp = Footprint("R", "set", {"r": p2})
    carrier = FinSet(("a", "b", "c", "d"))
    rng = random.Random(7)
    listed = []
    for i in range(6):
        facts = [morphism(p2, carrier, {"q1": rng.choice(carrier.elements),
                                        "q2": rng.choice(carrier.elements)})
                 for _ in range(3)]
        listed.append(Structure(f"S{i}", fp, carrier, {"r": facts}))
    return fp, StructureRegistry.explicit(listed)


def test_a_carrier_whose_hom_sets_pass_the_cap_is_searched_not_listed(monkeypatch):
    # a path of three r-steps from p: the search joins it over the few
    # facts, where listing would take all 4^4 maps of its four elements
    fp, registry = _sparse_registry()
    p1, p2 = FinSet(("p",)), fp.features["r"]
    x4 = FinSet(("x1", "x2", "x3", "x4"))
    step = [morphism(p2, x4, {"q1": f"x{i}", "q2": f"x{i + 1}"}) for i in (1, 2, 3)]
    path = exists_along(morphism(p1, x4, {"p": "x1"}),
                        conj(conj(atom("r", step[0]), atom("r", step[1])), atom("r", step[2])))
    loop = Constraint(atom("r", morphism(p2, p1, {"q1": "p", "q2": "p"})), identity(p1))
    premises, conclusions = [Constraint(path, identity(p1))], [loop]
    rule = SketchRule("r", Sketch("", p1, premises), Sketch("", p1, conclusions), identity(p1))
    want_entails = oracle.entails(p1, premises, conclusions, registry)
    want_sound = oracle.is_sound(rule, registry)

    listed = []
    real = category._homs

    def counting(dom, cod):
        out = real(dom, cod)
        listed.append(len(out))
        return out

    monkeypatch.setattr(category, "_homs", counting)
    monkeypatch.setattr(category, "HOM_ENUMERATION_CAP", 100)
    with pytest.raises(category.EnumerationLimitError):
        category.hom_search(x4, next(iter(registry)).carrier)
    listed.clear()
    _same(entails(p1, premises, conclusions, registry), want_entails)
    _same(is_sound(rule, registry), want_sound)
    assert max(listed, default=0) <= 100


def test_a_feature_missing_from_the_rhs_raises_once_an_lhs_model_exists(monkeypatch):
    p = FinSet(("p",))
    ident = identity(p)
    fp = Footprint("U", "set", {"mark": p})
    registry = StructureRegistry.exhaustive(fp, CarrierBounds(max_elements=3))
    absent = Sketch("", p, [Constraint(atom("absent", ident), ident)])
    never = Sketch("", p, [Constraint(conj(atom("mark", ident), Bot(p)), ident)])
    marked = Sketch("", p, [Constraint(atom("mark", ident), ident)])
    monkeypatch.setattr(footprint, "BLOCK_WIDTH", 2)
    # no structure has an lhs model: the rhs is never evaluated
    assert is_sound(SketchRule("never", never, absent, ident), registry).holds
    with pytest.raises(CategoryError, match="^structure has no feature 'absent'$"):
        is_sound(SketchRule("marked", marked, absent, ident), registry)


def test_an_entailment_without_conclusions_lists_no_hom_set(monkeypatch):
    # the conclusions are searched among the premises' models only, so
    # with none of them hom(K, C) is never listed
    fp, registry = _sparse_registry()
    k = FinSet(("k1", "k2", "k3"))
    steps = [atom("r", morphism(fp.features["r"], k, {"q1": a, "q2": b}))
             for a, b in (("k1", "k2"), ("k2", "k3"))]
    premises = [Constraint(step, identity(k)) for step in steps]
    real = category._homs

    def refusing(dom, cod):
        assert dom != k, "hom(K, C) was listed"
        return real(dom, cod)

    monkeypatch.setattr(category, "_homs", refusing)
    assert entails(k, premises, [], registry).holds


def test_a_conclusion_is_evaluated_only_where_the_premises_have_a_model():
    p = FinSet(("p",))
    ident = identity(p)
    fp = Footprint("U", "set", {"mark": p})
    registry = StructureRegistry.exhaustive(fp, CarrierBounds(max_elements=2))
    absent = [Constraint(atom("absent", ident), ident)]
    assert entails(p, [Constraint(Bot(p), ident)], absent, registry).holds
    with pytest.raises(CategoryError, match="^structure has no feature 'absent'$"):
        entails(p, [Constraint(atom("mark", ident), ident)], absent, registry)


def test_errors_of_ill_formed_constraints_are_the_evaluators():
    p, q = FinSet(("p",)), FinSet(("q1", "q2"))
    fp = Footprint("U", "set", {"mark": p})
    registry = StructureRegistry.exhaustive(fp, CarrierBounds(max_elements=2))
    ident = identity(p)
    mark = Constraint(atom("mark", ident), ident)
    # a conjunct of another arity, and a quantifier whose body has the
    # wrong arity, built without the checking helpers
    bad_conj = expr.And(p, atom("mark", ident), expr.Top(q))
    bad_exists = expr.CondExists(p, expr.Top(p), morphism(p, q, {"p": "q1"}), expr.Top(p))
    for bad in (bad_conj, bad_exists):
        with pytest.raises(CategoryError) as want:
            expr._Evaluator(next(iter(registry))).masks(bad)
        with pytest.raises(CategoryError) as got:
            entails(p, [mark], [Constraint(bad, ident)], registry)
        assert str(got.value) == str(want.value)


def test_memory_does_not_grow_with_the_registry():
    import tracemalloc

    p2 = FinSet(("q1", "q2"))
    fp = Footprint("RS", "set", {"r": p2, "s": p2})
    ident = identity(p2)
    both = [Constraint(conj(atom("r", ident), atom("s", ident)), ident)]
    just_r = [Constraint(atom("r", ident), ident)]
    peaks = {}
    for n in (2, 3):
        # 261 structures at 2 elements; 262 405 at 3, 64 full blocks
        registry = StructureRegistry.exhaustive(fp, CarrierBounds(max_elements=n))
        tracemalloc.start()
        assert entails(p2, both, just_r, registry).holds
        peaks[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert len(registry) == 262405
    # masks of at most BLOCK_WIDTH bits: the peak is about one block's
    # (about 45 KB here against 10 KB at 2 elements), not one per structure
    assert peaks[3] < 250_000
