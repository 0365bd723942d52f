"""The hom search (`hom_search`) against the hom-scan oracle.

Solutions, models, matches, conservativity, closedness and saturation
must equal the oracle's in value, order and witness on generated set
and graph inputs: non-injective bindings, empty carriers and arities,
`top`/`bot` conjuncts, and structures that list morphisms with the
wrong domain or codomain.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

import oracle
from helpers import (
    _extend_object,
    random_expr,
    random_graph,
    random_morphism,
    random_set,
    random_structure,
)
from lfoc.category import (
    FinGraph,
    FinSet,
    Morphism,
    canonical_copy,
    compose,
    hom_search,
    hom_set,
    identity,
    inclusion,
    morphism,
)
from lfoc.expr import Bot, Top, _Evaluator, atom, conj, cond_exists, holds, solutions
from lfoc.fixtures import load_fixture
from lfoc.footprint import Footprint, Structure, StructureRegistry
from lfoc.rules import (
    SaturationLimits,
    SketchRule,
    find_matches,
    fold_conjunction_rule,
    intro_rule,
    is_closed,
    is_conservative,
    is_sound,
    saturate,
    unfold_conjunction_rule,
)
from lfoc.sketch import Constraint, Sketch, entails, models, translate_constraint

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = st.sampled_from(["set", "graph"])
SETTINGS = settings(max_examples=120, deadline=None)


def _small(rng, kind, size, prefix):
    if kind == "set":
        return random_set(rng, size, prefix)
    return random_graph(rng, max(1, size - 1), size, prefix)


def _footprint(rng, kind):
    return Footprint("FP", kind, {f"f{i}": _small(rng, kind, 2, f"a{i}")
                                  for i in range(rng.randint(1, 2))})


def _stray(rng, arity, carrier):
    """Morphisms a feature must never match: from a renamed copy of its
    arity, from a larger object, or into a renamed copy of the carrier."""
    out = []
    if arity.size:
        m = random_morphism(rng, canonical_copy(arity).cod, carrier)
        out.append(m)
    if isinstance(arity, FinSet):
        larger = FinSet(arity.elements + ("zz",))
    else:
        larger = FinGraph(arity.vertices + ("zz",), arity.edge_triples())
    out.append(random_morphism(rng, larger, carrier))
    if carrier.size:
        m = random_morphism(rng, arity, carrier)
        if m is not None:
            out.append(compose(m, canonical_copy(carrier)))
    return [m for m in out if m is not None]


def _listing(rng, fp, carrier):
    """Listed morphisms per feature: random facts in hom-set order, then
    at times some strays."""
    base = random_structure(rng, fp, carrier, density=rng.choice((0.2, 0.5, 0.8)))
    listed = {f: list(base.interp(f)) for f in fp.features}
    for f, arity in fp.features.items():
        if rng.random() < 0.5:
            listed[f].extend(_stray(rng, arity, carrier))
    return listed


def _structure(rng, fp, carrier):
    return Structure("S", fp, carrier, _listing(rng, fp, carrier))


def _conjunction(rng, fp, arity):
    """A conjunction of atoms with arbitrary (often non-injective)
    bindings, sprinkled with top and bot."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        if r < 0.1:
            parts.append(Top(arity))
        elif r < 0.15:
            parts.append(Bot(arity))
        else:
            fname = rng.choice(list(fp.features))
            delta = random_morphism(rng, fp.features[fname], arity)
            parts.append(atom(fname, delta) if delta is not None else Top(arity))
    e = parts[0]
    for p in parts[1:]:
        e = conj(e, p)
    return e


def _expr(rng, fp, arity):
    r = rng.random()
    if r < 0.35:
        return _conjunction(rng, fp, arity)
    if r < 0.6:
        target = _extend_object(rng, arity)
        t = random_morphism(rng, arity, target)
        if t is None:
            t = inclusion(arity, target)
        premise = Top(arity) if rng.random() < 0.6 else random_expr(rng, fp, arity, 0)
        return cond_exists(premise, t, _conjunction(rng, fp, target))
    return random_expr(rng, fp, arity, rng.randint(0, 2))


def _constraints(rng, fp, context, count):
    out = []
    for _ in range(count):
        x = _small(rng, context.kind, 2, "q")
        b = random_morphism(rng, x, context)
        if b is not None:
            out.append(Constraint(_expr(rng, fp, x), b))
    return out


@SETTINGS
@given(seed=SEEDS, kind=KINDS)
def test_solutions_match_oracle(seed, kind):
    rng = random.Random(seed)
    fp = _footprint(rng, kind)
    carrier = _small(rng, kind, 3, "c")
    structure = _structure(rng, fp, carrier)
    e = _expr(rng, fp, _small(rng, kind, 2, "x"))

    want = oracle.solutions(e, structure)
    assert solutions(e, structure) == want
    assert _Evaluator(structure).solutions(e) == frozenset(want)
    for a in hom_set(e.arity, carrier):
        assert holds(a, e, structure) == (a in want)


@SETTINGS
@given(seed=SEEDS, kind=KINDS)
def test_models_and_entails_match_oracle(seed, kind):
    rng = random.Random(seed)
    fp = _footprint(rng, kind)
    context = _small(rng, kind, 3, "k")
    premises = _constraints(rng, fp, context, rng.randint(0, 3))
    conclusions = _constraints(rng, fp, context, rng.randint(1, 2))
    structures = [_structure(rng, fp, _small(rng, kind, 3, "c")) for _ in range(3)]
    registry = StructureRegistry.explicit(structures)

    sk = Sketch("sk", context, premises)
    for structure in structures:
        assert models(sk, structure) == oracle.models(sk, structure)
    assert (entails(context, premises, conclusions, registry)
            == oracle.entails(context, premises, conclusions, registry))


@SETTINGS
@given(seed=SEEDS, kind=KINDS)
def test_matches_conservativity_and_closedness_match_oracle(seed, kind):
    rng = random.Random(seed)
    fp = _footprint(rng, kind)
    pattern_ctx = _small(rng, kind, 2, "g")
    host_ctx = _small(rng, kind, 3, "k")
    pattern = Sketch("", pattern_ctx, _constraints(rng, fp, pattern_ctx, rng.randint(0, 2)))
    # plant the pattern at a few places, then add noise
    host_cs = _constraints(rng, fp, host_ctx, rng.randint(0, 2))
    for _ in range(rng.randint(0, 3)):
        phi = random_morphism(rng, pattern_ctx, host_ctx)
        if phi is not None:
            host_cs.extend(translate_constraint(phi, c) for c in pattern.constraints
                           if rng.random() < 0.9)
    host = Sketch("", host_ctx, host_cs)
    assert find_matches(pattern, host) == oracle.find_matches(pattern, host)

    rhs_ctx = _extend_object(rng, pattern_ctx)
    r = random_morphism(rng, pattern_ctx, rhs_ctx) if rng.random() < 0.5 else None
    rule = SketchRule("r", pattern, Sketch("", rhs_ctx, _constraints(rng, fp, rhs_ctx, 2)),
                      r or inclusion(pattern_ctx, rhs_ctx))
    structures = [_structure(rng, fp, _small(rng, kind, 3, "c")) for _ in range(3)]
    for structure in structures:
        assert is_conservative(structure, rule) == oracle.is_conservative(structure, rule)
    registry = StructureRegistry.explicit(structures)
    assert is_sound(rule, registry) == oracle.is_sound(rule, registry)
    assert is_closed(host, rule) == oracle.is_closed(host, rule)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_saturate_matches_oracle(seed):
    rng = random.Random(seed)
    fp = _footprint(rng, "set")
    arity = _small(rng, "set", 2, "x")
    left, right = _conjunction(rng, fp, arity), _conjunction(rng, fp, arity)
    both = conj(left, right)
    rules = [unfold_conjunction_rule(both), fold_conjunction_rule(both), intro_rule(left)]
    rng.shuffle(rules)
    context = _small(rng, "set", 3, "k")
    host_cs = _constraints(rng, fp, context, 2)
    phi = random_morphism(rng, arity, context)
    if phi is not None:
        host_cs.append(Constraint(both, phi))
    host = Sketch("h", context, host_cs)
    limits = SaturationLimits(max_steps=rng.randint(0, 6))
    assert saturate(host, rules, limits) == oracle.saturate(host, rules, limits)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS)
def test_saturate_identity_rules_matches_oracle(seed):
    rng = random.Random(seed)
    doc = load_fixture("cat")
    rules = [doc.rules["id_exists"], doc.rules["id_unique"]]
    rng.shuffle(rules)
    loop_is_id = doc.exprs["loop_is_id"]
    context = random_graph(rng, 2, 3, "h")
    host_cs = []
    for _ in range(rng.randint(0, 3)):
        phi = random_morphism(rng, loop_is_id.arity, context)
        if phi is not None:
            host_cs.append(Constraint(loop_is_id, phi))
    host = Sketch("h", context, host_cs)
    limits = SaturationLimits(max_steps=rng.randint(0, 5), max_vertices=3, max_edges=6)
    assert saturate(host, rules, limits) == oracle.saturate(host, rules, limits)


def test_listed_morphisms_off_the_arity_or_carrier_never_match():
    p1, cd = FinSet(("p",)), FinSet(("c", "d"))
    fp = Footprint("FP", "set", {"mark": p1})
    renamed = FinSet(("r",))
    other_carrier = FinSet(("c", "d", "e"))
    structure = Structure("S", fp, cd, {"mark": [
        morphism(renamed, cd, {"r": "c"}),            # wrong domain
        morphism(p1, other_carrier, {"p": "d"}),      # wrong codomain
    ]})
    e = atom("mark", identity(p1))
    assert solutions(e, structure) == ()
    assert solutions(cond_exists(Top(FinSet(())), inclusion(FinSet(()), p1), e),
                     structure) == ()


def test_search_binds_in_hom_set_order_with_repeated_positions():
    x = FinSet(("a", "b", "c"))
    carrier = FinSet(("u", "v"))
    # an atom over (a, a, c): only facts agreeing on their first two places count
    facts = {(0, 0, 1), (0, 1, 1), (1, 1, 0)}
    got = hom_search(x, carrier, [((0, 0, 2), facts)])
    assert list(got) == [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)]
    assert list(got) == sorted(got)
    assert set(got.values()) == {-1}  # a set of facts holds at every bit
    assert [Morphism(x, carrier, b) for b in hom_search(x, carrier, ())] \
        == list(hom_set(x, carrier))


def test_plan_cache_stays_within_its_bound():
    from lfoc.category import _plan

    x, carrier = FinSet(("a", "b", "c")), FinSet(("u", "v"))
    atoms = [((0, 0, 2), {(0, 0, 1), (0, 1, 1), (1, 1, 0)}), ((2, 1), {(1, 0), (0, 1)})]
    first = hom_search(x, carrier, atoms)
    assert list(first) == [(0, 0, 1), (1, 1, 0)]
    bound = _plan.cache_parameters()["maxsize"]
    for k in range(bound + 100):
        _plan((k, k % 3, k))
    assert _plan.cache_info().currsize <= bound
    _plan.cache_clear()
    assert list(hom_search(x, carrier, atoms).items()) == list(first.items())


def test_search_refuses_once_its_output_passes_the_cap(monkeypatch):
    from lfoc import category
    from lfoc.category import EnumerationLimitError

    x, carrier = FinSet(("a", "b")), FinSet(("u", "v", "w"))
    monkeypatch.setattr(category, "HOM_ENUMERATION_CAP", 5)
    # b is free, so the answers are |carrier| per fact of a
    assert len(hom_search(x, carrier, [((0,), {(0,)})])) == 3
    try:
        hom_search(x, carrier, [((0,), {(0,), (1,)})])
    except EnumerationLimitError as exc:
        assert exc.estimate == 6
    else:
        raise AssertionError("the search passed the cap")


def test_an_empty_pattern_is_refused_by_the_estimate_of_its_hom_set():
    from lfoc.category import HOM_ENUMERATION_CAP, EnumerationLimitError

    # a pattern with no constraints matches at every map: the search lists
    # hom(pattern, host), refused by estimate before anything is listed
    cases = [(FinSet(tuple(f"p{i}" for i in range(8))),
              FinSet(tuple(f"h{i}" for i in range(8))), 8 ** 8,
              "set of 8 elements -> set of 8 elements has "),
             (FinGraph(("a", "b"), [(f"e{i}", "a", "b") for i in range(4)]),
              FinGraph(("u",), [(f"l{i}", "u", "u") for i in range(50)]), 50 ** 4,
              "graph with 2 vertices and 4 edges -> graph with 1 vertex and 50 edges has up to ")]
    for dom, cod, estimate, text in cases:
        try:
            find_matches(Sketch("", dom, []), Sketch("", cod, []))
        except EnumerationLimitError as exc:
            assert exc.estimate == estimate
            assert str(exc) == (f"hom set {text}{estimate} "
                                f"candidates (cap {HOM_ENUMERATION_CAP})")
        else:
            raise AssertionError("the empty pattern's hom set passed the cap")


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, kind=KINDS, width=st.integers(min_value=1, max_value=8))
def test_masked_search_is_the_scan_of_each_bit(seed, kind, width):
    # relations carry masks of `width` bits (0 included, as absent) or are
    # sets (every bit); the search's tuples and masks must be those of a
    # brute-force scan of hom(dom, cod), bit by bit, in hom-set order
    from helpers import brute_force_homs

    rng = random.Random(seed)
    dom, cod = _small(rng, kind, 3, "d"), _small(rng, kind, 3, "c")
    empty = FinSet(()) if kind == "set" else FinGraph((), ())
    atoms = []
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        if r < 0.15:  # a nullary feature
            a, delta = empty, Morphism(empty, dom, ())
        elif r < 0.3:  # one atom binds every name
            a, delta = dom, identity(dom)
        else:  # bindings repeat positions at random
            a = _small(rng, kind, 3, "a")
            delta = random_morphism(rng, a, dom)
            if delta is None:
                continue
        facts = sorted(m.images for m in brute_force_homs(a, cod))
        if rng.random() < 0.3:
            relation = {h for h in facts if rng.random() < 0.6}
        else:
            relation = {h: rng.randrange(1 << width) for h in facts if rng.random() < 0.8}
        atoms.append((delta.images, relation))

    def holds(relation, fact, bit):
        if isinstance(relation, dict):
            return relation.get(fact, 0) >> bit & 1
        return fact in relation

    scanned = {}
    for b in sorted(m.images for m in brute_force_homs(dom, cod)):
        mask = sum(1 << j for j in range(width)
                   if all(holds(rel, tuple(b[p] for p in binding), j) for binding, rel in atoms))
        if mask:
            scanned[b] = mask
    got = hom_search(dom, cod, atoms)
    if any(isinstance(rel, dict) for _, rel in atoms):
        assert list(got.items()) == list(scanned.items())
    else:
        # over sets only every mask is all bits
        assert list(got.items()) == [(b, -1) for b in scanned]


def _multigraph(rng, prefix, max_vertices=6, max_edges=10):
    # each edge a loop, a parallel copy of an earlier edge, an edge from a
    # later vertex to an earlier one, or any edge
    vs = tuple(f"{prefix}v{i}" for i in range(rng.randint(1, max_vertices)))
    ends = []
    for _ in range(rng.randint(0, max_edges)):
        kind = rng.choice(("loop", "parallel", "back", "any"))
        s, t = sorted(rng.sample(range(len(vs)), 2), reverse=True) if len(vs) > 1 else (0, 0)
        if kind == "loop":
            t = s
        elif kind == "parallel" and ends:
            s, t = rng.choice(ends)
        elif kind == "any":
            s, t = rng.randrange(len(vs)), rng.randrange(len(vs))
        ends.append((s, t))
    return FinGraph(vs, [(f"{prefix}e{i}", vs[s], vs[t]) for i, (s, t) in enumerate(ends)])


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, masked=st.booleans())
def test_graph_search_is_the_vertex_then_edge_join(seed, masked):
    # the engine reads each edge as an atom over (source, target, edge);
    # the oracle binds every vertex, then each edge from the edges between
    # its bound endpoints.  Tuples, masks, order and refusals must agree
    from unittest import mock

    from helpers import brute_force_graph_homs
    from lfoc import category
    from lfoc.category import EnumerationLimitError

    rng = random.Random(seed)
    dom, cod = _multigraph(rng, "d"), _multigraph(rng, "c")
    width = 6
    atoms = []
    for _ in range(rng.randint(1, 3) if masked else 0):
        a = _multigraph(rng, "a", 3, 3) if rng.random() < 0.8 else FinGraph((), ())
        delta = random_morphism(rng, a, dom)
        if delta is None:
            continue
        facts = list(oracle.hom_search(a, cod))
        rng.shuffle(facts)  # the search must not lean on the order it is given
        atoms.append((delta.images, {h: rng.randrange(1 << width) for h in facts
                                     if rng.random() < 0.8}))

    def outcome(search):
        try:
            return list(search(dom, cod, atoms).items())
        except EnumerationLimitError as exc:
            return str(exc).split(" ", 2)[:2]  # "hom set" by estimate, "hom search" past the cap

    with mock.patch.object(category, "HOM_ENUMERATION_CAP", 20_000), \
            mock.patch.object(oracle, "HOM_ENUMERATION_CAP", 20_000):
        got, expected = outcome(hom_search), outcome(oracle.hom_search)
        if got == ["hom", "set"]:
            # refused by the estimate of the whole hom set: an atom that lets
            # the first vertex go anywhere changes no answer, but joins
            every = ((0,), {(v,) for v in range(len(cod.vertices))})
            got = outcome(lambda d, c, a: hom_search(d, c, [*a, every]))
    assert got == expected
    if isinstance(got, list) and (len(cod.vertices) ** len(dom.vertices)
                                  * max(1, len(cod.edges)) ** len(dom.edges) <= 5_000):
        scanned = []
        for b in sorted(m.images for m in brute_force_graph_homs(dom, cod)):
            mask = (1 << width) - 1
            for binding, relation in atoms:
                mask &= relation.get(tuple(b[p] for p in binding), 0)
            if mask:
                scanned.append((b, mask if atoms else -1))
        assert got == scanned
