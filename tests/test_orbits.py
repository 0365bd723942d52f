"""Exhaustive registries laid out in blocks, and deduplicated one
block at a time.

A registry check decides an exhaustive registry one block of
restrictions at a time and builds only the structure it returns as a
witness; `enumerate_structures(dedup_isomorphic=True)` keeps one
structure per isomorphism class by dropping, from a block laid out over
every feature, each structure whose number some automorphism of its
carrier lowers.  Verdicts, registry descriptions and witnesses
(structure name and map) must equal those of `tests/oracle.py`'s full
scan, and the dedup, also across narrow blocks and under
`axiom_filtered_registry`, must keep the structures, names and order of
the pairwise loop it replaced.  Set footprints are walked up to 3
elements, graph footprints on carriers with loops and parallel edges.
"""

from __future__ import annotations

import contextlib
import io
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from helpers import random_morphism, restriction
from lfoc import footprint
from lfoc.category import (
    CategoryError,
    EnumerationLimitError,
    FinGraph,
    FinSet,
    bijection_bound,
    identity,
    morphism,
)
from lfoc.cli import main
from lfoc.expr import atom, conj
from lfoc.fixtures import load_fixture
from lfoc.footprint import (
    CarrierBounds,
    Footprint,
    Structure,
    StructureRegistry,
    count_structures,
    enumerate_structures,
    structures_isomorphic,
)
from lfoc.rules import axiom_filtered_registry, is_sound
from lfoc.sketch import Constraint, check_sketch_morphism, entails
from test_restriction import _rule, _same, _sketch
from test_search import _constraints, _small

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = st.sampled_from(["set", "graph"])

SET_ARITIES = [FinSet(()), FinSet(("p",)), FinSet(("q1", "q2"))]
GRAPH_ARITIES = [
    FinGraph(("v",)),
    FinGraph(("v",), (("e", "v", "v"),)),
    FinGraph(("v1", "v2"), (("e", "v1", "v2"),)),
    FinGraph(("v1", "v2")),
]
BOUNDS = {
    "set": [CarrierBounds(max_elements=n) for n in (3, 2)],
    # two loops on one vertex, or two vertices with loops and parallel edges
    "graph": [CarrierBounds(max_vertices=v, max_edges=e) for v, e in ((2, 2), (1, 2), (2, 1))],
}


def _footprint(rng, kind, limit):
    """Up to three features, plus at times an unmentioned `spare`, and
    the largest bounds that keep the registry within `limit`."""
    arities = SET_ARITIES if kind == "set" else GRAPH_ARITIES
    used = {f"f{i}": rng.choice(arities) for i in range(rng.randint(1, 3))}
    full = dict(used)
    if rng.random() < 0.5:
        full["spare"] = arities[0]
    fp = Footprint("FP", kind, full)
    for bounds in BOUNDS[kind]:
        if count_structures(fp, bounds) <= limit:
            return fp, Footprint("FP", kind, used), bounds
    return None


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_pruned_registry_checks_match_the_full_scan(seed, kind):
    rng = random.Random(seed)
    picked = _footprint(rng, kind, 600)
    if picked is None:
        return
    fp, used, bounds = picked
    registry = StructureRegistry.exhaustive(fp, bounds)
    context = _small(rng, kind, 3, "k")
    premises = _constraints(rng, used, context, rng.randint(0, 3))
    conclusions = _constraints(rng, used, context, rng.randint(1, 2))
    _same(entails(context, premises, conclusions, registry),
          oracle.entails(context, premises, conclusions, registry))

    src = _sketch(rng, used, _small(rng, kind, 2, "g"), rng.randint(1, 2))
    dst = _sketch(rng, used, context, rng.randint(0, 2))
    phi = random_morphism(rng, src.context, dst.context)
    if phi is not None:
        _same(check_sketch_morphism(phi, src, dst, registry),
              oracle.check_sketch_morphism(phi, src, dst, registry))

    rule = _rule(rng, used, kind)
    _same(is_sound(rule, registry), oracle.is_sound(rule, registry))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_walk_keeps_the_first_structure_of_every_class(seed, kind):
    # any isomorphism-invariant check fails first on the first structure
    # of some class of restrictions: the walk must reach it
    rng = random.Random(seed)
    picked = _footprint(rng, kind, 600)
    if picked is None:
        return
    fp, used, bounds = picked
    mentioned = rng.sample(sorted(used.features), rng.randint(0, len(used.features)))
    walked = [s for block in StructureRegistry.exhaustive(fp, bounds).blocks(mentioned)
              for s in block]
    everything = list(enumerate_structures(fp, bounds))
    order = {s.name: i for i, s in enumerate(everything)}
    numbers = [order[s.name] for s in walked]
    assert numbers == sorted(set(numbers))
    assert all(everything[i] == s for i, s in zip(numbers, walked))

    part = Footprint("M", kind, {f: fp.features[f] for f in mentioned})

    def restricted(s):
        return Structure(s.name, part, s.carrier, {f: s.interp(f) for f in mentioned})

    seen = set()
    for s in everything:  # the first of each restriction, as the walk's superset
        key = restriction(s, mentioned)
        if key not in seen:
            seen.add(key)
            assert s.name in {w.name for w in walked} or any(
                structures_isomorphic(restricted(s), restricted(w)) for w in walked
                if order[w.name] < order[s.name])
    for target in rng.sample(everything, min(5, len(everything))):
        first = next(s for s in everything
                     if structures_isomorphic(restricted(s), restricted(target)))
        assert first.name in {w.name for w in walked}


def test_first_counterexample_on_a_carrier_with_automorphisms():
    # is the relation symmetric?  The first structure that says no has
    # a one-way pair on two elements, where swapping them maps other
    # such structures onto earlier ones
    p2 = FinSet(("q1", "q2"))
    fp = Footprint("R", "set", {"r": p2, "spare": FinSet(("p",))})
    registry = StructureRegistry.exhaustive(fp, CarrierBounds(max_elements=3))
    flipped = morphism(p2, p2, {"q1": "q2", "q2": "q1"})
    pair = [Constraint(atom("r", identity(p2)), identity(p2))]
    back = [Constraint(atom("r", flipped), identity(p2))]
    got = entails(p2, pair, back, registry)
    _same(got, oracle.entails(p2, pair, back, registry))
    carrier = got.witness[0].carrier
    assert carrier.size == 2 and bijection_bound(carrier) == 2
    # the failing check builds its witness and no other structure
    built = []
    real = footprint._structure
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(footprint, "_structure", lambda *a: built.append(a[0]) or real(*a))
        again = entails(p2, pair, back, registry)
    _same(again, got)
    assert built == [got.witness[0].name]

    # a check that holds decides every restriction
    both = [Constraint(conj(atom("r", identity(p2)), atom("r", flipped)), identity(p2))]
    _same(entails(p2, both, back, registry), oracle.entails(p2, both, back, registry))


def test_first_graph_counterexample_on_a_carrier_with_automorphisms():
    # do two parallel loops either both mark identities or neither?
    loop = FinGraph(("v",), (("e", "v", "v"),))
    two = FinGraph(("v",), (("e1", "v", "v"), ("e2", "v", "v")))
    fp = Footprint("G", "graph", {"ident": loop})
    registry = StructureRegistry.exhaustive(fp, CarrierBounds(max_vertices=2, max_edges=2))
    first = morphism(loop, two, {"v": "v", "e": "e1"})
    second = morphism(loop, two, {"v": "v", "e": "e2"})
    left = [Constraint(atom("ident", first), identity(two))]
    right = [Constraint(atom("ident", second), identity(two))]
    got = entails(two, left, right, registry)
    _same(got, oracle.entails(two, left, right, registry))
    assert bijection_bound(got.witness[0].carrier) > 1


def _cat_document(tmp_path):
    path = tmp_path / "cat2.lfoc"
    path.write_text(
        "base graph;\n"
        "obj ID_ARITY { v pv; e pe: pv->pv; };\n"
        "obj TWO_LOOPS { v pv; e pe1: pv->pv; e pe2: pv->pv; };\n"
        "obj COMP_ARITY { v pv1 pv2 pv3; e pe1: pv1->pv2; e pe2: pv2->pv3; e pe3: pv1->pv3; };\n"
        "footprint CAT { feature ident : ID_ARITY; feature comp : COMP_ARITY; };\n"
        "expr l1 : TWO_LOOPS = ident([pv->pv; pe->pe1]);\n"
        "expr l2 : TWO_LOOPS = ident([pv->pv; pe->pe2]);\n"
        "expr two_ids : TWO_LOOPS = l1 and l2;\n"
        "sketch Both2 { context TWO_LOOPS; constraint two_ids @ [pv->pv; pe1->pe1; pe2->pe2]; };\n"
        "sketch Split2 { context TWO_LOOPS;\n"
        "  constraint l1 @ [pv->pv; pe1->pe1; pe2->pe2];\n"
        "  constraint l2 @ [pv->pv; pe1->pe1; pe2->pe2]; };\n",
        encoding="utf-8")
    return str(path)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_exhaustive_entail_builds_no_structure_when_it_holds(tmp_path, monkeypatch):
    built = []
    real = footprint._structure
    monkeypatch.setattr(footprint, "_structure", lambda *a: built.append(a[0]) or real(*a))
    code, _ = _run(["entail", _cat_document(tmp_path), "--left", "Both2", "--right", "Split2",
                    "--max-carrier", "2,2"])
    assert code == 0
    # of 3 189 structures, 51 differ in `ident`; the check decides them
    # from masks and builds none
    assert built == []


def test_registry_checks_never_ask_for_isomorphisms(tmp_path, monkeypatch):
    path = tmp_path / "unary.lfoc"
    path.write_text(
        "base set;\nobj P1 { p };\nfootprint U { feature mark : P1; };\n"
        "expr m : P1 = mark([p->p]);\nexpr taut : P1 = m or not m;\n"
        "sketch Anyone { context P1; };\nsketch Taut { context P1; constraint taut @ [p->p]; };\n",
        encoding="utf-8")
    sizes = []
    real = footprint.isomorphisms

    def isomorphisms(a, b, atoms=()):
        # fail before walking n! bijections, not after
        assert bijection_bound(a) <= 2 ** a.size, f"isomorphisms of {a!r}"
        sizes.append(a.size)
        return real(a, b, atoms)

    monkeypatch.setattr(footprint, "isomorphisms", isomorphisms)
    code, _ = _run(["entail", str(path), "--left", "Anyone", "--right", "Taut",
                    "--max-carrier", "12"])
    assert code == 0
    # restrictions are decided as masks, never compared up to isomorphism
    assert sizes == []


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_dedup_keeps_the_pairwise_loops_structures(seed, kind):
    rng = random.Random(seed)
    picked = _footprint(rng, kind, 300)
    if picked is None:
        return
    fp, _, bounds = picked
    got = list(enumerate_structures(fp, bounds, dedup_isomorphic=True))
    want = oracle.enumerate_isomorph_free(fp, bounds)
    assert [(s.name, s) for s in got] == [(s.name, s) for s in want]


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, kind=KINDS, width=st.sampled_from([1, 2, 4, 8]))
def test_dedup_across_narrow_blocks_keeps_the_pairwise_loops_structures(seed, kind, width):
    # one carrier's structures span several blocks, so the comparison
    # reads facts whose masks are all or nothing over a block
    rng = random.Random(seed)
    picked = _footprint(rng, kind, 300)
    if picked is None:
        return
    fp, _, bounds = picked
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(footprint, "BLOCK_WIDTH", width)
        got = list(enumerate_structures(fp, bounds, dedup_isomorphic=True))
    want = oracle.enumerate_isomorph_free(fp, bounds)
    assert [(s.name, s) for s in got] == [(s.name, s) for s in want]


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, kind=KINDS, width=st.sampled_from([1, 2, 4, 8, footprint.BLOCK_WIDTH]))
def test_deduplicated_axiom_filtered_registry_matches_the_oracle(seed, kind, width):
    rng = random.Random(seed)
    picked = _footprint(rng, kind, 300)
    if picked is None:
        return
    fp, used, bounds = picked
    rules = [_rule(rng, used, kind, f"r{i}") for i in range(rng.randint(1, 2))]
    want = [s for s in oracle.enumerate_isomorph_free(fp, bounds)
            if all(oracle.is_conservative(s, r) for r in rules)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(footprint, "BLOCK_WIDTH", width)
        try:
            got = axiom_filtered_registry(fp, bounds, rules, dedup_isomorphic=True)
        except CategoryError:  # no structure is conservative for every rule
            got = None
    if not want:
        assert got is None
        return
    assert got.description == f"axioms[{','.join(r.name for r in rules)}]({bounds.describe()})"
    assert [(s.name, s) for s in got] == [(s.name, s) for s in want]


def test_dedup_of_the_fixture_footprints_is_quick():
    for fixture, name, bounds, kept in (
            ("fol", "FOL", CarrierBounds(max_elements=3), 5873),
            ("cat", "CAT", CarrierBounds(max_vertices=2, max_edges=2), 1096)):
        fp = load_fixture(fixture).footprints[name]
        start = time.process_time()
        got = list(enumerate_structures(fp, bounds, dedup_isomorphic=True))
        spent = time.process_time() - start
        assert len(got) == kept
        # the pairwise loop took 165.8 s (FOL) and 4.2 s (CAT)
        assert spent < (1.0 if fixture == "fol" else 0.2)


def test_dedup_on_a_seven_element_carrier_keeps_the_pairwise_loops_structures():
    fp = Footprint("U", "set", {"mark": FinSet(("p",))})
    bounds = CarrierBounds(max_elements=7)
    got = list(enumerate_structures(fp, bounds, dedup_isomorphic=True))
    want = oracle.enumerate_isomorph_free(fp, bounds)
    assert [(s.name, s) for s in got] == [(s.name, s) for s in want]


def test_dedup_refuses_a_carrier_whose_automorphism_tables_pass_the_cap():
    fp = Footprint("U", "set", {"mark": FinSet(("p",))})
    start = time.process_time()
    with pytest.raises(EnumerationLimitError) as info:
        list(enumerate_structures(fp, CarrierBounds(max_elements=11), dedup_isomorphic=True))
    assert time.process_time() - start < 1.0
    # 8! automorphisms of the 8-element set, 256 table entries each
    assert info.value.estimate == 40320 * 256
    assert "carrier set of 8 elements takes" in str(info.value)
