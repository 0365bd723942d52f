"""Registry checks decided once per restriction, against the oracle.

A check reads a structure only through its restriction: the carrier plus
the interpretations of the features the check's expressions mention.
`entails`, `check_sketch_morphism` and `is_sound` decide each
restriction once per call, a block of restrictions at a time;
`axiom_filtered_registry` decides each block of the enumeration, laid
out over every feature, once per rule.  Verdicts, registry descriptions
and witnesses (structure name and map) must equal those of
`tests/oracle.py`, which decides every structure from scratch.
Footprints carry a `spare` feature that no constraint mentions, so
exhaustive registries repeat every restriction; explicit registries mix
carriers, list stray morphisms and repeat restrictions under other
names.
"""

from __future__ import annotations

import contextlib
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from helpers import _extend_object, random_morphism, random_structure
from lfoc.category import CategoryError, FinSet, identity, inclusion
from lfoc.cli import main
from lfoc.expr import Bot, atom, conj, features
from lfoc.fixtures import load_fixture
from lfoc.footprint import (
    CarrierBounds,
    Footprint,
    Structure,
    StructureRegistry,
    count_structures,
    enumerate_structures,
)
from lfoc.rules import SketchRule, axiom_filtered_registry, is_sound
from lfoc.sketch import Constraint, Sketch, check_sketch_morphism, entails
from test_search import _constraints, _small, _structure

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = st.sampled_from(["set", "graph"])
SETTINGS = settings(max_examples=60, deadline=None)
# exhaustive registries stay this small, so the oracle stays quick
MAX_STRUCTURES = 600


def _footprints(rng, kind):
    """The full footprint, with a `spare` feature, and the used part
    that constraints are drawn from."""
    used = {f"f{i}": _small(rng, kind, 2, f"a{i}") for i in range(rng.randint(1, 2))}
    full = Footprint("FP", kind, {**used, "spare": _small(rng, kind, 1, "s")})
    return full, Footprint("FP", kind, used)


BOUNDS = {
    "set": [CarrierBounds(max_elements=n) for n in (3, 2, 1, 0)],
    "graph": [CarrierBounds(max_vertices=v, max_edges=e)
              for v, e in ((2, 2), (2, 1), (1, 2), (1, 1), (1, 0), (0, 0))],
}


def _bounds(fp):
    """The largest bounds giving at most MAX_STRUCTURES structures."""
    return next(b for b in BOUNDS[fp.kind] if count_structures(fp, b) <= MAX_STRUCTURES)


def _explicit(rng, fp, kind):
    """Structures on mixed carriers with stray listed morphisms, and
    copies of them under new names, some with another `spare`."""
    base = [_structure(rng, fp, _small(rng, kind, 3, "c")) for _ in range(rng.randint(1, 3))]
    out = []
    for i in range(rng.randint(2, 8)):
        src = rng.choice(base)
        interp = {f: src.interp(f) for f in fp.features}
        if rng.random() < 0.5:
            interp["spare"] = random_structure(rng, fp, src.carrier).interp("spare")
        out.append(Structure(f"S{i}", fp, src.carrier, interp))
    return StructureRegistry.explicit(out)


def _registry(rng, fp, kind, exhaustive):
    if exhaustive:
        return StructureRegistry.exhaustive(fp, _bounds(fp))
    return _explicit(rng, fp, kind)


def _sketch(rng, fp, context, count):
    return Sketch("", context, _constraints(rng, fp, context, count))


def _rule(rng, used, kind, name="r"):
    # each rule mentions its own subset of the used features
    picked = rng.sample(sorted(used.features), rng.randint(1, len(used.features)))
    fp = Footprint("FP", kind, {f: used.features[f] for f in picked})
    lhs_ctx = _small(rng, kind, 2, "g")
    rhs_ctx = _extend_object(rng, lhs_ctx)
    r = random_morphism(rng, lhs_ctx, rhs_ctx) if rng.random() < 0.5 else None
    return SketchRule(name, _sketch(rng, fp, lhs_ctx, rng.randint(0, 2)),
                      _sketch(rng, fp, rhs_ctx, rng.randint(1, 2)),
                      r or inclusion(lhs_ctx, rhs_ctx))


def _same(got, want):
    """Same verdict, registry description, and witness structure (by
    name and value) and map."""
    assert bool(got) == bool(want)
    assert got.registry == want.registry
    if want.witness is None:
        assert got.witness is None
        return
    (st_got, map_got), (st_want, map_want) = got.witness, want.witness
    assert st_got.name == st_want.name
    assert st_got == st_want
    assert map_got == map_want


@SETTINGS
@given(seed=SEEDS, kind=KINDS, exhaustive=st.booleans())
def test_entails_and_sketch_morphisms_match_oracle(seed, kind, exhaustive):
    rng = random.Random(seed)
    fp, used = _footprints(rng, kind)
    registry = _registry(rng, fp, kind, exhaustive)
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


@SETTINGS
@given(seed=SEEDS, kind=KINDS, exhaustive=st.booleans())
def test_soundness_matches_oracle(seed, kind, exhaustive):
    rng = random.Random(seed)
    fp, used = _footprints(rng, kind)
    registry = _registry(rng, fp, kind, exhaustive)
    rule = _rule(rng, used, kind)
    _same(is_sound(rule, registry), oracle.is_sound(rule, registry))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_axiom_filtered_registry_matches_oracle(seed, kind):
    rng = random.Random(seed)
    fp, used = _footprints(rng, kind)
    bounds = _bounds(fp)
    rules = [_rule(rng, used, kind, f"r{i}") for i in range(rng.randint(1, 2))]
    try:
        want = oracle.axiom_filtered_registry(fp, bounds, rules)
    except CategoryError:  # no structure is conservative for every rule
        want = None
    try:
        got = axiom_filtered_registry(fp, bounds, rules)
    except CategoryError:
        got = None
    if want is None:
        assert got is None
        return
    assert got.description == want.description
    assert [(s.name, s) for s in got] == [(s.name, s) for s in want]


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_enumerated_structures_are_the_validated_ones(seed, kind):
    rng = random.Random(seed)
    fp, _ = _footprints(rng, kind)
    bounds = _bounds(fp)
    got = list(enumerate_structures(fp, bounds))
    want = oracle.enumerate_structures(fp, bounds)
    assert [s.name for s in got] == [s.name for s in want]
    for s, w in zip(got, want):
        validated = Structure(s.name, fp, s.carrier, {f: s.interp(f) for f in fp.features})
        assert s == validated == w
        assert hash(s) == hash(validated) == hash(w)
        assert repr(s) == repr(validated) == repr(w)
        assert {f: s.interp(f) for f in fp.features} == {f: w.interp(f) for f in fp.features}
        assert {f: frozenset(s.interp(f)) for f in fp.features} \
            == {f: frozenset(w.interp(f)) for f in fp.features}


def test_features_are_the_mentioned_ones_sorted():
    doc = load_fixture("fol")
    assert features(doc.exprs["sibling"]) == ("female", "male", "parent")
    assert features(doc.exprs["daughters_only"]) == ("female", "parent")
    assert features(doc.exprs["parent_pair"]) == ("parent",)


def test_a_missing_feature_errors_only_when_evaluated():
    p = FinSet(("p",))
    registry = StructureRegistry.exhaustive(Footprint("U", "set", {"mark": p}),
                                            CarrierBounds(max_elements=2))
    ident = identity(p)
    mark = [Constraint(atom("mark", ident), ident)]
    # the conjunction stops at bot before it reads the missing feature
    unread = [Constraint(conj(Bot(p), atom("absent", ident)), ident)]
    assert entails(p, unread, mark, registry).holds
    with pytest.raises(CategoryError, match="no feature 'absent'"):
        entails(p, [Constraint(atom("absent", ident), ident)], mark, registry)


def test_exhaustive_entail_leaves_the_hom_cache_untouched(tmp_path):
    # element names no other test uses, so no hom set of theirs is cached
    path = tmp_path / "fresh.lfoc"
    path.write_text(
        "base set;\n"
        "obj U { cache_probe_u };\n"
        "obj B { cache_probe_b1 cache_probe_b2 };\n"
        "footprint F { feature m : U; feature r : B; };\n"
        "expr em : U = m([cache_probe_u->cache_probe_u]);\n"
        "expr loop : U = r([cache_probe_b1->cache_probe_u; cache_probe_b2->cache_probe_u]);\n"
        "sketch M { context U; constraint em @ [cache_probe_u->cache_probe_u]; };\n"
        "sketch L { context U; constraint loop @ [cache_probe_u->cache_probe_u]; };\n",
        encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["entail", str(path), "--left", "M", "--right", "L", "--max-carrier", "2"])
    assert code == 1
