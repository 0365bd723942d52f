from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from lfoc.category import (
    CategoryError,
    EnumerationLimitError,
    FinGraph,
    FinSet,
    compose,
    hom_set,
    morphism,
)
from lfoc.footprint import (
    CarrierBounds,
    Footprint,
    Structure,
    StructureRegistry,
    _count_text,
    count_structures,
    enumerate_carriers,
    enumerate_structures,
    is_structure_hom,
    structures_isomorphic,
    validate_structure,
)
from helpers import brute_force_homs

P1 = FinSet(("p",))
P3 = FinSet(("p1", "p2", "p3"))
FOL = Footprint("FOL", "set", {"male": P1, "parent": P3})

FAMILY = FinSet(("alice", "bob", "carol", "dave"))


def family_structure() -> Structure:
    parent = [
        morphism(P3, FAMILY, {"p1": "alice", "p2": "carol", "p3": "dave"}),
        morphism(P3, FAMILY, {"p1": "bob", "p2": "carol", "p3": "dave"}),
    ]
    male = [morphism(P1, FAMILY, {"p": "bob"}), morphism(P1, FAMILY, {"p": "dave"})]
    return Structure("family", FOL, FAMILY, {"male": male, "parent": parent})


ID_ARITY = FinGraph(("pv",), (("pe", "pv", "pv"),))
COMP_ARITY = FinGraph(
    ("pv1", "pv2", "pv3"),
    (("pe1", "pv1", "pv2"), ("pe2", "pv2", "pv3"), ("pe3", "pv1", "pv3")))
CAT = Footprint("CAT", "graph", {"comp": COMP_ARITY, "id": ID_ARITY})

ONE_LOOP = FinGraph(("c",), (("l", "c", "c"),))


def one_loop_structure() -> Structure:
    return Structure("loop", CAT, ONE_LOOP, {
        "id": [morphism(ID_ARITY, ONE_LOOP, {"pv": "c", "pe": "l"})],
        "comp": [morphism(COMP_ARITY, ONE_LOOP,
                          {"pv1": "c", "pv2": "c", "pv3": "c",
                           "pe1": "l", "pe2": "l", "pe3": "l"})],
    })


def test_footprint_rejects_wrong_kind_arity():
    with pytest.raises(CategoryError):
        Footprint("bad", "set", {"p": ID_ARITY})


def test_structure_fills_missing_features():
    st = Structure("empty", FOL, FAMILY)
    assert st.interp("male") == ()
    assert st.interp("parent") == ()
    assert validate_structure(st)


def test_equal_footprints_hash_equally_whatever_their_feature_order():
    a = Footprint("A", "set", {"male": P1, "parent": P3})
    b = Footprint("B", "set", {"parent": P3, "male": P1})
    assert a == b and hash(a) == hash(b)
    empty = {Structure("s", a, FAMILY), Structure("t", b, FAMILY)}
    assert len(empty) == 1


def test_structure_rejects_unknown_feature():
    with pytest.raises(CategoryError):
        Structure("bad", FOL, FAMILY, {"nope": []})


def test_validate_structure_reports_wrong_domain():
    # a morphism out of the wrong arity listed under `male`
    bad = morphism(P3, FAMILY, {"p1": "alice", "p2": "alice", "p3": "alice"})
    st = Structure("bad", FOL, FAMILY, {"male": [bad]})
    report = validate_structure(st)
    assert not report
    assert any("male" in p for p in report.witness)


def test_validate_structure_reports_wrong_codomain():
    other = FinSet(("zz",))
    stray = morphism(P1, other, {"p": "zz"})
    st = Structure("bad", FOL, FAMILY, {"male": [stray]})
    report = validate_structure(st)
    assert not report and any("male" in p for p in report.witness)


def test_validate_cat_loop_structure():
    st = one_loop_structure()
    assert validate_structure(st)
    # oracle: every listed morphism is found by raw enumeration
    for fname in CAT.features:
        oracle = brute_force_homs(CAT.features[fname], ONE_LOOP)
        for m in st.interp(fname):
            assert m in oracle


def test_structure_equality_ignores_name():
    assert family_structure() == Structure("other-label", FOL, FAMILY, {
        "male": list(family_structure().interp("male")),
        "parent": list(family_structure().interp("parent")),
    })


def test_is_structure_hom_identity():
    fam = family_structure()
    ident = morphism(FAMILY, FAMILY, {x: x for x in FAMILY.elements})
    assert is_structure_hom(ident, fam, fam)


def test_is_structure_hom_detects_broken_fact():
    fam = family_structure()
    # collapsing everything onto alice sends the parent tuples to
    # (alice, alice, alice), which is not listed
    collapse = morphism(FAMILY, FAMILY, {x: "alice" for x in FAMILY.elements})
    assert not is_structure_hom(collapse, fam, fam)
    # oracle: check each listed tuple by hand
    for fname in FOL.features:
        for a in fam.interp(fname):
            assert compose(a, collapse) not in frozenset(fam.interp(fname))


def test_is_structure_hom_boundary_errors():
    fam = family_structure()
    with pytest.raises(CategoryError):
        is_structure_hom(morphism(P1, FAMILY, {"p": "alice"}), fam, fam)


def test_structures_isomorphic_under_renaming():
    fam = family_structure()
    renamed_carrier = FinSet(("a2", "b2", "c2", "d2"))
    ren = {"alice": "a2", "bob": "b2", "carol": "c2", "dave": "d2"}
    iso = morphism(FAMILY, renamed_carrier, ren)
    moved = Structure("renamed", FOL, renamed_carrier, {
        f: [compose(m, iso) for m in fam.interp(f)] for f in FOL.features})
    assert structures_isomorphic(fam, moved)
    assert not structures_isomorphic(fam, Structure("empty", FOL, FAMILY))


def test_enumerate_carriers_graphs():
    got = list(enumerate_carriers("graph", CarrierBounds(max_vertices=2, max_edges=2)))
    # 1 empty + 3 on one vertex + (1 + 4 + 16) on two vertices
    assert len(got) == 25
    assert len(set(got)) == 25


def test_enumerate_structures_unary_feature():
    fp = Footprint("U", "set", {"mark": P1})
    got = list(enumerate_structures(fp, CarrierBounds(max_elements=1)))
    # oracle: sum over carrier sizes of 2^|hom|: 2^0 + 2^1
    assert len(got) == 3
    assert count_structures(fp, CarrierBounds(max_elements=1)) == 3
    assert len(set(got)) == 3
    again = list(enumerate_structures(fp, CarrierBounds(max_elements=1)))
    assert got == again


def test_enumerate_structures_respects_cap():
    fp = Footprint("B", "set", {"rel": FinSet(("q1", "q2"))})
    with pytest.raises(EnumerationLimitError) as err:
        list(enumerate_structures(fp, CarrierBounds(max_elements=3), cap=10))
    assert err.value.estimate == count_structures(fp, CarrierBounds(max_elements=3))


def test_enumerate_structures_iso_dedup():
    fp = Footprint("U", "set", {"mark": P1})
    plain = list(enumerate_structures(fp, CarrierBounds(max_elements=2)))
    deduped = list(enumerate_structures(fp, CarrierBounds(max_elements=2),
                                        dedup_isomorphic=True))
    # carriers: {} (1), {x1} (2), {x1,x2} (4 of which {x1}~{x2}) -> 6
    assert len(plain) == 7
    assert len(deduped) == 6


def test_an_exhaustive_registry_iterates_without_counting_again(monkeypatch):
    from lfoc import footprint as fpm

    fp = Footprint("G", "graph", {"loop": FinGraph(("v",), (("e", "v", "v"),))})
    bounds = CarrierBounds(max_vertices=2, max_edges=2)
    registry = StructureRegistry.exhaustive(fp, bounds)
    want = list(enumerate_structures(fp, bounds))
    searched = []
    real = fpm.hom_search
    monkeypatch.setattr(fpm, "hom_search", lambda *a: searched.append(a) or real(*a))
    got = list(registry)
    assert [(s.name, s) for s in got] == [(s.name, s) for s in want]
    # one hom search per carrier, none to count the registry again
    assert len(searched) == len(list(enumerate_carriers("graph", bounds)))


def test_registry_requires_shared_footprint():
    fam = family_structure()
    other = Structure("u", Footprint("U", "set", {"mark": P1}), FAMILY)
    with pytest.raises(CategoryError):
        StructureRegistry.explicit([fam, other])


def test_registry_descriptions():
    fp = Footprint("U", "set", {"mark": P1})
    reg = StructureRegistry.exhaustive(fp, CarrierBounds(max_elements=1))
    assert reg.description == "exhaustive(max_elements=1)"
    assert len(reg) == 3
    exp = StructureRegistry.explicit([family_structure()])
    assert exp.description == "explicit(n=1)"


def test_set_counts_follow_from_carrier_sizes():
    # an empty arity gives every carrier the same exponent, 0^0 = 1
    for arities in ([], [FinSet(())], [P1, FinSet(())], [P1, P3]):
        fp = Footprint("F", "set", {f"f{i}": a for i, a in enumerate(arities)})
        bounds = CarrierBounds(max_elements=2)
        assert count_structures(fp, bounds) == len(list(enumerate_structures(fp, bounds)))


def _leading_digits(n: int) -> str:
    digits = str(n)
    return f"about {digits[0]}.{digits[1]}e{len(digits) - 1}"


@given(st.integers(min_value=10, max_value=99), st.integers(min_value=19, max_value=4000),
       st.integers(min_value=-2, max_value=2), st.integers(min_value=0, max_value=13000))
@settings(max_examples=300, deadline=None)
def test_count_text_reads_the_leading_digits_and_the_exponent(lead, k, off, bits):
    # at a change of leading digits, and at a power of two
    for n in (lead * 10 ** k + off, (1 << bits) + off):
        if n >= 10 ** 20:
            assert _count_text(n) == _leading_digits(n)
        else:
            assert _count_text(n) == str(n)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=70),
       st.integers(min_value=0, max_value=3000))
@settings(max_examples=150, deadline=None)
def test_a_set_refusal_reads_the_count_off_its_largest_exponents(arities, n, exact_bits, cap):
    # with the exact count built only up to `exact_bits` bits, the text of
    # a refusal is the exact count's, and its estimate a lower bound past
    # the cap
    from lfoc import footprint as fpm

    fp = Footprint("F", "set", {f"f{i}": FinSet(tuple(f"a{j}" for j in range(k)))
                                for i, k in enumerate(arities)})
    bounds = CarrierBounds(max_elements=n)
    exact = count_structures(fp, bounds)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fpm, "_EXACT_BITS", exact_bits)
        if exact <= cap:
            assert len(StructureRegistry.exhaustive(fp, bounds, cap=cap)) == exact
            return
        with pytest.raises(EnumerationLimitError) as err:
            StructureRegistry.exhaustive(fp, bounds, cap=cap)
    assert str(err.value) == (f"enumeration would yield {_count_text(exact)} structures "
                              f"(cap {cap})")
    assert cap < err.value.estimate <= exact
