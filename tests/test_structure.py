"""Structures that keep their facts as image tuples, against the oracle.

`footprint.Structure` keeps one frozenset of image tuples per feature
and sets listed morphisms off the arity or carrier aside as strays;
`oracle.Structure` keeps every listed morphism as given.  On generated
set and graph structures, with and without strays, relisted in another
order and with repeats, moved along a renaming or with one morphism
left out, both must agree on `interp` as sets, `==`, `repr`,
`validate_structure` problems, restriction keys, and the answers or
exception types of `is_structure_hom` and `structures_isomorphic`.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings, strategies as st

import oracle
from helpers import random_morphism, restriction
from lfoc import category
from lfoc.category import FinSet, canonical_copy, compose, hom_set, identity
from lfoc.dsl import parse_document
from lfoc.footprint import (
    Footprint,
    Structure,
    is_structure_hom,
    structures_isomorphic,
    validate_structure,
)
from test_search import _footprint, _listing, _small

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = st.sampled_from(["set", "graph"])


def _variants(rng, fp, carrier, listed):
    """The listing relisted, moved along a renaming of the carrier, and
    with one morphism left out, each with its carrier."""
    relisted = {f: rng.sample(ms, len(ms)) + ms[:1] for f, ms in listed.items()}
    iso = canonical_copy(carrier)
    moved = {f: [compose(m, iso) if m.cod == carrier else m for m in ms]
             for f, ms in listed.items()}
    fewer = {f: list(ms) for f, ms in listed.items()}
    f = rng.choice(list(fp.features))
    if fewer[f]:
        del fewer[f][rng.randrange(len(fewer[f]))]
    return [(carrier, relisted), (iso.cod, moved), (carrier, fewer)]


def _outcome(check, *args):
    try:
        return check(*args)
    except Exception as exc:  # the exception type is the answer compared
        return type(exc)


def _well_formed(fp, carrier, listed):
    return {f: [m for m in ms if m.dom == fp.features[f] and m.cod == carrier]
            for f, ms in listed.items()}


@settings(max_examples=120, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_structure_matches_oracle(seed, kind):
    rng = random.Random(seed)
    fp = _footprint(rng, kind)
    cases = []
    for carrier in [_small(rng, kind, 3, "c")] * 2 + [_small(rng, kind, 3, "d")]:
        listed = _listing(rng, fp, carrier)
        cases += [(carrier, listed)] + _variants(rng, fp, carrier, listed)
    new = [Structure(f"S{i}", fp, c, ms) for i, (c, ms) in enumerate(cases)]
    old = [oracle.Structure(f"S{i}", fp, c, ms) for i, (c, ms) in enumerate(cases)]
    # the oracle over the well-formed morphisms only, for restriction keys
    bare = [oracle.Structure("", fp, c, _well_formed(fp, c, ms)) for c, ms in cases]
    # the oracle listing each feature in the order `interp` gives: facts
    # in hom-set order, then strays in listed order
    canon = [oracle.Structure(s.name, fp, s.carrier, {f: s.interp(f) for f in fp.features})
             for s in new]
    keys = [names for r in range(len(fp.features) + 1)
            for names in itertools.combinations([*fp.features, "absent"], r)]

    for s, o, c in zip(new, old, canon):
        assert {f: frozenset(s.interp(f)) for f in fp.features} \
            == {f: o.interp_set(f) for f in fp.features}
        assert c == o
        assert repr(s) == repr(o)
        assert validate_structure(s) == oracle.validate_structure(o)
    for (s, o, c, b), (t, p, d, w) in itertools.product(zip(new, old, canon, bare), repeat=2):
        assert (s == t) == (o == p)
        if s == t:
            assert hash(s) == hash(t)
        for names in keys:
            assert (restriction(s, names) == restriction(t, names)) \
                == (b.restriction(names) == w.restriction(names))
        assert _outcome(structures_isomorphic, s, t) \
            == _outcome(oracle.structures_isomorphic, c, d)
        maps = [random_morphism(rng, s.carrier, t.carrier) for _ in range(2)]
        if s.carrier == t.carrier:
            maps.append(identity(s.carrier))
        for m in maps + [random_morphism(rng, t.carrier, t.carrier)]:
            if m is not None:
                assert _outcome(is_structure_hom, m, s, t) \
                    == _outcome(oracle.is_structure_hom, m, c, d)


def _many_facts_document(reverse: bool = False) -> str:
    people = [f"p{i}" for i in range(20)]
    pairs = list(itertools.product(people, repeat=2))[:300]
    if reverse:
        pairs.reverse()
    facts = ", ".join(f"[q1->{a}; q2->{b}]" for a, b in pairs)
    return (f"base set;\nobj P2 {{ q1 q2 }};\nobj People {{ {' '.join(people)} }};\n"
            f"footprint F {{ feature likes : P2; }};\n"
            f"structure S : F {{ carrier People; likes {facts}; }};\n")


def test_parsing_facts_builds_no_morphisms(monkeypatch):
    built = []
    init = category.Morphism.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    text = _many_facts_document()
    monkeypatch.setattr(category.Morphism, "__init__", counting)
    doc = parse_document(text)
    monkeypatch.undo()
    assert len(built) < 10
    assert len(doc.structures["S"].interp("likes")) == 300


def test_interp_lists_facts_in_hom_set_order():
    parsed = parse_document(_many_facts_document(reverse=True)).structures["S"]
    arity, carrier = parsed.footprint.features["likes"], parsed.carrier
    listed = frozenset(parsed.interp("likes"))
    assert len(listed) == 300
    assert parsed.interp("likes") == tuple(m for m in hom_set(arity, carrier) if m in listed)
    p, c = FinSet(("p",)), FinSet(("x", "y", "z"))
    listed = [hom_set(p, c)[i] for i in (2, 0, 1)]
    built = Structure("S", Footprint("F", "set", {"mark": p}), c, {"mark": listed})
    assert built.interp("mark") == hom_set(p, c)
