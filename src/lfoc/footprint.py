"""Footprints and structures.

A footprint declares feature symbols, each with an arity object of the
footprint's kind.  A structure interprets every feature as a set of
morphisms from its arity into one shared carrier, its facts, kept as
image tuples; a feature "holds" of exactly its facts.

Structures are plain values: equality compares footprint, carrier, and
interpretation (names are labels for reporting only).  Validation is a
separate step so that ill-formed candidates can be constructed and then
reported on.

A check that mentions only some features reads a structure only through
its restriction: the carrier plus those features' facts.  Registry
checks decide each restriction once per call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .category import (
    GRAPH,
    SET,
    CatObject,
    CategoryError,
    EnumerationLimitError,
    FinGraph,
    FinSet,
    Morphism,
    compose,
    from_images,
    hom_search,
    isomorphisms,
    precompose,
)

# Refuse structure enumerations beyond this many structures by default.
STRUCTURE_ENUMERATION_CAP = 500_000


@dataclass(frozen=True)
class Verdict:
    """Whether a checked property holds, and if not, what witnesses the
    failure; a registry-relative check also names its registry."""

    holds: bool
    witness: object = None
    registry: str | None = None

    def __bool__(self) -> bool:
        return self.holds


class Footprint:
    """A named set of feature symbols with arity objects of one kind."""

    __slots__ = ("name", "kind", "features", "_hash")

    def __init__(self, name: str, kind: str, features: Mapping[str, CatObject]):
        if kind not in (SET, GRAPH):
            raise CategoryError(f"unknown kind {kind!r}")
        feats = dict(features)
        for fname, arity in feats.items():
            if not isinstance(fname, str) or not fname:
                raise CategoryError(f"feature name must be a non-empty string, got {fname!r}")
            if arity.kind != kind:
                raise CategoryError(
                    f"feature {fname!r} has a {arity.kind} arity in a {kind} footprint")
        self.name = name
        self.kind = kind
        self.features = feats
        self._hash = hash((kind, tuple(feats.items())))

    def arity(self, feature: str) -> CatObject:
        try:
            return self.features[feature]
        except KeyError:
            raise CategoryError(f"footprint {self.name!r} has no feature {feature!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Footprint):
            return NotImplemented
        return self.kind == other.kind and self.features == other.features

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Footprint({self.name}: {', '.join(self.features)})"


class Structure:
    """A carrier object plus, in `facts`, one frozenset per feature of
    the image tuples of its morphisms arity -> carrier.  A listed
    morphism from or into another object is a stray: kept aside in
    listed order for `validate_structure`, it never holds.
    """

    __slots__ = ("name", "footprint", "carrier", "facts", "_strays", "_hash")

    def __init__(self, name: str, footprint: Footprint, carrier: CatObject,
                 interpretation: Mapping[str, Iterable[Morphism]] | None = None):
        self._start(name, footprint, carrier, {})
        given = dict(interpretation or {})
        unknown = sorted(set(given) - set(footprint.features))
        if unknown:
            raise CategoryError(f"interpretation mentions unknown features: {unknown}")
        for fname, arity in footprint.features.items():
            facts, strays = set(), {}
            for m in given.get(fname, ()):
                if m.dom == arity and m.cod == carrier:
                    facts.add(m.images)
                else:
                    strays[m] = None
            self.facts[fname] = frozenset(facts)
            if strays:
                self._strays[fname] = strays

    def _start(self, name: str, footprint: Footprint, carrier: CatObject, facts: dict) -> None:
        if carrier.kind != footprint.kind:
            raise CategoryError(
                f"carrier {carrier!r} is a {carrier.kind} but footprint "
                f"{footprint.name!r} is over {footprint.kind}s")
        self.name = name
        self.footprint = footprint
        self.carrier = carrier
        self.facts = facts
        self._strays: dict[str, dict[Morphism, None]] = {}  # feature -> strays, if any
        self._hash = None

    def interp(self, feature: str) -> tuple[Morphism, ...]:
        """The feature's morphisms: its facts in hom-set order, then its
        strays."""
        facts = self.facts.get(feature)
        if facts is None:
            raise CategoryError(f"structure has no feature {feature!r}")
        arity, carrier = self.footprint.features[feature], self.carrier
        return (*[from_images(arity, carrier, b) for b in sorted(facts)],
                *self._strays.get(feature, ()))

    def _count(self, feature: str) -> int:
        return len(self.facts[feature]) + len(self._strays.get(feature, ()))

    def restriction(self, features: Iterable[str]) -> tuple:
        """The carrier and the facts of `features` (None for a feature the
        footprint lacks): all that a check mentioning only these features
        reads of the structure."""
        return (self.carrier, *map(self.facts.get, features))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (self.footprint == other.footprint and self.carrier == other.carrier
                and self.facts == other.facts and self._strays == other._strays)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.footprint, self.carrier, tuple(sorted(self.facts.items()))))
        return self._hash

    def __repr__(self) -> str:
        counts = ", ".join(f"{f}:{self._count(f)}" for f in self.facts)
        return f"Structure({self.name or '?'} on {self.carrier!r}; {counts})"


def _structure(name: str, footprint: Footprint, carrier: CatObject,
               facts: dict[str, frozenset]) -> Structure:
    """A structure with these facts and no strays, unchecked but for the
    carrier's kind: only for `facts` as a `Structure` would hold them."""
    st = object.__new__(Structure)
    st._start(name, footprint, carrier, facts)
    return st


def validate_structure(structure: Structure) -> Verdict:
    """Check that every listed morphism really maps the feature's arity
    into the carrier; the witness is the tuple of problems."""
    problems = []
    fp = structure.footprint
    for fname, strays in structure._strays.items():
        arity = fp.features[fname]
        for m in strays:
            if m.kind != fp.kind:
                problems.append(f"feature {fname!r}: morphism {m!r} has kind {m.kind}")
                continue
            if m.dom != arity:
                problems.append(
                    f"feature {fname!r}: morphism {m!r} starts at {m.dom!r}, "
                    f"expected the arity {arity!r}")
            if m.cod != structure.carrier:
                problems.append(
                    f"feature {fname!r}: morphism {m!r} ends at {m.cod!r}, "
                    f"expected the carrier {structure.carrier!r}")
    return Verdict(not problems, tuple(problems) or None)


def is_structure_hom(s: Morphism, src: Structure, dst: Structure) -> bool:
    """Does the carrier morphism `s` preserve every feature?"""
    if src.footprint != dst.footprint:
        raise CategoryError("structure homomorphism check across different footprints")
    if s.dom != src.carrier or s.cod != dst.carrier:
        raise CategoryError(
            f"morphism {s!r} does not run between the carriers "
            f"{src.carrier!r} and {dst.carrier!r}")
    for f in src.footprint.features:
        facts, strays = dst.facts[f], dst._strays.get(f, ())
        if (any(precompose(a, s.images) not in facts for a in src.facts[f])
                or any(compose(a, s) not in strays for a in src._strays.get(f, ()))):
            return False
    return True


def structures_isomorphic(a: Structure, b: Structure) -> bool:
    """Is there a carrier isomorphism matching the interpretations exactly?"""
    if a.footprint != b.footprint:
        return False
    if any(a._count(f) != b._count(f) for f in a.footprint.features):
        return False
    for iso in isomorphisms(a.carrier, b.carrier):
        # strays first: one that cannot compose raises whatever the facts
        if all({compose(m, iso) for m in a._strays.get(f, ())} == b._strays.get(f, {}).keys()
               and {precompose(t, iso.images) for t in a.facts[f]} == b.facts[f]
               for f in a.footprint.features):
            return True
    return False


# ---------------------------------------------------------------------------
# Exhaustive enumeration

@dataclass(frozen=True)
class CarrierBounds:
    """Size bounds for exhaustive carrier enumeration.

    Sets use `max_elements`; graphs use `max_vertices` and `max_edges`.
    """

    max_elements: int | None = None
    max_vertices: int | None = None
    max_edges: int | None = None

    def describe(self) -> str:
        parts = []
        if self.max_elements is not None:
            parts.append(f"max_elements={self.max_elements}")
        if self.max_vertices is not None:
            parts.append(f"max_vertices={self.max_vertices}")
        if self.max_edges is not None:
            parts.append(f"max_edges={self.max_edges}")
        return ",".join(parts)


def enumerate_carriers(kind: str, bounds: CarrierBounds) -> Iterator[CatObject]:
    """All canonical carriers of the given kind, in deterministic order.

    Sets are named x1..xn; graph vertices v1..vn and edges e1..em, with
    every assignment of endpoints enumerated.
    """
    if kind == SET:
        if bounds.max_elements is None:
            raise CategoryError("set enumeration needs max_elements")
        for n in range(bounds.max_elements + 1):
            yield FinSet(tuple(f"x{i + 1}" for i in range(n)))
        return
    if bounds.max_vertices is None or bounds.max_edges is None:
        raise CategoryError("graph enumeration needs max_vertices and max_edges")
    for nv in range(bounds.max_vertices + 1):
        vs = tuple(f"v{i + 1}" for i in range(nv))
        max_ne = bounds.max_edges if nv else 0
        for ne in range(max_ne + 1):
            for ends in itertools.product(itertools.product(vs, vs), repeat=ne):
                yield FinGraph(vs, tuple((f"e{i + 1}", s, t) for i, (s, t) in enumerate(ends)))


def count_structures(footprint: Footprint, bounds: CarrierBounds) -> int:
    """Exact number of structures `enumerate_structures` would yield
    (before isomorphism dedup)."""
    return _count_structures(footprint, bounds)


def _count_structures(footprint: Footprint, bounds: CarrierBounds,
                      cap: int | None = None) -> int:
    # per carrier 2^(sum of hom-set sizes); a set hom set has |C|^|A|
    # members, a graph hom set is searched as tuples, never as morphisms.
    # Graph carriers can be too many to walk, so with a cap the walk
    # stops once the total passes it.
    total = 0
    for carrier in enumerate_carriers(footprint.kind, bounds):
        homs = 0
        for arity in footprint.features.values():
            if footprint.kind == SET:
                homs += carrier.size ** arity.size
            else:
                homs += len(hom_search(arity, carrier))
        total += 1 << homs
        if cap is not None and total > cap and footprint.kind == GRAPH:
            break
    return total


def _count_text(n: int) -> str:
    """n in full up to 20 digits; past that its two leading digits and
    its power of ten (str() refuses ints past 4300 digits)."""
    if n < 10 ** 20:
        return str(n)
    e = int(math.log10(n))
    while 10 ** e > n:
        e -= 1
    while 10 ** (e + 1) <= n:
        e += 1
    lead = n // 10 ** (e - 1)
    return f"about {lead // 10}.{lead % 10}e{e}"


def _subsets(arity: CatObject, carrier: CatObject) -> list[frozenset]:
    """Every subset of hom(arity, carrier) as a frozenset of image tuples,
    in binary counting order over the hom-set list."""
    homs = hom_search(arity, carrier)
    return [frozenset(h for i, h in enumerate(homs) if pick >> i & 1)
            for pick in range(2 ** len(homs))]


def enumerate_structures(footprint: Footprint, bounds: CarrierBounds, *,
                         dedup_isomorphic: bool = False,
                         cap: int = STRUCTURE_ENUMERATION_CAP) -> Iterator[Structure]:
    """All structures over canonical carriers within the bounds.

    Deterministic: carriers in `enumerate_carriers` order, feature
    subsets in binary counting order over the hom-set list.  Refuses to
    start if the total would exceed `cap`; for graphs the refusal counts
    carriers only until the cap is passed and says "at least".
    """
    total = _count_structures(footprint, bounds, cap)
    if total > cap:
        at_least = "at least " if footprint.kind == GRAPH else ""
        raise EnumerationLimitError(
            f"enumeration would yield {at_least}{_count_text(total)} structures (cap {cap})",
            total)
    kept: list[Structure] = []
    names = tuple(footprint.features)
    number = 0
    for carrier in enumerate_carriers(footprint.kind, bounds):
        # built once per carrier and shared by its structures, so equal
        # restrictions hold the same frozensets
        choices = [_subsets(arity, carrier) for arity in footprint.features.values()]
        for picks in itertools.product(*choices):
            st = _structure(f"S{number}", footprint, carrier, dict(zip(names, picks)))
            number += 1
            if dedup_isomorphic:
                if any(structures_isomorphic(st, old) for old in kept):
                    continue
                kept.append(st)
            yield st


class StructureRegistry:
    """A finite, ordered collection of structures over one footprint.

    Registries give entailment, soundness, and sketch-morphism checks
    their bounded semantics; every answer derived from a registry is
    tagged with its description.
    """

    def __init__(self, structures: Sequence[Structure], description: str):
        structures = list(structures)
        if not structures:
            raise CategoryError("a registry needs at least one structure")
        fp = structures[0].footprint
        for st in structures:
            if st.footprint != fp:
                raise CategoryError("registry structures must share one footprint")
        self._structures = structures
        self.footprint = fp
        self.description = description

    @classmethod
    def explicit(cls, structures: Sequence[Structure], description: str | None = None):
        structures = list(structures)
        if description is None:
            description = f"explicit(n={len(structures)})"
        return cls(structures, description)

    @classmethod
    def exhaustive(cls, footprint: Footprint, bounds: CarrierBounds, *,
                   dedup_isomorphic: bool = False,
                   cap: int = STRUCTURE_ENUMERATION_CAP):
        structures = list(enumerate_structures(
            footprint, bounds, dedup_isomorphic=dedup_isomorphic, cap=cap))
        tag = bounds.describe() + (",iso_dedup" if dedup_isomorphic else "")
        return cls(structures, f"exhaustive({tag})")

    def __iter__(self) -> Iterator[Structure]:
        return iter(self._structures)

    def first_per_restriction(self, features: Sequence[str]) -> Iterator[Structure]:
        """The structures in order, skipping each whose restriction to
        `features` an earlier one already has: a check mentioning only
        these features gives both the same answer."""
        seen = set()
        for st in self._structures:
            key = st.restriction(features)
            if key not in seen:
                seen.add(key)
                yield st

    def __len__(self) -> int:
        return len(self._structures)

    def __repr__(self) -> str:
        return f"StructureRegistry({self.description}, {len(self)} structures)"
