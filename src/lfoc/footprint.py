"""Footprints and structures.

A footprint declares feature symbols, each with an arity object of the
footprint's kind.  A structure interprets every feature as a set of
morphisms from its arity into one shared carrier; a feature "holds" of
exactly the morphisms listed for it.

Structures are plain values: equality compares footprint, carrier, and
interpretation (names are labels for reporting only).  Validation is a
separate step so that ill-formed candidates can be constructed and then
reported on.
"""

from __future__ import annotations

import itertools
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
    hom_set,
    isomorphisms,
)

# Refuse structure enumerations beyond this many structures by default.
STRUCTURE_ENUMERATION_CAP = 500_000


@dataclass(frozen=True)
class Report:
    """Outcome of a validation pass: ok, or a list of problems."""

    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


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

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.features)

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
    """A carrier object plus one morphism set per feature.

    Missing features are filled in with the empty interpretation; the
    listed morphisms are kept as given (validate separately with
    `validate_structure`).
    """

    __slots__ = ("name", "footprint", "carrier", "interpretation", "_sets", "_hash")

    def __init__(self, name: str, footprint: Footprint, carrier: CatObject,
                 interpretation: Mapping[str, Iterable[Morphism]] | None = None):
        if carrier.kind != footprint.kind:
            raise CategoryError(
                f"carrier {carrier!r} is a {carrier.kind} but footprint "
                f"{footprint.name!r} is over {footprint.kind}s")
        interp: dict[str, tuple[Morphism, ...]] = {}
        given = dict(interpretation or {})
        unknown = sorted(set(given) - set(footprint.features))
        if unknown:
            raise CategoryError(f"interpretation mentions unknown features: {unknown}")
        for fname in footprint.features:
            interp[fname] = tuple(dict.fromkeys(given.get(fname, ())))
        self.name = name
        self.footprint = footprint
        self.carrier = carrier
        self.interpretation = interp
        self._sets = {f: frozenset(ms) for f, ms in interp.items()}
        self._hash = hash((footprint, carrier, tuple(sorted(
            (f, s) for f, s in self._sets.items()))))

    def interp(self, feature: str) -> tuple[Morphism, ...]:
        if feature not in self.interpretation:
            raise CategoryError(f"structure has no feature {feature!r}")
        return self.interpretation[feature]

    def interp_set(self, feature: str) -> frozenset:
        if feature not in self._sets:
            raise CategoryError(f"structure has no feature {feature!r}")
        return self._sets[feature]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (self.footprint == other.footprint and self.carrier == other.carrier
                and self._sets == other._sets)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        counts = ", ".join(f"{f}:{len(ms)}" for f, ms in self.interpretation.items())
        return f"Structure({self.name or '?'} on {self.carrier!r}; {counts})"


def validate_structure(structure: Structure) -> Report:
    """Check that every listed morphism really maps the feature's arity
    into the carrier."""
    problems = []
    fp = structure.footprint
    for fname in fp.features:
        arity = fp.features[fname]
        for m in structure.interp(fname):
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
    return Report(not problems, tuple(problems))


def is_structure_hom(s: Morphism, src: Structure, dst: Structure) -> bool:
    """Does the carrier morphism `s` preserve every feature?"""
    if src.footprint != dst.footprint:
        raise CategoryError("structure homomorphism check across different footprints")
    if s.dom != src.carrier or s.cod != dst.carrier:
        raise CategoryError(
            f"morphism {s!r} does not run between the carriers "
            f"{src.carrier!r} and {dst.carrier!r}")
    for fname in src.footprint.features:
        target = dst.interp_set(fname)
        for a in src.interp(fname):
            if compose(a, s) not in target:
                return False
    return True


def structures_isomorphic(a: Structure, b: Structure) -> bool:
    """Is there a carrier isomorphism matching the interpretations exactly?"""
    if a.footprint != b.footprint:
        return False
    if any(len(a.interp(f)) != len(b.interp(f)) for f in a.footprint.features):
        return False
    for iso in isomorphisms(a.carrier, b.carrier):
        if all(frozenset(compose(m, iso) for m in a.interp(f)) == b.interp_set(f)
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
    total = 0
    for carrier in enumerate_carriers(footprint.kind, bounds):
        per_carrier = 1
        for arity in footprint.features.values():
            per_carrier *= 2 ** len(hom_set(arity, carrier))
        total += per_carrier
    return total


def enumerate_structures(footprint: Footprint, bounds: CarrierBounds, *,
                         dedup_isomorphic: bool = False,
                         cap: int = STRUCTURE_ENUMERATION_CAP) -> Iterator[Structure]:
    """All structures over canonical carriers within the bounds.

    Deterministic: carriers in `enumerate_carriers` order, feature
    subsets in binary counting order over the hom-set list.  Refuses to
    start if the total would exceed `cap`.
    """
    total = count_structures(footprint, bounds)
    if total > cap:
        raise EnumerationLimitError(
            f"enumeration would yield {total} structures (cap {cap})", total)
    kept: list[Structure] = []
    index = 0
    for carrier in enumerate_carriers(footprint.kind, bounds):
        homs = {f: hom_set(arity, carrier) for f, arity in footprint.features.items()}
        feature_names = list(footprint.features)
        subset_counts = [2 ** len(homs[f]) for f in feature_names]
        for picks in itertools.product(*(range(c) for c in subset_counts)):
            interp = {}
            for fname, pick in zip(feature_names, picks):
                hs = homs[fname]
                interp[fname] = tuple(hs[i] for i in range(len(hs)) if pick >> i & 1)
            st = Structure(f"S{index}", footprint, carrier, interp)
            index += 1
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

    def __len__(self) -> int:
        return len(self._structures)

    def __repr__(self) -> str:
        return f"StructureRegistry({self.description}, {len(self)} structures)"
