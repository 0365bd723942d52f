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
its restriction: the carrier plus those features' facts.  A registry
lays itself out for such a check in blocks of structures on one
carrier, each fact a mask with one bit per structure (`Block`), and an
exhaustive registry puts the first structure of each restriction in a
block once.  Laid out over every feature, these blocks are the one walk
of an exhaustive registry: `enumerate_structures` yields their
structures, keeping with `dedup_isomorphic` the bits of a mask that no
carrier automorphism lowers, and `rules.axiom_filtered_registry` keeps
the bits that no rule fails.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Iterator, Mapping, Sequence

from .category import (
    GRAPH,
    HOM_ENUMERATION_CAP,
    SET,
    CatObject,
    CategoryError,
    EnumerationLimitError,
    FinGraph,
    FinSet,
    Morphism,
    Record,
    bijection_bound,
    compose,
    hom_search,
    isomorphisms,
    precompose,
    sized,
)

# Refuse structure enumerations beyond this many structures by default.
STRUCTURE_ENUMERATION_CAP = 500_000


class Verdict(Record):
    """Whether a checked property holds, and if not, what witnesses the
    failure; a registry-relative check also names its registry."""

    __slots__ = _fields = ("holds", "witness", "registry")

    def __init__(self, holds: bool, witness: object = None, registry: str | None = None):
        self.holds, self.witness, self.registry = holds, witness, registry

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
        self._hash = hash((kind, frozenset(feats.items())))  # like ==, blind to feature order

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
    width = 1  # read as a block (see `Block`), a structure is a block of one

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
        return (*[Morphism(arity, carrier, b) for b in sorted(facts)],
                *self._strays.get(feature, ()))

    def _count(self, feature: str) -> int:
        return len(self.facts[feature]) + len(self._strays.get(feature, ()))

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
            if m.dom.kind != fp.kind:
                problems.append(f"feature {fname!r}: morphism {m!r} has kind {m.dom.kind}")
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
    """Is there a carrier isomorphism matching the interpretations exactly?

    The facts of each feature are atoms of the isomorphism search, up to
    the first feature with a stray that cannot compose: comparing strays
    in feature order raises there, whatever the facts.  The strays are
    compared afterwards; with equal counts, equal strays make the facts
    carried into b's facts all of them."""
    if a.footprint != b.footprint:
        return False
    if any(a._count(f) != b._count(f) for f in a.footprint.features):
        return False
    features = list(a.footprint.features)
    cut = next((i for i, f in enumerate(features)
                if any(m.cod != a.carrier for m in a._strays.get(f, ()))), len(features))
    atoms = [(t, b.facts[f]) for f in features[:cut] for t in a.facts[f]]
    for iso in isomorphisms(a.carrier, b.carrier, atoms):
        if all({compose(m, iso) for m in a._strays.get(f, ())} == b._strays.get(f, {}).keys()
               for f in features[:cut + 1]):
            return True
    return False


# ---------------------------------------------------------------------------
# Exhaustive enumeration

class CarrierBounds(Record):
    """Size bounds for exhaustive carrier enumeration.

    Sets use `max_elements`; graphs use `max_vertices` and `max_edges`.
    """

    __slots__ = _fields = ("max_elements", "max_vertices", "max_edges")

    def __init__(self, max_elements: int | None = None, max_vertices: int | None = None,
                 max_edges: int | None = None):
        self.max_elements, self.max_vertices = max_elements, max_vertices
        self.max_edges = max_edges

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
        for n in _set_sizes(bounds):
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


def _set_sizes(bounds: CarrierBounds) -> range:
    if bounds.max_elements is None:
        raise CategoryError("set enumeration needs max_elements")
    return range(bounds.max_elements + 1)


def count_structures(footprint: Footprint, bounds: CarrierBounds) -> int:
    """Exact number of structures `enumerate_structures` would yield
    (before isomorphism dedup)."""
    return _count_structures(footprint, bounds)


def _hom_count(arity: CatObject, carrier: CatObject) -> int:
    # a set hom set has |C|^|A| members; a graph hom set is searched as
    # tuples, never as morphisms
    if carrier.kind == SET:
        return carrier.size ** arity.size
    return len(hom_search(arity, carrier))


# A set count past the cap is built in full only up to this many bits;
# past that its refusal reads the top bits off the largest exponents.
_EXACT_BITS = 1 << 16


def _count_structures(footprint: Footprint, bounds: CarrierBounds,
                      cap: int | None = None) -> int:
    # per carrier 2^(sum of hom-set sizes).  Graph carriers can be too
    # many to walk, and a set count far past the cap too large to build,
    # so with a cap these are walked until the total passes it: a lower
    # bound
    if footprint.kind == SET:
        sizes = _set_sizes(bounds)
        if not any(a.size for a in footprint.features.values()):
            return len(sizes) << len(footprint.features)  # n^0 is 1 for every n
        if cap is None or not _far_past(footprint, sizes, cap):
            return _set_top_bits(footprint, sizes, None)[0]
        terms = (1 << _set_exponent(footprint, n) for n in sizes)
    else:
        terms = (1 << sum(_hom_count(a, carrier) for a in footprint.features.values())
                 for carrier in enumerate_carriers(GRAPH, bounds))
    total = 0
    for term in terms:
        total += term
        if cap is not None and total > cap:
            break
    return total


def _set_exponent(footprint: Footprint, n: int) -> int:
    """log2 of the number of structures on n elements: sum of n^|A|,
    increasing in n unless every arity is empty."""
    return sum(n ** a.size for a in footprint.features.values())


def _far_past(footprint: Footprint, sizes: range, cap: int) -> bool:
    """Is the set count past `cap` by its largest term alone, which has
    more than _EXACT_BITS bits?"""
    top = _set_exponent(footprint, sizes[-1]) if sizes else 0
    return top > max(_EXACT_BITS, cap.bit_length())


def _set_top_bits(footprint: Footprint, sizes: range, bits: int | None) -> tuple[int, int]:
    """The set count's top `bits` bits (all for None) and their shift:
    the terms within `bits` of the largest, the others being less than
    one unit of the shift in all, as the exponents are distinct."""
    s = 0 if bits is None else max(0, _set_exponent(footprint, sizes[-1]) + 1 - bits)
    top = 0
    for n in reversed(sizes):
        x = _set_exponent(footprint, n)
        if x < s:
            break
        top += 1 << (x - s)
    return top, s


def _checked_count(footprint: Footprint, bounds: CarrierBounds, cap: int) -> int:
    """The number of structures within the bounds, refused past `cap`."""
    total = _count_structures(footprint, bounds, cap)
    if total > cap:
        sizes = _set_sizes(bounds) if footprint.kind == SET else None
        if sizes is not None and _far_past(footprint, sizes, cap):
            text = _leading_text(lambda bits: _set_top_bits(footprint, sizes, bits))
        else:
            text = ("at least " if sizes is None else "") + _count_text(total)
        raise EnumerationLimitError(
            f"enumeration would yield {text} structures (cap {cap})", total)
    return total


def _count_text(n: int) -> str:
    """n in full up to 20 digits; past that its two leading digits and
    its power of ten (str() refuses ints past 4300 digits)."""
    def top_bits(bits: int) -> tuple[int, int]:
        s = max(0, n.bit_length() - bits)
        return n >> s, s
    return _leading_text(top_bits)


def _leading_text(top_bits) -> str:
    """`_count_text` of a count given by `top_bits(k)`: its top k bits
    and their shift s, so that the count is at least top * 2^s and below
    (top + 1) * 2^s, and exactly top * 2^s when s is 0.  The two ends
    give the text when they agree; else twice the bits are read."""
    import decimal  # here, not at module load: only a refusal needs it

    bits = 128  # past 10^20, so a shift of 0 below that
    while True:
        top, s = top_bits(bits)
        if not s and top < 10 ** 20:
            return str(top)
        # at this precision the power and the products are off by far
        # less than the slack, and the slack is far less than 2^-bits
        prec = bits * 3 // 10 + 12
        with decimal.localcontext(decimal.Context(prec=prec, Emax=decimal.MAX_EMAX)):
            scale = decimal.Decimal(2) ** s
            slack = decimal.Decimal(10) ** (10 - prec) if s else 0
            ends = {(d.adjusted(), int(d.scaleb(1 - d.adjusted())))
                    for d in (top * scale * (1 - slack), (top + bool(s)) * scale * (1 + slack))}
        if len(ends) == 1:
            (e, lead), = ends
            return f"about {lead // 10}.{lead % 10}e{e}"
        bits *= 2


def enumerate_structures(footprint: Footprint, bounds: CarrierBounds, *,
                         dedup_isomorphic: bool = False,
                         cap: int = STRUCTURE_ENUMERATION_CAP) -> Iterator[Structure]:
    """All structures over canonical carriers within the bounds.

    Deterministic: carriers in `enumerate_carriers` order, feature
    subsets in binary counting order over the hom-set list, the last
    feature varying fastest; structure k is named S<k>.  Refuses to
    start if the total would exceed `cap`; for graphs the refusal counts
    carriers only until the cap is passed and says "at least".  With
    `dedup_isomorphic` only the first structure of each isomorphism class
    is kept, under its own name.
    """
    for block, kept in _kept_blocks(footprint, bounds, dedup_isomorphic, cap):
        yield from block.structures(kept)


def _carriers(footprint: Footprint, bounds: CarrierBounds,
              features: Iterable[str]) -> Iterator[tuple]:
    """Per carrier in registry order: the carrier, the hom lists of
    `features` in footprint order, the number of its first structure and
    the step in structure number of one pick of each of them."""
    names = tuple(footprint.features)
    walked = [f for f in names if f in features]  # footprint order is registry order
    number = 0
    for carrier in enumerate_carriers(footprint.kind, bounds):
        homs = {f: list(hom_search(footprint.features[f], carrier)) for f in walked}
        sizes = [1 << (len(homs[f]) if f in homs else _hom_count(arity, carrier))
                 for f, arity in footprint.features.items()]
        steps = [math.prod(sizes[names.index(f) + 1:]) for f in walked]
        yield carrier, homs, number, steps
        number += math.prod(sizes)


def _kept_blocks(footprint: Footprint, bounds: CarrierBounds, dedup: bool,
                 cap: int = STRUCTURE_ENUMERATION_CAP) -> Iterator[tuple[Block, int]]:
    """Every structure in registry order, as blocks laid out for all
    features, each with the mask of the structures to keep: all of them
    or, with `dedup`, the first of each isomorphism class.  Refuses past
    `cap` structures as `enumerate_structures` does.

    With all features laid out, a structure's number on its carrier is
    its restriction number.  An automorphism s of the carrier maps a
    structure onto an isomorphic one on the same carrier, each fact h to
    h;s, and so permutes the bits of its number.  The dedup drops a
    structure when some automorphism lowers its number (`_least`), and
    skips each carrier isomorphic to an earlier one.
    """
    _checked_count(footprint, bounds, cap)
    carriers_seen: set = set()
    for carrier, homs, number, steps in _carriers(footprint, bounds, footprint.features):
        moves = []
        if dedup:
            key = _carrier_key(carrier)
            if key in carriers_seen:
                continue
            carriers_seen.add(key)
            moves = _moves(carrier, homs)
        for block in _carrier_blocks(footprint, carrier, homs, number, steps):
            yield block, _least(block.facts, moves, (1 << block.width) - 1)


class _Subsets(dict):
    """The subsets of a hom list as frozensets, keyed by their bit masks
    over it and built on first use."""

    __slots__ = ("homs",)

    def __init__(self, homs: list[tuple[int, ...]]):
        super().__init__({0: frozenset()})
        self.homs = homs

    def __missing__(self, mask: int) -> frozenset:
        # the subset without the lowest bit's hom, plus that hom; building
        # it first if need be recurses at most once per set bit
        low = mask & -mask
        subset = self[mask] = self[mask ^ low] | {self.homs[low.bit_length() - 1]}
        return subset


def _carrier_key(carrier: CatObject):
    """Equal for two carriers exactly when they are isomorphic: a set's
    size, or a graph's vertex count and its least sorted list of edge
    ends over all vertex permutations."""
    if carrier.kind == SET:
        return carrier.size
    pos, nv = carrier.position, len(carrier.vertices)
    ends = [(pos[carrier.src[e]], pos[carrier.tgt[e]]) for e in carrier.edges]
    return nv, min(tuple(sorted((p[s], p[t]) for s, t in ends))
                   for p in itertools.permutations(range(nv)))


def _moves(carrier: CatObject, homs: dict[str, list]) -> list[list[tuple]]:
    """How each automorphism s of the carrier that moves some fact
    permutes the bits of a structure number laid out over `homs`: the
    triples (f, h, g), from the top bit down, such that the image holds
    fact h of feature f exactly when the structure holds fact g != h.

    Refuses a carrier past HOM_ENUMERATION_CAP steps: `bijection_bound`
    automorphisms, each 2^8 steps per byte of each hom list's masks (2^r
    for a last byte of r bits).
    """
    steps = sum(1 << min(8, len(hom) - base)
                for hom in homs.values() for base in range(0, len(hom), 8))
    bound = bijection_bound(carrier) * max(steps, 1)
    if bound > HOM_ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"deduplicating carrier {sized(carrier)} takes up to {bound} automorphism "
            f"steps (cap {HOM_ENUMERATION_CAP})", bound)
    moves = []
    for s in isomorphisms(carrier, carrier):
        moved = []
        for f, hom in homs.items():
            source = {precompose(g, s.images): g for g in hom}
            moved += [(f, h, source[h]) for h in reversed(hom) if source[h] != h]
        if moved:
            moves.append(moved)
    return moves


def _least(facts: dict[str, dict[tuple, int]], moves: list[list[tuple]], full: int) -> int:
    """The mask of the structures of a block whose number no move lowers,
    each image compared with the number bit-sliced from the top bit
    down, over the structures still kept and equal so far."""
    kept = full
    for moved in moves:
        same = kept
        for f, h, g in moved:
            mine, image = facts[f].get(h, 0), facts[f].get(g, 0)
            kept &= ~(same & mine & ~image)
            same &= ~(mine ^ image)
            if not same:
                break
    return kept


class StructureRegistry:
    """A finite, ordered collection of structures over one footprint.

    Registries give entailment, soundness, and sketch-morphism checks
    their bounded semantics; every answer derived from a registry is
    tagged with its description.  An exhaustive registry keeps its
    bounds, not its structures, and builds them on demand.
    """

    def __init__(self, structures: Sequence[Structure], description: str):
        structures = list(structures)
        if not structures:
            raise CategoryError("a registry needs at least one structure")
        fp = structures[0].footprint
        for st in structures:
            if st.footprint != fp:
                raise CategoryError("registry structures must share one footprint")
        self._structures: list[Structure] | None = structures
        self._bounds: CarrierBounds | None = None  # set, in place of the list, when exhaustive
        self._count = len(structures)
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
        tag = bounds.describe() + (",iso_dedup" if dedup_isomorphic else "")
        if dedup_isomorphic:
            return cls(enumerate_structures(footprint, bounds, dedup_isomorphic=True, cap=cap),
                       f"exhaustive({tag})")
        registry = object.__new__(cls)
        registry._structures = None
        registry._bounds = bounds
        registry._count = _checked_count(footprint, bounds, cap)
        registry.footprint = footprint
        registry.description = f"exhaustive({tag})"
        return registry

    def __iter__(self) -> Iterator[Structure]:
        if self._bounds is None:
            return iter(self._structures)
        return itertools.chain.from_iterable(self.blocks(self.footprint.features))

    def blocks(self, features: Sequence[str]) -> Iterator[Block]:
        """The structures in registry order as blocks on one carrier each,
        laid out for a check that mentions only `features`.

        An exhaustive registry numbers the restrictions to `features` on
        each carrier, and a block holds the first structure of each of up
        to BLOCK_WIDTH consecutive numbers.  An explicit registry cuts its
        list into runs of structures on one carrier, up to BLOCK_WIDTH
        each, so that blocks keep registry order.
        """
        if self._bounds is not None:  # see `_carrier_blocks`
            return (block for c in _carriers(self.footprint, self._bounds, set(features))
                    for block in _carrier_blocks(self.footprint, *c))
        return _listed_blocks(self._structures, features)

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return f"StructureRegistry({self.description}, {len(self)} structures)"


# ---------------------------------------------------------------------------
# Blocks: a registry laid out for bit-parallel checks

# The most structures in one block: a mask over a block is one int of at
# most this many bits.
BLOCK_WIDTH = 1 << 12


class Block:
    """Structures on one carrier, bit j of a mask for the j-th of them.

    `facts[f][h]` is the mask of the structures that hold fact h of
    feature f, for each mentioned feature of the footprint; a fact no
    structure holds is missing.  `decode` builds the structures at the
    given positions, in their order.
    """

    __slots__ = ("footprint", "carrier", "width", "facts", "decode")

    def __init__(self, footprint: Footprint, carrier: CatObject, width: int,
                 facts: dict[str, dict[tuple, int]], decode):
        self.footprint = footprint
        self.carrier = carrier
        self.width = width
        self.facts = facts
        self.decode = decode

    def structure(self, j: int) -> Structure:
        return next(self.decode((j,)))

    def __iter__(self) -> Iterator[Structure]:
        return self.decode(range(self.width))

    def structures(self, mask: int) -> Iterator[Structure]:
        """The structures whose bits are set in `mask`, in order."""
        if mask == (1 << self.width) - 1:
            return iter(self)
        return self.decode(itertools.compress(itertools.count(),
                                              map("1".__eq__, bin(mask)[:1:-1])))


def _carrier_blocks(footprint: Footprint, carrier: CatObject, homs: dict[str, list],
                    number: int, steps: list[int]) -> Iterator[Block]:
    """Number the restrictions on a carrier by concatenating the pick
    masks of the mentioned features, the first feature highest: bit
    offset_f + i of a number is fact homs[f][i], and numbers run in
    registry order of the restrictions' first structures, those whose
    other features are empty."""
    offsets, bits = [], 0
    for hom in reversed(homs.values()):
        offsets.append(bits)
        bits += len(hom)
    offsets.reverse()
    layout = list(zip(homs, homs.values(), offsets, steps, map(_Subsets, homs.values())))
    width = min(1 << bits, BLOCK_WIDTH)
    for base in range(0, 1 << bits, width):
        facts = {f: {h: m for i, h in enumerate(hom)
                     if (m := _bit_pattern(offset + i, base, width))}
                 for f, hom, offset, *_ in layout}
        yield Block(footprint, carrier, width, facts, functools.partial(
            _decode, footprint, carrier, number, layout, base, width))


def _decode(footprint: Footprint, carrier: CatObject, number: int, layout: list[tuple],
            base: int, width: int, js: Iterable[int]) -> Iterator[Structure]:
    """The structures at positions js of a block, in order: j the first
    structure of restriction base + j on the carrier.  With every feature
    laid out, that is structure number + base + j, and a whole block runs
    its picks as a product of ranges, a pick's bits above the width being
    base's."""
    every = len(layout) == len(footprint.features)
    if every and js == range(width):
        low = width.bit_length() - 1
        spans = [range(p := base >> offset & (1 << len(hom)) - 1,
                       p + (1 << max(0, min(low - offset, len(hom)))))
                 for _, hom, offset, _, _ in layout]
        names = [f for f, *_ in layout]
        subsets = [subset for *_, subset in layout]
        for n, picks in enumerate(itertools.product(*spans), number + base):
            facts = dict(zip(names, map(dict.__getitem__, subsets, picks)))
            yield _structure(f"S{n}", footprint, carrier, facts)
        return
    for j in js:
        r = base + j
        facts = {f: subset[r >> offset & (1 << len(hom)) - 1]
                 for f, hom, offset, _, subset in layout}
        if not every:
            facts = {**dict.fromkeys(footprint.features, frozenset()), **facts}
            r = sum((r >> offset & (1 << len(hom)) - 1) * step
                    for _, hom, offset, step, _ in layout)
        yield _structure(f"S{number + r}", footprint, carrier, facts)


def _bit_pattern(k: int, base: int, width: int) -> int:
    """The mask over numbers base .. base+width-1 of those with bit k set;
    base is a multiple of width, a power of two."""
    if 1 << k >= width:
        return (1 << width) - 1 if base >> k & 1 else 0
    half = 1 << k
    # the upper half of every period of 2*half bits
    return ((1 << half) - 1 << half) * (((1 << width) - 1) // ((1 << 2 * half) - 1))


def _listed_blocks(structures: list[Structure], features: Iterable[str]) -> Iterator[Block]:
    fp = structures[0].footprint
    features = [f for f in features if f in fp.features]
    for carrier, run in itertools.groupby(structures, operator.attrgetter("carrier")):
        run = list(run)
        for start in range(0, len(run), BLOCK_WIDTH):
            part = run[start:start + BLOCK_WIDTH]
            facts = {}
            for f in features:
                masks = facts[f] = {}
                for j, st in enumerate(part):
                    for h in st.facts[f]:
                        masks[h] = masks.get(h, 0) | 1 << j
            yield Block(fp, carrier, len(part), facts, functools.partial(map, part.__getitem__))
