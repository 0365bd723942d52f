"""Sketches: contexts carrying constraints, and their interpretations.

A constraint pairs a feature expression with a binding of its arity
into some context K.  A sketch is a context together with a finite
constraint set; an interpretation of K in a structure U is a morphism
a: K -> carrier(U).  The interpretation satisfies a constraint when the
composite binding;a solves the expression.

Constraint translation along a context morphism phi post-composes the
binding; taking reducts of interpretations pre-composes.  These two
functors interact so that satisfaction is invariant:

    reduct(phi, i) satisfies c   iff   i satisfies translate(phi, c)

`check_satisfaction_condition` evaluates both sides independently.

Constraints compare equal up to canonical renaming of bound names in
their expression.  A sketch stores its constraint set as relations
keyed by canonical expression (`Sketch.relations`): searches read them,
rewriting re-indexes their binding tuples, and `Constraint` objects
are built only to print.

Satisfaction is read off the one evaluator (`expr._Evaluator`): the
relations' masks are the atoms of a holding search over the context
(`satisfying`), whose result maps each interpretation to the
structures it satisfies them in.  `models` runs it over one structure.
The factoring search (`unextended`) finds a rule's lhs models that
extend to no rhs model; `rules` runs it over a structure or a host
sketch, and `registry_verdict` over each block of a registry.
`entails` and `check_sketch_morphism` are soundness of the rule along
the identity of a context.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, Iterator

from .category import (
    CatObject,
    CategoryError,
    Morphism,
    PushoutResult,
    Record,
    compose,
    identity,
    isomorphisms,
    precompose,
    pushout,
)
from .expr import (
    Atomic,
    Expr,
    _along,
    _Evaluator,
    canonicalize,
    features,
    holds,
    solutions,
)
from .footprint import Structure, StructureRegistry, Verdict, is_structure_hom


class Constraint:
    """An expression bound into a context: (expr, binding: arity -> K).

    Its identity, the canonical expression with the binding, is computed
    on first `hash` or `==`: a parsed document's constraints
    are mostly never compared.
    """

    __slots__ = ("expr", "binding", "_key", "_hash")

    def __init__(self, expr: Expr, binding: Morphism):
        if binding.dom != expr.arity:
            raise CategoryError(
                f"constraint binding starts at {binding.dom!r} but the "
                f"expression arity is {expr.arity!r}")
        self.expr = expr
        self.binding = binding
        self._key = None
        self._hash = None

    def _identity(self) -> tuple:
        key = self._key
        if key is None:
            key = self._key = (canonicalize(self.expr), self.binding)
            self._hash = hash(key)
        return key

    @property
    def context(self) -> CatObject:
        return self.binding.cod

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        if self._hash is None:
            self._identity()
        return self._hash

    def __repr__(self) -> str:
        return f"Constraint({self.expr!r} @ {self.binding!r})"

    def sort_key(self) -> str:
        return repr(self._identity())


class Sketch:
    """A context object with a finite set of constraints on it, stored as
    `relations`: {canonical expression: {binding image tuple: the
    expression that prints the constraint}}.

    The relations are built on first use, so that a sketch no command
    reads never canonicalizes its constraints; of equal constraints the
    first given is kept.  Their contexts are checked at once.
    `constraints` and `sorted_constraints` build `Constraint` objects.
    """

    __slots__ = ("name", "context", "_given", "_relations", "_sorted")

    def __init__(self, name: str, context: CatObject, constraints: Iterable[Constraint] = ()):
        constraints = tuple(constraints)
        for c in constraints:
            if c.context != context:
                raise CategoryError(
                    f"constraint {c!r} lives on {c.context!r}, not on the "
                    f"sketch context {context!r}")
        self.name = name
        self.context = context
        self._given = constraints
        self._relations = None
        self._sorted = None

    @classmethod
    def _of(cls, name: str, context: CatObject, relations: dict) -> Sketch:
        """The sketch whose relations these are, taken over as they are."""
        sk = cls(name, context)
        sk._relations = relations
        return sk

    @property
    def relations(self) -> dict:
        if self._relations is None:
            self._relations = _relations(self._given)
            self._given = None
        return self._relations

    @property
    def constraints(self) -> frozenset[Constraint]:
        return frozenset(self.sorted_constraints())

    def sorted_constraints(self) -> tuple[Constraint, ...]:
        if self._sorted is None:
            built = [Constraint(e, Morphism(e.arity, self.context, b))
                     for rows in self.relations.values() for b, e in rows.items()]
            self._sorted = tuple(sorted(built, key=Constraint.sort_key))
        return self._sorted

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sketch):
            return NotImplemented
        return self.context == other.context and _pairs(self.relations) == _pairs(other.relations)

    def __hash__(self) -> int:
        return hash((self.context, _pairs(self.relations)))

    def __repr__(self) -> str:
        count = sum(map(len, self.relations.values()))
        return f"Sketch({self.name or '?'} on {self.context!r}, {count} constraints)"


class Interpretation(Record):
    """An assignment of a context into a structure's carrier."""

    __slots__ = _fields = ("map", "structure")

    def __init__(self, map: Morphism, structure: Structure):
        if map.cod != structure.carrier:
            raise CategoryError(
                f"interpretation map ends at {map.cod!r}, expected the "
                f"carrier {structure.carrier!r}")
        self.map, self.structure = map, structure


def translate_constraint(phi: Morphism, c: Constraint) -> Constraint:
    """Move a constraint along a context morphism by post-composition."""
    if phi.dom != c.context:
        raise CategoryError(
            f"translation along {phi!r} starting at {phi.dom!r}, but the "
            f"constraint lives on {c.context!r}")
    return Constraint(c.expr, compose(c.binding, phi))


def reduct(phi: Morphism, i: Interpretation) -> Interpretation:
    """Restrict an interpretation along a context morphism by pre-composition."""
    return Interpretation(compose(phi, i.map), i.structure)


def satisfies(i: Interpretation, c: Constraint) -> bool:
    return holds(compose(c.binding, i.map), c.expr, i.structure)


def check_satisfaction_condition(phi: Morphism, c: Constraint, i: Interpretation) -> bool:
    """Evaluate both sides of the invariance law independently and compare."""
    lhs = satisfies(reduct(phi, i), c)
    rhs = satisfies(i, translate_constraint(phi, c))
    return lhs == rhs


def satisfied(ev: _Evaluator, relations: dict) -> list:
    """Hom-search atoms for interpretations satisfying the relations:
    each tuple with the masks of its row's expression, in order."""
    return [(b, ev.masks(e)) for rows in relations.values() for b, e in rows.items()]


def satisfying(ev: _Evaluator, sketch: Sketch) -> dict:
    """Per interpretation of the sketch context in the carrier, in hom-set
    order, the mask of the structures where it satisfies every
    constraint, leaving out mask 0: the holding search over the
    constraints' masks."""
    return ev.holding(sketch.context, satisfied(ev, sketch.relations))


def unextended(ev: _Evaluator, lhs: dict, rhs: dict,
               r: Morphism) -> Iterator[tuple[tuple[int, ...], int]]:
    """Per model a of `lhs` on the domain of r, in hom-set order, the
    mask of the structures where no model b of `rhs` has r;b = a,
    leaving out 0.  The rhs is searched only once an lhs model exists;
    where r reaches every name, as an identity does, the lhs models are
    one more of its atoms, so it looks only at their extensions and
    lists no hom set (an atom binding fewer names would only filter)."""
    modelled = ev.holding(r.dom, satisfied(ev, lhs))
    if modelled:
        t = r.images
        atoms = satisfied(ev, rhs)
        if len(set(t)) == r.cod.size:
            atoms.append((t, modelled))
        factored = _along(t, ev.holding(r.cod, atoms))
        for a, m in modelled.items():
            if f := m & ~factored.get(a, 0):
                yield a, f


def models(sketch: Sketch, structure: Structure) -> tuple[Interpretation, ...]:
    """All interpretations of the sketch context satisfying every
    constraint, in hom-set order."""
    if sketch.context.kind != structure.carrier.kind:
        raise CategoryError(
            f"sketch context {sketch.context!r} and carrier "
            f"{structure.carrier!r} have different kinds")
    found = satisfying(_Evaluator(structure), sketch)
    return tuple(Interpretation(Morphism(sketch.context, structure.carrier, a), structure)
                 for a in found)


def entails(context: CatObject, premises: Iterable[Constraint],
            conclusions: Iterable[Constraint],
            registry: StructureRegistry) -> Verdict:
    """Does every registry interpretation satisfying the premises also
    satisfy the conclusions?  The witness is a (structure, map) that
    satisfies the premises but not the conclusions: the first such
    structure in registry order, and its first such map in hom-set order.

    This is soundness of the rule (K, premises) =id=> (K, conclusions)
    over the registry (`registry_verdict`), so the conclusions are
    evaluated only in blocks where the premises have a model.
    """
    premises, conclusions = tuple(premises), tuple(conclusions)
    for c in premises + conclusions:
        if c.context != context:
            raise CategoryError(f"constraint {c!r} does not live on {context!r}")
    return registry_verdict(registry, _relations(premises), _relations(conclusions),
                            identity(context))


def registry_verdict(registry: StructureRegistry, lhs: dict, rhs: dict,
                     r: Morphism) -> Verdict:
    """Is the rule lhs =r=> rhs, given as relations, sound over the
    registry?  It is decided one block at a time, laid out for the
    features the constraints mention, by the factoring search.  The
    witness is the first (structure, lhs model) that does not extend:
    the structure of the lowest bit set in any mask `unextended` gives,
    in registry order, and its first such model in hom-set order."""
    mentioned = sorted({f for e in (*lhs, *rhs) for f in features(e)})
    for block in registry.blocks(mentioned):
        found = dict(unextended(_Evaluator(block), lhs, rhs, r))
        if found:
            low = reduce(or_, found.values())
            low &= -low
            a = next(a for a, m in found.items() if m & low)
            witness = (block.structure(low.bit_length() - 1),
                       Morphism(r.dom, block.carrier, a))
            return Verdict(False, witness, registry.description)
    return Verdict(True, registry=registry.description)


def check_sketch_morphism(phi: Morphism, src: Sketch, dst: Sketch,
                          registry: StructureRegistry) -> Verdict:
    """Is phi a sketch morphism, i.e. are the translated source
    constraints entailed by the target's constraints over the registry?
    That is soundness of the rule from the target sketch, along the
    identity, to the source relations translated along phi."""
    if phi.dom != src.context or phi.cod != dst.context:
        raise CategoryError(
            f"morphism {phi!r} does not run between the contexts "
            f"{src.context!r} and {dst.context!r}")
    return registry_verdict(registry, dst.relations, _translated(src.relations, phi.images),
                            identity(dst.context))


class SketchPushoutResult(Record):
    __slots__ = _fields = ("sketch", "inj_left", "inj_right")

    def __init__(self, sketch: Sketch, inj_left: Morphism, inj_right: Morphism):
        self.sketch, self.inj_left, self.inj_right = sketch, inj_left, inj_right


def sketch_pushout(f: Morphism, g: Morphism, left: Sketch, right: Sketch,
                   shared: Sketch, name: str = "") -> SketchPushoutResult:
    """Glue two sketches along a span of context morphisms.

    The result context is the pushout of (f, g); its constraints are the
    union of both sketches' relations translated into the apex
    (`_pushout_relations`), the left sketch's expression kept where the
    two groups agree.
    """
    if f.dom != shared.context or g.dom != shared.context:
        raise CategoryError(
            f"span must start at the shared context {shared.context!r}")
    if f.cod != left.context or g.cod != right.context:
        raise CategoryError("span legs must end at the two sketch contexts")
    po = pushout(f, g)
    found = _pushout_relations(po, left.relations, right.relations)
    return SketchPushoutResult(Sketch._of(name, po.apex, found), po.inj_left, po.inj_right)


# ---------------------------------------------------------------------------
# Relations
#
# Equal constraints can differ in their expressions' bound names, which
# shows in print, so a union keeps an earlier group's expression, and
# within a group the one with the smaller repr.

def _relations(constraints: Iterable[Constraint]) -> dict:
    """Constraints as relations, the first of equal ones kept."""
    out: dict = {}
    for c in constraints:
        out.setdefault(canonicalize(c.expr), {}).setdefault(c.binding.images, c.expr)
    return out


def _pairs(relations: dict) -> frozenset:
    """The (canonical expression, binding tuple) pairs the relations hold:
    the identity of their constraint set."""
    return frozenset((k, b) for k, rows in relations.items() for b in rows)


def _translated(relations: dict, t: tuple[int, ...]) -> dict:
    """The relations translated along a context morphism with images t:
    one group, so of tuples that t sends to one, the expression with the
    smaller repr is kept."""
    out = {}
    for canonical, rows in relations.items():
        moved = {precompose(b, t): e for b, e in rows.items()}
        if len(moved) < len(rows):  # equal constraints within the group
            moved = {}
            for b, e in rows.items():
                b = precompose(b, t)
                other = moved.setdefault(b, e)
                if other is not e and repr(e) < repr(other):
                    moved[b] = e
        out[canonical] = moved
    return out


def _merge(kept: dict, group: dict, group_first: bool) -> None:
    """Add a group of relations to `kept`, in place, taking over the
    group's rows.  A constraint in both keeps the earlier group's
    expression: the group's when `group_first`, else the kept one."""
    for canonical, rows in group.items():
        have = kept.get(canonical)
        if have is None:
            kept[canonical] = rows
        elif group_first:
            have.update(rows)
        else:
            for b, e in rows.items():
                have.setdefault(b, e)


def _pushout_relations(po: PushoutResult, left: dict, right: dict) -> dict:
    """The constraints of a sketch pushout: both sides' relations
    translated into the apex, the left side's group first."""
    out = _translated(right, po.inj_right.images)
    _merge(out, _translated(left, po.inj_left.images), True)
    return out


# ---------------------------------------------------------------------------
# Structures as sketches

def structure_to_sketch_min(structure: Structure, name: str = "") -> Sketch:
    """The minimal sketch presenting a structure: one atomic constraint
    per listed feature morphism, so its relations are the facts.  A
    stray is refused as the constraint it would be."""
    name, relations, strays = name or f"min({structure.name})", {}, []
    for fname, arity in structure.footprint.features.items():
        e = Atomic(arity, fname, identity(arity))
        strays += [Constraint(e, a) for a in structure._strays.get(fname, ())]
        if facts := structure.facts[fname]:
            relations[e] = dict.fromkeys(facts, e)
    Sketch(name, structure.carrier, strays)
    return Sketch._of(name, structure.carrier, relations)


def structure_to_sketch_max(structure: Structure, exprs: Iterable[Expr],
                            name: str = "") -> Sketch:
    """The maximal sketch over an explicit expression universe: every
    (expression, solution) pair becomes a constraint."""
    constraints = []
    for e in dict.fromkeys(exprs):
        for a in solutions(e, structure):
            constraints.append(Constraint(e, a))
    return Sketch(name or f"max({structure.name})", structure.carrier, constraints)


def check_initial_model(structure: Structure, registry: StructureRegistry) -> Verdict:
    """Is the identity interpretation initial among registry models of
    the minimal sketch?  The witness is a (structure, map) model that is
    no structure homomorphism.

    For every model (a, V) there must be exactly one structure
    homomorphism s with identity;s = a.  Only s = a itself satisfies the
    equation, so the check is whether a is a structure homomorphism.
    """
    sk = structure_to_sketch_min(structure)
    for other in registry:
        for m in models(sk, other):
            if not is_structure_hom(m.map, structure, other):
                return Verdict(False, (other, m.map), registry.description)
    return Verdict(True, registry=registry.description)


def sketches_isomorphic(a: Sketch, b: Sketch) -> bool:
    """Is there a context isomorphism carrying one constraint set onto
    the other?  Each (canonical expression, tuple) of a is an atom over
    b's tuples of that expression, so an isomorphism carries a's
    constraints into b's, and with equal counts onto them."""
    want = b.relations
    if len(_pairs(a.relations)) != len(_pairs(want)):
        return False
    # the key view: a dict relation would be read as masks
    atoms = [(t, want.get(canonical, {}).keys())
             for canonical, rows in a.relations.items() for t in rows]
    return bool(isomorphisms(a.context, b.context, atoms))
