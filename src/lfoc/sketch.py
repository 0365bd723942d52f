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
their expression, which also deduplicates constraint sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .category import (
    CatObject,
    CategoryError,
    Morphism,
    SearchIndex,
    compose,
    from_images,
    hom_search,
    hom_set,
    identity,
    isomorphisms,
    precompose,
    pushout,
)
from .expr import Atomic, Expr, _Evaluator, canonicalize, holds, solutions
from .footprint import Structure, StructureRegistry, is_structure_hom


class Constraint:
    """An expression bound into a context: (expr, binding: arity -> K)."""

    __slots__ = ("expr", "binding", "_key", "_hash")

    def __init__(self, expr: Expr, binding: Morphism):
        if binding.dom != expr.arity:
            raise CategoryError(
                f"constraint binding starts at {binding.dom!r} but the "
                f"expression arity is {expr.arity!r}")
        self.expr = expr
        self.binding = binding
        self._key = (canonicalize(expr), binding)
        self._hash = hash(self._key)

    @property
    def context(self) -> CatObject:
        return self.binding.cod

    @property
    def canonical(self) -> Expr:
        """The expression with its bound names in canonical form."""
        return self._key[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Constraint({self.expr!r} @ {self.binding!r})"

    def sort_key(self) -> str:
        return repr(self._key)


class Sketch:
    """A context object with a finite set of constraints on it."""

    __slots__ = ("name", "context", "constraints", "_hash", "_sorted")

    def __init__(self, name: str, context: CatObject, constraints: Iterable[Constraint] = ()):
        constraints = frozenset(constraints)
        for c in constraints:
            if c.context != context:
                raise CategoryError(
                    f"constraint {c!r} lives on {c.context!r}, not on the "
                    f"sketch context {context!r}")
        self.name = name
        self.context = context
        self.constraints = constraints
        self._hash = hash((context, constraints))
        self._sorted = None

    def sorted_constraints(self) -> tuple[Constraint, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.constraints, key=Constraint.sort_key))
        return self._sorted

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sketch):
            return NotImplemented
        return self.context == other.context and self.constraints == other.constraints

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Sketch({self.name or '?'} on {self.context!r}, {len(self.constraints)} constraints)"


@dataclass(frozen=True)
class Interpretation:
    """An assignment of a context into a structure's carrier."""

    map: Morphism
    structure: Structure

    def __post_init__(self):
        if self.map.cod != self.structure.carrier:
            raise CategoryError(
                f"interpretation map ends at {self.map.cod!r}, expected the "
                f"carrier {self.structure.carrier!r}")


def translate_constraint(phi: Morphism, c: Constraint) -> Constraint:
    """Move a constraint along a context morphism by post-composition."""
    if phi.dom != c.context:
        raise CategoryError(
            f"translation along {phi!r} starting at {phi.dom!r}, but the "
            f"constraint lives on {c.context!r}")
    return Constraint(c.expr, compose(c.binding, phi))


def translate_sketch(phi: Morphism, s: Sketch, name: str = "") -> Sketch:
    return Sketch(name or s.name, phi.cod,
                  (translate_constraint(phi, c) for c in s.constraints))


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


def constraint_atoms(constraints: Iterable[Constraint], ev: _Evaluator) -> list:
    """Hom-search atoms for interpretations satisfying the constraints:
    each binding with the solutions of its expression."""
    return [(c.binding.images, ev.tuples(c.expr)) for c in constraints]


def models(sketch: Sketch, structure: Structure) -> tuple[Interpretation, ...]:
    """All interpretations of the sketch context satisfying every
    constraint, in hom-set order."""
    if sketch.context.kind != structure.carrier.kind:
        raise CategoryError(
            f"sketch context {sketch.context!r} and carrier "
            f"{structure.carrier!r} have different kinds")
    ev = _Evaluator(structure)
    atoms = constraint_atoms(sketch.sorted_constraints(), ev)
    found = hom_search(sketch.context, structure.carrier, atoms, ev.index)
    return tuple(Interpretation(from_images(sketch.context, structure.carrier, a), structure)
                 for a in found)


@dataclass(frozen=True)
class EntailmentResult:
    """Registry-bounded entailment verdict, with a counterexample when it fails."""

    holds: bool
    registry: str
    counterexample: tuple[Structure, Morphism] | None = None

    def __bool__(self) -> bool:
        return self.holds


def entails(context: CatObject, premises: Iterable[Constraint],
            conclusions: Iterable[Constraint],
            registry: StructureRegistry) -> EntailmentResult:
    """Does every registry interpretation satisfying the premises also
    satisfy the conclusions?"""
    premises = list(premises)
    conclusions = list(conclusions)
    for c in premises + conclusions:
        if c.context != context:
            raise CategoryError(f"constraint {c!r} does not live on {context!r}")
    index = SearchIndex()
    for structure in registry:
        ev = _Evaluator(structure, index)
        pre = constraint_atoms(premises, ev)
        post = constraint_atoms(conclusions, ev)
        for a in hom_search(context, structure.carrier, pre, index):
            if not all(precompose(b, a) in sols for b, sols in post):
                return EntailmentResult(False, registry.description, (
                    structure, from_images(context, structure.carrier, a)))
    return EntailmentResult(True, registry.description)


def check_sketch_morphism(phi: Morphism, src: Sketch, dst: Sketch,
                          registry: StructureRegistry) -> EntailmentResult:
    """Is phi a sketch morphism, i.e. are the translated source
    constraints entailed by the target's constraints over the registry?"""
    if phi.dom != src.context or phi.cod != dst.context:
        raise CategoryError(
            f"morphism {phi!r} does not run between the contexts "
            f"{src.context!r} and {dst.context!r}")
    translated = [translate_constraint(phi, c) for c in src.sorted_constraints()]
    return entails(dst.context, dst.constraints, translated, registry)


@dataclass(frozen=True)
class SketchPushoutResult:
    sketch: Sketch
    inj_left: Morphism
    inj_right: Morphism


def sketch_pushout(f: Morphism, g: Morphism, left: Sketch, right: Sketch,
                   shared: Sketch, name: str = "") -> SketchPushoutResult:
    """Glue two sketches along a span of context morphisms.

    The result context is the pushout of (f, g); its constraints are the
    union of both translated constraint sets.
    """
    if f.dom != shared.context or g.dom != shared.context:
        raise CategoryError(
            f"span must start at the shared context {shared.context!r}")
    if f.cod != left.context or g.cod != right.context:
        raise CategoryError("span legs must end at the two sketch contexts")
    po = pushout(f, g)
    constraints = set()
    constraints.update(translate_constraint(po.inj_left, c) for c in left.constraints)
    constraints.update(translate_constraint(po.inj_right, c) for c in right.constraints)
    return SketchPushoutResult(Sketch(name, po.apex, constraints), po.inj_left, po.inj_right)


# ---------------------------------------------------------------------------
# Structures as sketches

def structure_to_sketch_min(structure: Structure, name: str = "") -> Sketch:
    """The minimal sketch presenting a structure: one atomic constraint
    per listed feature morphism."""
    constraints = []
    fp = structure.footprint
    for fname in fp.features:
        arity = fp.features[fname]
        e = Atomic(arity, fname, identity(arity))
        for a in structure.interp(fname):
            constraints.append(Constraint(e, a))
    return Sketch(name or f"min({structure.name})", structure.carrier, constraints)


def structure_to_sketch_max(structure: Structure, exprs: Iterable[Expr],
                            name: str = "") -> Sketch:
    """The maximal sketch over an explicit expression universe: every
    (expression, solution) pair becomes a constraint."""
    constraints = []
    for e in dict.fromkeys(exprs):
        for a in solutions(e, structure):
            constraints.append(Constraint(e, a))
    return Sketch(name or f"max({structure.name})", structure.carrier, constraints)


@dataclass(frozen=True)
class InitialModelResult:
    holds: bool
    registry: str
    counterexample: tuple[Structure, Morphism] | None = None

    def __bool__(self) -> bool:
        return self.holds


def check_initial_model(structure: Structure, registry: StructureRegistry) -> InitialModelResult:
    """Is the identity interpretation initial among registry models of
    the minimal sketch?

    For every model (a, V) there must be exactly one structure
    homomorphism s with identity;s = a; candidates are enumerated.
    """
    sk = structure_to_sketch_min(structure)
    ident = identity(structure.carrier)
    for other in registry:
        for m in models(sk, other):
            mediators = [s for s in hom_set(structure.carrier, other.carrier)
                         if compose(ident, s) == m.map
                         and is_structure_hom(s, structure, other)]
            if len(mediators) != 1:
                return InitialModelResult(False, registry.description, (other, m.map))
    return InitialModelResult(True, registry.description)


def sketches_isomorphic(a: Sketch, b: Sketch) -> bool:
    """Is there a context isomorphism carrying one constraint set onto
    the other?"""
    if len(a.constraints) != len(b.constraints):
        return False
    for iso in isomorphisms(a.context, b.context):
        if frozenset(translate_constraint(iso, c) for c in a.constraints) == b.constraints:
            return True
    return False
