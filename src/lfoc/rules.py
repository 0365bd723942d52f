"""Sketch rules: matching, application, saturation, and soundness.

A rule L =r=> R rewrites sketches.  A match of a pattern sketch G in a
host K is a context morphism under which every translated pattern
constraint is already present in K; matches are plain morphisms.
Applying a rule at a match pushes the rule morphism out against the
match and unions the translated host and right-hand constraints; when
the rule morphism is an identity the context is unchanged and
constraints are only added.  Either way the binding tuples of the
sketches' relations (`Sketch.relations`) move, not constraints.

A structure is *conservative* for a rule when every left-hand model
extends along the rule morphism to a right-hand model; a rule is
*sound* over a registry when all its structures are conservative.  A
sketch is *closed* under a rule when every left-hand match factors
through a right-hand match.  The two are one property, and one search:
the factoring search `sketch.unextended`.  Conservativity runs it over
the evaluator of a structure, and soundness (`sketch.registry_verdict`)
over each block of a registry, so its masks name the structures too.
Matching, closedness and saturation run the holding search
(`sketch.satisfying`) and the factoring search over a host sketch read
as a structure of width 1 on its context (`_Host`): a match is a model
of the pattern there, and saturation applies a rule at the first
unfactored match.  These checks return a `Verdict` whose witness, when
the property fails, is the left-hand model or match that does not
extend or factor.  Conservativity of a structure and closedness of its
maximal sketch over the rule's expressions agree; `check_equivalence`
computes both sides.
"""

from __future__ import annotations

from typing import Literal, Sequence

from .category import (
    CatObject,
    CategoryError,
    FinSet,
    Morphism,
    PushoutResult,
    Record,
    identity,
    precompose,
    pushout,
)
from .expr import And, CondExists, Expr, _Evaluator, canonicalize
from .footprint import (
    CarrierBounds,
    Footprint,
    Structure,
    StructureRegistry,
    Verdict,
    _kept_blocks,
)
from .sketch import (
    Constraint,
    Sketch,
    _merge,
    _pushout_relations,
    _translated,
    registry_verdict,
    satisfying,
    structure_to_sketch_max,
    unextended,
)


class MatchError(ValueError):
    """A morphism offered as a match fails the match condition."""


class SketchRule(Record):
    """A span-free rewrite rule: lhs sketch, rhs sketch, and a context
    morphism r from the lhs context into the rhs context."""

    __slots__ = _fields = ("name", "lhs", "rhs", "morphism")

    def __init__(self, name: str, lhs: Sketch, rhs: Sketch, morphism: Morphism):
        if morphism.dom != lhs.context:
            raise CategoryError(
                f"rule morphism starts at {morphism.dom!r}, expected the "
                f"lhs context {lhs.context!r}")
        if morphism.cod != rhs.context:
            raise CategoryError(
                f"rule morphism ends at {morphism.cod!r}, expected the "
                f"rhs context {rhs.context!r}")
        self.name, self.lhs, self.rhs, self.morphism = name, lhs, rhs, morphism


def is_match(phi: Morphism, pattern: Sketch, host: Sketch) -> bool:
    if phi.dom != pattern.context or phi.cod != host.context:
        raise CategoryError(
            f"candidate {phi!r} does not run between the contexts "
            f"{pattern.context!r} and {host.context!r}")
    t, held = phi.images, host.relations
    return all(canonical in held and precompose(b, t) in held[canonical]
               for canonical, rows in pattern.relations.items() for b in rows)


def find_matches(pattern: Sketch, host: Sketch) -> tuple[Morphism, ...]:
    """All matches of the pattern in the host, in hom-set order."""
    found = satisfying(_Host(host.context, host.relations), pattern)
    return tuple(Morphism(pattern.context, host.context, m) for m in found)


class _Host(_Evaluator):
    """A host sketch read as a structure of width 1 on its context: an
    expression holds of the tuples of its canonical form's relation.  A
    pattern constraint lands on such a tuple exactly when it is
    translated onto a host constraint, so the holding search of the
    pattern over the host finds its matches.  Nothing is evaluated."""

    def __init__(self, context: CatObject, relations: dict):
        self.carrier, self.full = context, 1
        self.relations = relations

    def masks(self, e: Expr):
        # the tuples as a set of facts, which `holding` gives mask 1
        rows = self.relations.get(canonicalize(e))
        return {} if rows is None else rows.keys()


# ---------------------------------------------------------------------------
# Conservativity and soundness

def is_conservative(structure: Structure, rule: SketchRule) -> Verdict:
    """Does every lhs model of the structure extend along the rule
    morphism to an rhs model?  The witness is an lhs model that does not."""
    return _first_unextended(_Evaluator(structure), rule)


def is_sound(rule: SketchRule, registry: StructureRegistry) -> Verdict:
    """Is every registry structure conservative for the rule?

    The witness is a (structure, lhs model) pair that does not extend:
    the first such structure in registry order and its first such model
    in hom-set order.  The registry is decided one block of structures at
    a time, each restriction to the rule's features once.
    """
    return registry_verdict(registry, rule.lhs.relations, rule.rhs.relations, rule.morphism)


def _first_unextended(ev: _Evaluator, rule: SketchRule) -> Verdict:
    """Does every lhs model of a structure of width 1 extend?  The
    witness is the first that does not."""
    for a, _ in unextended(ev, rule.lhs.relations, rule.rhs.relations, rule.morphism):
        return Verdict(False, Morphism(rule.lhs.context, ev.carrier, a))
    return Verdict(True)


# ---------------------------------------------------------------------------
# Closedness and application

def is_closed(host: Sketch, rule: SketchRule) -> Verdict:
    """Does every lhs match factor through an rhs match along the rule
    morphism?  The witness is an lhs match that does not."""
    return _first_unextended(_Host(host.context, host.relations), rule)


class AppliedRule(Record):
    """Result of one rule application: the rewritten sketch plus the
    pushout injections of the host context and the rhs context."""

    __slots__ = _fields = ("sketch", "host_injection", "rhs_injection")

    def __init__(self, sketch: Sketch, host_injection: Morphism, rhs_injection: Morphism):
        self.sketch = sketch
        self.host_injection, self.rhs_injection = host_injection, rhs_injection


def apply_rule(host: Sketch, rule: SketchRule, m: Morphism, name: str = "") -> AppliedRule:
    """Rewrite the host at a match.

    The new context is the pushout of the rule morphism against the
    match; constraints are the translated host constraints together with
    the translated rhs constraints, the rhs group first.  When the rule
    morphism is an identity the context and its names stay, and the rhs
    constraints translated along the match join the host's, which come
    first.  A non-match is rejected.
    """
    if not is_match(m, rule.lhs, host):
        raise MatchError(f"{m!r} is not a match of {rule.lhs!r} in {host!r}")
    po = _glued(rule, host.context, m.images)
    found = _rewritten(_copy(host.relations), rule.rhs.relations, m.images, po)
    context, into, rhs_into = ((host.context, identity(host.context), m) if po is None
                               else (po.apex, po.inj_right, po.inj_left))
    return AppliedRule(Sketch._of(name or host.name, context, found), into, rhs_into)


def _glued(rule: SketchRule, context: CatObject, a: tuple[int, ...]) -> PushoutResult | None:
    """The pushout of the rule morphism against the match a into the
    context, or None when the rule morphism is an identity."""
    if rule.morphism == identity(rule.lhs.context):
        return None
    return pushout(rule.morphism, Morphism(rule.lhs.context, context, a))


def _copy(relations: dict) -> dict:
    return {canonical: rows.copy() for canonical, rows in relations.items()}


def _rewritten(host: dict, rhs: dict, a: tuple[int, ...], po: PushoutResult | None) -> dict:
    """The host's relations after applying the rule at the match a:
    along an identity rule, the rhs translated along a join the host's
    in place; otherwise both go into the pushout apex, rhs first."""
    if po is None:
        _merge(host, _translated(rhs, a), False)
        return host
    return _pushout_relations(po, rhs, host)


# ---------------------------------------------------------------------------
# Saturation

class SaturationLimits(Record):
    """Budgets for saturation: a step count plus context-size bounds
    (elements for sets; vertices and edges for graphs)."""

    __slots__ = _fields = ("max_steps", "max_elements", "max_vertices", "max_edges")

    def __init__(self, max_steps: int, max_elements: int | None = None,
                 max_vertices: int | None = None, max_edges: int | None = None):
        self.max_steps, self.max_elements = max_steps, max_elements
        self.max_vertices, self.max_edges = max_vertices, max_edges

    def admits(self, context: CatObject) -> bool:
        if isinstance(context, FinSet):
            return self.max_elements is None or len(context.elements) <= self.max_elements
        return ((self.max_vertices is None or len(context.vertices) <= self.max_vertices)
                and (self.max_edges is None or len(context.edges) <= self.max_edges))


SaturationStatus = Literal["closed", "budget-exhausted"]
CLOSED: SaturationStatus = "closed"
BUDGET_EXHAUSTED: SaturationStatus = "budget-exhausted"


class SaturationResult(Record):
    __slots__ = _fields = ("sketch", "status", "steps")

    def __init__(self, sketch: Sketch, status: SaturationStatus, steps: int):
        self.sketch, self.status, self.steps = sketch, status, steps


def saturate(host: Sketch, rules: Sequence[SketchRule],
             limits: SaturationLimits) -> SaturationResult:
    """Apply rules at non-closed matches until closed or out of budget.

    Scheduling is fair and deterministic: each sweep visits the rules in
    declared order and their matches in canonical hom-set order, and
    restarts after every application.  Each step rewrites one copy of
    the host's relations as `apply_rule` does.  Constraint-set
    deduplication prevents re-adding; an application whose context would
    exceed a context-size budget is refused before anything is
    translated, and not committed.
    """
    steps, status = 0, BUDGET_EXHAUSTED
    context, found = host.context, _copy(host.relations)
    while True:
        ev = _Host(context, found)
        first = next(((i, a) for i, rule in enumerate(rules) for a, _ in unextended(
            ev, rule.lhs.relations, rule.rhs.relations, rule.morphism)), None)
        if first is None:
            status = CLOSED
            break
        if steps >= limits.max_steps:
            break
        i, a = first
        po = _glued(rules[i], context, a)
        apex = context if po is None else po.apex
        if not limits.admits(apex):
            break
        found, context = _rewritten(found, rules[i].rhs.relations, a, po), apex
        steps += 1
    if steps:
        host = Sketch._of(host.name, context, found)
    return SaturationResult(host, status, steps)


# ---------------------------------------------------------------------------
# Universal rules

def unfold_conjunction_rule(e: Expr, name: str = "") -> SketchRule:
    """(X, {e1 and e2 @ id})  =id=>  (X, {e1 @ id, e2 @ id})."""
    if not isinstance(e, And):
        raise CategoryError(f"conjunction unfold needs a conjunction, got {e!r}")
    ident = identity(e.arity)
    lhs = Sketch("", e.arity, [Constraint(e, ident)])
    rhs = Sketch("", e.arity, [Constraint(e.left, ident), Constraint(e.right, ident)])
    return SketchRule(name or "unfold-conjunction", lhs, rhs, ident)


def fold_conjunction_rule(e: Expr, name: str = "") -> SketchRule:
    """(X, {e1 @ id, e2 @ id})  =id=>  (X, {e1 and e2 @ id})."""
    if not isinstance(e, And):
        raise CategoryError(f"conjunction fold needs a conjunction, got {e!r}")
    ident = identity(e.arity)
    lhs = Sketch("", e.arity, [Constraint(e.left, ident), Constraint(e.right, ident)])
    rhs = Sketch("", e.arity, [Constraint(e, ident)])
    return SketchRule(name or "fold-conjunction", lhs, rhs, ident)


def modus_ponens_rule(e: Expr, name: str = "") -> SketchRule:
    """(X, {premise @ id, e @ id})  =t=>  (Y, {body @ id}) for a
    conditional-exists e with variable declaration t: X -> Y."""
    if not isinstance(e, CondExists):
        raise CategoryError(f"modus ponens needs a conditional-exists, got {e!r}")
    lhs = Sketch("", e.arity, [Constraint(e.premise, identity(e.arity)),
                               Constraint(e, identity(e.arity))])
    rhs = Sketch("", e.var.cod, [Constraint(e.body, identity(e.var.cod))])
    return SketchRule(name or "modus-ponens", lhs, rhs, e.var)


def intro_rule(e: Expr, name: str = "") -> SketchRule:
    """(X, {})  =id=>  (X, {e @ id}): postulate the expression everywhere."""
    ident = identity(e.arity)
    lhs = Sketch("", e.arity, [])
    rhs = Sketch("", e.arity, [Constraint(e, ident)])
    return SketchRule(name or "intro", lhs, rhs, ident)


# ---------------------------------------------------------------------------
# Conservativity vs. closedness

class EquivalenceResult(Record):
    __slots__ = _fields = ("agree", "conservative", "closed")

    def __init__(self, agree: bool, conservative: bool, closed: bool):
        self.agree, self.conservative, self.closed = agree, conservative, closed

    def __bool__(self) -> bool:
        return self.agree


def check_equivalence(structure: Structure, rule: SketchRule) -> EquivalenceResult:
    """Compare conservativity of the structure with closedness of its
    maximal sketch over the rule's expressions.  The two sides are
    computed independently and must agree."""
    conservative = bool(is_conservative(structure, rule))
    maximal = structure_to_sketch_max(
        structure, {e for sk in (rule.lhs, rule.rhs) for rows in sk.relations.values()
                    for e in rows.values()})
    closed = bool(is_closed(maximal, rule))
    return EquivalenceResult(conservative == closed, conservative, closed)


def axiom_filtered_registry(footprint: Footprint, bounds: CarrierBounds,
                            rules: Sequence[SketchRule], *,
                            dedup_isomorphic: bool = False) -> StructureRegistry:
    """The registry of all structures within bounds that are
    conservative for every given rule (semantics by axioms).  Each block
    of the enumeration is decided once per rule, and keeps the bits that
    no rule fails."""
    keep = []
    for block, kept in _kept_blocks(footprint, bounds, dedup_isomorphic):
        ev = _Evaluator(block)
        for r in rules:
            if not kept:
                break
            for _, failed in unextended(ev, r.lhs.relations, r.rhs.relations, r.morphism):
                kept &= ~failed
        keep += block.structures(kept)
    names = ",".join(r.name for r in rules)
    return StructureRegistry(keep, f"axioms[{names}]({bounds.describe()})")
