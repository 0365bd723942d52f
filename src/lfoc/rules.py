"""Sketch rules: matching, application, saturation, and soundness.

A rule L =r=> R rewrites sketches.  A match of a pattern sketch G in a
host K is a context morphism under which every translated pattern
constraint is already present in K.  Applying a rule at a match pushes
the rule morphism out against the match and unions the translated host
and right-hand constraints; when the rule morphism is an identity the
context is unchanged and constraints are only added.

A structure is *conservative* for a rule when every left-hand model
extends along the rule morphism to a right-hand model; a rule is
*sound* over a registry when all its structures are conservative.  A
sketch is *closed* under a rule when every left-hand match factors
through a right-hand match.  Conservativity of a structure and
closedness of its maximal sketch over the rule's expressions agree;
`check_equivalence` computes both sides independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .category import (
    CatObject,
    CategoryError,
    FinGraph,
    FinSet,
    Morphism,
    SearchIndex,
    from_images,
    hom_search,
    identity,
    precompose,
    pushout,
)
from .expr import And, CondExists, Expr, _Evaluator
from .footprint import (
    CarrierBounds,
    Footprint,
    Structure,
    StructureRegistry,
    enumerate_structures,
)
from .sketch import (
    Constraint,
    Sketch,
    constraint_atoms,
    structure_to_sketch_max,
    translate_constraint,
)


class MatchError(ValueError):
    """A morphism offered as a match fails the match condition."""


@dataclass(frozen=True)
class SketchRule:
    """A span-free rewrite rule: lhs sketch, rhs sketch, and a context
    morphism r from the lhs context into the rhs context."""

    name: str
    lhs: Sketch
    rhs: Sketch
    morphism: Morphism

    def __post_init__(self):
        if self.morphism.dom != self.lhs.context:
            raise CategoryError(
                f"rule morphism starts at {self.morphism.dom!r}, expected the "
                f"lhs context {self.lhs.context!r}")
        if self.morphism.cod != self.rhs.context:
            raise CategoryError(
                f"rule morphism ends at {self.morphism.cod!r}, expected the "
                f"rhs context {self.rhs.context!r}")


@dataclass(frozen=True)
class Match:
    """A context morphism under which all pattern constraints land in the host."""

    morphism: Morphism


def is_match(phi: Morphism, pattern: Sketch, host: Sketch) -> bool:
    if phi.dom != pattern.context or phi.cod != host.context:
        raise CategoryError(
            f"candidate {phi!r} does not run between the contexts "
            f"{pattern.context!r} and {host.context!r}")
    return all(translate_constraint(phi, c) in host.constraints
               for c in pattern.constraints)


def find_matches(pattern: Sketch, host: Sketch) -> tuple[Match, ...]:
    """All matches of the pattern in the host, in hom-set order."""
    index = SearchIndex()
    found = _match_tuples(pattern, host, index)
    return tuple(Match(from_images(pattern.context, host.context, m)) for m in found)


def _match_tuples(pattern: Sketch, host: Sketch, index: SearchIndex) -> list[tuple[int, ...]]:
    """Image tuples of the matches: a pattern constraint lands on a host
    constraint with the same canonical expression and the translated
    binding, so the host bindings grouped by expression are the relations."""
    bindings: dict[Expr, set] = {}
    for c in host.constraints:
        bindings.setdefault(c.canonical, set()).add(c.binding.images)
    atoms = [(c.binding.images, bindings.get(c.canonical, ()))
             for c in pattern.constraints]
    return hom_search(pattern.context, host.context, atoms, index)


def _factored(host: Sketch, rule: SketchRule, index: SearchIndex) -> set:
    """The lhs matches that factor through an rhs match along the rule
    morphism, as image tuples."""
    r = rule.morphism.images
    return {precompose(r, b) for b in _match_tuples(rule.rhs, host, index)}


# ---------------------------------------------------------------------------
# Conservativity and soundness

@dataclass(frozen=True)
class ConservativityResult:
    conservative: bool
    witness: Morphism | None = None  # an lhs model with no rhs extension

    def __bool__(self) -> bool:
        return self.conservative


def is_conservative(structure: Structure, rule: SketchRule) -> ConservativityResult:
    """Does every lhs model of the structure extend along the rule
    morphism to an rhs model?"""
    return _conservative(structure, rule, SearchIndex())


def _conservative(structure: Structure, rule: SketchRule,
                  index: SearchIndex) -> ConservativityResult:
    ev = _Evaluator(structure, index)
    carrier = structure.carrier
    r = rule.morphism.images
    extended = {precompose(r, b) for b in hom_search(
        rule.rhs.context, carrier, constraint_atoms(rule.rhs.sorted_constraints(), ev), index)}
    for a in hom_search(rule.lhs.context, carrier,
                        constraint_atoms(rule.lhs.sorted_constraints(), ev), index):
        if a not in extended:
            return ConservativityResult(False, from_images(rule.lhs.context, carrier, a))
    return ConservativityResult(True)


@dataclass(frozen=True)
class SoundnessResult:
    sound: bool
    registry: str
    counterexample: tuple[Structure, Morphism] | None = None

    def __bool__(self) -> bool:
        return self.sound


def is_sound(rule: SketchRule, registry: StructureRegistry) -> SoundnessResult:
    """Is every registry structure conservative for the rule?"""
    index = SearchIndex()
    for structure in registry:
        res = _conservative(structure, rule, index)
        if not res:
            return SoundnessResult(False, registry.description, (structure, res.witness))
    return SoundnessResult(True, registry.description)


# ---------------------------------------------------------------------------
# Closedness and application

@dataclass(frozen=True)
class ClosednessResult:
    closed: bool
    failing_match: Match | None = None

    def __bool__(self) -> bool:
        return self.closed


def is_closed(host: Sketch, rule: SketchRule) -> ClosednessResult:
    """Does every lhs match factor through an rhs match along the rule
    morphism?"""
    index = SearchIndex()
    factored = _factored(host, rule, index)
    for m in _match_tuples(rule.lhs, host, index):
        if m not in factored:
            return ClosednessResult(False, Match(from_images(rule.lhs.context, host.context, m)))
    return ClosednessResult(True)


@dataclass(frozen=True)
class AppliedRule:
    """Result of one rule application: the rewritten sketch plus the
    pushout injections of the host context and the rhs context."""

    sketch: Sketch
    host_injection: Morphism
    rhs_injection: Morphism


def apply_rule(host: Sketch, rule: SketchRule, m: Match, name: str = "") -> AppliedRule:
    """Rewrite the host at a match.

    The new context is the pushout of the rule morphism against the
    match; constraints are the translated host constraints together with
    the translated rhs constraints.  A non-match is rejected.
    """
    if not is_match(m.morphism, rule.lhs, host):
        raise MatchError(
            f"{m.morphism!r} is not a match of {rule.lhs!r} in {host!r}")
    if rule.morphism == identity(rule.lhs.context):
        # context unchanged, constraints only added
        host_inj = identity(host.context)
        rhs_inj = m.morphism
        constraints = set(host.constraints)
        context = host.context
    else:
        po = pushout(rule.morphism, m.morphism)
        host_inj = po.inj_right
        rhs_inj = po.inj_left
        constraints = {translate_constraint(host_inj, c) for c in host.constraints}
        context = po.apex
    constraints.update(translate_constraint(rhs_inj, c) for c in rule.rhs.constraints)
    return AppliedRule(Sketch(name or host.name, context, constraints), host_inj, rhs_inj)


# ---------------------------------------------------------------------------
# Saturation

@dataclass(frozen=True)
class SaturationLimits:
    """Budgets for saturation: a step count plus context-size bounds
    (elements for sets; vertices and edges for graphs)."""

    max_steps: int
    max_elements: int | None = None
    max_vertices: int | None = None
    max_edges: int | None = None

    def admits(self, context: CatObject) -> bool:
        if isinstance(context, FinSet):
            return self.max_elements is None or len(context.elements) <= self.max_elements
        if isinstance(context, FinGraph):
            if self.max_vertices is not None and len(context.vertices) > self.max_vertices:
                return False
            if self.max_edges is not None and len(context.edges) > self.max_edges:
                return False
            return True
        return True


SaturationStatus = Literal["closed", "budget-exhausted"]
CLOSED: SaturationStatus = "closed"
BUDGET_EXHAUSTED: SaturationStatus = "budget-exhausted"


@dataclass(frozen=True)
class SaturationResult:
    sketch: Sketch
    status: SaturationStatus
    steps: int


def saturate(host: Sketch, rules: Sequence[SketchRule],
             limits: SaturationLimits) -> SaturationResult:
    """Apply rules at non-closed matches until closed or out of budget.

    Scheduling is fair and deterministic: each sweep visits the rules in
    declared order and their matches in canonical hom-set order, and
    restarts after every application.  Constraint-set deduplication
    prevents re-adding; an application whose result would exceed a
    context-size budget is not committed.
    """
    steps = 0
    current = host
    index = SearchIndex()
    while True:
        applied = False
        for rule in rules:
            # the host only changes when an application restarts the sweep
            factored = None
            for m in _match_tuples(rule.lhs, current, index):
                if factored is None:
                    factored = _factored(current, rule, index)
                if m in factored:
                    continue
                if steps >= limits.max_steps:
                    return SaturationResult(current, BUDGET_EXHAUSTED, steps)
                match = Match(from_images(rule.lhs.context, current.context, m))
                result = apply_rule(current, rule, match)
                if not limits.admits(result.sketch.context):
                    return SaturationResult(current, BUDGET_EXHAUSTED, steps)
                current = result.sketch
                steps += 1
                applied = True
                break
            if applied:
                break
        if not applied:
            return SaturationResult(current, CLOSED, steps)


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

@dataclass(frozen=True)
class EquivalenceResult:
    agree: bool
    conservative: bool
    closed: bool

    def __bool__(self) -> bool:
        return self.agree


def rule_expressions(rule: SketchRule) -> tuple[Expr, ...]:
    """The expressions occurring in the rule's constraints, deduplicated."""
    return tuple(dict.fromkeys(c.expr for sk in (rule.lhs, rule.rhs)
                               for c in sk.sorted_constraints()))


def check_equivalence(structure: Structure, rule: SketchRule) -> EquivalenceResult:
    """Compare conservativity of the structure with closedness of its
    maximal sketch over the rule's expressions.  The two sides are
    computed independently and must agree."""
    conservative = bool(is_conservative(structure, rule))
    maximal = structure_to_sketch_max(structure, rule_expressions(rule))
    closed = bool(is_closed(maximal, rule))
    return EquivalenceResult(conservative == closed, conservative, closed)


def axiom_filtered_registry(footprint: Footprint, bounds: CarrierBounds,
                            rules: Sequence[SketchRule], *,
                            dedup_isomorphic: bool = False) -> StructureRegistry:
    """The registry of all structures within bounds that are
    conservative for every given rule (semantics by axioms)."""
    index = SearchIndex()
    keep = [st for st in enumerate_structures(footprint, bounds,
                                              dedup_isomorphic=dedup_isomorphic)
            if all(_conservative(st, r, index) for r in rules)]
    names = ",".join(r.name for r in rules)
    return StructureRegistry(keep, f"axioms[{names}]({bounds.describe()})")
