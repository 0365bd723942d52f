"""Hom-scan reference semantics: the slow paths the hom search replaced.

Each function here enumerates a full hom set with `hom_set` and filters
it with `compose`, exactly as the engine did before it evaluated
conjunctions, models, matches and conservativity with `hom_search`.
The property tests in `test_search.py` hold the fast paths to these
results, orders and witnesses.
"""

from __future__ import annotations

from lfoc.category import compose, hom_set
from lfoc.expr import And, Atomic, Bot, CondExists, CondForall, Not, Or, Top
from lfoc.rules import (
    BUDGET_EXHAUSTED,
    CLOSED,
    ClosednessResult,
    ConservativityResult,
    Match,
    SaturationResult,
    SoundnessResult,
    apply_rule,
    is_match,
)
from lfoc.sketch import EntailmentResult, Interpretation


class Evaluator:
    """Solution sets as frozensets of morphisms, memoized per sub-expression."""

    def __init__(self, structure):
        self.structure = structure
        self.memo = {}

    def solutions(self, e) -> frozenset:
        out = self.memo.get(e)
        if out is None:
            out = self._compute(e)
            self.memo[e] = out
        return out

    def _compute(self, e) -> frozenset:
        carrier = self.structure.carrier
        hom = hom_set(e.arity, carrier)
        if isinstance(e, Atomic):
            listed = self.structure.interp_set(e.feature)
            return frozenset(a for a in hom if compose(e.binding, a) in listed)
        if isinstance(e, Top):
            return frozenset(hom)
        if isinstance(e, Bot):
            return frozenset()
        if isinstance(e, And):
            return self.solutions(e.left) & self.solutions(e.right)
        if isinstance(e, Or):
            return self.solutions(e.left) | self.solutions(e.right)
        if isinstance(e, Not):
            return frozenset(hom) - self.solutions(e.body)
        if isinstance(e, CondExists):
            premise = self.solutions(e.premise)
            witnessed = {compose(e.var, b) for b in self.solutions(e.body)}
            return frozenset(a for a in hom if a not in premise or a in witnessed)
        if isinstance(e, CondForall):
            premise = self.solutions(e.premise)
            body = self.solutions(e.body)
            spoiled = {compose(e.var, b) for b in hom_set(e.var.cod, carrier)
                       if b not in body}
            return frozenset(a for a in hom if a not in premise or a not in spoiled)
        raise TypeError(f"not an expression node: {e!r}")


def solutions(e, structure) -> tuple:
    sols = Evaluator(structure).solutions(e)
    return tuple(a for a in hom_set(e.arity, structure.carrier) if a in sols)


def models(sketch, structure) -> tuple:
    ev = Evaluator(structure)
    wanted = [(c.binding, ev.solutions(c.expr)) for c in sketch.sorted_constraints()]
    return tuple(Interpretation(a, structure)
                 for a in hom_set(sketch.context, structure.carrier)
                 if all(compose(binding, a) in sols for binding, sols in wanted))


def entails(context, premises, conclusions, registry) -> EntailmentResult:
    premises, conclusions = list(premises), list(conclusions)
    for structure in registry:
        ev = Evaluator(structure)
        pre = [(c.binding, ev.solutions(c.expr)) for c in premises]
        post = [(c.binding, ev.solutions(c.expr)) for c in conclusions]
        for a in hom_set(context, structure.carrier):
            if all(compose(b, a) in sols for b, sols in pre):
                if not all(compose(b, a) in sols for b, sols in post):
                    return EntailmentResult(False, registry.description, (structure, a))
    return EntailmentResult(True, registry.description)


def find_matches(pattern, host) -> tuple:
    return tuple(phi for phi in hom_set(pattern.context, host.context)
                 if is_match(phi, pattern, host))


def is_conservative(structure, rule) -> ConservativityResult:
    rhs_maps = {m.map for m in models(rule.rhs, structure)}
    for m in models(rule.lhs, structure):
        extends = any(compose(rule.morphism, b) == m.map
                      for b in hom_set(rule.rhs.context, structure.carrier)
                      if b in rhs_maps)
        if not extends:
            return ConservativityResult(False, m.map)
    return ConservativityResult(True)


def is_sound(rule, registry) -> SoundnessResult:
    for structure in registry:
        res = is_conservative(structure, rule)
        if not res:
            return SoundnessResult(False, registry.description, (structure, res.witness))
    return SoundnessResult(True, registry.description)


def is_closed(host, rule) -> ClosednessResult:
    factored = {compose(rule.morphism, b) for b in find_matches(rule.rhs, host)}
    for phi in find_matches(rule.lhs, host):
        if phi not in factored:
            return ClosednessResult(False, Match(phi))
    return ClosednessResult(True)


def saturate(host, rules, limits) -> SaturationResult:
    """Saturation that recomputes the rhs matches for every lhs match."""
    steps, current = 0, host
    while True:
        applied = False
        for rule in rules:
            for phi in find_matches(rule.lhs, current):
                if any(compose(rule.morphism, b) == phi
                       for b in find_matches(rule.rhs, current)):
                    continue
                if steps >= limits.max_steps:
                    return SaturationResult(current, BUDGET_EXHAUSTED, steps)
                result = apply_rule(current, rule, Match(phi))
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
