"""Reference semantics: the slow paths that faster code replaced.

The hom-scan functions enumerate a full hom set with `hom_set` and
filter it with `compose`, exactly as the engine did before it evaluated
conjunctions, models, matches and conservativity with `hom_search`.
The property tests in `test_search.py` hold the fast paths to these
results, orders and witnesses; `isomorphisms` is the hom-set filter
that `category.isomorphisms` replaced.

`_lex` is the per-character lexer that `dsl` replaced with one regex
pass; `test_lexer.py` holds the new tokens, positions and errors to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from lfoc.category import compose, hom_set, is_isomorphism
from lfoc.dsl import ParseError
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


def isomorphisms(a, b) -> tuple:
    return tuple(m for m in hom_set(a, b) if is_isomorphism(m))


@dataclass(frozen=True)
class Token:
    kind: str  # "name", "string", "punct", "eof"
    value: str
    line: int
    col: int


def _lex(text: str, source: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise ParseError("unterminated string", start_line, start_col, source)
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise ParseError("unterminated string", start_line, start_col, source)
            i += 1
            col += 1
            tokens.append(Token("string", "".join(buf), start_line, start_col))
            continue
        two = text[i:i + 2]
        if two in ("->", "=>"):
            tokens.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in "{}[]();:,.@=":
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            start_line, start_col = line, col
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            # dotted names (from pushout naming) count as one token
            while j < n and text[j] == "." and j + 1 < n and (text[j + 1].isalnum()
                                                              or text[j + 1] == "_"):
                j += 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
            value = text[i:j]
            col += j - i
            i = j
            tokens.append(Token("name", value, start_line, start_col))
            continue
        if ch.isdigit():
            raise ParseError(f"names must not start with a digit: {ch!r}", line, col, source)
        raise ParseError(f"unexpected character {ch!r}", line, col, source)
    tokens.append(Token("eof", "", line, col))
    return tokens
