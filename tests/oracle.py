"""Reference semantics: the slow paths that faster code replaced.

The hom-scan functions enumerate a full hom set with `hom_set` and
filter it with `compose`, exactly as the engine did before it evaluated
conjunctions, models, matches and conservativity with `hom_search`.
The property tests in `test_search.py` hold the fast paths to these
results, orders and witnesses; `isomorphisms` is the hom-set filter
that `category.isomorphisms` replaced.

`hom_search` runs `_join`, the graph search that `category._join`
replaced: it binds every vertex before any edge, each vertex to any
vertex of the codomain that the atoms allow, and takes each edge from
the edges between its bound endpoints (`_edges_between`), where the
engine reads each edge as one more atom.  `test_search.py` holds the
engine to it on random multigraphs.

The registry checks (`entails`, `check_sketch_morphism`, `is_sound`,
`axiom_filtered_registry`) decide every structure from scratch, and
`enumerate_structures` validates every structure it builds, as the
engine did before it decided each restriction once per call, a block
of structures at a time; `test_restriction.py`, `test_orbits.py` and
`test_blocks.py` hold the engine to them.  `enumerate_isomorph_free`
is the pairwise dedup that `enumerate_structures(dedup_isomorphic=True)`
replaced: it tests each structure against every kept one with the
engine's `structures_isomorphic`.

`_lex` is the per-character lexer that `dsl` replaced with one regex
pass; `test_lexer.py` holds the new tokens, positions and errors to it.

`substitute`, `rename_expr` and `canonicalize` are the recursive walks
that `expr` replaced with one iterative transport walk;
`test_transport.py` holds the engine to them.  `wf_check`,
`is_constructive` and `expr_repr` are the recursive walks that `expr`
replaced with stack loops; `test_recursion.py` holds the engine to them.
`expr_repr` writes the text of the generated dataclass `repr` that
expression nodes had before they became slotted classes.

`pushout` and `_merge_names` are the name-keyed quotient that
`category.pushout` replaced with a union-find over positions;
`test_pushout.py` holds the apex and both injections to them, and
`substitute` above pushes out through them.

`apply_rule`, `sketch_pushout` and `merge_constraints` rewrite with
`Constraint` objects: each step translates every constraint with
`translate_constraint` and merges the groups by constraint equality, as
the engine did before it rewrote constraint sets as relations of
binding tuples; `saturate` above applies rules through them, and
`test_rewrite.py` holds the engine's `apply_rule`, `saturate` and
`sketch_pushout` to them.

`FrozenSketch` keeps a sketch's constraints as a frozenset of
`Constraint` objects, compared and hashed with its context, and
`is_match`, `sketches_isomorphic` and `check_sketch_morphism` translate
them with `translate_constraint`, as the engine did before a sketch
stored its constraints as relations of binding tuples;
`test_relations.py` holds the engine to them.

`RecursiveParser` (the expression rules `parse_term` through
`parse_primary`), `RecursiveEvaluator` (`masks`, and `_compute` with
its `_conjuncts`, calling `masks`), `RecursivePrinter` (`collect_expr` and
`term`), `expr_json` and `record_eq` (`Record.__eq__`) are the
recursive walks that the engine replaced with loops over explicit
stacks; `test_recursion.py` holds the engine to them.

`Structure`, `validate_structure`, `is_structure_hom` and
`structures_isomorphic` keep every listed morphism as a `Morphism`,
as `footprint` did before a structure kept its facts as image tuples
(`structures_isomorphic` goes through `isomorphisms` above);
`test_structure.py` holds the engine to them.  The registry oracles
above build the engine's structures (`EngineStructure`), since they
are compared with registries the engine builds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from lfoc.category import (
    HOM_ENUMERATION_CAP,
    CatObject,
    CategoryError,
    EnumerationLimitError,
    FinGraph,
    FinSet,
    Morphism,
    PushoutResult,
    Record,
    canonical_copy,
    compose,
    hom_set,
    identity,
    inclusion,
    inverse,
    is_isomorphism,
)
from lfoc.dsl import (
    TERM_KEYWORDS,
    Document,
    ParseError,
    _Parser,
    _Printer,
    _shown,
    format_morphism_literal,
)
from lfoc.expr import (
    And,
    Atomic,
    Bot,
    CondExists,
    CondForall,
    Expr,
    Not,
    Or,
    Top,
    _and,
    _along,
    _check_quantifier,
    _complement,
    _Evaluator,
    _or,
    atom,
    children,
    cond_exists,
    cond_forall,
    conj,
    disj,
    neg,
)
from lfoc.footprint import Footprint, StructureRegistry, Verdict, enumerate_carriers
from lfoc.footprint import Structure as EngineStructure
from lfoc.footprint import structures_isomorphic as structures_isomorphic_engine
from lfoc.rules import BUDGET_EXHAUSTED, CLOSED, AppliedRule, MatchError, SaturationResult
from lfoc.jsonio import morphism_json
from lfoc.sketch import (
    Constraint,
    Interpretation,
    Sketch,
    SketchPushoutResult,
    translate_constraint,
)


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
            listed = frozenset(self.structure.interp(e.feature))
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


def entails(context, premises, conclusions, registry) -> Verdict:
    premises, conclusions = list(premises), list(conclusions)
    for structure in registry:
        ev = Evaluator(structure)
        pre = [(c.binding, ev.solutions(c.expr)) for c in premises]
        post = [(c.binding, ev.solutions(c.expr)) for c in conclusions]
        for a in hom_set(context, structure.carrier):
            if all(compose(b, a) in sols for b, sols in pre):
                if not all(compose(b, a) in sols for b, sols in post):
                    return Verdict(False, (structure, a), registry.description)
    return Verdict(True, registry=registry.description)


def check_sketch_morphism(phi, src, dst, registry) -> Verdict:
    translated = [translate_constraint(phi, c) for c in src.constraints]
    return entails(dst.context, dst.constraints, translated, registry)


class FrozenSketch:
    """A sketch whose constraints are a frozenset, which keeps the first
    given of equal constraints."""

    def __init__(self, name, context, constraints):
        self.name, self.context = name, context
        self.constraints = frozenset(constraints)

    def sorted_constraints(self) -> tuple:
        return tuple(sorted(self.constraints, key=Constraint.sort_key))

    def __eq__(self, other) -> bool:
        return self.context == other.context and self.constraints == other.constraints

    def __hash__(self) -> int:
        return hash((self.context, self.constraints))


def is_match(phi, pattern, host) -> bool:
    if phi.dom != pattern.context or phi.cod != host.context:
        raise CategoryError(
            f"candidate {phi!r} does not run between the contexts "
            f"{pattern.context!r} and {host.context!r}")
    return all(translate_constraint(phi, c) in host.constraints
               for c in pattern.constraints)


def sketches_isomorphic(a, b) -> bool:
    if len(a.constraints) != len(b.constraints):
        return False
    return any(frozenset(translate_constraint(iso, c) for c in a.constraints) == b.constraints
               for iso in isomorphisms(a.context, b.context))


def enumerate_structures(footprint, bounds) -> list:
    out = []
    for carrier in enumerate_carriers(footprint.kind, bounds):
        homs = {f: hom_set(arity, carrier) for f, arity in footprint.features.items()}
        names = list(footprint.features)
        for picks in itertools.product(*(range(2 ** len(homs[f])) for f in names)):
            interp = {f: tuple(h for i, h in enumerate(homs[f]) if pick >> i & 1)
                      for f, pick in zip(names, picks)}
            out.append(EngineStructure(f"S{len(out)}", footprint, carrier, interp))
    return out


def enumerate_isomorph_free(footprint, bounds) -> list:
    kept: list = []
    for st in enumerate_structures(footprint, bounds):
        if any(structures_isomorphic_engine(st, old) for old in kept):
            continue
        kept.append(st)
    return kept


def find_matches(pattern, host) -> tuple:
    return tuple(phi for phi in hom_set(pattern.context, host.context)
                 if is_match(phi, pattern, host))


def is_conservative(structure, rule) -> Verdict:
    rhs_maps = {m.map for m in models(rule.rhs, structure)}
    for m in models(rule.lhs, structure):
        extends = any(compose(rule.morphism, b) == m.map
                      for b in hom_set(rule.rhs.context, structure.carrier)
                      if b in rhs_maps)
        if not extends:
            return Verdict(False, m.map)
    return Verdict(True)


def is_sound(rule, registry) -> Verdict:
    for structure in registry:
        res = is_conservative(structure, rule)
        if not res:
            return Verdict(False, (structure, res.witness), registry.description)
    return Verdict(True, registry=registry.description)


def axiom_filtered_registry(footprint, bounds, rules) -> StructureRegistry:
    keep = [st for st in enumerate_structures(footprint, bounds)
            if all(is_conservative(st, r) for r in rules)]
    names = ",".join(r.name for r in rules)
    return StructureRegistry(keep, f"axioms[{names}]({bounds.describe()})")


def is_closed(host, rule) -> Verdict:
    factored = {compose(rule.morphism, b) for b in find_matches(rule.rhs, host)}
    for phi in find_matches(rule.lhs, host):
        if phi not in factored:
            return Verdict(False, phi)
    return Verdict(True)


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
                result = apply_rule(current, rule, phi)
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


def apply_rule(host, rule, m, name: str = "") -> AppliedRule:
    if not is_match(m, rule.lhs, host):
        raise MatchError(f"{m!r} is not a match of {rule.lhs!r} in {host!r}")
    if rule.morphism != identity(rule.lhs.context):
        po = sketch_pushout(rule.morphism, m, rule.rhs, host, rule.lhs, name or host.name)
        return AppliedRule(po.sketch, po.inj_right, po.inj_left)
    constraints = merge_constraints(
        host.constraints, [translate_constraint(m, c) for c in rule.rhs.constraints])
    return AppliedRule(Sketch(name or host.name, host.context, constraints),
                       identity(host.context), m)


def sketch_pushout(f, g, left, right, shared, name: str = "") -> SketchPushoutResult:
    if f.dom != shared.context or g.dom != shared.context:
        raise CategoryError(
            f"span must start at the shared context {shared.context!r}")
    if f.cod != left.context or g.cod != right.context:
        raise CategoryError("span legs must end at the two sketch contexts")
    po = pushout(f, g)
    constraints = merge_constraints(
        [translate_constraint(po.inj_left, c) for c in left.constraints],
        [translate_constraint(po.inj_right, c) for c in right.constraints])
    return SketchPushoutResult(Sketch(name, po.apex, constraints), po.inj_left, po.inj_right)


def merge_constraints(*groups) -> list[Constraint]:
    """The constraints of the groups, each equal pair kept once: an
    earlier group's, and within a group the one whose expression has the
    smaller repr."""
    kept: dict[Constraint, None] = {}
    for group in groups:
        chosen: dict[Constraint, Constraint] = {}
        for c in group:
            other = chosen.setdefault(c, c)
            if other.expr is not c.expr and repr(c.expr) < repr(other.expr):
                chosen[c] = c
        kept.update(dict.fromkeys(chosen.values()))  # keeps an earlier group's key
    return list(kept)


def isomorphisms(a, b) -> tuple:
    return tuple(m for m in hom_set(a, b) if is_isomorphism(m))


def hom_search(dom: CatObject, cod: CatObject, atoms=()) -> dict[tuple[int, ...], int]:
    """`category.hom_search` through `_join`: each atom's facts are read at
    its distinct positions in ascending order, keeping those that agree on
    repeated positions, and an atom that binds no name ANDs its mask into
    every result.  No estimate refusal and no full-atom path."""
    const, reduced = -1, []
    for binding, relation in atoms:
        variables = tuple(sorted(set(binding)))
        masks = relation if isinstance(relation, dict) else dict.fromkeys(relation, -1)
        facts = {}
        for fact, mask in masks.items():
            at = dict(zip(binding, fact))
            if all(at[p] == x for p, x in zip(binding, fact)):
                facts[tuple(at[p] for p in variables)] = mask
        if variables:
            reduced.append((variables, facts))
        else:
            const &= facts.get((), 0)
    return _join(dom, cod, reduced, const) if const else {}


def _edges_between(cod: CatObject) -> dict[tuple[int, int], list[int]]:
    """Edge positions of cod keyed by (source, target) positions."""
    pos = cod.position
    ends: dict[tuple[int, int], list[int]] = {}
    for e in cod.edges:
        ends.setdefault((pos[cod.src[e]], pos[cod.tgt[e]]), []).append(pos[e])
    return ends


def _join(dom: CatObject, cod: CatObject, atoms, const: int) -> dict[tuple[int, ...], int]:
    """The search over atoms that each bind some name, as a dict from each
    b to `const` (the AND of the masks of the atoms that bind no name)
    ANDed with its atoms' masks, leaving out 0."""
    n = dom.size
    # one trie per atom, its levels in the order of its positions; built
    # from sorted facts, so every node lists its keys in ascending order.
    # A leaf holds the fact's mask, -1 for a set
    tries: list[dict] = []
    at: list[list[int]] = [[] for _ in range(n)]
    for variables, facts in atoms:
        root: dict = {}
        has_masks = type(facts) is dict
        for fact in sorted(facts):
            node = root
            for v in fact[:-1]:
                node = node.setdefault(v, {})
            node[fact[-1]] = facts[fact] if has_masks else -1
        for p in variables:
            at[p].append(len(tries))
        tries.append(root)
    nv, ends = len(dom.vertices), _edges_between(cod)
    vertices = range(len(cod.vertices))
    pos = dom.position
    endpoints = [(pos[dom.src[e]], pos[dom.tgt[e]]) for e in dom.edges]

    out = {}
    b = [0] * n
    levels: list[tuple] = []  # per bound name: its tries, their nodes and candidates left
    i = 0  # the next name to bind, len(levels)
    while True:
        if i == n:
            # every trie is at the leaf of its fact: AND their masks
            mask = const
            for leaf in tries:
                mask &= leaf
            if mask:
                out[tuple(b)] = mask
                if len(out) > HOM_ENUMERATION_CAP:
                    raise EnumerationLimitError(
                        f"hom search {dom!r} -> {cod!r} has over {HOM_ENUMERATION_CAP} "
                        f"results", len(out))
        else:
            if i < nv:
                candidates = vertices
            else:
                s, t = endpoints[i - nv]
                candidates = ends.get((b[s], b[t]), ())
            ks = at[i]
            live = [tries[k] for k in ks]
            if live:
                smallest = min(live, key=len)
                candidates = [v for v in smallest
                              if v in candidates and all(v in node for node in live)]
            levels.append((ks, live, iter(candidates)))
            i += 1
        # bind the next candidate of the deepest level that has one left
        while i:
            ks, live, it = levels[-1]
            v = next(it, None)
            if v is not None:
                b[i - 1] = v
                if ks:
                    for k, node in zip(ks, live):
                        tries[k] = node[v]
                break
            for k, node in zip(ks, live):
                tries[k] = node
            levels.pop()
            i -= 1
        else:
            return out


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


def substitute(e: Expr, t: Morphism) -> Expr:
    """Rebind the expression along t: arity(e) -> Z.

    Atomic bindings are post-composed; quantifier nodes push out their
    variable declaration against t, so the result quantifies over the
    chosen-pushout object with its canonical names.
    """
    if t.dom != e.arity:
        raise CategoryError(
            f"substitution along {t!r} starting at {t.dom!r}, "
            f"but the expression arity is {e.arity!r}")
    target = t.cod
    if isinstance(e, Atomic):
        return Atomic(target, e.feature, compose(e.binding, t))
    if isinstance(e, Top):
        return Top(target)
    if isinstance(e, Bot):
        return Bot(target)
    if isinstance(e, And):
        return And(target, substitute(e.left, t), substitute(e.right, t))
    if isinstance(e, Or):
        return Or(target, substitute(e.left, t), substitute(e.right, t))
    if isinstance(e, Not):
        return Not(target, substitute(e.body, t))
    if isinstance(e, (CondExists, CondForall)):
        po = pushout(e.var, t)
        new_var = po.inj_right          # Z -> apex
        body = substitute(e.body, po.inj_left)  # along Y -> apex
        premise = substitute(e.premise, t)
        node = CondExists if isinstance(e, CondExists) else CondForall
        return node(target, premise, new_var, body)
    raise TypeError(f"not an expression node: {e!r}")


def rename_expr(e: Expr, iso: Morphism) -> Expr:
    """Transport the expression along an isomorphism of its arity.

    Unlike `substitute` this leaves quantifier targets untouched, so the
    result has exactly the same shape.
    """
    if iso.dom != e.arity:
        raise CategoryError(f"renaming must start at the arity {e.arity!r}")
    target = iso.cod
    if isinstance(e, Atomic):
        return Atomic(target, e.feature, compose(e.binding, iso))
    if isinstance(e, Top):
        return Top(target)
    if isinstance(e, Bot):
        return Bot(target)
    if isinstance(e, And):
        return And(target, rename_expr(e.left, iso), rename_expr(e.right, iso))
    if isinstance(e, Or):
        return Or(target, rename_expr(e.left, iso), rename_expr(e.right, iso))
    if isinstance(e, Not):
        return Not(target, rename_expr(e.body, iso))
    if isinstance(e, (CondExists, CondForall)):
        node = CondExists if isinstance(e, CondExists) else CondForall
        return node(target, rename_expr(e.premise, iso),
                    compose(inverse(iso), e.var), e.body)
    raise TypeError(f"not an expression node: {e!r}")


def canonicalize(e: Expr) -> Expr:
    """Rename every quantifier target to positional names.

    Two expressions with the same arity are considered equal up to
    bound renaming exactly when their canonical forms are equal.
    """
    if isinstance(e, And):
        return And(e.arity, canonicalize(e.left), canonicalize(e.right))
    if isinstance(e, Or):
        return Or(e.arity, canonicalize(e.left), canonicalize(e.right))
    if isinstance(e, Not):
        return Not(e.arity, canonicalize(e.body))
    if isinstance(e, (CondExists, CondForall)):
        iso = canonical_copy(e.var.cod)
        node = CondExists if isinstance(e, CondExists) else CondForall
        return node(e.arity, canonicalize(e.premise), compose(e.var, iso),
                    canonicalize(rename_expr(e.body, iso)))
    return e


def wf_check(e: Expr, footprint: Footprint) -> Verdict:
    """Boundary and arity agreement of every node against a footprint."""
    problems: list[str] = []

    def walk(node: Expr, path: str) -> None:
        if node.arity.kind != footprint.kind:
            problems.append(f"{path}: arity {node.arity!r} is not a {footprint.kind}")
        if isinstance(node, Atomic):
            if node.feature not in footprint.features:
                problems.append(f"{path}: unknown feature {node.feature!r}")
            else:
                want = footprint.features[node.feature]
                if node.binding.dom != want:
                    problems.append(
                        f"{path}: binding starts at {node.binding.dom!r}, "
                        f"expected the arity {want!r} of {node.feature!r}")
            if node.binding.cod != node.arity:
                problems.append(
                    f"{path}: binding ends at {node.binding.cod!r}, "
                    f"expected the expression arity {node.arity!r}")
        elif isinstance(node, (And, Or)):
            for side, kid in (("left", node.left), ("right", node.right)):
                if kid.arity != node.arity:
                    problems.append(
                        f"{path}.{side}: arity {kid.arity!r} differs from {node.arity!r}")
                walk(kid, f"{path}.{side}")
        elif isinstance(node, Not):
            if node.body.arity != node.arity:
                problems.append(
                    f"{path}.body: arity {node.body.arity!r} differs from {node.arity!r}")
            walk(node.body, f"{path}.body")
        elif isinstance(node, (CondExists, CondForall)):
            if node.var.dom != node.arity:
                problems.append(
                    f"{path}: quantifier morphism starts at {node.var.dom!r}, "
                    f"expected {node.arity!r}")
            if node.premise.arity != node.arity:
                problems.append(
                    f"{path}.premise: arity {node.premise.arity!r} differs from {node.arity!r}")
            if node.body.arity != node.var.cod:
                problems.append(
                    f"{path}.body: arity {node.body.arity!r} differs from the "
                    f"quantifier target {node.var.cod!r}")
            walk(node.premise, f"{path}.premise")
            walk(node.body, f"{path}.body")

    walk(e, "expr")
    return Verdict(not problems, tuple(problems) or None)


def expr_repr(e: Expr) -> str:
    if isinstance(e, Atomic):
        fields = {"feature": e.feature, "binding": e.binding}
    elif isinstance(e, (And, Or)):
        fields = {"left": e.left, "right": e.right}
    elif isinstance(e, Not):
        fields = {"body": e.body}
    elif isinstance(e, (CondExists, CondForall)):
        fields = {"premise": e.premise, "var": e.var, "body": e.body}
    else:
        fields = {}
    shown = [f"{name}={expr_repr(v) if isinstance(v, Expr) else repr(v)}"
             for name, v in {"arity": e.arity, **fields}.items()]
    return f"{type(e).__name__}({', '.join(shown)})"


def is_constructive(e: Expr, *, strict: bool = False) -> bool:
    """No negation and no conditional-forall anywhere.

    With ``strict=True`` additionally every conditional-exists premise
    must be Top; solutions of strict expressions are preserved by
    post-composition with structure homomorphisms.
    """
    if isinstance(e, (Not, CondForall)):
        return False
    if isinstance(e, CondExists):
        if strict and not isinstance(e.premise, Top):
            return False
        return (is_constructive(e.premise, strict=strict)
                and is_constructive(e.body, strict=strict))
    return all(is_constructive(k, strict=strict) for k in children(e))


def _merge_names(left: tuple[str, ...], right: tuple[str, ...],
                 glue: Iterable[tuple[str, str]]):
    """Quotient the disjoint union of two name lists.

    Returns the apex name list (first-occurrence order, scanning left
    names then right names) and the two injection name maps.  Each
    class is named after its least original name, tagged by the side
    that name came from ("l." or "r.", left winning ties).
    """
    items = [("l", n) for n in left] + [("r", n) for n in right]
    parent = {it: it for it in items}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for ln, rn in glue:
        ra, rb = find(("l", ln)), find(("r", rn))
        if ra != rb:
            parent[ra] = rb

    classes: dict[tuple[str, str], list[tuple[str, str]]] = {}
    order = []
    for it in items:
        root = find(it)
        if root not in classes:
            classes[root] = []
            order.append(root)
        classes[root].append(it)

    names = {}
    for root in order:
        side, base = min(classes[root], key=lambda p: (p[1], 0 if p[0] == "l" else 1))
        names[root] = f"{side}.{base}"
    apex_names = tuple(names[root] for root in order)
    left_map = {n: names[find(("l", n))] for n in left}
    right_map = {n: names[find(("r", n))] for n in right}
    return apex_names, left_map, right_map


def pushout(f: Morphism, g: Morphism) -> PushoutResult:
    """Pushout of the span (f: X -> A, g: X -> B).

    Apex names are deterministic: each glued class is named after its
    least original member, tagged by side.  Glue pairs never mix
    vertices with edges, so one quotient of A's names and B's names
    covers both.
    """
    if f.dom != getattr(g, "dom", None):
        raise CategoryError(
            f"pushout needs a span with one common domain, got {f!r} from "
            f"{f.dom!r} and {g!r} from {getattr(g, 'dom', None)!r}")
    a, b = f.cod, g.cod
    glue = [(a.names[p], b.names[q]) for p, q in zip(f.images, g.images)]
    apex_names, lmap, rmap = _merge_names(a.names, b.names, glue)
    if isinstance(a, FinSet):
        apex = FinSet(apex_names)
    else:
        vertices = {lmap[v] for v in a.vertices} | {rmap[v] for v in b.vertices}
        # endpoints of a glued edge follow any member; well defined since f, g
        # are homomorphisms
        ends = {}
        for side, obj in ((lmap, a), (rmap, b)):
            for e, s, t in obj.edge_triples():
                ends.setdefault(side[e], (side[s], side[t]))
        apex = FinGraph([n for n in apex_names if n in vertices],
                        [(n, *ends[n]) for n in apex_names if n not in vertices])
    pos = apex.position
    result = PushoutResult(apex,
                           Morphism(a, apex, tuple(pos[lmap[n]] for n in a.names)),
                           Morphism(b, apex, tuple(pos[rmap[n]] for n in b.names)))
    if compose(f, result.inj_left) != compose(g, result.inj_right):
        raise AssertionError("pushout square failed to commute")
    return result


# ---------------------------------------------------------------------------
# Structures that keep every listed morphism

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
        self._hash = None

    def interp(self, feature: str) -> tuple[Morphism, ...]:
        if feature not in self.interpretation:
            raise CategoryError(f"structure has no feature {feature!r}")
        return self.interpretation[feature]

    def interp_set(self, feature: str) -> frozenset:
        if feature not in self._sets:
            raise CategoryError(f"structure has no feature {feature!r}")
        return self._sets[feature]

    def restriction(self, features: Iterable[str]) -> tuple:
        """The carrier and the interpretations of `features` (None for a
        feature the footprint lacks): all that a check mentioning only
        these features reads of the structure."""
        return (self.carrier, *map(self._sets.get, features))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (self.footprint == other.footprint and self.carrier == other.carrier
                and self._sets == other._sets)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.footprint, self.carrier, tuple(sorted(self._sets.items()))))
        return self._hash

    def __repr__(self) -> str:
        counts = ", ".join(f"{f}:{len(ms)}" for f, ms in self.interpretation.items())
        return f"Structure({self.name or '?'} on {self.carrier!r}; {counts})"


def validate_structure(structure: Structure) -> Verdict:
    """Check that every listed morphism really maps the feature's arity
    into the carrier; the witness is the tuple of problems."""
    problems = []
    fp = structure.footprint
    for fname in fp.features:
        arity = fp.features[fname]
        for m in structure.interp(fname):
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
# Recursive walks that the engine replaced with loops over explicit stacks

class RecursiveParser(_Parser):
    """The parser with the expression rules `parse_term` through
    `parse_primary` that `_Parser.parse_expr` replaced: each rule calls
    the next, one Python frame per level of nesting."""

    def parse_expr(self, arity: CatObject) -> Expr:
        return self.parse_term(arity)

    def parse_term(self, arity: CatObject) -> Expr:
        if self.at_name("given") or self.at_name("exists") or self.at_name("forall"):
            return self.parse_quantified(arity)
        return self.parse_or(arity)

    def parse_quantified(self, arity: CatObject) -> Expr:
        start = self.pos
        premise: Expr | None = None
        if self.at_name("given"):
            self.advance()
            premise = self.parse_or(arity)
        kw_at = self.pos
        kw = self.expect_name("quantifier")
        if kw not in ("exists", "forall"):
            self.fail("expected 'exists' or 'forall'", kw_at)
        named_mor: Morphism | None = None
        literal: tuple[dict[str, str], int] | None = None
        if self.peek() == "[":
            literal = self.parse_morlit_entries()
        elif self.peek() in self.names and not self.at_name("into"):
            named_mor = self.resolve(self.doc.morphisms, "morphism")
        if self.expect_name() != "into":
            self.fail("expected 'into'", self.pos - 1)
        target_at = self.pos
        target = self.resolve(self.doc.objects, "object")
        if literal is not None:
            var = self.build_morphism(arity, target, literal[0], literal[1])
        elif named_mor is not None:
            if named_mor.dom != arity or named_mor.cod != target:
                self.fail("named morphism does not run between the expression "
                          "arity and the quantifier target", target_at)
            var = named_mor
        else:
            try:
                var = inclusion(arity, target)
            except CategoryError as exc:
                self.fail(str(exc), target_at)
        self.expect_punct(".")
        body = self.parse_term(target)
        if premise is None:
            premise = Top(arity)
        try:
            build = cond_exists if kw == "exists" else cond_forall
            return build(premise, var, body)
        except CategoryError as exc:
            self.fail(str(exc), start)

    def parse_or(self, arity: CatObject) -> Expr:
        left = self.parse_and(arity)
        while self.at_name("or"):
            at = self.pos
            self.advance()
            right = self.parse_and(arity)
            try:
                left = disj(left, right)
            except CategoryError as exc:
                self.fail(str(exc), at)
        return left

    def parse_and(self, arity: CatObject) -> Expr:
        left = self.parse_unary(arity)
        while self.at_name("and"):
            at = self.pos
            self.advance()
            right = self.parse_unary(arity)
            try:
                left = conj(left, right)
            except CategoryError as exc:
                self.fail(str(exc), at)
        return left

    def parse_unary(self, arity: CatObject) -> Expr:
        if self.at_name("not"):
            self.advance()
            return neg(self.parse_unary(arity))
        if self.at_name("given") or self.at_name("exists") or self.at_name("forall"):
            return self.parse_quantified(arity)
        return self.parse_primary(arity)

    def parse_primary(self, arity: CatObject) -> Expr:
        at = self.pos
        tok = self.peek()
        if tok == "(":
            self.advance()
            term = self.parse_term(arity)
            self.expect_punct(")")
            return term
        if tok not in self.names:
            self.fail(f"expected an expression, found {_shown(tok)!r}")
        if tok == "top":
            self.advance()
            return Top(arity)
        if tok == "bot":
            self.advance()
            return Bot(arity)
        if tok in TERM_KEYWORDS:
            self.fail(f"unexpected {tok!r} here")
        self.advance()
        if self.peek() == "(":
            if tok in self.feature_clashes:
                self.fail(f"feature {tok!r} is declared with different "
                          f"arities by several footprints", at)
            feature_arity = self.features.get(tok)
            if feature_arity is None:
                self.fail(f"unknown feature {tok!r}", at)
            self.advance()
            binding = self.parse_literal(
                feature_arity, arity, self.literal_plan(feature_arity, arity), ")")
            return atom(tok, binding)
        ref = self.doc.exprs.get(tok)
        if ref is None:
            self.fail(f"unknown expression {tok!r}", at)
        if ref.arity != arity:
            self.fail(f"expression {tok!r} has arity {ref.arity!r}, "
                      f"expected {arity!r}", at)
        return ref


def parse_document(text: str) -> Document:
    """`dsl.parse_document` through `RecursiveParser`, for a text that
    imports nothing."""
    parser = RecursiveParser(text, "<input>", None, frozenset())
    assert parser.parse_document() is None
    return parser.doc


class RecursiveEvaluator(_Evaluator):
    """`_Evaluator` with the `masks`, and the `_compute` with its
    `_conjuncts`, that called `masks` for each value they read, before
    `masks` drove `_compute` from one loop."""

    def masks(self, e: Expr) -> dict:
        out = self.memo.get(e)
        if out is None:
            out = self.memo[e] = self._compute(e)
        return out

    def _compute(self, e: Expr) -> dict:
        full = self.full
        if isinstance(e, (Atomic, And, Top)):
            atoms = self._conjuncts(e)
            return {} if atoms is None else self.holding(e.arity, atoms)
        if isinstance(e, Bot):
            return {}
        if isinstance(e, Or):
            return _or(self.masks(e.left), self.masks(e.right))
        if isinstance(e, Not):
            return _complement(self.masks(Top(e.arity)), self.masks(e.body), full)
        if isinstance(e, (CondExists, CondForall)):
            _check_quantifier(e)
            t = e.var.images
            if isinstance(e, CondExists):
                witnessed = _along(t, self.masks(e.body))
                if isinstance(e.premise, Top):
                    return witnessed
                every, premise = self.masks(Top(e.arity)), self.masks(e.premise)
                return _or(_complement(every, premise, full), witnessed)
            extensions = self.masks(Top(e.var.cod))
            spoiled = _along(t, _complement(extensions, self.masks(e.body), full))
            every, premise = self.masks(Top(e.arity)), self.masks(e.premise)
            return _complement(every, _and(premise, spoiled), full)
        raise TypeError(f"not an expression node: {e!r}")

    def _conjuncts(self, e: Expr) -> list | None:
        arity, facts = e.arity, self.structure.facts
        features = self.structure.footprint.features
        every = tuple(range(arity.size))
        atoms = []
        stack = [e]
        while stack:
            node = stack.pop()
            if node.arity is not arity and node.arity != arity:
                raise CategoryError(f"conjunct arity {node.arity!r} differs from {arity!r}")
            if isinstance(node, And):
                stack += (node.right, node.left)
            elif isinstance(node, Atomic):
                binding = node.binding
                if binding.cod is not arity and binding.cod != arity:
                    raise CategoryError(
                        f"atom binding ends at {binding.cod!r}, expected the arity {arity!r}")
                got = facts.get(node.feature)
                if got is None:
                    raise CategoryError(f"structure has no feature {node.feature!r}")
                want = features[node.feature]
                atoms.append((binding.images,
                              got if binding.dom is want or binding.dom == want else ()))
            elif isinstance(node, Bot):
                return None
            elif not isinstance(node, Top):
                atoms.append((every, self.masks(node)))
        return atoms


class RecursivePrinter(_Printer):
    """`_Printer` with the recursive `collect_expr` and `term` that the
    engine replaced with stack loops."""

    def collect_expr(self, e: Expr) -> None:
        if isinstance(e, (And, Or)):
            self.collect_expr(e.left)
            self.collect_expr(e.right)
        elif isinstance(e, Not):
            self.collect_expr(e.body)
        elif isinstance(e, (CondExists, CondForall)):
            self.object_name(e.var.cod)
            self.collect_expr(e.premise)
            self.collect_expr(e.body)

    def term(self, e: Expr, min_prec: int = 0) -> str:
        prec, text = self.term_prec(e)
        if prec < min_prec:
            return f"({text})"
        return text

    def term_prec(self, e: Expr) -> tuple[int, str]:
        if isinstance(e, Top):
            return 4, "top"
        if isinstance(e, Bot):
            return 4, "bot"
        if isinstance(e, Atomic):
            return 4, f"{e.feature}({format_morphism_literal(e.binding)})"
        if isinstance(e, Or):
            return 1, f"{self.term(e.left, 1)} or {self.term(e.right, 2)}"
        if isinstance(e, And):
            return 2, f"{self.term(e.left, 2)} and {self.term(e.right, 3)}"
        if isinstance(e, Not):
            return 3, f"not {self.term(e.body, 3)}"
        if isinstance(e, (CondExists, CondForall)):
            kw = "exists" if isinstance(e, CondExists) else "forall"
            target = self.object_name(e.var.cod)
            lit = format_morphism_literal(e.var)
            head = "" if isinstance(e.premise, Top) else f"given {self.term(e.premise, 1)} "
            return 0, f"{head}{kw} {lit} into {target} . {self.term(e.body, 0)}"
        raise TypeError(f"not an expression node: {e!r}")


def print_document(doc: Document) -> str:
    return RecursivePrinter(doc).render()


def expr_json(e: Expr) -> dict:
    if isinstance(e, Top):
        return {"node": "top"}
    if isinstance(e, Bot):
        return {"node": "bot"}
    if isinstance(e, Atomic):
        return {"node": "atomic", "feature": e.feature,
                "binding": morphism_json(e.binding, embed_objects=False)}
    if isinstance(e, And):
        return {"node": "and", "left": expr_json(e.left), "right": expr_json(e.right)}
    if isinstance(e, Or):
        return {"node": "or", "left": expr_json(e.left), "right": expr_json(e.right)}
    if isinstance(e, Not):
        return {"node": "not", "body": expr_json(e.body)}
    if isinstance(e, (CondExists, CondForall)):
        return {"node": "exists" if isinstance(e, CondExists) else "forall",
                "premise": expr_json(e.premise),
                "var": morphism_json(e.var),
                "body": expr_json(e.body)}
    raise TypeError(f"not an expression node: {e!r}")


def _record_eq(self, other: object) -> bool:
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._values() == other._values()


def record_eq(a: Record, b: Record) -> bool:
    """`a == b` under `Record.__eq__` as it was: the tuples of fields
    compared with `==`, which recursed through nested records."""
    engine = Record.__eq__
    Record.__eq__ = _record_eq
    try:
        return a == b
    finally:
        Record.__eq__ = engine
