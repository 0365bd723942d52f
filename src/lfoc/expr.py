"""First-order feature expressions and their solution-set semantics.

Every expression carries an arity object X; over a structure U it
denotes the set of "solutions": those morphisms a: X -> carrier(U) it
holds of.  The eight constructors and their meaning:

* ``Atomic(P, delta)``  holds of a  iff  delta;a is listed under P.
* ``Top`` holds of every a, ``Bot`` of none.
* ``And`` / ``Or`` / ``Not``  are intersection, union, complement
  within hom(X, carrier).
* ``CondExists(premise, t, body)`` with t: X -> Y  holds of a  iff
  whenever a solves the premise, some extension b: Y -> carrier with
  t;b = a solves the body.
* ``CondForall(premise, t, body)``  holds of a  iff whenever a solves
  the premise, every extension of a along t solves the body.

Both quantifiers are guarded: a failing premise makes them hold.  With
no extensions at all, the conditional-forall holds and the
conditional-exists fails (given the premise).

Node constructors do not validate boundary agreement between children,
so ill-formed candidates can be built and then reported on by
`wf_check`; the lowercase helper functions (`conj`, `exists_along`,
...) do insist on well-formed input.

`substitute` translates an expression along a morphism of its arity,
and `canonicalize` names every quantifier target positionally.  Both
are one iterative walk, `_transport`, not limited by nesting depth.
`postorder` is the one iterative walk over the nodes themselves, each
node once and after its children: a node's first hash, `features` and
`is_constructive` go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import and_, is_, or_
from typing import Callable, Iterator

from .category import (
    CatObject,
    CategoryError,
    EnumerationLimitError,
    Morphism,
    SearchIndex,
    canonical_copy,
    compose,
    hom_search,
    identity,
    inverse,
    precompose,
    pushout,
)
from .footprint import Block, Footprint, Structure, Verdict


def _node(cls):
    """A frozen dataclass whose hash is computed once per instance.

    Memo tables hash expression trees over and over; the generated hash
    would walk the whole tree every time, and recursively.
    """
    cls = dataclass(frozen=True)(cls)
    cls._field_hash = cls.__hash__
    cls.__hash__ = _hash
    return cls


def _hash(e) -> int:
    try:
        return e._hash
    except AttributeError:
        pass
    # children first, so that every generated hash finds its children's
    # hashes already stored
    for node in postorder(e, lambda node: hasattr(node, "_hash")):
        object.__setattr__(node, "_hash", node._field_hash())
    return e._hash


@_node
class Expr:
    """Base class; every node carries its arity object."""

    arity: CatObject


@_node
class Atomic(Expr):
    feature: str
    binding: Morphism  # arity(feature) -> arity


@_node
class Top(Expr):
    pass


@_node
class Bot(Expr):
    pass


@_node
class And(Expr):
    left: Expr
    right: Expr


@_node
class Or(Expr):
    left: Expr
    right: Expr


@_node
class Not(Expr):
    body: Expr


@_node
class CondExists(Expr):
    premise: Expr
    var: Morphism  # t: arity -> Y
    body: Expr     # at Y


@_node
class CondForall(Expr):
    premise: Expr
    var: Morphism
    body: Expr


# -- helper constructors (validate eagerly) ---------------------------------

def atom(feature: str, binding: Morphism) -> Atomic:
    return Atomic(binding.cod, feature, binding)


def top(arity: CatObject) -> Top:
    return Top(arity)


def bot(arity: CatObject) -> Bot:
    return Bot(arity)


def conj(left: Expr, right: Expr) -> And:
    if left.arity != right.arity:
        raise CategoryError(f"conjunction of arities {left.arity!r} and {right.arity!r}")
    return And(left.arity, left, right)


def disj(left: Expr, right: Expr) -> Or:
    if left.arity != right.arity:
        raise CategoryError(f"disjunction of arities {left.arity!r} and {right.arity!r}")
    return Or(left.arity, left, right)


def neg(body: Expr) -> Not:
    return Not(body.arity, body)


def cond_exists(premise: Expr, var: Morphism, body: Expr) -> CondExists:
    if premise.arity != var.dom:
        raise CategoryError(f"premise arity {premise.arity!r} differs from {var.dom!r}")
    if body.arity != var.cod:
        raise CategoryError(f"body arity {body.arity!r} differs from {var.cod!r}")
    return CondExists(var.dom, premise, var, body)


def cond_forall(premise: Expr, var: Morphism, body: Expr) -> CondForall:
    if premise.arity != var.dom:
        raise CategoryError(f"premise arity {premise.arity!r} differs from {var.dom!r}")
    if body.arity != var.cod:
        raise CategoryError(f"body arity {body.arity!r} differs from {var.cod!r}")
    return CondForall(var.dom, premise, var, body)


def exists_along(var: Morphism, body: Expr) -> CondExists:
    return cond_exists(Top(var.dom), var, body)


def forall_along(var: Morphism, body: Expr) -> CondForall:
    return cond_forall(Top(var.dom), var, body)


def implies(premise: Expr, conclusion: Expr) -> CondForall:
    """Propositional implication: conditional quantification along the
    identity, where both quantifiers coincide."""
    if premise.arity != conclusion.arity:
        raise CategoryError(
            f"implication of arities {premise.arity!r} and {conclusion.arity!r}")
    return cond_forall(premise, identity(premise.arity), conclusion)


def children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (And, Or)):
        return (e.left, e.right)
    if isinstance(e, Not):
        return (e.body,)
    if isinstance(e, (CondExists, CondForall)):
        return (e.premise, e.body)
    return ()


def postorder(e: Expr, done: Callable[[Expr], bool] = lambda node: False) -> Iterator[Expr]:
    """Every node below `e` once, each after its children, iteratively.

    A node for which `done` holds is skipped with its subtree.  `done` is
    asked as the walk reaches a node, so it sees what the caller did with
    the nodes yielded before.
    """
    seen: set[int] = set()
    stack = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        elif id(node) not in seen and not done(node):
            seen.add(id(node))
            stack.append((node, True))
            stack += [(kid, False) for kid in reversed(children(node))]


def features(e: Expr) -> tuple[str, ...]:
    """The feature names `e` mentions, sorted.

    Over a structure, `e` reads only these features' interpretations and
    the carrier.
    """
    memo: dict[Expr, tuple[str, ...]] = {}
    for node in postorder(e, memo.__contains__):
        if isinstance(node, Atomic):
            memo[node] = (node.feature,)
            continue
        kids = children(node)
        names = memo[kids[0]] if kids else ()
        for kid in kids[1:]:
            if memo[kid] != names:
                names = tuple(sorted(set(names).union(memo[kid])))
        memo[node] = names
    return memo[e]


# ---------------------------------------------------------------------------
# Well-formedness

def wf_check(e: Expr, footprint: Footprint) -> Verdict:
    """Boundary and arity agreement of every node against a footprint.

    Walks iteratively; the witness is the tuple of problems, in preorder.
    """
    problems: list[str] = []
    # (node, path, the arity its connective parent expects, or None)
    stack: list[tuple] = [(e, "expr", None)]
    while stack:
        node, path, expected = stack.pop()
        if expected is not None and node.arity != expected:
            problems.append(f"{path}: arity {node.arity!r} differs from {expected!r}")
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
            stack += [(node.right, f"{path}.right", node.arity),
                      (node.left, f"{path}.left", node.arity)]
        elif isinstance(node, Not):
            stack.append((node.body, f"{path}.body", node.arity))
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
            stack += [(node.body, f"{path}.body", None),
                      (node.premise, f"{path}.premise", None)]
    return Verdict(not problems, tuple(problems) or None)


def is_constructive(e: Expr, *, strict: bool = False) -> bool:
    """No negation and no conditional-forall anywhere.

    With ``strict=True`` additionally every conditional-exists premise
    must be Top; solutions of strict expressions are preserved by
    post-composition with structure homomorphisms.
    """
    return not any(
        isinstance(node, (Not, CondForall))
        or (strict and isinstance(node, CondExists) and not isinstance(node.premise, Top))
        for node in postorder(e))


# ---------------------------------------------------------------------------
# Semantics

class _Evaluator:
    """Solution sets over one structure.

    A solution set, like a structure's facts, is a frozenset of image
    tuples (see `hom_search`).  Atoms and conjunctions go through one hom
    search; `or` and `not` are set algebra, and quantifiers project
    solutions along their variable declaration.  An `exists` with a `top`
    premise never enumerates hom(X, carrier); `top`, `not`, `forall` and
    other premises do.  Solutions are memoized per expression.  Pass a
    `SearchIndex` to share the hom searches' reading plans across the
    structures of one call.
    """

    def __init__(self, structure: Structure, index: SearchIndex | None = None):
        self.structure = structure
        self.index = SearchIndex() if index is None else index
        self.memo: dict[Expr, frozenset] = {}

    def solutions(self, e: Expr) -> frozenset:
        """The solutions of `e` as a frozenset of morphisms."""
        carrier = self.structure.carrier
        return frozenset(Morphism(e.arity, carrier, b) for b in self.tuples(e))

    def tuples(self, e: Expr) -> frozenset:
        out = self.memo.get(e)
        if out is None:
            out = self.memo[e] = self._compute(e)
        return out

    def _compute(self, e: Expr) -> frozenset:
        if isinstance(e, (Atomic, And, Top)):
            atoms = self._conjuncts(e)
            if atoms is None:
                return frozenset()
            return frozenset(hom_search(e.arity, self.structure.carrier, atoms, self.index))
        if isinstance(e, Bot):
            return frozenset()
        if isinstance(e, Or):
            return self.tuples(e.left) | self.tuples(e.right)
        if isinstance(e, Not):
            return self.tuples(Top(e.arity)) - self.tuples(e.body)
        if isinstance(e, (CondExists, CondForall)):
            if e.var.dom != e.arity or e.body.arity != e.var.cod:
                raise CategoryError(
                    f"quantifier along {e.var!r} does not run from the arity "
                    f"{e.arity!r} to the body arity {e.body.arity!r}")
            t = e.var.images
            if isinstance(e, CondExists):
                witnessed = frozenset(precompose(t, b) for b in self.tuples(e.body))
                if isinstance(e.premise, Top):
                    return witnessed
                return (self.tuples(Top(e.arity)) - self.tuples(e.premise)) | witnessed
            # extensions of a along t are the b with t;b = a
            spoiled = {precompose(t, b)
                       for b in self.tuples(Top(e.var.cod)) - self.tuples(e.body)}
            return self.tuples(Top(e.arity)) - (self.tuples(e.premise) & spoiled)
        raise TypeError(f"not an expression node: {e!r}")

    def _conjuncts(self, e: Expr) -> list | None:
        """The hom-search atoms of a conjunction, or None if a conjunct is bot.

        Atomic conjuncts become their feature's facts; `top` adds
        nothing; any other conjunct adds its solutions at the full arity.
        """
        every = tuple(range(e.arity.size))
        atoms = []
        for node, facts in _conjuncts(e, self.structure.facts, self.structure.footprint):
            if isinstance(node, Bot):
                return None
            if isinstance(node, Atomic):
                atoms.append((node.binding.images, frozenset() if facts is None else facts))
            else:
                atoms.append((every, self.tuples(node)))
        return atoms


def _conjuncts(e: Expr, facts: dict, footprint: Footprint) -> Iterator[tuple[Expr, object]]:
    """The conjuncts of `e` but `top`, left to right and checked, up to
    a first `bot`: each atom with its feature's entry in `facts` (None
    when its binding starts elsewhere than at the feature's arity, so
    that no fact matches), any other conjunct with None."""
    arity = e.arity
    stack = [e]
    while stack:
        node = stack.pop()
        if node.arity is not arity and node.arity != arity:
            raise CategoryError(f"conjunct arity {node.arity!r} differs from {arity!r}")
        if isinstance(node, And):
            stack += (node.right, node.left)
        elif isinstance(node, Atomic):
            if node.binding.cod is not arity and node.binding.cod != arity:
                raise CategoryError(
                    f"atom binding ends at {node.binding.cod!r}, "
                    f"expected the arity {arity!r}")
            got = facts.get(node.feature)
            if got is None:
                raise CategoryError(f"structure has no feature {node.feature!r}")
            want = footprint.features[node.feature]
            yield node, got if node.binding.dom is want or node.binding.dom == want else None
        elif isinstance(node, Bot):
            yield node, None
            return
        elif not isinstance(node, Top):
            yield node, None


class _Unlisted(Exception):
    """A hom set `_Masks` needs cannot be listed: past
    HOM_ENUMERATION_CAP, or between objects of two kinds."""


class _Masks:
    """Solution masks over a block of structures on one carrier.

    Bit j of a mask stands for the block's j-th structure, and an
    expression's masks are one int per tuple of hom(arity, carrier), in
    hom-set order: the structures over which that tuple solves it.
    Atoms read their fact's mask; `and`, `or` and `not` are `&`, `|` and
    complement; `exists` ORs the body's masks along its variable and
    `forall` ANDs them.  So one int operation decides a node over the
    whole block.

    Nodes are visited and checked in `_Evaluator`'s order, so an
    ill-formed expression raises the same error.  Every hom set is listed
    no later than `_Evaluator` would search it; one that cannot be listed
    raises `_Unlisted`, and so does a node whose arity `_Evaluator` would
    not check, so the caller can decide the block with `_Evaluator`
    instead.  `plans` holds the hom lists and index maps of the carrier,
    shared by its blocks in one call.
    """

    def __init__(self, block: Block, footprint: Footprint, plans: dict):
        self.block = block
        self.footprint = footprint
        self.plans = plans
        self.all = (1 << block.width) - 1
        self.memo: dict = {}

    def homs(self, arity: CatObject) -> tuple[list, dict]:
        """hom(arity, carrier) as a list of tuples and their positions."""
        got = self.plans.get(arity)
        if got is None:
            try:
                tuples = hom_search(arity, self.block.carrier)
            except (CategoryError, EnumerationLimitError) as exc:
                raise _Unlisted from exc
            got = self.plans[arity] = (tuples, {a: i for i, a in enumerate(tuples)})
        return got

    def pullback(self, m: Morphism) -> list[int]:
        """For each b in hom(m.cod, carrier), the position of m;b in
        hom(m.dom, carrier)."""
        key = ("pullback", m)
        got = self.plans.get(key)
        if got is None:
            pos = self.homs(m.dom)[1]
            t = m.images
            got = self.plans[key] = [pos[precompose(t, b)] for b in self.homs(m.cod)[0]]
        return got

    def holding(self, bound: list[tuple[Expr, Morphism]], context: CatObject) -> list[int]:
        """Per tuple a of hom(context, carrier), the mask of the structures
        where every expression holds at binding;a, for the (expression,
        binding) pairs in `bound`; their expressions are evaluated first,
        in order."""
        values = [self.masks(e) for e, _ in bound]
        out = [self.all] * len(self.homs(context)[0])
        for masks, (_, binding) in zip(values, bound):
            out = list(map(and_, out, map(masks.__getitem__, self.pullback(binding))))
        return out

    def first(self, context: CatObject, failing: list[int]) -> tuple | None:
        """The block's first structure failing at some tuple, with the
        first such tuple as a map, or None; failing[i] masks the
        structures failing at tuple i of hom(context, carrier)."""
        anywhere = reduce(or_, failing, 0)
        if not anywhere:
            return None
        low = anywhere & -anywhere
        i = next(i for i, m in enumerate(failing) if m & low)
        return (self.block.structure(low.bit_length() - 1),
                Morphism(context, self.block.carrier, self.homs(context)[0][i]))

    def masks(self, e: Expr) -> list[int]:
        out = self.memo.get(e)
        if out is None:
            out = self.memo[e] = self._compute(e)
        return out

    def _compute(self, e: Expr) -> list[int]:
        n = len(self.homs(e.arity)[0])
        if isinstance(e, (Atomic, And, Top)):
            return self._conjunction(e, n)
        if isinstance(e, Bot):
            return [0] * n
        if isinstance(e, Or):
            return list(map(or_, self._kid(e, e.left), self._kid(e, e.right)))
        if isinstance(e, Not):
            every = self.all
            return [every ^ m for m in self._kid(e, e.body)]
        if isinstance(e, (CondExists, CondForall)):
            if e.var.dom != e.arity or e.body.arity != e.var.cod:
                raise CategoryError(
                    f"quantifier along {e.var!r} does not run from the arity "
                    f"{e.arity!r} to the body arity {e.body.arity!r}")
            every, into = self.all, self.pullback(e.var)
            body = self.masks(e.body)
            out = [0] * n
            if isinstance(e, CondExists):
                for i, m in zip(into, body):
                    out[i] |= m
                if isinstance(e.premise, Top):
                    return out
                return [(every ^ p) | w for p, w in zip(self._kid(e, e.premise), out)]
            for i, m in zip(into, body):  # the spoiled: some extension fails the body
                out[i] |= every ^ m
            return [every ^ (p & s) for p, s in zip(self._kid(e, e.premise), out)]
        raise TypeError(f"not an expression node: {e!r}")

    def _kid(self, e: Expr, kid: Expr) -> list[int]:
        if kid.arity != e.arity:
            raise _Unlisted  # `_Evaluator` does not check this
        return self.masks(kid)

    def _conjunction(self, e: Expr, n: int) -> list[int]:
        """The conjuncts' masks ANDed; all zero at a `bot`."""
        out = [self.all] * n
        for node, facts in _conjuncts(e, self.block.facts, self.footprint):
            if isinstance(node, Bot):
                return [0] * n
            if not isinstance(node, Atomic):
                out = list(map(and_, out, self.masks(node)))
            elif facts is None:
                out = [0] * n
            else:
                key = ("atom", node.binding)
                at = self.plans.get(key)
                if at is None:
                    t = node.binding.images
                    at = self.plans[key] = [precompose(t, a) for a in self.homs(e.arity)[0]]
                out = list(map(and_, out, map(facts.get, at, repeat(0))))
        return out


def solutions(e: Expr, structure: Structure) -> tuple[Morphism, ...]:
    """All solutions of `e` over the structure, in hom-set order."""
    if e.arity.kind != structure.carrier.kind:
        raise CategoryError(
            f"expression arity {e.arity!r} and carrier {structure.carrier!r} "
            f"have different kinds")
    ev = _Evaluator(structure)
    return tuple(Morphism(e.arity, structure.carrier, b) for b in sorted(ev.tuples(e)))


def holds(a: Morphism, e: Expr, structure: Structure) -> bool:
    """Does the assignment a: arity -> carrier solve the expression?"""
    if a.dom != e.arity:
        raise CategoryError(
            f"assignment starts at {a.dom!r} but the expression arity is {e.arity!r}")
    if a.cod != structure.carrier:
        raise CategoryError(
            f"assignment ends at {a.cod!r} but the carrier is {structure.carrier!r}")
    ev = _Evaluator(structure)
    return a.images in ev.tuples(e)


# ---------------------------------------------------------------------------
# Substitution and canonical renaming

_VISIT = object()


def _transport(e: Expr, t: Morphism | None, bind) -> Expr:
    """Move `e` along t: arity(e) -> Z; t None is the identity.

    Atoms post-compose their binding with t, and connectives pass t on.
    A quantifier's premise moves along t; ``bind(var, t)`` gives its new
    variable declaration and the morphism its body moves along.  Along
    the identity, a connective whose children come back unchanged is kept.
    """
    done: list[Expr] = []
    # (node, t, _VISIT) visits a node; (node, t, var) and (node, t, kids)
    # rebuild a quantifier and a connective from the top of `done`
    todo: list[tuple] = [(e, t, _VISIT)]
    while todo:
        node, t, var = todo.pop()
        if var is _VISIT:
            if t is not None and t.dom is not node.arity and t.dom != node.arity:
                raise CategoryError(
                    f"substitution along {t!r} starting at {t.dom!r}, "
                    f"but the expression arity is {node.arity!r}")
            if isinstance(node, Atomic):
                done.append(node if t is None else
                            Atomic(t.cod, node.feature, compose(node.binding, t)))
            elif isinstance(node, (Top, Bot)):
                done.append(node if t is None else type(node)(t.cod))
            elif isinstance(node, (CondExists, CondForall)):
                var, s = bind(node.var, t)
                todo += ((node, t, var), (node.body, s, _VISIT), (node.premise, t, _VISIT))
            elif isinstance(node, (And, Or, Not)):
                kids = children(node)
                todo += [(node, t, kids)] + [(kid, t, _VISIT) for kid in reversed(kids)]
            else:
                raise TypeError(f"not an expression node: {node!r}")
            continue
        arity = node.arity if t is None else t.cod
        if isinstance(var, Morphism):
            body = done.pop()
            done[-1] = type(node)(arity, done[-1], var, body)
        else:
            new = done[-len(var):]
            del done[-len(var):]
            done.append(node if t is None and all(map(is_, new, var))
                        else type(node)(arity, *new))
    return done[0]


def _pushout_bind(var: Morphism, t: Morphism) -> tuple[Morphism, Morphism]:
    po = pushout(var, t)
    return po.inj_right, po.inj_left   # Z -> apex, Y -> apex


def _canonical_bind(var: Morphism, t: Morphism | None) -> tuple[Morphism, Morphism]:
    iso = canonical_copy(var.cod)
    if t is not None:
        var = compose(inverse(t), var)
    return compose(var, iso), iso


def substitute(e: Expr, t: Morphism) -> Expr:
    """Rebind the expression along t: arity(e) -> Z.

    Atomic bindings are post-composed; quantifier nodes push out their
    variable declaration against t, so the result quantifies over the
    chosen-pushout object with its canonical names.
    """
    return _transport(e, t, _pushout_bind)


def canonicalize(e: Expr) -> Expr:
    """Rename every quantifier target to positional names.

    Two expressions with the same arity are considered equal up to
    bound renaming exactly when their canonical forms are equal.  The
    result is kept on the node, like its hash.
    """
    try:
        c = e._canonical
    except AttributeError:
        c = _transport(e, None, _canonical_bind)
        # None for a node that is its own canonical form: no reference cycle
        object.__setattr__(e, "_canonical", None if c is e else c)
    return e if c is None else c


def exprs_equivalent(a: Expr, b: Expr) -> bool:
    """Structural equality up to canonical renaming of bound names."""
    return canonicalize(a) == canonicalize(b)
