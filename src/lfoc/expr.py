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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .category import (
    CatObject,
    CategoryError,
    Morphism,
    SearchIndex,
    canonical_copy,
    compose,
    from_images,
    hom_search,
    identity,
    inverse,
    precompose,
    pushout,
)
from .footprint import Footprint, Report, Structure


def _node(cls):
    """A frozen dataclass whose hash is computed once per instance.

    Memo tables hash expression trees over and over; the generated hash
    would walk the whole tree every time.
    """
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


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


def subexpressions(e: Expr) -> Iterator[Expr]:
    yield e
    for child in children(e):
        yield from subexpressions(child)


def depth(e: Expr) -> int:
    kids = children(e)
    return 1 + max((depth(k) for k in kids), default=0)


# ---------------------------------------------------------------------------
# Well-formedness

def wf_check(e: Expr, footprint: Footprint) -> Report:
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
    return Report(not problems, tuple(problems))


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


# ---------------------------------------------------------------------------
# Semantics

class _Evaluator:
    """Solution sets over one structure, memoized per sub-expression.

    Internally a solution set is a frozenset of image tuples (see
    `hom_search`).  Atoms and conjunctions go through one hom search;
    `or` and `not` are set algebra, and quantifiers project solutions
    along their variable declaration.  An `exists` with a `top` premise
    never enumerates hom(X, carrier); `top`, `not`, `forall` and other
    premises do.  Pass a `SearchIndex` to share lookups across the
    structures of one call.
    """

    def __init__(self, structure: Structure, index: SearchIndex | None = None):
        self.structure = structure
        self.index = SearchIndex() if index is None else index
        self.memo: dict[Expr, frozenset] = {}
        self._facts: dict[tuple[str, CatObject], frozenset] = {}

    def solutions(self, e: Expr) -> frozenset:
        """The solutions of `e` as a frozenset of morphisms."""
        carrier = self.structure.carrier
        return frozenset(from_images(e.arity, carrier, b) for b in self.tuples(e))

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
        nothing; any other conjunct, or one already solved, adds its
        solutions at the full arity.
        """
        arity = e.arity
        every = tuple(range(arity.size))
        atoms = []
        stack = [e]
        while stack:
            node = stack.pop()
            if node.arity is not arity and node.arity != arity:
                raise CategoryError(f"conjunct arity {node.arity!r} differs from {arity!r}")
            solved = self.memo.get(node) if node is not e else None
            if solved is not None:
                atoms.append((every, solved))
            elif isinstance(node, And):
                stack += (node.right, node.left)
            elif isinstance(node, Atomic):
                if node.binding.cod is not arity and node.binding.cod != arity:
                    raise CategoryError(
                        f"atom binding ends at {node.binding.cod!r}, "
                        f"expected the arity {arity!r}")
                atoms.append((node.binding.images,
                              self._listed(node.feature, node.binding.dom)))
            elif isinstance(node, Bot):
                return None
            elif not isinstance(node, Top):
                atoms.append((every, self.tuples(node)))
        return atoms

    def _listed(self, feature: str, arity: CatObject) -> frozenset:
        """Image tuples of the feature's listed morphisms arity -> carrier.

        A listed morphism with another domain or codomain never matches.
        """
        key = (feature, arity)
        out = self._facts.get(key)
        if out is None:
            carrier = self.structure.carrier
            out = self._facts[key] = frozenset(
                m.images for m in self.structure.interp(feature)
                if m.dom == arity and m.cod == carrier)
        return out


def solutions(e: Expr, structure: Structure) -> tuple[Morphism, ...]:
    """All solutions of `e` over the structure, in hom-set order."""
    if e.arity.kind != structure.carrier.kind:
        raise CategoryError(
            f"expression arity {e.arity!r} and carrier {structure.carrier!r} "
            f"have different kinds")
    ev = _Evaluator(structure)
    return tuple(from_images(e.arity, structure.carrier, b) for b in sorted(ev.tuples(e)))


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


def exprs_equivalent(a: Expr, b: Expr) -> bool:
    """Structural equality up to canonical renaming of bound names."""
    return canonicalize(a) == canonicalize(b)
