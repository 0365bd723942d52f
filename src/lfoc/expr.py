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

Both quantifiers are guarded: an unsolved premise makes them hold.  With
no extensions at all, the conditional-forall holds and the
conditional-exists fails (given the premise).

Node constructors do not validate boundary agreement between children,
so ill-formed candidates can be built and then reported on by
`wf_check`; the lowercase helper functions (`conj`, `exists_along`,
...) do insist on well-formed input.

`_Evaluator` computes solutions over a block of structures on one
carrier, each solution with the mask of the structures it solves the
expression over; a single structure is the block of width 1.  Every
command and registry check evaluates through it, from a stack: a node's
`_compute` yields the nodes whose values it reads.

`substitute` translates an expression along a morphism of its arity,
and `canonicalize` names every quantifier target positionally: one
walk, `_transport`.  `postorder` walks the nodes themselves, each node
once and after its children: a node's first hash, `features` and
`is_constructive` go through it.  No walk here recurses.
"""

from __future__ import annotations

from operator import is_
from typing import Callable, Iterator

from .category import (
    CatObject,
    CategoryError,
    Morphism,
    Record,
    canonical_copy,
    compose,
    hom_search,
    identity,
    inverse,
    pushout,
)
from .footprint import Block, Footprint, Structure, Verdict


class Expr(Record):
    """Base class; every node carries its arity object.

    A node's hash, that of the tuple of its fields, is computed once, an
    inner node's children first over `postorder`: memo tables hash
    expression trees over and over.  Its `repr` is kept on the node it
    was asked of.
    """

    __slots__ = ("arity", "_hash", "_canonical", "_repr")
    _fields = ("arity",)

    def __init__(self, arity: CatObject):
        self.arity = arity

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        nodes = postorder(self, lambda node: hasattr(node, "_hash")) if children(self) else (self,)
        for node in nodes:
            node._hash = hash(node._values())
        return self._hash

    def __repr__(self) -> str:
        try:
            return self._repr
        except AttributeError:
            self._repr = text = super().__repr__()
            return text


class Atomic(Expr):
    __slots__ = ("feature", "binding")
    _fields = ("arity", "feature", "binding")

    def __init__(self, arity: CatObject, feature: str, binding: Morphism):
        self.arity, self.feature = arity, feature
        self.binding = binding  # arity(feature) -> arity


class Top(Expr):
    __slots__ = ()


class Bot(Expr):
    __slots__ = ()


class _Binary(Expr):
    __slots__ = ("left", "right")
    _fields = ("arity", "left", "right")

    def __init__(self, arity: CatObject, left: Expr, right: Expr):
        self.arity, self.left, self.right = arity, left, right


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Not(Expr):
    __slots__ = ("body",)
    _fields = ("arity", "body")

    def __init__(self, arity: CatObject, body: Expr):
        self.arity, self.body = arity, body


class _Conditional(Expr):
    __slots__ = ("premise", "var", "body")
    _fields = ("arity", "premise", "var", "body")

    def __init__(self, arity: CatObject, premise: Expr, var: Morphism, body: Expr):
        self.arity, self.premise = arity, premise
        self.var, self.body = var, body  # t: arity -> Y, and the body at Y


class CondExists(_Conditional):
    __slots__ = ()


class CondForall(_Conditional):
    __slots__ = ()


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
    """Solutions over a block of structures on one carrier, as masks.

    The value of an expression maps each tuple of hom(arity, carrier)
    (see `hom_search`) that solves it over some structure of the block to
    the mask of those structures, bit j for the j-th, leaving out mask 0.
    A single `Structure` is the block of width 1: its value maps each
    solution to 1.  Atoms and conjunctions are one hom search over the
    facts' masks; `or` ORs masks, `not` complements them, and quantifiers
    project masks along their variable declaration.  An `exists` with a
    `top` premise never lists hom(arity, carrier); `top`, `not`, `forall`
    and other premises do.  Values are memoized per expression.
    """

    def __init__(self, structure: Structure | Block):
        self.structure = structure
        self.carrier = structure.carrier
        self.full = (1 << structure.width) - 1
        self.memo: dict[Expr, dict] = {}

    def masks(self, e: Expr) -> dict:
        """Runs `_compute` from a stack, each sent the values it yields."""
        memo = self.memo
        out = memo.get(e)
        stack = [] if out is not None else [(e, self._compute(e))]
        while stack:
            node, steps = stack[-1]
            try:
                need = steps.send(out)
            except StopIteration as done:
                out = memo[node] = done.value
                stack.pop()
                continue
            out = memo.get(need)
            if out is None:
                stack.append((need, self._compute(need)))
        return out

    def holding(self, context: CatObject, atoms: list) -> dict:
        """Per tuple of hom(context, carrier), in hom-set order, the mask
        of the structures where every hom-search atom holds of it (a set
        of facts holding in all of them), leaving out mask 0.  An atom
        that binds no name, holding at every bit of the block, keeps each
        mask within the block."""
        return hom_search(context, self.carrier, [*atoms, ((), {(): self.full})])

    def _compute(self, e: Expr) -> Iterator[Expr]:
        full = self.full
        if isinstance(e, (Atomic, And, Top)):
            # one hom search over the conjuncts, checked left to right: an
            # atom reads its feature's facts (none if its binding starts
            # elsewhere than at the feature's arity), `top` adds nothing, a
            # `bot` makes the value empty and any other conjunct, yielded,
            # adds its value
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
                    return {}
                elif not isinstance(node, Top):
                    atoms.append((every, (yield node)))
            return self.holding(arity, atoms)
        if isinstance(e, Bot):
            return {}
        if isinstance(e, Or):
            return _or((yield e.left), (yield e.right))
        if isinstance(e, Not):
            return _complement((yield Top(e.arity)), (yield e.body), full)
        if isinstance(e, (CondExists, CondForall)):
            _check_quantifier(e)
            t = e.var.images
            if isinstance(e, CondExists):
                witnessed = _along(t, (yield e.body))
                if isinstance(e.premise, Top):
                    return witnessed
                every, premise = (yield Top(e.arity)), (yield e.premise)
                return _or(_complement(every, premise, full), witnessed)
            # extensions of a along t are the b with t;b = a; the spoiled
            # are the a with some extension outside the body
            extensions = yield Top(e.var.cod)
            spoiled = _along(t, _complement(extensions, (yield e.body), full))
            every, premise = (yield Top(e.arity)), (yield e.premise)
            return _complement(every, _and(premise, spoiled), full)
        raise TypeError(f"not an expression node: {e!r}")


def _check_quantifier(e: CondExists | CondForall) -> None:
    if e.var.dom != e.arity or e.body.arity != e.var.cod:
        raise CategoryError(
            f"quantifier along {e.var!r} does not run from the arity "
            f"{e.arity!r} to the body arity {e.body.arity!r}")


# -- operations on masks, each value a dict from tuples to nonzero masks ------

def _or(left: dict, right: dict) -> dict:
    if len(left) < len(right):
        left, right = right, left
    out = left.copy()
    for a, m in right.items():
        out[a] = out.get(a, 0) | m
    return out


def _and(left: dict, right: dict) -> dict:
    if len(left) > len(right):
        left, right = right, left
    return {a: both for a, m in left.items() if (both := m & right.get(a, 0))}


def _complement(every: dict, value: dict, full: int) -> dict:
    """The complement of `value` within `every`, the top value."""
    out = dict.fromkeys(every.keys() - value.keys(), full)
    if set(value.values()) - {full}:
        out.update((a, full ^ m) for a, m in value.items() if m != full and a in every)
    return out


def _along(t: tuple[int, ...], value: dict) -> dict:
    """The value's masks ORed per t;b, for each of its tuples b."""
    images = (tuple([b[p] for p in t]) for b in value)
    if len(set(value.values())) == 1:  # one mask: nothing to OR
        return dict.fromkeys(images, next(iter(value.values())))
    out: dict = {}
    for a, m in zip(images, value.values()):
        out[a] = out.get(a, 0) | m
    return out


def solutions(e: Expr, structure: Structure) -> tuple[Morphism, ...]:
    """All solutions of `e` over the structure, in hom-set order."""
    if e.arity.kind != structure.carrier.kind:
        raise CategoryError(
            f"expression arity {e.arity!r} and carrier {structure.carrier!r} "
            f"have different kinds")
    ev = _Evaluator(structure)
    return tuple(Morphism(e.arity, structure.carrier, b) for b in sorted(ev.masks(e)))


def holds(a: Morphism, e: Expr, structure: Structure) -> bool:
    """Does the assignment a: arity -> carrier solve the expression?"""
    if a.dom != e.arity:
        raise CategoryError(
            f"assignment starts at {a.dom!r} but the expression arity is {e.arity!r}")
    if a.cod != structure.carrier:
        raise CategoryError(
            f"assignment ends at {a.cod!r} but the carrier is {structure.carrier!r}")
    return a.images in _Evaluator(structure).masks(e)


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
                _check_quantifier(node)
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
        e._canonical = None if c is e else c
    return e if c is None else c


def exprs_equivalent(a: Expr, b: Expr) -> bool:
    """Structural equality up to canonical renaming of bound names."""
    return canonicalize(a) == canonicalize(b)
