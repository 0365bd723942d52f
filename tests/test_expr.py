from __future__ import annotations

import random

import pytest

from lfoc.category import (
    CategoryError,
    FinSet,
    Morphism,
    compose,
    hom_set,
    identity,
    inclusion,
    morphism,
)
from lfoc.expr import (
    And,
    Atomic,
    Bot,
    CondExists,
    CondForall,
    Not,
    Or,
    Top,
    atom,
    bot,
    canonicalize,
    cond_exists,
    cond_forall,
    conj,
    disj,
    exists_along,
    exprs_equivalent,
    forall_along,
    holds,
    implies,
    is_constructive,
    neg,
    solutions,
    substitute,
    top,
    wf_check,
)
from lfoc.footprint import CarrierBounds, Footprint, Structure, enumerate_structures
from helpers import random_expr, random_structure

P1 = FinSet(("p",))
P2 = FinSet(("q1", "q2"))
FP = Footprint("FP", "set", {"mark": P1, "likes": P2})

CD = FinSet(("c", "d"))


def mark(*names: str) -> list:
    return [morphism(P1, CD, {"p": n}) for n in names]


def likes(*pairs: tuple[str, str]) -> list:
    return [morphism(P2, CD, {"q1": a, "q2": b}) for a, b in pairs]


def structure(marks=(), like_pairs=()) -> Structure:
    return Structure("S", FP, CD, {"mark": mark(*marks), "likes": likes(*like_pairs)})


X = P1


def assignment(value: str) -> Morphism:
    return morphism(X, CD, {"p": value})


def test_atomic_clause():
    st = structure(marks=("c",))
    e = atom("mark", identity(P1))
    assert holds(assignment("c"), e, st)
    assert not holds(assignment("d"), e, st)


def test_top_bot_clauses():
    st = structure()
    assert holds(assignment("c"), top(X), st)
    assert not holds(assignment("c"), bot(X), st)
    assert solutions(bot(X), st) == ()
    assert set(solutions(top(X), st)) == set(hom_set(X, CD))


def test_boolean_clauses():
    st = structure(marks=("c",))
    e = atom("mark", identity(P1))
    assert holds(assignment("c"), conj(e, top(X)), st)
    assert not holds(assignment("c"), conj(e, bot(X)), st)
    assert holds(assignment("d"), disj(e, top(X)), st)
    assert not holds(assignment("d"), disj(e, bot(X)), st)
    assert holds(assignment("d"), neg(e), st)
    assert not holds(assignment("c"), neg(e), st)


def test_exists_clause():
    # someone the assigned element likes is marked
    st = structure(marks=("d",), like_pairs=(("c", "d"),))
    Y = FinSet(("p", "w"))
    t = inclusion(X, Y)
    body = conj(atom("likes", morphism(P2, Y, {"q1": "p", "q2": "w"})),
                atom("mark", morphism(P1, Y, {"p": "w"})))
    e = exists_along(t, body)
    assert holds(assignment("c"), e, st)
    assert not holds(assignment("d"), e, st)


def test_forall_clause():
    # everyone the assigned element likes is marked
    st = structure(marks=("d",), like_pairs=(("c", "d"), ("d", "c")))
    Y = FinSet(("p", "w"))
    t = inclusion(X, Y)
    body = implies(atom("likes", morphism(P2, Y, {"q1": "p", "q2": "w"})),
                   atom("mark", morphism(P1, Y, {"p": "w"})))
    e = forall_along(t, body)
    assert holds(assignment("c"), e, st)   # c likes only d, which is marked
    assert not holds(assignment("d"), e, st)  # d likes c, unmarked


def test_false_premise_makes_quantifiers_hold():
    st = structure()
    t = identity(X)
    assert holds(assignment("c"), cond_exists(bot(X), t, bot(X)), st)
    assert holds(assignment("c"), cond_forall(bot(X), t, bot(X)), st)


def test_no_extensions_guarded_behaviour():
    # collapsing two names forces b(y) to extend both; no extension exists
    # when the assignment separates them
    two = FinSet(("u1", "u2"))
    one = FinSet(("y",))
    t = morphism(two, one, {"u1": "y", "u2": "y"})
    st = structure()
    split = morphism(two, CD, {"u1": "c", "u2": "d"})
    assert holds(split, cond_forall(top(two), t, bot(one)), st)
    assert not holds(split, cond_exists(top(two), t, top(one)), st)


def test_solutions_subset_of_hom_in_order():
    st = structure(marks=("c", "d"), like_pairs=(("c", "c"),))
    e = disj(atom("mark", identity(P1)), bot(X))
    sols = solutions(e, st)
    hom = hom_set(X, CD)
    assert all(s in hom for s in sols)
    positions = [hom.index(s) for s in sols]
    assert positions == sorted(positions)


def test_holds_boundary_errors():
    st = structure()
    with pytest.raises(CategoryError):
        holds(morphism(P2, CD, {"q1": "c", "q2": "c"}), top(X), st)
    other = FinSet(("zz",))
    with pytest.raises(CategoryError):
        holds(morphism(X, other, {"p": "zz"}), top(X), st)


def test_wf_check_flags_problems():
    ok = atom("mark", identity(P1))
    assert wf_check(ok, FP)
    unknown = Atomic(P1, "nope", identity(P1))
    assert not wf_check(unknown, FP)
    # binding out of the wrong arity
    bad_binding = Atomic(P1, "likes", identity(P1))
    report = wf_check(bad_binding, FP)
    assert not report and any("likes" in p for p in report.witness)
    # mismatched conjunction arities, built via the raw node
    mixed = And(P1, top(P1), top(P2))
    assert not wf_check(mixed, FP)
    # quantifier whose body does not live at the variable target
    broken = CondExists(P1, top(P1), identity(P1), top(P2))
    assert not wf_check(broken, FP)


def test_helper_constructors_validate():
    with pytest.raises(CategoryError):
        conj(top(P1), top(P2))
    with pytest.raises(CategoryError):
        cond_exists(top(P2), identity(P1), top(P1))
    with pytest.raises(CategoryError):
        implies(top(P1), top(P2))


def test_de_morgan_exhaustive():
    e = atom("mark", identity(P1))
    f = atom("likes", morphism(P2, P1, {"q1": "p", "q2": "p"}))
    for st in enumerate_structures(FP, CarrierBounds(max_elements=2)):
        lhs = set(solutions(neg(conj(e, f)), st))
        rhs = set(solutions(disj(neg(e), neg(f)), st))
        assert lhs == rhs
        lhs = set(solutions(neg(disj(e, f)), st))
        rhs = set(solutions(conj(neg(e), neg(f)), st))
        assert lhs == rhs


def test_de_morgan_randomized():
    rng = random.Random(7)
    for _ in range(60):
        carrier = FinSet(("x1", "x2"))
        st = random_structure(rng, FP, carrier)
        e = random_expr(rng, FP, P1, depth=1)
        f = random_expr(rng, FP, P1, depth=1)
        lhs = set(solutions(neg(conj(e, f)), st))
        rhs = set(solutions(disj(neg(e), neg(f)), st))
        assert lhs == rhs


def test_closed_formulas_have_at_most_one_solution():
    rng = random.Random(11)
    empty = FinSet(())
    for _ in range(40):
        st = random_structure(rng, FP, CD)
        e = random_expr(rng, FP, empty, depth=2)
        assert len(solutions(e, st)) <= 1


# ---------------------------------------------------------------------------
# Substitution

def test_substitute_atomic_postcomposes():
    Z = FinSet(("z1", "z2"))
    t = morphism(P1, Z, {"p": "z2"})
    e = atom("mark", identity(P1))
    out = substitute(e, t)
    assert isinstance(out, Atomic)
    assert out.arity == Z and out.binding == compose(identity(P1), t)


def test_substitute_semantics_quantifier_free():
    st = structure(marks=("c",), like_pairs=(("c", "d"),))
    Z = FinSet(("z1", "z2"))
    e = disj(atom("mark", identity(P1)), neg(atom("mark", identity(P1))))
    e = conj(e, atom("mark", identity(P1)))
    for t in hom_set(P1, Z):
        out = substitute(e, t)
        for a in hom_set(Z, CD):
            assert holds(a, out, st) == holds(compose(t, a), e, st)


def test_substitute_semantics_with_quantifiers():
    rng = random.Random(3)
    Z = FinSet(("z1", "z2"))
    for _ in range(40):
        st = random_structure(rng, FP, CD)
        e = random_expr(rng, FP, P1, depth=2)
        t = rng.choice(hom_set(P1, Z))
        out = substitute(e, t)
        for a in hom_set(Z, CD):
            assert holds(a, out, st) == holds(compose(t, a), e, st)


def test_substitute_along_identity_is_renaming():
    Y = FinSet(("p", "w"))
    e = exists_along(inclusion(P1, Y),
                     atom("likes", morphism(P2, Y, {"q1": "p", "q2": "w"})))
    out = substitute(e, identity(P1))
    assert out.arity == e.arity
    assert exprs_equivalent(out, e)
    assert out != e  # pushout renames the bound object


def test_canonicalize_idempotent():
    Y = FinSet(("p", "w"))
    e = exists_along(inclusion(P1, Y),
                     conj(atom("likes", morphism(P2, Y, {"q1": "p", "q2": "w"})),
                          top(Y)))
    assert canonicalize(canonicalize(e)) == canonicalize(e)


def test_exprs_equivalent_ignores_bound_names():
    Y1 = FinSet(("p", "w"))
    Y2 = FinSet(("p", "other"))
    e1 = exists_along(inclusion(P1, Y1),
                      atom("likes", morphism(P2, Y1, {"q1": "p", "q2": "w"})))
    e2 = exists_along(morphism(P1, Y2, {"p": "p"}),
                      atom("likes", morphism(P2, Y2, {"q1": "p", "q2": "other"})))
    assert exprs_equivalent(e1, e2)
    e3 = exists_along(inclusion(P1, Y1),
                      atom("likes", morphism(P2, Y1, {"q1": "w", "q2": "p"})))
    assert not exprs_equivalent(e1, e3)


# ---------------------------------------------------------------------------
# Constructive fragment

def test_is_constructive_liberal_and_strict():
    e = atom("mark", identity(P1))
    assert is_constructive(e)
    assert is_constructive(e, strict=True)
    assert not is_constructive(neg(e))
    assert not is_constructive(forall_along(identity(P1), e))
    guarded = cond_exists(e, identity(P1), e)
    assert is_constructive(guarded)
    assert not is_constructive(guarded, strict=True)
    unguarded = exists_along(identity(P1), e)
    assert is_constructive(unguarded, strict=True)


def test_strict_constructive_solutions_preserved():
    # solutions of strict expressions are carried forward by structure
    # homomorphisms
    from lfoc.footprint import is_structure_hom

    src = structure(marks=("c",), like_pairs=(("c", "d"),))
    dst = structure(marks=("c", "d"), like_pairs=(("c", "d"), ("d", "d")))
    ident = identity(CD)
    assert is_structure_hom(ident, src, dst)
    Y = FinSet(("p", "w"))
    e = exists_along(inclusion(P1, Y),
                     conj(atom("likes", morphism(P2, Y, {"q1": "p", "q2": "w"})),
                          atom("mark", morphism(P1, Y, {"p": "p"}))))
    assert is_constructive(e, strict=True)
    for a in solutions(e, src):
        assert compose(a, ident) in set(solutions(e, dst))
