"""Laws of the logic that tie the evaluator's node kinds together.

No law needs a second implementation: each compares the engine with
itself on generated input.

* sol(e) is the disjoint union of sol(e and p) and sol(e and not p);
* sol(e or f) is sol(e) union sol(f), and sol(not not e) is sol(e);
* a conditional forall is the negated conditional exists of the negated
  body under the same premise, or the premise fails;
* the solutions of substitute(e, t), for any t: X -> Z and injective or
  not, are the a: Z -> C with t;a a solution of e, and canonicalize(e)
  has the solutions of e;
* `exprs_equivalent(e, f)` implies equal solutions, on e and a copy with
  its bound names renamed (rewriting keys constraints by canonical
  expression, so equivalent expressions must be interchangeable);
* an exhaustive registry and the explicit registry of its structures, in
  its order, give the same `entails` and `is_sound` verdicts and
  witnesses;
* so does the registry with only the first structure of each
  isomorphism class (`dedup_isomorphic`), because verdicts are invariant
  under isomorphism: the first failing structure is the first of its
  class;
* an entailment (K, premises) |= (K, conclusions) is soundness of the
  rule (K, premises) =id=> (K, conclusions): the same verdict and
  witness over every registry (both end in `registry_verdict`, so this
  guards the wiring of `entails`; the oracle tests of `test_blocks.py`
  and `test_restriction.py` check each side on its own);
* translate-then-satisfy is reduct-then-satisfy (the satisfaction
  condition), for every node kind over set and graph footprints;
* a structure is conservative for a rule exactly when its maximal
  sketch over the rule's expressions is closed under it
  (`check_equivalence`): one search over the structure's relations and
  over the sketch's constraints;
* a sketch that saturates to `closed` is closed under every rule, and
  saturating it again takes no step and returns it;
* the partition law holds through `lfoc solve` on a printed document,
  so the printer, the parser and the JSON output keep solutions.

Expressions come from `helpers.random_expr` (every node kind, non-`top`
premises), structures from `helpers.random_structure`, on set and graph
carriers.
"""

from __future__ import annotations

import json
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import random_expr, random_graph, random_morphism, random_structure
from lfoc import cli
from lfoc.category import FinSet, compose, hom_set, identity, inverse, renaming
from lfoc.dsl import Document, print_document
from lfoc.expr import (
    And,
    Atomic,
    Bot,
    CondExists,
    CondForall,
    Not,
    Or,
    Top,
    canonicalize,
    cond_exists,
    cond_forall,
    conj,
    disj,
    exprs_equivalent,
    neg,
    postorder,
    solutions,
    substitute,
)
from lfoc.footprint import Footprint, StructureRegistry
from lfoc.rules import (
    CLOSED,
    SaturationLimits,
    SketchRule,
    check_equivalence,
    fold_conjunction_rule,
    intro_rule,
    is_closed,
    is_sound,
    saturate,
    unfold_conjunction_rule,
)
from lfoc.sketch import (
    Constraint,
    Interpretation,
    Sketch,
    check_satisfaction_condition,
    entails,
)
from test_orbits import _footprint
from test_restriction import _rule
from test_search import _conjunction, _constraints, _small

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = st.sampled_from(["set", "graph"])
LAWS = settings(max_examples=80, deadline=None)


def _setting(rng, kind):
    """A footprint, a structure over it and an arity for expressions."""
    if kind == "set":
        features = {f"f{i}": FinSet(tuple(f"a{j}" for j in range(rng.randint(0, 2))))
                    for i in range(rng.randint(1, 2))}
    else:
        features = {f"f{i}": random_graph(rng, 1, 2, f"a{i}") for i in range(rng.randint(1, 2))}
    fp = Footprint("FP", kind, features)
    structure = random_structure(rng, fp, _small(rng, kind, 3, "c"), rng.choice((0.2, 0.5, 0.8)))
    return fp, structure, _small(rng, kind, 2, "x")


def _sol(e, structure) -> set:
    return set(solutions(e, structure))


@LAWS
@given(seed=SEEDS, kind=KINDS)
def test_a_partition_splits_the_solutions(seed, kind):
    rng = random.Random(seed)
    fp, structure, x = _setting(rng, kind)
    e, p = random_expr(rng, fp, x, 2), random_expr(rng, fp, x, 1)
    yes, no = _sol(conj(e, p), structure), _sol(conj(e, neg(p)), structure)
    assert not yes & no
    assert yes | no == _sol(e, structure)


@LAWS
@given(seed=SEEDS, kind=KINDS)
def test_or_is_union_and_not_not_is_the_identity(seed, kind):
    rng = random.Random(seed)
    fp, structure, x = _setting(rng, kind)
    e, f = random_expr(rng, fp, x, 2), random_expr(rng, fp, x, 2)
    assert _sol(disj(e, f), structure) == _sol(e, structure) | _sol(f, structure)
    assert _sol(neg(neg(e)), structure) == _sol(e, structure)


@LAWS
@given(seed=SEEDS, kind=KINDS)
def test_forall_is_not_exists_not_under_the_same_premise(seed, kind):
    rng = random.Random(seed)
    fp, structure, x = _setting(rng, kind)
    y = _small(rng, kind, 3, "y")
    t = random_morphism(rng, x, y)
    if t is None:
        return
    premise, body = random_expr(rng, fp, x, 1), random_expr(rng, fp, y, 1)
    every = _sol(cond_forall(premise, t, body), structure)
    assert every == (_sol(neg(cond_exists(premise, t, neg(body))), structure)
                     | _sol(neg(premise), structure))


# cheap, and needs many examples: a search that ignores repeated
# positions fails about one set example in ten
@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_substitution_pulls_solutions_back_and_renaming_keeps_them(seed, kind):
    rng = random.Random(seed)
    # t runs into a smaller object, so it identifies names of x at times
    # and the substituted atoms bind repeated positions
    if kind == "set":
        fp = Footprint("FP", kind, {f"f{i}": _names(rng.randint(1, 2), "a") for i in range(2)})
        carrier, x = _names(rng.randint(2, 3), "c"), _names(3, "x")
        z = _names(rng.randint(1, 2), "z")
    else:
        fp = Footprint("FP", kind, {f"f{i}": random_graph(rng, 2, 2, f"a{i}") for i in range(2)})
        carrier, x = random_graph(rng, 3, 5, "c"), random_graph(rng, 3, 3, "x")
        z = random_graph(rng, 2, 3, "z")
    structure = random_structure(rng, fp, carrier, 0.5)
    t = random_morphism(rng, x, z)
    if t is None:
        return
    for e in dict.fromkeys(n for n in postorder(random_expr(rng, fp, x, 1)) if n.arity == x):
        solved = _sol(e, structure)
        pulled = {a for a in hom_set(z, carrier) if compose(t, a) in solved}
        assert _sol(substitute(e, t), structure) == pulled
        assert _sol(canonicalize(e), structure) == solved


def _renamed(e, t, rng):
    """e moved along the renaming t: arity(e) -> X' (None for the
    identity), with every quantifier's target renamed by a random tag."""
    arity = e.arity if t is None else t.cod
    if isinstance(e, Atomic):
        return Atomic(arity, e.feature, e.binding if t is None else compose(e.binding, t))
    if isinstance(e, (Top, Bot)):
        return type(e)(arity)
    if isinstance(e, (And, Or)):
        return type(e)(arity, _renamed(e.left, t, rng), _renamed(e.right, t, rng))
    if isinstance(e, Not):
        return Not(arity, _renamed(e.body, t, rng))
    assert isinstance(e, (CondExists, CondForall))
    tag = rng.choice(("u_", "v_", "zz"))
    iso = renaming(e.var.cod, {n: tag + n for n in e.var.cod.names})
    var = e.var if t is None else compose(inverse(t), e.var)
    return type(e)(arity, _renamed(e.premise, t, rng), compose(var, iso),
                   _renamed(e.body, iso, rng))


@LAWS
@given(seed=SEEDS, kind=KINDS)
def test_equivalent_expressions_have_equal_solutions(seed, kind):
    rng = random.Random(seed)
    fp, structure, x = _setting(rng, kind)
    e = random_expr(rng, fp, x, 2)
    variant = _renamed(e, None, rng)
    assert exprs_equivalent(e, variant)
    assert _sol(variant, structure) == _sol(e, structure)
    other = random_expr(rng, fp, x, 2)
    if exprs_equivalent(e, other):
        assert _sol(other, structure) == _sol(e, structure)


def _names(n: int, prefix: str) -> FinSet:
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


def _same_verdict(got, want):
    assert bool(got) == bool(want)
    if want.witness is None:
        assert got.witness is None
        return
    (st_got, map_got), (st_want, map_want) = got.witness, want.witness
    assert st_got.name == st_want.name and st_got == st_want
    assert map_got == map_want


@LAWS
@given(seed=SEEDS, kind=KINDS)
def test_an_exhaustive_registry_checks_as_its_listed_structures(seed, kind):
    rng = random.Random(seed)
    picked = _footprint(rng, kind, 300)
    if picked is None:
        return
    fp, used, bounds = picked
    exhaustive = StructureRegistry.exhaustive(fp, bounds)
    others = (StructureRegistry.explicit(list(exhaustive)),
              StructureRegistry.exhaustive(fp, bounds, dedup_isomorphic=True))
    context = _small(rng, kind, 3, "k")
    premises = _constraints(rng, used, context, rng.randint(0, 2))
    conclusions = _constraints(rng, used, context, rng.randint(1, 2))
    rule = _rule(rng, used, kind)
    for other in others:
        _same_verdict(entails(context, premises, conclusions, other),
                      entails(context, premises, conclusions, exhaustive))
        _same_verdict(is_sound(rule, other), is_sound(rule, exhaustive))
    by_identity = SketchRule("", Sketch("", context, premises),
                             Sketch("", context, conclusions), identity(context))
    for registry in (exhaustive, *others):
        _same_verdict(is_sound(by_identity, registry),
                      entails(context, premises, conclusions, registry))


@LAWS
@given(seed=SEEDS, kind=KINDS)
def test_conservativity_is_closedness_of_the_maximal_sketch(seed, kind):
    rng = random.Random(seed)
    fp, structure, _ = _setting(rng, kind)
    result = check_equivalence(structure, _rule(rng, fp, kind))
    assert result.agree, result


@LAWS
@given(seed=SEEDS, kind=KINDS)
def test_a_saturated_sketch_is_closed_and_saturates_in_no_step(seed, kind):
    rng = random.Random(seed)
    fp, _, x = _setting(rng, kind)
    # rules that add constraints in place, which saturation can close,
    # beside random rules that may grow the context
    left, right = _conjunction(rng, fp, x), _conjunction(rng, fp, x)
    both = conj(left, right)
    rules = [unfold_conjunction_rule(both), fold_conjunction_rule(both), intro_rule(left)]
    rules += [_rule(rng, fp, kind, f"r{i}") for i in range(rng.randint(0, 2))]
    rng.shuffle(rules)
    context = _small(rng, kind, 3, "k")
    host_cs = _constraints(rng, fp, context, rng.randint(0, 2))
    phi = random_morphism(rng, x, context)
    if phi is not None:
        host_cs.append(Constraint(both, phi))
    limits = SaturationLimits(max_steps=12, max_elements=5, max_vertices=4, max_edges=6)
    result = saturate(Sketch("h", context, host_cs), rules, limits)
    if result.status != CLOSED:
        return
    for rule in rules:
        assert is_closed(result.sketch, rule)
    again = saturate(result.sketch, rules, limits)
    assert (again.status, again.steps) == (CLOSED, 0)
    assert again.sketch == result.sketch


# about two examples in five find all three maps
@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_satisfaction_is_invariant_under_translation(seed, kind):
    rng = random.Random(seed)
    fp, structure, x = _setting(rng, kind)
    k, m = _small(rng, kind, 2, "k"), _small(rng, kind, 3, "m")
    binding, phi = random_morphism(rng, x, k), random_morphism(rng, k, m)
    i = random_morphism(rng, m, structure.carrier)
    if binding is None or phi is None or i is None:
        return
    c = Constraint(random_expr(rng, fp, x, 2), binding)
    assert check_satisfaction_condition(phi, c, Interpretation(i, structure))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=SEEDS, kind=KINDS)
def test_a_partition_splits_the_solutions_through_the_cli(seed, kind, tmp_path, capsys):
    rng = random.Random(seed)
    fp, structure, x = _setting(rng, kind)
    e, p = random_expr(rng, fp, x, 2), random_expr(rng, fp, x, 1)
    doc = Document(kind, footprints={"FP": fp}, structures={"U": structure},
                   exprs={"e": e, "p": p, "yes": conj(e, p), "no": conj(e, neg(p))})
    path = tmp_path / "partition.lfoc"
    path.write_text(print_document(doc), encoding="utf-8")
    solved = {}
    for name in ("e", "yes", "no"):
        assert cli.main(["solve", str(path), "--expr", name, "--structure", "U"]) == 0
        found = json.loads(capsys.readouterr().out)["solutions"]
        solved[name] = {tuple(sorted(a.items())) for a in found}
        assert len(solved[name]) == len(found)
    assert not solved["yes"] & solved["no"]
    assert solved["yes"] | solved["no"] == solved["e"]
