"""Walks that do not recurse: nothing in `src/lfoc` does.

`wf_check`, `is_constructive` and `repr` are stack loops.  On generated
set and graph expressions, checked against their own and other
footprints, and on ill-formed nodes they must give the recursive walks'
answers (`oracle.wf_check`, `oracle.is_constructive`, and the dataclass
text of `oracle.expr_repr`), problems in the same order and words.  The
first hash of an expression stores every node's hash of the tuple of
its fields without recursing.  All of them, and the `Constraint` and
`Sketch` built on an expression, must return on chains nested far past
Python's recursion limit.  `postorder`, the walk under
the first hash, `features` and `is_constructive`, yields every node of a
DAG once and after its children, and skips what its `done` rules out.

The expression parser, the evaluator, the printer, `expr_json` and
expression `==` are loops too, held to the recursive versions in
`tests/oracle.py`: generated and token-mutated texts parse to the same
document or fail with the same error at the same place; text, JSON and
masks over registry blocks are the same; `==` agrees on equal trees
with no node in common and on trees that differ in one node; and
ill-formed nodes nested in pairs raise the same first error.  A
tripwire reads each module's call graph and fails on any cycle.
"""

from __future__ import annotations

import ast
import itertools
import pathlib
import random

from hypothesis import given, settings, strategies as st

import lfoc
import oracle
from helpers import random_expr
from lfoc.category import FinGraph, FinSet, Morphism, identity, inclusion
from lfoc.dsl import Document, ParseError, _lex, _Printer, parse_document, print_document
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
    _Evaluator,
    atom,
    children,
    cond_exists,
    exists_along,
    forall_along,
    is_constructive,
    postorder,
    top,
    wf_check,
)
from lfoc.jsonio import expr_json
from lfoc.sketch import Constraint, Sketch
from test_blocks import _registries
from test_expr import FP, P1, P2, structure
from test_roundtrip import DocumentWriter
from test_search import _footprint, _small
from test_transport import _not_chain

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = st.sampled_from(["set", "graph"])

MARK = atom("mark", identity(P1))

# the ill-formed nodes of test_expr.py, alone and nested
UNKNOWN = Atomic(P1, "nope", identity(P1))
BAD_BINDING = Atomic(P1, "likes", identity(P1))
MIXED = And(P1, top(P1), top(P2))
BROKEN = CondExists(P1, top(P1), identity(P1), top(P2))
ILL_FORMED = (
    UNKNOWN, BAD_BINDING, MIXED, BROKEN,
    Or(P1, And(P1, BAD_BINDING, MIXED), Not(P2, BROKEN)),
    CondForall(P2, MIXED, identity(P1), Not(P1, UNKNOWN)),
    CondExists(P1, BROKEN, identity(P2), Or(P1, UNKNOWN, Not(P1, BAD_BINDING))),
)


def _nodes(e):
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack += children(node)


def _check_walks(e, footprint):
    assert wf_check(e, footprint) == oracle.wf_check(e, footprint)
    for strict in (False, True):
        assert is_constructive(e, strict=strict) == oracle.is_constructive(e, strict=strict)
    assert repr(e) == oracle.expr_repr(e)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_walks_equal_the_recursive_ones_on_generated_expressions(seed, kind):
    rng = random.Random(seed)
    fp = _footprint(rng, kind)
    e = random_expr(rng, fp, _small(rng, kind, 3, ""), rng.randint(0, 2))
    # a foreign footprint of either kind makes most expressions ill-formed
    for footprint in (fp, _footprint(rng, kind), FP):
        _check_walks(e, footprint)


def test_walks_equal_the_recursive_ones_on_ill_formed_nodes():
    for e in ILL_FORMED:
        assert not wf_check(e, FP)
        _check_walks(e, FP)


def test_stored_hash_is_the_generated_one():
    rng = random.Random(3)
    for _ in range(50):
        kind = rng.choice(["set", "graph"])
        e = random_expr(rng, _footprint(rng, kind), _small(rng, kind, 3, ""), 2)
        hash(e)
        for node in _nodes(e):
            fields = tuple(getattr(node, f) for f in node._fields)
            assert node._hash == hash(fields)


def test_repr_of_a_deep_not_chain():
    e = _not_chain(MARK, 10_000)
    # a subtree's stored text is copied into the text of the nodes above it
    below = repr(e.body.body)
    text = repr(e)
    assert text == "Not(arity=set{p}, body=" * 10_000 + repr(MARK) + ")" * 10_000
    assert text is repr(e) and below in text
    # only the nodes asked keep their text
    assert not hasattr(e.body, "_repr")


def _and_chain(bottom, n):
    e = bottom
    for _ in range(n):
        e = And(P1, e, MARK)
    return e


def test_walks_return_on_a_deep_and_chain():
    e = _and_chain(MARK, 5000)
    assert wf_check(e, FP)
    assert is_constructive(e, strict=True)
    assert not is_constructive(And(P1, e, Not(P1, MARK)))
    res = wf_check(_and_chain(UNKNOWN, 5000), FP)
    assert not res
    assert res.witness == ("expr" + ".left" * 5000 + ": unknown feature 'nope'",)


def test_constraint_and_sketch_on_a_deep_not_chain():
    e = _not_chain(MARK, 5000)
    c = Constraint(e, identity(P1))
    sk = Sketch("deep", P1, [c])
    assert c in sk.constraints
    assert hash(Constraint(e, identity(P1))) == hash(c)
    assert hash(_not_chain(MARK, 5000)) == hash(e)


def _check_postorder(e, order):
    place = {id(node): i for i, node in enumerate(order)}
    assert len(place) == len(order), "a node came twice"
    assert order[-1] is e
    for node in order:
        assert all(place[id(kid)] < place[id(node)] for kid in children(node))


def test_postorder_yields_a_shared_node_once_after_its_children():
    shared = And(P1, MARK, top(P1))
    only_right = atom("other", identity(P1))
    left = Not(P1, shared)
    right = And(P1, shared, only_right)
    e = Or(P1, left, right)
    order = list(postorder(e))
    _check_postorder(e, order)
    assert {id(n) for n in order} == {id(n) for n in (e, left, right, shared, MARK,
                                                      shared.right, only_right)}
    # pruning the right branch keeps what the left branch reaches
    pruned = list(postorder(e, lambda node: node is right))
    assert [n for n in order if n is not right and n is not only_right] == pruned


def test_postorder_returns_on_a_deep_or_chain():
    e = MARK
    for _ in range(5000):
        e = Or(P1, e, MARK)
    order = list(postorder(e))
    _check_postorder(e, order)
    assert len(order) == 5001 and order[0] is MARK


# -- the parser, the evaluator, the printer, JSON and `==` against the
# recursive versions in oracle.py

# tokens a mutation puts into an expression
VOCABULARY = ("not", "and", "or", "(", ")", "given", "exists", "forall", "into", ".",
              "top", "bot", "[", "]", ";", "->", "@")


def _outcome(parse, text):
    """The parsed document, or the error with where it points."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.line, exc.col, str(exc)


def _mutated(rng, tokens):
    """`tokens` with one to three tokens of an expression definition
    deleted, doubled, swapped with the next or replaced."""
    spans = []
    for i, tok in enumerate(tokens):
        if tok == "expr" and (i == 0 or tokens[i - 1] == ";") and "=" in tokens[i:]:
            start = tokens.index("=", i) + 1
            spans += range(start, tokens.index(";", start) + 1)
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3) if spans else 0):
        j = min(rng.choice(spans), len(tokens) - 1)
        how = rng.randrange(4)
        if how == 0:
            del tokens[j]
        elif how == 1:
            tokens.insert(j, tokens[j])
        elif how == 2:
            tokens[j:j + 2] = tokens[j + 1:j + 2] + tokens[j:j + 1]
        else:
            tokens[j] = rng.choice(VOCABULARY)
    return " ".join(tokens)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_parser_equals_the_recursive_one_on_printed_and_mutated_texts(seed, kind):
    rng = random.Random(seed)
    text = DocumentWriter(rng, kind).write()
    texts = [text, print_document(parse_document(text))]
    for source in list(texts):
        tokens = _lex(source, "<input>")[0][:-1]
        texts += [_mutated(rng, tokens) for _ in range(8)]
    for text in texts:
        assert _outcome(parse_document, text) == _outcome(oracle.parse_document, text)


def test_parser_equals_the_recursive_one_on_nested_terms():
    head = ("base set; obj P { p }; obj Q { p q }; footprint F { feature m : P; }; "
            "expr e : P = ")
    terms = ["not not m([p->p])", "(not m([p->p]) or top) and bot",
             "given m([p->p]) or top exists into Q . m([p->q]) and top",
             "not exists into Q . m([p->q]) or forall [p->q] into Q . bot",
             "m([p->p]) and given (bot) forall into Q . (m([p->p]))",
             "given given top exists into Q . bot exists into Q . top",
             "((m([p->p])) or (not (top)))", "not", "(m([p->p])", "m([p->p]) )",
             "given top", "exists into Q", "top and or bot", "( )"]
    for term in terms:
        for text in (head + term + ";", head + term + " ; expr f : P = e and e;"):
            assert _outcome(parse_document, text) == _outcome(oracle.parse_document, text)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_text_json_and_masks_equal_the_recursive_ones(seed, kind):
    rng = random.Random(seed)
    for registry, used in _registries(rng, kind):
        arity = _small(rng, kind, 2, "q")
        exprs = [random_expr(rng, used, arity, rng.randint(0, 2)) for _ in range(3)]
        doc = Document(kind, footprints={"F": used},
                       exprs={f"e{i}": e for i, e in enumerate(exprs)})
        assert print_document(doc) == oracle.print_document(doc)
        for e in exprs:
            assert _Printer(doc).term(e) == oracle.RecursivePrinter(doc).term(e)
            assert expr_json(e) == oracle.expr_json(e)
        for block in itertools.islice(registry.blocks(sorted(used.features)), 4):
            ev, recursive = _Evaluator(block), oracle.RecursiveEvaluator(block)
            for e in exprs:
                assert list(ev.masks(e).items()) == list(recursive.masks(e).items())


def test_printer_names_quantifier_targets_in_preorder():
    # no target is defined, so the printer names them as it reaches them:
    # the expression's target, then its premise's, then its body's
    p, a, b = FinSet(("p",)), FinSet(("p", "a")), FinSet(("p", "b"))
    c = FinSet(("p", "b", "c"))
    premise = exists_along(inclusion(p, a), top(a))
    e = cond_exists(premise, inclusion(p, b), forall_along(inclusion(b, c), top(c)))
    doc = Document("set", exprs={"e": e})
    text = print_document(doc)
    assert text == oracle.print_document(doc)
    assert [line.split(" {")[0] for line in text.splitlines()[2:6]] == \
        ["obj _O1", "obj _O2", "obj _O3", "obj _O4"]
    assert "= given (exists [p->p] into _O3 . top) exists [p->p] into _O2 . " \
        "forall [p->p; b->b] into _O4 . top;" in text


def _copy(value, changed=None):
    """A copy of `value` with no node, object or morphism in common; the
    node `changed` is copied as `bot` of its arity (`top` if it is a
    `bot`)."""
    if isinstance(value, Morphism):
        return Morphism(_copy(value.dom), _copy(value.cod), value.images)
    if isinstance(value, FinSet):
        return FinSet(value.elements)
    if isinstance(value, FinGraph):
        return FinGraph(value.vertices, value.edge_triples())
    if not isinstance(value, Expr):
        return value
    built = {}
    for node in postorder(value):
        if node is changed:
            built[id(node)] = (Top if isinstance(node, Bot) else Bot)(_copy(node.arity))
        else:
            built[id(node)] = type(node)(*(built[id(v)] if isinstance(v, Expr) else _copy(v)
                                           for v in node._values()))
    return built[id(value)]


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, kind=KINDS)
def test_equality_equals_the_recursive_one(seed, kind):
    rng = random.Random(seed)
    fp = _footprint(rng, kind)
    e = random_expr(rng, fp, _small(rng, kind, 3, ""), rng.randint(0, 2))
    same = _copy(e)
    assert e == same and same == e and oracle.record_eq(e, same)
    other = _copy(e, rng.choice(list(postorder(e))))
    assert e != other and other != e and not oracle.record_eq(e, other)
    f = random_expr(rng, fp, e.arity, rng.randint(0, 2))
    assert (e == f) == oracle.record_eq(e, f) == (f == e)


def _first_error(ev, e):
    try:
        return ev.masks(e)
    except Exception as exc:  # the class and words of the first error raised
        return type(exc), str(exc)


def test_ill_formed_nodes_nested_in_pairs_raise_the_recursive_first_error():
    nestings = (
        lambda a, b: And(P1, a, b),
        lambda a, b: Or(P1, a, b),
        lambda a, b: Not(P1, Or(P1, a, b)),
        lambda a, b: And(P1, Not(P1, a), b),
        lambda a, b: CondExists(P1, a, identity(P1), b),
        lambda a, b: CondForall(P1, a, identity(P1), b),
    )
    st = structure(marks=("c",), like_pairs=(("c", "d"),))
    raised = 0
    for a, b in itertools.product(ILL_FORMED, repeat=2):
        for nest in nestings:
            e = nest(a, b)
            want = _first_error(oracle.RecursiveEvaluator(st), e)
            assert _first_error(_Evaluator(st), e) == want
            raised += isinstance(want, tuple)
    assert raised > len(nestings) * len(ILL_FORMED) ** 2 // 2


# -- the tripwire

def _call_cycle(tree: ast.Module) -> list[str] | None:
    """A cycle of the module's call graph, or None.  Functions are named
    by their place (`Class.method`, `outer.inner`).  A plain-name call
    goes to the function of that name nested in the caller or in a
    function around it, or else at module level; a `self.` or `cls.`
    call goes to the method of that name of the caller's class."""
    functions = {}
    todo = [(node, "", None) for node in tree.body]
    while todo:
        node, scope, cls = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo += [(n, f"{node.name}.", node.name) for n in node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[scope + node.name] = (node, cls)
            todo += [(n, f"{scope}{node.name}.", cls) for n in node.body]
    calls = {}
    for name, (node, cls) in functions.items():
        parts = name.split(".")
        scopes = [s + "." for s in (".".join(parts[:i]) for i in range(len(parts), 0, -1))
                  if s in functions] + [""]
        calls[name] = set()
        for call in ast.walk(node):
            f = call.func if isinstance(call, ast.Call) else None
            if isinstance(f, ast.Name):
                target = next((s + f.id for s in scopes if s + f.id in functions), None)
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id in ("self", "cls")):
                target = f"{cls}.{f.attr}" if f"{cls}.{f.attr}" in functions else None
            else:
                continue
            if target is not None:
                calls[name].add(target)
    # depth first from a stack; a call to a function on the path closes a cycle
    done: set[str] = set()
    for root in sorted(calls):
        path, stack = [root], [iter(sorted(calls[root]))]
        while stack:
            callee = next(stack[-1], None)
            if callee is None:
                done.add(path.pop())
                stack.pop()
            elif callee in path:
                return path[path.index(callee):] + [callee]
            elif callee not in done:
                path.append(callee)
                stack.append(iter(sorted(calls[callee])))
    return None


def test_no_function_in_lfoc_is_part_of_a_call_cycle():
    sources = sorted(pathlib.Path(lfoc.__file__).parent.rglob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        text = path.read_text(encoding="utf-8")
        assert _call_cycle(ast.parse(text)) is None, path.name
        for word in ("RecursionError", "setrecursionlimit", "stack_size"):
            assert word not in text, (path.name, word)


def test_the_tripwire_finds_recursion():
    found = {
        "def f(n):\n    return f(n - 1)\n": ["f", "f"],
        "def f():\n    g()\ndef g():\n    f()\n": ["f", "g", "f"],
        "class A:\n    def m(self):\n        self.n()\n    def n(self):\n"
        "        self.m()\n": ["A.m", "A.n", "A.m"],
        "def f():\n    def g(i):\n        g(i + 1)\n    g(0)\n": ["f.g", "f.g"],
    }
    for source, cycle in found.items():
        assert _call_cycle(ast.parse(source)) == cycle
    assert _call_cycle(ast.parse("def f():\n    return g()\ndef g():\n    return 1\n")) is None
