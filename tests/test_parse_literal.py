"""Morphism literals, parsed through documents, against the name-map oracle.

Every site that knows a literal's domain and codomain before its "["
(`mor`, structure facts, sketch constraints, atoms, rule `via` and
`parse_morphism_literal`) reads maps between sets that list the domain
in declared order by matching a template, and everything else entry by
entry.  Set and graph literals are generated in order, permuted, with a
duplicate, missing or extra entry, an unknown image, a vertex/edge kind
mix or a non-homomorphic edge image, and sometimes followed by the wrong
closing token.  The result must be the morphism `category.morphism`
builds from the name map, or the error the entry-by-entry reading gives:
a duplicate entry at the "[", then, at sites that read their closing
token first, that token, then the name map's `CategoryError` at the "[".
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from lfoc.category import CategoryError, FinGraph, FinSet, morphism
from lfoc.dsl import ParseError, parse_document, parse_morphism_literal

SITES = ("mor", "structure", "constraint", "atom", "via", "standalone")
# sites that expect the token after the literal before they build it
CLOSER_FIRST = {"mor": "';'", "atom": "')'"}
SPACINGS = ("->", " -> ", "->\n  ")
SEPARATORS = ("; ", ";", " ;\n ")


def object_text(name: str, obj) -> str:
    if isinstance(obj, FinSet):
        return f"obj {name} {{ {' '.join(obj.elements)} }};"
    parts = [f"v {' '.join(obj.vertices)};"] if obj.vertices else []
    parts += [f"e {e}: {s}->{t};" for e, s, t in obj.edge_triples()]
    return f"obj {name} {{ {' '.join(parts)} }};"


@st.composite
def set_case(draw):
    dom = FinSet(draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=4)))
    cod = FinSet(draw(st.lists(st.sampled_from("xyza"), unique=True, min_size=1, max_size=4)))
    entries = [(n, draw(st.sampled_from(cod.elements))) for n in dom.elements]
    return dom, cod, entries, "set"


@st.composite
def graph_case(draw):
    dv = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    de = [(f"e{i}", draw(st.sampled_from(dv)), draw(st.sampled_from(dv)))
          for i in range(draw(st.integers(0, 3)))]
    cv = [f"w{i}" for i in range(draw(st.integers(1, 3)))]
    vmap = {v: draw(st.sampled_from(cv)) for v in dv}
    # an edge between the images of each domain edge, then a few others
    ce = [(vmap[s], vmap[t]) for _, s, t in de]
    ce += draw(st.lists(st.tuples(st.sampled_from(cv), st.sampled_from(cv)), max_size=2))
    ce = [(f"d{i}", s, t) for i, (s, t) in enumerate(draw(st.permutations(ce)))]
    cod = FinGraph(cv, ce)
    entries = [(v, vmap[v]) for v in dv]
    for e, s, t in de:
        parallel = [d for d, ds, dt in ce if (ds, dt) == (vmap[s], vmap[t])]
        entries.append((e, draw(st.sampled_from(parallel))))
    return FinGraph(dv, de), cod, entries, "graph"


@st.composite
def cases(draw):
    dom, cod, entries, base = draw(st.one_of(set_case(), graph_case()))
    mutation = draw(st.sampled_from(("in order", "in order", "permuted", "duplicate",
                                     "missing", "extra", "unknown image", "kind mix",
                                     "non-homomorphic")))
    if entries and mutation != "in order":
        i = draw(st.integers(0, len(entries) - 1))
        src, dst = entries[i]
        if mutation == "permuted":
            entries = draw(st.permutations(entries))
        elif mutation == "duplicate":
            entries.insert(draw(st.integers(0, len(entries))),
                           (src, draw(st.sampled_from(cod.names))))
        elif mutation == "missing":
            del entries[i]
        elif mutation == "extra":
            entries.insert(draw(st.integers(0, len(entries))),
                           ("extra", draw(st.sampled_from(cod.names))))
        elif mutation == "unknown image":
            entries[i] = (src, "nowhere")
        else:
            # any other name of the codomain: for a graph, of either kind
            # and (for an edge) with whatever endpoints it has
            entries[i] = (src, draw(st.sampled_from(cod.names)))
    arrow, separator = draw(st.sampled_from(SPACINGS)), draw(st.sampled_from(SEPARATORS))
    literal = "[" + separator.join(f"{s}{arrow}{d}" for s, d in entries) + "]"
    return (base, dom, cod, entries, literal,
            draw(st.sampled_from(SITES)), draw(st.booleans()))


def site_text(base, dom, cod, literal, site, closed):
    """(text, index of the literal, index of the token after it)."""
    head = "\n".join((
        f"base {base};", object_text("D", dom), object_text("C", cod),
        "footprint F { feature f : D; };", "expr top_d : D = top;",
        "sketch L { context D; };", "sketch R { context C; };", ""))
    before = {
        "mor": "mor m : D -> C = ",
        "structure": "structure S : F {\n  carrier C;\n  f ",
        "constraint": "sketch K { context C; constraint top_d @ ",
        "atom": "expr a : C = f(",
        "via": "rule r : L => R via ",
        "standalone": "",
    }[site]
    if site == "structure":
        literal = f"{literal}, {literal}"
    closer = {"atom": ")", "standalone": ""}.get(site, ";")
    wrong = {"standalone": " ;"}.get(site, " }")
    after = {"structure": "\n};", "constraint": " };", "atom": ";"}.get(site, "")
    prefix = before if site == "standalone" else head + before
    text = prefix + literal + (closer if closed else wrong) + after
    return text, len(prefix), len(prefix) + len(literal) + (not closed)


def position(text: str, at: int) -> tuple[int, int]:
    return text.count("\n", 0, at) + 1, at - (text.rfind("\n", 0, at) + 1) + 1


def expected_outcome(dom, cod, entries, site, closed):
    """The morphism, or the message and which index ("literal" or
    "closer") the error sits at."""
    seen = set()
    for src, _ in entries:
        if src in seen:
            return None, f"duplicate entry for {src!r}", "literal"
        seen.add(src)
    if not closed and site in CLOSER_FIRST:
        return None, f"expected {CLOSER_FIRST[site]}, found '}}'", "closer"
    if not closed and site == "standalone":
        return None, "trailing input after the morphism literal", "closer"
    try:
        expected = morphism(dom, cod, dict(entries))
    except CategoryError as exc:
        return None, str(exc), "literal"
    if not closed:
        return None, "expected ';', found '}'", "closer"
    return expected, None, None


def parsed_morphism(text, site, dom, cod):
    if site == "standalone":
        return parse_morphism_literal(text, dom, cod)
    doc = parse_document(text)
    if site == "mor":
        return doc.morphisms["m"]
    if site == "structure":
        (found,) = set(doc.structures["S"].interp("f"))
        return found
    if site == "constraint":
        (constraint,) = doc.sketches["K"].constraints
        return constraint.binding
    if site == "atom":
        return doc.exprs["a"].binding
    return doc.rules["r"].morphism


@settings(max_examples=600, deadline=None)
@given(cases())
def test_literals_parse_like_the_name_map_oracle(case):
    base, dom, cod, entries, literal, site, closed = case
    text, literal_at, closer_at = site_text(base, dom, cod, literal, site, closed)
    expected, message, where = expected_outcome(dom, cod, entries, site, closed)
    if expected is not None:
        got = parsed_morphism(text, site, dom, cod)
        assert got == expected and type(got) is type(expected)
        return
    with pytest.raises(ParseError) as info:
        parsed_morphism(text, site, dom, cod)
    line, col = position(text, literal_at if where == "literal" else closer_at)
    source = "<morphism>" if site == "standalone" else "<input>"
    assert (str(info.value), info.value.line, info.value.col) == (
        f"{source}:{line}:{col}: {message}", line, col)


@pytest.mark.parametrize("text, dom, cod, message", [
    ("[a->;]", ("a",), ("x", ";"), "1:5: expected a name, found ';'"),
    ('[a->"s"]', ("a",), ("x", '"s"'), "1:5: expected a name, found 's'"),
    ("[;->x]", (";",), ("x",), "1:2: expected a name, found ';'"),
])
def test_programmatic_names_that_are_not_name_tokens(text, dom, cod, message):
    with pytest.raises(ParseError) as info:
        parse_morphism_literal(text, FinSet(dom), FinSet(cod))
    assert str(info.value) == f"<morphism>:{message}"
