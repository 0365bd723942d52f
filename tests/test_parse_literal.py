"""Morphism literals, parsed through documents, against the name-map oracle.

Every site that knows a literal's domain and codomain before its "["
(`mor`, structure facts, sketch constraints, atoms, rule `via` and
`parse_morphism_literal`) reads it entry by entry and checks its name
map with `category.checked_images`.  Set and graph literals are
generated in order, permuted, with a duplicate, missing or extra entry,
an unknown image, a vertex/edge kind mix or a non-homomorphic edge
image, and sometimes followed by the wrong closing token.  The result
must be the morphism `category.morphism` builds from the name map, or
the error the entry-by-entry reading gives: a duplicate entry at the
"[", then, at sites that read their closing token first, that token,
then the name map's `CategoryError` at the "[".

Structure feature lines of 1-40 set literals, read from one run token
when written as `print_document` writes them, must give the fact set or
the first error of reading them literal by literal: lines mix literals
in declared order with permuted ones, bad literals, repeated facts, empty
domains, and a missing or trailing ",".
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from lfoc.category import CategoryError, FinGraph, FinSet, morphism
from lfoc import dsl
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


LINE_FLAWS = ("none", "none", "permuted", "unknown image", "duplicate entry", "missing entry",
              "extra entry", "repeated fact", "missing comma", "trailing comma", "wrong closer")


@st.composite
def feature_lines(draw):
    """(dom, cod, line): the line's items in order, each a literal's
    entries or a separator token."""
    dom = FinSet(draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=4)))
    cod = FinSet(draw(st.lists(st.sampled_from("xyza"), unique=True, min_size=1, max_size=4)))
    images = st.sampled_from(cod.elements)
    literals = [[(n, draw(images)) for n in dom.elements] for _ in range(draw(st.integers(1, 40)))]
    flaw, i = draw(st.sampled_from(LINE_FLAWS)), draw(st.integers(0, len(literals) - 1))
    entries = literals[i]
    if flaw == "permuted":
        literals[i] = draw(st.permutations(entries))
    elif flaw == "unknown image" and entries:
        j = draw(st.integers(0, len(entries) - 1))
        entries[j] = (entries[j][0], "nowhere")
    elif flaw == "duplicate entry" and entries:
        entries.insert(draw(st.integers(0, len(entries))), (entries[0][0], draw(images)))
    elif flaw == "missing entry" and entries:
        del entries[draw(st.integers(0, len(entries) - 1))]
    elif flaw == "extra entry":
        entries.insert(draw(st.integers(0, len(entries))), ("extra", draw(images)))
    elif flaw == "repeated fact":
        literals.insert(draw(st.integers(0, len(literals))), list(entries))
    line: list = []
    for k, entries in enumerate(literals):
        line.append(entries)
        if not (flaw == "missing comma" and k == i and k + 1 < len(literals)):
            line.append(",")
    line[-1] = {"trailing comma": ",", "wrong closer": "}"}.get(flaw, ";")
    if flaw == "trailing comma":
        line.append(";")
    return dom, cod, line


def read_literal_by_literal(dom, cod, line):
    """The facts, or the first error and the index in `line` it sits at,
    as a literal-by-literal reader meets them."""
    facts, k = set(), 0
    while True:
        entries = line[k]
        if isinstance(entries, str):
            return None, f"expected '[', found {entries!r}", k
        if len({src for src, _ in entries}) < len(entries):
            src = next(s for j, (s, _) in enumerate(entries) if s in dict(entries[:j]))
            return None, f"duplicate entry for {src!r}", k
        try:
            facts.add(morphism(dom, cod, dict(entries)))
        except CategoryError as exc:
            return None, str(exc), k
        k += 1
        if line[k] == ",":
            k += 1
        elif line[k] == ";":
            return facts, None, None
        else:
            found = "[" if isinstance(line[k], list) else line[k]
            return None, f"expected ';', found {found!r}", k


@settings(max_examples=400, deadline=None)
@given(feature_lines(), st.sampled_from(SPACINGS), st.sampled_from(SEPARATORS),
       st.sampled_from((", ", ",", " ,\n  ")))
def test_feature_lines_read_like_literal_by_literal(case, arrow, separator, comma):
    dom, cod, line = case
    text, _, _ = site_text("set", dom, cod, "", "structure", True)
    text = text[:text.rindex("f ") + 2]
    starts = []
    for item in line:
        starts.append(len(text))
        if isinstance(item, str):
            text += comma if item == "," else " " + item
            starts[-1] += item != ","
        else:
            text += "[" + separator.join(f"{s}{arrow}{d}" for s, d in item) + "]"
    text += "\n};"
    facts, message, at = read_literal_by_literal(dom, cod, line)
    if facts is not None:
        assert set(parse_document(text).structures["S"].interp("f")) == facts
        return
    with pytest.raises(ParseError) as info:
        parse_document(text)
    line_no, col = position(text, starts[at])
    assert (str(info.value), info.value.line, info.value.col) == (
        f"<input>:{line_no}:{col}: {message}", line_no, col)


def test_a_line_of_template_literals_is_read_in_one_match(monkeypatch):
    calls = []
    real = dsl._Parser.read_run
    monkeypatch.setattr(dsl._Parser, "read_run",
                        lambda self, *args: calls.append("read_run") or real(self, *args))
    dom, cod = FinSet(("a", "b")), FinSet(("x", "y", "z"))
    literals = [f"[a->{cod.elements[i % 3]}; b->{cod.elements[i // 3 % 3]}]" for i in range(40)]
    text, _, _ = site_text("set", dom, cod, "", "structure", True)
    head = text[:text.rindex("f ") + 2]
    # as `print_document` writes it: one run token, read once
    facts = parse_document(head + ", ".join(literals) + ";\n};").structures["S"].interp("f")
    assert calls == ["read_run"] and len(set(facts)) == 9
    # one literal a line: no run token
    calls.clear()
    assert parse_document(head + ",\n    ".join(literals) + ";\n};").structures["S"].interp("f") \
        == facts
    assert calls == []
    # spaced arrows: the run does not read, and the text is read again
    calls.clear()
    spaced = ", ".join(lit.replace("->", " -> ") for lit in literals)
    assert parse_document(head + spaced + ";\n};").structures["S"].interp("f") == facts
    assert calls == ["read_run"]
