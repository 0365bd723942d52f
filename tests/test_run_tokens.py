"""Run tokens against the token reading.

A parse first reads each structure feature line written as
`print_document` writes it (`  f [a->x; b->y], [a->z; b->w];`) from one
run token, `dsl._Parser.read_run`, and parses the whole text again with
plain tokens when a run does not read or any error occurs.  Every text
must give what the plain token reading gives: an equal `Document`,
printed the same, or the same `ParseError` (message, line and column).

The texts are printed documents (`test_roundtrip.DocumentWriter`'s set
and graph documents, and set documents whose structures have feature
lines of 1-60 literals over arities of 0-3 names, some dotted or not
ASCII), and line mutations of them: other spacing, a reordered, missing
or extra entry, an unknown, digit-first or non-ASCII image, a repeated
fact, a trailing comment, two feature lines on one line, a literal list
where no feature line is read, CRLF line ends, and the same feature on
two lines.
"""

from __future__ import annotations

import random
import re

from hypothesis import given, settings, strategies as st

from lfoc import dsl
from lfoc.dsl import ParseError, parse_document, print_document
from test_roundtrip import DocumentWriter

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
FEATURE_LINE = re.compile(r"^  [\w.]+ \[.*\];$")
MUTATIONS = ("spacing", "reordered", "missing", "extra", "unknown image", "digit-first image",
             "non-ASCII image", "repeated fact", "comment", "two lines in one",
             "list elsewhere", "crlf", "feature twice")


def wide_document(rng: random.Random) -> str:
    """A printed set document whose feature lines hold 1-60 literals."""
    carrier = [f"c{i}" for i in range(rng.randint(1, 8))]
    carrier[0] = rng.choice(("c.0", "é0", "c_0"))
    lines = ["base set;", f"obj C {{ {' '.join(carrier)} }};"]
    arities = {}
    for k in range(4):
        names = rng.sample(("a", "b.x", "ß", "d", "e.f.g"), k)
        lines.append(f"obj A{k} {{ {' '.join(names)} }};")
        arities[f"A{k}"] = names
    features = {f"f{i}": rng.choice(list(arities)) for i in range(rng.randint(1, 4))}
    lines.append("footprint F { " + " ".join(f"feature {f} : {a};" for f, a in features.items())
                 + " };")
    for s in range(rng.randint(1, 2)):
        facts = []
        for f, a in features.items():
            literals = ["[" + "; ".join(f"{n}->{rng.choice(carrier)}" for n in arities[a]) + "]"
                        for _ in range(rng.randint(1, 60))]
            facts.append(f"{f} {', '.join(literals)};")
        lines.append(f"structure S{s} : F {{ carrier C; {' '.join(facts)} }};")
    return print_document(parse_document("\n".join(lines)))


def mutated(rng: random.Random, text: str) -> str:
    lines = text.split("\n")
    feature = [i for i, line in enumerate(lines) if FEATURE_LINE.match(line)]
    how = rng.choice(MUTATIONS)
    if how == "crlf":
        return text.replace("\n", "\r\n")
    if not feature:
        return text
    i = rng.choice(feature)
    head, _, body = lines[i].partition(" [")
    literals = ("[" + body[:-1]).split(", ")
    j = rng.randrange(len(literals))
    entries = literals[j][1:-1].split("; ") if literals[j] != "[]" else []
    if how == "spacing":
        lines[i] = rng.choice((lines[i].replace("->", " -> ", 1), lines[i].replace(", ", ",", 1),
                               lines[i].replace("; ", ";", 1), lines[i][:-1] + " ;",
                               lines[i] + " ", "   " + lines[i]))
        return "\n".join(lines)
    if how == "comment":
        lines[i] += rng.choice((" // note", "// note"))
    elif how == "two lines in one" and i + 1 < len(lines):
        lines[i:i + 2] = [lines[i] + " " + lines[i + 1].strip()]
    elif how == "list elsewhere":
        # after a `mor` or `constraint` literal, or on a line of its own
        sites = [k for k, line in enumerate(lines)
                 if line.startswith(("mor ", "  constraint ")) and line.endswith("];")]
        if sites and rng.random() < 0.5:
            k = rng.choice(sites)
            lines[k] = f"{lines[k][:-1]}, {', '.join(literals)};"
        else:
            word = rng.choice(("carrier", "context", "constraint", "feature", "v", "x"))
            at = rng.choice([k for k, line in enumerate(lines) if line.startswith("  ")] or [i])
            lines.insert(at, f"  {word} {', '.join(literals)};")
    elif how == "feature twice":
        lines.insert(rng.randrange(i, i + 2), lines[i])
    elif how == "repeated fact":
        literals.insert(rng.randrange(len(literals) + 1), literals[j])
    else:
        if how == "reordered" and len(entries) > 1:
            entries.reverse()
        elif how == "missing" and entries:
            del entries[rng.randrange(len(entries))]
        elif how == "extra":
            entries.insert(rng.randrange(len(entries) + 1), f"zz->{rng.choice(('c1', 'zz'))}")
        elif how.endswith("image") and entries:
            k = rng.randrange(len(entries))
            image = {"unknown image": "nowhere", "digit-first image": "9c",
                     "non-ASCII image": rng.choice(("é0", "ü", "c "))}[how]
            entries[k] = entries[k].partition("->")[0] + "->" + image
        literals[j] = "[" + "; ".join(entries) + "]"
    if how in ("repeated fact", "reordered", "missing", "extra") or how.endswith("image"):
        lines[i] = f"{head} {', '.join(literals)};"
    return "\n".join(lines)


def plain(text: str) -> dsl.Document:
    """The token reading: a parser without run tokens."""
    parser = dsl._Parser(text, "<input>", None, frozenset())
    assert parser.parse_document() is None
    return parser.doc


def outcome(parse, text: str):
    try:
        doc = parse(text)
    except ParseError as exc:
        return exc.line, exc.col, str(exc)
    return doc, print_document(doc)


def assert_reads_like_tokens(text: str) -> None:
    assert outcome(parse_document, text) == outcome(plain, text)


@settings(max_examples=120, deadline=None)
@given(seed=SEEDS, kind=st.sampled_from(("set", "graph", "wide")))
def test_run_tokens_read_like_tokens(seed, kind):
    rng = random.Random(seed)
    if kind == "wide":
        text = wide_document(rng)
    else:
        text = print_document(parse_document(DocumentWriter(rng, kind).write()))
    assert_reads_like_tokens(text)
    if "], [" in text:
        # a printed document is read from its run tokens, with no second pass
        parser = dsl._Parser(text, "<input>", None, frozenset(), runs=True)
        assert parser.parse_document() is None
        assert any(len(tok) > 1 and tok[0] == "[" for tok in parser.tokens)
    for _ in range(6):
        assert_reads_like_tokens(mutated(rng, text))
