"""Golden parse outcomes: seeded mutations of the four fixtures plus
hand-written lexical edge cases.

Every case is parsed with `parse_document` (source "<case>", imports
resolved against "."). The transcript records, per case, either the
`ParseError` (its line, column and message) or the reprinted document,
and is compared byte for byte with `tests/golden/parse_errors.out`.

Regenerate the golden file (only when a parse change is intended) with:
PYTHONPATH=src python tests/test_parse_errors.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from lfoc.dsl import ParseError, parse_document, print_document
from lfoc.fixtures import FIXTURES, fixture_path

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse_errors.out"

MUTATIONS = 300

# what an insertion puts into a fixture: lexical edge characters and
# token fragments (no `import`, so no case reads a file)
PIECES = (
    " ", "\n", "\t", "\r", "\f", "\u00a0", ";", ":", ",", ".", "@", "=", "-", ">",
    "->", "=>", "/", "//", "{", "}", "[", "]", "(", ")", '"', '""', '"x"', "x", "_",
    "1", "1x", "²", "½", "x²", "x.y", "x.", ".x", "and", "or", "not",
    "top", "bot", "exists", "forall", "given", "into", "obj", "expr", "mor",
    "feature", "carrier", "constraint", "via", "base", "é", "#", "$", "\\",
)

HAND_WRITTEN = (
    ("EOF after a trailing comment", "base set;\nobj A { x } // done"),
    ("EOF after a trailing comment, indented", "base set;\n  obj A { x }\t  // done"),
    ("trailing comment parses", "base set; // end"),
    ("trailing comment after a newline", "base set;\nobj A { x }\n// done"),
    ("comment only", "// nothing here"),
    ("empty text", ""),
    ("unterminated string at EOF", 'base set;\nimport "lib.lfoc'),
    ("unterminated string at newline", 'base set;\nimport "lib.lfoc;\n"x";\n'),
    ("string as a statement", 'base set;\n"obj";\n'),
    ("empty string as a statement", 'base set;\n"";\n'),
    ("import of the empty string", 'base set;\nimport "";\n'),
    ("import without a path", "base set;\nimport"),
    ("lone '-'", "base set;\nobj A { x };\nmor f : A - A = [x->x];\n"),
    ("lone '-' at EOF", "base set;\nobj A { x };\n-"),
    ("lone '/'", "base set;\n/ not a comment\n"),
    ("lone '/' at EOF", "base set;\n/"),
    ("'>' without '-'", "base set;\nobj A { x };\nmor f : A > A = [x->x];\n"),
    ("name starting with 1", "base set;\nobj A { 1x };\n"),
    ("name starting with superscript two", "base set;\nobj A { ²x };\n"),
    ("superscript two inside a name", "base set;\nobj A { x² };\n"),
    ("name starting with one half", "base set;\nobj A { ½ };\n"),
    ("one half inside a name", "base set;\nobj A { x½ };\n"),
    ("form feed", "base set;\f\nobj A { x };\n"),
    ("no-break space", "base set;\u00a0obj A { x };\n"),
    ("tab, carriage return and line feed", "base set;\r\n\tobj A { x }\r\n\t x;\r\n"),
    ("dotted names", "base set;\nobj A { l.x r.y _.z };\n"
                     "mor f : A -> A = [l.x->r.y; r.y->r.y; _.z->l.x];\n"),
    ("dotted name ending in a dot", "base set;\nobj A { l. };\n"),
    ("dotted name starting with a dot", "base set;\nobj A { .x };\n"),
    ("double dot", "base set;\nobj A { a..b };\n"),
    ("dot then digit", "base set;\nobj A { a.1 };\n"),
    ("missing ';' at EOF", "base set;\nobj A { x }"),
    ("missing ';' after the base", "base set"),
    ("unknown name on a later line", "base set;\nobj A { x };\n\n  mor f : A -> Q9 = [x->x];\n"),
    ("unicode names", "base set;\nobj Å { élève αβ };\n"),
)


def mutation_cases() -> list[tuple[str, str]]:
    """Seeded insertions, deletions and truncations of the fixtures."""
    texts = {name: fixture_path(name).read_text(encoding="utf-8") for name in FIXTURES}
    cases = []
    for i in range(MUTATIONS):
        rng = random.Random(i)
        name = FIXTURES[i % len(FIXTURES)]
        text = texts[name]
        op = ("insert", "delete", "truncate")[rng.randrange(3)]
        pos = rng.randrange(len(text) + 1)
        if op == "insert":
            piece = PIECES[rng.randrange(len(PIECES))]
            label = f"{name} insert {piece!r} at {pos}"
            text = text[:pos] + piece + text[pos:]
        elif op == "delete":
            length = rng.randint(1, 8)
            label = f"{name} delete {text[pos:pos + length]!r} at {pos}"
            text = text[:pos] + text[pos + length:]
        else:
            label = f"{name} truncate at {pos}"
            text = text[:pos]
        cases.append((label, text))
    return cases


def outcome(text: str) -> str:
    try:
        doc = parse_document(text, source="<case>", base_dir=".")
    except ParseError as exc:
        return f"error {exc.line}:{exc.col}: {exc}\n"
    return "ok\n" + print_document(doc)


def render() -> str:
    cases = list(HAND_WRITTEN) + mutation_cases()
    return "".join(f"## {label}\n{outcome(text)}" for label, text in cases)


def test_parse_outcomes_match_golden_bytes():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
    sys.exit(0)
