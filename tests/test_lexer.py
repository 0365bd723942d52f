"""The one-pass regex lexer (`dsl._lex`) against the per-character lexer
it replaced (`oracle._lex`).

On texts drawn from the lexical alphabet (Unicode edge characters
included) and on mutated fixtures, the token strings must equal the
oracle's values with strings quoted, `dsl._position` must give the
oracle's line and column for every token (the end included), and an
error must carry the oracle's message, line and column.
"""

from __future__ import annotations

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from lfoc import dsl
from lfoc.dsl import ParseError
from lfoc.fixtures import FIXTURES, fixture_path

# single characters and fragments the lexer treats specially: name
# characters (letters, "_", digits, superscript two, one half, an
# Arabic-Indic digit), punctuation, the four whitespace characters,
# whitespace it rejects (form feed, no-break space, vertical tab, line
# separator), comments and strings
FRAGMENTS = (
    "a", "b", "x", "Z", "_", "é", "ß", "1", "0", "²", "½", "٣",
    "{", "}", "[", "]", "(", ")", ";", ":", ",", ".", "@", "=", "-", ">", "/",
    "->", "=>", "//", '"', '""', '"a b"', '"//"',
    " ", "\t", "\r", "\n", "\f", "\u00a0", "\v", "\u2028", "#", "\\",
    "obj", "base", "x.y", "a.", ".b", "// c\n",
)

TEXTS = st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join)
FIXTURE_TEXTS = {name: fixture_path(name).read_text(encoding="utf-8") for name in FIXTURES}


@st.composite
def mutated_fixtures(draw):
    text = FIXTURE_TEXTS[draw(st.sampled_from(FIXTURES))]
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "truncate")))
        if op == "insert":
            text = text[:pos] + draw(TEXTS) + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + draw(st.integers(1, 8)):]
        else:
            text = text[:pos]
    return text


def quoted(tok: oracle.Token) -> str:
    return f'"{tok.value}"' if tok.kind == "string" else tok.value


def assert_lexes_like_oracle(text: str) -> None:
    try:
        expected = oracle._lex(text, "<t>")
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            dsl._lex(text, "<t>")
        got = info.value
        assert (str(got), got.line, got.col) == (str(exc), exc.line, exc.col)
        return
    tokens, names = dsl._lex(text, "<t>")
    assert tokens == [quoted(t) for t in expected]
    assert names == {t.value for t in expected if t.kind == "name"}
    positions = [dsl._position(text, i) for i in range(len(tokens))]
    assert positions == [(t.line, t.col) for t in expected]


@settings(max_examples=400, deadline=None)
@given(TEXTS)
def test_alphabet_texts_lex_like_oracle(text):
    assert_lexes_like_oracle(text)


@settings(max_examples=60, deadline=None)
@given(mutated_fixtures())
def test_mutated_fixtures_lex_like_oracle(text):
    assert_lexes_like_oracle(text)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_lex_like_oracle(name):
    assert_lexes_like_oracle(FIXTURE_TEXTS[name])


@pytest.mark.parametrize("text", [
    "", "   ", "// only", "x // end", "x\n// end", "x\n  // end\n", "x //a//b",
    '""', '"" ""', 'x "', 'x "a\nb"', "a.b.c", "a..b", "a.", "1a", "²a", "½a", "a²½",
    "x\fy", "x\u00a0y", "\r\n\tx", "- >", "=>->", "/ /", "/",
])
def test_edge_texts_lex_like_oracle(text):
    assert_lexes_like_oracle(text)


def test_word_characters_are_exactly_alphanumerics_and_underscore():
    word = re.compile(r"\w")
    assert not [c for c in map(chr, range(sys.maxunicode + 1))
                if bool(word.match(c)) != (c.isalnum() or c == "_")]
