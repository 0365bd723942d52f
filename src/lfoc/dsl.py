"""Textual surface for the engine: the .lfoc format.

Grammar sketch (statements end with ';'; '//' comments run to the end
of the line; files are UTF-8):

    document   := statement*
    statement  := "base" ("set" | "graph") ";"
                | "import" STRING ";"
                | "obj" NAME "{" objbody "}" ";"
                | "mor" NAME ":" NAME "->" NAME "=" morlit ";"
                | "footprint" NAME "{" ("feature" NAME ":" NAME ";")* "}" ";"
                | "expr" NAME ":" NAME "=" term ";"
                | "structure" NAME ":" NAME "{" "carrier" NAME ";" featline* "}" ";"
                | "sketch" NAME "{" "context" NAME ";" constrline* "}" ";"
                | "rule" NAME ":" NAME "=>" NAME ["via" (morlit | NAME)] ";"

    objbody (set kind)   := NAME*
    objbody (graph kind) := ("v" NAME+ ";" | "e" NAME ":" NAME "->" NAME ";")*
    morlit     := "[" [entry (";" entry)*] "]"        entry := NAME "->" NAME
    featline   := NAME morlit ("," morlit)* ";"
    constrline := "constraint" NAME "@" (morlit | NAME) ";"

    term    := ["given" orterm] ("exists" | "forall") [morlit | NAME]
               "into" NAME "." term
             | orterm
    orterm  := andterm ("or" andterm)*
    andterm := unary ("and" unary)*
    unary   := "not" unary | quantified term | primary
    primary := "top" | "bot" | NAME "(" morlit ")" | NAME | "(" term ")"

A bare NAME in a term splices in a previously defined expression of the
same arity; NAME "(" morlit ")" is an atomic feature application.
Omitting the quantifier morphism uses the name-preserving inclusion
into the target.  A quantifier in the premise of "given" reads the rest
of the premise as its body, as in any term.  Names resolve against
definitions earlier in the document; `import` merges a whole file
(kinds must agree, names must not collide).  The `base` declaration
must come first.

`print_document` renders a document back to this format; printing a
parsed document and reparsing yields a structurally identical document.
Programmatic documents may reference unnamed objects, expressions, or
sketches; the printer then emits synthesized definitions for them.
"""

from __future__ import annotations

import itertools
import os
import re
from typing import Iterable

from .category import (
    CatObject,
    CategoryError,
    FinGraph,
    FinSet,
    Morphism,
    Record,
    checked_images,
    identity,
    inclusion,
)
from .expr import (
    And,
    Atomic,
    Bot,
    CondExists,
    CondForall,
    Expr,
    Not,
    Or,
    Top,
    atom,
    conj,
    cond_exists,
    cond_forall,
    disj,
    neg,
)
from .footprint import Footprint, Structure, _structure
from .rules import SketchRule
from .sketch import Constraint, Sketch

TERM_KEYWORDS = frozenset(
    {"top", "bot", "and", "or", "not", "exists", "forall", "given", "into"})


class ParseError(ValueError):
    """Syntax or resolution error, carrying the source position."""

    def __init__(self, message: str, line: int, col: int, source: str = "<input>"):
        super().__init__(f"{source}:{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.source = source


class _Reparse(Exception):
    """A parser holding run tokens met an error or a run it cannot read."""


# The token grammar, as one regex: each match skips whitespace (space,
# tab, CR, LF; not `\s`) and `//` comments, then captures one token: a
# run of word characters with dotted continuations (`\w` is exactly
# `isalnum()` or "_"), a string with its quotes kept, "->" or "=>", any
# other single character, or "" at the end of the text.  Strings keep
# their quotes so that no string equals a name, a punctuation mark or
# the end-of-text token "".  Runs that start with a non-letter and
# single characters outside _PUNCT are rejected.  `_lex` reaches the
# same tokens by splitting; `_position` (the error path) and chunks the
# split cannot settle run this regex.  A parse first reads feature lines
# as `print_document` writes them through run tokens: the literal list
# of such a line, `[a->x; b->y], [a->z; b->w]`, is one token, whose
# reading (`_Parser.read_run`) checks that it is exactly the tokens the
# regex would find there.  A run that does not read so, and any error
# while runs are held, parses the whole text again without them.
_TOKEN = re.compile(r'(?:[ \t\r\n]+|//[^\n]*)*(\w+(?:\.\w+)*|"[^"\n]*"|[-=]>|.|\Z)')
_PUNCT = frozenset(("->", "=>", *"{}[]();:,.@="))
# strings and comments, found leftmost-first as `_TOKEN` finds them
_CUT = re.compile(r'("[^"\n]*"|//[^\n]*)')
_RUN = re.compile(r"\w+(?:\.\w+)*")
# a feature line as `print_document` writes it, "  f [a->x], [a->y];",
# after a line break: its head and its literal list
_FEATURE_LINE = re.compile(r"(\n  [\w.]+ )(\[.*\])(?=;$)", re.M)
# tab and line breaks become spaces; every other character for which
# `str.isspace()` holds becomes "\0", which `split()` keeps and `_TOKEN`
# rejects as it rejects them
_SPACES = str.maketrans(
    "\t\r\n"
    "\v\f\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
    "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000",
    "   " + "\0" * 25)


def _lex(text: str, source: str, runs: bool = False) -> tuple[list[str], set[str]]:
    """The tokens of `text`, ending in "", and the set of its names.

    Strings and comments are cut out first.  In the rest, tabs and line
    breaks become spaces and other whitespace "\0" (`_SPACES`), the marks
    that are always tokens get spaces around them, and one `split()`
    cuts the text at its spaces.  A chunk that is neither a name run nor
    punctuation (`x=y`, `a.`, a stray character) is lexed by `_TOKEN`.

    With `runs`, the literal list of each feature line written as
    `print_document` writes it (`_FEATURE_LINE`) is kept whole as one
    run token, which `_Parser.read_run` reads; a name inside a run is
    not in the set.  An error raises `_Reparse`, to be found again
    without runs."""
    tokens: list[str] = []
    pieces = _CUT.split(text) if '"' in text or "//" in text else [text]
    for i, piece in enumerate(pieces):
        if i % 2:
            if piece[0] == '"':
                tokens.append(piece)
            continue
        held = ()
        if runs and "], [" in piece:
            parts = _FEATURE_LINE.split(piece)  # text, head, run, text, ...
            held = parts[2::3]
            # the text around the runs, with a "\0" in place of each
            piece = "\0".join([a + b for a, b in zip(parts[::3], parts[1::3])] + [parts[-1]])
            del parts
        piece = piece.translate(_SPACES).replace("->", " -> ").replace("=>", " => ")
        for mark in "{}[]();:,@":
            piece = piece.replace(mark, f" {mark} ")
        between = piece.split("\0") if held else [piece]
        del piece
        if len(between) != len(held) + 1:
            raise _Reparse  # a "\0" of the text itself, which is an error
        chunks = between[0].split()
        for run, text_after in zip(held, between[1:]):
            chunks.append(run)
            chunks += text_after.split()
        del between  # hold one padded piece at a time
        if tokens:
            tokens += chunks
        else:
            tokens = chunks
    del pieces
    names: set[str] = set()
    relexed: dict[str, list[str]] = {}
    bad = []
    for chunk in set(tokens).difference(_PUNCT):
        if _RUN.fullmatch(chunk):
            parts = (chunk,)
        elif len(chunk) > 1 and (chunk[0] == "[" or chunk[0] == '"' == chunk[-1]):
            continue  # a run or a string: no split chunk is shaped like one
        else:
            parts = relexed[chunk] = _TOKEN.findall(chunk)[:-1]
        for tok in parts:
            if tok[0].isalpha() or tok[0] == "_":
                names.add(tok)
            elif tok not in _PUNCT:
                bad.append(tok)
    if bad and runs:
        raise _Reparse
    if relexed:
        spliced: list[str] = []
        for tok in tokens:
            parts = relexed.get(tok)
            if parts is None:
                spliced.append(tok)
            else:
                spliced += parts
        tokens = spliced
    tokens.append("")
    if bad:
        at = min(map(tokens.index, bad))
        ch = text[_token_at(text, at).start(1)]  # "\0" may stand for another character
        if ch == '"':
            message = "unterminated string"
        elif ch.isdigit():
            message = f"names must not start with a digit: {ch!r}"
        else:
            message = f"unexpected character {ch!r}"
        raise ParseError(message, *_position(text, at), source)
    return tokens, names


def _token_at(text: str, index: int) -> re.Match:
    """The `_TOKEN` match of token `index` of `text`."""
    return next(itertools.islice(_TOKEN.finditer(text), index, None))


def _position(text: str, index: int) -> tuple[int, int]:
    """(line, column) of token `index` of `text`, both from 1.

    A comment does not advance the column, so the end of a text whose
    last line ends in a comment sits at that comment's start."""
    match = _token_at(text, index)
    at = match.start(1)
    line_start = text.rfind("\n", 0, at) + 1
    if at == len(text):
        comment = text.find("//", max(match.start(), line_start))
        if comment >= 0:
            at = comment
    return text.count("\n", 0, at) + 1, at - line_start + 1


class Document(Record):
    """All named definitions of one parsed file (imports merged in); a
    namespace not given starts empty."""

    __slots__ = _fields = ("base_kind", "objects", "morphisms", "footprints", "exprs",
                           "structures", "sketches", "rules")

    def __init__(self, base_kind: str, objects: dict[str, CatObject] | None = None,
                 morphisms: dict[str, Morphism] | None = None,
                 footprints: dict[str, Footprint] | None = None,
                 exprs: dict[str, Expr] | None = None,
                 structures: dict[str, Structure] | None = None,
                 sketches: dict[str, Sketch] | None = None,
                 rules: dict[str, SketchRule] | None = None):
        self.base_kind = base_kind
        self.objects = {} if objects is None else objects
        self.morphisms = {} if morphisms is None else morphisms
        self.footprints = {} if footprints is None else footprints
        self.exprs = {} if exprs is None else exprs
        self.structures = {} if structures is None else structures
        self.sketches = {} if sketches is None else sketches
        self.rules = {} if rules is None else rules

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        # each namespace compares in definition order
        return self.base_kind == other.base_kind and all(
            tuple(getattr(self, ns).items()) == tuple(getattr(other, ns).items())
            for ns in Document._fields[1:])

    def sole_footprint(self) -> Footprint | None:
        if len(self.footprints) == 1:
            return next(iter(self.footprints.values()))
        return None


def _shown(tok: str) -> str:
    """A token as messages show it: a string without its quotes."""
    return tok[1:-1] if tok[:1] == '"' else tok


class _Parser:
    def __init__(self, text: str, source: str, base_dir: str | None,
                 visited: frozenset[str], runs: bool = False):
        self.text = text
        self.runs = runs  # this parser and its imports lex with run tokens
        self.held = runs and "], [" in text  # runs may be held: no position is exact
        self.tokens, self.names = _lex(text, source, self.held)
        self.pos = 0
        self.source = source
        self.base_dir = base_dir
        self.visited = visited
        self.doc: Document | None = None
        # feature name -> arity over the footprints so far (the first
        # declaration wins); clashing arities are reported at use sites
        self.features: dict[str, CatObject] = {}
        self.feature_clashes: set[str] = set()

    # -- token plumbing ------------------------------------------------
    #
    # Tokens are plain strings (see `_lex`); a parse method that reports
    # an error at an earlier token keeps that token's index.

    def peek(self) -> str:
        return self.tokens[self.pos]

    def advance(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, at: int | None = None):
        if self.held:
            raise _Reparse
        line, col = _position(self.text, self.pos if at is None else at)
        raise ParseError(message, line, col, self.source)

    def expect_punct(self, value: str) -> None:
        if self.tokens[self.pos] != value:
            self.fail(f"expected {value!r}, found {_shown(self.peek())!r}")
        self.pos += 1

    def expect_name(self, what: str = "name") -> str:
        tok = self.tokens[self.pos]
        if tok not in self.names:
            self.fail(f"expected a {what}, found {_shown(tok)!r}")
        self.pos += 1
        return tok

    def accept_punct(self, value: str) -> bool:
        if self.tokens[self.pos] == value:
            self.pos += 1
            return True
        return False

    def at_name(self, value: str) -> bool:
        return self.tokens[self.pos] == value

    # -- document ------------------------------------------------------

    def parse_document(self) -> _Parser | None:
        """Read statements to the end, or to an `import`: return its parser."""
        if self.doc is None:
            if not self.at_name("base"):
                self.fail("a document must start with a base declaration "
                          "(base set; or base graph;)")
            self.advance()
            kind_at = self.pos
            kind = self.expect_name("kind")
            if kind not in ("set", "graph"):
                self.fail("base kind must be 'set' or 'graph'", kind_at)
            self.expect_punct(";")
            self.doc = Document(kind)
        while (tok := self.peek()) != "":
            if tok not in self.names:
                self.fail(f"expected a statement, found {_shown(tok)!r}")
            handler = self.STATEMENTS.get(tok)
            if handler is None:
                if tok == "base":
                    self.fail("duplicate base declaration")
                self.fail(f"unknown statement {tok!r}")
            self.advance()
            if (imported := handler(self)) is not None:
                return imported
        return None

    def define(self, namespace: dict, name: str, at: int, value) -> None:
        if name in namespace:
            self.fail(f"duplicate definition of {name!r}", at)
        namespace[name] = value

    def note_features(self, fp: Footprint) -> None:
        for fname, arity in fp.features.items():
            if self.features.setdefault(fname, arity) != arity:
                self.feature_clashes.add(fname)

    def parse_import(self) -> _Parser:
        at = self.pos
        tok = self.peek()
        if tok[:1] != '"':
            self.fail("import needs a quoted path")
        self.advance()
        self.expect_punct(";")
        target = tok[1:-1]
        base = self.base_dir or os.getcwd()
        path = os.path.normpath(os.path.join(base, target))
        if path in self.visited:
            self.fail(f"import cycle through {target!r}", at)
        try:
            text = _read(path)
        except (OSError, ParseError) as exc:
            self.fail(f"cannot import {target!r}: {exc}", at)
        return _Parser(text, source=path, base_dir=os.path.dirname(path),
                       visited=self.visited | {path}, runs=self.runs)

    def merge_import(self, imported: Document) -> None:
        at = self.pos - 2  # the path of the import just read
        if imported.base_kind != self.doc.base_kind:
            self.fail(f"imported file has base {imported.base_kind!r}, "
                      f"expected {self.doc.base_kind!r}", at)
        pairs = [
            (self.doc.objects, imported.objects), (self.doc.morphisms, imported.morphisms),
            (self.doc.footprints, imported.footprints), (self.doc.exprs, imported.exprs),
            (self.doc.structures, imported.structures),
            (self.doc.sketches, imported.sketches), (self.doc.rules, imported.rules),
        ]
        for mine, theirs in pairs:
            for name, value in theirs.items():
                if name in mine:
                    self.fail(f"import redefines {name!r}", at)
                mine[name] = value
        for fp in imported.footprints.values():
            self.note_features(fp)

    # -- objects and morphisms ------------------------------------------

    def parse_obj(self) -> None:
        name_at = self.pos
        name = self.expect_name()
        self.expect_punct("{")
        names = self.names
        try:
            if self.doc.base_kind == "set":
                elements = []
                while self.peek() in names:
                    elements.append(self.advance())
                obj: CatObject = FinSet(tuple(elements))
            else:
                vertices: list[str] = []
                edges: list[tuple[str, str, str]] = []
                while self.peek() in names:
                    marker = self.advance()
                    if marker == "v":
                        while self.peek() in names:
                            vertices.append(self.advance())
                        self.expect_punct(";")
                    elif marker == "e":
                        ename = self.expect_name("edge name")
                        self.expect_punct(":")
                        src = self.expect_name("vertex")
                        self.expect_punct("->")
                        tgt = self.expect_name("vertex")
                        self.expect_punct(";")
                        edges.append((ename, src, tgt))
                    else:
                        self.fail("graph object lines start with 'v' or 'e'", self.pos - 1)
                obj = FinGraph(tuple(vertices), tuple(edges))
        except CategoryError as exc:
            self.fail(str(exc), name_at)
        self.expect_punct("}")
        self.expect_punct(";")
        self.define(self.doc.objects, name, name_at, obj)

    def resolve(self, namespace: dict, what: str):
        """Read the name of a `what` and look it up in `namespace`."""
        name = self.expect_name(what)
        found = namespace.get(name)
        if found is None:
            self.fail(f"unknown {what} {name!r}", self.pos - 1)
        return found

    def parse_morlit_entries(self) -> tuple[dict[str, str], int]:
        """A morphism literal's name map and the index of its '['."""
        open_at = self.pos
        self.expect_punct("[")
        mapping: dict[str, str] = {}
        if not self.accept_punct("]"):
            while True:
                src = self.expect_name()
                self.expect_punct("->")
                dst = self.expect_name()
                if src in mapping:
                    self.fail(f"duplicate entry for {src!r}", open_at)
                mapping[src] = dst
                if self.accept_punct("]"):
                    break
                self.expect_punct(";")
        return mapping, open_at

    def check(self, dom: CatObject, cod: CatObject, mapping: dict[str, str],
              at: int) -> tuple[int, ...]:
        """`checked_images(dom, cod, mapping)`, its error reported at token `at`."""
        try:
            return checked_images(dom, cod, mapping)
        except CategoryError as exc:
            self.fail(str(exc), at)

    def read_images(self, dom: CatObject, cod: CatObject,
                    closer: str | None = None) -> tuple[int, ...]:
        """The image tuple of a morphism literal dom -> cod, then `closer`
        if given: the literal is read entry by entry, `closer` is
        expected, and only then is the name map checked."""
        mapping, open_at = self.parse_morlit_entries()
        if closer is not None:
            self.expect_punct(closer)
        return self.check(dom, cod, mapping, open_at)

    def parse_literal(self, dom: CatObject, cod: CatObject,
                      closer: str | None = None) -> Morphism:
        return Morphism(dom, cod, self.read_images(dom, cod, closer))

    def parse_mor(self) -> None:
        name_at = self.pos
        name = self.expect_name()
        self.expect_punct(":")
        dom = self.resolve(self.doc.objects, "object")
        self.expect_punct("->")
        cod = self.resolve(self.doc.objects, "object")
        self.expect_punct("=")
        mor = self.parse_literal(dom, cod, ";")
        self.define(self.doc.morphisms, name, name_at, mor)

    # -- footprints ------------------------------------------------------

    def parse_footprint(self) -> None:
        name_at = self.pos
        name = self.expect_name()
        self.expect_punct("{")
        features: dict[str, CatObject] = {}
        while self.at_name("feature"):
            self.advance()
            fname_at = self.pos
            fname = self.expect_name("feature name")
            if fname in TERM_KEYWORDS:
                self.fail(f"feature name {fname!r} is a reserved word", fname_at)
            if fname in features:
                self.fail(f"duplicate feature {fname!r}", fname_at)
            self.expect_punct(":")
            arity = self.resolve(self.doc.objects, "object")
            self.expect_punct(";")
            features[fname] = arity
        self.expect_punct("}")
        self.expect_punct(";")
        try:
            fp = Footprint(name, self.doc.base_kind, features)
        except CategoryError as exc:
            self.fail(str(exc), name_at)
        self.define(self.doc.footprints, name, name_at, fp)
        self.note_features(fp)

    # -- expressions -----------------------------------------------------

    def parse_expr_def(self) -> None:
        name_at = self.pos
        name = self.expect_name()
        if name in TERM_KEYWORDS:
            self.fail(f"expression name {name!r} is a reserved word", name_at)
        self.expect_punct(":")
        arity = self.resolve(self.doc.objects, "object")
        self.expect_punct("=")
        term = self.parse_expr(arity)
        self.expect_punct(";")
        self.define(self.doc.exprs, name, name_at, term)

    def parse_expr(self, arity: CatObject) -> Expr:
        """A term, read from a stack of what is still open: `not`s, an
        operator with its left operand, "(", and a `given` or a quantifier
        reading its premise or body, a term ended by neither `and` nor `or`."""
        stack: list[tuple] = []
        e = None  # the operand just read, None while one is to be read
        while True:
            tok = self.tokens[self.pos]
            if e is None:
                if tok == "exists" or tok == "forall":
                    frame, arity = self.quantifier_head(arity, None)
                    stack.append(frame)
                elif tok == "not" or tok == "(" or tok == "given":
                    self.pos += 1
                    stack.append((tok,))
                else:
                    e = self.parse_primary(arity)
                continue
            # close one frame that `e` completes, or open one after it
            tag = stack[-1][0] if stack else None
            if tag == "not":
                stack.pop()
                e = neg(e)
            elif tag == "and":
                e = conj(stack.pop()[1], e)
            elif tok == "and" or tok == "or" and tag != "or":
                self.pos += 1
                stack.append((tok, e))
                e = None
            elif tag == "or":
                e = disj(stack.pop()[1], e)
            elif tag is None:
                return e
            elif tag == "(":
                stack.pop()
                self.expect_punct(")")
            elif tag == "given":
                stack[-1], arity = self.quantifier_head(arity, e)
                e = None
            else:
                kw, premise, var, arity = stack.pop()
                e = (cond_exists if kw == "exists" else cond_forall)(premise, var, e)

    def quantifier_head(self, arity: CatObject, premise: Expr | None) -> tuple:
        """Read a quantifier up to its ".": its frame and its target."""
        kw_at = self.pos
        kw = self.expect_name("quantifier")
        if kw not in ("exists", "forall"):
            self.fail("expected 'exists' or 'forall'", kw_at)
        named_mor: Morphism | None = None
        literal: tuple[dict[str, str], int] | None = None
        if self.peek() == "[":
            literal = self.parse_morlit_entries()
        elif self.peek() in self.names and not self.at_name("into"):
            named_mor = self.resolve(self.doc.morphisms, "morphism")
        if self.expect_name() != "into":
            self.fail("expected 'into'", self.pos - 1)
        target_at = self.pos
        target = self.resolve(self.doc.objects, "object")
        if literal is not None:
            var = Morphism(arity, target, self.check(arity, target, *literal))
        elif named_mor is not None:
            if named_mor.dom != arity or named_mor.cod != target:
                self.fail("named morphism does not run between the expression "
                          "arity and the quantifier target", target_at)
            var = named_mor
        else:
            try:
                var = inclusion(arity, target)
            except CategoryError as exc:
                self.fail(str(exc), target_at)
        self.expect_punct(".")
        return (kw, Top(arity) if premise is None else premise, var, arity), target

    def parse_primary(self, arity: CatObject) -> Expr:
        at = self.pos
        tok = self.peek()
        if tok not in self.names:
            self.fail(f"expected an expression, found {_shown(tok)!r}")
        if tok == "top":
            self.advance()
            return Top(arity)
        if tok == "bot":
            self.advance()
            return Bot(arity)
        if tok in TERM_KEYWORDS:
            self.fail(f"unexpected {tok!r} here")
        self.advance()
        if self.peek() == "(":
            if tok in self.feature_clashes:
                self.fail(f"feature {tok!r} is declared with different "
                          f"arities by several footprints", at)
            feature_arity = self.features.get(tok)
            if feature_arity is None:
                self.fail(f"unknown feature {tok!r}", at)
            self.advance()
            binding = self.parse_literal(feature_arity, arity, ")")
            return atom(tok, binding)
        ref = self.doc.exprs.get(tok)
        if ref is None:
            self.fail(f"unknown expression {tok!r}", at)
        if ref.arity != arity:
            self.fail(f"expression {tok!r} has arity {ref.arity!r}, "
                      f"expected {arity!r}", at)
        return ref

    # -- structures --------------------------------------------------------

    def parse_structure(self) -> None:
        name_at = self.pos
        name = self.expect_name()
        self.expect_punct(":")
        fp_name = self.peek()
        fp = self.resolve(self.doc.footprints, "footprint")
        self.expect_punct("{")
        if self.expect_name() != "carrier":
            self.fail("a structure body starts with 'carrier'", self.pos - 1)
        carrier = self.resolve(self.doc.objects, "object")
        self.expect_punct(";")
        facts: dict[str, set[tuple[int, ...]]] = {f: set() for f in fp.features}
        while self.peek() in self.names:
            feat = self.advance()
            if feat not in fp.features:
                self.fail(f"footprint {fp_name!r} has no feature {feat!r}", self.pos - 1)
            arity = fp.features[feat]
            run = self.tokens[self.pos]
            if len(run) > 1 and run[0] == "[":
                self.pos += 1
                facts[feat].update(self.read_run(run, arity, carrier))
            else:
                while True:
                    facts[feat].add(self.read_images(arity, carrier))
                    if not self.accept_punct(","):
                        break
            self.expect_punct(";")
        self.expect_punct("}")
        self.expect_punct(";")
        try:
            st = _structure(name, fp, carrier, {f: frozenset(b) for f, b in facts.items()})
        except CategoryError as exc:
            self.fail(str(exc), name_at)
        self.define(self.doc.structures, name, name_at, st)

    def read_run(self, run: str, dom: CatObject, cod: CatObject) -> Iterable[tuple[int, ...]]:
        """The image tuples of the literals dom -> cod in a run token.

        The run is cut at the text between images, and must then equal
        k copies of dom's template `[n1->%s; n2->%s]`, joined by ", ",
        filled with the pieces; each piece must be a name of cod.  So
        the run is exactly the tokens of k literals that list dom in
        declared order, since a name of cod is a name token: every object
        of a parsed document was read from name tokens.  A run that does
        not read so raises `_Reparse`."""
        names = dom.names
        width = len(names)
        images: list[str] = []
        if width:
            head = f"[{names[0]}->"
            apart = "], " + head  # from one literal's last image to the next's first
            cut = run[len(head):-1]
            for n in names[1:]:
                cut = cut.replace(f"; {n}->", apart)
            images = cut.split(apart)
        count = len(images) // width if width else (len(run) + 2) // 4
        template = "[" + "; ".join([n + "->%s" for n in names]) + "]"
        if len(images) != count * width or ", ".join([template] * count) % tuple(images) != run:
            raise _Reparse
        if not width:
            return [()]
        if isinstance(cod, FinSet):
            images = list(map(cod.position.get, images))
            if None in images:
                raise _Reparse
            return zip(*[iter(images)] * width)
        try:
            return [checked_images(dom, cod, dict(zip(names, lit)))
                    for lit in zip(*[iter(images)] * width)]
        except CategoryError:
            raise _Reparse from None

    # -- sketches and rules --------------------------------------------------

    def parse_sketch(self) -> None:
        name_at = self.pos
        name = self.expect_name()
        self.expect_punct("{")
        if self.expect_name() != "context":
            self.fail("a sketch body starts with 'context'", self.pos - 1)
        context = self.resolve(self.doc.objects, "object")
        self.expect_punct(";")
        constraints: list[Constraint] = []
        while self.at_name("constraint"):
            self.advance()
            e = self.resolve(self.doc.exprs, "expression")
            self.expect_punct("@")
            if self.peek() == "[":
                binding = self.parse_literal(e.arity, context)
            else:
                binding = self.resolve(self.doc.morphisms, "morphism")
                if binding.dom != e.arity or binding.cod != context:
                    self.fail("binding does not run from the expression arity "
                              "into the context", self.pos - 1)
            self.expect_punct(";")
            constraints.append(Constraint(e, binding))
        self.expect_punct("}")
        self.expect_punct(";")
        self.define(self.doc.sketches, name, name_at, Sketch(name, context, constraints))

    def parse_rule(self) -> None:
        name_at = self.pos
        name = self.expect_name()
        self.expect_punct(":")
        lhs = self.resolve(self.doc.sketches, "sketch")
        self.expect_punct("=>")
        rhs = self.resolve(self.doc.sketches, "sketch")
        if self.at_name("via"):
            self.advance()
            if self.peek() == "[":
                mor = self.parse_literal(lhs.context, rhs.context)
            else:
                mor = self.resolve(self.doc.morphisms, "morphism")
                if mor.dom != lhs.context or mor.cod != rhs.context:
                    self.fail("rule morphism does not run between the two "
                              "sketch contexts", self.pos - 1)
        else:
            if lhs.context != rhs.context:
                self.fail("omitting 'via' needs equal lhs and rhs contexts", name_at)
            mor = identity(lhs.context)
        self.expect_punct(";")
        try:
            rule = SketchRule(name, lhs, rhs, mor)
        except CategoryError as exc:
            self.fail(str(exc), name_at)
        self.define(self.doc.rules, name, name_at, rule)

    STATEMENTS = {
        "import": parse_import,
        "obj": parse_obj,
        "mor": parse_mor,
        "footprint": parse_footprint,
        "expr": parse_expr_def,
        "structure": parse_structure,
        "sketch": parse_sketch,
        "rule": parse_rule,
    }


def _parse(text: str, source: str, base_dir: str | None,
           visited: frozenset[str]) -> Document:
    """Parse with run tokens, or again without them (see `_TOKEN`)."""
    try:
        return _read_all(_Parser(text, source, base_dir, visited, runs=True))
    except _Reparse:
        pass
    return _read_all(_Parser(text, source, base_dir, visited))


def _read_all(parser: _Parser) -> Document:
    """Imports are read from a stack of parsers, not recursively."""
    parsers = [parser]
    while True:
        if (imported := parsers[-1].parse_document()) is not None:
            parsers.append(imported)
        elif len(parsers) > 1:
            parsers[-2].merge_import(parsers.pop().doc)
        else:
            return parsers[0].doc


def parse_document(text: str, *, source: str = "<input>",
                   base_dir: str | None = None) -> Document:
    """Parse .lfoc text into a document of resolved definitions."""
    return _parse(text, source, base_dir, frozenset())


def parse_path(path: str | os.PathLike) -> Document:
    """Parse a .lfoc file; imports resolve relative to its directory."""
    path = os.fspath(path)
    text = _read(path)
    resolved = os.path.normpath(path)
    return _parse(text, source=resolved, base_dir=os.path.dirname(resolved),
                  visited=frozenset({resolved}))


def _read(path: str) -> str:
    """The text of a .lfoc file, with "\r\n" and "\r" read as "\n" as in
    text mode.  A file that is not UTF-8 is a ParseError at the line and
    column of its first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _newlines(raw[:exc.start].decode("utf-8"))
        line_start = before.rfind("\n") + 1
        raise ParseError(f"not UTF-8: {exc}", before.count("\n") + 1,
                         len(before) - line_start + 1, path) from None
    del raw  # free the bytes before the newline pass copies the text
    return _newlines(text)


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_morphism_literal(text: str, dom: CatObject, cod: CatObject) -> Morphism:
    """Parse a standalone morphism literal such as "[a->x; b->y]"."""
    parser = _Parser(text, "<morphism>", None, frozenset())
    mapping, open_at = parser.parse_morlit_entries()
    if parser.peek() != "":
        parser.fail("trailing input after the morphism literal")
    return Morphism(dom, cod, parser.check(dom, cod, mapping, open_at))


# ---------------------------------------------------------------------------
# Printing

def format_morphism_literal(m: Morphism) -> str:
    entries = [f"{x}->{y}" for x, y in m.name_map().items()]
    return "[" + "; ".join(entries) + "]"


class _Printer:
    def __init__(self, doc: Document):
        self.doc = doc
        self.objects = dict(doc.objects)
        self.exprs = dict(doc.exprs)
        self.sketches = dict(doc.sketches)
        self.counters = {"obj": 0, "expr": 0, "sketch": 0}
        # each value's first name (written last, so it wins)
        self.object_names = {v: k for k, v in reversed(self.objects.items())}
        self.expr_names = {v: k for k, v in reversed(self.exprs.items())}

    def fresh(self, prefix: str, namespace: dict) -> str:
        while True:
            self.counters[prefix] += 1
            name = f"_{prefix[0].upper()}{self.counters[prefix]}"
            if name not in namespace:
                return name

    def object_name(self, obj: CatObject) -> str:
        name = self.object_names.get(obj)
        if name is None:
            name = self.object_names[obj] = self.fresh("obj", self.objects)
            self.objects[name] = obj
        return name

    def expr_name(self, e: Expr) -> str:
        name = self.expr_names.get(e)
        if name is None:
            name = self.expr_names[e] = self.fresh("expr", self.exprs)
            self.exprs[name] = e
        return name

    def sketch_name(self, sk: Sketch) -> str:
        for name, value in self.sketches.items():
            if value == sk and value.name == sk.name:
                return name
        for name, value in self.sketches.items():
            if value == sk:
                return name
        name = self.fresh("sketch", self.sketches)
        self.sketches[name] = sk
        return name

    def collect(self) -> None:
        """Make sure every referenced object/expression/sketch is named."""
        for m in self.doc.morphisms.values():
            self.object_name(m.dom)
            self.object_name(m.cod)
        for e in list(self.exprs.values()):
            self.object_name(e.arity)
            self.collect_expr(e)
        for st in self.doc.structures.values():
            self.object_name(st.carrier)
        for fp in self.doc.footprints.values():
            for arity in fp.features.values():
                self.object_name(arity)
        for rule in self.doc.rules.values():
            self.sketch_name(rule.lhs)
            self.sketch_name(rule.rhs)
        for sk in list(self.sketches.values()):
            self.collect_sketch(sk)

    def collect_sketch(self, sk: Sketch) -> None:
        self.object_name(sk.context)
        for c in sk.sorted_constraints():
            self.expr_name(c.expr)
            self.object_name(c.expr.arity)
            self.collect_expr(c.expr)

    def collect_expr(self, e: Expr) -> None:
        """Name the quantifier targets below `e`, in preorder."""
        todo = [e]
        while todo:
            node = todo.pop()
            if isinstance(node, (And, Or)):
                todo += (node.right, node.left)
            elif isinstance(node, Not):
                todo.append(node.body)
            elif isinstance(node, (CondExists, CondForall)):
                self.object_name(node.var.cod)
                todo += (node.body, node.premise)

    # precedence: quantifier 0, or 1, and 2, not 3, primary 4
    def term(self, e: Expr) -> str:
        """Written front to back from a stack of texts and (node, least
        precedence) pairs; a node below its least goes in parentheses."""
        parts: list[str] = []
        todo: list = [(e, 0)]
        while todo:
            item = todo.pop()
            if item.__class__ is str:
                parts.append(item)
                continue
            node, least = item
            if isinstance(node, Atomic):
                parts.append(f"{node.feature}({format_morphism_literal(node.binding)})")
                continue
            if isinstance(node, (Top, Bot)):
                prec, show = 4, ["top" if isinstance(node, Top) else "bot"]
            elif isinstance(node, Or):
                prec, show = 1, [(node.left, 1), " or ", (node.right, 2)]
            elif isinstance(node, And):
                prec, show = 2, [(node.left, 2), " and ", (node.right, 3)]
            elif isinstance(node, Not):
                prec, show = 3, ["not ", (node.body, 3)]
            elif isinstance(node, (CondExists, CondForall)):
                kw = "exists" if isinstance(node, CondExists) else "forall"
                target = self.object_name(node.var.cod)
                lit = format_morphism_literal(node.var)
                show = [] if isinstance(node.premise, Top) else ["given ", (node.premise, 1), " "]
                prec, show = 0, [*show, f"{kw} {lit} into {target} . ", (node.body, 0)]
            else:
                raise TypeError(f"not an expression node: {node!r}")
            if prec < least:
                show = ["(", *show, ")"]
            todo += reversed(show)
        return "".join(parts)

    def object_def(self, name: str, obj: CatObject) -> str:
        if isinstance(obj, FinSet):
            inner = " ".join(obj.elements)
            return f"obj {name} {{ {inner} }};" if inner else f"obj {name} {{ }};"
        lines = []
        if obj.vertices:
            lines.append("v " + " ".join(obj.vertices) + ";")
        for e, s, t in obj.edge_triples():
            lines.append(f"e {e}: {s}->{t};")
        if not lines:
            return f"obj {name} {{ }};"
        inner = " ".join(lines)
        return f"obj {name} {{ {inner} }};"

    def render(self) -> str:
        self.collect()
        out: list[str] = [f"base {self.doc.base_kind};", ""]
        for name, obj in self.objects.items():
            out.append(self.object_def(name, obj))
        if self.objects:
            out.append("")
        for name, m in self.doc.morphisms.items():
            out.append(f"mor {name} : {self.object_name(m.dom)} -> "
                       f"{self.object_name(m.cod)} = {format_morphism_literal(m)};")
        if self.doc.morphisms:
            out.append("")
        for name, fp in self.doc.footprints.items():
            lines = [f"footprint {name} {{"]
            for fname, arity in fp.features.items():
                lines.append(f"  feature {fname} : {self.object_name(arity)};")
            lines.append("};")
            out.extend(lines)
            out.append("")
        for name, e in self.exprs.items():
            out.append(f"expr {name} : {self.object_name(e.arity)} = {self.term(e)};")
        if self.exprs:
            out.append("")
        for name, st in self.doc.structures.items():
            fp_name = self.footprint_name(st.footprint)
            lines = [f"structure {name} : {fp_name} {{",
                     f"  carrier {self.object_name(st.carrier)};"]
            for fname in st.footprint.features:
                listed = st.interp(fname)
                if not listed:
                    continue
                lits = ", ".join(format_morphism_literal(m) for m in listed)
                lines.append(f"  {fname} {lits};")
            lines.append("};")
            out.extend(lines)
            out.append("")
        for name, sk in self.sketches.items():
            lines = [f"sketch {name} {{",
                     f"  context {self.object_name(sk.context)};"]
            for c in sk.sorted_constraints():
                lines.append(f"  constraint {self.expr_name(c.expr)} @ "
                             f"{format_morphism_literal(c.binding)};")
            lines.append("};")
            out.extend(lines)
            out.append("")
        for name, rule in self.doc.rules.items():
            via = ""
            if rule.morphism != identity(rule.lhs.context) or rule.lhs.context != rule.rhs.context:
                via = f" via {format_morphism_literal(rule.morphism)}"
            out.append(f"rule {name} : {self.sketch_name(rule.lhs)} => "
                       f"{self.sketch_name(rule.rhs)}{via};")
        while out and out[-1] == "":
            out.pop()
        return "\n".join(out) + "\n"

    def footprint_name(self, fp: Footprint) -> str:
        for name, value in self.doc.footprints.items():
            if value == fp:
                return name
        raise CategoryError(
            f"cannot print a structure over the undeclared footprint {fp!r}")


def print_document(doc: Document) -> str:
    """Render a document to .lfoc text.  Parsing the output yields a
    structurally identical document (synthesized names included)."""
    return _Printer(doc).render()
