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
into the target.  The premise of "given" parses at the or-level, so a
quantified premise needs parentheses.  Names resolve against
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
from dataclasses import dataclass, field

from .category import (
    CatObject,
    CategoryError,
    FinGraph,
    FinSet,
    Morphism,
    identity,
    inclusion,
    morphism,
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
from .footprint import Footprint, Structure
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


# One regex pass lexes a whole text.  Each match skips whitespace (space,
# tab, CR, LF; not `\s`) and `//` comments, then captures one token: a
# run of word characters with dotted continuations (`\w` is exactly
# `isalnum()` or "_"), a string with its quotes kept, "->" or "=>", any
# other single character, or "" at the end of the text.  Strings keep
# their quotes so that no string equals a name, a punctuation mark or
# the end-of-text token "".  Runs that start with a non-letter and
# single characters outside _PUNCT are rejected after the pass.
_TOKEN = re.compile(r'(?:[ \t\r\n]+|//[^\n]*)*(\w+(?:\.\w+)*|"[^"\n]*"|[-=]>|.|\Z)')
_PUNCT = frozenset(("->", "=>", *"{}[]();:,.@="))


def _lex(text: str, source: str) -> tuple[list[str], set[str]]:
    """The tokens of `text`, ending in "", and the set of its names."""
    tokens = _TOKEN.findall(text)
    if tokens[-2:] == ["", ""]:  # the text ends in whitespace or a comment
        tokens.pop()
    names: set[str] = set()
    bad = []
    for tok in set(tokens).difference(_PUNCT, ("",)):
        if tok[0].isalpha() or tok[0] == "_":
            names.add(tok)
        elif tok[0] != '"' or len(tok) == 1:
            bad.append(tok)
    if bad:
        at = min(map(tokens.index, bad))
        ch = tokens[at][0]
        if ch == '"':
            message = "unterminated string"
        elif ch.isdigit():
            message = f"names must not start with a digit: {ch!r}"
        else:
            message = f"unexpected character {ch!r}"
        raise ParseError(message, *_position(text, at), source)
    return tokens, names


def _position(text: str, index: int) -> tuple[int, int]:
    """(line, column) of token `index` of `text`, both from 1.

    A comment does not advance the column, so the end of a text whose
    last line ends in a comment sits at that comment's start."""
    match = next(itertools.islice(_TOKEN.finditer(text), index, None))
    at = match.start(1)
    line_start = text.rfind("\n", 0, at) + 1
    if at == len(text):
        comment = text.find("//", max(match.start(), line_start))
        if comment >= 0:
            at = comment
    return text.count("\n", 0, at) + 1, at - line_start + 1


@dataclass
class Document:
    """All named definitions of one parsed file (imports merged in)."""

    base_kind: str
    objects: dict[str, CatObject] = field(default_factory=dict)
    morphisms: dict[str, Morphism] = field(default_factory=dict)
    footprints: dict[str, Footprint] = field(default_factory=dict)
    exprs: dict[str, Expr] = field(default_factory=dict)
    structures: dict[str, Structure] = field(default_factory=dict)
    sketches: dict[str, Sketch] = field(default_factory=dict)
    rules: dict[str, SketchRule] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        mine = (self.base_kind,) + tuple(
            tuple(ns.items()) for ns in (
                self.objects, self.morphisms, self.footprints, self.exprs,
                self.structures, self.sketches, self.rules))
        theirs = (other.base_kind,) + tuple(
            tuple(ns.items()) for ns in (
                other.objects, other.morphisms, other.footprints, other.exprs,
                other.structures, other.sketches, other.rules))
        return mine == theirs

    def sole_footprint(self) -> Footprint | None:
        if len(self.footprints) == 1:
            return next(iter(self.footprints.values()))
        return None


def _shown(tok: str) -> str:
    """A token as messages show it: a string without its quotes."""
    return tok[1:-1] if tok[:1] == '"' else tok


class _Parser:
    def __init__(self, text: str, source: str, base_dir: str | None,
                 visited: frozenset[str]):
        self.text = text
        self.tokens, self.names = _lex(text, source)
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

    def parse_document(self) -> Document:
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
        while self.peek() != "":
            self.parse_statement()
        return self.doc

    def parse_statement(self) -> None:
        tok = self.peek()
        if tok not in self.names:
            self.fail(f"expected a statement, found {_shown(tok)!r}")
        handler = self.STATEMENTS.get(tok)
        if handler is None:
            if tok == "base":
                self.fail("duplicate base declaration")
            self.fail(f"unknown statement {tok!r}")
        self.advance()
        handler(self)

    def define(self, namespace: dict, name: str, at: int, value) -> None:
        if name in namespace:
            self.fail(f"duplicate definition of {name!r}", at)
        namespace[name] = value

    def note_features(self, fp: Footprint) -> None:
        for fname, arity in fp.features.items():
            if self.features.setdefault(fname, arity) != arity:
                self.feature_clashes.add(fname)

    def parse_import(self) -> None:
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
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            self.fail(f"cannot import {target!r}: {exc}", at)
        imported = _parse(text, source=path, base_dir=os.path.dirname(path),
                          visited=self.visited | {path})
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

    def build_morphism(self, dom: CatObject, cod: CatObject,
                       mapping: dict[str, str], at: int) -> Morphism:
        try:
            return morphism(dom, cod, mapping)
        except CategoryError as exc:
            self.fail(str(exc), at)

    def parse_mor(self) -> None:
        name_at = self.pos
        name = self.expect_name()
        self.expect_punct(":")
        dom = self.resolve(self.doc.objects, "object")
        self.expect_punct("->")
        cod = self.resolve(self.doc.objects, "object")
        self.expect_punct("=")
        mapping, open_at = self.parse_morlit_entries()
        self.expect_punct(";")
        self.define(self.doc.morphisms, name, name_at,
                    self.build_morphism(dom, cod, mapping, open_at))

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
        term = self.parse_term(arity)
        self.expect_punct(";")
        self.define(self.doc.exprs, name, name_at, term)

    def parse_term(self, arity: CatObject) -> Expr:
        if self.at_name("given") or self.at_name("exists") or self.at_name("forall"):
            return self.parse_quantified(arity)
        return self.parse_or(arity)

    def parse_quantified(self, arity: CatObject) -> Expr:
        start = self.pos
        premise: Expr | None = None
        if self.at_name("given"):
            self.advance()
            premise = self.parse_or(arity)
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
            var = self.build_morphism(arity, target, literal[0], literal[1])
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
        body = self.parse_term(target)
        if premise is None:
            premise = Top(arity)
        try:
            build = cond_exists if kw == "exists" else cond_forall
            return build(premise, var, body)
        except CategoryError as exc:
            self.fail(str(exc), start)

    def parse_or(self, arity: CatObject) -> Expr:
        left = self.parse_and(arity)
        while self.at_name("or"):
            at = self.pos
            self.advance()
            right = self.parse_and(arity)
            try:
                left = disj(left, right)
            except CategoryError as exc:
                self.fail(str(exc), at)
        return left

    def parse_and(self, arity: CatObject) -> Expr:
        left = self.parse_unary(arity)
        while self.at_name("and"):
            at = self.pos
            self.advance()
            right = self.parse_unary(arity)
            try:
                left = conj(left, right)
            except CategoryError as exc:
                self.fail(str(exc), at)
        return left

    def parse_unary(self, arity: CatObject) -> Expr:
        if self.at_name("not"):
            self.advance()
            return neg(self.parse_unary(arity))
        if self.at_name("given") or self.at_name("exists") or self.at_name("forall"):
            return self.parse_quantified(arity)
        return self.parse_primary(arity)

    def parse_primary(self, arity: CatObject) -> Expr:
        at = self.pos
        tok = self.peek()
        if tok == "(":
            self.advance()
            term = self.parse_term(arity)
            self.expect_punct(")")
            return term
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
            mapping, open_at = self.parse_morlit_entries()
            self.expect_punct(")")
            binding = self.build_morphism(feature_arity, arity, mapping, open_at)
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
        interp: dict[str, list[Morphism]] = {}
        while self.peek() in self.names:
            feat = self.advance()
            if feat not in fp.features:
                self.fail(f"footprint {fp_name!r} has no feature {feat!r}", self.pos - 1)
            listed = interp.setdefault(feat, [])
            while True:
                mapping, open_at = self.parse_morlit_entries()
                listed.append(self.build_morphism(fp.features[feat], carrier,
                                                  mapping, open_at))
                if not self.accept_punct(","):
                    break
            self.expect_punct(";")
        self.expect_punct("}")
        self.expect_punct(";")
        try:
            st = Structure(name, fp, carrier, interp)
        except CategoryError as exc:
            self.fail(str(exc), name_at)
        self.define(self.doc.structures, name, name_at, st)

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
                mapping, open_at = self.parse_morlit_entries()
                binding = self.build_morphism(e.arity, context, mapping, open_at)
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
                mapping, open_at = self.parse_morlit_entries()
                mor = self.build_morphism(lhs.context, rhs.context, mapping, open_at)
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
    return _Parser(text, source, base_dir, visited).parse_document()


def parse_document(text: str, *, source: str = "<input>",
                   base_dir: str | None = None) -> Document:
    """Parse .lfoc text into a document of resolved definitions."""
    return _parse(text, source, base_dir, frozenset())


def parse_path(path: str | os.PathLike) -> Document:
    """Parse a .lfoc file; imports resolve relative to its directory."""
    path = os.fspath(path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    resolved = os.path.normpath(path)
    return _parse(text, source=resolved, base_dir=os.path.dirname(resolved),
                  visited=frozenset({resolved}))


def parse_morphism_literal(text: str, dom: CatObject, cod: CatObject) -> Morphism:
    """Parse a standalone morphism literal such as "[a->x; b->y]"."""
    parser = _Parser(text, "<morphism>", None, frozenset())
    mapping, open_at = parser.parse_morlit_entries()
    if parser.peek() != "":
        parser.fail("trailing input after the morphism literal")
    return parser.build_morphism(dom, cod, mapping, open_at)


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

    def fresh(self, prefix: str, namespace: dict) -> str:
        while True:
            self.counters[prefix] += 1
            name = f"_{prefix[0].upper()}{self.counters[prefix]}"
            if name not in namespace:
                return name

    def object_name(self, obj: CatObject) -> str:
        for name, value in self.objects.items():
            if value == obj:
                return name
        name = self.fresh("obj", self.objects)
        self.objects[name] = obj
        return name

    def expr_name(self, e: Expr) -> str:
        for name, value in self.exprs.items():
            if value == e:
                return name
        name = self.fresh("expr", self.exprs)
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
        for sk in list(self.sketches.values()):
            self.collect_sketch(sk)
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
        if isinstance(e, (And, Or)):
            self.collect_expr(e.left)
            self.collect_expr(e.right)
        elif isinstance(e, Not):
            self.collect_expr(e.body)
        elif isinstance(e, (CondExists, CondForall)):
            self.object_name(e.var.cod)
            self.collect_expr(e.premise)
            self.collect_expr(e.body)

    # precedence: quantifier 0, or 1, and 2, not 3, primary 4
    def term(self, e: Expr, min_prec: int = 0) -> str:
        prec, text = self.term_prec(e)
        if prec < min_prec:
            return f"({text})"
        return text

    def term_prec(self, e: Expr) -> tuple[int, str]:
        if isinstance(e, Top):
            return 4, "top"
        if isinstance(e, Bot):
            return 4, "bot"
        if isinstance(e, Atomic):
            return 4, f"{e.feature}({format_morphism_literal(e.binding)})"
        if isinstance(e, Or):
            return 1, f"{self.term(e.left, 1)} or {self.term(e.right, 2)}"
        if isinstance(e, And):
            return 2, f"{self.term(e.left, 2)} and {self.term(e.right, 3)}"
        if isinstance(e, Not):
            return 3, f"not {self.term(e.body, 3)}"
        if isinstance(e, (CondExists, CondForall)):
            kw = "exists" if isinstance(e, CondExists) else "forall"
            target = self.object_name(e.var.cod)
            lit = format_morphism_literal(e.var)
            head = "" if isinstance(e.premise, Top) else f"given {self.term(e.premise, 1)} "
            return 0, f"{head}{kw} {lit} into {target} . {self.term(e.body, 0)}"
        raise TypeError(f"not an expression node: {e!r}")

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


def format_expr(e: Expr, doc: Document | None = None) -> str:
    """One-line rendering of an expression term."""
    printer = _Printer(doc or Document("set" if isinstance(e.arity, FinSet) else "graph"))
    return printer.term(e)
