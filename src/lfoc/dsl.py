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

import os
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


@dataclass(frozen=True)
class Token:
    kind: str  # "name", "string", "punct", "eof"
    value: str
    line: int
    col: int


def _lex(text: str, source: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise ParseError("unterminated string", start_line, start_col, source)
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise ParseError("unterminated string", start_line, start_col, source)
            i += 1
            col += 1
            tokens.append(Token("string", "".join(buf), start_line, start_col))
            continue
        two = text[i:i + 2]
        if two in ("->", "=>"):
            tokens.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in "{}[]();:,.@=":
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            start_line, start_col = line, col
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            # dotted names (from pushout naming) count as one token
            while j < n and text[j] == "." and j + 1 < n and (text[j + 1].isalnum()
                                                              or text[j + 1] == "_"):
                j += 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
            value = text[i:j]
            col += j - i
            i = j
            tokens.append(Token("name", value, start_line, start_col))
            continue
        if ch.isdigit():
            raise ParseError(f"names must not start with a digit: {ch!r}", line, col, source)
        raise ParseError(f"unexpected character {ch!r}", line, col, source)
    tokens.append(Token("eof", "", line, col))
    return tokens


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

    def feature_arities(self) -> dict[str, CatObject]:
        """Feature name -> arity across all footprints; clashing arities
        are reported at use sites."""
        out: dict[str, CatObject] = {}
        clashes = set()
        for fp in self.footprints.values():
            for fname, arity in fp.features.items():
                if fname in out and out[fname] != arity:
                    clashes.add(fname)
                out.setdefault(fname, arity)
        self._feature_clashes = clashes  # type: ignore[attr-defined]
        return out

    def sole_footprint(self) -> Footprint | None:
        if len(self.footprints) == 1:
            return next(iter(self.footprints.values()))
        return None


class _Parser:
    def __init__(self, tokens: list[Token], source: str, base_dir: str | None,
                 visited: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.base_dir = base_dir
        self.visited = visited
        self.doc: Document | None = None

    # -- token plumbing ------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col, self.source)

    def expect_punct(self, value: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.value != value:
            self.fail(f"expected {value!r}, found {tok.value!r}", tok)
        return self.advance()

    def expect_name(self, what: str = "name") -> Token:
        tok = self.peek()
        if tok.kind != "name":
            self.fail(f"expected a {what}, found {tok.value!r}", tok)
        return self.advance()

    def accept_punct(self, value: str) -> bool:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == value:
            self.advance()
            return True
        return False

    def at_name(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.value == value

    # -- document ------------------------------------------------------

    def parse_document(self) -> Document:
        first = self.peek()
        if not self.at_name("base"):
            self.fail("a document must start with a base declaration "
                      "(base set; or base graph;)", first)
        self.advance()
        kind_tok = self.expect_name("kind")
        if kind_tok.value not in ("set", "graph"):
            self.fail("base kind must be 'set' or 'graph'", kind_tok)
        self.expect_punct(";")
        self.doc = Document(kind_tok.value)
        while self.peek().kind != "eof":
            self.parse_statement()
        return self.doc

    def parse_statement(self) -> None:
        tok = self.peek()
        if tok.kind != "name":
            self.fail(f"expected a statement, found {tok.value!r}", tok)
        handler = {
            "import": self.parse_import,
            "obj": self.parse_obj,
            "mor": self.parse_mor,
            "footprint": self.parse_footprint,
            "expr": self.parse_expr_def,
            "structure": self.parse_structure,
            "sketch": self.parse_sketch,
            "rule": self.parse_rule,
        }.get(tok.value)
        if handler is None:
            if tok.value == "base":
                self.fail("duplicate base declaration", tok)
            self.fail(f"unknown statement {tok.value!r}", tok)
        self.advance()
        handler()

    def define(self, namespace: dict, name_tok: Token, value) -> None:
        if name_tok.value in namespace:
            self.fail(f"duplicate definition of {name_tok.value!r}", name_tok)
        namespace[name_tok.value] = value

    def parse_import(self) -> None:
        tok = self.peek()
        if tok.kind != "string":
            self.fail("import needs a quoted path", tok)
        self.advance()
        self.expect_punct(";")
        base = self.base_dir or os.getcwd()
        path = os.path.normpath(os.path.join(base, tok.value))
        if path in self.visited:
            self.fail(f"import cycle through {tok.value!r}", tok)
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            self.fail(f"cannot import {tok.value!r}: {exc}", tok)
        imported = _parse(text, source=path, base_dir=os.path.dirname(path),
                          visited=self.visited | {path})
        if imported.base_kind != self.doc.base_kind:
            self.fail(f"imported file has base {imported.base_kind!r}, "
                      f"expected {self.doc.base_kind!r}", tok)
        pairs = [
            (self.doc.objects, imported.objects), (self.doc.morphisms, imported.morphisms),
            (self.doc.footprints, imported.footprints), (self.doc.exprs, imported.exprs),
            (self.doc.structures, imported.structures),
            (self.doc.sketches, imported.sketches), (self.doc.rules, imported.rules),
        ]
        for mine, theirs in pairs:
            for name, value in theirs.items():
                if name in mine:
                    self.fail(f"import redefines {name!r}", tok)
                mine[name] = value

    # -- objects and morphisms ------------------------------------------

    def parse_obj(self) -> None:
        name_tok = self.expect_name()
        self.expect_punct("{")
        try:
            if self.doc.base_kind == "set":
                elements = []
                while self.peek().kind == "name":
                    elements.append(self.advance().value)
                obj: CatObject = FinSet(tuple(elements))
            else:
                vertices: list[str] = []
                edges: list[tuple[str, str, str]] = []
                while self.peek().kind == "name":
                    marker = self.advance()
                    if marker.value == "v":
                        while self.peek().kind == "name":
                            vertices.append(self.advance().value)
                        self.expect_punct(";")
                    elif marker.value == "e":
                        ename = self.expect_name("edge name").value
                        self.expect_punct(":")
                        src = self.expect_name("vertex").value
                        self.expect_punct("->")
                        tgt = self.expect_name("vertex").value
                        self.expect_punct(";")
                        edges.append((ename, src, tgt))
                    else:
                        self.fail("graph object lines start with 'v' or 'e'", marker)
                obj = FinGraph(tuple(vertices), tuple(edges))
        except CategoryError as exc:
            self.fail(str(exc), name_tok)
        self.expect_punct("}")
        self.expect_punct(";")
        self.define(self.doc.objects, name_tok, obj)

    def resolve_object(self, tok: Token) -> CatObject:
        obj = self.doc.objects.get(tok.value)
        if obj is None:
            self.fail(f"unknown object {tok.value!r}", tok)
        return obj

    def parse_morlit_entries(self) -> tuple[dict[str, str], Token]:
        open_tok = self.expect_punct("[")
        mapping: dict[str, str] = {}
        if not self.accept_punct("]"):
            while True:
                src = self.expect_name().value
                self.expect_punct("->")
                dst = self.expect_name().value
                if src in mapping:
                    self.fail(f"duplicate entry for {src!r}", open_tok)
                mapping[src] = dst
                if self.accept_punct("]"):
                    break
                self.expect_punct(";")
        return mapping, open_tok

    def build_morphism(self, dom: CatObject, cod: CatObject,
                       mapping: dict[str, str], tok: Token) -> Morphism:
        try:
            return morphism(dom, cod, mapping)
        except CategoryError as exc:
            self.fail(str(exc), tok)

    def parse_mor(self) -> None:
        name_tok = self.expect_name()
        self.expect_punct(":")
        dom = self.resolve_object(self.expect_name("object"))
        self.expect_punct("->")
        cod = self.resolve_object(self.expect_name("object"))
        self.expect_punct("=")
        mapping, open_tok = self.parse_morlit_entries()
        self.expect_punct(";")
        self.define(self.doc.morphisms, name_tok, self.build_morphism(dom, cod, mapping, open_tok))

    # -- footprints ------------------------------------------------------

    def parse_footprint(self) -> None:
        name_tok = self.expect_name()
        self.expect_punct("{")
        features: dict[str, CatObject] = {}
        while self.at_name("feature"):
            self.advance()
            fname_tok = self.expect_name("feature name")
            if fname_tok.value in TERM_KEYWORDS:
                self.fail(f"feature name {fname_tok.value!r} is a reserved word", fname_tok)
            if fname_tok.value in features:
                self.fail(f"duplicate feature {fname_tok.value!r}", fname_tok)
            self.expect_punct(":")
            arity = self.resolve_object(self.expect_name("object"))
            self.expect_punct(";")
            features[fname_tok.value] = arity
        self.expect_punct("}")
        self.expect_punct(";")
        try:
            fp = Footprint(name_tok.value, self.doc.base_kind, features)
        except CategoryError as exc:
            self.fail(str(exc), name_tok)
        self.define(self.doc.footprints, name_tok, fp)

    # -- expressions -----------------------------------------------------

    def parse_expr_def(self) -> None:
        name_tok = self.expect_name()
        if name_tok.value in TERM_KEYWORDS:
            self.fail(f"expression name {name_tok.value!r} is a reserved word", name_tok)
        self.expect_punct(":")
        arity = self.resolve_object(self.expect_name("object"))
        self.expect_punct("=")
        term = self.parse_term(arity)
        self.expect_punct(";")
        self.define(self.doc.exprs, name_tok, term)

    def parse_term(self, arity: CatObject) -> Expr:
        if self.at_name("given") or self.at_name("exists") or self.at_name("forall"):
            return self.parse_quantified(arity)
        return self.parse_or(arity)

    def parse_quantified(self, arity: CatObject) -> Expr:
        start = self.peek()
        premise: Expr | None = None
        if self.at_name("given"):
            self.advance()
            premise = self.parse_or(arity)
        kw = self.expect_name("quantifier")
        if kw.value not in ("exists", "forall"):
            self.fail("expected 'exists' or 'forall'", kw)
        named_mor: Morphism | None = None
        literal: tuple[dict[str, str], Token] | None = None
        if self.peek().kind == "punct" and self.peek().value == "[":
            literal = self.parse_morlit_entries()
        elif self.peek().kind == "name" and not self.at_name("into"):
            mtok = self.advance()
            named_mor = self.doc.morphisms.get(mtok.value)
            if named_mor is None:
                self.fail(f"unknown morphism {mtok.value!r}", mtok)
        into_tok = self.expect_name()
        if into_tok.value != "into":
            self.fail("expected 'into'", into_tok)
        target_tok = self.expect_name("object")
        target = self.resolve_object(target_tok)
        if literal is not None:
            var = self.build_morphism(arity, target, literal[0], literal[1])
        elif named_mor is not None:
            if named_mor.dom != arity or named_mor.cod != target:
                self.fail("named morphism does not run between the expression "
                          "arity and the quantifier target", target_tok)
            var = named_mor
        else:
            try:
                var = inclusion(arity, target)
            except CategoryError as exc:
                self.fail(str(exc), target_tok)
        self.expect_punct(".")
        body = self.parse_term(target)
        if premise is None:
            premise = Top(arity)
        try:
            build = cond_exists if kw.value == "exists" else cond_forall
            return build(premise, var, body)
        except CategoryError as exc:
            self.fail(str(exc), start)

    def parse_or(self, arity: CatObject) -> Expr:
        left = self.parse_and(arity)
        while self.at_name("or"):
            tok = self.advance()
            right = self.parse_and(arity)
            try:
                left = disj(left, right)
            except CategoryError as exc:
                self.fail(str(exc), tok)
        return left

    def parse_and(self, arity: CatObject) -> Expr:
        left = self.parse_unary(arity)
        while self.at_name("and"):
            tok = self.advance()
            right = self.parse_unary(arity)
            try:
                left = conj(left, right)
            except CategoryError as exc:
                self.fail(str(exc), tok)
        return left

    def parse_unary(self, arity: CatObject) -> Expr:
        if self.at_name("not"):
            self.advance()
            return neg(self.parse_unary(arity))
        if self.at_name("given") or self.at_name("exists") or self.at_name("forall"):
            return self.parse_quantified(arity)
        return self.parse_primary(arity)

    def parse_primary(self, arity: CatObject) -> Expr:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == "(":
            self.advance()
            term = self.parse_term(arity)
            self.expect_punct(")")
            return term
        if tok.kind != "name":
            self.fail(f"expected an expression, found {tok.value!r}", tok)
        if tok.value == "top":
            self.advance()
            return Top(arity)
        if tok.value == "bot":
            self.advance()
            return Bot(arity)
        if tok.value in TERM_KEYWORDS:
            self.fail(f"unexpected {tok.value!r} here", tok)
        self.advance()
        if self.peek().kind == "punct" and self.peek().value == "(":
            arities = self.doc.feature_arities()
            if tok.value in getattr(self.doc, "_feature_clashes", ()):
                self.fail(f"feature {tok.value!r} is declared with different "
                          f"arities by several footprints", tok)
            feature_arity = arities.get(tok.value)
            if feature_arity is None:
                self.fail(f"unknown feature {tok.value!r}", tok)
            self.advance()
            mapping, open_tok = self.parse_morlit_entries()
            self.expect_punct(")")
            binding = self.build_morphism(feature_arity, arity, mapping, open_tok)
            return atom(tok.value, binding)
        ref = self.doc.exprs.get(tok.value)
        if ref is None:
            self.fail(f"unknown expression {tok.value!r}", tok)
        if ref.arity != arity:
            self.fail(f"expression {tok.value!r} has arity {ref.arity!r}, "
                      f"expected {arity!r}", tok)
        return ref

    # -- structures --------------------------------------------------------

    def parse_structure(self) -> None:
        name_tok = self.expect_name()
        self.expect_punct(":")
        fp_tok = self.expect_name("footprint")
        fp = self.doc.footprints.get(fp_tok.value)
        if fp is None:
            self.fail(f"unknown footprint {fp_tok.value!r}", fp_tok)
        self.expect_punct("{")
        carrier_tok = self.expect_name()
        if carrier_tok.value != "carrier":
            self.fail("a structure body starts with 'carrier'", carrier_tok)
        carrier = self.resolve_object(self.expect_name("object"))
        self.expect_punct(";")
        interp: dict[str, list[Morphism]] = {}
        while self.peek().kind == "name":
            feat_tok = self.advance()
            if feat_tok.value not in fp.features:
                self.fail(f"footprint {fp_tok.value!r} has no feature "
                          f"{feat_tok.value!r}", feat_tok)
            listed = interp.setdefault(feat_tok.value, [])
            while True:
                mapping, open_tok = self.parse_morlit_entries()
                listed.append(self.build_morphism(fp.features[feat_tok.value],
                                                  carrier, mapping, open_tok))
                if not self.accept_punct(","):
                    break
            self.expect_punct(";")
        self.expect_punct("}")
        self.expect_punct(";")
        try:
            st = Structure(name_tok.value, fp, carrier, interp)
        except CategoryError as exc:
            self.fail(str(exc), name_tok)
        self.define(self.doc.structures, name_tok, st)

    # -- sketches and rules --------------------------------------------------

    def parse_sketch(self) -> None:
        name_tok = self.expect_name()
        self.expect_punct("{")
        ctx_tok = self.expect_name()
        if ctx_tok.value != "context":
            self.fail("a sketch body starts with 'context'", ctx_tok)
        context = self.resolve_object(self.expect_name("object"))
        self.expect_punct(";")
        constraints: list[Constraint] = []
        while self.at_name("constraint"):
            self.advance()
            expr_tok = self.expect_name("expression")
            e = self.doc.exprs.get(expr_tok.value)
            if e is None:
                self.fail(f"unknown expression {expr_tok.value!r}", expr_tok)
            self.expect_punct("@")
            if self.peek().kind == "punct" and self.peek().value == "[":
                mapping, open_tok = self.parse_morlit_entries()
                binding = self.build_morphism(e.arity, context, mapping, open_tok)
            else:
                mtok = self.expect_name("morphism")
                binding = self.doc.morphisms.get(mtok.value)
                if binding is None:
                    self.fail(f"unknown morphism {mtok.value!r}", mtok)
                if binding.dom != e.arity or binding.cod != context:
                    self.fail("binding does not run from the expression arity "
                              "into the context", mtok)
            self.expect_punct(";")
            constraints.append(Constraint(e, binding))
        self.expect_punct("}")
        self.expect_punct(";")
        self.define(self.doc.sketches, name_tok, Sketch(name_tok.value, context, constraints))

    def parse_rule(self) -> None:
        name_tok = self.expect_name()
        self.expect_punct(":")
        lhs_tok = self.expect_name("sketch")
        lhs = self.doc.sketches.get(lhs_tok.value)
        if lhs is None:
            self.fail(f"unknown sketch {lhs_tok.value!r}", lhs_tok)
        self.expect_punct("=>")
        rhs_tok = self.expect_name("sketch")
        rhs = self.doc.sketches.get(rhs_tok.value)
        if rhs is None:
            self.fail(f"unknown sketch {rhs_tok.value!r}", rhs_tok)
        mor: Morphism | None = None
        if self.at_name("via"):
            self.advance()
            if self.peek().kind == "punct" and self.peek().value == "[":
                mapping, open_tok = self.parse_morlit_entries()
                mor = self.build_morphism(lhs.context, rhs.context, mapping, open_tok)
            else:
                mtok = self.expect_name("morphism")
                mor = self.doc.morphisms.get(mtok.value)
                if mor is None:
                    self.fail(f"unknown morphism {mtok.value!r}", mtok)
                if mor.dom != lhs.context or mor.cod != rhs.context:
                    self.fail("rule morphism does not run between the two "
                              "sketch contexts", mtok)
        else:
            if lhs.context != rhs.context:
                self.fail("omitting 'via' needs equal lhs and rhs contexts", name_tok)
            mor = identity(lhs.context)
        self.expect_punct(";")
        try:
            rule = SketchRule(name_tok.value, lhs, rhs, mor)
        except CategoryError as exc:
            self.fail(str(exc), name_tok)
        self.define(self.doc.rules, name_tok, rule)


def _parse(text: str, source: str, base_dir: str | None,
           visited: frozenset[str]) -> Document:
    parser = _Parser(_lex(text, source), source, base_dir, visited)
    return parser.parse_document()


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
    tokens = _lex(text, "<morphism>")
    parser = _Parser(tokens, "<morphism>", None, frozenset())
    mapping, open_tok = parser.parse_morlit_entries()
    if parser.peek().kind != "eof":
        parser.fail("trailing input after the morphism literal")
    return parser.build_morphism(dom, cod, mapping, open_tok)


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
