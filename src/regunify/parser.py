"""Textual syntax for terms, queries, programs, type definitions, signatures.

Terms use Prolog-like notation:

    variables   X, Rest, _ (each _ is a distinct variable)
    constants   42, -3, 1.5, 1e+20, "text", atom, 'quoted atom', []
    compounds   f(X, g(1)), X + 1, [1, 2 | T], [](1)

[a, b | T] is sugar for cons(a, cons(b, T)); the functor '.'/2 is accepted as
an alias for cons on input.  Each _ is named _#n, counting on from the
largest _#n the input spells, so it is distinct from those too.  `=` and
`is` are goal-level infix operators; an `=` nested inside a term argument
is a parse error.

Type definitions:       tsym(A, B) --> ctor1 + ctor2(A, list(B)).
Signature declarations: length : list(A) * int -> bool.
Context declarations:   X : list(int).

Clause terminators are dots followed by layout or end of input, so floats and
the cons alias do not collide with them.  Comments run from % to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .syntax import (
    BASE_KINDS,
    Base,
    Bool,
    Compound,
    Const,
    CtorApp,
    NIL,
    SourceSpan,
    SymApp,
    TVar,
    Term,
    TypeExpr,
    TypeScheme,
    FuncType,
    Var,
    free_type_vars,
    mk_list,
)
from .typedefs import SignatureEnv, TypeDef, TypeDefSet

_TOKEN_TABLE = [
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"%[^\n]*"),
    ("ARROW2", r"-->"),
    ("ARROW", r"->"),
    ("NECK", r":-"),
    ("QNECK", r"\?-"),
    ("FLOAT", r"-?\d+\.\d+(?:[eE][+-]?\d+)?|-?\d+[eE][+-]?\d+"),
    ("INT", r"-?\d+"),
    ("STRING", r'"(?:[^"\\\n]|\\.)*"'),
    ("QATOM", r"'(?:[^'\\\n]|\\.)*'"),
    ("VAR", r"_#\d+|[A-Z_][A-Za-z0-9_]*"),
    ("ATOM", r"[a-z][A-Za-z0-9_]*"),
    ("DOT", r"\.(?=[ \t\r\n%]|$)"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LBRACK", r"\["),
    ("RBRACK", r"\]"),
    ("COMMA", r","),
    ("PIPE", r"\|"),
    ("PLUS", r"\+"),
    ("STAR", r"\*"),
    ("EQ", r"="),
    ("COLON", r":"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _TOKEN_TABLE))

_ESCAPES = {"\\\\": "\\", "\\'": "'", '\\"': '"', "\\n": "\n", "\\t": "\t"}


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    span: SourceSpan


def _unescape(body: str) -> str:
    return re.sub(r"\\.", lambda m: _ESCAPES.get(m.group(0), m.group(0)[1]), body)


def tokenize(text: str, source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", SourceSpan(source, line, col)
            )
        kind = m.lastgroup
        value = m.group(0)
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, value, SourceSpan(source, line, col)))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("EOF", "", SourceSpan(source, line, col)))
    return tokens


class _Parser:
    def __init__(self, text: str, source: str):
        self.tokens = tokenize(text, source)
        self.pos = 0
        self.anon_count = max(
            (int(t.value[2:]) for t in self.tokens if t.value.startswith("_#")), default=0
        )

    # -- token plumbing --

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.value or "end of input"
            raise ParseError(f"expected {what or kind}, found {shown!r}", tok.span)
        return self.advance()

    def fail(self, message: str, tok: Token | None = None):
        """Raise at `tok`, the offending term's first token, or else at the next token."""
        raise ParseError(message, (tok or self.peek()).span)

    def end(self):
        """An optional closing dot, then the end of input."""
        if self.at("DOT"):
            self.advance()
        self.expect("EOF", "end of input")

    def sep(self, parse_one, kind: str) -> list:
        """One or more items read by `parse_one`, separated by `kind` tokens."""
        items = [parse_one()]
        while self.at(kind):
            self.advance()
            items.append(parse_one())
        return items

    # -- terms --

    # `term`, `paren_args` and `list_term` recurse through each other once per
    # nesting level, so they keep their own loops: `sep` would add frames.

    def term(self) -> Term:
        left = self.primary()
        while self.at("PLUS"):
            self.advance()
            right = self.primary()
            left = Compound("+", (left, right))
        return left

    def primary(self) -> Term:
        tok = self.peek()
        if tok.kind == "VAR":
            self.advance()
            name = tok.value
            if name == "_":
                self.anon_count += 1
                name = f"_#{self.anon_count}"
            return Var(name)
        if tok.kind == "INT":
            self.advance()
            return Const(int(tok.value), "int")
        if tok.kind == "FLOAT":
            self.advance()
            return Const(float(tok.value), "float")
        if tok.kind == "STRING":
            self.advance()
            return Const(_unescape(tok.value[1:-1]), "string")
        if tok.kind in ("ATOM", "QATOM"):
            self.advance()
            name = tok.value if tok.kind == "ATOM" else _unescape(tok.value[1:-1])
            if self.at("LPAREN"):
                args = self.paren_args(self.term)
                if name == "." and len(args) == 2:
                    name = "cons"
                return Compound(name, args)
            return Const(name, "atom")
        if tok.kind == "LBRACK":
            return self.list_term()
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.term()
            self.expect("RPAREN")
            return inner
        self.fail(f"expected a term, found {tok.value!r}" if tok.value else "unexpected end of input")

    def paren_args(self, parse_one) -> tuple:
        self.expect("LPAREN")
        args = [parse_one()]
        while self.at("COMMA"):
            self.advance()
            args.append(parse_one())
        self.expect("RPAREN")
        return tuple(args)

    def list_term(self) -> Term:
        self.expect("LBRACK")
        if self.at("RBRACK"):
            self.advance()
            return Compound("[]", self.paren_args(self.term)) if self.at("LPAREN") else NIL
        items = [self.term()]
        while self.at("COMMA"):
            self.advance()
            items.append(self.term())
        tail: Term = NIL
        if self.at("PIPE"):
            self.advance()
            tail = self.term()
        self.expect("RBRACK")
        return mk_list(items, tail)

    # -- goals, queries, clauses --

    def goal(self) -> Term:
        start = self.peek()
        left = self.term()
        if self.at("EQ"):
            self.advance()
            right = self.term()
            return Compound("=", (left, right))
        if self.at("ATOM", "is"):
            self.advance()
            right = self.term()
            return Compound("is", (left, right))
        if isinstance(left, Var):
            self.fail("a goal cannot be a bare variable", start)
        if isinstance(left, Const) and left.kind != "atom":
            self.fail("a goal cannot be a literal", start)
        return left

    def goals(self) -> tuple[Term, ...]:
        return tuple(self.sep(self.goal, "COMMA"))

    def clause(self):
        from .resolution import Clause

        start = self.peek()
        head = self.term()
        if isinstance(head, Var) or (isinstance(head, Const) and head.kind != "atom"):
            self.fail("a clause head must be an atom or compound", start)
        if isinstance(head, Compound) and head.functor == "=":
            self.fail("the equality predicate cannot be redefined", start)
        body: tuple[Term, ...] = ()
        if self.at("NECK"):
            self.advance()
            body = self.goals()
        self.expect("DOT", "'.' at end of clause")
        return Clause(head, body)

    # -- types --

    def raw_type(self):
        """A type variable, or a `(name, args, span)` triple that
        `_resolve_type` turns into a node once all type symbols are known."""
        tok = self.peek()
        if tok.kind == "VAR":
            self.advance()
            if tok.value == "_":
                self.fail("anonymous variables are not allowed in types", tok)
            return TVar(tok.value)
        if tok.kind in ("ATOM", "QATOM"):
            self.advance()
            name = tok.value if tok.kind == "ATOM" else _unescape(tok.value[1:-1])
            args = self.paren_args(self.raw_type) if self.at("LPAREN") else ()
            return name, args, tok.span
        if tok.kind == "LBRACK":
            self.advance()
            self.expect("RBRACK")
            args = self.paren_args(self.raw_type) if self.at("LPAREN") else ()
            return "[]", args, tok.span
        self.fail(
            f"expected a type, found {tok.value!r}" if tok.value else "unexpected end of input"
        )

    def typedef(self) -> tuple:
        """`symbol(params) --> summands.` as a (symbol token, params, raw summands) triple."""
        head = self.expect("ATOM", "type symbol")
        params: tuple[str, ...] = ()
        if self.at("LPAREN"):
            params = self.paren_args(lambda: self.expect("VAR", "type parameter").value)
        self.expect("ARROW2", "'-->'")
        summands = self.sep(self.raw_type, "PLUS")
        self.expect("DOT", "'.' at end of definition")
        return head, params, summands


_RESERVED_TYPE_NAMES = set(BASE_KINDS) | {"bool"}


def _resolve_type(raw, symbols: dict[str, int]) -> TypeExpr:
    """Turn a raw type from `_Parser.raw_type` into a node: a name becomes
    bool, a base type, a symbol application or a constructor application."""
    if type(raw) is TVar:
        return raw
    name, raw_args, span = raw
    args = tuple(_resolve_type(a, symbols) for a in raw_args)
    if name in _RESERVED_TYPE_NAMES:
        if args:
            raise ParseError(f"{name} takes no arguments", span)
        return Bool() if name == "bool" else Base(name)
    if name in symbols:
        return SymApp(name, args)
    return CtorApp(name, args)


def _symbols(defs: TypeDefSet | None) -> dict[str, int]:
    """Arity of each type symbol: the built-in list and those of `defs`."""
    symbols = {"list": 1}
    if defs is not None:
        symbols.update((d.symbol, len(d.params)) for d in defs.defs())
    return symbols


# --- public entry points -----------------------------------------------------


def parse_term(text: str, source: str = "<term>") -> Term:
    p = _Parser(text, source)
    term = p.term()
    p.end()
    return term


def parse_equation(text: str, source: str = "<equation>"):
    """Parse `t1 = t2` into a pair, or a bare term into the term itself."""
    p = _Parser(text, source)
    left = p.term()
    if p.at("EQ"):
        p.advance()
        right = p.term()
        p.end()
        return (left, right)
    p.end()
    return left


def parse_query(text: str, source: str = "<query>") -> tuple[Term, ...]:
    p = _Parser(text, source)
    if p.at("QNECK"):
        p.advance()
    goals = p.goals()
    p.end()
    return goals


def parse_program(text: str, source: str = "<program>"):
    p = _Parser(text, source)
    clauses = []
    while not p.at("EOF"):
        clauses.append(p.clause())
    return tuple(clauses)


def parse_typedefs(text: str, source: str = "<types>") -> list[TypeDef]:
    """Parse definitions; summand names resolve against the file's own heads
    plus the built-in list.  Validation happens separately in typedefs.validate.
    """
    p = _Parser(text, source)
    raw_defs = []
    while not p.at("EOF"):
        raw_defs.append(p.typedef())
    symbols = _symbols(None)
    for head, params, _ in raw_defs:
        if head.value in _RESERVED_TYPE_NAMES:
            raise ParseError(f"{head.value} is a reserved type name", head.span)
        symbols[head.value] = len(params)
    return [
        TypeDef(head.value, params, tuple(_resolve_type(s, symbols) for s in summands))
        for head, params, summands in raw_defs
    ]


def parse_type(text: str, defs: TypeDefSet | None = None, source: str = "<type>") -> TypeExpr:
    p = _Parser(text, source)
    raw = p.raw_type()
    p.end()
    return _resolve_type(raw, _symbols(defs))


def _scheme_from_parts(domain, codomain) -> TypeScheme:
    body = FuncType(tuple(domain), codomain) if domain else codomain
    return TypeScheme(tuple(free_type_vars(body)), body)


def parse_signatures(
    text: str, defs: TypeDefSet | None = None, source: str = "<signatures>"
) -> SignatureEnv:
    """Parse override declarations into a signature container.

    `p : t1 * ... * tn -> bool.` declares a predicate, any other codomain a
    function, and `k : t.` a constant.
    """
    p = _Parser(text, source)
    symbols = _symbols(defs)
    constants: dict[str, TypeScheme] = {}
    functions: dict[tuple[str, int], TypeScheme] = {}
    predicates: dict[tuple[str, int], TypeScheme] = {}
    while not p.at("EOF"):
        tok = p.peek()
        if tok.kind not in ("ATOM", "QATOM"):
            p.fail("expected a symbol name")
        p.advance()
        name = tok.value if tok.kind == "ATOM" else _unescape(tok.value[1:-1])
        p.expect("COLON", "':'")
        parts = p.sep(lambda: _resolve_type(p.raw_type(), symbols), "STAR")
        codomain: TypeExpr | None = None
        if p.at("ARROW"):
            p.advance()
            codomain = _resolve_type(p.raw_type(), symbols)
        p.expect("DOT", "'.' at end of declaration")
        if codomain is None:
            if len(parts) != 1:
                raise ParseError("a constant declaration takes a single type", tok.span)
            constants[name] = _scheme_from_parts((), parts[0])
        elif isinstance(codomain, Bool):
            predicates[(name, len(parts))] = _scheme_from_parts(parts, codomain)
        else:
            functions[(name, len(parts))] = _scheme_from_parts(parts, codomain)
    return SignatureEnv(constants=constants, functions=functions, predicates=predicates)


def parse_context(
    text: str, defs: TypeDefSet | None = None, source: str = "<context>"
) -> dict[str, TypeExpr]:
    """Parse `X : type.` lines into a typing context."""
    p = _Parser(text, source)
    symbols = _symbols(defs)
    ctx: dict[str, TypeExpr] = {}
    while not p.at("EOF"):
        var = p.expect("VAR", "variable name")
        p.expect("COLON", "':'")
        ty = _resolve_type(p.raw_type(), symbols)
        p.expect("DOT", "'.' at end of entry")
        ctx[var.value] = ty
    return ctx
