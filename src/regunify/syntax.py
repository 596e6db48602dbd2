"""First-order terms, regular type expressions, and substitutions.

Terms are variables, constants (tagged with their literal kind), or compound
applications.  Type expressions mirror the shape of terms: type variables,
base types, bool, applications of declared type symbols, and applications of
term constructors used as type terms.  Both families are immutable and
hashable so they can sit in sets, dict keys, and constraint multisets.
Nodes hold only their structure and carry no source positions: the parser
reports a position from its tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Union


@dataclass(frozen=True)
class SourceSpan:
    """Position of a token in its source text."""

    source: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.source}:{self.line}:{self.column}"


# --- terms -----------------------------------------------------------------

# Literal kinds a constant can carry, which are also the base type names: a
# literal is typed by its kind.  Atoms cover both plain atoms and the list
# terminator "[]".
BASE_KINDS = ("int", "float", "string", "atom")


@dataclass(frozen=True)
class Var:
    """Term variable, e.g. X."""

    name: str


@dataclass(frozen=True)
class Const:
    """Constant: an int/float/string literal or an atom."""

    symbol: Union[int, float, str]
    kind: str

    def __post_init__(self):
        if self.kind not in BASE_KINDS:
            raise ValueError(f"bad constant kind {self.kind!r}")


@dataclass(frozen=True)
class Compound:
    """Function application f(t1, ..., tn) with n >= 1."""

    functor: str
    args: tuple["Term", ...]

    @property
    def arity(self) -> int:
        return len(self.args)


Term = Union[Var, Const, Compound]

NIL = Const("[]", "atom")


def mk_int(n: int) -> Const:
    return Const(n, "int")


def mk_float(x: float) -> Const:
    return Const(x, "float")


def mk_string(s: str) -> Const:
    return Const(s, "string")


def mk_atom(name: str) -> Const:
    return Const(name, "atom")


def cons(head: Term, tail: Term) -> Compound:
    return Compound("cons", (head, tail))


def mk_list(items, tail: Term = NIL) -> Term:
    out = tail
    for item in reversed(list(items)):
        out = cons(item, out)
    return out


# --- type expressions ------------------------------------------------------

# Suffix marking the implicit type symbol that types an undeclared functor.
# The parser never accepts it in identifiers, so these names cannot collide
# with anything a user writes.
FREE_CTOR_SUFFIX = "°"


@dataclass(frozen=True)
class TVar:
    """Type variable."""

    name: str


@dataclass(frozen=True)
class Base:
    """Base type: int, float, string, or atom."""

    kind: str

    def __post_init__(self):
        if self.kind not in BASE_KINDS:
            raise ValueError(f"bad base type {self.kind!r}")


@dataclass(frozen=True)
class Bool:
    """The type of equations and predicate applications."""


@dataclass(frozen=True)
class SymApp:
    """Application of a declared type symbol, e.g. list(int)."""

    symbol: str
    args: tuple["TypeExpr", ...] = ()


@dataclass(frozen=True)
class CtorApp:
    """A term constructor used as a type term, e.g. cons(int, list(int)) or []."""

    ctor: str
    args: tuple["TypeExpr", ...] = ()


TypeExpr = Union[TVar, Base, Bool, SymApp, CtorApp]

INT = Base("int")
FLOAT = Base("float")
STRING = Base("string")
ATOM = Base("atom")
BOOL = Bool()


def free_ctor_symbol(functor: str) -> str:
    return functor + FREE_CTOR_SUFFIX


def free_ctor_functor(symbol: str) -> str | None:
    """Inverse of free_ctor_symbol; None if the name is not of that shape."""
    if symbol.endswith(FREE_CTOR_SUFFIX):
        return symbol[: -len(FREE_CTOR_SUFFIX)]
    return None


@dataclass(frozen=True)
class FuncType:
    """Signature body for a function or predicate symbol: domain -> codomain."""

    domain: tuple[TypeExpr, ...]
    codomain: TypeExpr

    def __post_init__(self):
        if len(self.domain) < 1:
            raise ValueError("function types need at least one domain type")


@dataclass(frozen=True)
class TypeScheme:
    """Universally quantified type: generics are the variables of the body."""

    generics: tuple[str, ...]
    body: Union[TypeExpr, FuncType]

    def __post_init__(self):
        if len(set(self.generics)) != len(self.generics):
            raise ValueError("duplicate generic variable in scheme")


# --- substitutions ---------------------------------------------------------

# A term substitution maps variable names to terms; a type substitution maps
# type-variable names to type expressions.  Both are used as plain dicts.
Subst = dict[str, Term]
TypeSubst = dict[str, TypeExpr]


def apply_subst(subst: Subst, term: Term) -> Term:
    """Replace every bound variable in `term`; unbound variables stay.

    Iterative, so a term of any depth costs no Python stack.  A compound
    under which no variable is bound is returned as it is, so what the
    substitution leaves alone keeps its identity, and a compound shared by
    several parents is rebuilt once: `done` maps the id of each compound
    closed so far to its image, and a compound closes once its compound
    arguments have.
    """
    kind = type(term)
    if kind is Var:
        return subst.get(term.name, term)
    if kind is Const or not subst:
        return term
    done: dict[int, Term] = {}
    stack = [term]
    while stack:
        node = stack[-1]
        if id(node) in done:  # a shared argument, queued twice
            stack.pop()
            continue
        new = []
        waiting = False
        for arg in node.args:
            kind = type(arg)
            if kind is Var:
                new.append(subst.get(arg.name, arg))
            elif kind is Const:
                new.append(arg)
            elif id(arg) in done:
                new.append(done[id(arg)])
            else:
                stack.append(arg)
                waiting = True
        if waiting:
            continue
        stack.pop()
        done[id(node)] = node if all(map(is_, new, node.args)) else Compound(node.functor, tuple(new))
    return done[id(term)]


def apply_type_subst(subst: TypeSubst, ty: TypeExpr) -> TypeExpr:
    """Replace every bound type variable in `ty`; unbound ones stay.

    Iterative, so a type of any depth costs no Python stack: `nodes` holds
    the applications entered and not yet closed, and `news` each one's
    arguments' images so far, so each application is read once.  A node
    under which no variable is bound is returned as it is, and a node shared
    by several parents is rebuilt once: `done` maps the id of each node
    closed so far to its image.
    """
    kind = type(ty)
    if kind is TVar:
        return subst.get(ty.name, ty)
    if not subst or not getattr(ty, "args", None):
        return ty  # base types, bool, a nullary application, or nothing bound
    done: dict[int, TypeExpr] = {}
    nodes, news = [ty], [[]]
    while True:
        node, new = nodes[-1], news[-1]
        args = node.args
        for arg in args[len(new) :]:  # resumed after the argument just closed
            kind = type(arg)
            if kind is TVar:
                new.append(subst.get(arg.name, arg))
            elif kind is Base or kind is Bool or not arg.args:
                new.append(arg)
            elif id(arg) in done:
                new.append(done[id(arg)])
            else:
                nodes.append(arg)
                news.append([])
                break
        else:
            nodes.pop()
            news.pop()
            if all(map(is_, new, args)):
                image = node
            elif type(node) is SymApp:
                image = SymApp(node.symbol, tuple(new))
            else:
                image = CtorApp(node.ctor, tuple(new))
            if not nodes:
                return image
            done[id(node)] = image
            news[-1].append(image)


def free_vars(node: Union[Term, TypeExpr, FuncType]) -> list[str]:
    """Distinct variable names of a term, type expression or function type,
    in first-occurrence order.  Iterative, and a compound shared by several
    parents is walked once: the preorder walk meets all of its names at its
    first visit, so skipping the later ones keeps the order.
    """
    names: dict[str, None] = {}
    walked: set[int] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var or kind is TVar:
            names[node.name] = None
        elif kind is FuncType:
            stack.append(node.codomain)
            stack.extend(reversed(node.domain))
        elif kind is Compound or kind is SymApp or kind is CtorApp:
            if node.args and id(node) not in walked:
                walked.add(id(node))
                stack.extend(reversed(node.args))
    return list(names)


free_type_vars = free_vars


def tree_counts(roots) -> tuple[dict[str, int], int]:
    """Occurrences of each variable name, and the number of nodes, in the
    trees that the terms or type expressions `roots` denote.

    A subterm shared by several parents counts once per path that reaches
    it, as if the trees were copied out, but it is visited only once.  The
    first pass counts the edges into each distinct compound node; where no
    node has two, the roots are trees and that pass has counted everything.
    Otherwise a second pass hands each node the number of paths into it
    once all its parents are done, so the cost stays linear in distinct
    nodes even where the trees are exponentially larger.
    """
    counts: dict[str, int] = {}
    edges: dict[int, int] = {}
    size = 0
    shared = False
    stack = [roots]
    while stack:
        for node in stack.pop():
            size += 1
            if getattr(node, "args", None):
                key = id(node)
                if key in edges:
                    edges[key] += 1
                    shared = True
                else:
                    edges[key] = 1
                    stack.append(node.args)
            elif isinstance(node, (Var, TVar)):
                counts[node.name] = counts.get(node.name, 0) + 1
    if not shared:
        return counts, size
    counts, size = {}, 0
    paths: dict[int, int] = {}
    ready = [(roots, 1)]
    while ready:
        args, weight = ready.pop()
        size += len(args) * weight
        for node in args:
            if getattr(node, "args", None):
                key = id(node)
                paths[key] = paths.get(key, 0) + weight
                edges[key] -= 1
                if not edges[key]:
                    ready.append((node.args, paths[key]))
            elif isinstance(node, (Var, TVar)):
                counts[node.name] = counts.get(node.name, 0) + weight
    return counts, size

