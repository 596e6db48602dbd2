"""First-order terms, regular type expressions, and substitutions.

Terms are variables, constants (tagged with their literal kind), or compound
applications.  Type expressions mirror the shape of terms: type variables,
base types, bool, applications of declared type symbols, and applications of
term constructors used as type terms.  Both families are immutable and
hashable so they can sit in sets, dict keys, and constraint multisets.
Nodes hold only their structure and carry no source positions: the parser
reports a position from its tokens.

Each node also knows whether a variable occurs in it (`is_ground`): a
leaf's class says, and an application's answer is read once and kept on
the node, outside its fields.  Every walk here that looks for variables
(`free_vars`, substitution, the store reader and the solver's occurrence
counts) stops at a ground node, so a large ground term that a derivation
passes on from step to step costs nothing per step.  `free_vars` and
substitution ask of the applications they meet, and so fill the fact for
all they walk; the store reader and the occurrence counts, which the
solver runs, read only what is known (`ground` true), since within one
solve a fill would cost as much as the walk it saves.  Only `tree_counts`
walks ground nodes too, since the size it gives is the whole trees'.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter, is_
from typing import Union


@dataclass(frozen=True)
class SourceSpan:
    """Position of a token in its source text."""

    source: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.source}:{self.line}:{self.column}"


def write(node, parts, cap: int | None = None) -> str:
    """The text of `node`, a term or a type, as `parts` spells it, written
    with a stack of its own, so a node of any depth costs no Python stack.

    `parts(node)` gives either the node's whole text, or a tuple of the
    strings and nodes it is written as, in order; a tuple of nodes in that
    tuple is written comma-separated.  Given a `cap`, the text is cut after
    `cap` characters, and then ends in "...".
    """
    text = parts(node)
    if type(text) is str:  # a leaf, the commonest node
        return text
    out: list[str] = []
    size = 0
    stack = list(text[::-1])
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is not str:
            if kind is tuple:  # nodes, written with ", " between them
                seq = [", "] * (2 * len(item) - 1)
                seq[::2] = item[::-1]
                stack += seq
                continue
            item = parts(item)
            if type(item) is not str:
                stack += item[::-1]
                continue
        out.append(item)
        if cap:
            size += len(item)
            if size > cap:
                return "".join(out)[:cap] + "..."
    return "".join(out)


def _repr_parts(node):
    """The dataclass repr's text of a node, an application as its parts."""
    if type(node) not in _APPS:
        return repr(node)  # a leaf, whose generated repr walks nothing
    head = fields(node)[0].name
    close = ",))" if len(node.args) == 1 else "))"
    return f"{type(node).__name__}({head}={getattr(node, head)!r}, args=(", node.args, close


def _app_repr(node) -> str:
    """The text the dataclass repr gives an application, cut after 10 000
    characters: a subterm shared by several parents is written once per
    path, so the text of a small node can be exponentially long.
    """
    return write(node, _repr_parts, 10_000)


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

    __repr__ = _app_repr

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

    __repr__ = _app_repr


@dataclass(frozen=True)
class CtorApp:
    """A term constructor used as a type term, e.g. cons(int, list(int)) or []."""

    ctor: str
    args: tuple["TypeExpr", ...] = ()

    __repr__ = _app_repr


TypeExpr = Union[TVar, Base, Bool, SymApp, CtorApp]

_APPS = (Compound, SymApp, CtorApp)

# Whether no variable occurs in a node: a leaf's class says, and an
# application's is None, not known, until `is_ground` reads it and keeps it
# on the node.  These are class attributes, not fields, so equality, hashing
# and printing never see them, and building a node costs no more.
Var.ground = TVar.ground = False
Const.ground = Base.ground = Bool.ground = True
Compound.ground = SymApp.ground = CtorApp.ground = None

_ground = attrgetter("ground")


def is_ground(node) -> bool:
    """Whether no variable occurs in the term or type `node`.

    An application is read once in its life: the answer is kept on it, and
    the walk that finds it, with a stack of its own, fills every
    application below it not filled before, so below a node whose answer is
    known every answer is known, and a walk that has asked at a node may
    read `ground` off the nodes under it.
    """
    known = node.ground
    if known is not None:
        return known
    if None not in map(_ground, node.args):  # every argument known already
        known = all(map(_ground, node.args))
        object.__setattr__(node, "ground", known)
        return known
    stack = [node]
    while stack:
        top = stack[-1]
        if top.ground is not None:  # a shared node, filled since it was queued
            stack.pop()
            continue
        todo = [kid for kid in top.args if kid.ground is None]
        if todo:
            stack += todo
            continue
        stack.pop()
        object.__setattr__(top, "ground", all(map(_ground, top.args)))
    return node.ground


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


def rebuild_term(t: Compound, args: tuple) -> Compound:
    """The compound `t` with `args` for its arguments."""
    return Compound(t.functor, args)


def rebuild_type(ty: Union[SymApp, CtorApp], args: tuple) -> Union[SymApp, CtorApp]:
    """The application `ty` with `args` for its arguments."""
    if type(ty) is SymApp:
        return SymApp(ty.symbol, args)
    return CtorApp(ty.ctor, args)


def apply_subst(subst: Subst, term: Term) -> Term:
    """Replace every bound variable in `term`; unbound variables stay (see
    _substitute).
    """
    if type(term) is Var:
        return subst.get(term.name, term)
    return _substitute(subst, term, Var, rebuild_term)


def apply_type_subst(subst: TypeSubst, ty: TypeExpr) -> TypeExpr:
    """Replace every bound type variable in `ty`; unbound ones stay (see
    _substitute).
    """
    if type(ty) is TVar:
        return subst.get(ty.name, ty)
    return _substitute(subst, ty, TVar, rebuild_type)


def _substitute(subst: dict, node, var: type, rebuild):
    """`node`, a term or a type, with each variable of class `var` that
    `subst` binds replaced by its binding, all at once: a binding is not
    read again, so {X: Y, Y: X} swaps X and Y.  `rebuild(node, args)` makes
    an application with new arguments.

    Iterative, so a node of any depth costs no Python stack: `nodes` holds
    the applications entered and not yet closed, and `news` each one's
    arguments' images so far, so each application is read once.  A node
    under which no variable is bound is returned as it is, and a node shared
    by several parents is rebuilt once: `done` maps the id of each node
    closed so far to its image.  A ground node is not entered: each
    application met below `node` is asked (is_ground), so a term passed on
    from call to call is read once; `node` itself is not, since a call on a
    node built anew asks nothing of its variables' arguments.
    """
    if not subst or not getattr(node, "args", None) or node.ground:
        return node  # a constant, a base type, bool, an application known ground
    done: dict = {}
    nodes, news = [node], [[]]
    while True:
        node, new = nodes[-1], news[-1]
        args = node.args
        for arg in args[len(new) :]:  # resumed after the argument just closed
            if type(arg) is var:
                new.append(subst.get(arg.name, arg))
            elif arg.ground or arg.ground is None and is_ground(arg):
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
            image = node if all(map(is_, new, args)) else rebuild(node, tuple(new))
            if not nodes:
                return image
            done[id(node)] = image
            news[-1].append(image)


# --- triangular stores -------------------------------------------------------

# A store binds variable names to terms, or to types, whose own variables may
# be bound in it too, as the solver's eliminate rule and a derivation's steps
# leave them (Martelli and Montanari; Baader and Snyder call such a
# substitution triangular).  A node stands for what it denotes once every
# bound variable in it is replaced by its binding, all the way down.


def deref(store: dict, node, var: type):
    """What the top of `node` stands for under `store`, whose variables are
    of class `var`: `node`, or the end of the chain of bindings from it.
    The chain's bindings are moved to its end, which changes no meaning.
    """
    if type(node) is not var or node.name not in store:
        return node
    passed = []
    while type(node) is var and node.name in store:
        passed.append(node.name)
        node = store[node.name]
    for name in passed[:-1]:
        store[name] = node
    return node


def resolve_store(store: dict, node, memo: dict, var: type, rebuild):
    """The term or type `node` stands for under `store` (see deref), each
    application with new arguments made by `rebuild(node, args)`.

    Iterative, so a binding of any depth costs no Python stack.  Returns
    `node` itself when no bound variable occurs in it, so what the store
    leaves alone stays shared; a node known to be ground (its `ground`
    true, see is_ground) is returned as it is without a walk.  `memo` maps
    the id of each application and the name of each bound variable already
    done to its result; sharing it over several nodes keeps a subterm they
    share one object.
    """
    if type(node) is var:
        if node.name not in store:
            return node
        node = deref(store, node, var)
    if not store or not getattr(node, "args", None) or node.ground:
        return node

    stack = [node]
    while stack:
        top = stack[-1]
        args = getattr(top, "args", None)
        key = id(top) if args else top.name
        if key in memo:
            stack.pop()
            continue
        new, todo, same = [], False, True
        for kid in args or (store[key],):
            if getattr(kid, "args", None):
                got = kid if kid.ground else memo.get(id(kid))
            elif type(kid) is var and kid.name in store:
                got = memo.get(kid.name)
            else:
                got = kid
            if got is None:
                stack.append(kid)
                todo = True
            else:
                new.append(got)
                same = same and got is kid
        if todo:
            continue
        stack.pop()
        if not args:
            memo[key] = new[0]
        else:
            memo[key] = top if same else rebuild(top, tuple(new))
    return memo[id(node)]


def free_vars(node: Union[Term, TypeExpr, FuncType]) -> list[str]:
    """Distinct variable names of a term, type expression or function type,
    in first-occurrence order.  Iterative, and a compound shared by several
    parents is walked once: the preorder walk meets all of its names at its
    first visit, so skipping the later ones keeps the order.  A ground node
    (is_ground) is not entered.
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
            if node.args and id(node) not in walked and not is_ground(node):
                walked.add(id(node))
                stack.extend(reversed(node.args))
    return list(names)


free_type_vars = free_vars


def tree_counts(roots) -> tuple[dict[str, int], int]:
    """Occurrences of each variable name, and the number of nodes, in the
    trees that the terms or type expressions `roots` denote.  Every node is
    walked, ground or not, since the size is the whole trees' (it sizes the
    solver's rewrite budget); var_counts gives the counts alone for less.
    """
    return _path_counts(roots, False)


def var_counts(roots) -> dict[str, int]:
    """Occurrences of each variable name in the trees that the terms or
    type expressions `roots` denote, as tree_counts counts them, without
    entering a node known to be ground (its `ground` true, see is_ground),
    where none occurs.
    """
    return _path_counts(roots, True)[0]


def _path_counts(roots, skip_ground: bool) -> tuple[dict[str, int], int]:
    """tree_counts of `roots`; with `skip_ground`, no node known to be
    ground is entered, and the size counts each as one node.

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
                if skip_ground and node.ground:
                    continue
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
                if skip_ground and node.ground:
                    continue
                key = id(node)
                paths[key] = paths.get(key, 0) + weight
                edges[key] -= 1
                if not edges[key]:
                    ready.append((node.args, paths[key]))
            elif isinstance(node, (Var, TVar)):
                counts[node.name] = counts.get(node.name, 0) + weight
    return counts, size
