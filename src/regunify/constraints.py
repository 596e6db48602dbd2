"""Constraint generation for terms and equations.

Walking a term bottom-up, left to right, produces its type plus the
constraints that must hold for the term to be well-typed:

    variable X          the type the context assigns to X; no constraints
    constant k          a fresh instance of k's scheme; no constraints
    f(t1, ..., tn)      instantiate f's scheme with fresh variables, emit each
                        subterm's constraints, then one constraint per
                        argument equating the subterm type with the scheme's
                        domain type; the result is the instantiated codomain

An equation t1 = t2 contributes the term constraint t1 = t2 plus both sides'
constraints and the type constraint equating the two result types; its own
type is bool.  Constraint order is the generation order above, which the
solver and its traces rely on.

The one generator, `gen_columns`, builds no constraint object: it appends
each type constraint's left side to one list and its right side to another,
the columns a solver phase starts from (`solver.solve_columns`), entry i of
both lists being constraint i in generation order.  `gen_equation_columns`
gives an equation's type columns: t1's constraints, t2's, then the equality
of their types.  `gen_term` and `gen_equation` build the objects from those
columns for callers that want a `ConstraintState`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ArityMismatch, UnboundVariable
from .syntax import (
    Compound,
    Const,
    CtorApp,
    SymApp,
    TVar,
    Term,
    TypeExpr,
    TypeScheme,
    Var,
    free_vars,
    tree_counts,
)
from .typedefs import SignatureEnv, instantiate


@dataclass(frozen=True)
class TermConstraint:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class TypeConstraint:
    lhs: TypeExpr
    rhs: TypeExpr


@dataclass(frozen=True)
class ConstraintState:
    """A pair of ordered constraint multisets: terms (C) and types (T)."""

    terms: tuple[TermConstraint, ...]
    types: tuple[TypeConstraint, ...]

    def size(self) -> int:
        """Node count of both sets, as trees: a shared subterm counts once
        per occurrence, though it is visited once.
        """
        return tree_counts([side for c in (*self.terms, *self.types) for side in (c.lhs, c.rhs)])[1]


class FreshSupply:
    """Generates variable names guaranteed fresh for the whole session.

    Generated names start with '$', which the parser rejects, so they can
    never collide with names from source text.  The counter only moves
    forward; a supply never hands out the same name twice.
    """

    def __init__(self):
        self._count = 0

    def tvar(self) -> TVar:
        self._count += 1
        return TVar(f"$t{self._count}")

    def var(self, hint: str = "g") -> Var:
        self._count += 1
        return Var(self.var_name(hint, self._count))

    @staticmethod
    def var_name(hint: str, n: int) -> str:
        """The name `var(hint)` gives when it draws the supply's n-th name."""
        return f"${hint}{n}"

    @property
    def drawn(self) -> int:
        """How many names the supply has handed out."""
        return self._count

    def skip(self, n: int) -> None:
        """Move on as if n more names had been handed out, where a caller
        knows the names a walk would draw would never be seen.
        """
        self._count += n

    @staticmethod
    def tvar_for(var_name: str) -> TVar:
        """The canonical type variable for a term variable.  Distinct term
        variables map to distinct names without consuming the counter.
        """
        return TVar(f"${var_name}")


Context = dict[str, TypeExpr]


def generic_context(terms, fresh: FreshSupply) -> Context:
    """A context assigning every variable of the given terms its own type
    variable, in first-occurrence order.
    """
    ctx: Context = {}
    for t in terms:
        for name in free_vars(t):
            if name not in ctx:
                ctx[name] = fresh.tvar_for(name)
    return ctx


class GenericContext(dict):
    """A context that gives a variable its generic type, `$X` for X, when it
    is first read: a walk that reads every variable of some terms in order
    fills it exactly as `generic_context` of those terms would.
    """

    __slots__ = ()

    def __missing__(self, name: str) -> TVar:
        ty = self[name] = FreshSupply.tvar_for(name)
        return ty


def gen_columns(
    ctx: Context, sig: SignatureEnv, term: Term, fresh: FreshSupply, lhs: list, rhs: list
) -> TypeExpr:
    """The type of a term under a context.  Each of its type constraints is
    appended as its two sides, the left to `lhs` and the right to `rhs`, in
    generation order (see the module docstring).  A variable the context
    lacks raises UnboundVariable.

    The walk keeps its own stack, so a term of any depth costs no Python
    stack.  A compound node, when reached, draws its scheme's instance and
    is replaced on the stack by the instance's (domain, codomain) pair,
    which marks where the node closes, with its arguments above, the first
    on top.  Closing pops the arguments' types and appends one constraint
    per argument.  So fresh names are drawn, and the context read, in the
    recursive walk's order.
    """
    todo: list = [term]
    types: list = []  # the types of the arguments typed so far
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Var:
            try:
                types.append(ctx[node.name])
            except KeyError:
                raise UnboundVariable(f"variable {node.name} is not in the context") from None
        elif kind is Const:
            types.append(instantiate(sig.lookup_constant(node), fresh))
        elif kind is tuple:  # every argument of the node it closes is typed
            domain, codomain = node
            n = len(domain)
            lhs += types[-n:]
            rhs += domain
            del types[-n:]
            types.append(codomain)
        else:
            args = node.args
            instance = sig.function_instance(node.functor, len(args), fresh)
            assert len(instance[0]) == len(args)
            if args:
                todo.append(instance)
                todo += reversed(args)
            else:
                types.append(instance[1])
    return types[0]


class ClosedTypes:
    """The closed principal types of ground terms under one signature
    environment, and how many fresh names `gen_columns` draws typing each.

    A type is closed when it holds no type variable: int and list(atom) are,
    and list(A), the type of [], is not.  A compound's type is read off its
    arguments' without solving: the domain of the functor's scheme is
    matched against the closed argument types, each generic bound to the
    part of a type it meets, and the codomain is built from the bindings.
    An argument that is a constant with an open scheme, such as [], is
    checked last, its scheme matched against its domain type as the other
    arguments closed it; where they leave that type open, the node gets no
    closed type.  So `[1, 2]` types as list(int), while `[]`, `[[]]` and
    `f([])` have none, even where `f : A -> int` closes the last.

    `of` gives None for a term with a variable, one whose type is open or
    does not exist, or one where a signature lookup raises: the caller
    then types it with `gen_columns`, which raises the same error there.

    Each compound is typed once: `nodes` maps its id to the node itself, so
    that the id stays its own, its type and its draws.  Each type is built
    once (`made`), so equal closed types are one object, compared by
    identity at any depth, and a type's id can stand for it in a key.
    """

    def __init__(self, sig: SignatureEnv):
        self.sig = sig
        self.nodes: dict[int, tuple] = {}  # id -> (node, type or None, draws)
        self.made: dict = {}  # (class, name, argument ids) or a leaf type -> the type

    def of(self, term: Term) -> Optional[tuple[TypeExpr, int]]:
        """The closed type of `term` and the names typing it draws, or None."""
        kind = type(term)
        if kind is Const:
            got = self._constant(term)
            return None if got is None or type(got[0]) is TypeScheme else got
        if kind is not Compound:
            return None
        nodes = self.nodes
        todo = [term]
        while todo:
            node = todo[-1]
            if id(node) in nodes:  # a shared argument, queued twice
                todo.pop()
                continue
            waiting = [a for a in node.args if type(a) is Compound and id(a) not in nodes]
            if waiting:
                todo += waiting
                continue
            todo.pop()
            nodes[id(node)] = (node, *self._close(node))
        _node, ty, draws = nodes[id(term)]
        return None if ty is None else (ty, draws)

    def _constant(self, const: Const):
        """(closed type, 0), or (scheme, its generics' count) for an open
        scheme, or None where the lookup raises.
        """
        try:
            scheme = self.sig.lookup_constant(const)
        except ArityMismatch:
            return None
        if scheme.generics:
            return scheme, len(scheme.generics)
        return self._build(scheme.body, {}), 0

    def _close(self, node: Compound) -> tuple[Optional[TypeExpr], int]:
        """The type and draws of a compound whose compound arguments are typed."""
        try:
            scheme = self.sig.lookup_function(node.functor, len(node.args))
        except ArityMismatch:
            return None, 0
        body = scheme.body
        binding: dict = {}
        draws = len(scheme.generics)
        later = []  # (domain type, open scheme) of each open constant
        for arg, domain in zip(node.args, body.domain):
            kind = type(arg)
            if kind is Compound:
                got = self.nodes[id(arg)][1:]
            elif kind is Const:
                got = self._constant(arg)
            else:
                return None, 0
            if got is None or got[0] is None:
                return None, 0
            ty, n = got
            draws += n
            if type(ty) is TypeScheme:
                later.append((domain, ty))
            elif not _match(domain, ty, binding):
                return None, 0
        for domain, open_scheme in later:
            ty = self._build(domain, binding)
            if ty is None or not _match(open_scheme.body, ty, {}):
                return None, 0
        return self._build(body.codomain, binding), draws

    def _build(self, pattern: TypeExpr, binding: dict) -> Optional[TypeExpr]:
        """`pattern` with each variable replaced by its binding, made of
        built types; None if a variable is unbound.
        """
        made = self.made
        out: list = []
        todo = [pattern]
        while todo:
            node = todo.pop()
            kind = type(node)
            if kind is tuple:  # every argument of the node it closes is built
                cls, name, n = node
                args = tuple(out[len(out) - n :])
                del out[len(out) - n :]
                key = (cls, name, *map(id, args))
                ty = made.get(key)
                if ty is None:
                    ty = made[key] = cls(name, args)
                out.append(ty)
            elif kind is TVar:
                ty = binding.get(node.name)
                if ty is None:
                    return None
                out.append(ty)
            elif kind is SymApp or kind is CtorApp:
                name = node.symbol if kind is SymApp else node.ctor
                todo.append((kind, name, len(node.args)))
                todo += reversed(node.args)
            else:  # base types and bool
                out.append(made.setdefault(node, node))
        return out[0]


def _match(pattern: TypeExpr, ty: TypeExpr, binding: dict) -> bool:
    """Whether the built type `ty` is an instance of `pattern` extending
    `binding`, which it extends with the variables `pattern` binds.
    """
    todo = [(pattern, ty)]
    while todo:
        p, t = todo.pop()
        kind = type(p)
        if kind is TVar:
            if binding.setdefault(p.name, t) is not t:
                return False
        elif kind is not type(t):
            return False
        elif kind is SymApp or kind is CtorApp:
            same = p.symbol == t.symbol if kind is SymApp else p.ctor == t.ctor
            if not same or len(p.args) != len(t.args):
                return False
            todo += zip(p.args, t.args)
        elif p != t:
            return False
    return True


def gen_equation_columns(
    ctx: Context, sig: SignatureEnv, lhs: Term, rhs: Term, fresh: FreshSupply
) -> tuple[list, list]:
    """The left and right sides of the type constraints of lhs = rhs, in
    `gen_equation`'s order: the left term's, the right term's, then the
    equality of the two types.
    """
    left: list = []
    right: list = []
    lhs_ty = gen_columns(ctx, sig, lhs, fresh, left, right)
    rhs_ty = gen_columns(ctx, sig, rhs, fresh, left, right)
    left.append(lhs_ty)
    right.append(rhs_ty)
    return left, right


def gen_term(
    ctx: Context, sig: SignatureEnv, term: Term, fresh: FreshSupply
) -> tuple[TypeExpr, list[TermConstraint], list[TypeConstraint]]:
    """Type, term constraints, and type constraints of a term under a context.
    The term-constraint component of a plain term walk is always empty.
    """
    left: list = []
    right: list = []
    ty = gen_columns(ctx, sig, term, fresh, left, right)
    return ty, [], list(map(TypeConstraint, left, right))


def gen_equation(
    ctx: Context, sig: SignatureEnv, lhs: Term, rhs: Term, fresh: FreshSupply
) -> ConstraintState:
    """Constraints of the equation lhs = rhs: both sides' constraints, the
    term constraint itself, and the equality of the two types.
    """
    left, right = gen_equation_columns(ctx, sig, lhs, rhs, fresh)
    return ConstraintState((TermConstraint(lhs, rhs),), tuple(map(TypeConstraint, left, right)))
