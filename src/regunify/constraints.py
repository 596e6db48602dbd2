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

from .errors import UnboundVariable
from .syntax import (
    Const,
    TVar,
    Term,
    TypeExpr,
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
        return Var(f"${hint}{self._count}")

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
