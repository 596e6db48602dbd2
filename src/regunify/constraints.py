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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnboundVariable
from .syntax import (
    Const,
    FuncType,
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

    def tvar_for(self, var_name: str) -> TVar:
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


def _gen(ctx: Context, sig: SignatureEnv, term: Term, fresh: FreshSupply, out) -> TypeExpr:
    """The type of a term under a context; its type constraints are appended
    to `out` in generation order.
    """
    kind = type(term)
    if kind is Var:
        try:
            return ctx[term.name]
        except KeyError:
            raise UnboundVariable(f"variable {term.name} is not in the context") from None
    if kind is Const:
        return instantiate(sig.lookup_constant(term), fresh)
    args = term.args
    ft = instantiate(sig.lookup_function(term.functor, len(args)), fresh)
    assert isinstance(ft, FuncType) and len(ft.domain) == len(args)
    arg_tys = []
    for arg in args:  # a loop, not a comprehension: one frame per level
        arg_tys.append(_gen(ctx, sig, arg, fresh, out))
    out.extend(map(TypeConstraint, arg_tys, ft.domain))
    return ft.codomain


def gen_term(
    ctx: Context, sig: SignatureEnv, term: Term, fresh: FreshSupply
) -> tuple[TypeExpr, list[TermConstraint], list[TypeConstraint]]:
    """Type, term constraints, and type constraints of a term under a context.
    The term-constraint component of a plain term walk is always empty.
    """
    type_cs: list[TypeConstraint] = []
    return _gen(ctx, sig, term, fresh, type_cs), [], type_cs


def gen_equation(
    ctx: Context, sig: SignatureEnv, lhs: Term, rhs: Term, fresh: FreshSupply
) -> ConstraintState:
    """Constraints of the equation lhs = rhs: both sides' constraints, the
    term constraint itself, and the equality of the two types.
    """
    type_cs: list[TypeConstraint] = []
    lhs_ty = _gen(ctx, sig, lhs, fresh, type_cs)
    rhs_ty = _gen(ctx, sig, rhs, fresh, type_cs)
    type_cs.append(TypeConstraint(lhs_ty, rhs_ty))
    return ConstraintState(terms=(TermConstraint(lhs, rhs),), types=tuple(type_cs))


def gen_pair(
    ctx: Context, sig: SignatureEnv, lhs: Term, rhs: Term, fresh: FreshSupply, out
) -> TypeConstraint:
    """The type constraints `gen_equation` makes for lhs = rhs, in its order,
    appended to `out`; the last, the equality of the two types, is returned.
    `gen_equation` does not call this: the extra frame would cost it a level
    of term depth.
    """
    eq = TypeConstraint(_gen(ctx, sig, lhs, fresh, out), _gen(ctx, sig, rhs, fresh, out))
    out.append(eq)
    return eq
