"""Reference for constraint generation: the recursive walk.

A term's type and constraints come from one recursive call per node,
bottom-up and left to right: a variable's type is its context entry, a
constant's a fresh instance of its scheme, and f(t1, ..., tn) instantiates
f's scheme, emits each argument's constraints, then one constraint per
argument equating its type with the scheme's domain type.  It builds every
constraint as an object and shares no code with `regunify.constraints`
beyond the constraint classes and `instantiate`, so the differential tests
can hold the package's iterative generator to it: the same sides in the
same order, the same types, the same fresh names and the same errors.
"""

from __future__ import annotations

from regunify.constraints import ConstraintState, TermConstraint, TypeConstraint
from regunify.errors import UnboundVariable
from regunify.syntax import Const, FuncType, Var
from regunify.typedefs import instantiate


def _gen(ctx, sig, term, fresh, out):
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
    for arg in args:
        arg_tys.append(_gen(ctx, sig, arg, fresh, out))
    out.extend(map(TypeConstraint, arg_tys, ft.domain))
    return ft.codomain


def gen_term(ctx, sig, term, fresh):
    """Type, term constraints (always none), and type constraints of a term."""
    type_cs = []
    return _gen(ctx, sig, term, fresh, type_cs), [], type_cs


def gen_equation(ctx, sig, lhs, rhs, fresh):
    """Both sides' constraints, the term constraint lhs = rhs, and the
    equality of the two types.
    """
    type_cs = []
    lhs_ty = _gen(ctx, sig, lhs, fresh, type_cs)
    rhs_ty = _gen(ctx, sig, rhs, fresh, type_cs)
    type_cs.append(TypeConstraint(lhs_ty, rhs_ty))
    return ConstraintState(terms=(TermConstraint(lhs, rhs),), types=tuple(type_cs))


def gen_pair(ctx, sig, lhs, rhs, fresh, out):
    """The type constraints `gen_equation` makes for lhs = rhs, in its order,
    appended to `out`; the last, the equality of the two types, is returned.
    """
    eq = TypeConstraint(_gen(ctx, sig, lhs, fresh, out), _gen(ctx, sig, rhs, fresh, out))
    out.append(eq)
    return eq
