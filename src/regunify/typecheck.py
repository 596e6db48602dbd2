"""Syntax-directed type checking against a context and signature.

check decides whether `term : ty` is derivable under a context that assigns
each variable a type:

    variable    its context entry must equal the candidate type
    constant    some instance of its scheme must equal the candidate type
    compound    some instance of its scheme must have the candidate type as
                codomain and type every argument recursively

The candidate type and the context are taken literally: their type variables
are rigid, and only the variables introduced by instantiating schemes may be
bound while matching.  That makes the procedure a decision method rather than
inference: checking cons(X, []) against list(atom) under {X : int} fails even
though the term is typeable under another context.

check_equation decides whether the two sides share some type (the equation
then has type bool), and is_instance whether one typing is a substitution
instance of another.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .syntax import (
    Const,
    CtorApp,
    FuncType,
    SymApp,
    TVar,
    Term,
    TypeExpr,
    apply_type_subst,
    free_type_vars,
    Var,
)
from .errors import UnboundVariable
from .typedefs import SignatureEnv, instantiate

Context = dict[str, TypeExpr]


@dataclass
class _MatchState:
    """Bindings for match variables created by scheme instantiation."""

    flexible: set[str] = field(default_factory=set)
    bindings: dict[str, TypeExpr] = field(default_factory=dict)
    counter: int = 0
    failure: tuple[Term, TypeExpr] | None = None

    def tvar(self) -> TVar:
        self.counter += 1
        name = f"?{self.counter}"
        self.flexible.add(name)
        return TVar(name)

    def resolve(self, ty: TypeExpr) -> TypeExpr:
        while isinstance(ty, TVar) and ty.name in self.bindings:
            ty = self.bindings[ty.name]
        return ty

    def deep_resolve(self, ty: TypeExpr) -> TypeExpr:
        """`ty` with every bound variable replaced by its binding, at any
        depth.  An application waits on the stack, wrapped in a 1-tuple,
        until its resolved arguments are the last entries of `done`.
        """
        done: list[TypeExpr] = []
        todo: list = [ty]
        while todo:
            ty = todo.pop()
            if type(ty) is tuple:
                node = ty[0]
                n = len(done) - len(node.args)
                done[n:] = [replace(node, args=tuple(done[n:]))]
                continue
            ty = self.resolve(ty)
            if isinstance(ty, (SymApp, CtorApp)):
                todo.append((ty,))
                todo.extend(reversed(ty.args))
            else:
                done.append(ty)
        return done[0]


def _occurs(name: str, ty: TypeExpr, st: _MatchState) -> bool:
    stack = [ty]
    while stack:
        ty = st.resolve(stack.pop())
        if isinstance(ty, TVar) and ty.name == name:
            return True
        if isinstance(ty, (SymApp, CtorApp)):
            stack.extend(ty.args)
    return False


def _match(a: TypeExpr, b: TypeExpr, st: _MatchState) -> bool:
    """Unify allowing bindings only on flexible variables; everything else,
    including the rigid type variables of the candidate, acts as a constant.
    Pairs wait on a stack, pushed in reverse, so the leftmost is matched first.
    """
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        a, b = st.resolve(a), st.resolve(b)
        if not isinstance(a, (SymApp, CtorApp)) and a == b:  # leaves alone compare by ==
            continue
        if isinstance(a, TVar) and a.name in st.flexible:
            if _occurs(a.name, b, st):
                return False
            st.bindings[a.name] = b
        elif isinstance(b, TVar) and b.name in st.flexible:
            if _occurs(b.name, a, st):
                return False
            st.bindings[b.name] = a
        elif (
            isinstance(a, SymApp) and isinstance(b, SymApp) and a.symbol == b.symbol
            or isinstance(a, CtorApp) and isinstance(b, CtorApp) and a.ctor == b.ctor
        ):
            if len(a.args) != len(b.args):
                return False
            pairs.extend(zip(reversed(a.args), reversed(b.args)))
        else:
            return False
    return True


def _check(ctx: Context, sig: SignatureEnv, term: Term, ty: TypeExpr, st: _MatchState) -> bool:
    """Take the judgments `term : ty` in preorder, left to right: a node
    matches its scheme's codomain against its candidate type, then its
    arguments wait on the stack with their domain types.  The first
    judgment whose match fails is remembered, with its candidate type as
    the bindings then stand, and ends the walk.
    """
    todo = [(term, ty)]
    while todo:
        term, ty = todo.pop()
        if isinstance(term, Var):
            try:
                declared = ctx[term.name]
            except KeyError:
                raise UnboundVariable(f"variable {term.name} is not in the context") from None
            ok = _match(declared, ty, st)
        elif isinstance(term, Const):
            ok = _match(instantiate(sig.lookup_constant(term), st), ty, st)
        else:
            ft = instantiate(sig.lookup_function(term.functor, term.arity), st)
            assert isinstance(ft, FuncType)
            ok = _match(ft.codomain, ty, st)
            todo.extend(zip(reversed(term.args), reversed(ft.domain)))
        if not ok:
            st.failure = (term, st.deep_resolve(ty))
            return False
    return True


def check(ctx: Context, sig: SignatureEnv, term: Term, ty: TypeExpr) -> bool:
    """Whether `term : ty` is derivable under the context."""
    return _check(ctx, sig, term, ty, _MatchState())


def check_explain(ctx: Context, sig: SignatureEnv, term: Term, ty: TypeExpr):
    """Like check, but on failure also return the first sub-judgment that
    could not be derived, as a (subterm, expected type) pair.
    """
    st = _MatchState()
    ok = _check(ctx, sig, term, ty, st)
    return ok, (None if ok else st.failure)


def check_equation(ctx: Context, sig: SignatureEnv, lhs: Term, rhs: Term) -> bool:
    """Whether lhs = rhs types as bool: both sides derivable at a common type."""
    ok, _ = check_equation_explain(ctx, sig, lhs, rhs)
    return ok


def check_equation_explain(ctx: Context, sig: SignatureEnv, lhs: Term, rhs: Term):
    st = _MatchState()
    shared = st.tvar()
    ok = _check(ctx, sig, lhs, shared, st) and _check(ctx, sig, rhs, shared, st)
    return ok, (None if ok else st.failure)


# --- typing instances ---------------------------------------------------------


def is_instance(candidate: tuple[Context, TypeExpr], principal: tuple[Context, TypeExpr]) -> bool:
    """Whether one substitution carries the principal typing onto the
    candidate: same variables, and a single type substitution maps the
    principal context and type pointwise onto the candidate's.

    The principal's type variables are renamed apart to flexible ones (`?n`
    is outside the type grammar) and matched against the rigid candidate.
    """
    cand_ctx, cand_ty = candidate
    prin_ctx, prin_ty = principal
    if set(cand_ctx) != set(prin_ctx):
        return False
    st = _MatchState()
    pairs = [(prin_ty, cand_ty)] + [(prin_ctx[name], cand_ctx[name]) for name in prin_ctx]
    names = dict.fromkeys(name for p, _ in pairs for name in free_type_vars(p))
    apart = {name: st.tvar() for name in names}
    return all(_match(apply_type_subst(apart, p), c, st) for p, c in pairs)
