"""Reference for syntax-directed type checking: the recursive walk.

One call per judgment `term : ty`, in preorder and left to right: a node
instantiates its scheme, matches the codomain against the candidate, then
checks each argument against the scheme's domain type, stopping at the
first failure.  The first judgment to fail is remembered with its
candidate type fully resolved.  It shares no code with
`regunify.typecheck` beyond `instantiate`, so the differential tests can
hold the package's iterative checker to it: the same verdicts, the same
failing judgment and the same errors.
"""

from __future__ import annotations

from regunify.errors import UnboundVariable
from regunify.syntax import Const, CtorApp, SymApp, TVar, Var
from regunify.typedefs import instantiate


class MatchState:
    """Bindings for the flexible variables that instantiation creates."""

    def __init__(self):
        self.flexible = set()
        self.bindings = {}
        self.counter = 0
        self.failure = None

    def tvar(self):
        self.counter += 1
        name = f"?{self.counter}"
        self.flexible.add(name)
        return TVar(name)

    def resolve(self, ty):
        while isinstance(ty, TVar) and ty.name in self.bindings:
            ty = self.bindings[ty.name]
        return ty

    def deep_resolve(self, ty):
        ty = self.resolve(ty)
        if isinstance(ty, SymApp):
            return SymApp(ty.symbol, tuple(self.deep_resolve(a) for a in ty.args))
        if isinstance(ty, CtorApp):
            return CtorApp(ty.ctor, tuple(self.deep_resolve(a) for a in ty.args))
        return ty


def _occurs(name, ty, st):
    ty = st.resolve(ty)
    if isinstance(ty, TVar):
        return ty.name == name
    return isinstance(ty, (SymApp, CtorApp)) and any(_occurs(name, a, st) for a in ty.args)


def _match(a, b, st):
    a, b = st.resolve(a), st.resolve(b)
    if not isinstance(a, (SymApp, CtorApp)) and a == b:
        return True
    if isinstance(a, TVar) and a.name in st.flexible:
        if _occurs(a.name, b, st):
            return False
        st.bindings[a.name] = b
        return True
    if isinstance(b, TVar) and b.name in st.flexible:
        if _occurs(b.name, a, st):
            return False
        st.bindings[b.name] = a
        return True
    if (
        isinstance(a, SymApp) and isinstance(b, SymApp) and a.symbol == b.symbol
        or isinstance(a, CtorApp) and isinstance(b, CtorApp) and a.ctor == b.ctor
    ):
        return len(a.args) == len(b.args) and all(
            _match(x, y, st) for x, y in zip(a.args, b.args)
        )
    return False


def _check(ctx, sig, term, ty, st):
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
        ok = _match(ft.codomain, ty, st) and all(
            _check(ctx, sig, arg, dom_ty, st) for arg, dom_ty in zip(term.args, ft.domain)
        )
    if not ok and st.failure is None:
        st.failure = (term, st.deep_resolve(ty))
    return ok


def check_explain(ctx, sig, term, ty):
    """(ok, first failing (subterm, expected type) or None)."""
    st = MatchState()
    ok = _check(ctx, sig, term, ty, st)
    return ok, (None if ok else st.failure)


def check_equation_explain(ctx, sig, lhs, rhs):
    st = MatchState()
    shared = st.tvar()
    ok = _check(ctx, sig, lhs, shared, st) and _check(ctx, sig, rhs, shared, st)
    return ok, (None if ok else st.failure)
