"""Reference for the instance order on typings: one-sided matching.

A typing (context, type) is an instance of a principal typing when both
assign types to the same variables and one substitution on the principal's
type variables makes every pair of types syntactically equal.  This matcher
walks the pairs with an explicit stack and never binds a candidate variable.
It shares no code with `regunify.typecheck`, whose `is_instance` the
differential tests hold to this one.
"""

from __future__ import annotations

from regunify.syntax import Base, Bool, CtorApp, SymApp, TVar


def _match_rigid(pairs):
    """A substitution on the left-hand types making each pair equal,
    treating right-hand sides as fixed.  None when impossible.
    """
    out = {}
    stack = list(pairs)
    while stack:
        a, b = stack.pop()
        if isinstance(a, TVar):
            bound = out.get(a.name)
            if bound is None:
                out[a.name] = b
            elif bound != b:
                return None
            continue
        if isinstance(a, (Base, Bool)):
            if a != b:
                return None
            continue
        if isinstance(a, SymApp):
            if not (isinstance(b, SymApp) and a.symbol == b.symbol and len(a.args) == len(b.args)):
                return None
            stack.extend(zip(a.args, b.args))
            continue
        assert isinstance(a, CtorApp)
        if not (isinstance(b, CtorApp) and a.ctor == b.ctor and len(a.args) == len(b.args)):
            return None
        stack.extend(zip(a.args, b.args))
    return out


def reference_is_instance(candidate, principal) -> bool:
    cand_ctx, cand_ty = candidate
    prin_ctx, prin_ty = principal
    if set(cand_ctx) != set(prin_ctx):
        return False
    pairs = [(prin_ty, cand_ty)]
    pairs += [(prin_ctx[name], cand_ctx[name]) for name in prin_ctx]
    return _match_rigid(pairs) is not None
