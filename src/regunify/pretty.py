"""Printers for terms, types, constraints, and substitutions.

Printing round-trips with the parser: parse(pp_term(t)) == t for any term the
syntax can express, and likewise for types.  Lists re-sugar to [a, b | T]
notation and `+`/2 prints infix; other operators print in functional form.
"""

from __future__ import annotations

import re

from .syntax import (
    Base,
    Bool,
    Compound,
    Const,
    SymApp,
    TVar,
    Term,
    TypeExpr,
    Var,
    free_type_vars,
)

_PLAIN_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


def _atom_text(name: str) -> str:
    if name == "[]" or _PLAIN_ATOM.match(name):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def pp_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        if term.kind == "string":
            escaped = str(term.symbol).replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        if term.kind == "atom":
            return _atom_text(str(term.symbol))
        return repr(term.symbol)
    if term.functor == "cons" and term.arity == 2:
        return _pp_list(term)
    if term.functor == "+" and term.arity == 2:
        # + parses left-associative, so a right-nested sum needs parentheses
        right = pp_term(term.args[1])
        rarg = term.args[1]
        if isinstance(rarg, Compound) and rarg.functor == "+" and rarg.arity == 2:
            right = f"({right})"
        return f"{pp_term(term.args[0])} + {right}"
    args = ", ".join(pp_term(a) for a in term.args)
    return f"{_atom_text(term.functor)}({args})"


def _pp_list(term: Term) -> str:
    items = []
    while isinstance(term, Compound) and term.functor == "cons" and term.arity == 2:
        items.append(pp_term(term.args[0]))
        term = term.args[1]
    if isinstance(term, Const) and term == Const("[]", "atom"):
        return f"[{', '.join(items)}]"
    return f"[{', '.join(items)} | {pp_term(term)}]"


def pp_goal(goal: Term) -> str:
    """Like pp_term but prints the goal-level operators = and is infix."""
    if isinstance(goal, Compound) and goal.arity == 2 and goal.functor in ("=", "is"):
        op = goal.functor
        return f"{pp_term(goal.args[0])} {op} {pp_term(goal.args[1])}"
    return pp_term(goal)


def pp_type(ty: TypeExpr) -> str:
    if isinstance(ty, TVar):
        return ty.name
    if isinstance(ty, Base):
        return ty.kind
    if isinstance(ty, Bool):
        return "bool"
    if isinstance(ty, SymApp):
        if not ty.args:
            return ty.symbol
        return f"{ty.symbol}({', '.join(pp_type(a) for a in ty.args)})"
    if not ty.args:
        return "[]" if ty.ctor == "[]" else _atom_text(ty.ctor)
    return f"{_atom_text(ty.ctor)}({', '.join(pp_type(a) for a in ty.args)})"


def pp_subst(subst: dict[str, Term]) -> str:
    inner = ", ".join(f"{name} = {pp_term(t)}" for name, t in sorted(subst.items()))
    return "{" + inner + "}"


def pp_context(ctx: dict[str, TypeExpr]) -> str:
    inner = ", ".join(f"{name} : {pp_type(ty)}" for name, ty in ctx.items())
    return "{" + inner + "}"


_DISPLAY_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def display_renaming(tys) -> dict[str, TVar]:
    """Rename machine-generated type variables ($-prefixed) to short readable
    names, in first-occurrence order.
    """
    renaming: dict[str, TVar] = {}
    for ty in tys:
        for name in free_type_vars(ty):
            if name.startswith("$") and name not in renaming:
                n = len(renaming)
                renaming[name] = TVar(_DISPLAY_NAMES[n % 26] + (str(n // 26) if n >= 26 else ""))
    return renaming
