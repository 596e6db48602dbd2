"""Printers for terms, types, constraints, and substitutions.

Printing round-trips with the parser: parse(pp_term(t)) == t for any term the
syntax can express, and likewise for types.  Lists re-sugar to [a, b | T]
notation and `+`/2 prints infix; other operators print in functional form.
Each printer is a front over `syntax.write`, given a private function that
spells one node, so a node of any depth prints without the Python stack.
"""

from __future__ import annotations

import re

from .syntax import (
    NIL,
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
    write,
)

_PLAIN_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


def _atom_text(name: str) -> str:
    if name == "[]" or _PLAIN_ATOM.match(name):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def pp_term(term: Term) -> str:
    return write(term, _term_parts)


def _term_parts(term: Term):
    if type(term) is Var:
        return term.name
    if type(term) is Const:
        if term.kind == "string":
            escaped = str(term.symbol).replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        if term.kind == "atom":
            return _atom_text(str(term.symbol))
        return repr(term.symbol)
    if term.functor == "cons" and term.arity == 2:
        items = []
        while type(term) is Compound and term.functor == "cons" and term.arity == 2:
            items.append(term.args[0])
            term = term.args[1]
        if term == NIL:
            return "[", tuple(items), "]"
        return "[", tuple(items), " | ", term, "]"
    if term.functor == "+" and term.arity == 2:
        # + parses left-associative, so a right-nested sum needs parentheses
        left, right = term.args
        if type(right) is Compound and right.functor == "+" and right.arity == 2:
            return left, " + (", right, ")"
        return left, " + ", right
    return f"{_atom_text(term.functor)}(", term.args, ")"


def pp_goal(goal: Term) -> str:
    """Like pp_term but prints the goal-level operators = and is infix."""
    if isinstance(goal, Compound) and goal.arity == 2 and goal.functor in ("=", "is"):
        op = goal.functor
        return f"{pp_term(goal.args[0])} {op} {pp_term(goal.args[1])}"
    return pp_term(goal)


def pp_type(ty: TypeExpr) -> str:
    return write(ty, _type_parts)


def _type_parts(ty: TypeExpr):
    if type(ty) is TVar:
        return ty.name
    if type(ty) is Base:
        return ty.kind
    if type(ty) is Bool:
        return "bool"
    name = ty.symbol if type(ty) is SymApp else _atom_text(ty.ctor)
    if not ty.args:
        return name
    return f"{name}(", ty.args, ")"


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
