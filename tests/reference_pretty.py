"""Reference printers for terms and types: the recursive writers.

These are the printers `regunify.pretty` had before its writers became one
iterative loop (`syntax.write`), kept as they were so that the differential
tests can hold the loop to them text for text.  They recurse once per level,
so only shallow nodes go through them.  They share no printing code with the
package: only the node classes come from `regunify.syntax`.  `node_repr`
is the text a generated dataclass repr gives a node, which the package's
application repr, written by the same loop, must give.
"""

from __future__ import annotations

import re
from dataclasses import fields, is_dataclass

from regunify.syntax import Base, Bool, Compound, Const, SymApp, TVar, Var

_PLAIN_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


def _atom_text(name):
    if name == "[]" or _PLAIN_ATOM.match(name):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def pp_term(term):
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


def _pp_list(term):
    items = []
    while isinstance(term, Compound) and term.functor == "cons" and term.arity == 2:
        items.append(pp_term(term.args[0]))
        term = term.args[1]
    if isinstance(term, Const) and term == Const("[]", "atom"):
        return f"[{', '.join(items)}]"
    return f"[{', '.join(items)} | {pp_term(term)}]"


def pp_type(ty):
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


def node_repr(x):
    if isinstance(x, tuple):
        return "(" + ", ".join(map(node_repr, x)) + ("," if len(x) == 1 else "") + ")"
    if is_dataclass(x):
        inner = ", ".join(f"{f.name}={node_repr(getattr(x, f.name))}" for f in fields(x))
        return f"{type(x).__name__}({inner})"
    return repr(x)
