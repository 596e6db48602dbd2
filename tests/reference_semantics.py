"""Reference for the ground semantics over the built-in list definition.

Evaluation, domain tags, ground equality and type membership as one
recursive walk per node, with the list constructor special-cased: `[]`
is the one empty-list value, `cons` demands a list tail whose element
domain meets the head's domain, and every other function symbol builds
trees freely.  A declared constant of a user definition is an atom here,
and a declared constructor a free tree, so this reference holds the
package's semantics only where no user definition is in play: without
`--types`, the two must give the same values, tags and verdicts.  It
shares no code with `regunify.semantics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from regunify.errors import NonGroundType, UnboundVariable, UnknownSymbol
from regunify.syntax import Base, Bool, Const, CtorApp, SymApp, TVar, Var, apply_type_subst


@dataclass(frozen=True)
class IntV:
    value: int


@dataclass(frozen=True)
class FltV:
    value: float


@dataclass(frozen=True)
class StrV:
    value: str


@dataclass(frozen=True)
class AtmV:
    name: str


@dataclass(frozen=True)
class BoolV:
    value: bool


@dataclass(frozen=True)
class NilV:
    """The empty list."""


@dataclass(frozen=True)
class ConsV:
    """A non-empty list cell, well-formed by construction (see mk_cons)."""

    head: "Value"
    tail: "Value"


@dataclass(frozen=True)
class TreeV:
    """A complex tree value root(children...), root not cons."""

    root: str
    children: tuple["Value", ...]


@dataclass(frozen=True)
class WrongV:
    """The run-time type error value."""


Value = Union[IntV, FltV, StrV, AtmV, BoolV, NilV, ConsV, TreeV, WrongV]

WRONG = WrongV()
NIL_VALUE = NilV()


@dataclass(frozen=True)
class BaseDom:
    kind: str  # int | float | string | atom | bool | wrong


@dataclass(frozen=True)
class AnyElem:
    """Wildcard element domain, produced only by empty lists."""


@dataclass(frozen=True)
class ListDom:
    elem: object


@dataclass(frozen=True)
class TreeDom:
    root: str
    children: tuple


ANY_ELEM = AnyElem()


def meet_tags(a, b):
    """Most specific common refinement of two tags; None when disjoint."""
    if isinstance(a, AnyElem):
        return b
    if isinstance(b, AnyElem):
        return a
    if a == b:
        return a
    if isinstance(a, ListDom) and isinstance(b, ListDom):
        elem = meet_tags(a.elem, b.elem)
        return None if elem is None else ListDom(elem)
    if isinstance(a, TreeDom) and isinstance(b, TreeDom):
        if a.root != b.root or len(a.children) != len(b.children):
            return None
        kids = []
        for x, y in zip(a.children, b.children):
            m = meet_tags(x, y)
            if m is None:
                return None
            kids.append(m)
        return TreeDom(a.root, tuple(kids))
    return None


def dom_tag(v):
    kind = {IntV: "int", FltV: "float", StrV: "string", AtmV: "atom", BoolV: "bool"}
    if type(v) in kind:
        return BaseDom(kind[type(v)])
    if isinstance(v, WrongV):
        return BaseDom("wrong")
    if isinstance(v, NilV):
        return ListDom(ANY_ELEM)
    if isinstance(v, ConsV):
        met = meet_tags(dom_tag(v.head), dom_tag(v.tail).elem)
        assert met is not None, "ConsV invariant violated"
        return ListDom(met)
    return TreeDom(v.root, tuple(dom_tag(c) for c in v.children))


def mk_cons(head, tail):
    """wrong unless the tail is a list whose element domain meets the head's."""
    if isinstance(head, WrongV) or isinstance(tail, WrongV):
        return WRONG
    if not isinstance(tail, (NilV, ConsV)):
        return WRONG
    head_tag = dom_tag(head)
    if head_tag.__class__ is BaseDom and head_tag.kind in ("bool", "wrong"):
        return WRONG
    if meet_tags(head_tag, dom_tag(tail).elem) is None:
        return WRONG
    return ConsV(head, tail)


def eval_term(term, state=None):
    """Value of a term under a variable state.  Unbound variables raise."""
    state = state or {}
    if isinstance(term, Var):
        try:
            return state[term.name]
        except KeyError:
            raise UnboundVariable(f"variable {term.name} has no value") from None
    if isinstance(term, Const):
        if term.kind == "int":
            return IntV(term.symbol)
        if term.kind == "float":
            return FltV(term.symbol)
        if term.kind == "string":
            return StrV(term.symbol)
        if term.symbol == "[]":
            return NIL_VALUE
        return AtmV(term.symbol)
    children = tuple(eval_term(a, state) for a in term.args)
    if any(isinstance(c, WrongV) for c in children):
        return WRONG
    if term.functor == "cons" and len(children) == 2:
        return mk_cons(children[0], children[1])
    return TreeV(term.functor, children)


def eq_values(v1, v2) -> str:
    """'true', 'false' or 'wrong': wrong unless both sides are right and
    their domains meet."""
    if isinstance(v1, WrongV) or isinstance(v2, WrongV):
        return "wrong"
    if meet_tags(dom_tag(v1), dom_tag(v2)) is None:
        return "wrong"
    return "true" if v1 == v2 else "false"


def member(v, ty, defs) -> bool:
    """Whether a value inhabits a ground type expression."""
    if isinstance(ty, TVar):
        raise NonGroundType(f"type {ty.name} is not ground")
    if isinstance(v, WrongV):
        return False
    if isinstance(ty, Base):
        leaf = {"int": IntV, "float": FltV, "string": StrV, "atom": AtmV}[ty.kind]
        return isinstance(v, leaf)
    if isinstance(ty, Bool):
        return isinstance(v, BoolV)
    if isinstance(ty, SymApp):
        d = defs.lookup(ty.symbol) or defs.lookup_free(ty.symbol, len(ty.args))
        if d is None:
            raise UnknownSymbol(f"type symbol {ty.symbol} is not defined")
        if len(d.params) != len(ty.args):
            raise UnknownSymbol(f"type symbol {ty.symbol} used with wrong arity")
        inst = dict(zip(d.params, ty.args))
        return any(member_ctor(v, apply_type_subst(inst, s), defs) for s in d.summands)
    assert isinstance(ty, CtorApp)
    return member_ctor(v, ty, defs)


def member_ctor(v, ty, defs) -> bool:
    if ty.ctor == "[]":
        return isinstance(v, NilV)
    if ty.ctor == "cons" and len(ty.args) == 2:
        return (
            isinstance(v, ConsV)
            and member(v.head, ty.args[0], defs)
            and member(v.tail, ty.args[1], defs)
        )
    if not ty.args:
        return isinstance(v, AtmV) and v.name == ty.ctor
    return (
        isinstance(v, TreeV)
        and v.root == ty.ctor
        and len(v.children) == len(ty.args)
        and all(member(c, a, defs) for c, a in zip(v.children, ty.args))
    )
