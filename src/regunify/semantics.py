"""Ground semantics: values, their domains, and brute-force oracles.

A ground term denotes a value.  Literals, and atoms that no definition
declares, are leaves in the domain of their base type.  Every other value is
a constructor value c(v1..vn), read off the definition set: a declared
constant or constructor (the built-in list's `[]` and `cons` among them), or
a tree of an undeclared functor f/n, which the free definition
f°(A1..An) --> f(A1..An) declares.  One rule gives all of them their domain.
Where c(σ1..σn) is a summand of d(A1..Ak), c(v1..vn) is `wrong` if some vi is
wrong or a boolean.  Otherwise each vi's domain must fit σi: a parameter
takes the meet of every domain it meets, a base type needs its own domain,
a symbol application needs the same symbol with fitting arguments, and a
constructor term used as a type (`wrap(cons(A, []))`) admits no ground
value.  The value's domain is then d(θ(A1)..θ(Ak)), with a parameter that
nothing fixes left open (AnyElem), so the empty list is in every list domain
and a cons cell needs a list tail whose elements share a domain with its
head.  `wrong` absorbs: any argument being wrong makes the application wrong.

Ground equality follows the domains: comparing values whose domains do not
meet (or anything with wrong) is itself wrong; within a common domain it is
plain true/false.  These functions are deliberately independent of the
constraint solver so the two can be cross-checked.  Evaluation, the meet of
domains, equality and membership keep stacks of their own, so their depth
is bounded by memory, not by Python's recursion limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import BudgetExceeded, NonGroundType, UnboundVariable, UnknownSymbol
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
    apply_type_subst,
    free_ctor_symbol,
)
from .typedefs import SignatureEnv, TypeDefSet, validate

# --- domain tags and values ----------------------------------------------------


@dataclass(frozen=True)
class BaseDom:
    kind: str  # int | float | string | atom | bool


@dataclass(frozen=True)
class AnyElem:
    """An open parameter: the wildcard that meets every domain."""


@dataclass(frozen=True)
class SymDom:
    """The domain d(t1..tk) of a type symbol's values, a tag per parameter."""

    symbol: str
    args: tuple["DomainTag | AnyElem", ...]


DomainTag = Union[BaseDom, SymDom]

ANY_ELEM = AnyElem()


@dataclass(frozen=True)
class IntV:
    value: int
    tag = BaseDom("int")  # not a field: every value but WRONG reads its domain as .tag


@dataclass(frozen=True)
class FltV:
    value: float
    tag = BaseDom("float")


@dataclass(frozen=True)
class StrV:
    value: str
    tag = BaseDom("string")


@dataclass(frozen=True)
class AtmV:
    """An atom that no definition declares."""

    name: str
    tag = BaseDom("atom")


@dataclass(frozen=True)
class BoolV:
    value: bool
    tag = BaseDom("bool")


@dataclass(frozen=True)
class CtorV:
    """A constructor value root(children...).  Its domain tag is worked out
    once, when eval_term builds it; it follows from the root and children,
    so equality leaves it out.
    """

    root: str
    children: tuple["Value", ...]
    tag: "SymDom" = field(compare=False, repr=False)


@dataclass(frozen=True)
class WrongV:
    """The run-time type error value, in no domain."""


Value = Union[IntV, FltV, StrV, AtmV, BoolV, CtorV, WrongV]

WRONG = WrongV()


def meet_tags(a, b):
    """Most specific common refinement of two tags; None when disjoint.
    AnyElem meets everything.  A symbol's tag waits on the stack, in a
    1-tuple, until the meets of its arguments are the last entries of done.
    """
    done: list = []
    todo: list = [(a, b)]
    while todo:
        item = todo.pop()
        if len(item) == 1:
            node = item[0]
            n = len(done) - len(node.args)
            done[n:] = [SymDom(node.symbol, tuple(done[n:]))]
            continue
        a, b = item
        if a is b or b is ANY_ELEM or type(a) is BaseDom and a == b:
            done.append(a)
        elif a is ANY_ELEM:
            done.append(b)
        elif (
            type(a) is SymDom and type(b) is SymDom
            and a.symbol == b.symbol and len(a.args) == len(b.args)
        ):
            todo.append((a,))
            todo.extend(zip(reversed(a.args), reversed(b.args)))
        else:
            return None
    return done[0]


def _fit(tag, ty: TypeExpr, theta: dict) -> bool:
    """Whether a domain fits a summand argument type, each parameter met on
    the way taking the meet of its entry in theta and the domain there.
    """
    todo = [(tag, ty)]
    while todo:
        tag, ty = todo.pop()
        if tag is ANY_ELEM:
            continue
        if type(ty) is TVar:
            met = meet_tags(theta.get(ty.name, ANY_ELEM), tag)
            if met is None:
                return False
            theta[ty.name] = met
        elif type(ty) is SymApp and type(tag) is SymDom and tag.symbol == ty.symbol:
            todo.extend(zip(tag.args, ty.args))  # a declared symbol: arities agree
        elif not (type(ty) is Base and tag == BaseDom(ty.kind)):
            return False  # another domain, or a constructor term
    return True


def _construct(root: str, children: tuple, defs: TypeDefSet) -> Value:
    """The value root(children...) by the module docstring's rule."""
    found = defs.lookup_ctor(root, len(children))
    if found is None:
        d = defs.lookup_free(free_ctor_symbol(root), len(children))
        found = d, d.summands[0]
    d, summand = found
    theta: dict = {}
    for child, ty in zip(children, summand.args):
        if type(child) in (WrongV, BoolV) or not _fit(child.tag, ty, theta):
            return WRONG
    return CtorV(root, children, SymDom(d.symbol, tuple(theta.get(p, ANY_ELEM) for p in d.params)))


# --- evaluation ----------------------------------------------------------------

GroundState = dict[str, Value]

_BUILTIN = validate(())
_LEAVES = {"int": IntV, "float": FltV, "string": StrV, "atom": AtmV}  # by literal kind


def eval_term(
    term: Term, state: GroundState | None = None, defs: TypeDefSet | None = None
) -> Value:
    """Value of a term under a variable state and a definition set (None
    means the built-in one).  Unbound variables raise.  A compound waits on
    the stack, in a 1-tuple, until its arguments' values are the last
    entries of done.
    """
    state = state or {}
    defs = defs or _BUILTIN
    done: list[Value] = []
    todo: list = [term]
    while todo:
        term = todo.pop()
        kind = type(term)
        if kind is tuple:
            node = term[0]
            n = len(done) - len(node.args)
            done[n:] = [_construct(node.functor, tuple(done[n:]), defs)]
        elif kind is Compound:
            todo.append((term,))
            todo.extend(reversed(term.args))
        elif kind is Var:
            try:
                done.append(state[term.name])
            except KeyError:
                raise UnboundVariable(f"variable {term.name} has no value") from None
        elif term.kind != "atom":
            done.append(_LEAVES[term.kind](term.symbol))
        elif defs.lookup_ctor(term.symbol, 0) is None:
            done.append(AtmV(term.symbol))
        else:
            done.append(_construct(term.symbol, (), defs))
    return done[0]


def eq_values(v1: Value, v2: Value) -> str:
    """Ground equality verdict: 'true', 'false', or 'wrong'.

    true/false require the two domains to meet and neither side to be
    wrong; everything else is wrong.
    """
    if type(v1) is WrongV or type(v2) is WrongV or meet_tags(v1.tag, v2.tag) is None:
        return "wrong"
    return "true" if _same(v1, v2) else "false"


def _same(v1: Value, v2: Value) -> bool:
    """v1 == v2 as the dataclasses' `==` decides it, with a stack of its own
    instead of one call per level: two distinct constructor values need the
    same root, the same child count and the same children in turn; any
    other pair is left to `==`, which is identity across classes.
    """
    todo = [(v1, v2)]
    while todo:
        a, b = todo.pop()
        if type(a) is CtorV and type(b) is CtorV and a is not b:
            if a.root != b.root or len(a.children) != len(b.children):
                return False
            todo.extend(zip(a.children, b.children))
        elif a != b:
            return False
    return True


# --- type membership -------------------------------------------------------------


def member(v: Value, ty: TypeExpr, defs: TypeDefSet) -> bool:
    """Whether a value inhabits a ground type expression.

    The pairs still to hold wait on a stack, leftmost on top.  A symbol
    application holds through its one summand whose constructor is the
    value's root (summands have distinct roots), and a constructor term
    through the value's children.
    """
    todo = [(v, ty)]
    while todo:
        v, ty = todo.pop()
        if isinstance(ty, TVar):
            raise NonGroundType(f"type {ty.name} is not ground")
        if isinstance(v, WrongV):
            return False
        if isinstance(ty, (Base, Bool)):
            if not isinstance(v, _LEAVES[ty.kind] if isinstance(ty, Base) else BoolV):
                return False
            continue
        if isinstance(v, CtorV):
            root, children = v.root, v.children
        else:  # an undeclared atom is a constructor without children here
            root, children = (v.name if isinstance(v, AtmV) else None), ()
        if isinstance(ty, SymApp):
            d = defs.lookup(ty.symbol) or defs.lookup_free(ty.symbol, len(ty.args))
            if d is None:
                raise UnknownSymbol(f"type symbol {ty.symbol} is not defined")
            if len(d.params) != len(ty.args):
                raise UnknownSymbol(f"type symbol {ty.symbol} used with wrong arity")
            summand = next((s for s in d.summands if s.ctor == root), None)
            if summand is None:
                return False
            ty = apply_type_subst(dict(zip(d.params, ty.args)), summand)
        if ty.ctor != root or len(ty.args) != len(children):
            return False
        todo.extend(zip(reversed(children), reversed(ty.args)))
    return True


# --- bounded enumeration -----------------------------------------------------------


@dataclass(frozen=True)
class LiteralPool:
    """Literal leaves available to the enumerator."""

    ints: tuple[int, ...] = (0, 1)
    floats: tuple[float, ...] = (0.5,)
    strings: tuple[str, ...] = ("a",)
    atoms: tuple[str, ...] = ()


DEFAULT_POOL = LiteralPool()

MAX_TERMS = 10**6  # the enumeration budget: more terms raise BudgetExceeded


def _leaves(sig: SignatureEnv, pool: LiteralPool) -> list[Term]:
    """The depth-0 terms, in enumeration order, each once."""
    leaves: list[Term] = []
    leaves += [Const(n, "int") for n in pool.ints]
    leaves += [Const(x, "float") for x in pool.floats]
    leaves += [Const(s, "string") for s in pool.strings]
    leaves += [Const(a, "atom") for a in pool.atoms]
    leaves += [Const(name, "atom") for name in sorted(sig.constants)]
    return list(dict.fromkeys(leaves))


def enumerate_ground_terms(
    sig: SignatureEnv,
    depth: int,
    pool: LiteralPool = DEFAULT_POOL,
    max_terms: int = MAX_TERMS,
) -> Iterator[Term]:
    """Every ground term over the signature's constructors and the literal
    pool, up to the given constructor-application depth, each exactly once.
    Depth 0 yields just the leaves.  Raises BudgetExceeded past max_terms.
    """
    functions = sorted(sig.functions)

    produced = 0
    levels: list[list[Term]] = [_leaves(sig, pool)]
    for t in levels[0]:
        produced += 1
        if produced > max_terms:
            raise BudgetExceeded(f"enumeration exceeded {max_terms} terms")
        yield t
    for d in range(1, depth + 1):
        up_to_prev = [t for level in levels for t in level]
        prev_ids = {id(t) for t in levels[-1]}
        level: list[Term] = []
        for functor, arity in functions:
            # at least one argument from the previous level keeps each term
            # at exactly this depth, so nothing repeats across levels
            for args in itertools.product(up_to_prev, repeat=arity):
                if not any(id(a) in prev_ids for a in args):
                    continue
                term = Compound(functor, args)
                produced += 1
                if produced > max_terms:
                    raise BudgetExceeded(f"enumeration exceeded {max_terms} terms")
                level.append(term)
                yield term
        levels.append(level)


def _deep_sample(n_shallow: int, n_deep: int, max_pairs: int, seed: int) -> range:
    """Positions, among the deep terms, of those a sweep keeps: enough to
    bring the kept terms to about sqrt(max_pairs), evenly strided, with the
    seed shifting the stride phase.
    """
    keep = max(n_shallow + 1, math.isqrt(max_pairs))
    extra = keep - n_shallow
    if not n_deep or extra <= 0:
        return range(0)
    stride = max(1, n_deep // extra)
    return range(seed % stride, n_deep, stride)[:extra]


def stratified_pairs(terms, max_pairs: int = 10_000, seed: int = 0):
    """Deterministic all-pairs subset for equivalence sweeps.

    The full pair space grows with the square of the enumeration, so keep a
    representative slice: every shallow term (depth <= 1) plus an evenly
    strided sample of the deeper ones, then form all ordered pairs of the
    kept terms.  The seed shifts the stride phase; 0 reproduces the default
    sweep.
    """
    shallow, deep = [], []
    for t in terms:  # deeper than 1 exactly when some argument is a compound
        nested = any(isinstance(a, Compound) for a in getattr(t, "args", ()))
        (deep if nested else shallow).append(t)
    out = shallow + [deep[i] for i in _deep_sample(len(shallow), len(deep), max_pairs, seed)]
    return [(a, b) for a in out for b in out]


def sample_ground_terms(
    sig: SignatureEnv,
    depth: int,
    pool: LiteralPool = DEFAULT_POOL,
    max_pairs: int = 10_000,
    seed: int = 0,
    max_terms: int = MAX_TERMS,
) -> tuple[int, list[Term]]:
    """(count, kept): how many terms `enumerate_ground_terms` yields, and the
    terms whose pairs `stratified_pairs` forms from them, in the same order.

    Only the levels below the deepest are built.  A level's size follows
    from the sizes below it, so the budget is checked before anything is
    built, and the kept terms of the deepest level are built from their
    positions in it (unranked, as in Feat: Duregård, Jansson & Wang,
    Haskell 2012).
    """
    functions = sorted(sig.functions)
    d = max(depth, 0)
    # below[k]: the number of terms of depth < k.  A term at depth k has
    # at least one argument at depth k - 1, so f/a adds N**a - B**a of them
    # with N = below[k] and B = below[k - 1].
    below = [0, len(_leaves(sig, pool))]
    # stop at the budget: a level's count has about twice the digits of the last
    while len(below) < d + 2 and below[-1] <= max_terms:
        n, b = below[-1], below[-2]
        below.append(n + sum(n**a - b**a for _, a in functions))
    if below[-1] > max_terms:
        raise BudgetExceeded(f"enumeration exceeded {max_terms} terms")
    count = below[-1]
    n_shallow = below[min(d, 1) + 1]
    kept = list(range(n_shallow))
    kept += [n_shallow + i for i in _deep_sample(n_shallow, count - n_shallow, max_pairs, seed)]

    built = list(enumerate_ground_terms(sig, max(d - 1, 0), pool))
    n, b = len(built), below[d - 1]
    return count, [built[k] if k < n else _unrank(k - n, built, b, functions) for k in kept]


def _unrank(rank: int, lower: list[Term], b: int, functions) -> Term:
    """The term at `rank` in the level that `enumerate_ground_terms` builds
    over `lower`, the terms of the levels under it, of which the first `b`
    lie under the level just beneath it.  Functors come in sorted order, and
    each one's argument tuples in `itertools.product` order, keeping those
    with at least one argument from that level (positions b and on).
    """
    n = len(lower)
    for functor, arity in functions:
        size = n**arity - b**arity
        if rank >= size:
            rank -= size
            continue
        args = []
        need = True  # no argument so far comes from the level beneath
        for rest in range(arity - 1, -1, -1):
            block = n**rest  # tuples after each choice of this argument
            if need:
                low = block - b**rest  # the rest must still supply one
                if rank < b * low:
                    j, rank = divmod(rank, low)
                else:
                    j, rank = divmod(rank - b * low, block)
                    j += b
                    need = False
            else:
                j, rank = divmod(rank, block)
            args.append(lower[j])
        return Compound(functor, tuple(args))
    raise IndexError("rank beyond the level")
