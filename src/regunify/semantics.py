"""Ground semantics: values, their domains, and brute-force oracles.

The value universe splits into disjoint domains: integers, floats, strings,
atoms, booleans, lists of a fixed element domain, trees grouped by root and
child domains, and the error value `wrong`.  The empty list is the one value
living in more than one domain (every list domain), which the domain tags
model with a wildcard element.

Every function symbol builds trees freely except cons, which demands a list
tail whose elements share a domain with the head and yields `wrong` otherwise.
`wrong` absorbs: any argument being wrong makes the application wrong.

Ground equality follows the domains: comparing values from disjoint domains
(or anything with wrong) is itself wrong; within a common domain it is plain
true/false.  These functions are deliberately independent of the constraint
solver so the two can be cross-checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import BudgetExceeded, NonGroundType, UnboundVariable, UnknownSymbol
from .syntax import (
    Base,
    Bool,
    Compound,
    Const,
    CtorApp,
    SymApp,
    TVar,
    Term,
    TypeExpr,
    Var,
    apply_type_subst,
)
from .typedefs import SignatureEnv, TypeDefSet

# --- values ------------------------------------------------------------------


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
    """A non-empty list cell.  Build through mk_cons, which checks domains;
    a ConsV that exists is well-formed by construction.
    """

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


# --- domain tags ---------------------------------------------------------------


@dataclass(frozen=True)
class BaseDom:
    kind: str  # int | float | string | atom | bool | wrong


@dataclass(frozen=True)
class AnyElem:
    """Wildcard element domain, produced only by empty lists."""


@dataclass(frozen=True)
class ListDom:
    elem: "DomainTag | AnyElem"


@dataclass(frozen=True)
class TreeDom:
    root: str
    children: tuple["DomainTag", ...]


DomainTag = Union[BaseDom, ListDom, TreeDom]

Int = BaseDom("int")
Flt = BaseDom("float")
Str = BaseDom("string")
Atm = BaseDom("atom")
BoolDom = BaseDom("bool")
Wrong = BaseDom("wrong")
ANY_ELEM = AnyElem()
EmptyListAny = ListDom(ANY_ELEM)


def meet_tags(a, b):
    """Most specific common refinement of two tags; None when disjoint.
    AnyElem acts as a wildcard inside list element positions.
    """
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


def domains_intersect(a: DomainTag, b: DomainTag) -> bool:
    return meet_tags(a, b) is not None


def dom_tag(v: Value) -> DomainTag:
    if isinstance(v, IntV):
        return Int
    if isinstance(v, FltV):
        return Flt
    if isinstance(v, StrV):
        return Str
    if isinstance(v, AtmV):
        return Atm
    if isinstance(v, BoolV):
        return BoolDom
    if isinstance(v, WrongV):
        return Wrong
    if isinstance(v, NilV):
        return EmptyListAny
    if isinstance(v, ConsV):
        elem = dom_tag(v.head)
        tail_tag = dom_tag(v.tail)
        assert isinstance(tail_tag, ListDom)
        met = meet_tags(elem, tail_tag.elem)
        assert met is not None, "ConsV invariant violated"
        return ListDom(met)
    return TreeDom(v.root, tuple(dom_tag(c) for c in v.children))


def mk_cons(head: Value, tail: Value) -> Value:
    """Apply the list constructor: wrong unless the tail is a list whose
    element domain is compatible with the head's domain.
    """
    if isinstance(head, WrongV) or isinstance(tail, WrongV):
        return WRONG
    if not isinstance(tail, (NilV, ConsV)):
        return WRONG
    head_tag = dom_tag(head)
    if isinstance(head_tag, BaseDom) and head_tag.kind in ("bool", "wrong"):
        return WRONG
    tail_tag = dom_tag(tail)
    assert isinstance(tail_tag, ListDom)
    if meet_tags(head_tag, tail_tag.elem) is None:
        return WRONG
    return ConsV(head, tail)


# --- evaluation ----------------------------------------------------------------

GroundState = dict[str, Value]


def eval_term(term: Term, state: GroundState | None = None) -> Value:
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


def eq_values(v1: Value, v2: Value) -> str:
    """Ground equality verdict: 'true', 'false', or 'wrong'.

    true/false require the two domains to intersect and neither side to be
    wrong; everything else is wrong.
    """
    if isinstance(v1, WrongV) or isinstance(v2, WrongV):
        return "wrong"
    if not domains_intersect(dom_tag(v1), dom_tag(v2)):
        return "wrong"
    return "true" if v1 == v2 else "false"


# --- type membership -------------------------------------------------------------


def member(v: Value, ty: TypeExpr, defs: TypeDefSet) -> bool:
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
        # summands have distinct root constructors, so at most one can hold v
        return any(member_ctor(v, apply_type_subst(inst, s), defs) for s in d.summands)
    assert isinstance(ty, CtorApp)
    return member_ctor(v, ty, defs)


def member_ctor(v: Value, ty: CtorApp, defs: TypeDefSet) -> bool:
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


# --- bounded enumeration -----------------------------------------------------------


@dataclass(frozen=True)
class LiteralPool:
    """Literal leaves available to the enumerator."""

    ints: tuple[int, ...] = (0, 1)
    floats: tuple[float, ...] = (0.5,)
    strings: tuple[str, ...] = ("a",)
    atoms: tuple[str, ...] = ()


DEFAULT_POOL = LiteralPool()


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
    max_terms: int = 10**6,
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
    max_terms: int = 10**6,
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
