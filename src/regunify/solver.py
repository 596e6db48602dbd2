"""Rewriting solver for term/type constraint pairs.

The solver rewrites a state (C, T) of term constraints C and type constraints
T with twelve rules.  Rules 1-6 act on T, rules 7-12 mirror them on C:

    1/7   decompose   f(a1..an) = f(b1..bn)  ->  a1 = b1, ..., an = bn
    2/8   delete      s = s                  ->  (removed)
    3/9   clash       f(...) = g(...), f/n distinct from g/m:
                      wrong on types, false on terms
    4/10  orient      s = v, s not a variable, v a variable  ->  v = s
    5/11  eliminate   v = s, v not in s, v occurs in the rest:
                      substitute s for v in every other constraint
    6/12  occurs      v = s, v inside s:  wrong on types, false on terms

A rule applies only when no lower-numbered rule applies anywhere, and fires
on the leftmost constraint it matches; so the type phase always reaches its
fixpoint before the first term rule, and a type error (wrong) preempts any
term disagreement (false).  The eliminate rules carry the side condition
"occurs in the rest", without which they would loop rewriting nothing.

At a fixpoint both constraint sets are in solved form: every constraint binds
a distinct variable that appears nowhere else, so reading them off gives
idempotent substitutions.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, NamedTuple, Optional, Union

from .errors import BudgetExceeded
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
    occurs_in,
    tree_counts,
)
from .constraints import (
    ConstraintState,
    Context,
    FreshSupply,
    TermConstraint,
    TypeConstraint,
    gen_equation,
    gen_term,
    generic_context,
)
from .typedefs import SignatureEnv, TypeDefSet, derive_signatures

# Rewrite budget: steps never exceed size**2 * BUDGET_FACTOR for an input of
# that size.  solve() enforces it as a hard cap when none is given.
BUDGET_FACTOR = 64


@dataclass(frozen=True)
class Solved:
    """Both constraint sets solved: a term unifier and a type unifier."""

    subst: dict[str, Term]
    type_subst: dict[str, TypeExpr]


@dataclass(frozen=True)
class SolveFalse:
    """Terms disagree but their types unify: ordinary failure."""

    type_subst: dict[str, TypeExpr]
    witness: TermConstraint


@dataclass(frozen=True)
class SolveWrong:
    """The type constraints are unsolvable: a run-time type error."""

    witness: TypeConstraint


SolveResult = Union[Solved, SolveFalse, SolveWrong]


@dataclass(frozen=True)
class TraceStep:
    """One rewrite: which rule fired, on what, and the state afterwards."""

    rule: int
    target: Union[TermConstraint, TypeConstraint]
    state: ConstraintState


@dataclass(frozen=True)
class SolveRun:
    result: SolveResult
    steps: int
    trace: tuple[TraceStep, ...]


def _type_head(ty: TypeExpr):
    """Rigid head key, or None for a variable."""
    if isinstance(ty, TVar):
        return None
    if isinstance(ty, Base):
        return ("base", ty.kind, 0)
    if isinstance(ty, Bool):
        return ("bool", "", 0)
    if isinstance(ty, SymApp):
        return ("sym", ty.symbol, len(ty.args))
    return ("ctor", ty.ctor, len(ty.args))


def _term_head(t: Term):
    if isinstance(t, Var):
        return None
    if isinstance(t, Const):
        return ("const", (t.symbol, t.kind), 0)
    return ("fn", t.functor, len(t.args))


def _rebuild_type(ty: TypeExpr, args: tuple) -> TypeExpr:
    if isinstance(ty, SymApp):
        return SymApp(ty.symbol, args)
    return CtorApp(ty.ctor, args)


def _rebuild_term(t: Term, args: tuple) -> Term:
    return Compound(t.functor, args)


class _Family(NamedTuple):
    """What the engine needs to know about one kind of constraint."""

    constraint: type
    head: Callable
    rebuild: Callable
    offset: int  # rule number = family-local rule (1-6) + offset


_TYPES = _Family(TypeConstraint, _type_head, _rebuild_type, 0)
_TERMS = _Family(TermConstraint, _term_head, _rebuild_term, 6)

# Family-local rule numbers.
_DECOMPOSE, _DELETE, _CLASH, _ORIENT, _ELIMINATE, _OCCURS = range(1, 7)

_VARS = (Var, TVar)

# The last element of every order key (see _Phase); no counter reaches it.
_LAST = sys.maxsize


def _substitute(node, name: str, value, rebuild: Callable, memo: dict):
    """`node` with `value` in place of every variable called `name`.

    Returns `node` itself when the variable does not occur in it, so what a
    step leaves alone stays shared.  `memo` maps the id of each compound node
    already done to its result; one eliminate step shares it over all the
    constraints it rewrites, so a subterm they share is rewritten once and
    its result is again one object.
    """
    if not getattr(node, "args", None):
        return value if isinstance(node, _VARS) and node.name == name else node
    stack = [node]
    while stack:
        top = stack[-1]
        if id(top) in memo:
            stack.pop()
            continue
        todo = [a for a in top.args if getattr(a, "args", None) and id(a) not in memo]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        args = []
        for a in top.args:
            if getattr(a, "args", None):
                a = memo[id(a)]
            elif isinstance(a, _VARS) and a.name == name:
                a = value
            args.append(a)
        same = all(new is old for new, old in zip(args, top.args))
        memo[id(top)] = top if same else rebuild(top, tuple(args))
    return memo[id(node)]


class _Phase:
    """One family's constraints, rewritten to a fixpoint by its six rules.

    Constraints are numbered (cid) as they are made and never renumbered.
    What the rules' definition recomputes at every step is kept up to date
    as the rules fire instead:

    - Order keys.  Keys are tuples ending in _LAST that compare like the
      positions of their constraints in the sequence.  Decompose gives its
      last child the parent's key and each other child the parent's prefix
      extended by a number from a counter that only grows, so the children
      sit where the parent was, and a list's spine keeps its keys short.
    - One heap of (key, cid) per rule.  The leftmost constraint a rule
      matches is the least entry of its heap that is still valid.  Entries
      go stale when their constraint is rewritten or removed and are dropped
      when they reach the top.
    - The occurrence count of every variable.  Decompose and orient keep
      them; delete and eliminate adjust them.  An eliminate candidate found
      with a count of 1 is dropped for good: its variable could only gain
      occurrences from a bound term that holds it, and then it would have
      occurred twice already.  A rewritten constraint is queued afresh.
    - An index from each variable to the constraints it may occur in.  A
      decomposed constraint forwards to its last child; the other children
      are indexed when they are made, so a spine is never walked again.

    Only eliminate needs the counts and the index, so both are taken when it
    first comes up; a run that ends before that never counts or indexes.
    """

    def __init__(self, constraints, family: _Family):
        self.family = family
        self.cons: list = []  # cid -> constraint, None once decomposed or deleted
        self.keys: list = []  # cid -> order key
        self.rules: list = []  # cid -> local rule its constraint matches; 0 once gone
        self.heaps = [[] for _ in range(_OCCURS + 1)]
        self.counts: Optional[dict[str, int]] = None  # variable -> occurrences
        self.index: Optional[dict[str, list]] = None  # variable -> cids, each live or forwarding
        self.forward: dict[int, int] = {}  # decomposed cid -> cid of its last child
        self.fresh = len(constraints)
        for i, c in enumerate(constraints):
            self._add(c, (i, _LAST))

    # --- bookkeeping ---------------------------------------------------------

    def _add(self, c, key) -> int:
        cid = len(self.cons)
        self.cons.append(c)
        self.keys.append(key)
        self.rules.append(0)
        self._classify(cid, c)
        return cid

    def _census(self) -> None:
        """Count and index the variables of the live constraints."""
        live = [(cid, c) for cid, c in enumerate(self.cons) if c is not None]
        self.counts = tree_counts([side for _cid, c in live for side in (c.lhs, c.rhs)])[0]
        self.index = {}
        for cid, c in live:
            self._index(cid, c)

    def _index(self, cid: int, c) -> None:
        """Enter `cid` under each variable of `c`."""
        index = self.index
        stack, seen = [c.lhs, c.rhs], set()
        while stack:
            node = stack.pop()
            args = getattr(node, "args", None)
            if args:
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(args)
            elif isinstance(node, _VARS):
                index.setdefault(node.name, []).append(cid)

    def _set(self, cid: int, c) -> None:
        self.cons[cid] = c
        self._classify(cid, c)

    def _classify(self, cid: int, c) -> None:
        """Record and queue the rule that matches `c`; only eliminate also
        depends on the rest, and that is checked when it comes up.
        """
        head = self.family.head
        lh, rh = head(c.lhs), head(c.rhs)
        if lh is not None and rh is not None:
            if lh == rh and lh[2] >= 1:
                rule = _DECOMPOSE
            elif c.lhs == c.rhs:
                rule = _DELETE
            else:  # same 0-arity heads are structurally equal, so this is a clash
                rule = _CLASH
        elif c.lhs == c.rhs:
            rule = _DELETE
        elif lh is not None:  # value on the left, variable on the right
            rule = _ORIENT
        elif occurs_in(c.lhs.name, c.rhs):
            rule = _OCCURS
        else:
            rule = _ELIMINATE
        self.rules[cid] = rule
        heappush(self.heaps[rule], (self.keys[cid], cid))

    def _drop(self, cid: int) -> None:
        self.cons[cid] = None
        self.rules[cid] = 0

    def _holders(self, name: str, binder: int) -> set:
        """Live constraints other than `binder` that may contain `name`."""
        cons, forward = self.cons, self.forward
        found = set()
        for cid in self.index.get(name, ()):
            path = []
            while cons[cid] is None and cid in forward:
                path.append(cid)
                cid = forward[cid]
            for p in path:  # later lookups jump straight to the end
                forward[p] = cid
            if cons[cid] is not None and cid != binder:
                found.add(cid)
        return found

    def ordered(self) -> tuple:
        """The live constraints in sequence order."""
        cons = self.cons
        live = [cid for cid, c in enumerate(cons) if c is not None]
        live.sort(key=self.keys.__getitem__)
        return tuple(cons[cid] for cid in live)

    # --- the rules -----------------------------------------------------------

    def redex(self) -> Optional[tuple[int, int]]:
        """Lowest applicable local rule and the leftmost cid it matches."""
        cons, rules, heaps = self.cons, self.rules, self.heaps
        for rule in range(_DECOMPOSE, _OCCURS + 1):
            heap = heaps[rule]
            if rule == _ELIMINATE and heap and self.counts is None:
                self._census()
            counts = self.counts
            while heap:
                cid = heap[0][1]
                if rules[cid] == rule and (
                    rule != _ELIMINATE or counts[cons[cid].lhs.name] > 1
                ):
                    return rule, cid
                heappop(heap)
        return None

    def fire(self, rule: int, cid: int) -> None:
        """Apply decompose, delete, orient or eliminate to constraint `cid`."""
        c = self.cons[cid]
        make = self.family.constraint
        if rule == _DECOMPOSE:
            self._drop(cid)
            key = self.keys[cid]
            pairs = list(zip(c.lhs.args, c.rhs.args))
            for a, b in pairs[:-1]:
                child = make(a, b)
                child_cid = self._add(child, key[:-1] + (self.fresh, _LAST))
                self.fresh += 1
                if self.index is not None:
                    self._index(child_cid, child)
            self.forward[cid] = self._add(make(*pairs[-1]), key)
        elif rule == _DELETE:
            self._drop(cid)
            if isinstance(c.lhs, _VARS) and self.counts is not None:
                self.counts[c.lhs.name] -= 2
        elif rule == _ORIENT:
            self._set(cid, make(c.rhs, c.lhs))
        else:
            self._eliminate(cid, c.lhs.name, c.rhs)

    def _eliminate(self, binder: int, name: str, value) -> None:
        """Substitute `value` for `name` in every other constraint holding it."""
        make, rebuild = self.family.constraint, self.family.rebuild
        cons, rules = self.cons, self.rules
        inside = tree_counts((value,))[0]
        memo: dict = {}
        rewritten = []
        for cid in self._holders(name, binder):
            c = cons[cid]
            lhs = _substitute(c.lhs, name, value, rebuild, memo)
            rhs = _substitute(c.rhs, name, value, rebuild, memo)
            if lhs is not c.lhs or rhs is not c.rhs:
                rewritten.append((cid, make(lhs, rhs), lhs is c.lhs))
        # the old constraints stay alive until here, so no id in memo is reused
        for cid, c, same_lhs in rewritten:
            if same_lhs and rules[cid] == _ELIMINATE and c.lhs.name not in inside:
                # v = s became v = s' with v in neither s nor `value`: still
                # an eliminate candidate, and its heap entry still stands
                cons[cid] = c
            else:
                self._set(cid, c)
        changed = [cid for cid, _c, _same in rewritten]
        counts, index = self.counts, self.index
        index[name] = [binder]
        replaced = counts[name] - 1  # all but the binder's own left side
        counts[name] = 1
        for var, n in inside.items():
            counts[var] += replaced * n
            index.setdefault(var, []).extend(changed)


def _read(constraints) -> dict:
    """The unifier a family's constraints in solved form spell out."""
    out = {}
    for c in constraints:
        assert isinstance(c.lhs, (Var, TVar)), "constraints not in solved form"
        out[c.lhs.name] = c.rhs
    return out


def solve(
    state: ConstraintState, trace: bool = False, max_steps: int | None = None
) -> SolveRun:
    """Rewrite to a fixpoint and read off the result.

    When the type constraints are unsolvable the result is wrong; when they
    solve but the term constraints cannot, false together with the type
    unifier; otherwise both unifiers.  `max_steps` defaults to
    size(state)**2 * 64, which no input should ever reach.

    Each step costs what it touches, not the size of the whole state; see
    _Phase.  Eliminate shares the bound subterm instead of copying it, so
    the unifiers can hold one object in many places.
    """
    # The default budget needs the size of the whole state.  Every constraint
    # has at least two nodes, so until the steps pass the bound that gives,
    # which no input is known to reach, the state need not be walked.
    exact = max_steps is not None
    if not exact:
        max_steps = max(1, 2 * (len(state.terms) + len(state.types))) ** 2 * BUDGET_FACTOR
    types = _Phase(state.types, _TYPES)
    terms = _Phase(state.terms, _TERMS)
    steps = 0
    trace_steps: list[TraceStep] = []
    for phase in (types, terms):  # the type rules reach their fixpoint first
        while (redex := phase.redex()) is not None:
            steps += 1
            if steps > max_steps and not exact:
                max_steps, exact = max(1, state.size()) ** 2 * BUDGET_FACTOR, True
            if steps > max_steps:
                raise BudgetExceeded(f"rewriting exceeded {max_steps} steps")
            rule, cid = redex
            target = phase.cons[cid]
            if rule in (_CLASH, _OCCURS):
                if phase is types:
                    result = SolveWrong(witness=target)
                else:
                    result = SolveFalse(
                        type_subst=_read(types.ordered()), witness=target
                    )
                return SolveRun(result, steps, tuple(trace_steps))
            phase.fire(rule, cid)
            if trace:
                trace_steps.append(
                    TraceStep(
                        rule + phase.family.offset,
                        target,
                        ConstraintState(terms.ordered(), types.ordered()),
                    )
                )
    result = Solved(
        subst=_read(terms.ordered()), type_subst=_read(types.ordered())
    )
    return SolveRun(result, steps, tuple(trace_steps))


# --- whole-problem entry points ------------------------------------------------


@dataclass(frozen=True)
class UnifyRun:
    """A typed-unification session: the generated constraints, the solver
    outcome, and the per-variable types under the solution.
    """

    result: SolveResult
    context: Context
    initial: ConstraintState
    steps: int
    trace: tuple[TraceStep, ...]

    @property
    def var_types(self) -> Optional[dict[str, TypeExpr]]:
        """Each variable's type under the solution's type unifier; None when
        the outcome is wrong.
        """
        if isinstance(self.result, SolveWrong):
            return None
        mu = self.result.type_subst
        return {name: apply_type_subst(mu, ty) for name, ty in self.context.items()}

    @property
    def principal(self) -> Optional[tuple[dict[str, TypeExpr], Bool]]:
        """Principal typing of the unified equation: the solved context at
        type bool.  None unless the outcome is solved.
        """
        if not isinstance(self.result, Solved):
            return None
        return (self.var_types, Bool())


def typed_unify(
    lhs: Term,
    rhs: Term,
    defs: TypeDefSet,
    overrides: SignatureEnv | None = None,
    trace: bool = False,
    max_steps: int | None = None,
) -> UnifyRun:
    """Unify two terms under the generic context that types each variable
    with its own type variable.
    """
    sig = derive_signatures(defs, overrides)
    fresh = FreshSupply()
    ctx = generic_context([lhs, rhs], fresh)
    state = gen_equation(ctx, sig, lhs, rhs, fresh)
    run = solve(state, trace=trace, max_steps=max_steps)
    return UnifyRun(run.result, ctx, state, run.steps, run.trace)


@dataclass(frozen=True)
class PrincipalTyping:
    """A typing every other derivable typing of the term instantiates."""

    context: Context
    type: TypeExpr


def principal_typing(
    term: Term,
    defs: TypeDefSet,
    overrides: SignatureEnv | None = None,
) -> Union[PrincipalTyping, SolveWrong]:
    """Most general typing of a term, or wrong when it has none."""
    sig = derive_signatures(defs, overrides)
    fresh = FreshSupply()
    ctx = generic_context([term], fresh)
    ty, term_cs, type_cs = gen_term(ctx, sig, term, fresh)
    assert not term_cs
    run = solve(ConstraintState(terms=(), types=tuple(type_cs)))
    if isinstance(run.result, SolveWrong):
        return run.result
    assert isinstance(run.result, Solved)
    mu = run.result.type_subst
    principal_ctx = {name: apply_type_subst(mu, t) for name, t in ctx.items()}
    return PrincipalTyping(principal_ctx, apply_type_subst(mu, ty))
