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
from heapq import heapify, heappop, heappush
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


# Family-local rule numbers.
_DECOMPOSE, _DELETE, _CLASH, _ORIENT, _ELIMINATE, _OCCURS = range(1, 7)


def _family_rule(var: type, rigid: Callable) -> Callable:
    """The function giving the local rule a constraint lhs = rhs matches,
    read off the classes of its sides, for the family whose variables are of
    class `var`.  `rigid` decides two rigid sides of one class.  Eliminate
    also stands for "no rule": whether eliminate applies depends on the
    rest, and that is checked when it comes up.
    """

    def rule(lhs, rhs) -> int:
        kind = type(lhs)
        if kind is var:
            if type(rhs) is var:
                return _DELETE if lhs.name == rhs.name else _ELIMINATE
            if getattr(rhs, "args", None) and occurs_in(lhs.name, rhs):
                return _OCCURS
            return _ELIMINATE
        if type(rhs) is var:
            return _ORIENT
        if kind is not type(rhs):
            return _CLASH
        return rigid(lhs, rhs)

    return rule


def _rigid_type_rule(lhs: TypeExpr, rhs: TypeExpr) -> int:
    kind = type(lhs)
    if kind is Base:  # equal 0-arity heads are structurally equal
        return _DELETE if lhs.kind == rhs.kind else _CLASH
    if kind is Bool:
        return _DELETE
    same = lhs.symbol == rhs.symbol if kind is SymApp else lhs.ctor == rhs.ctor
    if not same or len(lhs.args) != len(rhs.args):
        return _CLASH
    return _DECOMPOSE if lhs.args else _DELETE


def _rigid_term_rule(lhs: Term, rhs: Term) -> int:
    if type(lhs) is Const:
        return _DELETE if (lhs.symbol, lhs.kind) == (rhs.symbol, rhs.kind) else _CLASH
    if lhs.functor != rhs.functor or len(lhs.args) != len(rhs.args):
        return _CLASH
    return _DECOMPOSE if lhs.args else _DELETE


def _rebuild_type(ty: TypeExpr, args: tuple) -> TypeExpr:
    if isinstance(ty, SymApp):
        return SymApp(ty.symbol, args)
    return CtorApp(ty.ctor, args)


def _rebuild_term(t: Term, args: tuple) -> Term:
    return Compound(t.functor, args)


class _Family(NamedTuple):
    """What the engine needs to know about one kind of constraint."""

    constraint: type
    rule: Callable  # (lhs, rhs) -> the local rule the constraint matches
    rebuild: Callable
    offset: int  # rule number = family-local rule (1-6) + offset


_TYPES = _Family(TypeConstraint, _family_rule(TVar, _rigid_type_rule), _rebuild_type, 0)
_TERMS = _Family(TermConstraint, _family_rule(Var, _rigid_term_rule), _rebuild_term, 6)

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
    Each one is kept as its two sides, and a constraint object is made only
    when a trace, a witness or the caller asks for it.  What the rules'
    definition recomputes at every step is kept up to date as the rules fire
    instead:

    - Order keys.  Keys are tuples ending in _LAST that compare like the
      positions of their constraints in the sequence.  Decompose gives its
      last child the parent's key and each other child the parent's prefix
      extended by a number from a counter that only grows, so the children
      sit where the parent was, and a list's spine keeps its keys short.
    - One heap of (rule, key, cid) entries.  Its least valid entry is the
      lowest rule that applies anywhere and the leftmost constraint it
      matches, so a step looks at one heap top, not one per rule.  Entries
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

    A constraint's rule is read off the classes of its two sides (see
    _family_rule), with no head keys built and no structural comparison.
    Only eliminate needs the counts and the index, so both are taken when it
    first comes up; a run that ends before that never counts or indexes.
    """

    def __init__(self, constraints, family: _Family):
        self.family = family
        self.made: list = list(constraints)  # cid -> its constraint object, None until made
        self.lhs: list = [c.lhs for c in self.made]  # cid -> left side
        self.rhs: list = [c.rhs for c in self.made]  # cid -> right side
        n = len(self.made)
        self.keys: list = [(i, _LAST) for i in range(n)]  # cid -> order key
        # cid -> local rule its constraint matches; 0 once decomposed or deleted
        self.rules: list = list(map(family.rule, self.lhs, self.rhs))
        self.heap = list(zip(self.rules, self.keys, range(n)))
        heapify(self.heap)
        self.counts: Optional[dict[str, int]] = None  # variable -> occurrences
        self.index: Optional[dict[str, list]] = None  # variable -> cids, each live or forwarding
        self.forward: dict[int, int] = {}  # decomposed cid -> cid of its last child
        self.fresh = n

    # --- bookkeeping ---------------------------------------------------------

    def _add(self, lhs, rhs, key) -> int:
        cid = len(self.rules)
        self.made.append(None)
        self.lhs.append(lhs)
        self.rhs.append(rhs)
        self.keys.append(key)
        rule = self.family.rule(lhs, rhs)
        self.rules.append(rule)
        heappush(self.heap, (rule, key, cid))
        return cid

    def _set(self, cid: int, lhs, rhs) -> None:
        """Put lhs = rhs in place of constraint `cid` and queue the rule it matches."""
        self.made[cid] = None
        self.lhs[cid] = lhs
        self.rhs[cid] = rhs
        rule = self.rules[cid] = self.family.rule(lhs, rhs)
        heappush(self.heap, (rule, self.keys[cid], cid))

    def constraint(self, cid: int):
        """Constraint `cid` as an object, made once per rewrite."""
        c = self.made[cid]
        if c is None:
            c = self.made[cid] = self.family.constraint(self.lhs[cid], self.rhs[cid])
        return c

    def _census(self) -> None:
        """Count and index the variables of the live constraints."""
        live = [cid for cid, rule in enumerate(self.rules) if rule]
        sides = [side for cid in live for side in (self.lhs[cid], self.rhs[cid])]
        self.counts = tree_counts(sides)[0]
        self.index = {}
        for cid in live:
            self._index(cid)

    def _index(self, cid: int) -> None:
        """Enter `cid` under each variable of its constraint."""
        index = self.index
        stack, seen = [self.lhs[cid], self.rhs[cid]], set()
        while stack:
            node = stack.pop()
            args = getattr(node, "args", None)
            if args:
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(args)
            elif type(node) in _VARS:
                index.setdefault(node.name, []).append(cid)

    def _holders(self, name: str, binder: int) -> set:
        """Live constraints other than `binder` that may contain `name`."""
        rules, forward = self.rules, self.forward
        found = set()
        for cid in self.index.get(name, ()):
            path = []
            while not rules[cid] and cid in forward:
                path.append(cid)
                cid = forward[cid]
            for p in path:  # later lookups jump straight to the end
                forward[p] = cid
            if rules[cid] and cid != binder:
                found.add(cid)
        return found

    def _live(self) -> list:
        """The cids of the live constraints in sequence order."""
        live = [cid for cid, rule in enumerate(self.rules) if rule]
        live.sort(key=self.keys.__getitem__)
        return live

    def ordered(self) -> tuple:
        """The live constraints in sequence order."""
        return tuple(map(self.constraint, self._live()))

    def unifier(self) -> dict:
        """The unifier the constraints spell out once in solved form."""
        out = {}
        for cid in self._live():
            lhs = self.lhs[cid]
            assert isinstance(lhs, _VARS), "constraints not in solved form"
            out[lhs.name] = self.rhs[cid]
        return out

    # --- the rules -----------------------------------------------------------

    def redex(self) -> Optional[tuple[int, int]]:
        """Lowest applicable local rule and the leftmost cid it matches."""
        heap, rules = self.heap, self.rules
        while heap:
            rule, _key, cid = heap[0]
            if rule == _ELIMINATE:
                if self.counts is None:
                    self._census()
                if rules[cid] == rule and self.counts[self.lhs[cid].name] > 1:
                    return rule, cid
            elif rules[cid] == rule:
                return rule, cid
            heappop(heap)
        return None

    def fire(self, rule: int, cid: int) -> None:
        """Apply decompose, delete, orient or eliminate to constraint `cid`."""
        lhs, rhs = self.lhs[cid], self.rhs[cid]
        if rule == _ORIENT:
            self._set(cid, rhs, lhs)
        elif rule == _ELIMINATE:
            self._eliminate(cid, lhs.name, rhs)
        else:
            self.rules[cid] = 0
            if rule == _DELETE:
                if type(lhs) in _VARS and self.counts is not None:
                    self.counts[lhs.name] -= 2
                return
            key = self.keys[cid]
            pairs = list(zip(lhs.args, rhs.args))
            for a, b in pairs[:-1]:
                child = self._add(a, b, key[:-1] + (self.fresh, _LAST))
                self.fresh += 1
                if self.index is not None:
                    self._index(child)
            self.forward[cid] = self._add(*pairs[-1], key)

    def _eliminate(self, binder: int, name: str, value) -> None:
        """Substitute `value` for `name` in every other constraint holding it."""
        rebuild = self.family.rebuild
        lhs_of, rhs_of, rules = self.lhs, self.rhs, self.rules
        if getattr(value, "args", None):
            inside = tree_counts((value,))[0]
        else:
            inside = {value.name: 1} if type(value) in _VARS else {}
        memo: dict = {}
        rewritten = []
        for cid in self._holders(name, binder):
            lhs, rhs = lhs_of[cid], rhs_of[cid]
            new_lhs = _substitute(lhs, name, value, rebuild, memo)
            new_rhs = _substitute(rhs, name, value, rebuild, memo)
            if new_lhs is not lhs or new_rhs is not rhs:
                rewritten.append((cid, new_lhs, new_rhs, new_lhs is lhs))
        # the old sides stay alive until here, so no id in memo is reused
        for cid, lhs, rhs, same_lhs in rewritten:
            if same_lhs and rules[cid] == _ELIMINATE and lhs.name not in inside:
                # v = s became v = s' with v in neither s nor `value`: still
                # an eliminate candidate, and its heap entry still stands
                rhs_of[cid] = rhs
                self.made[cid] = None
            else:
                self._set(cid, lhs, rhs)
        changed = [cid for cid, *_sides in rewritten]
        counts, index = self.counts, self.index
        index[name] = [binder]
        replaced = counts[name] - 1  # all but the binder's own left side
        counts[name] = 1
        for var, n in inside.items():
            counts[var] += replaced * n
            index.setdefault(var, []).extend(changed)


def solve(
    state: ConstraintState, trace: bool = False, max_steps: int | None = None
) -> SolveRun:
    """Rewrite to a fixpoint and read off the result.

    When the type constraints are unsolvable the result is wrong; when they
    solve but the term constraints cannot, false together with the type
    unifier; otherwise both unifiers.  `max_steps` defaults to
    size(state)**2 * 64, which no input should ever reach.

    Each step costs what it touches, not the size of the whole state; see
    _Phase.  The term phase is set up only once the type rules reach their
    fixpoint, so a wrong result never builds it.  Eliminate shares the bound
    subterm instead of copying it, so the unifiers can hold one object in
    many places.
    """
    # The default budget needs the size of the whole state.  Every constraint
    # has at least two nodes, so until the steps pass the bound that gives,
    # which no input is known to reach, the state need not be walked.
    exact = max_steps is not None
    if not exact:
        max_steps = max(1, 2 * (len(state.terms) + len(state.types))) ** 2 * BUDGET_FACTOR
    types = phase = _Phase(state.types, _TYPES)
    terms = None  # set up once the type rules reach their fixpoint
    steps = 0
    trace_steps: list[TraceStep] = []
    while True:
        redex = phase.redex()
        if redex is None:
            if terms is not None:
                break
            terms = phase = _Phase(state.terms, _TERMS)
            continue
        steps += 1
        if steps > max_steps and not exact:
            max_steps, exact = max(1, state.size()) ** 2 * BUDGET_FACTOR, True
        if steps > max_steps:
            raise BudgetExceeded(f"rewriting exceeded {max_steps} steps")
        rule, cid = redex
        if rule == _CLASH or rule == _OCCURS:
            witness = phase.constraint(cid)
            if terms is None:
                result = SolveWrong(witness=witness)
            else:
                result = SolveFalse(type_subst=types.unifier(), witness=witness)
            return SolveRun(result, steps, tuple(trace_steps))
        if trace:
            target = phase.constraint(cid)
        phase.fire(rule, cid)
        if trace:
            term_cs = tuple(state.terms) if terms is None else terms.ordered()
            trace_steps.append(
                TraceStep(
                    rule + phase.family.offset,
                    target,
                    ConstraintState(term_cs, types.ordered()),
                )
            )
    result = Solved(subst=terms.unifier(), type_subst=types.unifier())
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
