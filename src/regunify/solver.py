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

The engine (_Phase) runs these rules without doing what eliminate says
literally: it binds v to s in a triangular store and reads every
constraint through it, with the store readers that resolution and the
checker share (`syntax.deref` and `syntax.resolve_store`), so the
substitution is made only where a state, a witness or a unifier is built,
and it counts and reads no ground node's inside.
Every step, trace state and result is the one the rules as stated give.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, NamedTuple, Optional, Union

from .errors import BudgetExceeded
from .syntax import (
    Base,
    Bool,
    Const,
    SymApp,
    TVar,
    Term,
    TypeExpr,
    Var,
    apply_type_subst,
    deref,
    rebuild_term,
    rebuild_type,
    resolve_store,
    tree_counts,
    var_counts,
)
from .constraints import (
    ConstraintState,
    Context,
    FreshSupply,
    GenericContext,
    TermConstraint,
    TypeConstraint,
    gen_columns,
    gen_equation_columns,
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


# Family-local rule numbers.  _BOUND marks the binder of an eliminate, which
# matches no rule from then on (see _Phase).
_DECOMPOSE, _DELETE, _CLASH, _ORIENT, _ELIMINATE, _OCCURS, _BOUND = range(1, 8)


def _family_rule(var: type, rigid: Callable) -> Callable:
    """The function giving the local rule a constraint lhs = rhs matches,
    read off the classes of its sides, for the family whose variables are of
    class `var`.  `rigid` decides two rigid sides of one class.  Eliminate
    also stands for occurs and for "no rule": whether the variable occurs in
    the other side, and whether it occurs in the rest, are checked when the
    constraint comes up.
    """

    def rule(lhs, rhs) -> int:
        kind = type(lhs)
        if kind is var:
            return _DELETE if type(rhs) is var and lhs.name == rhs.name else _ELIMINATE
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


class _Family(NamedTuple):
    """What the engine needs to know about one kind of constraint."""

    constraint: type
    var: type  # the class of its variables
    rule: Callable  # (lhs, rhs) -> the local rule the constraint matches
    rebuild: Callable
    offset: int  # rule number = family-local rule (1-6) + offset


_TYPES = _Family(TypeConstraint, TVar, _family_rule(TVar, _rigid_type_rule), rebuild_type, 0)
_TERMS = _Family(TermConstraint, Var, _family_rule(Var, _rigid_term_rule), rebuild_term, 6)

# The last element of every order key (see _Phase); no counter reaches it.
_LAST = sys.maxsize

# The initial order keys, (i, _LAST) for cid i.  A phase slices its own from
# this one shared table instead of building a tuple per constraint, and
# builds only those past its end; the table itself is never changed.
_KEYS = [(i, _LAST) for i in range(256)]


class _Phase:
    """One family's constraints, rewritten to a fixpoint by its six rules.

    Each constraint keeps one number (cid) and one order key for its whole
    life, as in Martelli and Montanari's algorithm: decompose rewrites its
    redex in place into the equation of the last arguments, and only the
    others are new.  Each constraint is kept as its two sides as they were
    written, and eliminate does not rewrite them: it records its binding
    v -> s in a triangular store keyed by variable name.  A side stands for
    the term it denotes under the store, every bound variable replaced by
    its binding all the way down, and that is the side the rules' definition
    sees.  So a binding costs the constraints whose rule it can change, not
    every constraint that holds v.  A constraint object is built through the
    store (`syntax.resolve_store`) only when a trace, a witness or the
    caller asks for it, and one rule keeps it, traced or not: it serves
    until the next binding, or until orient or decompose rewrites its
    sides.  Rebuilt after a binding, it is kept when the store leaves both
    of its sides as they were, so a traced step that binds nothing builds
    only what it rewrote, and one that binds rebuilds the live constraints,
    as building the state it shows costs anyway.

    A phase starts from columns, one entry per constraint in order: the left
    sides, the right sides, the local rules (None: read off here) and the
    objects (None where none is made yet).  It takes them over as its own
    per-cid lists, so a caller that solves many states made of the same
    blocks splits and classifies each block once and only joins the lists
    (see solve_columns).  The initial order keys are sliced from one shared
    table (_KEYS), not built per constraint.

    A rule is read off the sides' top nodes after following the store
    (`syntax.deref`, which also moves a chain's bindings to its end; see
    _family_rule), with no head keys built and no structural comparison.
    What the rules' definition recomputes at every step is kept up to date
    as the rules fire instead:

    - Order keys.  Keys are tuples ending in _LAST that compare like the
      positions of their constraints in the sequence.  Decompose leaves the
      redex's key to the last child and gives each other child the redex's
      prefix extended by a number from a counter that only grows, so the
      children sit where the redex was, and a list's spine keeps its keys
      short.
    - One heap of (rule, key, cid) entries.  Its least valid entry is the
      lowest rule that applies anywhere and the leftmost constraint it
      matches, so a step looks at one heap top, not one per rule.  A step
      consumes its redex's entry, which redex() leaves at the top: replaced
      where the same cid is queued again, popped where it is deleted or
      binds.  Entries go stale only when a binding reads a constraint again,
      and are dropped when they reach the top.  An eliminate entry is a
      lower bound: when it reaches the top, the variable may occur in the
      other side by now, which makes it occurs, or only once in the state,
      which makes it no rule and drops it for good (it could only gain
      occurrences from a binding that holds it, and then it would have
      occurred twice already).
    - The occurrence count of every variable in the state the sides denote.
      Decompose and orient keep them; delete and eliminate adjust them.
    - For each variable, the constraints that may have it at the top of a
      side.  A binding fires only when no rule below eliminate applies, so
      every other live constraint is then u = t with u an unbound variable,
      and only those with v at a top can move to a lower rule.  When s is
      rigid, those with v on the left are read again; u = v stays an
      eliminate candidate.  When s is a variable, v's list joins s's, the
      shorter onto the longer, and only the constraints between v and s
      have changed: they are now deletes, found in the shorter list.

    Only eliminate needs the counts and the lists, so both are taken when
    it first comes up; a run that ends before that never counts, lists or
    binds.  The count of what a binding stands for is kept with it
    (_binding_counts), so eliminating v = s walks s as written, not the
    tree it stands for.  No count, and no read through the store, enters a
    node known to be ground (`syntax.is_ground`, kept on the node for its
    life once asked): no variable occurs there, so the census and
    _counts_under (`syntax.var_counts`) skip it, and the store reader
    returns it as it is.  The phase asks of no node itself, since a walk to
    find out costs what it would save within one solve; resolution asks of
    the terms it passes from step to step (goal arguments, substituted
    goals).  So a step that passes on a large ground side, as each step of
    `app` passes on the rest of its list, costs what its variables cost.
    """

    def __init__(self, columns: tuple, family: _Family):
        self.family = family
        self.var = family.var
        # The columns, by cid: each side as written; the local rule the
        # constraint matches, 0 once deleted; its object, None until made.
        self.lhs, self.rhs, rules, self.made = columns
        self.built: dict[int, int] = {}  # cid -> bindings made before its object, or 0
        n = len(self.lhs)
        keys = self.keys = _KEYS[:n]  # cid -> order key
        if n > len(_KEYS):
            keys.extend([(i, _LAST) for i in range(len(_KEYS), n)])
        if rules is None:
            rules = list(map(family.rule, self.lhs, self.rhs))
        self.rules: list = rules
        self.heap = list(zip(rules, keys, range(n)))
        heapify(self.heap)
        self.bound: dict = {}  # variable -> its binding, as written
        self.counts: Optional[dict[str, int]] = None  # variable -> occurrences
        self.tops: Optional[dict[str, list]] = None  # variable -> cids, each maybe stale
        self.inside: Optional[dict[str, int]] = None  # counts of the redex's binding
        self.below: dict[str, dict] = {}  # bound variable -> counts of its binding
        self.fresh = n

    # --- the store -------------------------------------------------------------

    def _counts_under(self, roots) -> dict[str, int]:
        """Occurrences of each variable in the trees that `roots` stand for
        under the store, counted as syntax.var_counts counts them: a subterm
        shared by several parents counts once per path that reaches it, and
        one known to be ground is not entered.  The walk stops at bound
        variables, each of which counts as the tree its binding stands for
        (_binding_counts).  Roots that are all leaves are read directly.
        """
        counts: dict[str, int] = {}
        var = self.var
        for node in roots:
            if getattr(node, "args", None):
                counts = var_counts(roots)
                break
            if type(node) is var:
                counts[node.name] = counts.get(node.name, 0) + 1
        bound = self.bound
        for name in [name for name in counts if name in bound] if bound else ():
            times = counts.pop(name)
            for var, n in self._binding_counts(name).items():
                counts[var] = counts.get(var, 0) + times * n
        return counts

    def _binding_counts(self, name: str) -> dict[str, int]:
        """Occurrences of each variable in the tree that bound variable
        `name` stands for.  Each binding's counts are taken when it is made
        and brought up to date when read: a variable bound since then gives
        way to the counts of its own binding, updated first.
        """
        bound, below = self.bound, self.below
        done: set = set()
        stack = [name]
        while stack:
            top = stack[-1]
            todo = [var for var in below[top] if var in bound and var not in done]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            done.add(top)
            old = below[top]
            if any(var in bound for var in old):
                new: dict[str, int] = {}
                for var, n in old.items():
                    for v, k in below[var].items() if var in bound else ((var, 1),):
                        new[v] = new.get(v, 0) + n * k
                below[top] = new
        return below[name]

    # --- bookkeeping ---------------------------------------------------------

    def _queue(self, cid: int, lhs, rhs, push: Callable = heappush) -> None:
        """Make lhs = rhs constraint `cid`, its tops read through the store,
        and queue the rule it matches: `push` is heapreplace where the entry
        takes the place of the redex's at the top of the heap.
        """
        bound = self.bound
        if bound:
            lhs, rhs = deref(bound, lhs, self.var), deref(bound, rhs, self.var)
            for side in lhs, rhs:
                if type(side) is self.var:
                    self.tops.setdefault(side.name, []).append(cid)
        self.lhs[cid] = lhs
        self.rhs[cid] = rhs
        rule = self.rules[cid] = self.family.rule(lhs, rhs)
        push(self.heap, (rule, self.keys[cid], cid))

    def _add(self, lhs, rhs, key) -> int:
        cid = len(self.rules)
        self.lhs.append(lhs)
        self.rhs.append(rhs)
        self.keys.append(key)
        self.made.append(None)
        self.rules.append(0)
        self._queue(cid, lhs, rhs)
        return cid

    def constraint(self, cid: int, memo: Optional[dict] = None):
        """Constraint `cid` as an object, with the sides it stands for.  A
        binder's left side is its own variable, which the store binds.  The
        object made before is returned while no binding has been made since,
        and kept on a rebuild that gives the very sides it holds.
        """
        old, bound = self.made[cid], self.bound
        if old is not None and self.built.get(cid, 0) == len(bound):
            return old
        lhs, rhs = self.lhs[cid], self.rhs[cid]
        if bound:
            memo = {} if memo is None else memo
            var, rebuild = self.var, self.family.rebuild
            if self.rules[cid] != _BOUND:
                lhs = resolve_store(bound, lhs, memo, var, rebuild)
            rhs = resolve_store(bound, rhs, memo, var, rebuild)
        self.built[cid] = len(bound)
        if old is None or old.lhs is not lhs or old.rhs is not rhs:
            old = self.made[cid] = self.family.constraint(lhs, rhs)
        return old

    def _census(self) -> None:
        """Count the variables of the live constraints and list their tops.
        The store is still empty, and each constraint is walked once, up to
        the nodes known to be ground.
        """
        rules, var = self.rules, self.var
        tops, sides = {}, []
        for cid, rule, lhs, rhs in zip(range(len(rules)), rules, self.lhs, self.rhs):
            if rule:  # u = t with u a variable, as every live constraint now
                sides += (lhs, rhs)
                tops.setdefault(lhs.name, []).append(cid)
                if type(rhs) is var:
                    tops.setdefault(rhs.name, []).append(cid)
        self.tops = tops
        self.counts = var_counts(sides)

    def _live(self) -> list:
        """The cids of the live constraints in sequence order."""
        live = [cid for cid, rule in enumerate(self.rules) if rule]
        live.sort(key=self.keys.__getitem__)
        return live

    def ordered(self) -> tuple:
        """The live constraints in sequence order."""
        make, memo = self.constraint, {}
        return tuple([make(cid, memo) for cid in self._live()])

    def unifier(self) -> dict:
        """The unifier the constraints spell out once in solved form."""
        bound, var, memo = self.bound, self.var, {}
        out = {}
        for cid in self._live():
            # a left side needs no deref: a binder's names its own binding,
            # redex derefs any other before it drops it as no redex, and a
            # variable that occurs once is bound by nothing later
            lhs, rhs = self.lhs[cid], self.rhs[cid]
            if bound and (getattr(rhs, "args", None) or type(rhs) is var and rhs.name in bound):
                rhs = resolve_store(bound, rhs, memo, var, self.family.rebuild)
            assert type(lhs) is var, "constraints not in solved form"
            out[lhs.name] = rhs
        return out

    # --- the rules -----------------------------------------------------------

    def redex(self) -> Optional[tuple[int, int]]:
        """Lowest applicable local rule and the leftmost cid it matches."""
        heap, rules, var, bound = self.heap, self.rules, self.var, self.bound
        while heap:
            rule, key, cid = heap[0]
            if rules[cid] == rule:
                if rule != _ELIMINATE:
                    return rule, cid
                if self.counts is None:
                    self._census()
                lhs = self.lhs[cid]
                if lhs.name in bound:
                    lhs = self.lhs[cid] = deref(bound, lhs, var)
                if self.counts[lhs.name] > 1:
                    rhs = self.rhs[cid]
                    if type(rhs) is var and rhs.name in bound:
                        rhs = self.rhs[cid] = deref(bound, rhs, var)
                    if type(rhs) is var:
                        inside = {rhs.name: 1}
                    elif getattr(rhs, "args", None):
                        inside = self._counts_under(rhs.args)
                    else:
                        inside = {}
                    if lhs.name not in inside:
                        self.inside = inside
                        return rule, cid
                    rules[cid] = _OCCURS
                    heapreplace(heap, (_OCCURS, key, cid))
                    continue
            heappop(heap)
        return None

    def fire(self, rule: int, cid: int) -> None:
        """Apply decompose, delete, orient or eliminate to constraint `cid`,
        consuming the heap entry redex() left at the top before queueing
        anything else.  Orient and decompose drop the object of `cid`, whose
        sides they rewrite.
        """
        lhs, rhs = self.lhs[cid], self.rhs[cid]
        if rule == _ORIENT:
            self.made[cid] = None
            self._queue(cid, rhs, lhs, heapreplace)
        elif rule == _DECOMPOSE:
            key = self.keys[cid]
            *firsts, last = zip(lhs.args, rhs.args)
            # the last arguments' equation takes over the redex's cid and key
            self._queue(cid, *last, heapreplace)
            self.made[cid] = None
            for a, b in firsts:
                self._add(a, b, key[:-1] + (self.fresh, _LAST))
                self.fresh += 1
        else:
            heap = self.heap
            entry = heappop(heap)
            while heap and heap[0] == entry:  # a copy a re-read left, valid again
                heappop(heap)
            if rule == _ELIMINATE:
                self._eliminate(cid, lhs.name, rhs)
                return
            self.rules[cid] = 0
            if type(lhs) is self.var and self.counts is not None:
                self.counts[lhs.name] -= 2

    def _eliminate(self, binder: int, name: str, value) -> None:
        """Bind `name` to `value` and read again the rules that can change."""
        inside, self.inside = self.inside, None
        self.bound[name] = value
        self.below[name] = inside
        rules, counts = self.rules, self.counts
        rules[binder] = _BOUND
        replaced = counts[name] - 1  # all but the binder's own left side
        counts[name] = 1
        for var, n in inside.items():
            counts[var] += replaced * n
        tops, bound, var = self.tops, self.bound, self.var
        moved = tops.pop(name, [])
        if type(value) is not var:
            # those with `name` on the left change rule, each once: a cid
            # listed twice matches a rule below eliminate once read again
            for cid in moved:
                if _ELIMINATE <= rules[cid] <= _OCCURS and type(deref(bound, self.lhs[cid], var)) is not var:
                    self._queue(cid, self.lhs[cid], self.rhs[cid])
            return
        short, long = moved, tops.get(value.name, [])
        if len(long) < len(short):
            short, long = long, short
        long.extend(short)
        tops[value.name] = long
        for cid in short:
            if rules[cid] == _ELIMINATE:
                lhs, rhs = deref(bound, self.lhs[cid], var), deref(bound, self.rhs[cid], var)
                if type(rhs) is var and rhs.name == lhs.name:
                    self._queue(cid, lhs, rhs)


def solve(
    state: ConstraintState, trace: bool = False, max_steps: int | None = None
) -> SolveRun:
    """Rewrite to a fixpoint and read off the result.

    When the type constraints are unsolvable the result is wrong; when they
    solve but the term constraints cannot, false together with the type
    unifier; otherwise both unifiers.  `max_steps` defaults to
    size(state)**2 * 64.  Terminating inputs can pass it: the double sharing
    chain h(X1..Xn, Y1..Yn, Xn) = h(g(X0,X0)..g(Xn-1,Xn-1), g(Y0,Y0)..g(Yn-1,Yn-1), Yn)
    takes about 4 * 2**n steps, so at n=24 it needs about 67 M steps
    against a default of 38.9 M, and raises BudgetExceeded.

    This is the front of the solver for callers that hold a state: it
    splits each constraint set into the columns a phase starts from (left
    sides, right sides, rules and objects, entry i of each being constraint
    i in the set's order; see _Phase) and runs the one rewrite loop on
    them, `solve_columns`.  The package's own callers generate their
    columns directly (`constraints.gen_columns`) and call `solve_columns`.
    The rules of a set are read off when its phase starts, and its initial
    order keys are sliced from one shared table.
    """
    types, terms = list(state.types), list(state.terms)
    return solve_columns(
        ([c.lhs for c in types], [c.rhs for c in types], None, types),
        ([c.lhs for c in terms], [c.rhs for c in terms], None, terms),
        trace,
        max_steps,
    )


def columns(lhs: list, rhs: list) -> tuple[list, list, None, list]:
    """The columns of the constraints lhs[i] = rhs[i] (see `gen_columns`),
    for `solve_columns`: rules read off when the phase starts, and no
    object made.
    """
    return lhs, rhs, None, [None] * len(lhs)


def type_columns(lhs: list, rhs: list) -> tuple[list, list, list, list]:
    """The columns of a block of type constraints lhs[i] = rhs[i] (see
    `gen_columns`), rules read off and objects made.  A block is never
    rewritten, so one serves any number of `equation_columns`, and its
    objects, made once, serve as the witnesses of every pair it is in.
    """
    return lhs, rhs, list(map(_TYPES.rule, lhs, rhs)), list(map(TypeConstraint, lhs, rhs))


def equation_columns(lhs: Term, left: tuple, rhs: Term, right: tuple) -> tuple[tuple, tuple]:
    """The type and term columns of `gen_equation`'s state for lhs = rhs,
    for `solve_columns`, from each side's type and block (type_columns):
    the left block, the right block, then the equality of the two types;
    and lhs = rhs.  Neither equation's object is made unless a witness or a
    trace needs it.
    """
    left_type, (lhs_1, rhs_1, rules_1, made_1) = left
    right_type, (lhs_2, rhs_2, rules_2, made_2) = right
    types = (
        [*lhs_1, *lhs_2, left_type],
        [*rhs_1, *rhs_2, right_type],
        [*rules_1, *rules_2, _TYPES.rule(left_type, right_type)],
        [*made_1, *made_2, None],
    )
    return types, ([lhs], [rhs], None, [None])


def solve_columns(
    types: tuple, terms: tuple, trace: bool = False, max_steps: int | None = None
) -> SolveRun:
    """`solve` of the state whose type and term constraints these columns
    hold: each is (left sides, right sides, local rules, objects), entry i
    of each list being constraint i of the set, in the order the rules'
    leftmost choice reads (for generated constraints, generation order;
    see `constraints.gen_columns`).  Rules may be None, to be read off when
    the phase starts, and an object None, to be made only if a witness or a
    trace needs it (`columns` gives such a set).  The lists become the
    solver's, which rewrites them in place, so a caller that needs the
    constraints as given copies them first.

    Each step costs what it touches, not the size of the whole state, and
    eliminate binds instead of substituting; see _Phase.  The term phase is
    set up only once the type rules reach their fixpoint, so a wrong result
    never builds it, and an empty set builds no phase at all: its unifier
    is {}, and a traced state shows it as no constraints, as the rules'
    states do.  So a caller that passes no type constraints, as a replayed
    clause try does, or no term constraints, as `principal_typing` does,
    pays for one phase only.  The unifiers, the witness and each traced
    state are built from the store with one memo per state, so a subterm
    that many bindings share is one object in all of them.  Only this loop
    reads `trace`: the phases keep their constraint objects by one rule
    either way (see _Phase), so a traced step that binds nothing builds
    only the constraints it rewrote, and one that binds reads every live
    constraint again through the store.
    """
    # The default budget needs the size of the whole state.  Every constraint
    # has at least two nodes, so until the steps pass the bound that gives,
    # the state need not be walked; its sides are kept as given, since the
    # phases rewrite the columns.  Few inputs pass that bound: the double
    # sharing chain (see `solve`) does from n=21, and at n=24 it
    # passes the walked bound too.
    sides = (*types[0], *types[1], *terms[0], *terms[1])
    exact = max_steps is not None
    if not exact:
        max_steps = max(1, 2 * (len(terms[0]) + len(types[0]))) ** 2 * BUDGET_FACTOR
    if trace:  # until the term phase, every state shows its constraints as given
        made = terms[3]
        for cid, (lhs, rhs, c) in enumerate(zip(terms[0], terms[1], made)):
            made[cid] = c or TermConstraint(lhs, rhs)
        given = tuple(made)
    type_phase = _Phase(types, _TYPES) if types[0] else None
    term_phase = None  # set up once the type rules reach their fixpoint
    phase, family = type_phase, _TYPES
    steps = 0
    trace_steps: list[TraceStep] = []
    while True:
        redex = None if phase is None else phase.redex()
        if redex is None:
            if family is _TERMS:
                break
            family = _TERMS
            phase = term_phase = _Phase(terms, _TERMS) if terms[0] else None
            continue
        steps += 1
        if steps > max_steps and not exact:
            max_steps, exact = max(1, tree_counts(sides)[1]) ** 2 * BUDGET_FACTOR, True
        if steps > max_steps:
            raise BudgetExceeded(f"rewriting exceeded {max_steps} steps")
        rule, cid = redex
        if rule == _CLASH or rule == _OCCURS:
            witness = phase.constraint(cid)
            if family is _TYPES:
                result = SolveWrong(witness=witness)
            else:
                mu = type_phase.unifier() if type_phase else {}
                result = SolveFalse(type_subst=mu, witness=witness)
            return SolveRun(result, steps, tuple(trace_steps))
        if trace:
            target = phase.constraint(cid)
        phase.fire(rule, cid)
        if trace:
            term_cs = given if term_phase is None else term_phase.ordered()
            type_cs = type_phase.ordered() if type_phase else ()
            trace_steps.append(
                TraceStep(rule + family.offset, target, ConstraintState(term_cs, type_cs))
            )
    result = Solved(
        subst=term_phase.unifier() if term_phase else {},
        type_subst=type_phase.unifier() if type_phase else {},
    )
    return SolveRun(result, steps, tuple(trace_steps))


# --- whole-problem entry points ------------------------------------------------


@dataclass(frozen=True)
class UnifyRun:
    """A typed-unification session: the solver outcome, the generic context,
    and the per-variable types under the solution.  `initial`, the generated
    constraints, is built when first read.
    """

    result: SolveResult
    context: Context
    steps: int
    trace: tuple[TraceStep, ...]
    # lhs, rhs, and the two sides of each type constraint as generated
    generated: tuple = field(repr=False, compare=False)

    @cached_property
    def initial(self) -> ConstraintState:
        """The constraints `gen_equation` makes for the unified equation."""
        lhs, rhs, left, right = self.generated
        return ConstraintState((TermConstraint(lhs, rhs),), tuple(map(TypeConstraint, left, right)))

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
    with its own type variable.  The context is filled as the walk reads
    each variable, which gives `generic_context`'s order and names.
    """
    sig = derive_signatures(defs, overrides)
    fresh = FreshSupply()
    ctx = GenericContext()
    left, right = gen_equation_columns(ctx, sig, lhs, rhs, fresh)
    generated = (lhs, rhs, left[:], right[:])  # the solver rewrites the lists
    run = solve_columns(columns(left, right), columns([lhs], [rhs]), trace, max_steps)
    return UnifyRun(run.result, dict(ctx), run.steps, run.trace, generated)


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
    ctx = GenericContext()
    left: list = []
    right: list = []
    ty = gen_columns(ctx, sig, term, fresh, left, right)
    run = solve_columns(columns(left, right), columns([], []))
    if isinstance(run.result, SolveWrong):
        return run.result
    assert isinstance(run.result, Solved)
    mu = run.result.type_subst
    principal_ctx = {name: apply_type_subst(mu, t) for name, t in ctx.items()}
    return PrincipalTyping(principal_ctx, apply_type_subst(mu, ty))
