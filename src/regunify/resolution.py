"""Typed SLD resolution with three-way failure reporting.

Goals run left to right against program clauses in order, depth-first, and
every goal/head unification is the typed kind: per argument pair one term
equation, both atoms' argument types constrained by the predicate's declared
(or defaulted) signature, all solved in one constraint state.  The type
substitution threads through a derivation, so a variable's inferred type at
one goal constrains the types it may take at later goals.

Search stops at the first success.  Failing searches distinguish why:

    NoWrong     some branch died of a type clash (wrong)
    NoFalse     every branch ran its unification to false with no goals left
    NoUnknown   anything weaker: a false with goals still pending, or an
                exhausted budget

The type context a derivation carries maps each variable to its type under
the type substitution so far.  It holds the query's variables, whose types
the answer reports, and the variables no step has bound yet, which are the
only ones the goals still mention.  A variable a step binds leaves every goal
for good, so the context passed on drops it: like a WAM's environment
trimming, a step then costs what its live variables cost, not what the whole
derivation so far has renamed.  A goal's variables not met before (the
query's, and those only a clause body held) get their generic type once per
goal, and each renamed clause head adds its own variables.  A ground
argument is not walked for its variables (`syntax.is_ground`, read once per
node), so `app`'s goal context costs its variables, not its list.

A clause try's type phase depends only on the clause and on the types of
the goal's arguments, so the search keeps a memo of type phases for one
`resolve` call.  Its key is the clause (a ground fact whose arguments have
closed types by its functor, those types and the fresh names typing them
draws; any other clause by identity) and the goal's argument types, their
type variables numbered in order of first occurrence.  A variable's type
is the one the context gives it, a constant's its scheme, and a ground
compound's its closed principal type (`constraints.ClosedTypes`), read once
per node for the whole search; an argument without a closed type, such as
`[]`, gives no key, and the try runs as it would without a memo.  A try the
memo lacks runs `unify_args` and `solve_columns`, and stores its type phase
only where that does not depend on where the fresh-name counter stood (see
`_Search.unify`).  A try it holds moves the fresh-name counter past the
names the walk would have drawn, unifies the terms alone, and rebuilds the
types of the goal's variables and the head's from the stored ones.  Against
a ground fact the terms are matched, one way, with a stack of its own
(`_match_fact`): a variable binds to the head's subterm, constants agree on
symbol and kind, compounds on functor and arity, so the verdict and the
unifier are the rules' and no solver phase is built; against any other
clause the term constraints are solved (given no type constraints, the
solver builds no type phase).  Every try is still made and noted, in
program order, and every `steps` count, branch note, binding, type and
fresh name is the one the walk gives.  So `app` types its ground list once
instead of at every step, and a scan of ground facts types one fact per
goal and clause key and compares a few constants for each other fact.

A try that builds its type columns, a memo miss or a goal without a key,
does not walk an argument with a closed type either, the goal's or the
head's: the argument adds its closed type, and the fresh-name counter moves
past the names its walk would draw (`_Search.unify_args`).  The closed type
is the argument's principal type, so the solved state is the walk's for
every other variable.  So a miss of `app` costs its clause and its
variables, not the list it passes on.

Beyond its type phase, a try pays for what it changes, not for the
derivation around it.  Each clause's template, its variable names in
first-occurrence order and how many its head holds, is read once, at the
clause's first renaming (`Clause.template`); a try renames from it, drawing
the fresh names a walk would, and types the renamed head's variables from
the names the renaming drew, so a ground clause is its own renaming, with
an empty head context, at no walk.  A state does not carry the answer
either: it links its step's term unifier to its parent's in a trail, and
the query's variables are resolved through the trail once, at the answer
(`_compose`), by the store reader the solver uses (`syntax.resolve_store`),
where composing the answer at every step re-walked it.  Nor does a step
walk the ground terms it passes on: substitution, the solver's occurrence
counts and its unifier stop at a ground node, so a memo-hit `app` step
costs the same at any length of its list, and a pending goal that holds a
large ground term costs nothing per step.

A goal `t1 = t2` is solved by typed unification directly instead of clause
search; a side with a closed type adds that type, as a try's argument does
(`_Search.arg_type`), so a ground side is not walked for its type.  `is`
and other unknown predicates have no special meaning: they simply find no
matching clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from .constraints import ClosedTypes, Context, FreshSupply, gen_columns
from .solver import Solved, SolveFalse, SolveWrong, columns, solve_columns
from .syntax import (
    Compound,
    Const,
    CtorApp,
    FuncType,
    Subst,
    SymApp,
    Term,
    TVar,
    TypeExpr,
    Var,
    apply_subst,
    apply_type_subst,
    free_type_vars,
    free_vars,
    is_ground,
    rebuild_term,
    resolve_store,
)
from .typedefs import SignatureEnv, TypeDefSet, derive_signatures, instantiate


@dataclass(frozen=True)
class Clause:
    head: Term
    body: tuple[Term, ...] = ()

    @cached_property
    def template(self) -> tuple[tuple[str, ...], int]:
        """The clause's variable names in first-occurrence order, the head's
        first, and how many of them its head holds: what a renaming draws
        from, read once per clause instead of walked at every renaming.
        """
        head = free_vars(self.head)
        names = dict.fromkeys(head)
        for goal in self.body:
            names.update(dict.fromkeys(free_vars(goal)))
        return tuple(names), len(head)


@dataclass(frozen=True)
class ResolutionBudget:
    max_steps: int = 10_000
    max_depth: int = 200


@dataclass(frozen=True)
class Yes:
    """First solution found: query-variable bindings and their types."""

    bindings: Subst
    var_types: dict[str, TypeExpr]


@dataclass(frozen=True)
class NoFalse:
    """Every branch failed plainly with nothing left to prove."""


@dataclass(frozen=True)
class NoWrong:
    """Some branch failed on a type clash."""


@dataclass(frozen=True)
class NoUnknown:
    """Failure without a definite verdict."""

    budget_exceeded: bool = False


Outcome = Union[Yes, NoFalse, NoWrong, NoUnknown]


@dataclass(frozen=True)
class BranchNote:
    """One unification attempt: the goal, what it ran against, the verdict."""

    depth: int
    goal: Term
    against: Optional[Term]  # clause head; None for equality or no-clause notes
    verdict: str  # "solved" | "false" | "wrong"
    final: bool  # no goals would remain after this one
    via: str = "clause"  # "clause" | "equality" | "no_clauses"


@dataclass
class ResolveReport:
    outcome: Outcome
    steps: int = 0
    branches: list[BranchNote] = field(default_factory=list)


def rename_clause(clause: Clause, fresh: FreshSupply) -> Clause:
    """Copy with every variable renamed through the fresh supply, in the
    order of the clause's template; a clause without variables draws no
    names and is returned as it is.
    """
    names, _in_head = clause.template
    if not names:  # a ground clause is its own renaming
        return clause
    mapping: Subst = {name: fresh.var(f"{name}_") for name in names}
    return Clause(
        apply_subst(mapping, clause.head),
        tuple(apply_subst(mapping, g) for g in clause.body),
    )


def _head_names(clause: Clause, drawn: int) -> list[str]:
    """The names `rename_clause` gives the clause's head variables, in
    first-occurrence order, when the supply had drawn `drawn` names before
    it: read from the template, not from a walk of the copy.
    """
    names, in_head = clause.template
    return [FreshSupply.var_name(f"{name}_", drawn + i) for i, name in enumerate(names[:in_head], 1)]


def _callable_key(t: Term):
    kind = type(t)
    if kind is Compound:
        return (t.functor, len(t.args))
    if kind is Const:
        return (t.symbol, 0)
    return None


def _compose(trail, names) -> Subst:
    """The bindings of the query variables `names` that the derivation
    whose step unifiers `trail` links, last first, composes, in `names`'
    order; a name no step bound is left out.

    No step binds a variable an earlier step bound, since that variable has
    left every goal, and the renamed clauses' are fresh; so the steps'
    unifiers together are one triangular store, and the composition binds
    each name to what it stands for under the store (`resolve_store`), read
    through one memo, so a node is rebuilt once and one under which nothing
    is bound is kept as it is.
    """
    store: Subst = {}
    while trail is not None:
        step, trail = trail
        store.update(step)
    memo: dict = {}
    return {
        name: resolve_store(store, store[name], memo, Var, rebuild_term)
        for name in names
        if name in store
    }


_VERDICT = {Solved: "solved", SolveFalse: "false", SolveWrong: "wrong"}


class _Search:
    """Depth-first search over an explicit stack of choice points, one per depth."""

    def __init__(self, program, defs: TypeDefSet, overrides, budget: ResolutionBudget):
        self.index: dict[tuple, list[Clause]] = {}  # (name, arity) -> clauses, in order
        for clause in program:
            self.index.setdefault(_callable_key(clause.head), []).append(clause)
        self.sig = derive_signatures(defs, overrides)
        self.budget = budget
        self.fresh = FreshSupply()
        self.report = ResolveReport(outcome=NoUnknown())
        self.budget_exceeded = False
        # the memo of type phases: goal key -> clause key -> entry (see unify)
        self.memo: dict[tuple, dict] = {}
        self.clauses: dict = {}  # id of a clause -> its key and its head's closed types
        self.closed = ClosedTypes(self.sig)

    def unify_args(
        self, ctx: Context, goal: Compound, head: Compound, goal_closed=None, head_closed=None
    ) -> tuple[tuple, tuple]:
        """Argument-wise typed unification of a goal with a clause head, as
        the type and term columns of `solve_columns`.  The terms hold one
        equation per argument pair.  The types hold each pair's constraints
        and the equality of its two types, as `gen_equation` orders them,
        then the pairs' types against the predicate's domain, the goal's
        first.  Both atoms instantiate the predicate's scheme independently,
        so the declared signature constrains the goal's arguments and the
        head's.

        `goal_closed` and `head_closed`, where given, hold each argument's
        closed type and draws (`ClosedTypes.of`) or None.  An argument with
        a closed type adds that type where the walk would add its
        constraints and its type, and the supply skips the names the walk
        would draw, so every later name is the walk's.  Its constraints
        hold exactly when it has its principal type, which is closed, so
        the solved state gives every other variable the type the walk does.
        """
        scheme = self.sig.lookup_predicate(goal.functor, goal.arity)  # the head's too
        goal_ft, head_ft = instantiate(scheme, self.fresh), instantiate(scheme, self.fresh)
        assert isinstance(goal_ft, FuncType) and isinstance(head_ft, FuncType)
        unknown = (None,) * goal.arity
        pairs = zip(goal.args, goal_closed or unknown, head.args, head_closed or unknown)
        lhs: list = []
        rhs: list = []
        goal_tys, head_tys = [], []  # each pair's goal type = head type
        for g_arg, g_closed, h_arg, h_closed in pairs:
            goal_tys.append(self.arg_type(ctx, g_arg, g_closed, lhs, rhs))
            head_tys.append(self.arg_type(ctx, h_arg, h_closed, lhs, rhs))
            lhs.append(goal_tys[-1])
            rhs.append(head_tys[-1])
        lhs += goal_tys
        rhs += goal_ft.domain
        lhs += head_tys
        rhs += head_ft.domain
        return columns(lhs, rhs), columns(list(goal.args), list(head.args))

    def arg_type(self, ctx: Context, arg: Term, closed, lhs: list, rhs: list) -> TypeExpr:
        """The type of an argument: its closed type, the supply moved past
        the names typing it draws, or else `gen_columns`'.
        """
        if closed is None:
            return gen_columns(ctx, self.sig, arg, self.fresh, lhs, rhs)
        self.fresh.skip(closed[1])
        return closed[0]

    def run(self, goals, query) -> Optional[tuple[Subst, Context]]:
        """The first answer's bindings of the query's variables `query` (their
        names, in order) and its context, or None once no choice is left.

        A state is its goals, its trail and its context.  The trail links
        each solved step's term unifier to its parent state's trail, so a
        step costs nothing for the bindings before it, and the bindings are
        composed once, for the answer (`_compose`).
        """
        stack = [iter([(goals, None, {})])]  # the query: the one state at depth 0
        while stack:
            state = next(stack[-1], None)
            if state is None:
                stack.pop()
                continue
            goals, trail, var_types = state
            depth = len(stack) - 1
            if not goals:
                return _compose(trail, query), var_types
            if depth >= self.budget.max_depth:
                self.budget_exceeded = True
            else:
                stack.append(self.tries(goals, trail, var_types, depth, query))
        return None

    def goal_context(self, goal: Term, var_types: Context) -> Context:
        """The goal's variables' types: the derivation's, and for one not
        met before its generic type, in first-occurrence order.  A ground
        argument (`is_ground`, read once per node) is not walked, so a goal
        costs its variables, not its ground arguments.
        """
        ctx: Context = {}
        for arg in goal.args if type(goal) is Compound else ():
            kind = type(arg)
            if kind is Var:
                names = (arg.name,)
            elif kind is Compound and not is_ground(arg):
                names = free_vars(arg)
            else:
                continue
            for name in names:
                if name not in ctx:
                    ctx[name] = FreshSupply.tvar_for(name)
        return ctx | var_types

    def tries(self, goals, trail, var_types: Context, depth: int, query):
        """Try the first goal against `=` or its clauses, yielding the state
        after each solve; the query's variables `query` keep their types in
        every state's context.
        """
        notes = self.report.branches
        goal, rest = goals[0], goals[1:]
        final = not rest
        if isinstance(goal, Compound) and goal.functor == "=" and goal.arity == 2:
            clauses = [None]  # a single try, by typed unification
        else:
            key = _callable_key(goal)
            assert key is not None, "goals are atoms by construction"
            clauses = self.index.get(key)
            if not clauses:
                # no candidate clauses at all: the branch fails plainly
                notes.append(BranchNote(depth, goal, None, "false", final, "no_clauses"))
                return
        # the goal's variables keep the types the derivation gave them; one
        # not met before gets its generic type
        closed = tuple(map(self.closed.of, goal.args)) if type(goal) is Compound else ()
        goal_ctx = self.goal_context(goal, var_types)
        memo = None
        if clauses[0] is not None and closed:
            memo = self.goal_key(goal, closed, goal_ctx)
        for clause in clauses:
            if self.report.steps >= self.budget.max_steps:
                self.budget_exceeded = True
                return
            self.report.steps += 1
            if clause is None:
                against, body, via, ctx = None, (), "equality", goal_ctx
                left, right = goal.args
                lhs: list = []
                rhs: list = []
                sides = [self.arg_type(ctx, arg, got, lhs, rhs) for arg, got in zip(goal.args, closed)]
                types = columns([*lhs, sides[0]], [*rhs, sides[1]])
                result = solve_columns(types, columns([left], [right])).result
                verdict = _VERDICT[type(result)]
            else:
                drawn = self.fresh.drawn
                renamed = rename_clause(clause, self.fresh)
                against, body, via = renamed.head, renamed.body, "clause"
                if isinstance(goal, Const):
                    ctx, result, verdict = goal_ctx, Solved({}, {}), "solved"
                else:
                    head_ctx = {name: FreshSupply.tvar_for(name) for name in _head_names(clause, drawn)}
                    ctx = goal_ctx | head_ctx
                    verdict, result = self.unify(ctx, goal, closed, renamed.head, head_ctx, clause, memo)
            notes.append(BranchNote(depth, goal, against, verdict, final, via))
            if verdict == "solved":
                subst, mu = result.subst, result.type_subst
                yield (
                    tuple(apply_subst(subst, g) for g in (*body, *rest)),
                    (subst, trail) if subst else trail,
                    # a variable this step bound has left every goal for good
                    {
                        name: apply_type_subst(mu, ty)
                        for name, ty in ctx.items()
                        if name in query or name not in subst
                    },
                )

    # --- the memo of type phases -----------------------------------------------------

    def goal_key(self, goal: Compound, closed, ctx: Context):
        """The memo entries of the goal's argument types, the goal's type
        variables in the order the key numbers them, and the names typing
        its arguments draws; None if an argument that is not a variable has
        no closed type (`closed`, as `tries` reads it).
        """
        key: list = []
        names: dict[str, int] = {}
        draws = 0
        for arg, got in zip(goal.args, closed):
            if type(arg) is Var:
                key.append(_type_key(ctx[arg.name], names))
                continue
            if got is None:
                return None
            key.append(id(got[0]))  # each closed type is one object for the whole search
            draws += got[1]
        return self.memo.setdefault(tuple(key), {}), list(names), draws

    def clause_info(self, clause: Clause):
        """The clause's memo key and its head arguments' closed types, read
        once per clause.  A ground fact whose arguments all have closed
        types shares its key, a tuple, with every fact of the same functor,
        types and draws; any other clause is its own key.  A head argument
        with a closed type is ground, so each renaming of the clause holds
        it as it is.
        """
        info = self.clauses.get(id(clause))
        if info is None:
            head = clause.head
            types = tuple(map(self.closed.of, head.args))
            key = id(clause)
            if not clause.body and None not in types:
                key = (head.functor, *[id(ty) for ty, _n in types], sum(n for _ty, n in types))
            info = self.clauses[id(clause)] = key, types
        return info

    def unify(self, ctx: Context, goal: Compound, closed, head: Compound, head_ctx: Context, clause, memo):
        """The verdict of a clause try and, when solved, its result.

        Without a memo (`goal_key`) this is `unify_args`, given the closed
        types of the goal's arguments (`closed`) and of the head's, and
        `solve_columns`.  With one, a miss does the same and stores its
        type phase when that does not depend on where the fresh-name
        counter stood: wrong, or a type unifier that maps the goal's type
        variables and the head's variables to types made of the goal's type
        variables alone.  A hit skips the names the miss's walk would draw,
        unifies the terms alone, and renames the stored types to this
        goal's and this renamed head's variables.  Against a ground fact
        the terms are matched (`_match_fact`); against any other clause the
        term constraints are solved.
        """
        key, head_closed = self.clause_info(clause)
        if memo is None:
            result = solve_columns(*self.unify_args(ctx, goal, head, closed, head_closed)).result
            return _VERDICT[type(result)], result
        entries, names, goal_draws = memo
        heads = [ty.name for ty in head_ctx.values()]  # the head's variables' types
        entry = entries.get(key)
        if entry is not None:
            draws, stored = entry
            self.fresh.skip(goal_draws + draws)
            if stored is None:
                return "wrong", None
            if type(key) is tuple:
                subst = _match_fact(goal.args, head.args)
            else:
                result = solve_columns(columns([], []), columns(list(goal.args), list(head.args))).result
                subst = result.subst if type(result) is Solved else None
            if subst is None:
                return "false", None
            old, types, moves = stored
            rename = {a: TVar(b) for a, b in zip(old, names) if a != b} if moves else None
            mu = {
                name: apply_type_subst(rename, ty) if rename else ty
                for name, ty in zip(names + heads, types)
                if ty is not None
            }
            return "solved", Solved(subst, mu)
        before = self.fresh.drawn
        result = solve_columns(*self.unify_args(ctx, goal, head, closed, head_closed)).result
        verdict = _VERDICT[type(result)]
        draws = self.fresh.drawn - before - goal_draws
        if verdict == "wrong":
            entries[key] = (draws, None)
        else:
            types = [result.type_subst.get(name) for name in names + heads]
            seen = {v for ty in types if ty is not None for v in free_type_vars(ty)}
            if seen <= set(names):
                entries[key] = (draws, (names, types, bool(seen)))
        return verdict, result


def _match_fact(goal_args, head_args) -> Optional[Subst]:
    """The term unifier of a goal's arguments with a ground head's, or None
    where they do not unify: a one-way match, with a stack of its own, in
    the solver's left-to-right order.  A variable binds to the head subterm
    it meets first, and a later occurrence matches its binding against the
    subterm it meets then.  Constants agree on symbol and kind, and
    compounds on functor and arity, as the solver's rules decide.  The head
    is ground, so neither orient nor occurs can arise, and the unifier is
    the one the rules give.
    """
    subst: Subst = {}
    todo = list(zip(reversed(goal_args), reversed(head_args)))
    while todo:
        pattern, term = todo.pop()
        if pattern is term:
            continue
        kind = type(pattern)
        if kind is Var:
            bound = subst.setdefault(pattern.name, term)
            if bound is not term:
                todo.append((bound, term))
        elif kind is not type(term):
            return None
        elif kind is Const:
            if (pattern.symbol, pattern.kind) != (term.symbol, term.kind):
                return None
        elif pattern.functor != term.functor or len(pattern.args) != len(term.args):
            return None
        else:
            todo += zip(reversed(pattern.args), reversed(term.args))
    return subst


def _type_key(ty: TypeExpr, names: dict[str, int]) -> tuple:
    """`ty` as a flat preorder of its nodes, each type variable numbered in
    order of first occurrence over the calls that share `names`.
    """
    out: list = []
    todo = [ty]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is TVar:
            out.append(names.setdefault(node.name, len(names)))
        elif kind is SymApp or kind is CtorApp:
            out += (kind, node.symbol if kind is SymApp else node.ctor, len(node.args))
            todo += reversed(node.args)
        else:  # base types and bool
            out.append(node)
    return tuple(out)


def resolve(
    program,
    query,
    defs: TypeDefSet,
    overrides: SignatureEnv | None = None,
    budget: ResolutionBudget = ResolutionBudget(),
) -> ResolveReport:
    """Run a query against a program.  The report carries the outcome, the
    number of unification steps attempted, and one note per attempt.
    """
    search = _Search(program, defs, overrides, budget)
    query = tuple(query)
    query_vars = dict.fromkeys(name for g in query for name in free_vars(g))
    found = search.run(query, query_vars)
    notes = search.report.branches
    if found is not None:
        bindings, var_types = found
        search.report.outcome = Yes(
            bindings, {name: var_types[name] for name in query_vars if name in var_types}
        )
    elif any(n.verdict == "wrong" for n in notes):
        search.report.outcome = NoWrong()
    elif search.budget_exceeded or {n.final for n in notes if n.verdict == "false"} != {True}:
        # a false with goals still pending, or no branch ran out of goals false
        search.report.outcome = NoUnknown(budget_exceeded=search.budget_exceeded)
    else:
        search.report.outcome = NoFalse()
    return search.report
