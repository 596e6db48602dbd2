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

A goal `t1 = t2` is solved by typed unification directly instead of clause
search.  `is` and other unknown predicates have no special meaning: they
simply find no matching clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

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
from .solver import Solved, SolveFalse, SolveWrong, solve
from .syntax import (
    Compound,
    Const,
    FuncType,
    Subst,
    Term,
    TypeExpr,
    apply_subst,
    apply_type_subst,
    free_vars,
)
from .typedefs import SignatureEnv, TypeDefSet, derive_signatures, instantiate


@dataclass(frozen=True)
class Clause:
    head: Term
    body: tuple[Term, ...] = ()


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
    """Copy with every variable renamed through the fresh supply."""
    mapping: Subst = {}
    for t in (clause.head, *clause.body):
        for name in free_vars(t):
            if name not in mapping:
                mapping[name] = fresh.var(f"{name}_")
    return Clause(
        apply_subst(mapping, clause.head),
        tuple(apply_subst(mapping, g) for g in clause.body),
    )


def _callable_key(t: Term):
    if isinstance(t, Const):
        return (t.symbol, 0)
    if isinstance(t, Compound):
        return (t.functor, t.arity)
    return None


def _compose(first: Subst, second: Subst) -> Subst:
    out = {name: apply_subst(second, t) for name, t in first.items()}
    for name, t in second.items():
        out.setdefault(name, t)
    return out


class _Search:
    def __init__(self, program, defs: TypeDefSet, overrides, budget: ResolutionBudget):
        self.program = tuple(program)
        self.sig = derive_signatures(defs, overrides)
        self.budget = budget
        self.fresh = FreshSupply()
        self.report = ResolveReport(outcome=NoUnknown())
        self.saw_wrong = False
        self.saw_nonfinal_false = False
        self.saw_final_false = False
        self.budget_exceeded = False

    def out_of_steps(self) -> bool:
        return self.report.steps >= self.budget.max_steps

    def unify_args(self, ctx: Context, goal: Compound, head: Compound) -> ConstraintState:
        """Argument-wise typed unification of a goal with a clause head.

        Both atoms instantiate the predicate's scheme independently, so the
        declared signature constrains the goal's arguments and the head's.
        """
        scheme = self.sig.lookup_predicate(goal.functor, goal.arity)  # the head's too
        goal_ft, head_ft = instantiate(scheme, self.fresh), instantiate(scheme, self.fresh)
        assert isinstance(goal_ft, FuncType) and isinstance(head_ft, FuncType)
        term_cs: list[TermConstraint] = []
        type_cs: list[TypeConstraint] = []
        goal_tys: list[TypeExpr] = []
        head_tys: list[TypeExpr] = []
        for g_arg, h_arg in zip(goal.args, head.args):
            g_ty, _, g_cs = gen_term(ctx, self.sig, g_arg, self.fresh)
            h_ty, _, h_cs = gen_term(ctx, self.sig, h_arg, self.fresh)
            type_cs += g_cs + h_cs + [TypeConstraint(g_ty, h_ty)]
            goal_tys.append(g_ty)
            head_tys.append(h_ty)
            term_cs.append(TermConstraint(g_arg, h_arg))
        type_cs += [TypeConstraint(ty, d) for ty, d in zip(goal_tys, goal_ft.domain)]
        type_cs += [TypeConstraint(ty, d) for ty, d in zip(head_tys, head_ft.domain)]
        return ConstraintState(tuple(term_cs), tuple(type_cs))

    def note(self, depth, goal, against, verdict, final, via="clause"):
        self.report.branches.append(BranchNote(depth, goal, against, verdict, final, via))
        if verdict == "wrong":
            self.saw_wrong = True
        elif verdict == "false":
            if final:
                self.saw_final_false = True
            else:
                self.saw_nonfinal_false = True

    def run(self, goals, subst: Subst, var_types: Context, depth: int) -> Optional[Yes]:
        if not goals:
            return Yes(subst, var_types)
        if depth >= self.budget.max_depth:
            self.budget_exceeded = True
            return None
        goal, rest = goals[0], goals[1:]
        final = not rest

        if isinstance(goal, Compound) and goal.functor == "=" and goal.arity == 2:
            if self.out_of_steps():
                self.budget_exceeded = True
                return None
            self.report.steps += 1
            ctx = generic_context(goal.args, self.fresh) | var_types
            state = gen_equation(ctx, self.sig, goal.args[0], goal.args[1], self.fresh)
            run = solve(state)
            return self.resume(
                run.result, goal, None, rest, subst, ctx, depth, final,
                body=(), via="equality",
            )

        key = _callable_key(goal)
        assert key is not None, "goals are atoms by construction"
        tried = 0
        for clause in self.program:
            if _callable_key(clause.head) != key:
                continue
            if self.out_of_steps():
                self.budget_exceeded = True
                return None
            self.report.steps += 1
            tried += 1
            renamed = rename_clause(clause, self.fresh)
            if isinstance(goal, Const):
                found = self.resume(
                    Solved({}, {}), goal, renamed.head, rest, subst, dict(var_types),
                    depth, final, body=renamed.body,
                )
            else:
                ctx = generic_context((goal, renamed.head), self.fresh) | var_types
                state = self.unify_args(ctx, goal, renamed.head)
                run = solve(state)
                found = self.resume(
                    run.result, goal, renamed.head, rest, subst, ctx, depth, final,
                    body=renamed.body,
                )
            if found is not None:
                return found
        if tried == 0:
            # no candidate clauses at all: the branch fails plainly
            self.note(depth, goal, None, "false", final, via="no_clauses")
        return None

    def resume(self, result, goal, against, rest, subst, ctx, depth, final, body, via="clause"):
        if isinstance(result, SolveWrong):
            self.note(depth, goal, against, "wrong", final, via)
            return None
        if isinstance(result, SolveFalse):
            self.note(depth, goal, against, "false", final, via)
            return None
        assert isinstance(result, Solved)
        self.note(depth, goal, against, "solved", final, via)
        new_subst = _compose(subst, result.subst)
        new_goals = tuple(apply_subst(result.subst, g) for g in (*body, *rest))
        new_types = {
            name: apply_type_subst(result.type_subst, ty) for name, ty in ctx.items()
        }
        return self.run(new_goals, new_subst, new_types, depth + 1)


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
    query_vars = [name for g in query for name in free_vars(g)]
    found = search.run(query, {}, {}, 0)
    if found is not None:
        bindings = {name: found.bindings[name] for name in query_vars if name in found.bindings}
        var_types = {
            name: found.var_types[name] for name in query_vars if name in found.var_types
        }
        search.report.outcome = Yes(bindings, var_types)
    elif search.saw_wrong:
        search.report.outcome = NoWrong()
    elif search.budget_exceeded or search.saw_nonfinal_false or not search.saw_final_false:
        search.report.outcome = NoUnknown(budget_exceeded=search.budget_exceeded)
    else:
        search.report.outcome = NoFalse()
    return search.report
