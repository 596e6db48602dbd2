"""Reference for typed SLD resolution: the recursive depth-first search.

Goals run left to right against the program's clauses in order.  Each
goal/head unification generates its constraints with the recursive walk
below, solves them, composes the term substitution eagerly and applies it to
every remaining goal.  The search stops at the first success; a failing one
reports wrong if any branch clashed on types, false if every branch ran to a
plain false with no goals left, and unknown otherwise.

It shares no code with `regunify.resolution` or with the package's
constraint generation, variable collection and substitution (it substitutes
with the reference solver's full walk), and reports plain tuples, so the
differential tests can hold `resolve` to it field by field.
"""

from __future__ import annotations

from regunify.constraints import ConstraintState, FreshSupply, TermConstraint, TypeConstraint
from regunify.errors import UnboundVariable
from regunify.solver import Solved, SolveFalse, SolveWrong, solve
from regunify.syntax import Compound, Const, Var
from regunify.typedefs import derive_signatures, instantiate

from reference_solver import substitute


def _term_vars(term, acc):
    if isinstance(term, Var):
        acc.setdefault(term.name)
    elif isinstance(term, Compound):
        for arg in term.args:
            _term_vars(arg, acc)
    return acc


def _free_vars(term):
    return list(_term_vars(term, {}))


def _gen_term(ctx, sig, term, fresh):
    """(type, type constraints) of a term: children first, left to right,
    then one constraint per argument against the instantiated domain.
    """
    if isinstance(term, Var):
        if term.name not in ctx:
            raise UnboundVariable(f"variable {term.name} is not in the context")
        return ctx[term.name], []
    if isinstance(term, Const):
        return instantiate(sig.lookup_constant(term), fresh), []
    ft = instantiate(sig.lookup_function(term.functor, term.arity), fresh)
    type_cs, arg_pairs = [], []
    for arg, dom_ty in zip(term.args, ft.domain):
        arg_ty, arg_cs = _gen_term(ctx, sig, arg, fresh)
        type_cs += arg_cs
        arg_pairs.append(TypeConstraint(arg_ty, dom_ty))
    return ft.codomain, type_cs + arg_pairs


def _callable_key(t):
    if isinstance(t, Const):
        return (t.symbol, 0)
    if isinstance(t, Compound):
        return (t.functor, t.arity)
    return None


def _rename(clause, fresh):
    mapping = {}
    for t in (clause.head, *clause.body):
        for name in _free_vars(t):
            if name not in mapping:
                mapping[name] = fresh.var(f"{name}_")
    return substitute(mapping, clause.head), tuple(substitute(mapping, g) for g in clause.body)


def _compose(first, second):
    out = {name: substitute(second, t) for name, t in first.items()}
    for name, t in second.items():
        out.setdefault(name, t)
    return out


class _Search:
    def __init__(self, program, defs, overrides, max_steps, max_depth):
        self.program = tuple(program)
        self.sig = derive_signatures(defs, overrides)
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.fresh = FreshSupply()
        self.steps = 0
        self.notes = []
        self.saw_wrong = False
        self.saw_nonfinal_false = False
        self.saw_final_false = False
        self.budget_exceeded = False

    def with_types(self, var_types, terms):
        ctx = dict(var_types)
        for t in terms:
            for name in _free_vars(t):
                if name not in ctx:
                    ctx[name] = self.fresh.tvar_for(name)
        return ctx

    def equation(self, ctx, lhs, rhs):
        lhs_ty, lhs_cs = _gen_term(ctx, self.sig, lhs, self.fresh)
        rhs_ty, rhs_cs = _gen_term(ctx, self.sig, rhs, self.fresh)
        types = lhs_cs + rhs_cs + [TypeConstraint(lhs_ty, rhs_ty)]
        return ConstraintState((TermConstraint(lhs, rhs),), tuple(types))

    def unify_args(self, ctx, goal, head):
        goal_ft = instantiate(self.sig.lookup_predicate(goal.functor, goal.arity), self.fresh)
        head_ft = instantiate(self.sig.lookup_predicate(head.functor, head.arity), self.fresh)
        term_cs, type_cs, goal_tys, head_tys = [], [], [], []
        for g_arg, h_arg in zip(goal.args, head.args):
            g_ty, g_cs = _gen_term(ctx, self.sig, g_arg, self.fresh)
            h_ty, h_cs = _gen_term(ctx, self.sig, h_arg, self.fresh)
            type_cs += g_cs + h_cs + [TypeConstraint(g_ty, h_ty)]
            goal_tys.append(g_ty)
            head_tys.append(h_ty)
            term_cs.append(TermConstraint(g_arg, h_arg))
        type_cs += [TypeConstraint(ty, d) for ty, d in zip(goal_tys, goal_ft.domain)]
        type_cs += [TypeConstraint(ty, d) for ty, d in zip(head_tys, head_ft.domain)]
        return ConstraintState(tuple(term_cs), tuple(type_cs))

    def note(self, depth, goal, against, verdict, final, via="clause"):
        self.notes.append((depth, goal, against, verdict, final, via))
        if verdict == "wrong":
            self.saw_wrong = True
        elif verdict == "false":
            if final:
                self.saw_final_false = True
            else:
                self.saw_nonfinal_false = True

    def run(self, goals, subst, var_types, depth):
        if not goals:
            return subst, var_types
        if depth >= self.max_depth:
            self.budget_exceeded = True
            return None
        goal, rest = goals[0], goals[1:]
        final = not rest
        if isinstance(goal, Compound) and goal.functor == "=" and goal.arity == 2:
            if self.steps >= self.max_steps:
                self.budget_exceeded = True
                return None
            self.steps += 1
            ctx = self.with_types(var_types, goal.args)
            result = solve(self.equation(ctx, *goal.args)).result
            return self.resume(result, goal, None, rest, subst, ctx, depth, final, (), "equality")
        key = _callable_key(goal)
        tried = 0
        for clause in self.program:
            if _callable_key(clause.head) != key:
                continue
            if self.steps >= self.max_steps:
                self.budget_exceeded = True
                return None
            self.steps += 1
            tried += 1
            head, body = _rename(clause, self.fresh)
            if isinstance(goal, Const):
                result, ctx = Solved({}, {}), dict(var_types)
            else:
                ctx = self.with_types(var_types, (goal, head))
                result = solve(self.unify_args(ctx, goal, head)).result
            found = self.resume(result, goal, head, rest, subst, ctx, depth, final, body)
            if found is not None:
                return found
        if tried == 0:
            self.note(depth, goal, None, "false", final, via="no_clauses")
        return None

    def resume(self, result, goal, against, rest, subst, ctx, depth, final, body, via="clause"):
        if isinstance(result, SolveWrong):
            self.note(depth, goal, against, "wrong", final, via)
            return None
        if isinstance(result, SolveFalse):
            self.note(depth, goal, against, "false", final, via)
            return None
        self.note(depth, goal, against, "solved", final, via)
        new_subst = _compose(subst, result.subst)
        new_goals = tuple(substitute(result.subst, g) for g in (*body, *rest))
        new_types = {name: substitute(result.type_subst, ty) for name, ty in ctx.items()}
        return self.run(new_goals, new_subst, new_types, depth + 1)


def reference_resolve(program, query, defs, overrides=None, max_steps=10_000, max_depth=200):
    """(outcome, steps, notes).  The outcome is `("yes", bindings, var_types)`
    with both as lists of (name, value) in query-variable order, or
    `("no_false",)`, `("no_wrong",)` or `("no_unknown", budget_exceeded)`.
    Each note is (depth, goal, against, verdict, final, via).
    """
    search = _Search(program, defs, overrides, max_steps, max_depth)
    query = tuple(query)
    query_vars = list(dict.fromkeys(name for g in query for name in _free_vars(g)))
    found = search.run(query, {}, {}, 0)
    if found is not None:
        subst, var_types = found
        outcome = (
            "yes",
            [(name, subst[name]) for name in query_vars if name in subst],
            [(name, var_types[name]) for name in query_vars if name in var_types],
        )
    elif search.saw_wrong:
        outcome = ("no_wrong",)
    elif search.budget_exceeded or search.saw_nonfinal_false or not search.saw_final_false:
        outcome = ("no_unknown", search.budget_exceeded)
    else:
        outcome = ("no_false",)
    return outcome, search.steps, search.notes
