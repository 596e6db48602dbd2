"""Ground nodes end the walks that look for variables.

Every term and type node knows whether a variable occurs in it
(`syntax.is_ground`, filled once per node), and the walks that look for
variables stop at a ground node: the solver's occurrence counts, the store
reader behind its unifiers, witnesses and traced states, substitution and
`free_vars`.  None of that may show: the solver must still give the
reference engine's steps, trace, witness and unifiers on states with large
and shared ground sides, resolution the reference search's outcome, raw
names, steps, notes and fresh-name position on queries whose pending goals
hold large ground lists, and the rewrite budget must still be sized by the
whole trees.  The last test counts the work itself: what the walks do per
`app` step must not grow with the list.
"""

import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regunify import (
    NIL,
    Base,
    BudgetExceeded,
    Compound,
    ConstraintState,
    CtorApp,
    ResolutionBudget,
    Solved,
    SolveWrong,
    SymApp,
    TermConstraint,
    TVar,
    TypeConstraint,
    Var,
    Yes,
    apply_subst,
    free_vars,
    mk_atom,
    mk_int,
    mk_list,
    parse_program,
    resolve,
    validate,
)
from regunify import solver, syntax
from regunify.solver import columns, solve_columns

from reference_solver import reference_solve
from test_resolution_memo import agree
from test_solver_differential import assert_same

DEFS = validate(())
APP = "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n"


def _has_var(node) -> bool:
    """Whether a variable occurs in `node`: a plain walk of every node."""
    stack = [node]
    while stack:
        node = stack.pop()
        if type(node) in (Var, TVar):
            return True
        stack.extend(getattr(node, "args", ()))
    return False


def _nodes(node):
    """Every node of `node`, once per path."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(getattr(node, "args", ()))


# --- the groundness fact --------------------------------------------------------------

_INTS = st.integers(0, 3).map(mk_int)
_LEAVES = st.one_of(_INTS, st.just(NIL), st.sampled_from(["X", "Y"]).map(Var))


def _shared(inner):
    # one object in two places, so a fill meets a node it has filled
    return st.one_of(
        st.tuples(inner, inner).map(lambda p: Compound("g", p)),
        inner.map(lambda t: Compound("g", (t, t))),
        st.tuples(inner, inner).map(lambda p: Compound("cons", p)),
    )


_ANY_TERMS = st.recursive(_LEAVES, _shared, max_leaves=12)
_ANY_TYPES = st.recursive(
    st.one_of(st.sampled_from(["A", "B"]).map(TVar), st.just(Base("int")), st.just(CtorApp("nil", ()))),
    lambda inner: st.one_of(
        inner.map(lambda t: SymApp("list", (t,))),
        st.tuples(inner, inner).map(lambda p: CtorApp("pair", p)),
        inner.map(lambda t: SymApp("pair", (t, t))),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ANY_TERMS, _ANY_TYPES))
def test_groundness_is_what_a_plain_walk_finds(node):
    assert syntax.is_ground(node) is not _has_var(node)
    # the fill leaves every node below it known, and right
    for sub in _nodes(node):
        assert sub.ground is not None
        assert sub.ground is not _has_var(sub)


def test_groundness_answers_at_any_depth():
    deep = mk_list([mk_int(i) for i in range(100_000)])
    assert syntax.is_ground(deep)
    open_deep = mk_list([mk_int(i) for i in range(100_000)], Var("T"))
    assert not syntax.is_ground(open_deep)
    assert syntax.is_ground(open_deep.args[0]) and not syntax.is_ground(open_deep.args[1])


def test_walks_keep_ground_nodes_and_still_find_variables():
    ground = mk_list([mk_int(i) for i in range(50)])
    term = Compound("f", (Var("X"), ground, Compound("g", (ground, Var("Y")))))
    assert free_vars(term) == ["X", "Y"]
    assert free_vars(ground) == []
    image = apply_subst({"X": mk_int(1), "Y": ground}, term)
    assert image.args[1] is ground and image.args[2].args[0] is ground
    assert image.args[2].args[1] is ground
    assert apply_subst({"X": mk_int(1)}, ground) is ground
    store = {"X": ground, "Y": Var("X")}
    got = syntax.resolve_store(store, term, {}, Var, syntax.rebuild_term)
    assert got == Compound("f", (ground, ground, Compound("g", (ground, ground))))
    assert got.args[0] is ground and got.args[2].args[1] is ground
    assert syntax.resolve_store(store, ground, {}, Var, syntax.rebuild_term) is ground
    assert syntax.tree_counts([term])[0] == {"X": 1, "Y": 1}


# --- the solver, against the reference, on large and shared ground sides -------------------


@st.composite
def _ground_pool(draw):
    """A few ground terms, some large, each later one maybe built over an
    earlier one, so that one object sits in several places.
    """
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        items = draw(st.lists(_INTS, max_size=40))
        shape = draw(st.sampled_from(["list", "tail", "wrap"]))
        if shape == "list" or not pool:
            pool.append(mk_list(items))
        elif shape == "tail":
            pool.append(mk_list(items, draw(st.sampled_from(pool))))
        else:
            pool.append(Compound("g", (draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))))
    return pool


_GROUND_TYPES = [
    Base("int"),
    SymApp("list", (SymApp("list", (Base("int"),)),)),
    SymApp("pair", (SymApp("list", (Base("int"),)), SymApp("list", (Base("int"),)))),
]


def _nest(n, ty):
    for _ in range(n):
        ty = SymApp("list", (ty,))
    return ty


@st.composite
def _ground_states(draw):
    """(type pairs, term pairs, the pairs `V = G` whose variable occurs
    nowhere else): ground sides large and shared, some against terms that
    hold them, some against near copies, some alone against a variable.
    """
    pool = draw(_ground_pool())
    grounds = st.sampled_from(pool)
    terms = st.recursive(
        st.one_of(_LEAVES, st.sampled_from(["Z", "U"]).map(Var), grounds),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: Compound("cons", p)),
            st.tuples(inner, inner).map(lambda p: Compound("g", p)),
        ),
        max_leaves=5,
    )
    sides = st.one_of(terms, grounds, st.sampled_from(["X", "Y", "Z"]).map(Var))
    term_pairs = draw(st.lists(st.tuples(sides, sides), max_size=4))
    deep_types = [_nest(draw(st.integers(0, 30)), Base("int")) for _ in range(2)]
    ground_types = st.sampled_from(_GROUND_TYPES + deep_types)
    types = st.recursive(
        st.one_of(st.sampled_from(["A", "B", "C"]).map(TVar), ground_types),
        lambda inner: st.one_of(
            inner.map(lambda t: SymApp("list", (t,))),
            st.tuples(inner, inner).map(lambda p: SymApp("pair", p)),
        ),
        max_leaves=4,
    )
    type_pairs = draw(st.lists(st.tuples(types, types), max_size=3))
    alone = []
    for i in range(draw(st.integers(0, 2))):
        alone.append((Var(f"V{i}"), draw(grounds)))
        if draw(st.booleans()):
            alone.append((TVar(f"W{i}"), draw(ground_types)))
    spots = draw(st.lists(st.integers(0, 10), min_size=len(alone), max_size=len(alone)))
    for pair, spot in zip(alone, spots):
        side = term_pairs if type(pair[0]) is Var else type_pairs
        side.insert(spot % (len(side) + 1), pair if draw(st.booleans()) else pair[::-1])
    return type_pairs, term_pairs, alone


def _solve_both(type_pairs, term_pairs):
    """`solve_columns` of the pairs, traced and not, each held to the reference."""
    state = ConstraintState(
        tuple(TermConstraint(a, b) for a, b in term_pairs),
        tuple(TypeConstraint(a, b) for a, b in type_pairs),
    )
    runs = []
    for trace in (True, False):
        run = solve_columns(
            columns([a for a, _ in type_pairs], [b for _, b in type_pairs]),
            columns([a for a, _ in term_pairs], [b for _, b in term_pairs]),
            trace,
        )
        assert_same(state, trace, run)
        runs.append(run)
    return runs


_FORTY = mk_list([mk_int(i) for i in range(40)])
_DEEP_TYPE = _nest(30, Base("int"))


@settings(max_examples=200, deadline=None)
@given(_ground_states())
@example(([], [(_FORTY, Var("V0"))], [(Var("V0"), _FORTY)]))
@example(([], [(Var("Y"), Compound("cons", (_FORTY, Var("X")))), (Var("X"), mk_int(2))], []))
@example(([], [(Var("Z"), Compound("g", (_FORTY, Var("Z"))))], []))
@example(([(_DEEP_TYPE, TVar("W0"))], [], [(TVar("W0"), _DEEP_TYPE)]))
def test_ground_sides_match_reference(case):
    type_pairs, term_pairs, alone = case
    for run in _solve_both(type_pairs, term_pairs):
        # a variable bound to a ground side alone gets that very object back
        result = run.result
        for var, value in alone:
            if type(var) is Var and isinstance(result, Solved):
                assert result.subst[var.name] is value
            elif type(var) is TVar and not isinstance(result, SolveWrong):
                assert result.type_subst[var.name] is value


def test_one_ground_list_bound_many_times_stays_one_object():
    ground = mk_list([mk_int(i) for i in range(200)])
    lhs = Compound("f", tuple(Var(f"X{i}") for i in range(6)))
    rhs = Compound("f", (ground, Var("X0"), Var("X1"), Var("X2"), Var("X3"), Var("X4")))
    for run in _solve_both([], [(lhs, rhs)]):
        assert all(value is ground for value in run.result.subst.values())


# --- the rewrite budget is sized by the whole trees ------------------------------------------


def _long_pair(n):
    """[c1..cn] = [X1..Xn]: decompose, then orient, at every element.  The
    ground side is known to be ground, as resolution leaves a goal's
    arguments, so a walk that stops at ground nodes would stop there.
    """
    ground = mk_list([mk_atom(f"c{i}") for i in range(1, n + 1)])
    assert syntax.is_ground(ground)
    return ground, mk_list([Var(f"X{i}") for i in range(1, n + 1)])


def test_a_budget_past_the_cheap_bound_is_sized_by_the_whole_trees():
    # one term constraint and no type constraint: the cheap bound is
    # 2**2 * 64 = 256 steps, and this state takes 401, so the bound is then
    # read off the walked size, ground side included
    lhs, rhs = _long_pair(200)
    for left, right in (lhs, rhs), (rhs, lhs):  # the other way round, 201 steps
        run = solve_columns(columns([], []), columns([left], [right]))
        ref = reference_solve(ConstraintState((TermConstraint(left, right),), ()))
        assert run.steps == ref.steps == (401 if left is lhs else 201)
        assert list(run.result.subst.items()) == list(ref.subst.items())
    assert syntax.tree_counts([lhs, rhs])[1] == 2 * (2 * 200 + 1)


def test_a_ground_side_counts_in_full_toward_the_budget(monkeypatch):
    # with this factor the whole trees (802 nodes) allow 1 286 steps and a
    # ground side counted as one node (402 in all) would allow 323; the run
    # takes 401, so it passes only if the ground side counts in full
    lhs, rhs = _long_pair(200)
    monkeypatch.setattr(solver, "BUDGET_FACTOR", 0.002)
    assert solve_columns(columns([], []), columns([lhs], [rhs])).steps == 401
    monkeypatch.setattr(solver, "BUDGET_FACTOR", 0.0005)  # 321 steps for the whole trees
    with pytest.raises(BudgetExceeded):
        solve_columns(columns([], []), columns([lhs], [rhs]))


# --- resolution, against the reference, with large ground lists pending ----------------------

_PROGRAM = parse_program(APP + "same(X, X).\nfirst([H|_], H).\nint_of(N) :- N = 0.\n")


@st.composite
def _pending_queries(draw):
    """A query whose later goals hold large ground lists while its first
    goals run: lists of ints or atoms, shared tails, lists of lists, an
    ill-typed list and `[]`, against `app`, `same`, `first` and `=`.
    """
    pool = [NIL, mk_list([mk_int(1), mk_atom("a")])]
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 40))
        items = [mk_int(i) for i in range(n)] if draw(st.booleans()) else [mk_atom(f"a{i % 3}") for i in range(n)]
        pool.append(mk_list(items, draw(st.sampled_from(pool)) if draw(st.booleans()) else NIL))
    pool.append(mk_list(pool[-2:]))
    grounds = st.sampled_from(pool)
    names = st.sampled_from(["V", "W", "R"]).map(Var)
    either = st.one_of(grounds, names)
    goal = st.one_of(
        st.tuples(either, either, either).map(lambda a: Compound("app", a)),
        st.tuples(either, either).map(lambda a: Compound("same", a)),
        st.tuples(either, either).map(lambda a: Compound("first", a)),
        st.tuples(either, either).map(lambda a: Compound("=", a)),
        names.map(lambda v: Compound("int_of", (v,))),
    )
    return draw(st.lists(goal, min_size=1, max_size=4))


_LONG_PENDING = [
    Compound("app", (mk_list([mk_int(1), mk_int(2)]), Var("V"), Var("R"))),
    Compound("same", (Var("V"), mk_list([mk_int(i) for i in range(40)]))),
    Compound("app", (Var("R"), Var("W"), mk_list([mk_int(i) for i in range(1, 44)]))),
]


def test_pending_ground_lists_match_reference():
    """Every generated case agrees, and the cases reach yes, false, wrong
    and an exhausted budget.
    """
    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(
        query=_pending_queries(),
        # `app` over unbound arguments never ends, and the reference composes
        # every binding at every step, so the budget stays small
        max_steps=st.integers(1, 150),
        max_depth=st.integers(1, 60),
    )
    @example(query=_LONG_PENDING, max_steps=300, max_depth=200)
    @example(query=[Compound("same", (_FORTY, mk_list([mk_int(i) for i in range(41)])))], max_steps=300, max_depth=200)
    def check(query, max_steps, max_depth):
        outcome = agree(_PROGRAM, query, None, DEFS, max_steps, max_depth)[0]
        seen.add(outcome[0] if outcome[0] != "no_unknown" else f"no_unknown:{outcome[1]}")

    check()
    assert seen >= {"yes", "no_false", "no_wrong", "no_unknown:True"}


def test_a_long_answer_keeps_the_ground_tail_it_was_given():
    given = mk_list([mk_int(i) for i in range(300)])
    tail = mk_list([mk_int(9)] * 300)
    query = (Compound("app", (given, tail, Var("R"))), Compound("same", (Var("S"), given)))
    budget = ResolutionBudget(max_steps=20_000, max_depth=10_000)
    report = resolve(parse_program(APP + "same(X, X).\n"), query, DEFS, None, budget)
    assert isinstance(report.outcome, Yes) and report.steps == 2 * 300 + 2
    answer = report.outcome.bindings["R"]
    for _ in range(300):
        answer = answer.args[1]
    assert answer is tail
    assert report.outcome.bindings["S"] is given


# --- the work of an `app` step does not grow with the list -------------------------------------


def _walks():
    """The code of the functions that walk terms for the solver's census,
    its unifier and witnesses, substitution, `free_vars` and groundness.
    """
    found = [
        getattr(syntax, name, None)
        for name in ("tree_counts", "var_counts", "_path_counts", "resolve_store",
                     "_substitute", "free_vars", "is_ground")
    ]
    found += [getattr(solver._Phase, name) for name in ("_census", "_counts_under", "unifier", "constraint")]
    return {f.__code__ for f in found if f is not None}


def _lines_walked(run) -> int:
    """The lines the walks execute while `run()` runs: a count that grows
    with the nodes they visit and does not depend on the host's speed.
    """
    codes = _walks()
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code in codes else None

    old = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(old)
    return count


def test_the_walks_of_an_app_step_do_not_grow_with_the_list():
    # per step, at n = 100, 200 and 400: quadratic walks would double each
    # time; the fill of the query's list, once, is about four lines a step
    program = parse_program(APP)
    budget = ResolutionBudget(max_steps=20_000, max_depth=10_000)
    per_step = []
    for n in (100, 200, 400):
        query = (Compound("app", (mk_list([mk_int(i) for i in range(n)]), mk_list([mk_int(9)]), Var("R"))),)
        reports = []
        lines = _lines_walked(lambda: reports.append(resolve(program, query, DEFS, None, budget)))
        assert reports[0].steps == 2 * n + 1
        per_step.append(lines / reports[0].steps)
    assert per_step[1] <= 1.05 * per_step[0], per_step
    assert per_step[2] <= 1.05 * per_step[1], per_step
