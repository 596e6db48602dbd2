"""Typed resolution against the recursive reference search.

Both must agree on the outcome (bindings and variable types, in order), the
number of unification steps and every branch note, over hand-picked programs
and over hypothesis-generated ones: facts, recursive clauses, `=` goals,
wrong-typed arguments and exhausted budgets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regunify import (
    NIL,
    Base,
    Clause,
    Compound,
    ConstraintState,
    NoFalse,
    NoUnknown,
    NoWrong,
    ResolutionBudget,
    SymApp,
    TermConstraint,
    TypeConstraint,
    Var,
    Yes,
    free_vars,
    generic_context,
    mk_atom,
    mk_int,
    mk_string,
    parse_program,
    parse_query,
    parse_signatures,
    resolve,
    validate,
)

from regunify.resolution import BranchNote, _Search

from reference_resolution import _Search as _ReferenceSearch
from reference_resolution import reference_resolve

DEFS = validate(())
OVERRIDES = parse_signatures("p : int -> bool.\nq : list(A) * A -> bool.")


def observed(report):
    """The report in the reference's plain form."""
    o = report.outcome
    if isinstance(o, Yes):
        outcome = ("yes", list(o.bindings.items()), list(o.var_types.items()))
    elif isinstance(o, NoWrong):
        outcome = ("no_wrong",)
    elif isinstance(o, NoFalse):
        outcome = ("no_false",)
    else:
        assert isinstance(o, NoUnknown)
        outcome = ("no_unknown", o.budget_exceeded)
    notes = [(b.depth, b.goal, b.against, b.verdict, b.final, b.via) for b in report.branches]
    return outcome, report.steps, notes


def assert_same(program, query, overrides=None, max_steps=10_000, max_depth=200):
    budget = ResolutionBudget(max_steps=max_steps, max_depth=max_depth)
    try:
        got = observed(resolve(program, query, DEFS, overrides, budget))
    except Exception as e:  # both engines must fail alike
        got = ("raised", type(e).__name__, str(e))
    try:
        want = reference_resolve(program, query, DEFS, overrides, max_steps, max_depth)
    except Exception as e:
        want = ("raised", type(e).__name__, str(e))
    assert got == want
    return got


APP = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
"""
LENGTH = """
length([], 0).
length([_|T], N) :- length(T, N1), N is N1 + 1.
"""


@pytest.mark.parametrize(
    "program, query, overrides, budget",
    [
        (APP, "?- app([0, 1, 2], [9], R).", None, {}),
        (APP, "?- app(X, Y, [1, 2]).", None, {}),
        (APP, "?- app([0, 1], a, R).", None, {}),
        (APP, '?- app([0, 1], ["s"], R).', None, {}),
        (LENGTH, "?- length([a, b], 0).", "length : list(A) * int -> bool.", {}),
        (LENGTH, "?- length(3, [a, b, c]).", "length : list(A) * int -> bool.", {}),
        ("p :- p.", "?- p.", None, {"max_steps": 10}),
        ("p :- p.", "?- p.", None, {"max_depth": 5}),
        (APP, "?- app([0, 1, 2, 3, 4, 5], [9], R).", None, {"max_steps": 9}),
        ("r(X) :- r(f(X)).", "?- r(0).", None, {"max_depth": 6}),
        ("p(0). q(a).", "?- p(a), q(a).", None, {}),
        ("a(1). b(2).", "?- a(X), b(X).", None, {}),
        ("", "?- X1 = g(X0, X0), X2 = g(X1, X1), X3 = g(X2, X2).", None, {}),
        ("", "?- X = [], Y = [X | X].", None, {}),
        ("e(a, b). e(b, c). path(X, Y) :- e(X, Y). path(X, Z) :- e(X, Y), path(Y, Z).",
         "?- path(a, W).", None, {}),
    ],
)
def test_matches_reference_on_fixed_programs(program, query, overrides, budget):
    sig = parse_signatures(overrides) if overrides else None
    assert_same(parse_program(program), parse_query(query), sig, **budget)


def test_bare_variable_goal():
    # A library-built clause may hold a variable as a goal.  Bound to an atom
    # by the head, it runs as that atom in both engines.  Left unbound, it
    # stops `resolve` on its assertion; the reference has no such assertion
    # and notes `no_clauses` instead, so that case is checked on its own.
    program = [Clause(Compound("p", (Var("X"),)), (Var("X"),)), Clause(mk_atom("q"))]
    assert assert_same(program, [Compound("p", (mk_atom("q"),))])[0][0] == "yes"
    with pytest.raises(AssertionError, match="^goals are atoms by construction$"):
        resolve(program, [Compound("p", (Var("Y"),))], DEFS)


# --- the type context a derivation carries ---------------------------------------------


@pytest.mark.parametrize(
    "program, query",
    [
        # X is bound at the first step; the types of H and T, and so of X,
        # are only settled by the goals after it
        (APP, "?- X = [H|T], app(T, [1], R), H = 2."),
        (APP, "?- X = [H|T], app([a], T, R), H = b."),
        # query variables bound by `=` alone, before and after clause tries
        (APP, "?- app([1], [2], R), S = R."),
        ("p(1). q(a).", "?- X = Y, p(Y), Z = X."),
        ("p(1).", "?- X = f(Y), p(Y), X = Z."),
    ],
)
def test_context_keeps_the_types_of_query_variables(program, query):
    outcome = assert_same(parse_program(program), parse_query(query))[0]
    assert outcome[0] == "yes"
    assert outcome[2]  # every query variable bound: its type comes from the context


def test_context_holds_only_live_variables():
    # A variable bound at a step has left every goal, so the context passed on
    # drops it.  Keeping them all held about two entries per step here.
    items = ", ".join(str(i) for i in range(50))
    search = _Search(parse_program(APP), DEFS, None, ResolutionBudget(max_depth=10_000))
    found = search.run(parse_query(f"?- app([{items}], [999], R)."), {"R": Var("R")})
    assert found is not None
    _answer, var_types = found
    assert len(var_types) <= 4
    assert var_types["R"] == SymApp("list", (Base("int"),))


# --- hypothesis-generated programs -----------------------------------------------------

# Variables and integers come up most, so that many unifications get past
# the type check; the string, the atom and [] make the wrong-typed ones.
_LEAVES = st.sampled_from(
    [Var("X"), Var("Y"), Var("Z")] * 2 + [mk_int(0), mk_int(1)] * 2
    + [mk_string("a"), mk_atom("a"), NIL]
)
_TERMS = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(lambda a: Compound("f", (a,)), sub),
        st.builds(lambda a, b: Compound("g", (a, b)), sub, sub),
        st.builds(lambda a, b: Compound("cons", (a, b)), sub, sub),
    ),
    max_leaves=3,
)


@st.composite
def _atoms(draw):
    name = draw(st.sampled_from(["p", "p", "q", "s"]))
    if name == "s":
        return mk_atom("s")
    arity = 2 if name == "q" else 1
    return Compound(name, tuple(draw(_TERMS) for _ in range(arity)))


_GOALS = st.one_of(
    _atoms(),
    st.builds(lambda a, b: Compound("=", (a, b)), _TERMS, _TERMS),
)
_CLAUSES = st.builds(Clause, _atoms(), st.lists(_GOALS, max_size=3).map(tuple))


def test_matches_reference_on_random_programs():
    """Every generated case agrees, and the cases reach yes, each kind of no
    and both kinds of unknown.
    """
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(
        program=st.lists(_CLAUSES, max_size=6),
        query=st.lists(_GOALS, min_size=1, max_size=2),
        overrides=st.sampled_from([None, OVERRIDES]),
        max_steps=st.integers(1, 40),
        max_depth=st.integers(1, 8),
    )
    def check(program, query, overrides, max_steps, max_depth):
        outcome = assert_same(program, query, overrides, max_steps, max_depth)[0]
        seen.add(outcome[0] if outcome[0] != "no_unknown" else f"no_unknown:{outcome[1]}")

    check()
    assert seen >= {"yes", "no_false", "no_wrong", "no_unknown:True", "no_unknown:False"}


# --- the outcome rule and the notes ------------------------------------------------------


def _outcome_by_the_notes(notes, budget_exceeded):
    """A failed search's outcome by the rule read off every note: wrong if
    any note is; else unknown on an exhausted budget, or unless there is a
    false note and every false note is final; else false.
    """
    if any(n.verdict == "wrong" for n in notes):
        return NoWrong()
    if budget_exceeded or {n.final for n in notes if n.verdict == "false"} != {True}:
        return NoUnknown(budget_exceeded=budget_exceeded)
    return NoFalse()


def assert_rule_holds(program, query, overrides=None, max_steps=10_000, max_depth=200):
    """`resolve` reads its outcome off the two records the search keeps as
    it notes; hold that outcome to the rule over the notes, the budget flag
    read from a search of its own.  Every note is a `BranchNote`, the
    reference's note, and `branches` is one list on every read.  Returns
    the outcome, or None if both engines raise.
    """
    query = tuple(query)
    budget = ResolutionBudget(max_steps=max_steps, max_depth=max_depth)
    try:
        report = resolve(program, query, DEFS, overrides, budget)
    except Exception as e:
        with pytest.raises(type(e)):
            reference_resolve(program, query, DEFS, overrides, max_steps, max_depth)
        return None
    notes = report.branches
    assert report.branches is notes
    want = reference_resolve(program, query, DEFS, overrides, max_steps, max_depth)[2]
    assert all(type(n) is BranchNote for n in notes)
    assert notes == [BranchNote(*note) for note in want]
    search = _Search(program, DEFS, overrides, budget)
    found = search.run(query, dict.fromkeys(name for g in query for name in free_vars(g)))
    assert (found is None) == (not isinstance(report.outcome, Yes))
    if found is None:
        assert report.outcome == _outcome_by_the_notes(notes, search.budget_exceeded)
    return report.outcome


@pytest.mark.parametrize(
    "program, query, max_steps, outcome",
    [
        # a goal without clauses, with goals pending and with none
        ("p(0).", "?- q, p(0).", 10_000, NoUnknown(budget_exceeded=False)),
        ("p(0).", "?- p(0), q.", 10_000, NoFalse()),
        ("p(0).", "?- q.", 10_000, NoFalse()),
        # a wrong, then the budget runs out; the budget runs out before a wrong
        ("p(0). p(1).", "?- p(a).", 1, NoWrong()),
        ("p(0). p(1).", "?- p(1), p(a).", 2, NoUnknown(budget_exceeded=True)),
        # no step at all, so no note
        ("p(0).", "?- p(0).", 0, NoUnknown(budget_exceeded=True)),
    ],
)
def test_outcome_rule_corners(program, query, max_steps, outcome):
    assert assert_rule_holds(parse_program(program), parse_query(query), max_steps=max_steps) == outcome


def test_outcome_rule_on_random_programs():
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(
        program=st.lists(_CLAUSES, max_size=6),
        query=st.lists(_GOALS, min_size=1, max_size=2),
        overrides=st.sampled_from([None, OVERRIDES]),
        max_steps=st.integers(0, 40),
        max_depth=st.integers(1, 8),
    )
    def check(program, query, overrides, max_steps, max_depth):
        seen.add(type(assert_rule_holds(program, query, overrides, max_steps, max_depth)))

    check()
    assert seen >= {Yes, NoFalse, NoWrong, NoUnknown}


# --- the constraint state of one clause try ---------------------------------------------


@st.composite
def _goal_head_pairs(draw):
    """A goal and a head of one predicate: `p` and `q` may carry overrides, `r` never."""
    name, arity = draw(st.sampled_from([("p", 1), ("q", 2), ("r", 3)]))
    return tuple(Compound(name, tuple(draw(_TERMS) for _ in range(arity))) for _ in range(2))


@settings(max_examples=300, deadline=None)
@given(
    pair=_goal_head_pairs(),
    overrides=st.sampled_from([None, OVERRIDES]),
    start=st.integers(0, 40),
)
def test_unify_args_builds_the_reference_state(pair, overrides, start):
    """From the same point of the fresh supply, a clause try's constraints,
    their order and every fresh name match the reference's, and both supplies
    end at the same point.
    """
    goal, head = pair
    search = _Search((), DEFS, overrides, ResolutionBudget())
    reference = _ReferenceSearch((), DEFS, overrides, 10_000, 200)
    for supply in (search.fresh, reference.fresh):
        for _ in range(start):
            supply.tvar()
    ctx = generic_context((goal, head), search.fresh)
    types, terms = search.unify_args(ctx, goal, head)
    state = ConstraintState(
        tuple(map(TermConstraint, terms[0], terms[1])), tuple(map(TypeConstraint, types[0], types[1]))
    )
    assert state == reference.unify_args(ctx, goal, head)
    assert search.fresh.tvar() == reference.fresh.tvar()
