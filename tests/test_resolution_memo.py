"""The memo of clause tries' type phases, against the reference search.

`resolve` replays a clause try's type phase from a memo when it has met the
same clause and the same goal argument types before (see the `resolution`
module docstring).  A replay must leave no trace: every outcome, raw fresh
name, step count, branch note and the final position of the fresh-name
supply must be what the reference search, which types every try from
scratch, gives.  The first tests pin the cases a memo could merge wrongly;
the later ones check that the fast paths are taken at all: the memo's, and
those that keep a try's cost to what it changes (clause templates, the
answer trail, goal contexts that skip ground arguments, and no solver
phase for an empty constraint set).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regunify import (
    NIL,
    Base,
    Clause,
    Compound,
    FreshSupply,
    RegunifyError,
    ResolutionBudget,
    SolveWrong,
    SymApp,
    TVar,
    Var,
    Yes,
    derive_signatures,
    free_type_vars,
    free_vars,
    mk_atom,
    mk_int,
    mk_list,
    mk_string,
    parse_program,
    parse_query,
    parse_signatures,
    parse_typedefs,
    principal_typing,
    resolve,
    validate,
)
from regunify import constraints, resolution, solver
from regunify.constraints import ClosedTypes, GenericContext, gen_columns
from regunify.resolution import _Search

from reference_resolution import _Search as _ReferenceSearch
from reference_resolution import reference_resolve
from test_resolution_differential import observed

DEFS = validate(())
TRI = validate(parse_typedefs("tri(A) --> nil3 + t3(A, A, A)."))
INT_LIST = SymApp("list", (Base("int"),))


def _search(program, overrides=None, defs=DEFS, max_steps=10_000, max_depth=200):
    return _Search(program, defs, overrides, ResolutionBudget(max_steps, max_depth))


def _counting(search):
    """The goals of the search's `unify_args` calls, the walk a replay skips."""
    goals = []
    walk = search.unify_args

    def unify_args(ctx, goal, head, *closed):
        goals.append(goal)
        return walk(ctx, goal, head, *closed)

    search.unify_args = unify_args
    return goals


def _walks(monkeypatch):
    """The nodes `free_vars` walks from the search's modules from now on."""
    walked = []
    walk = constraints.free_vars

    def free_vars(node):
        walked.append(node)
        return walk(node)

    monkeypatch.setattr(resolution, "free_vars", free_vars)
    monkeypatch.setattr(constraints, "free_vars", free_vars)
    return walked


def _phases(monkeypatch):
    """The solver phases built from now on, one entry each."""
    built = []

    class Counted(solver._Phase):
        def __init__(self, columns, family):
            built.append(family)
            super().__init__(columns, family)

    monkeypatch.setattr(solver, "_Phase", Counted)
    return built


def _query_vars(query):
    return {name: Var(name) for goal in query for name in free_vars(goal)}


def agree(program, query, overrides=None, defs=DEFS, max_steps=10_000, max_depth=200):
    """Hold `resolve` to the reference: outcome with raw names, steps, every
    branch note, and where each engine's fresh-name supply ends.  Both may
    raise, alike.  Returns the reference's (outcome, steps, notes).
    """
    query = tuple(query)
    budget = ResolutionBudget(max_steps, max_depth)
    got, want = [], []
    for out, run in (
        (got, lambda: observed(resolve(program, query, defs, overrides, budget))),
        (want, lambda: reference_resolve(program, query, defs, overrides, max_steps, max_depth)),
    ):
        try:
            out.append(run())
        except Exception as e:
            out.append(("raised", type(e).__name__, str(e)))
    assert got == want
    search = _search(program, overrides, defs, max_steps, max_depth)
    reference = _ReferenceSearch(program, defs, overrides, max_steps, max_depth)
    if want[0][0] != "raised":
        search.run(query, _query_vars(query))
        reference.run(query, {}, {}, 0)
        assert search.fresh.drawn == reference.fresh.drawn
    return want[0]


# --- cases the memo must not merge --------------------------------------------------


def test_each_open_constant_keeps_its_own_type():
    # the two []s of one goal have unrelated types; keyed as one type, the
    # second would take the first's list(int) and clash with list(string)
    sig = parse_signatures("p : list(int) * list(string) -> bool.")
    program = parse_program("p([], []). p([], []).")
    for query in ("?- p([], []).", "?- p([], []), p([], []), p([], [])."):
        assert agree(program, parse_query(query), sig)[0][0] == "yes"


@pytest.mark.parametrize(
    "program, query, defs",
    [
        ("q([], 1). q([], 2). q([], 3).", "?- q(X, 3).", DEFS),
        ("q([], 1). q([], 2).", "?- q(X, 2), q(Y, 1), q(Z, 2).", DEFS),
        ("r(nil3). r(t3(1, 1, 1)). r(nil3).", "?- r(X), r(Y), r(t3(1, 1, 1)).", TRI),
        ("r(nil3). s(t3(nil3, nil3, nil3)).", "?- r(X), s(Y), s(t3(X, X, Z)).", TRI),
    ],
)
def test_open_constants_give_the_reference_fresh_names(program, query, defs):
    # a fact whose argument has an open type is its own clause key, and the
    # fresh names of its instance reach the answer's types
    outcome = agree(parse_program(program), parse_query(query), None, defs)[0]
    assert outcome[0] == "yes"
    assert any(free_type_vars(ty) for _name, ty in outcome[2])


@pytest.mark.parametrize(
    "program",
    [
        # the stored type phase binds T itself
        "q(Y, Z, a). q(Y, Z, b). s([1]) :- u. u.",
        # it binds the head's L to list(T), with T renamed to this goal's
        # type variable, and the body binds T
        "q(Y, Z, a). q(Y, Z, b). s(L) :- t(L). t([1]).",
    ],
)
def test_a_replay_updates_every_live_variable_sharing_a_type_variable(program):
    # q gives X the type list(T) and W the type T, and s(X) leads to T = int.
    # After `M = b` fails, the search backtracks into q's second clause and
    # meets s(X) again under fresh names, so that try replays the first, and
    # W's type must become int through the replay.
    sig = parse_signatures("q : list(A) * A * atom -> bool.")
    program = parse_program(program)
    query = parse_query("?- q(X, W, M), s(X), M = b.")
    outcome = agree(program, query, sig)[0]
    assert outcome[2] == [("X", INT_LIST), ("W", Base("int")), ("M", Base("atom"))]
    search = _search(program, sig)
    goals = _counting(search)
    assert search.run(query, _query_vars(query)) is not None
    assert [g.functor for g in goals].count("s") == 1


# --- random programs --------------------------------------------------------------------

# Ground arguments with closed types, open ones ([] and lists of []) and none
# (a list of an int and an atom); arguments with variables, which a rule's
# head and body share.  Facts draw most arguments from a few small terms, so
# that many share a clause key, and goals hold many variables, so that many
# share a goal key.
_GROUND = st.recursive(
    st.sampled_from([mk_int(0), mk_int(1), mk_string("a"), mk_atom("a"), mk_atom("b"), NIL]),
    lambda sub: st.one_of(
        st.builds(lambda a, b: Compound("cons", (a, b)), sub, sub),
        st.builds(lambda a: Compound("f", (a,)), sub),
    ),
    max_leaves=3,
)
_SMALL = st.sampled_from(
    [mk_int(0), mk_int(1), mk_atom("a"), mk_atom("b"), NIL, mk_list([mk_int(0)]), mk_list([mk_int(1)])]
)
_VARS = st.sampled_from([Var("X"), Var("Y"), Var("Z")])
_OPEN = st.recursive(
    st.one_of(_VARS, _SMALL),
    lambda sub: st.builds(lambda a, b: Compound("cons", (a, b)), sub, sub),
    max_leaves=3,
)
_FACT_ARGS = st.one_of(_SMALL, _SMALL, _SMALL, _GROUND)
_TERMS = st.one_of(_VARS, _VARS, _SMALL, _SMALL, _OPEN, _GROUND)
# Polymorphic and plain predicates; a function whose codomain forgets its
# argument's type; an atom made polymorphic, and one made an int.
_OVERRIDES = [
    None,
    parse_signatures("p : list(A) -> bool.\nq : list(A) * A -> bool."),
    parse_signatures("q : A * A -> bool.\nr : A * list(A) -> bool.\nf : A -> int."),
    parse_signatures("p : int -> bool.\nr : list(int) * list(string) -> bool.\nb : list(A).\na : int."),
]


def _atoms(predicates, args):
    @st.composite
    def build(draw):
        name, arity = draw(st.sampled_from(predicates))
        return Compound(name, tuple(draw(args) for _ in range(arity)))

    return build()


_FACTS = st.builds(Clause, _atoms([("p", 1), ("q", 2)], _FACT_ARGS))
_GOALS = _atoms([("p", 1), ("q", 2), ("r", 2)], _TERMS)
_RULES = st.builds(Clause, _atoms([("r", 2)], _TERMS), st.lists(_GOALS, min_size=1, max_size=3).map(tuple))


@st.composite
def _programs(draw):
    """Facts of p and q, rules of r over all three, and a query that repeats
    its goals.
    """
    program = draw(st.lists(_FACTS, min_size=8, max_size=24)) + draw(st.lists(_RULES, max_size=3))
    goals = draw(st.lists(_GOALS, min_size=1, max_size=3))
    return draw(st.permutations(program)), goals * draw(st.integers(1, 3))


_CASES = dict(
    case=_programs(),
    overrides=st.sampled_from(_OVERRIDES),
    max_steps=st.one_of(st.integers(1, 80), st.just(80)),
    max_depth=st.one_of(st.integers(1, 8), st.just(8)),
)


@settings(max_examples=300, deadline=None)
@given(**_CASES)
def test_matches_reference_on_fact_dense_programs(case, overrides, max_steps, max_depth):
    program, query = case
    agree(program, query, overrides, DEFS, max_steps, max_depth)


def test_the_memo_replays_tries_in_many_fact_dense_programs():
    """The cases above exercise the memo: in a tenth of them at least, the
    search makes more clause tries than it walks.  The share is a statistic
    of the draw, which random draws put below a tenth now and then, so the
    draw is fixed here.
    """
    replayed = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(**_CASES)
    def count(case, overrides, max_steps, max_depth):
        program, query = case
        search = _search(program, overrides, DEFS, max_steps, max_depth)
        goals = _counting(search)
        try:
            search.run(tuple(query), _query_vars(query))
        except RegunifyError:  # an ill-typed query, which the reference rejects too
            return
        tries = sum(1 for b in search.report.branches if b.via == "clause")
        replayed.append(tries > len(goals))

    count()
    assert sum(replayed) >= len(replayed) // 10


# --- `=` goals -----------------------------------------------------------------------

# Sides with closed types (ground lists, f(...) of them), open ones ([] and
# lists of []), none (a list of an int and an atom) and variables, against
# one another, before, between and after clause goals.  Most sides are lists
# of ints and variables, so that many equations hold or fail plainly rather
# than on types.
_INT_SIDES = st.recursive(
    st.sampled_from([mk_int(0), mk_int(1), NIL, Var("X"), Var("Y"), Var("Z")]),
    lambda sub: st.one_of(
        st.builds(lambda a, b: Compound("cons", (a, b)), sub, sub),
        st.builds(lambda items: mk_list(items), st.lists(sub, max_size=4)),
    ),
    max_leaves=6,
)
_SIDES = st.one_of(_INT_SIDES, _INT_SIDES, _TERMS)
_EQUATIONS = st.builds(lambda a, b: Compound("=", (a, b)), _SIDES, _SIDES)


@settings(max_examples=300, deadline=None)
@given(
    case=_programs(),
    keep=st.booleans(),
    equations=st.lists(_EQUATIONS, min_size=1, max_size=4),
    where=st.lists(st.integers(0, 6), min_size=4, max_size=4),
    overrides=st.sampled_from(_OVERRIDES),
    max_steps=st.one_of(st.integers(1, 80), st.just(80)),
)
def test_equations_type_their_sides_as_the_reference_does(case, keep, equations, where, overrides, max_steps):
    program, query = case
    query = list(query) if keep else []
    for equation, at in zip(equations, where):
        query.insert(min(at, len(query)), equation)
    agree(program, query, overrides, DEFS, max_steps, 8)


def test_a_ground_side_of_an_equation_is_not_walked(monkeypatch):
    # a side with a closed type adds its type, as a clause try's argument
    # does; only a side without one is typed by the walk
    walked = []
    walk = resolution.gen_columns

    def gen_columns(ctx, sig, term, *rest):
        walked.append(term)
        return walk(ctx, sig, term, *rest)

    monkeypatch.setattr(resolution, "gen_columns", gen_columns)
    items = mk_list([mk_int(i) for i in range(50)])
    for text, other, want in (
        ("p(L).", mk_list([mk_int(i) for i in range(50)]), "yes"),
        ("p(L).", mk_list([mk_int(7)]), "no_false"),
        ("p(L).", mk_list([mk_atom("a")]), "no_wrong"),
        ("p([a]).", items, "no_wrong"),
    ):
        query = (
            Compound("=", (Var("X"), items)),
            Compound("p", (Var("X"),)),
            Compound("=", (Var("X"), other)),
        )
        walked.clear()
        assert agree(parse_program(text), query)[0][0] == want
        assert walked and all(t is not items and t is not other for t in walked)


# --- the fast path is taken -----------------------------------------------------------


def test_a_path_scan_replays_its_fact_tries(monkeypatch):
    edges = [(f"n{i}", f"n{j}") for i in range(30) for j in (i + 1, i + 2) if j < 30]
    text = "".join(f"edge({a}, {b}).\n" for a, b in edges)
    text += "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).\n"
    program, query = parse_program(text), parse_query("?- path(n0, nowhere).")
    outcome, steps, _notes = agree(program, query, max_steps=2_000)
    assert (outcome, steps) == (("no_unknown", True), 2_000)
    program = parse_program(text)  # clauses whose templates were not read yet
    search = _search(program, max_steps=2_000)
    goals = _counting(search)
    walked, built = _walks(monkeypatch), _phases(monkeypatch)
    assert search.run(query, {}) is None
    # of 2 000 tries, one walk for the edge facts under each goal shape, and
    # one for each path clause under each
    assert len(goals) <= 10
    # a replay against an edge fact matches its terms, in no solver phase;
    # one against a path clause solves its term constraints alone, in one
    # phase; each walk (no try here is wrong) builds the type phase and the
    # term phase
    notes = search.report.branches
    assert {b.verdict for b in notes} == {"solved", "false"}
    path_tries = sum(1 for b in notes if b.against.functor == "path")
    path_walks = sum(1 for g in goals if g.functor == "path")
    assert 2_000 - path_tries > 1_900 and path_tries > path_walks
    assert len(built) == (path_tries - path_walks) + 2 * len(goals)
    # no try walks a clause to rename it or to type its head: each clause's
    # template is read once, at its first renaming
    parts = {id(t) for clause in program for t in (clause.head, *clause.body)}
    clause_walks = [id(t) for t in walked if id(t) in parts]
    assert len(clause_walks) == len(set(clause_walks)) > 0


def test_app_types_its_ground_list_once(monkeypatch):
    program = parse_program("app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n")
    items = [mk_int(i) for i in range(60)]
    query = (Compound("app", (mk_list(items), mk_list([mk_int(9)]), Var("R"))),)
    outcome = agree(program, query)[0]
    assert outcome == ("yes", [("R", mk_list(items + [mk_int(9)]))], [("R", INT_LIST)])
    program = parse_program("app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n")
    search = _search(program)
    goals = _counting(search)
    walked = _walks(monkeypatch)
    assert search.run(query, {"R": Var("R")}) is not None
    assert len(search.report.branches) == 2 * 60 + 1
    assert len(goals) <= 6  # the first steps, until the goal's types repeat
    # a goal's list argument has a closed type, which proves it ground, so
    # no goal context walks it; what is walked is each clause's parts, once,
    # for its template
    parts = [id(t) for clause in program for t in (clause.head, *clause.body)]
    assert sorted(map(id, walked)) == sorted(parts)


def test_app_answers_over_5000_elements():
    # 10 001 steps, and an answer list as deep: the steps link their
    # unifiers in a trail, composed once, at the answer, with a stack of
    # its own
    program = parse_program("app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n")
    given = mk_list([mk_int(i) for i in range(5_000)])
    query = (Compound("app", (given, mk_list([mk_int(9)]), Var("R"))),)
    report = resolve(program, query, DEFS, None, ResolutionBudget(max_steps=20_000, max_depth=10_000))
    assert isinstance(report.outcome, Yes) and report.steps == 2 * 5_000 + 1
    assert list(report.outcome.bindings) == ["R"]
    assert report.outcome.var_types == {"R": INT_LIST}
    items, rest = [], report.outcome.bindings["R"]
    while rest != NIL:  # walked here: `==` on a 5 001-deep list recurses too far
        items.append(rest.args[0])
        rest = rest.args[1]
    assert items == [mk_int(i) for i in [*range(5_000), 9]]


# --- closed types -------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(term=_GROUND, overrides=st.sampled_from(_OVERRIDES))
def test_closed_types_are_principal_and_draw_what_gen_columns_draws(term, overrides):
    sig = derive_signatures(DEFS, overrides)
    got = ClosedTypes(sig).of(term)
    fresh = FreshSupply()
    gen_columns(GenericContext(), sig, term, fresh, [], [])
    typing = principal_typing(term, DEFS, overrides)
    if got is not None:
        assert got == (typing.type, fresh.drawn)
    elif not isinstance(typing, SolveWrong) and not free_type_vars(typing.type):
        # closed, but through a constant with an open scheme whose domain
        # type the other arguments leave open, as `f : A -> int` leaves f([])'s
        assert NIL in _leaves(term) or mk_atom("b") in _leaves(term)


def _leaves(term):
    stack, out = [term], []
    while stack:
        t = stack.pop()
        if type(t) is Compound:
            stack.extend(t.args)
        else:
            out.append(t)
    return out


def test_equal_closed_types_are_one_object():
    closed = ClosedTypes(derive_signatures(DEFS))
    a = closed.of(mk_list([mk_list([mk_int(1)]), mk_list([mk_int(2), mk_int(3)])]))
    b = closed.of(mk_list([mk_list([mk_int(4)])]))
    assert a[0] is b[0]
    assert closed.of(mk_list([mk_atom("a"), mk_int(1)])) is None
    assert closed.of(Compound("f", (NIL,))) is None
    assert closed.of(TVar("A")) is None
