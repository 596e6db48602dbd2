"""The two fast paths of a clause try, against the engines they stand in for.

A replayed try against a ground fact matches the goal's arguments against
the head's (`resolution._match_fact`) where it solved the term constraints;
the verdict and the term unifier must be the term phase's.  A try that
builds its type columns gives each argument with a closed type that type
(`ClosedTypes.of`) where it walked the argument; the verdict, the term
unifier, every context variable's type and where the fresh-name supply ends
must be what solving the reference's constraint state gives.
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from regunify import (
    NIL,
    Compound,
    ResolutionBudget,
    Var,
    apply_type_subst,
    generic_context,
    mk_atom,
    mk_float,
    mk_int,
    mk_list,
    mk_string,
    parse_typedefs,
    validate,
)
from regunify import resolution
from regunify.solver import Solved, SolveFalse, SolveWrong, columns, solve, solve_columns
from regunify.resolution import _match_fact, _Search

from reference_resolution import _Search as _ReferenceSearch
from test_resolution_differential import OVERRIDES, _goal_head_pairs

DEFS = validate(())
TRI = validate(parse_typedefs("tri(A) --> t3(A, A, A) + nil3."))
NIL3 = mk_atom("nil3")


# --- fact tries match ---------------------------------------------------------------

# Literals that Python's == confuses (1 == 1.0) and that only `kind` tells
# apart, atoms, and compounds of two functors, `f` at two arities.
_GROUND_LEAVES = st.sampled_from(
    [mk_int(1), mk_float(1.0), mk_string("1"), mk_int(2), mk_atom("a"), mk_atom("b"), NIL]
)
_GROUND = st.recursive(
    _GROUND_LEAVES,
    lambda sub: st.one_of(
        st.builds(lambda a: Compound("f", (a,)), sub),
        st.builds(lambda a, b: Compound("f", (a, b)), sub, sub),
        st.builds(lambda a, b: Compound("g", (a, b)), sub, sub),
    ),
    max_leaves=6,
)
_VARS = st.sampled_from([Var("X"), Var("Y")])


@st.composite
def _generalised(draw, term):
    """`term` with some subterms replaced by X or Y, so that the match
    often succeeds and a repeated variable must meet equal subterms.
    """
    if draw(st.integers(0, 3)) == 0:
        return draw(_VARS)
    if type(term) is Compound and draw(st.booleans()):
        return Compound(term.functor, tuple(draw(_generalised(arg)) for arg in term.args))
    return term


@st.composite
def _fact_pairs(draw):
    """The arguments of a goal and of a ground head: the goal's drawn from
    the head's, or drawn on their own.
    """
    head = draw(st.lists(_GROUND, min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        goal = [draw(st.one_of(_VARS, _GROUND)) for _ in head]
    else:
        goal = [draw(_generalised(arg)) for arg in head]
    return tuple(goal), tuple(head)


def _term_phase(goal_args, head_args):
    """The term unifier the solver gives with no type constraints, or None."""
    result = solve_columns(columns([], []), columns(list(goal_args), list(head_args))).result
    assert type(result) in (Solved, SolveFalse)
    return result.subst if type(result) is Solved else None


def _same(a, b):
    """Structural equality of two terms without the Python stack."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if type(x) is Compound:
            if x.functor != y.functor or len(x.args) != len(y.args):
                return False
            todo += zip(x.args, y.args)
        elif x != y:
            return False
    return True


def _deep(depth, leaf):
    term = leaf
    for _ in range(depth):
        term = Compound("f", (term,))
    return term


@settings(max_examples=500, deadline=None)
@given(pair=_fact_pairs())
@example(pair=((Var("X"), Var("X")), (mk_atom("a"), mk_atom("a"))))
@example(pair=((Var("X"), Var("X")), (mk_atom("a"), mk_atom("b"))))
@example(pair=((Var("X"), Var("X")), (mk_int(1), mk_float(1.0))))
@example(pair=((mk_int(1),), (mk_float(1.0),)))
@example(pair=((mk_float(1.0),), (mk_string("1"),)))
@example(pair=((Compound("f", (Var("X"),)),), (Compound("f", (mk_int(1), mk_int(2))),)))
@example(pair=((Compound("g", (Var("X"), Var("X"))),), (Compound("g", (mk_list([mk_int(1)]), mk_list([mk_int(1)]))),)))
def test_a_fact_match_gives_the_term_phase_verdict_and_unifier(pair):
    goal_args, head_args = pair
    assert _match_fact(goal_args, head_args) == _term_phase(goal_args, head_args)


def test_a_fact_match_answers_on_a_deep_head():
    # two equal 10^4-deep arguments, built apart so that neither side can
    # stop at identity, met by a repeated variable
    head = (_deep(10_000, mk_int(1)), _deep(10_000, mk_int(1)))
    goal = (Var("X"), Var("X"))
    got = _match_fact(goal, head)
    assert list(got) == ["X"] and got["X"] is head[0]
    assert _same(_term_phase(goal, head)["X"], head[0])
    # the leaf is 1.0 in the second: 1 == 1.0 in Python, but not as terms
    head = (_deep(10_000, mk_int(1)), _deep(10_000, mk_float(1.0)))
    assert _match_fact(goal, head) is None
    assert _term_phase(goal, head) is None
    # a deep goal argument with a variable at its bottom
    goal = (_deep(10_000, Var("Y")),)
    got = _match_fact(goal, head[1:])
    assert list(got) == ["Y"] and got["Y"] == mk_float(1.0)
    assert _term_phase(goal, head[1:]) == got


# --- clause tries type ground arguments by their closed types -----------------------

_TRI_LEAVES = st.sampled_from(
    [Var("X"), Var("Y"), mk_int(0), mk_int(1), mk_atom("red"), mk_string("a"), NIL, NIL3]
)
_TRI_TERMS = st.recursive(
    _TRI_LEAVES,
    lambda sub: st.one_of(
        st.builds(lambda a, b, c: Compound("t3", (a, b, c)), sub, sub, sub),
        st.builds(lambda a, b: Compound("cons", (a, b)), sub, sub),
    ),
    max_leaves=4,
)


@st.composite
def _tri_pairs(draw):
    name, arity = draw(st.sampled_from([("p", 1), ("q", 2)]))
    return tuple(Compound(name, tuple(draw(_TRI_TERMS) for _ in range(arity))) for _ in range(2))


_CASES = st.one_of(
    st.tuples(_goal_head_pairs(), st.sampled_from([None, OVERRIDES]), st.just(DEFS)),
    st.tuples(_tri_pairs(), st.just(None), st.just(TRI)),
)

# ill-typed ground arguments, which have no closed type and are walked to
# their clash, and open constants, which are walked too
_ILL = mk_list([mk_int(1), mk_atom("a")])
_PINNED = [
    ((Compound("p", (_ILL,)), Compound("p", (Var("X"),))), None, DEFS, "wrong"),
    ((Compound("p", (Var("X"),)), Compound("p", (_ILL,))), None, DEFS, "wrong"),
    ((Compound("p", (mk_list([mk_int(1)]),)), Compound("p", (_ILL,))), None, DEFS, "wrong"),
    ((Compound("q", (NIL, NIL)), Compound("q", (NIL, Var("Z")))), None, DEFS, "solved"),
    ((Compound("q", (mk_list([NIL]), Var("X"))), Compound("q", (Var("Y"), mk_int(0)))), OVERRIDES, DEFS, "wrong"),
    ((Compound("p", (NIL3,)), Compound("p", (Compound("t3", (NIL3, NIL3, NIL3)),))), None, TRI, "false"),
    ((Compound("q", (Compound("t3", (mk_int(1),) * 3), Var("X"))), Compound("q", (Var("Y"), NIL3))), None, TRI, "solved"),
    ((Compound("p", (Compound("t3", (mk_int(1), mk_atom("red"), mk_int(1))),)), Compound("p", (Var("X"),))), None, TRI, "wrong"),
]


def _closed_try(goal, head, overrides, defs, start):
    """The verdict, term unifier, context types and supply end of a try
    whose arguments with closed types are typed by them, and the arguments
    it walked.
    """
    search = _Search((), defs, overrides, ResolutionBudget())
    search.fresh.skip(start)
    ctx = generic_context((goal, head), search.fresh)
    walked = []
    walk = resolution.gen_columns

    def gen_columns(ctx, sig, term, fresh, lhs, rhs):
        walked.append(term)
        return walk(ctx, sig, term, fresh, lhs, rhs)

    closed = [tuple(map(search.closed.of, atom.args)) for atom in (goal, head)]
    with mock.patch.object(resolution, "gen_columns", gen_columns):
        result = solve_columns(*search.unify_args(ctx, goal, head, *closed)).result
    return _summary(result, ctx), search.fresh.drawn, walked, closed


def _reference_try(goal, head, overrides, defs, start):
    reference = _ReferenceSearch((), defs, overrides, 10_000, 200)
    reference.fresh.skip(start)
    ctx = generic_context((goal, head), reference.fresh)
    return _summary(solve(reference.unify_args(ctx, goal, head)).result, ctx), reference.fresh.drawn


def _summary(result, ctx):
    if type(result) is SolveWrong:
        return ("wrong",)
    types = {name: apply_type_subst(result.type_subst, ty) for name, ty in ctx.items()}
    if type(result) is SolveFalse:
        return ("false", types)
    return ("solved", result.subst, types)


def _outcome(run, *args):
    try:
        return run(*args)
    except Exception as e:  # an arity clash, raised alike by both or the test fails
        return ("raised", type(e).__name__, str(e))


def _check(pair, overrides, defs, start):
    goal, head = pair
    got = _outcome(_closed_try, goal, head, overrides, defs, start)
    want = _outcome(_reference_try, goal, head, overrides, defs, start)
    if got[0] == "raised" or want[0] == "raised":
        assert got == want
        return want
    (summary, drawn, walked, closed), (want_summary, want_drawn) = got, want
    assert (summary, drawn) == (want_summary, want_drawn)
    # an argument with a closed type is never walked, and one without is
    args = [arg for pair in zip(goal.args, head.args) for arg in pair]
    typed = [ty for pair in zip(*closed) for ty in pair]
    assert [id(a) for a, ty in zip(args, typed) if ty is None] == [id(t) for t in walked]
    return summary


@settings(max_examples=500, deadline=None)
@given(case=_CASES, start=st.integers(0, 40))
def test_a_closed_typed_try_solves_as_the_reference_state(case, start):
    _check(*case, start)


def test_ill_typed_and_open_arguments_are_walked():
    for pair, overrides, defs, verdict in _PINNED:
        summary = _check(pair, overrides, defs, 7)
        assert summary[0] == verdict, pair
        walked = _closed_try(*pair, overrides, defs, 7)[2]
        for atom in pair:
            for arg in atom.args:
                if arg in (_ILL, NIL, NIL3):
                    assert any(arg is t for t in walked), arg
