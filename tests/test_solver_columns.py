"""Prepared constraint columns against the state they stand for.

`oracle` types each kept term once per side and splits its constraints into
columns once (`type_columns`); each pair joins two such blocks and the
equality of their types (`equation_columns`) and runs `solve_columns`.  That
must give exactly what `solve` gives on the state
`ConstraintState((t1 = t2,), (*cs1, *cs2, ty1 = ty2))`: the same steps,
result, witness and unifiers, down to the names and the order of entries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regunify import (
    Compound,
    ConstraintState,
    Solved,
    SolveFalse,
    SolveWrong,
    TermConstraint,
    TypeConstraint,
    Var,
    derive_signatures,
    mk_int,
    solve,
    validate,
)
from regunify.constraints import FreshSupply, gen_term, generic_context
from regunify.semantics import LiteralPool, sample_ground_terms
from regunify.solver import equation_columns, solve_columns, type_columns

SIG = derive_signatures(validate(())).with_function("f", 1)
POOL = LiteralPool(ints=(0, 1), floats=(), strings=(), atoms=("a",))


def _typed(ctx, terms, fresh):
    """(type, constraints, block) of each term, typed in order from `fresh`."""
    out = []
    for t in terms:
        ty, _, cs = gen_term(ctx, SIG, t, fresh)
        out.append((ty, cs, type_columns([c.lhs for c in cs], [c.rhs for c in cs])))
    return out


def assert_columns_match(t1, left, t2, right, trace=False):
    """Solve the pair from its blocks and from its state; return the result class."""
    (ty1, cs1, block1), (ty2, cs2, block2) = left, right
    state = ConstraintState((TermConstraint(t1, t2),), (*cs1, *cs2, TypeConstraint(ty1, ty2)))
    run = solve_columns(*equation_columns(t1, (ty1, block1), t2, (ty2, block2)), trace=trace)
    ref = solve(state, trace=trace)
    assert (run.steps, type(run.result)) == (ref.steps, type(ref.result)), (t1, t2)
    assert getattr(run.result, "witness", None) == getattr(ref.result, "witness", None)
    for field in ("type_subst", "subst"):
        got, want = getattr(run.result, field, {}), getattr(ref.result, field, {})
        assert list(got.items()) == list(want.items()), (t1, t2, field)
    assert [(s.rule, s.target, s.state) for s in run.trace] == [
        (s.rule, s.target, s.state) for s in ref.trace
    ]
    return type(ref.result)


@pytest.mark.parametrize("depth, limit", [(2, 4225), (3, 10_000)])
def test_oracle_sweep_columns_match_states(depth, limit):
    _, kept = sample_ground_terms(SIG, depth, POOL, max_pairs=limit, seed=5)
    assert len(kept) ** 2 == limit
    fresh = FreshSupply()
    lefts, rights = _typed({}, kept, fresh), _typed({}, kept, fresh)
    before = [tuple(map(tuple, block)) for _, _, block in lefts + rights]
    seen = set()
    for t1, left in zip(kept, lefts):
        for t2, right in zip(kept, rights):
            seen.add(assert_columns_match(t1, left, t2, right))
    assert seen == {Solved, SolveFalse, SolveWrong}
    # a block serves every pair it is in: no solve rewrote it
    assert [tuple(map(tuple, block)) for _, _, block in lefts + rights] == before


# Pairs over integers, variables, f/1 and g/2, the right side the left with
# up to three leaves changed, so that most keep one shape: of 400 draws
# 280-310 end solved, 14-34 false (a changed integer) and the rest wrong (a
# changed functor or a type occurs).
_leaf = st.one_of(st.integers(0, 1).map(mk_int), st.sampled_from(["X", "Y", "Z"]).map(Var))
_terms = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(inner).map(lambda p: Compound("f", p)),
        st.tuples(inner, inner).map(lambda p: Compound("g", p)),
    ),
    max_leaves=8,
)


@st.composite
def _near_pairs(draw):
    lhs = draw(_terms)
    stack, leaves = [lhs], 0
    while stack:
        t = stack.pop()
        if isinstance(t, Compound):
            stack.extend(t.args)
        else:
            leaves += 1
    changed = draw(st.lists(st.tuples(st.integers(0, leaves - 1), _leaf | _terms), max_size=3))
    return lhs, _replace_leaves(lhs, dict(changed))


def _replace_leaves(t, new):
    """`t` with its i-th leaf, left to right, replaced by new[i]."""
    count = [0]

    def walk(t):
        if isinstance(t, Compound):
            return Compound(t.functor, tuple(walk(a) for a in t.args))
        i, count[0] = count[0], count[0] + 1
        return new.get(i, t)

    return walk(t)


def _pair_state(t1, t2):
    """Both sides typed under one generic context, left first."""
    fresh = FreshSupply()
    ctx = generic_context([t1, t2], fresh)
    (left,), (right,) = _typed(ctx, [t1], fresh), _typed(ctx, [t2], fresh)
    return t1, left, t2, right


@settings(max_examples=400, deadline=None)
@given(_near_pairs())
def test_near_pairs_columns_match_states(pair):
    assert_columns_match(*_pair_state(*pair), trace=True)


def test_hand_picked_pairs_reach_every_class():
    pairs = [
        (Compound("g", (Var("X"), mk_int(1))), Compound("g", (mk_int(0), Var("Y")))),
        (Compound("f", (mk_int(0),)), Compound("f", (mk_int(1),))),
        (Var("X"), Compound("f", (Var("X"),))),
    ]
    got = [assert_columns_match(*_pair_state(*pair), trace=True) for pair in pairs]
    assert got == [Solved, SolveFalse, SolveWrong]


@pytest.mark.parametrize("n", [40, 130])
def test_shared_key_table_is_never_rewritten(n):
    from regunify import solver

    # decompose appends its children's keys to a phase's own list, which must
    # be a copy: a key appended to the table would misorder later phases.
    # With n = 130 the type phases outgrow the table.
    wide = Compound("g", tuple(Var(f"X{i}") for i in range(n)))
    pair = _pair_state(Compound("g", (wide, mk_int(0))), Compound("g", (wide, mk_int(0))))
    assert assert_columns_match(*pair) is Solved
    assert solver._KEYS == [(i, solver._LAST) for i in range(256)]
