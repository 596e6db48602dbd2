"""The ground semantics against the frozen list-special-cased reference.

Without user definitions the two must agree on every verdict of ground
equality and on every membership answer, including the errors raised,
over the oracle's sweeps and over random terms evaluated under states.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regunify import (
    NIL,
    Base,
    Bool,
    Compound,
    CtorApp,
    SymApp,
    Var,
    derive_signatures,
    eq_values,
    eval_term,
    member,
    mk_atom,
    mk_float,
    mk_int,
    parse_term,
    validate,
)
from regunify.errors import UnknownSymbol
from regunify.semantics import (
    ANY_ELEM,
    BaseDom,
    BoolV,
    CtorV,
    LiteralPool,
    WrongV,
    sample_ground_terms,
)
from regunify.syntax import free_ctor_functor, free_ctor_symbol

import reference_semantics as ref

DEFS = validate(())
# the vocabulary and literal pool `regunify oracle` sweeps without --types
SIG = derive_signatures(DEFS).with_function("f", 1)
POOL = LiteralPool(ints=(0, 1), floats=(), strings=(), atoms=("a",))

INT, ATOM = Base("int"), Base("atom")


def _list(t):
    return SymApp("list", (t,))


def _free(name, *args):
    return SymApp(free_ctor_symbol(name), args)


GROUND_TYPES = (
    INT,
    Base("float"),
    Base("string"),
    ATOM,
    Bool(),
    _list(INT),
    _list(ATOM),
    _list(_list(INT)),
    _list(_free("f", INT)),
    _free("f", INT),
    _free("f", ATOM),
    _free("f", _list(INT)),
    _free("f", _free("f", _list(ATOM))),
    _free("g", INT, ATOM),
    CtorApp("cons", (INT, CtorApp("[]"))),
    CtorApp("cons", (_free("f", INT), _list(_free("f", INT)))),
    CtorApp("[]"),
    CtorApp("a"),
    CtorApp("f", (INT,)),
    SymApp("nosuch", (INT,)),
    _list(SymApp("nosuch", ())),
    SymApp("list", (INT, INT)),
)


def _member(member_fn, v, ty, defs):
    try:
        return member_fn(v, ty, defs)
    except UnknownSymbol:
        return "UnknownSymbol"


def _as_reference(v):
    """The reference's value for a value: `[]` and `cons` cells of the list
    definition are its list values, every other constructor value a tree."""
    if isinstance(v, CtorV):
        kids = tuple(map(_as_reference, v.children))
        if v.tag.symbol == "list":
            return ref.ConsV(*kids) if kids else ref.NIL_VALUE
        return ref.TreeV(v.root, kids)
    if isinstance(v, WrongV):
        return ref.WRONG
    return getattr(ref, type(v).__name__)(*vars(v).values())


def _tag_as_reference(tag):
    if tag is ANY_ELEM:
        return ref.ANY_ELEM
    if isinstance(tag, BaseDom):
        return ref.BaseDom(tag.kind)
    args = tuple(map(_tag_as_reference, tag.args))
    if tag.symbol == "list":
        return ref.ListDom(*args)
    return ref.TreeDom(free_ctor_functor(tag.symbol), args)


def _assert_same_semantics(terms, state=None, ref_state=None):
    values = [eval_term(t, state) for t in terms]
    ref_values = [ref.eval_term(t, ref_state) for t in terms]
    for t, v, r in zip(terms, values, ref_values):
        assert _as_reference(v) == r, t
        if r != ref.WRONG:  # wrong is in no domain
            assert _tag_as_reference(v.tag) == ref.dom_tag(r), t
    for t1, v1, r1 in zip(terms, values, ref_values):
        for t2, v2, r2 in zip(terms, values, ref_values):
            assert eq_values(v1, v2) == ref.eq_values(r1, r2), (t1, t2)
        for ty in GROUND_TYPES:
            assert _member(member, v1, ty, DEFS) == _member(ref.member, r1, ty, DEFS), (t1, ty)


@pytest.mark.parametrize("depth,seed", [(0, 0), (1, 0), (2, 0), (2, 13), (3, 0), (3, 4806)])
def test_oracle_sweep_verdicts_match_reference(depth, seed):
    # depth 3, seed 0 keeps the 100 terms of criterion 07's 10 000 pairs
    _, kept = sample_ground_terms(SIG, depth, POOL, max_pairs=10_000, seed=seed)
    _assert_same_semantics(kept)


def _terms_over(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(
            st.builds(lambda a, b: Compound("cons", (a, b)), sub, sub),
            st.builds(lambda a: Compound("f", (a,)), sub),
            st.builds(lambda a, b: Compound("g", (a, b)), sub, sub),
            st.builds(lambda a: Compound("cons", (a,)), sub),
        ),
        max_leaves=8,
    )


_GROUND_LEAVES = [mk_int(0), mk_int(1), mk_float(0.5), mk_atom("a"), mk_atom("b"), NIL]
_terms = _terms_over(_GROUND_LEAVES + [Var("X"), Var("Y")])
_ground = _terms_over(_GROUND_LEAVES)


@settings(max_examples=150, deadline=None)
@given(st.lists(_terms, min_size=1, max_size=6), _ground, _ground)
def test_random_terms_under_states_match_reference(terms, x, y):
    state = {"X": eval_term(x), "Y": eval_term(y)}
    ref_state = {"X": ref.eval_term(x), "Y": ref.eval_term(y)}
    _assert_same_semantics(terms, state, ref_state)


def test_a_boolean_argument_is_wrong_under_every_constructor():
    # the one deliberate departure: the reference lets a free tree hold a
    # boolean, where no summand can hold one (`validate` rejects bool in
    # summands), so the constructor rule makes the application wrong
    state = {"B": BoolV(True)}
    ref_state = {"B": ref.BoolV(True)}
    for text in ("f(B)", "g(1, B)", "cons(B, [])"):
        assert eval_term(parse_term(text), state) == WrongV()
    assert ref.eval_term(parse_term("f(B)"), ref_state) == ref.TreeV("f", (ref.BoolV(True),))
    assert ref.eval_term(parse_term("cons(B, [])"), ref_state) == ref.WRONG
