"""Constraint generation: one term constraint per equation, typed argwise."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regunify import (
    Base,
    ConstraintState,
    FreshSupply,
    LiteralPool,
    SymApp,
    TVar,
    TermConstraint,
    TypeConstraint,
    Var,
    derive_signatures,
    enumerate_ground_terms,
    gen_equation,
    gen_term,
    generic_context,
    mk_atom,
    mk_int,
    parse_term,
    validate,
)
from regunify.errors import UnboundVariable


def lst(ty):
    return SymApp("list", (ty,))


def test_generic_context_first_occurrence_order():
    terms = [parse_term("f(X, Y)"), parse_term("g(Y, Z)")]
    ctx = generic_context(terms, FreshSupply())
    assert list(ctx) == ["X", "Y", "Z"]
    assert ctx["X"] == TVar("$X")
    assert ctx["Z"] == TVar("$Z")


def test_variable_case(sig):
    ctx = {"X": Base("int")}
    ty, term_cs, type_cs = gen_term(ctx, sig, Var("X"), FreshSupply())
    assert (ty, term_cs, type_cs) == (Base("int"), [], [])
    with pytest.raises(UnboundVariable):
        gen_term(ctx, sig, Var("Y"), FreshSupply())


def test_constant_case(sig):
    ty, term_cs, type_cs = gen_term({}, sig, mk_int(7), FreshSupply())
    assert (ty, term_cs, type_cs) == (Base("int"), [], [])
    ty, _, _ = gen_term({}, sig, mk_atom("a"), FreshSupply())
    assert ty == Base("atom")


def test_polymorphic_constant_fresh_per_occurrence(sig):
    fresh = FreshSupply()
    nil = parse_term("[]")
    ty1, _, _ = gen_term({}, sig, nil, fresh)
    ty2, _, _ = gen_term({}, sig, nil, fresh)
    assert ty1 == lst(TVar("$t1"))
    assert ty2 == lst(TVar("$t2"))
    assert ty1 != ty2


def test_compound_case_constraint_order(sig):
    # cons instance A:=$t1, nil instance A:=$t2; subterm constraints precede
    # the argwise pairs
    ctx = {"X": TVar("$X")}
    term = parse_term("cons(X, [])")
    ty, term_cs, type_cs = gen_term(ctx, sig, term, FreshSupply())
    assert ty == lst(TVar("$t1"))
    assert term_cs == []
    assert type_cs == [
        TypeConstraint(TVar("$X"), TVar("$t1")),
        TypeConstraint(lst(TVar("$t2")), lst(TVar("$t1"))),
    ]
    # nested: the inner cons's constraints come before the outer pairs
    _, _, type_cs = gen_term(ctx, sig, parse_term("cons(1, cons(X, []))"), FreshSupply())
    assert type_cs == [
        TypeConstraint(TVar("$X"), TVar("$t2")),
        TypeConstraint(lst(TVar("$t3")), lst(TVar("$t2"))),
        TypeConstraint(Base("int"), TVar("$t1")),
        TypeConstraint(lst(TVar("$t2")), lst(TVar("$t1"))),
    ]


def test_equation_both_walks_then_equality(defs, sig):
    lhs = parse_term("cons(X, [])")
    rhs = parse_term("cons(1, Y)")
    fresh = FreshSupply()
    ctx = generic_context([lhs, rhs], fresh)
    state = gen_equation(ctx, sig, lhs, rhs, fresh)
    assert state.terms == (TermConstraint(lhs, rhs),)
    assert state.types == (
        TypeConstraint(TVar("$X"), TVar("$t1")),
        TypeConstraint(lst(TVar("$t2")), lst(TVar("$t1"))),
        TypeConstraint(Base("int"), TVar("$t3")),
        TypeConstraint(TVar("$Y"), lst(TVar("$t3"))),
        TypeConstraint(lst(TVar("$t1")), lst(TVar("$t3"))),
    )


def test_equation_of_literals(sig):
    state = gen_equation({}, sig, mk_int(1), mk_int(1), FreshSupply())
    assert state.terms == (TermConstraint(mk_int(1), mk_int(1)),)
    assert state.types == (TypeConstraint(Base("int"), Base("int")),)


def test_side_instances_disjoint(defs, sig):
    lhs = parse_term("cons(X, [])")
    rhs = parse_term("cons(Y, [])")
    fresh = FreshSupply()
    ctx = generic_context([lhs, rhs], fresh)
    state = gen_equation(ctx, sig, lhs, rhs, fresh)

    def tvars(ty, acc):
        if isinstance(ty, TVar):
            acc.add(ty.name)
        elif isinstance(ty, SymApp):
            for a in ty.args:
                tvars(a, acc)
        return acc

    lhs_vars, rhs_vars = set(), set()
    for c in state.types[:2]:
        tvars(c.lhs, lhs_vars), tvars(c.rhs, lhs_vars)
    for c in state.types[2:4]:
        tvars(c.lhs, rhs_vars), tvars(c.rhs, rhs_vars)
    assert not (lhs_vars - {"$X"}) & (rhs_vars - {"$Y"})


def test_term_walk_never_emits_term_constraints(defs, sig):
    pool = LiteralPool(ints=(0, 1), floats=(), strings=(), atoms=("a",))
    vocab = derive_signatures(defs).with_function("f", 2)
    for t in enumerate_ground_terms(vocab, 2, pool):
        _, term_cs, _ = gen_term({}, vocab, t, FreshSupply())
        assert term_cs == []


def test_state_size(sig):
    state = gen_equation({}, sig, mk_int(1), mk_int(2), FreshSupply())
    # C holds 1 = 2 (size 2); T holds int = int (size 2)
    assert state.size() == 4
    assert ConstraintState(terms=(), types=()).size() == 0


def test_fresh_supply_never_repeats():
    fresh = FreshSupply()
    names = [fresh.tvar().name for _ in range(50)] + [fresh.var().name for _ in range(50)]
    assert len(set(names)) == 100
    assert all(n.startswith("$") for n in names)
    assert fresh.tvar_for("X") == TVar("$X") == fresh.tvar_for("X")


@given(st.integers(0, 5), st.integers(0, 5))
def test_equation_type_count_tracks_arity(n, m):
    """Flat equations emit one type constraint per argument plus the root one."""
    defs_sig = (
        derive_signatures(validate(()))
        .with_function("h", max(n, 1))
        .with_function("k", max(m, 1))
    )
    lhs = parse_term(f"h({', '.join(str(i) for i in range(n))})") if n else mk_atom("c")
    rhs = parse_term(f"k({', '.join(str(i) for i in range(m))})") if m else mk_atom("d")
    state = gen_equation({}, defs_sig, lhs, rhs, FreshSupply())
    assert len(state.terms) == 1
    assert len(state.types) == n + m + 1
