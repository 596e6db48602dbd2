"""Derivability checking: rigid candidates, flexible scheme instances."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regunify import (
    Base,
    NIL,
    SolveWrong,
    SymApp,
    TVar,
    Var,
    apply_type_subst,
    check,
    check_equation,
    check_equation_explain,
    check_explain,
    derive_signatures,
    is_instance,
    mk_atom,
    mk_int,
    mk_list,
    parse_term,
    principal_typing,
    validate,
)
from regunify.errors import UnboundVariable
from regunify.typecheck import _match, _MatchState
from regunify.syntax import Bool, CtorApp, free_type_vars

from reference_instance import reference_is_instance
from test_solver import _terms


def lst(ty):
    return SymApp("list", (ty,))


INT, ATOM = Base("int"), Base("atom")
DEFS = validate(())


def test_variable_axiom(sig):
    assert check({"X": INT}, sig, Var("X"), INT)
    assert not check({"X": INT}, sig, Var("X"), ATOM)
    with pytest.raises(UnboundVariable):
        check({}, sig, Var("X"), INT)


def test_constants(sig):
    assert check({}, sig, mk_int(1), INT)
    assert not check({}, sig, mk_int(1), Base("float"))
    assert check({}, sig, NIL, lst(INT))
    # nil's scheme instantiates to any element type, rigid variables included
    assert check({}, sig, NIL, lst(TVar("A")))


def test_cons_cell(sig):
    term = parse_term("cons(X, [])")
    ctx = {"X": INT, "Y": lst(INT)}
    assert check(ctx, sig, term, lst(INT))
    assert not check(ctx, sig, term, lst(ATOM))
    assert not check(ctx, sig, term, INT)


def test_rigid_context_variable_blocks(sig):
    # a rigid type variable in the context is not int, so the judgment fails
    assert not check({"X": TVar("A")}, sig, parse_term("cons(X, [])"), lst(INT))
    # but the same context admits the matching rigid candidate
    assert check({"X": TVar("A")}, sig, parse_term("cons(X, [])"), lst(TVar("A")))


def test_rigid_candidate_blocks_literal(sig):
    # list(A) with rigid A would need 1 : A, underivable
    assert not check({}, sig, parse_term("cons(1, [])"), lst(TVar("A")))


def test_explain_reports_first_failure(sig):
    ok, failure = check_explain({}, sig, parse_term("cons(1, [])"), lst(ATOM))
    assert not ok
    assert failure == (mk_int(1), ATOM)
    ok, failure = check_explain({}, sig, mk_int(1), INT)
    assert ok and failure is None


def test_equation_shares_a_type(sig):
    assert check_equation({"X": INT}, sig, Var("X"), mk_int(1))
    assert not check_equation({"X": ATOM}, sig, Var("X"), mk_int(1))
    # 1 = 2 types as bool even though it never holds
    assert check_equation({}, sig, mk_int(1), mk_int(2))
    assert not check_equation({}, sig, mk_int(1), mk_atom("a"))
    assert check_equation({"X": lst(INT)}, sig, Var("X"), NIL)


def test_equation_explain(sig):
    ok, failure = check_equation_explain({"X": TVar("A")}, sig, Var("X"), mk_int(1))
    assert not ok
    assert failure == (mk_int(1), TVar("A"))


def test_free_functor_judgment(sig):
    term = parse_term("f(1, a)")
    pt = principal_typing(term, DEFS)
    assert check({}, sig, term, pt.type)


# --- typing instances -------------------------------------------------------------


PRIN = ({"X": TVar("A")}, lst(TVar("A")))


def test_instance_by_substitution():
    assert is_instance(({"X": INT}, lst(INT)), PRIN)
    assert is_instance(({"X": lst(ATOM)}, lst(lst(ATOM))), PRIN)


def test_instance_requires_consistency():
    assert not is_instance(({"X": INT}, lst(ATOM)), PRIN)


def test_instance_renaming_and_reflexivity():
    assert is_instance(({"X": TVar("B")}, lst(TVar("B"))), PRIN)
    assert is_instance(PRIN, PRIN)


def test_instance_is_directional():
    assert not is_instance(PRIN, ({"X": INT}, lst(INT)))


def test_instance_needs_same_variables():
    assert not is_instance(({"Y": INT}, lst(INT)), PRIN)
    assert not is_instance(({}, lst(INT)), PRIN)


def test_match_occurs_check():
    # Only scheme instances make flexible variables, and no public entry has
    # been seen to bind one cyclically, so the matcher is checked directly.
    st = _MatchState()
    a, b = st.tvar(), st.tvar()
    assert not _match(a, SymApp("pair", (INT, a)), st)
    assert not _match(SymApp("pair", (INT, lst(lst(b)))), SymApp("pair", (INT, b)), st)
    assert _match(a, b, st) and not _match(b, lst(a), st)  # seen through the binding


@pytest.mark.parametrize("depth", [250, 400])
def test_instance_of_deeply_nested_typing(depth):
    # `X` inside `depth` one-element lists: matching and the occurs check
    # walk explicit stacks, so the depth is not limited by Python's recursion
    term, ground = Var("X"), INT
    for _ in range(depth):
        term, ground = mk_list([term]), lst(ground)
    pt = principal_typing(term, DEFS)
    principal, candidate = (pt.context, pt.type), ({"X": INT}, ground)
    assert is_instance(candidate, principal)
    assert not is_instance(principal, candidate)
    assert reference_is_instance(candidate, principal)
    assert not reference_is_instance(principal, candidate)


# The names are shared by both sides, and `$t1` is what inference produces.
_TYPES = st.recursive(
    st.sampled_from([TVar("A"), TVar("B"), TVar("$t1"), INT, ATOM, Bool(), CtorApp("[]")]),
    lambda inner: st.one_of(
        st.builds(lst, inner),
        st.builds(lambda a, b: SymApp("pair", (a, b)), inner, inner),
        st.builds(lambda a, b: CtorApp("node", (a, b)), inner, inner),
    ),
    max_leaves=6,
)
_TYPINGS = st.tuples(st.dictionaries(st.sampled_from(["X", "Y", "Z"]), _TYPES, max_size=3), _TYPES)


def _substitute(subst, typing):
    ctx, ty = typing
    return {v: apply_type_subst(subst, t) for v, t in ctx.items()}, apply_type_subst(subst, ty)


@settings(max_examples=400, deadline=None)
@given(_TYPINGS, _TYPINGS)
def test_instance_matches_reference_on_random_typings(candidate, principal):
    assert is_instance(candidate, principal) == reference_is_instance(candidate, principal)


@settings(max_examples=400, deadline=None)
@given(_TYPINGS, st.dictionaries(st.sampled_from(["A", "B", "$t1"]), _TYPES), st.data())
def test_instance_matches_reference_on_substituted_typings(principal, subst, data):
    candidate = _substitute(subst, principal)
    assert is_instance(candidate, principal)
    assert reference_is_instance(candidate, principal)
    # perturb one side: a different type at one position usually breaks it
    other = data.draw(_TYPES)
    for bent in ((candidate[0], other), (principal[0], other)):
        assert is_instance(bent, principal) == reference_is_instance(bent, principal)
        assert is_instance(candidate, bent) == reference_is_instance(candidate, bent)


# --- inference/checking agreement --------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(_terms)
def test_principal_typing_is_derivable(term):
    sig = derive_signatures(DEFS)
    pt = principal_typing(term, DEFS)
    if isinstance(pt, SolveWrong):
        return
    assert check(pt.context, sig, term, pt.type)
    # any ground instance of the principal typing is derivable too
    inst = {name: INT for name in free_type_vars(pt.type)}
    for ty in pt.context.values():
        inst.update({name: INT for name in free_type_vars(ty)})
    inst_ctx = {v: apply_type_subst(inst, ty) for v, ty in pt.context.items()}
    inst_ty = apply_type_subst(inst, pt.type)
    assert check(inst_ctx, sig, term, inst_ty)
    assert is_instance((inst_ctx, inst_ty), (pt.context, pt.type))
