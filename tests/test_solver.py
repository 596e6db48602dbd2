"""Rewriting solver: rule priorities, the three outcomes, solved-form read-off.

Randomized runs are cross-checked against the independent Robinson
implementations in oracles.py.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regunify import (
    Base,
    Bool,
    BudgetExceeded,
    Compound,
    ConstraintState,
    NIL,
    Solved,
    SolveFalse,
    SolveWrong,
    SymApp,
    TVar,
    TermConstraint,
    TypeConstraint,
    Var,
    apply_subst,
    apply_type_subst,
    cons,
    mk_atom,
    mk_int,
    parse_term,
    principal_typing,
    solve,
    typed_unify,
    validate,
)
from oracles import alpha_equal, resolve_term, unify_terms, unify_types


def lst(ty):
    return SymApp("list", (ty,))


DEFS = validate(())


# --- single-rule behavior on hand-built states ------------------------------------


def test_type_clash_is_wrong():
    bad = TypeConstraint(Base("int"), Base("float"))
    run = solve(ConstraintState(terms=(), types=(bad,)))
    assert run.result == SolveWrong(witness=bad)


def test_term_clash_is_false():
    bad = TermConstraint(mk_int(1), mk_int(2))
    run = solve(ConstraintState(terms=(bad,), types=()))
    assert run.result == SolveFalse(type_subst={}, witness=bad)


def test_wrong_preempts_false():
    # type rules run to fixpoint first, so the type error wins
    state = ConstraintState(
        terms=(TermConstraint(mk_int(1), mk_int(2)),),
        types=(TypeConstraint(Base("int"), Base("float")),),
    )
    assert isinstance(solve(state).result, SolveWrong)


def test_orient_then_read_off():
    state = ConstraintState(terms=(), types=(TypeConstraint(Base("int"), TVar("$a")),))
    run = solve(state, trace=True)
    assert run.result == Solved(subst={}, type_subst={"$a": Base("int")})
    assert [s.rule for s in run.trace] == [4]


def test_decompose_outranks_delete():
    same = TypeConstraint(lst(TVar("$a")), lst(TVar("$a")))
    run = solve(ConstraintState(terms=(), types=(same,)), trace=True)
    assert [s.rule for s in run.trace] == [1, 2]
    assert run.result == Solved(subst={}, type_subst={})


def test_leftmost_among_equal_priority():
    c1 = TypeConstraint(lst(Base("int")), lst(TVar("$a")))
    c2 = TypeConstraint(lst(Base("atom")), lst(TVar("$b")))
    run = solve(ConstraintState(terms=(), types=(c1, c2)), trace=True)
    assert run.trace[0].target == c1


def test_variable_pair_is_solved_form():
    state = ConstraintState(terms=(TermConstraint(Var("X"), Var("Y")),), types=())
    run = solve(state)
    assert run.result == Solved(subst={"X": Var("Y")}, type_subst={})
    assert run.steps == 0


def test_budget_cap():
    state = ConstraintState(
        terms=(),
        types=(TypeConstraint(lst(lst(Base("int"))), lst(lst(TVar("$a")))),),
    )
    with pytest.raises(BudgetExceeded):
        solve(state, max_steps=1)


# --- whole-problem runs -----------------------------------------------------------


def test_solved_list_equation():
    run = typed_unify(parse_term("cons(X, [])"), parse_term("cons(1, Y)"), DEFS, trace=True)
    assert [s.rule for s in run.trace] == [1, 1, 4, 5, 5, 7, 10]
    assert run.steps == 7
    assert run.result == Solved(
        subst={"X": mk_int(1), "Y": NIL},
        type_subst={
            "$X": Base("int"),
            "$t1": Base("int"),
            "$t2": Base("int"),
            "$t3": Base("int"),
            "$Y": lst(Base("int")),
        },
    )
    assert run.var_types == {"X": Base("int"), "Y": lst(Base("int"))}
    assert run.principal == ({"X": Base("int"), "Y": lst(Base("int"))}, Bool())


def test_false_on_ground_disagreement():
    # frozen cross-check: the reference term unifier rejects the pair while
    # the reference type unifier accepts the generated type constraints
    lhs, rhs = parse_term("f(1, a)"), parse_term("f(2, a)")
    run = typed_unify(lhs, rhs, DEFS)
    assert isinstance(run.result, SolveFalse)
    assert run.result.witness == TermConstraint(mk_int(1), mk_int(2))
    assert unify_terms([(lhs, rhs)]) is None
    assert unify_types([(c.lhs, c.rhs) for c in run.initial.types]) is not None
    assert run.principal is None


def test_wrong_on_ill_typed_argument():
    # frozen cross-check: cons of an int onto an int generates unsolvable
    # type constraints, so the reference type unifier also rejects them
    pt = principal_typing(parse_term("cons(1, 2)"), DEFS)
    assert pt == SolveWrong(witness=TypeConstraint(Base("int"), lst(TVar("$t1"))))
    run = typed_unify(parse_term("cons(1, 2)"), Var("X"), DEFS)
    assert isinstance(run.result, SolveWrong)
    assert unify_types([(c.lhs, c.rhs) for c in run.initial.types]) is None
    assert run.var_types is None


def test_trivial_reflexive_equation():
    run = typed_unify(Var("X"), Var("X"), DEFS)
    assert run.result == Solved(subst={}, type_subst={})
    assert run.var_types == {"X": TVar("$X")}


def test_occurs_on_types_is_wrong():
    # X against f(X) forces the type of X to nest inside itself
    run = typed_unify(Var("X"), parse_term("f(X)"), DEFS)
    assert isinstance(run.result, SolveWrong)


def test_occurs_on_terms_is_false():
    # X against cons(1, X) types fine thanks to the recursive list symbol
    lhs, rhs = Var("X"), parse_term("cons(1, X)")
    run = typed_unify(lhs, rhs, DEFS)
    assert isinstance(run.result, SolveFalse)
    assert run.result.witness == TermConstraint(lhs, rhs)
    assert run.var_types == {"X": lst(Base("int"))}


def test_principal_typing_of_open_list():
    pt = principal_typing(parse_term("cons(X, [])"), DEFS)
    assert isinstance(pt.type, SymApp) and pt.type.symbol == "list"
    elem = pt.type.args[0]
    assert pt.context["X"] == elem and isinstance(elem, TVar)


# --- randomized cross-checks ------------------------------------------------------


_leaf = st.one_of(
    st.integers(0, 2).map(mk_int),
    st.sampled_from(["a", "b"]).map(mk_atom),
    st.just(NIL),
    st.sampled_from(["X", "Y", "Z"]).map(Var),
)
_terms = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: cons(*p)),
        st.tuples(inner).map(lambda p: Compound("f", p)),
        st.tuples(inner, inner).map(lambda p: Compound("g", p)),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(_terms, _terms)
def test_outcomes_agree_with_reference(lhs, rhs):
    run = typed_unify(lhs, rhs, DEFS)
    type_pairs = [(c.lhs, c.rhs) for c in run.initial.types]
    types_ok = unify_types(type_pairs) is not None
    mgu = unify_terms([(lhs, rhs)])
    if isinstance(run.result, SolveWrong):
        assert not types_ok
    elif isinstance(run.result, SolveFalse):
        assert types_ok
        assert mgu is None
    else:
        assert types_ok
        theta = run.result.subst
        unified = apply_subst(theta, lhs)
        assert unified == apply_subst(theta, rhs)
        assert alpha_equal(unified, resolve_term(lhs, mgu))


@settings(max_examples=300, deadline=None)
@given(_terms, _terms)
def test_solutions_idempotent_and_budgeted(lhs, rhs):
    run = typed_unify(lhs, rhs, DEFS)
    assert run.steps <= max(1, run.initial.size()) ** 2 * 64
    if isinstance(run.result, Solved):
        theta, mu = run.result.subst, run.result.type_subst
        for t in theta.values():
            assert apply_subst(theta, t) == t
        for ty in mu.values():
            assert apply_type_subst(mu, ty) == ty
        for c in run.initial.types:
            assert apply_type_subst(mu, c.lhs) == apply_type_subst(mu, c.rhs)
    if isinstance(run.result, SolveFalse):
        mu = run.result.type_subst
        for c in run.initial.types:
            assert apply_type_subst(mu, c.lhs) == apply_type_subst(mu, c.rhs)


# --- shared structure ---------------------------------------------------------------


def test_chain_result_shares_subterms():
    # f(X1..Xn) = f(g(X0,X0), ..., g(Xn-1,Xn-1)) binds Xn to a tree of
    # 2**(n+1) - 1 nodes; the unifier holds it as O(n) objects
    n = 40
    xs = [Var(f"X{i}") for i in range(n + 1)]
    links = tuple(Compound("g", (xs[i], xs[i])) for i in range(n))
    run = typed_unify(Compound("f", tuple(xs[1:])), Compound("f", links), DEFS)
    assert isinstance(run.result, Solved)

    objects = {}
    stack = list(run.result.subst.values())
    while stack:
        t = stack.pop()
        if id(t) not in objects:
            objects[id(t)] = t
            stack.extend(getattr(t, "args", ()))
    assert len(objects) <= 20 * n

    sizes = {}

    def tree_size(t):
        if id(t) not in sizes:
            sizes[id(t)] = 1 + sum(tree_size(a) for a in getattr(t, "args", ()))
        return sizes[id(t)]

    assert tree_size(run.result.subst[f"X{n}"]) == 2 ** (n + 1) - 1


def test_double_sharing_chain_takes_exponentially_many_steps():
    # h(X1..Xn, Y1..Yn, Xn) = h(g(X0,X0)..g(Xn-1,Xn-1), g(Y0,Y0)..g(Yn-1,Yn-1), Yn):
    # the rules as stated decompose the two 2**n-node trees that Xn = Yn
    # stands for, about 4 * 2**n steps.  At n=24 that is about 67 M steps,
    # past the default budget of 38.9 M, so the input exits 70.
    counts = []
    for n in range(4, 13):
        xs = [Var(f"X{i}") for i in range(n + 1)]
        ys = [Var(f"Y{i}") for i in range(n + 1)]
        links = [Compound("g", (v[i], v[i])) for v in (xs, ys) for i in range(n)]
        lhs = Compound("h", (*xs[1:], *ys[1:], xs[n]))
        run = typed_unify(lhs, Compound("h", (*links, ys[n])), DEFS)
        assert isinstance(run.result, Solved)
        counts.append(run.steps)
    assert counts == [124, 202, 344, 614, 1140, 2178, 4240, 8350, 16556]


# --- deep states --------------------------------------------------------------------


def test_ten_thousand_deep_state_solves():
    # the store's deref, materialise and occurs walks are loops, so a binding
    # 10**4 levels deep costs no Python stack; `==` on the deep results would
    # recurse, so their shapes are walked here by hand
    n = 10_000
    a, b, c = TVar("A"), TVar("B"), TVar("C")
    spine = b
    for _ in range(n):
        spine = lst(spine)
    x_side, one_side = Var("X"), mk_int(1)
    for _ in range(n):
        x_side, one_side = Compound("f", (x_side,)), Compound("f", (one_side,))
    state = ConstraintState(
        terms=(TermConstraint(x_side, one_side),),
        types=(TypeConstraint(a, spine), TypeConstraint(b, Base("int")), TypeConstraint(c, a)),
    )
    run = solve(state)
    assert isinstance(run.result, Solved)
    assert run.steps == n + 2  # eliminate A, eliminate B, then n decomposes
    assert run.result.subst == {"X": mk_int(1)}
    type_subst = run.result.type_subst
    assert list(type_subst) == ["A", "B", "C"] and type_subst["B"] == Base("int")
    assert type_subst["C"] is type_subst["A"]  # one object for the one binding
    depth, ty = 0, type_subst["A"]
    while isinstance(ty, SymApp):
        assert ty.symbol == "list" and len(ty.args) == 1
        depth, ty = depth + 1, ty.args[0]
    assert depth == n and ty == Base("int")


# --- long lists and the parts built on demand ------------------------------------------


def test_fifteen_hundred_element_lists_unify_and_infer():
    # generation keeps its own stack, so list length costs no Python frames
    n = 1500
    xs = [Var(f"X{i}") for i in range(n)]
    ints = [mk_int(i) for i in range(n)]
    lhs, rhs = NIL, NIL
    for x, k in zip(reversed(xs), reversed(ints)):
        lhs, rhs = cons(x, lhs), cons(k, rhs)
    run = typed_unify(lhs, rhs, DEFS)
    assert isinstance(run.result, Solved)
    assert run.result.subst == {f"X{i}": mk_int(i) for i in range(n)}
    assert run.var_types == {f"X{i}": Base("int") for i in range(n)}
    typing = principal_typing(rhs, DEFS)
    assert (typing.context, typing.type) == ({}, lst(Base("int")))


@pytest.mark.parametrize(
    "lhs, rhs",
    [
        ("f(X, [Y | Z], X)", "f(1, [2, 3], W)"),
        ("[X, Y]", "[1, a]"),
        ("g(X, h(Y))", "g(h(Y), X)"),
        ("cons(X, Y)", "cons(Y, f(X))"),
    ],
)
def test_initial_is_built_on_read_and_matches_generation(lhs, rhs):
    """An untraced run's `initial`, read afterwards, is `gen_equation`'s
    state, names and order included; traced and untraced runs agree on the
    steps, the result and the variable types.
    """
    from regunify import derive_signatures, generic_context
    from regunify.constraints import FreshSupply

    from reference_constraints import gen_equation

    lhs, rhs = parse_term(lhs), parse_term(rhs)
    plain = typed_unify(lhs, rhs, DEFS)
    assert "initial" not in vars(plain)  # not built until read
    traced = typed_unify(lhs, rhs, DEFS, trace=True)
    fresh = FreshSupply()
    want = gen_equation(generic_context([lhs, rhs], fresh), derive_signatures(DEFS), lhs, rhs, fresh)
    assert plain.initial == want == traced.initial
    assert plain.initial is plain.initial
    assert list(plain.context.items()) == list(generic_context([lhs, rhs], FreshSupply()).items())
    assert (plain.steps, plain.result, plain.var_types) == (
        traced.steps,
        traced.result,
        traced.var_types,
    )
    assert plain.trace == () and len(traced.trace) <= traced.steps
