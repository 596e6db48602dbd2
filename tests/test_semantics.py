"""Ground evaluation, domains, three-valued equality, membership, enumeration."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regunify import (
    Base,
    BudgetExceeded,
    Compound,
    LiteralPool,
    NIL,
    SymApp,
    TVar,
    Var,
    cons,
    derive_signatures,
    enumerate_ground_terms,
    eq_values,
    eval_term,
    mk_atom,
    mk_float,
    mk_int,
    mk_list,
    member,
    parse_term,
    parse_typedefs,
    parse_type,
    stratified_pairs,
    validate,
)
from regunify.errors import NonGroundType, UnboundVariable
from regunify.syntax import free_ctor_symbol
from regunify.semantics import (
    ANY_ELEM,
    AtmV,
    BaseDom,
    BoolV,
    CtorV,
    IntV,
    SymDom,
    WrongV,
    meet_tags,
    sample_ground_terms,
)

INT_TAG, ATOM_TAG = BaseDom("int"), BaseDom("atom")
LIST_INT = SymDom("list", (INT_TAG,))
NIL_V = eval_term(NIL)


def term_depth(t):
    """Constructor-application depth; leaves sit at 0."""
    return 1 + max(map(term_depth, t.args)) if isinstance(t, Compound) else 0


def test_eval_list():
    got = eval_term(mk_list([mk_int(1), mk_int(2)]))
    assert got == CtorV("cons", (IntV(1), CtorV("cons", (IntV(2), NIL_V), LIST_INT)), LIST_INT)
    assert got.tag == got.children[1].tag == LIST_INT
    assert NIL_V == CtorV("[]", (), SymDom("list", (ANY_ELEM,)))


def test_eval_cons_of_nonlist_is_wrong():
    assert eval_term(cons(mk_int(1), mk_int(2))) == WrongV()


def test_eval_state_lookup():
    got = eval_term(cons(Var("Y"), mk_int(2)), {"Y": IntV(1)})
    assert got == WrongV()
    with pytest.raises(UnboundVariable):
        eval_term(Var("Z"))


def test_eval_mixed_element_list_is_wrong():
    assert eval_term(mk_list([mk_int(1), mk_atom("a")])) == WrongV()


def test_eval_wrong_absorbs():
    inner = cons(mk_int(1), mk_int(2))
    assert eval_term(Compound("f", (inner,))) == WrongV()
    assert eval_term(cons(inner, NIL)) == WrongV()


def test_eval_free_tree():
    got = eval_term(Compound("f", (mk_int(1), mk_atom("a"))))
    tag = SymDom(free_ctor_symbol("f"), (INT_TAG, ATOM_TAG))
    assert got == CtorV("f", (IntV(1), AtmV("a")), tag)
    assert got.tag == tag


def test_dom_singleton_but_nil():
    nil_tag = NIL_V.tag
    assert nil_tag == SymDom("list", (ANY_ELEM,))
    # the wildcard element stands for membership in every list domain
    assert meet_tags(nil_tag, eval_term(mk_list([mk_int(1)])).tag) == LIST_INT
    assert meet_tags(nil_tag, eval_term(mk_list([mk_atom("a")])).tag) is not None
    assert meet_tags(LIST_INT, eval_term(mk_list([mk_atom("a")])).tag) is None


def test_eq_values_basic():
    assert eq_values(IntV(1), IntV(1)) == "true"
    assert eq_values(IntV(1), AtmV("a")) == "wrong"
    # derived by direct domain evaluation: both sides in List(Int), unequal
    assert eq_values(
        eval_term(mk_list([mk_int(1)])), eval_term(mk_list([mk_int(2)]))
    ) == "false"


def test_eq_values_wrong_operand():
    assert eq_values(WrongV(), WrongV()) == "wrong"
    assert eq_values(IntV(0), WrongV()) == "wrong"


def test_eq_values_nil_vs_lists():
    assert eq_values(NIL_V, eval_term(mk_list([mk_int(1)]))) == "false"
    assert eq_values(NIL_V, eval_term(NIL)) == "true"


def test_cons_construction_rules():
    cell = cons(Var("H"), Var("T"))
    assert eval_term(cell, {"H": IntV(1), "T": NIL_V}) == CtorV("cons", (IntV(1), NIL_V), LIST_INT)
    assert eval_term(cell, {"H": IntV(1), "T": IntV(2)}) == WrongV()
    assert eval_term(cell, {"H": BoolV(True), "T": NIL_V}) == WrongV()
    assert eval_term(cell, {"H": WrongV(), "T": NIL_V}) == WrongV()


def test_member_base_and_lists(defs):
    assert member(IntV(1), Base("int"), defs)
    assert not member(IntV(1), Base("float"), defs)
    assert member(eval_term(mk_list([mk_int(1)])), parse_type("list(int)"), defs)
    assert member(NIL_V, parse_type("list(float)"), defs)
    assert not member(IntV(1), parse_type("list(int)"), defs)
    assert not member(eval_term(mk_list([mk_int(1)])), parse_type("list(atom)"), defs)


def test_member_wrong_never(defs):
    assert not member(WrongV(), Base("int"), defs)
    assert not member(WrongV(), parse_type("list(int)"), defs)


def test_member_requires_ground(defs):
    with pytest.raises(NonGroundType):
        member(IntV(1), TVar("A"), defs)


def test_member_user_definition(tree_defs):
    leaf = eval_term(parse_term("leaf(1)"))
    node = eval_term(parse_term("node(leaf(1), leaf(2))"))
    ty = parse_type("tree(int)", tree_defs)
    assert member(leaf, ty, tree_defs)
    assert member(node, ty, tree_defs)
    assert not member(leaf, parse_type("tree(atom)", tree_defs), tree_defs)
    assert not member(IntV(1), ty, tree_defs)


def test_member_free_constructor(defs):
    sig = derive_signatures(defs)
    v = eval_term(parse_term("g(1, a)"))
    scheme = sig.lookup_function("g", 2)
    ground = parse_type("int"), parse_type("atom")
    body = scheme.body
    ty = SymApp(body.codomain.symbol, ground)
    assert member(v, ty, defs)
    assert not member(v, SymApp(body.codomain.symbol, (ground[1], ground[0])), defs)


# --- the constructor rule over user definitions ---------------------------------


def _eval(text, defs):
    return eval_term(parse_term(text), defs=defs)


def test_declared_constants_live_in_their_types_domain():
    defs = validate(parse_typedefs("color --> red + green.\ntri(A) --> t3(A, A, A) + nil3."))
    red, green = _eval("red", defs), _eval("green", defs)
    assert red == CtorV("red", (), SymDom("color", ())) and red.tag == SymDom("color", ())
    assert _eval("nil3", defs).tag == SymDom("tri", (ANY_ELEM,))
    assert _eval("blue", defs) == AtmV("blue")  # declared by no definition
    assert eq_values(red, green) == "false"
    assert eq_values(red, AtmV("a")) == "wrong"
    assert eq_values(_eval("nil3", defs), red) == "wrong"
    # without the definitions a declared constant is a plain atom
    assert eval_term(mk_atom("red")) == AtmV("red")


def test_parameters_take_the_meet_of_what_they_meet():
    defs = validate(parse_typedefs("tri(A) --> t3(A, A, A) + nil3."))
    nested = SymDom("tri", (SymDom("tri", (ANY_ELEM,)),))
    assert _eval("t3(nil3, nil3, nil3)", defs).tag == nested
    assert _eval("t3([], [1], [])", defs).tag == SymDom("tri", (LIST_INT,))
    assert _eval("t3(1, 1, a)", defs) == WrongV()
    assert _eval("t3([1], [a], [])", defs) == WrongV()


def test_symbol_arguments_need_their_symbol(tree_defs):
    assert _eval("node(leaf(0), leaf(1))", tree_defs).tag == SymDom("tree", (INT_TAG,))
    assert _eval("leaf([])", tree_defs).tag == SymDom("tree", (SymDom("list", (ANY_ELEM,)),))
    assert _eval("node(0, 0)", tree_defs) == WrongV()
    assert _eval("node(leaf(0), leaf(a))", tree_defs) == WrongV()
    assert _eval("node(leaf(0), [])", tree_defs) == WrongV()


def test_base_and_constructor_term_arguments():
    text = "box --> bx(list(int)) + empty.\np(A) --> wrap(cons(A, [])) + none."
    defs = validate(parse_typedefs(text))
    assert _eval("bx([])", defs).tag == SymDom("box", ())
    assert _eval("bx([1, 0])", defs).tag == SymDom("box", ())
    assert _eval("bx([a])", defs) == WrongV()
    assert _eval("bx(1)", defs) == WrongV()
    # a constructor term used as a type argument admits no ground value
    assert _eval("wrap([1])", defs) == WrongV()
    assert _eval("wrap([])", defs) == WrongV()
    assert _eval("none", defs).tag == SymDom("p", (ANY_ELEM,))


def test_semantics_names_no_list_constructor():
    # lists are the built-in definition, read like any other
    import ast
    import regunify.semantics as semantics

    tree = ast.parse(open(semantics.__file__, encoding="utf-8").read())
    strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    assert not strings & {"cons", "[]"}
    for name in ("NilV", "ConsV", "ListDom", "TreeDom", "EmptyListAny", "NIL_VALUE", "mk_cons"):
        assert not hasattr(semantics, name)


def test_long_and_deep_values_evaluate():
    n = 10**4
    v = eval_term(mk_list([mk_int(i) for i in range(n)]))
    for i in range(n):
        assert v.root == "cons" and v.children[0] == IntV(i) and v.tag == LIST_INT
        v = v.children[1]
    assert v == NIL_V
    term = mk_int(0)
    for _ in range(n):
        term = Compound("f", (term,))
    v = eval_term(term)
    tag = v.tag
    for _ in range(n):
        assert v.root == "f" and tag.symbol == free_ctor_symbol("f") and len(tag.args) == 1
        v, tag = v.children[0], tag.args[0]
    assert v == IntV(0) and tag == INT_TAG
    # meeting two such tags walks them without recursion
    assert meet_tags(eval_term(term).tag, eval_term(term).tag) is not None


def test_eq_values_on_deep_values():
    # two separately built 10^4-deep values, equal or differing only in the
    # leaf at the bottom, are compared without recursion
    def nest(leaf):
        term = leaf
        for _ in range(10**4):
            term = Compound("f", (term,))
        return eval_term(term)

    assert eq_values(nest(mk_int(1)), nest(mk_int(1))) == "true"
    assert eq_values(nest(mk_int(1)), nest(mk_int(2))) == "false"
    long = eval_term(mk_list([mk_int(i) for i in range(10**4)]))
    assert eq_values(long, eval_term(mk_list([mk_int(i) for i in range(10**4)]))) == "true"


# --- enumeration ---------------------------------------------------------------


def _vocab_sig(defs):
    return derive_signatures(defs).with_function("f", 1)


def test_enumerate_depth0(defs):
    pool = LiteralPool(ints=(0, 1), floats=(), strings=(), atoms=("a",))
    got = list(enumerate_ground_terms(_vocab_sig(defs), 0, pool))
    assert got == [mk_int(0), mk_int(1), mk_atom("a"), NIL]


def test_enumerate_depth2_contains(defs):
    pool = LiteralPool(ints=(1,), floats=(), strings=(), atoms=())
    got = list(enumerate_ground_terms(_vocab_sig(defs), 2, pool))
    assert mk_int(1) in got
    assert NIL in got
    assert cons(mk_int(1), NIL) in got
    assert cons(cons(mk_int(1), NIL), NIL) in got


def test_enumerate_unique_and_depth_stratified(defs):
    pool = LiteralPool(ints=(0, 1), floats=(), strings=(), atoms=("a",))
    got = list(enumerate_ground_terms(_vocab_sig(defs), 2, pool))
    assert len(got) == len(set(got))
    depths = [term_depth(t) for t in got]
    assert sorted(depths) == depths  # levels stream in depth order
    assert max(depths) == 2


def test_enumerate_budget(defs):
    pool = LiteralPool(ints=(0, 1), floats=(), strings=(), atoms=("a",))
    with pytest.raises(BudgetExceeded):
        list(enumerate_ground_terms(_vocab_sig(defs), 3, pool, max_terms=1000))


def test_stratified_pairs_deterministic(defs):
    pool = LiteralPool(ints=(0, 1), floats=(), strings=(), atoms=("a",))
    terms = list(enumerate_ground_terms(_vocab_sig(defs), 2, pool))
    p1 = stratified_pairs(terms, max_pairs=500)
    p2 = stratified_pairs(terms, max_pairs=500)
    assert p1 == p2
    kept = {a for a, _ in p1}
    # the cartesian square of the kept sample, every shallow term included
    assert len(p1) == len(kept) ** 2
    assert all(t in kept for t in terms if term_depth(t) <= 1)


# --- the sweep sampler against the full enumeration -------------------------------

_SWEEP_POOL = LiteralPool(ints=(0, 1), floats=(), strings=(), atoms=("a",))
_SWEEP_LIMITS = (0, 1, 1600, 4225, 10_000)
# 6/7, 13/14 and 35/36 sit at the strides of depth-2 sweeps (limits 10 000,
# 4225 and 1600), 4806/4807 at that of a depth-3 sweep of 10 000 pairs
_SWEEP_SEEDS = (0, 6, 7, 13, 14, 35, 36, 977, 10**9 + 7)
# 10**6 pairs keep more terms than depth 2 has: every term, whatever the seed
_GRID = [(limit, seed) for limit in _SWEEP_LIMITS for seed in _SWEEP_SEEDS]
_GRID += [(10**6, 0), (10**6, 977)]


def _assert_sampler_matches(sig, depth, pool, cases):
    terms = list(enumerate_ground_terms(sig, depth, pool))
    for limit, seed in cases:
        pairs = stratified_pairs(terms, max_pairs=limit, seed=seed)
        count, kept = sample_ground_terms(sig, depth, pool, max_pairs=limit, seed=seed)
        # the pairs are every ordered pair of the kept terms, so their first
        # row lists the kept terms in order
        assert count == len(terms), (depth, limit, seed)
        assert len(pairs) == len(kept) ** 2, (depth, limit, seed)
        assert [b for _, b in pairs[: len(kept)]] == kept, (depth, limit, seed)


@pytest.mark.parametrize("depth", [-1, 0, 1, 2])
def test_sampler_matches_stratified_pairs(defs, depth):
    _assert_sampler_matches(_vocab_sig(defs), depth, _SWEEP_POOL, _GRID)


def test_sampler_matches_stratified_pairs_at_depth3(defs):
    # each reference call splits all 365 424 terms, so take a cut of the grid
    cases = [(10_000, 0), (10_000, 4806), (10_000, 4807), (1600, 977), (10**6, 5)]
    _assert_sampler_matches(_vocab_sig(defs), 3, _SWEEP_POOL, cases)


def test_sampler_matches_with_constant_and_ternary_constructors():
    defs = validate(parse_typedefs("tri(A) --> t3(A, A, A) + nil3.\nunit --> tt."))
    sig = _vocab_sig(defs)
    assert ("t3", 3) in sig.functions and {"nil3", "tt"} <= set(sig.constants)
    for depth in (0, 1):  # every term is shallow: the seed plays no part
        _assert_sampler_matches(sig, depth, _SWEEP_POOL, [(0, 0), (1600, 7), (10**6, 36)])
    # constants only, so that depth 2 stays small: 75 897 terms
    bare = LiteralPool(ints=(), floats=(), strings=(), atoms=())
    _assert_sampler_matches(sig, 2, bare, [(0, 0), (1600, 7), (10_000, 977), (10**6, 36)])
    for make in (sample_ground_terms, lambda *a, **k: list(enumerate_ground_terms(*a, **k))):
        with pytest.raises(BudgetExceeded, match="enumeration exceeded 1000 terms"):
            make(sig, 2, _SWEEP_POOL, max_terms=1000)


def test_sampler_budget_is_counted_not_built(defs):
    sig = _vocab_sig(defs)
    with pytest.raises(BudgetExceeded, match="enumeration exceeded 1000 terms"):
        sample_ground_terms(sig, 3, _SWEEP_POOL, max_terms=1000)
    # the count's digits double with each level, so depth 40 answers only
    # because counting stops at the first level past the budget
    with pytest.raises(BudgetExceeded, match="enumeration exceeded 1000000 terms"):
        sample_ground_terms(sig, 40, _SWEEP_POOL)
    assert sample_ground_terms(sig, 3, _SWEEP_POOL, max_terms=365_424)[0] == 365_424


# --- oracle invariants: wrong absorption, symmetry, reflexivity -------------------


_pool = LiteralPool(ints=(0, 1), floats=(0.5,), strings=("s",), atoms=("a",))


def _small_values(defs):
    sig = _vocab_sig(defs)
    return [eval_term(t) for t in enumerate_ground_terms(sig, 1, _pool)]


def test_eq_symmetric_and_reflexive():
    defs = validate(())
    values = _small_values(defs)
    for v1, v2 in itertools.product(values, repeat=2):
        assert eq_values(v1, v2) == eq_values(v2, v1)
    for v in values:
        if v != WrongV():
            assert eq_values(v, v) == "true"


@given(st.integers(-3, 3), st.integers(-3, 3))
def test_eq_ints(a, b):
    assert eq_values(IntV(a), IntV(b)) == ("true" if a == b else "false")


def test_int_float_domains_disjoint():
    assert eq_values(IntV(1), eval_term(mk_float(1.0))) == "wrong"


def test_evaluation_typing_coherence(defs, sig):
    """Ground terms with a derivable ground typing evaluate into that type."""
    from regunify import check, principal_typing
    from regunify.solver import SolveWrong

    pool = LiteralPool(ints=(0, 1), floats=(), strings=(), atoms=("a",))
    count = 0
    for t in enumerate_ground_terms(derive_signatures(defs), 2, pool):
        pt = principal_typing(t, defs)
        if isinstance(pt, SolveWrong):
            continue
        ty = pt.type
        from regunify.syntax import free_type_vars

        if free_type_vars(ty):
            continue  # only ground types are decidable by member
        assert check({}, sig, t, ty)
        assert member(eval_term(t), ty, defs)
        count += 1
    # most cons combinations are ill-typed and nil is polymorphic, so the
    # ground-typed residue is small but must cover every depth
    assert count >= 15
