"""Structural operations on terms and type expressions."""

from hypothesis import given
from hypothesis import strategies as st

from regunify import (
    Base,
    Compound,
    Const,
    CtorApp,
    NIL,
    SymApp,
    TVar,
    Var,
    apply_subst,
    apply_type_subst,
    cons,
    free_type_vars,
    free_vars,
    mk_atom,
    mk_int,
    mk_list,
)
from regunify.syntax import FuncType, tree_counts

INT = Base("int")


def test_apply_subst_example():
    t = cons(Var("X"), NIL)
    assert apply_subst({"X": mk_int(1)}, t) == cons(mk_int(1), NIL)


def test_apply_subst_identity():
    t = Compound("f", (Var("X"),))
    assert apply_subst({}, t) == t


def test_apply_subst_simultaneous():
    # {X -> f(Y), Y -> a} applied to g(X, Y): Y inside f(Y) is NOT re-substituted
    theta = {"X": Compound("f", (Var("Y"),)), "Y": mk_atom("a")}
    got = apply_subst(theta, Compound("g", (Var("X"), Var("Y"))))
    assert got == Compound("g", (Compound("f", (Var("Y"),)), mk_atom("a")))


def test_apply_subst_keeps_what_it_leaves_alone():
    # 10**4 elements, past the interpreter's recursion limit: the bound head
    # is replaced, and the tail, under which nothing is bound, is the same
    # object afterwards
    tail = mk_list([mk_int(i) for i in range(10_000)])
    got = apply_subst({"X": mk_int(1), "Y": mk_atom("a")}, cons(Var("X"), tail))
    assert got.args[0] == mk_int(1) and got.args[1] is tail
    t = cons(Var("Z"), tail)
    assert apply_subst({"X": mk_int(1)}, t) is t
    deep = mk_int(0)
    for _ in range(10_000):
        deep = Compound("f", (deep, Var("X")))
    got = apply_subst({"X": mk_atom("a")}, deep)
    for _ in range(10_000):  # compared level by level: == would recurse
        assert got.functor == "f" and got.args[1] == mk_atom("a")
        got = got.args[0]
    assert got == mk_int(0)


def test_apply_subst_rebuilds_a_shared_subterm_once():
    t = Compound("h", (Var("X"), Var("Y")))
    for _ in range(40):
        t = Compound("g", (t, t))
    got = apply_subst({"X": mk_int(1)}, t)
    assert got.args[0] is got.args[1]
    assert free_vars(got) == ["Y"]


def test_apply_type_subst_example():
    assert apply_type_subst({"B": INT}, SymApp("list", (TVar("B"),))) == SymApp(
        "list", (INT,)
    )
    assert apply_type_subst({}, TVar("A")) == TVar("A")


def test_apply_type_subst_structural():
    ty = CtorApp("cons", (TVar("A"), SymApp("list", (TVar("A"),))))
    got = apply_type_subst({"A": SymApp("list", (TVar("G"),))}, ty)
    assert got == CtorApp(
        "cons",
        (
            SymApp("list", (TVar("G"),)),
            SymApp("list", (SymApp("list", (TVar("G"),)),)),
        ),
    )


def test_apply_type_subst_on_deep_types():
    # 10**4 levels, past the interpreter's recursion limit: every level is
    # rebuilt where a variable under it is bound, and a type under which
    # nothing is bound is the same object afterwards
    deep = TVar("A")
    for _ in range(10_000):
        deep = CtorApp("cons", (INT, SymApp("list", (deep,))))
    got = apply_type_subst({"A": INT}, deep)
    for _ in range(10_000):  # compared level by level: == would recurse
        assert type(got) is CtorApp and got.args[0] is INT
        got = got.args[1]
        assert type(got) is SymApp and got.symbol == "list"
        got = got.args[0]
    assert got == INT
    assert apply_type_subst({"B": INT}, deep) is deep
    shared = TVar("A")
    for _ in range(40):
        shared = SymApp("pair", (shared, shared))
    got = apply_type_subst({"A": INT}, shared)
    assert got.args[0] is got.args[1]
    assert free_type_vars(got) == []


def test_free_vars():
    assert free_vars(cons(Var("X"), Var("Y"))) == ["X", "Y"]
    assert free_vars(mk_int(1)) == []
    assert free_type_vars(SymApp("list", (TVar("A"),))) == ["A"]


def test_free_vars_of_function_type():
    ft = FuncType((TVar("B"), SymApp("list", (TVar("A"), TVar("B")))), TVar("C"))
    assert free_vars(ft) == ["B", "A", "C"]
    assert free_type_vars(FuncType((Base("int"),), TVar("A"))) == ["A"]


def test_free_vars_of_deep_term():
    # nested far past the interpreter's recursion limit
    t = Var("X")
    for i in range(10_000):
        t = Compound("f", (t, Var(f"Y{i % 3}")))
    names = free_vars(t)  # compared apart from t, whose repr is too deep
    assert names == ["X", "Y0", "Y1", "Y2"]


def test_free_vars_of_shared_chain():
    # g(t, t) with one object t, 40 times over: the tree has 2**41 - 1 nodes
    t = Compound("h", (Var("X"), Var("Y")))
    for _ in range(40):
        t = Compound("g", (t, t))
    names = free_vars(Compound("k", (t, Var("Z"), t)))  # no repr of the tree
    assert names == ["X", "Y", "Z"]


def test_sizes_and_depth():
    t = cons(mk_int(1), cons(mk_int(2), NIL))
    assert tree_counts((t,))[1] == 5
    assert tree_counts((SymApp("list", (INT,)),))[1] == 2


def test_shared_subterms_count_as_trees():
    # g(t, t) with one object t, 40 times over: a tree of 2**41 - 1 nodes
    t = Var("X")
    for _ in range(40):
        t = Compound("g", (t, t))
    assert tree_counts((t,))[1] == 2**41 - 1
    assert tree_counts((t, Var("X"), mk_int(0))) == ({"X": 2**40 + 1}, 2**41 + 1)


# --- property tests --------------------------------------------------------------

_names = st.sampled_from(["X", "Y", "Z", "W"])


@st.composite
def terms(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        which = draw(st.integers(0, 2))
        if which == 0:
            return Var(draw(_names))
        if which == 1:
            return mk_int(draw(st.integers(0, 3)))
        return mk_atom(draw(st.sampled_from(["a", "b"])))
    functor = draw(st.sampled_from(["f", "g", "cons"]))
    n = 2 if functor in ("g", "cons") else 1
    return Compound(functor, tuple(draw(terms(depth - 1)) for _ in range(n)))


def _naive_free_vars(t, acc=None):
    """Recursive first-occurrence walk, for comparison."""
    acc = [] if acc is None else acc
    if isinstance(t, Var) and t.name not in acc:
        acc.append(t.name)
    for a in getattr(t, "args", ()):
        _naive_free_vars(a, acc)
    return acc


@given(terms(), terms(depth=2))
def test_free_vars_matches_recursive_walk(t, other):
    assert free_vars(t) == _naive_free_vars(t)
    shared = Compound("g", (t, other, t))  # the same object twice
    assert free_vars(shared) == _naive_free_vars(shared)


@given(terms(), _names, terms(depth=2))
def test_subst_distributes(t, name, replacement):
    theta = {name: replacement}
    if isinstance(t, Compound):
        got = apply_subst(theta, t)
        assert got == Compound(t.functor, tuple(apply_subst(theta, a) for a in t.args))


@given(terms(), _names, terms(depth=2))
def test_ground_subst_idempotent(t, name, replacement):
    if free_vars(replacement):
        return
    theta = {name: replacement}
    once = apply_subst(theta, t)
    assert apply_subst(theta, once) == once


def test_mk_list_sugar():
    assert mk_list([mk_int(1), mk_int(2)]) == cons(mk_int(1), cons(mk_int(2), NIL))
    assert mk_list([], tail=Var("T")) == Var("T")


def test_const_kinds():
    assert Const(1, "int") != Const(1.0, "float")
    assert Const("a", "atom") != Const("a", "string")
