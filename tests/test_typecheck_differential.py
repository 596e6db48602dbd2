"""The iterative checker against the frozen recursive one.

Both must agree on every judgment: the verdict, the first failing
sub-judgment with its resolved expected type, and the error raised, if any.
Failing judgments are the common case here, so the failing pair is
exercised as much as the verdict.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from regunify import (
    NIL,
    Base,
    Compound,
    SymApp,
    TVar,
    Var,
    check,
    check_equation_explain,
    check_explain,
    cli,
    derive_signatures,
    mk_atom,
    mk_float,
    mk_int,
    mk_list,
    parse_typedefs,
    validate,
)
from regunify.errors import ArityMismatch, UnboundVariable
from regunify.syntax import CtorApp, free_ctor_symbol

import reference_typecheck as ref

DEFS = validate(
    parse_typedefs("tree(A) --> leaf(A) + node(tree(A), tree(A)).\ncolor --> red + green.")
)
SIG = derive_signatures(DEFS)
INT, ATOM = Base("int"), Base("atom")

_leaf = st.sampled_from(
    [mk_int(0), mk_float(0.5), mk_atom("a"), mk_atom("red"), NIL]
    + [Var(n) for n in "XYZW"]  # W is not in any context
)
_term = st.recursive(
    _leaf,
    lambda sub: st.one_of(
        st.builds(lambda a, b: Compound("cons", (a, b)), sub, sub),
        st.builds(lambda a: Compound("leaf", (a,)), sub),
        st.builds(lambda a, b: Compound("node", (a, b)), sub, sub),
        st.builds(lambda a: Compound("f", (a,)), sub),
        st.builds(lambda a: Compound("cons", (a,)), sub),  # arity mismatch
    ),
    max_leaves=7,
)
_type = st.recursive(
    st.sampled_from([INT, ATOM, Base("float"), SymApp("color"), TVar("A"), TVar("B")]),
    lambda sub: st.one_of(
        st.builds(lambda a: SymApp("list", (a,)), sub),
        st.builds(lambda a: SymApp("tree", (a,)), sub),
        st.builds(lambda a: SymApp(free_ctor_symbol("f"), (a,)), sub),
        st.builds(lambda a: CtorApp("cons", (a, CtorApp("[]"))), sub),
    ),
    max_leaves=4,
)
_ctx = st.fixed_dictionaries({"X": _type, "Y": _type, "Z": _type})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (UnboundVariable, ArityMismatch) as e:
        return type(e).__name__


@settings(max_examples=400, deadline=None)
@given(_ctx, _term, _type)
def test_judgments_match_recursive_reference(ctx, term, ty):
    got = _outcome(check_explain, ctx, SIG, term, ty)
    assert got == _outcome(ref.check_explain, ctx, SIG, term, ty)


@settings(max_examples=300, deadline=None)
@given(_ctx, _term, _term)
def test_equations_match_recursive_reference(ctx, lhs, rhs):
    got = _outcome(check_equation_explain, ctx, SIG, lhs, rhs)
    assert got == _outcome(ref.check_equation_explain, ctx, SIG, lhs, rhs)


def test_long_lists_check():
    sig = derive_signatures(validate(()))
    ints = SymApp("list", (INT,))
    assert check({}, sig, mk_list([mk_int(i) for i in range(10**4)]), ints)
    # the failing judgment is the last element, found without recursion
    items = [mk_int(i) for i in range(10**4 - 1)] + [mk_atom("a")]
    ok, failing = check_explain({}, sig, mk_list(items), ints)
    assert not ok and failing == (mk_atom("a"), INT)


def test_long_list_check_through_the_cli(capsys):
    text = "[" + ", ".join(map(str, range(1500))) + "]"
    assert cli.main(["check", text, "list(int)"]) == 0
    assert capsys.readouterr().out == "yes\n"
