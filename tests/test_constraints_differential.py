"""The iterative constraint generator against the recursive reference walk.

`gen_columns` must append the same constraint sides in the same order,
return the same type, leave the fresh supply at the same point and raise
the same error as `tests/reference_constraints.py` does on the same input.
The inputs are hypothesis terms with shared subterms, polymorphic `[]` and
user-defined constants and constructors, including schemes whose instances
cannot be built from a plan; the unify_large benchmark shapes; and the
argument pairs of clause tries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from regunify import (
    NIL,
    Clause,
    Compound,
    FreshSupply,
    RegunifyError,
    Var,
    derive_signatures,
    gen_equation,
    gen_term,
    generic_context,
    mk_atom,
    mk_int,
    mk_string,
    parse_signatures,
    parse_typedefs,
    rename_clause,
    typed_unify,
    validate,
)
from regunify.constraints import GenericContext, gen_columns, gen_equation_columns

import reference_constraints as ref

DEFS = validate(
    parse_typedefs(
        "tree(A) --> leaf + node(A, tree(A), tree(A)).\n"
        "pair(A, B) --> mk(A, B).\n"
        "box --> boxed(int) + empty.\n"
        "wrap(A) --> w(list(A)).\n"
        "tagged(A) --> tg(A, int).\n"
    )
)
# swap and dup have codomains that are not their generics in order, h has
# no generics: these are instantiated as written, the others from a plan
OVERRIDES = parse_signatures(
    "swap : A * B -> t(B, A).\n"
    "dup : A -> pair(A, A).\n"
    "mkp : A * B -> pair(A, B).\n"
    "pack : A -> u(A).\n"
    "h : int -> int.\n"
    "k : list(A).\n",
    DEFS,
)
SIGS = (derive_signatures(DEFS), derive_signatures(DEFS, OVERRIDES), derive_signatures(validate(())))


def supply(start):
    fresh = FreshSupply()
    for _ in range(start):
        fresh.tvar()
    return fresh


def reference_walk(ctx, sig, term, start):
    """(type and sides, or the error raised) and the supply's next name."""
    fresh, out = supply(start), []
    try:
        got = ref._gen(ctx, sig, term, fresh, out), [(c.lhs, c.rhs) for c in out]
    except RegunifyError as e:
        got = ("raised", type(e).__name__, str(e))
    return got, fresh.tvar()


def column_walk(ctx, sig, term, start):
    fresh, lhs, rhs = supply(start), [], []
    try:
        got = gen_columns(ctx, sig, term, fresh, lhs, rhs), list(zip(lhs, rhs))
    except RegunifyError as e:
        got = ("raised", type(e).__name__, str(e))
    return got, fresh.tvar()


# --- hypothesis-generated terms -----------------------------------------------------

_LEAVES = st.sampled_from(
    [Var("X"), Var("Y"), Var("Z"), Var("U"), NIL, mk_int(0), mk_string("s"), mk_atom("a")]
    + [mk_atom(name) for name in ("leaf", "empty", "k", "h")]
)
_FUNCTORS = [
    ("cons", 2), ("f", 1), ("g", 2), ("node", 3), ("mk", 2), ("boxed", 1), ("w", 1),
    ("tg", 2), ("swap", 2), ("dup", 1), ("mkp", 2), ("pack", 1), ("h", 1),
    ("node", 2), ("leaf", 1),  # a declared symbol at another arity
]


def _compounds(sub):
    applied = st.sampled_from(_FUNCTORS).flatmap(
        lambda fa: st.tuples(*[sub] * fa[1]).map(lambda args: Compound(fa[0], args))
    )
    shared = sub.map(lambda t: Compound("g", (t, t)))  # one subterm object, twice
    return st.one_of(applied, shared)


_TERMS = st.recursive(_LEAVES, _compounds, max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(
    term=_TERMS,
    sig=st.sampled_from(SIGS),
    partial=st.booleans(),
    start=st.integers(0, 30),
)
def test_terms_match_reference(term, sig, partial, start):
    """Same sides, type and supply position, or the same error: a variable
    missing from a partial context, or a symbol at the wrong arity.
    """
    ctx = generic_context([term], FreshSupply())
    if partial:
        ctx.pop("U", None)
    assert column_walk(ctx, sig, term, start) == reference_walk(ctx, sig, term, start)


@settings(max_examples=300, deadline=None)
@given(lhs=_TERMS, rhs=_TERMS, sig=st.sampled_from(SIGS))
def test_equations_match_reference(lhs, rhs, sig):
    """The object-building wrappers and the equation columns give the
    reference's objects, and a context filled by the walk is the generic
    context of both terms.
    """
    ctx = generic_context([lhs, rhs], FreshSupply())
    outcomes = []
    for gen in (gen_equation, ref.gen_equation):
        fresh = FreshSupply()
        try:
            outcomes.append((gen(ctx, sig, lhs, rhs, fresh), fresh.tvar()))
        except RegunifyError as e:
            outcomes.append((type(e).__name__, str(e), fresh.tvar()))
    assert outcomes[0] == outcomes[1]
    for gen in (gen_term, ref.gen_term):
        fresh = FreshSupply()
        try:
            outcomes.append((gen(ctx, sig, lhs, fresh), fresh.tvar()))
        except RegunifyError as e:
            outcomes.append((type(e).__name__, str(e), fresh.tvar()))
    assert outcomes[2] == outcomes[3]

    filled = GenericContext()
    fresh = FreshSupply()
    try:
        left, right = gen_equation_columns(filled, sig, lhs, rhs, fresh)
    except RegunifyError:
        return
    state = outcomes[1][0]
    assert [(c.lhs, c.rhs) for c in state.types] == list(zip(left, right))
    assert list(filled.items()) == list(ctx.items())


# --- the unify_large shapes -----------------------------------------------------------


def _list(items, tail=NIL):
    for item in reversed(items):
        tail = Compound("cons", (item, tail))
    return tail


def _nest(n, t):
    for _ in range(n):
        t = Compound("f", (t,))
    return t


def _shapes(n):
    """The wide, deep and chain pairs of unify_large at size n, each variant."""
    xs = [Var(f"X{i}") for i in range(n + 1)]
    links = tuple(Compound("g", (x, x)) for x in xs[:-1])
    yield _list(xs[:n]), _list([mk_int(i) for i in range(n)])
    yield _list(xs[:n]), _list([mk_int(i) for i in range(n - 1)] + [mk_atom("a")])
    yield _nest(n, xs[0]), _nest(n, mk_int(1))
    yield Compound("g", (xs[0], _nest(n, mk_int(1)))), Compound("g", (mk_int(3), _nest(n, mk_atom("a"))))
    yield Compound("f", tuple(xs[1:])), Compound("f", links)
    yield Compound("f", (*xs[1:], xs[0], xs[0])), Compound("f", (*links, mk_int(1), mk_int(2)))


def test_unify_large_shapes_match_reference():
    """At the benchmark's sizes, the generated sides match, and typed_unify
    keeps the reference's state as `initial` and the generic context.
    """
    sig = derive_signatures(validate(()))
    for n in (2, 10, 25, 45, 100):
        for lhs, rhs in _shapes(n):
            ctx = generic_context([lhs, rhs], FreshSupply())
            for term in (lhs, rhs):
                assert column_walk(ctx, sig, term, 0) == reference_walk(ctx, sig, term, 0)
            run = typed_unify(lhs, rhs, validate(()))
            assert run.initial == ref.gen_equation(ctx, sig, lhs, rhs, FreshSupply())
            assert list(run.context.items()) == list(ctx.items())


# --- clause tries -----------------------------------------------------------------------

_PROGRAM = [
    Clause(Compound("app", (NIL, Var("L"), Var("L")))),
    Clause(
        Compound("app", (_list([Var("H")], Var("T")), Var("L"), _list([Var("H")], Var("R")))),
        (Compound("app", (Var("T"), Var("L"), Var("R"))),),
    ),
    Clause(Compound("app", (Compound("node", (Var("V"), mk_atom("leaf"), mk_atom("leaf"))), NIL, Var("V")))),
]


@settings(max_examples=200, deadline=None)
@given(args=st.tuples(_TERMS, _TERMS, _TERMS), sig=st.sampled_from(SIGS), start=st.integers(0, 30))
def test_clause_try_pairs_match_reference(args, sig, start):
    """A goal against each renamed clause head: the argument pairs' sides,
    generated in turn from one supply, match the reference's pairs.
    """
    goal = Compound("app", args)
    for clause in _PROGRAM:
        fresh_new, fresh_ref = supply(start), supply(start)
        head = rename_clause(clause, fresh_new).head
        assert rename_clause(clause, fresh_ref).head == head
        ctx = generic_context((goal, head), FreshSupply())
        got, want = [], []
        try:
            for g_arg, h_arg in zip(goal.args, head.args):
                got += zip(*gen_equation_columns(ctx, sig, g_arg, h_arg, fresh_new))
        except RegunifyError as e:
            got = [type(e).__name__, str(e)]
        try:
            out = []
            for g_arg, h_arg in zip(goal.args, head.args):
                ref.gen_pair(ctx, sig, g_arg, h_arg, fresh_ref, out)
            want = [(c.lhs, c.rhs) for c in out]
        except RegunifyError as e:
            want = [type(e).__name__, str(e)]
        assert (got, fresh_new.tvar()) == (want, fresh_ref.tvar())


def test_depth_costs_no_stack():
    """A 10 000-deep term and a 10 000-element list type without recursion,
    and agree with the reference at a depth its frames allow.
    """
    sig = derive_signatures(validate(()))
    for n in (300, 10_000):
        for term, per_node in ((_nest(n, Var("X")), 1), (_list([mk_int(i) for i in range(n)]), 2)):
            ctx = generic_context([term], FreshSupply())
            got = column_walk(ctx, sig, term, 0)
            assert len(got[0][1]) == per_node * n
            if n == 300:
                assert got == reference_walk(ctx, sig, term, 0)
