"""The incremental solver against the rescanning reference engine.

Both must agree on everything the rules define: the step count, the rule,
target and state of every step, and the result with its witness and both
unifiers, down to the order of their entries.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from regunify import (
    NIL,
    Base,
    Compound,
    Const,
    ConstraintState,
    CtorApp,
    Solved,
    SolveFalse,
    SolveWrong,
    SymApp,
    TVar,
    TermConstraint,
    TypeConstraint,
    Var,
    derive_signatures,
    enumerate_ground_terms,
    gen_equation,
    mk_atom,
    mk_int,
    mk_list,
    solve,
    stratified_pairs,
    validate,
)
from regunify import solver
from regunify.constraints import FreshSupply, generic_context
from regunify.semantics import LiteralPool
from regunify.solver import columns, solve_columns

from reference_solver import reference_solve

DEFS = validate(())
SIG = derive_signatures(DEFS)


def assert_same(state, trace=True, run=None):
    """Hold `run`, by default `solve` of the state, to the reference."""
    run = solve(state, trace=trace) if run is None else run
    ref = reference_solve(state, trace=trace)
    assert run.steps == ref.steps
    assert [(s.rule, s.target, s.state) for s in run.trace] == list(ref.trace)
    result = run.result
    if isinstance(result, Solved):
        assert ref.verdict == "solved"
        assert list(result.subst.items()) == list(ref.subst.items())
        assert list(result.type_subst.items()) == list(ref.type_subst.items())
    elif isinstance(result, SolveFalse):
        assert ref.verdict == "false"
        assert result.witness == ref.witness
        assert list(result.type_subst.items()) == list(ref.type_subst.items())
    else:
        assert ref.verdict == "wrong"
        assert result.witness == ref.witness
    return ref.verdict


def equation_state(lhs, rhs, sig=SIG):
    fresh = FreshSupply()
    return gen_equation(generic_context([lhs, rhs], fresh), sig, lhs, rhs, fresh)


# --- hypothesis-generated inputs ------------------------------------------------------

_leaf = st.one_of(
    st.integers(0, 2).map(mk_int),
    st.sampled_from(["a", "b"]).map(mk_atom),
    st.just(NIL),
    st.sampled_from(["X", "Y", "Z", "U"]).map(Var),
)
_terms = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: Compound("cons", p)),
        st.tuples(inner).map(lambda p: Compound("f", p)),
        st.tuples(inner, inner).map(lambda p: Compound("g", p)),
        st.tuples(inner, inner, inner).map(lambda p: Compound("h", p)),
    ),
    max_leaves=10,
)
_types = st.recursive(
    st.one_of(st.sampled_from(["A", "B", "C", "D"]).map(TVar), st.just(Base("int"))),
    lambda inner: st.one_of(
        st.tuples(inner).map(lambda p: SymApp("list", p)),
        st.tuples(inner, inner).map(lambda p: SymApp("pair", p)),
    ),
    max_leaves=5,
)


def _f(name, *args):
    return Compound(name, args)


def _pair(*args):
    return SymApp("pair", args)


@settings(max_examples=300, deadline=None)
@given(_terms, _terms)
# decompose rewrites its redex in place: the first child's entry sorts
# above the one that takes over the redex's cid and key
@example(
    _f("f", _f("g", mk_atom("a")), _f("h", Var("X"))),
    _f("f", _f("g", mk_atom("b")), _f("h", mk_int(1))),
)
def test_equations_match_reference(lhs, rhs):
    state = equation_state(lhs, rhs)
    assert_same(state)
    assert_same(state, trace=False)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_types, _types), max_size=6),
    st.lists(st.tuples(_terms, _terms), max_size=4),
)
# the second constraint is read again through the binding of X (A), then
# decomposed in place; in the nested ones its first child decomposes too,
# so that child's entry sorts above the one that keeps the redex's cid
@example(
    [],
    [(Var("X"), _f("f", Var("Y"), mk_atom("a"))), (Var("X"), _f("f", mk_atom("b"), Var("Z")))],
)
@example(
    [
        (TVar("A"), _pair(TVar("B"), Base("int"))),
        (TVar("A"), _pair(SymApp("list", (TVar("C"),)), TVar("D"))),
    ],
    [],
)
@example(
    [],
    [
        (Var("X"), _f("f", _f("g", Var("Y")), mk_atom("a"))),
        (Var("X"), _f("f", _f("g", mk_atom("b")), Var("Z"))),
    ],
)
@example(
    [
        (TVar("A"), _pair(SymApp("list", (TVar("B"),)), Base("int"))),
        (TVar("A"), _pair(SymApp("list", (SymApp("list", (TVar("C"),)),)), TVar("D"))),
    ],
    [],
)
def test_hand_built_states_match_reference(type_pairs, term_pairs):
    # states no equation generates: many constraints on few variables, so
    # eliminate, re-queued eliminate candidates and occurs all come up
    state = ConstraintState(
        terms=tuple(TermConstraint(a, b) for a, b in term_pairs),
        types=tuple(TypeConstraint(a, b) for a, b in type_pairs),
    )
    assert_same(state)
    assert_same(state, trace=False)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_types, _types), max_size=6),
    st.lists(st.tuples(_terms, _terms), max_size=4),
)
@example([], [])
def test_an_empty_set_matches_reference(type_pairs, term_pairs):
    # solve_columns builds no phase for an empty set: no type constraints,
    # as a replayed clause try passes, or no term constraints, as
    # principal_typing passes
    for types, terms in (([], term_pairs), (type_pairs, [])):
        state = ConstraintState(
            terms=tuple(TermConstraint(a, b) for a, b in terms),
            types=tuple(TypeConstraint(a, b) for a, b in types),
        )
        for trace in (True, False):
            run = solve_columns(
                columns([a for a, _ in types], [b for _, b in types]),
                columns([a for a, _ in terms], [b for _, b in terms]),
                trace,
            )
            assert_same(state, trace, run)


def test_an_empty_set_builds_no_phase(monkeypatch):
    built = []

    class Counted(solver._Phase):
        def __init__(self, columns, family):
            built.append(family.offset)
            super().__init__(columns, family)

    monkeypatch.setattr(solver, "_Phase", Counted)
    one = [(Var("X"), mk_int(1))]
    for terms, types, phases in (
        (one, [], [6]),
        ([], [(TVar("A"), Base("int"))], [0]),
        ([], [], []),
        (one, [(TVar("A"), Base("int"))], [0, 6]),
    ):
        built.clear()
        for trace in (True, False):
            run = solve_columns(
                columns([a for a, _ in types], [b for _, b in types]),
                columns([a for a, _ in terms], [b for _, b in terms]),
                trace,
            )
            assert isinstance(run.result, Solved)
        assert built == phases * 2


def _types(*pairs):
    return ConstraintState(terms=(), types=tuple(TypeConstraint(a, b) for a, b in pairs))


def _terms(*pairs):
    return ConstraintState(terms=tuple(TermConstraint(a, b) for a, b in pairs), types=())


A, B, C = TVar("A"), TVar("B"), TVar("C")
X, Y = Var("X"), Var("Y")
INT = Base("int")


def test_hand_picked_states_match_reference():
    # corners of the bookkeeping that random states reach only rarely
    states = [
        # a delete before eliminate first comes up, so before counting starts
        _types((A, A), (A, INT)),
        _terms((X, X), (X, mk_int(1))),
        # eliminating A makes B's binder cyclic without touching its left side
        _types((A, SymApp("list", (B,))), (B, SymApp("pair", (A, INT)))),
        _terms((X, Compound("f", (Y,))), (Y, Compound("g", (X, X)))),
        # two binders of one variable: the second becomes a clash
        _terms((X, mk_int(1)), (X, mk_int(2))),
        # renaming chain: each eliminate renames into a growing class
        _types((A, B), (B, C), (C, A), (SymApp("list", (A,)), SymApp("list", (INT,)))),
    ]
    verdicts = [assert_same(state) for state in states]
    assert verdicts == ["solved", "solved", "wrong", "false", "false", "solved"]
    # corners of the binding store: eliminate records v -> s and leaves the
    # other constraints as they were written
    D = TVar("D")
    states = [
        # the survivor's list is the shorter: A -> B joins B's list onto
        # A's, and (B, A) is found in B's list as a delete
        _types((A, B), (A, C), (A, INT), (B, A)),
        # (A, B), (B, A): the second is B = B once A is renamed to B
        _types((A, B), (B, A)),
        _terms((X, Y), (Y, X)),
        # D = A holds D only once B, nested in the binding of A, is bound to D
        _types((C, D), (A, SymApp("list", (B,))), (B, C), (D, A)),
        # a second binder of a renamed variable: A = INT is then B = INT
        _types((A, B), (A, INT), (B, Base("float"))),
        _terms((X, Y), (X, mk_int(1)), (Y, mk_int(2))),
        # A occurs in no other constraint but twice in its own: occurs, not
        # dropped as a variable seen once; the same after a rename
        _types((B, INT), (A, SymApp("list", (A,)))),
        _types((B, A), (A, SymApp("list", (B,)))),
        _terms((X, Compound("f", (X,))), (Y, mk_int(1))),
    ]
    verdicts = [assert_same(state) for state in states]
    assert verdicts == [
        "solved", "solved", "solved", "wrong", "wrong", "false", "wrong", "wrong", "false"
    ]


def test_classification_corners_match_reference():
    # the first rule each state calls for, read off the classes of the sides
    # of its one constraint; clash and occurs end the run at their first step
    shared_type, shared_term = SymApp("list", (A,)), Compound("f", (X, mk_int(1)))
    cases = [
        # one compound object on both sides decomposes; it is not deleted
        (_types((shared_type, shared_type)), 1),
        (_terms((shared_term, shared_term)), 7),
        # equal 0-arity rigid heads are deleted
        (_types((INT, Base("int"))), 2),
        (_types((SymApp("unit"), SymApp("unit"))), 2),
        (_types((CtorApp("[]"), CtorApp("[]"))), 2),
        (_terms((mk_int(1), mk_int(1))), 8),
        (_terms((NIL, mk_atom("[]"))), 8),
        # unequal ones clash, even under one name
        (_types((SymApp("unit"), CtorApp("unit"))), 3),
        (_types((INT, Base("float"))), 3),
        (_terms((mk_int(1), Const(1.0, "float"))), 9),
        (_terms((mk_atom("a"), Compound("a", (X,)))), 9),
        # a variable against itself
        (_types((A, A)), 2),
        (_terms((X, X)), 8),
        # rigid against a variable
        (_types((INT, A)), 4),
        (_types((SymApp("list", (B,)), A)), 4),
        (_terms((mk_int(1), X)), 10),
        (_terms((Compound("f", (Y,)), X)), 10),
        # a variable against a compound that holds it
        (_types((A, SymApp("list", (SymApp("list", (A,)),)))), 6),
        (_terms((X, Compound("g", (Y, Compound("f", (X,)))))), 12),
    ]
    for state, rule in cases:
        assert_same(state)
        run = solve(state, trace=True)
        if rule in (3, 6, 9, 12):
            assert run.steps == 1 and not run.trace
            assert run.result.witness == (state.types or state.terms)[0]
            assert isinstance(run.result, SolveWrong if rule <= 6 else SolveFalse)
        else:
            assert run.trace[0].rule == rule, state


# --- the criterion-07 corpus ------------------------------------------------------------


def test_ground_corpus_matches_reference():
    # every pair compares steps and results; every tenth also its trace
    sig = SIG.with_function("f", 1)
    pool = LiteralPool(ints=(0, 1), floats=(), strings=(), atoms=("a",))
    terms = list(enumerate_ground_terms(sig, 3, pool))
    pairs = stratified_pairs(terms, max_pairs=10_000, seed=0)
    seen = set()
    for i, (t1, t2) in enumerate(pairs):
        seen.add(assert_same(equation_state(t1, t2, sig), trace=i % 10 == 0))
    assert seen == {"solved", "false", "wrong"}


# --- the benchmark's shapes at small sizes ---------------------------------------------


def _nest(n, t):
    for _ in range(n):
        t = Compound("f", (t,))
    return t


def wide(n, variant):
    left = [Var(f"X{i}") for i in range(n)]
    right = [mk_int(i) for i in range(n)]
    if variant == "false":
        left[n // 2] = mk_int(n + 7)
    elif variant == "wrong":
        right[n // 2] = mk_atom("a")
    return mk_list(left), mk_list(right)


def deep(n, variant):
    if variant == "solved":
        return _nest(n, Var("X")), _nest(n, mk_int(1))
    other = mk_int(2) if variant == "false" else mk_atom("a")
    return (
        Compound("g", (Var("X"), _nest(n, mk_int(1)))),
        Compound("g", (mk_int(3), _nest(n, other))),
    )


def chain(n, variant):
    xs = [Var(f"X{i}") for i in range(n + 1)]
    links = tuple(Compound("g", (xs[i], xs[i])) for i in range(n))
    if variant == "solved":
        return Compound("f", tuple(xs[1:])), Compound("f", links)
    last = mk_int(2) if variant == "false" else mk_atom("a")
    return (
        Compound("f", (*xs[1:], xs[0], xs[0])),
        Compound("f", (*links, mk_int(1), last)),
    )


def test_shapes_match_reference():
    verdicts = []
    for shape, sizes in ((wide, range(2, 9)), (deep, range(1, 7)), (chain, range(1, 7))):
        for n, variant in itertools.product(sizes, ("solved", "false", "wrong")):
            verdicts.append(assert_same(equation_state(*shape(n, variant))))
    assert set(verdicts) == {"solved", "false", "wrong"}


def test_shapes_match_reference_at_benchmark_sizes():
    # the largest unify_large sizes, where the store's bindings chain and
    # share the most; traced at smaller sizes, where the reference's copied
    # states stay cheap
    for shape, n, traced in (
        (wide, 100, False), (deep, 45, False), (chain, 12, False),
        (wide, 25, True), (deep, 20, True), (chain, 8, True),
    ):
        verdicts = [
            assert_same(equation_state(*shape(n, variant)), trace=traced)
            for variant in ("solved", "false", "wrong")
        ]
        assert verdicts == ["solved", "false", "wrong"], (shape.__name__, n)


def test_long_run_on_one_constraint():
    # 300 steps on a single constraint pass the budget's walk-free lower
    # bound, (2 * 1)**2 * 64 = 256, so the exact size**2 * 64 applies
    state = ConstraintState(terms=(TermConstraint(*deep(300, "solved")),), types=())
    assert assert_same(state) == "solved"
    assert solve(state).steps == 300


def test_steps_consume_their_redex_and_decompose_in_place(monkeypatch):
    # each step leaves none of its redex's heap entries behind (one stays
    # only where the constraint now matches the same rule under the same
    # key), and a decompose of arity n makes n - 1 records, the last
    # arguments' equation keeping the redex's cid and key
    from regunify import solver

    fire, seen = solver._Phase.fire, set()

    def checked_fire(phase, rule, cid):
        entry, records, key = phase.heap[0], len(phase.rules), phase.keys[cid]
        arity = len(phase.lhs[cid].args) if rule == 1 else 1
        fire(phase, rule, cid)
        assert phase.heap.count(entry) == (phase.rules[cid] == rule), (rule, entry)
        assert (len(phase.rules) - records, phase.keys[cid]) == (arity - 1, key)
        seen.add((rule, arity > 2))

    monkeypatch.setattr(solver._Phase, "fire", checked_fire)
    Z, U = Var("Z"), Var("U")
    states = [
        equation_state(*shape(n, variant))
        for shape, n in ((wide, 6), (deep, 4), (chain, 4))
        for variant in ("solved", "false", "wrong")
    ]
    states += [
        # X = f(Y): read again through X's binding, decomposed in place, then
        # oriented to an eliminate whose stale twin is still in the heap
        _terms((X, _f("f", mk_atom("a"))), (X, _f("f", Y)), (Y, mk_atom("b"))),
        _types((A, SymApp("list", (INT,))), (A, SymApp("list", (B,))), (B, Base("float"))),
        _terms((U, _f("h", X, Y, Z)), (U, _f("h", mk_int(1), mk_int(2), mk_int(3))), (X, Y)),
    ]
    for state in states:
        assert_same(state)
        assert_same(state, trace=False)
    assert {(1, True), (2, False), (4, False), (5, False)} <= seen


# --- the constraint objects a traced run reuses -------------------------------------------


def test_a_traced_step_that_binds_nothing_rebuilds_only_what_it_rewrote(monkeypatch):
    # X = [1 | Y] binds X, so X = [Z] reads as [1 | Y] = [Z]: its decompose
    # binds nothing and makes Y = [] and 1 = Z, and the orient of 1 = Z binds
    # nothing either.  The k solved W_i = i stay live all along, so a step
    # that rebuilt every object would read 2k sides through the store.
    k = 40
    Z = Var("Z")
    state = _terms(
        *[(Var(f"W{i}"), mk_int(i)) for i in range(k)],
        (X, mk_list([mk_int(1)], tail=Y)),
        (X, mk_list([Z])),
    )
    count, per_step = [0], []
    read, trace_step = solver.resolve_store, solver.TraceStep

    def counted(*args):
        count[0] += 1
        return read(*args)

    def step(rule, target, state):
        per_step.append((rule, count[0], len(state.terms)))
        return trace_step(rule, target, state)

    monkeypatch.setattr(solver, "resolve_store", counted)
    monkeypatch.setattr(solver, "TraceStep", step)
    solve(state, trace=True)
    monkeypatch.undo()
    rules, reads, shown = zip(*per_step)
    assert rules == (11, 7, 10, 11)
    assert shown[1:3] == (k + 3, k + 3)
    # decompose builds its two children and orient its redex, each from two
    # sides; the live constraints were rebuilt after the binding before them
    assert reads[1] - reads[0] <= 4 and reads[2] - reads[1] <= 2, reads
    assert_same(state)


def test_traced_and_untraced_runs_agree_when_a_binding_reaches_a_built_object():
    # each state binds a variable that sits inside a side of a constraint
    # whose object an earlier traced state built; the traced run must read
    # that constraint again, and agree with the untraced run on the steps,
    # the witness and both unifiers
    Z, U = Var("Z"), Var("U")
    states = [
        # Y = g(X) is shown before X is bound; then it is Y = g(f(Y)), occurs
        _terms((X, _f("f", Y)), (Y, _f("g", X))),
        # U = h(X, Y) is shown as written, then with both inner bindings
        _terms((U, _f("h", X, Y)), (X, _f("f", Y)), (Y, mk_int(1))),
        # the binder U = f(X) is shown with f(Z), then f(1), as X and Z are
        # bound; then Z = 2 reads as the clash 1 = 2
        _terms((U, _f("f", X)), (U, _f("f", Z)), (X, mk_int(1)), (Z, mk_int(2))),
        # a type binding inside pair(A, B) before a term clash
        ConstraintState(
            terms=(TermConstraint(_f("g", X, mk_int(1)), _f("g", mk_int(2), Y)),),
            types=tuple(
                TypeConstraint(a, b) for a, b in ((C, _pair(A, B)), (A, INT), (B, C))
            ),
        ),
        # the type occurs check B = pair(pair(B, int), C) after A is bound
        _types((A, _pair(B, INT)), (B, _pair(A, C))),
    ]
    states += [
        equation_state(*shape(n, variant))
        for shape, n in ((wide, 8), (deep, 6), (chain, 5))
        for variant in ("solved", "false", "wrong")
    ]
    verdicts = set()
    for state in states:
        traced, plain = solve(state, trace=True), solve(state)
        assert traced.steps == plain.steps == len(traced.trace) + (not isinstance(traced.result, Solved))
        assert type(traced.result) is type(plain.result)
        if isinstance(plain.result, Solved):
            assert list(traced.result.subst.items()) == list(plain.result.subst.items())
        else:
            assert traced.result.witness == plain.result.witness
        if not isinstance(plain.result, SolveWrong):
            assert list(traced.result.type_subst.items()) == list(plain.result.type_subst.items())
        verdicts.add(assert_same(state))
    assert verdicts == {"solved", "false", "wrong"}
