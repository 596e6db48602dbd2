"""Typed resolution: branch verdicts, aggregation, budgets, renaming."""

from regunify import (
    Base,
    NIL,
    Clause,
    NoFalse,
    NoUnknown,
    NoWrong,
    ResolutionBudget,
    SymApp,
    TVar,
    Var,
    Yes,
    apply_subst,
    mk_int,
    mk_list,
    parse_program,
    parse_query,
    parse_signatures,
    parse_term,
    rename_clause,
    resolve,
    validate,
)
from regunify.constraints import FreshSupply

DEFS = validate(())
P0 = parse_program("p(0).")

LENGTH_SRC = """
length([], 0).
length([_|T], N) :- length(T, N1), N is N1 + 1.
"""
LENGTH_SIG = parse_signatures("length : list(A) * int -> bool.")


def run(program_src, query_src, overrides=None, budget=None):
    program = parse_program(program_src) if isinstance(program_src, str) else program_src
    kwargs = {"overrides": overrides}
    if budget is not None:
        kwargs["budget"] = budget
    return resolve(program, parse_query(query_src), DEFS, **kwargs)


def test_match_succeeds():
    report = run("p(0).", "?- p(0).")
    assert report.outcome == Yes(bindings={}, var_types={})


def test_answer_binding_and_type():
    report = run("p(0).", "?- p(X).")
    assert report.outcome == Yes(bindings={"X": mk_int(0)}, var_types={"X": Base("int")})


def test_final_mismatch_is_false():
    report = run("p(0).", "?- p(1).")
    assert report.outcome == NoFalse()
    [note] = report.branches
    assert (note.verdict, note.final, note.via) == ("false", True, "clause")


def test_nonfinal_mismatch_is_unknown():
    # a failed first goal leaves the later goals unjudged
    report = run("p(0).", "?- p(1), p(0).")
    assert report.outcome == NoUnknown(budget_exceeded=False)
    assert report.branches[0].final is False


def test_type_error_is_wrong():
    report = run("p(0).", "?- p(a).")
    assert report.outcome == NoWrong()
    [note] = report.branches
    assert note.verdict == "wrong"


def test_wrong_beats_nonfinal_false():
    # wrong dominates no matter where in the conjunction it shows up
    report = run("p(0). q(a).", "?- p(a), q(a).")
    assert report.outcome == NoWrong()


def test_goal_without_clauses():
    report = run("p(0).", "?- q(0).")
    assert report.outcome == NoFalse()
    [note] = report.branches
    assert (note.verdict, note.via, note.against) == ("false", "no_clauses", None)


def test_equality_goal_solves():
    report = run("", "?- X = cons(1, []).")
    assert report.outcome == Yes(
        bindings={"X": mk_list([mk_int(1)])},
        var_types={"X": SymApp("list", (Base("int"),))},
    )
    [note] = report.branches
    assert note.via == "equality"


def test_equality_goal_false_and_wrong():
    assert run("", "?- 1 = 2.").outcome == NoFalse()
    assert run("", "?- X = cons(1, 2).").outcome == NoWrong()


def test_swapped_arguments_all_branches_wrong():
    report = run(LENGTH_SRC, "?- length(3, [a, b, c]).", overrides=LENGTH_SIG)
    assert report.outcome == NoWrong()
    assert len(report.branches) == 2
    assert all(n.verdict == "wrong" and n.final for n in report.branches)


def test_well_typed_query_threads_bindings():
    report = run(LENGTH_SRC, "?- length([a, b], 0).", overrides=LENGTH_SIG)
    # the empty-list clause rejects finitely; the uninterpreted `is` goal in
    # the recursive clause leaves a non-final false, so overall unknown
    assert report.outcome == NoUnknown(budget_exceeded=False)
    vias = {n.via for n in report.branches}
    assert "no_clauses" in vias  # the `is` goal was reached and had no clauses


def test_polymorphic_signature_shares_one_instance_across_arguments():
    # `A * A`: both arguments of a goal meet one instance of A, so they must
    # agree in type; the default signature gives each argument its own
    same = parse_signatures("same : A * A -> bool.")
    assert run("same(X, Y).", "?- same(1, a).", overrides=same).outcome == NoWrong()
    assert isinstance(run("same(X, Y).", "?- same(1, a).").outcome, Yes)
    assert run("same(X, Y).", "?- same(1, Z).", overrides=same).outcome.var_types == {
        "Z": Base("int")
    }
    assert isinstance(run("same(X, Y).", "?- same(1, Z).").outcome.var_types["Z"], TVar)


def test_deep_recursion_hits_budget():
    report = run("p :- p.", "?- p.", budget=ResolutionBudget(max_steps=10))
    assert report.outcome == NoUnknown(budget_exceeded=True)
    report = run("p :- p.", "?- p.", budget=ResolutionBudget(max_depth=5))
    assert report.outcome == NoUnknown(budget_exceeded=True)


def test_deep_derivation_is_bounded_by_max_depth_alone():
    # 301 derivation steps deep: the search keeps its choice points on a
    # stack of its own, so Python's recursion limit does not cut it short
    items = ", ".join(str(i) for i in range(300))
    report = run(
        "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).",
        f"?- app([{items}], [999], R).",
        budget=ResolutionBudget(max_depth=10_000),
    )
    assert isinstance(report.outcome, Yes)
    assert list(report.outcome.bindings) == ["R"]
    items, rest = [], report.outcome.bindings["R"]
    while rest != NIL:  # walked here: `==` on a 301-deep list recurses too far
        items.append(rest.args[0])
        rest = rest.args[1]
    assert items == [mk_int(i) for i in [*range(300), 999]]


def test_clause_order_first_answer_wins():
    report = run("r(1). r(2).", "?- r(X).")
    assert report.outcome.bindings == {"X": mk_int(1)}


def test_goal_order_is_leftmost():
    report = run("a(1). b(2).", "?- a(X), b(X).")
    assert report.outcome == NoFalse()
    assert [n.goal.functor for n in report.branches] == ["a", "b"]


def test_success_is_stable_under_its_answer():
    program = "p(0). q(cons(0, []))."
    query = parse_query("?- p(X), q(cons(X, [])).")
    report = resolve(parse_program(program), query, DEFS)
    assert isinstance(report.outcome, Yes)
    theta = report.outcome.bindings
    again = resolve(
        parse_program(program), tuple(apply_subst(theta, g) for g in query), DEFS
    )
    assert isinstance(again.outcome, Yes)
    assert again.outcome.bindings == {}


def test_rename_clause_freshens_every_variable():
    clause = Clause(
        head=parse_term("len(cons(H, T), N)"),
        body=(parse_term("len(T, M)"),),
    )
    renamed = rename_clause(clause, FreshSupply())
    originals = {"H", "T", "N", "M"}

    def names(t, acc):
        if isinstance(t, Var):
            acc.add(t.name)
        elif hasattr(t, "args"):
            for a in t.args:
                names(a, acc)
        return acc

    got = names(renamed.head, set())
    for g in renamed.body:
        names(g, got)
    assert not got & originals
    assert all(n.startswith("$") for n in got)
    assert len(got) == 4
    # the shared variable T renames consistently across head and body
    head_t = renamed.head.args[0].args[1]
    body_t = renamed.body[0].args[0]
    assert head_t == body_t


def test_steps_counted():
    report = run("p(0).", "?- p(0).")
    assert report.steps == 1
    report = run(LENGTH_SRC, "?- length(3, [a, b, c]).", overrides=LENGTH_SIG)
    assert report.steps == 2
