"""Command-line behavior: outputs, exit codes, JSON/human agreement."""

import io
import json
import re
import subprocess
import sys
from pathlib import Path

from regunify.cli import _human_run, _human_unify, main

GOLDEN_TRACE = """\
start: C={[X] = [1 | Y]}  T={$X = $t1, list($t2) = list($t1), int = $t3, $Y = list($t3), list($t1) = list($t3)}
rule1: list($t2) = list($t1) ==> C={[X] = [1 | Y]}  T={$X = $t1, $t2 = $t1, int = $t3, $Y = list($t3), list($t1) = list($t3)}
rule1: list($t1) = list($t3) ==> C={[X] = [1 | Y]}  T={$X = $t1, $t2 = $t1, int = $t3, $Y = list($t3), $t1 = $t3}
rule4: int = $t3 ==> C={[X] = [1 | Y]}  T={$X = $t1, $t2 = $t1, $t3 = int, $Y = list($t3), $t1 = $t3}
rule5: $t3 = int ==> C={[X] = [1 | Y]}  T={$X = $t1, $t2 = $t1, $t3 = int, $Y = list(int), $t1 = int}
rule5: $t1 = int ==> C={[X] = [1 | Y]}  T={$X = int, $t2 = int, $t3 = int, $Y = list(int), $t1 = int}
rule7: [X] = [1 | Y] ==> C={X = 1, [] = Y}  T={$X = int, $t2 = int, $t3 = int, $Y = list(int), $t1 = int}
rule10: [] = Y ==> C={X = 1, Y = []}  T={$X = int, $t2 = int, $t3 = int, $Y = list(int), $t1 = int}
solved
bindings: {X = 1, Y = []}
types: {X : int, Y : list(int)}
"""


def cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- unify -------------------------------------------------------------------------


def test_unify_solved(capsys):
    code, out, _ = cli(capsys, "unify", "cons(X,[])", "cons(1,Y)")
    assert code == 0
    assert out == "solved\nbindings: {X = 1, Y = []}\ntypes: {X : int, Y : list(int)}\n"


def test_unify_trace_golden(capsys):
    code, out, _ = cli(capsys, "unify", "cons(X,[])", "cons(1,Y)", "--trace")
    assert code == 0
    assert out == GOLDEN_TRACE


def test_unify_trace_line_shape(capsys):
    _, out, _ = cli(capsys, "unify", "cons(X,[])", "cons(1,Y)", "--trace")
    lines = out.splitlines()
    assert lines[0].startswith("start: C={")
    step = re.compile(r"^rule(\d+): .+ ==> C=\{.*\}  T=\{.*\}$")
    rules = [int(step.match(ln).group(1)) for ln in lines[1:8]]
    assert rules == [1, 1, 4, 5, 5, 7, 10]


def test_unify_false(capsys):
    code, out, _ = cli(capsys, "unify", "f(1, a)", "f(2, a)")
    assert code == 1
    assert out == "false\ndisagreement: 1 = 2\ntypes: {}\n"


def test_unify_wrong(capsys):
    code, out, _ = cli(capsys, "unify", "cons(1, 2)", "X")
    assert code == 2
    assert out.splitlines()[0] == "wrong"
    assert "clash: " in out


def test_unify_json_matches_human(capsys):
    code, out, _ = cli(capsys, "unify", "cons(X,[])", "cons(1,Y)", "--trace", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "unify"
    assert doc["outcome"] == "solved"
    assert doc["bindings"] == {"X": "1", "Y": "[]"}
    assert doc["var_types"] == {"X": "int", "Y": "list(int)"}
    assert doc["steps"] == 7
    assert len(doc["trace"]) == 7
    # the human rendering is a pure function of the document
    assert "\n".join(_human_unify(doc)) + "\n" == GOLDEN_TRACE


# --- infer -------------------------------------------------------------------------


def test_infer_typing(capsys):
    code, out, _ = cli(capsys, "infer", "cons(X, Y)")
    assert code == 0
    assert out == "term: [X | Y]\ncontext: {X : A, Y : list(A)}\ntype: list(A)\n"


def test_infer_wrong(capsys):
    code, out, _ = cli(capsys, "infer", "cons(1, 2)")
    assert code == 2
    assert out == "term: [1 | 2]\nwrong\nclash: int = list($t1)\n"


def test_infer_emit_constraints(capsys):
    code, out, _ = cli(capsys, "infer", "cons(X, [])", "--emit-constraints")
    assert code == 0
    assert "generic context: {X : $X}" in out
    assert "term constraints: {}" in out
    assert "type constraints: {$X = $t1, list($t2) = list($t1)}" in out


# --- check -------------------------------------------------------------------------


def test_check_term_yes(tmp_path, capsys):
    ctx = tmp_path / "ctx"
    ctx.write_text("X : int.\n")
    code, out, _ = cli(capsys, "check", "cons(X, [])", "list(int)", "--context", str(ctx))
    assert (code, out) == (0, "yes\n")


def test_check_term_no_with_failing(tmp_path, capsys):
    ctx = tmp_path / "ctx"
    ctx.write_text("X : A.\n")
    code, out, _ = cli(capsys, "check", "X = 1", "--context", str(ctx))
    assert code == 1
    assert out == "no\nfailing: 1 : A\n"


def test_check_equation_candidate_must_be_bool(capsys):
    code, _, err = cli(capsys, "check", "X = 1", "int")
    assert code == 64
    assert "usage error" in err


def test_check_term_needs_candidate(capsys):
    code, _, err = cli(capsys, "check", "cons(1, [])")
    assert code == 64
    assert "usage error" in err


# --- run ---------------------------------------------------------------------------


def _write_length(tmp_path):
    program = tmp_path / "length.pl"
    program.write_text("length([], 0).\nlength([_|T], N) :- length(T, N1), N is N1 + 1.\n")
    sig = tmp_path / "length.sig"
    sig.write_text("length : list(A) * int -> bool.\n")
    return str(program), str(sig)


def test_run_yes(tmp_path, capsys):
    p = tmp_path / "p.pl"
    p.write_text("p(0).\n")
    code, out, _ = cli(capsys, "run", str(p), "-q", "?- p(X).")
    assert code == 0
    assert out == "yes {X = 0}\ntypes: {X : int}\n"


def test_run_false(tmp_path, capsys):
    p = tmp_path / "p.pl"
    p.write_text("p(0).\n")
    code, out, _ = cli(capsys, "run", str(p), "-q", "?- p(1).")
    assert (code, out) == (1, "no(false)\n")


def test_run_unknown(tmp_path, capsys):
    p = tmp_path / "p.pl"
    p.write_text("p(0).\n")
    code, out, _ = cli(capsys, "run", str(p), "-q", "?- p(1), p(0).")
    assert (code, out) == (3, "no(?)\n")


def test_run_wrong_with_trace(tmp_path, capsys):
    program, sig = _write_length(tmp_path)
    code, out, _ = cli(
        capsys, "run", program, "-q", "?- length(3, [a, b, c]).", "--sig", sig, "--trace"
    )
    assert code == 2
    lines = out.splitlines()
    assert lines[-1] == "no(wrong)"
    branch = re.compile(r"^branch d=\d+: .+ => (solved|false|wrong)( \[final\])?$")
    assert len(lines) == 3
    for ln in lines[:-1]:
        assert branch.match(ln), ln
        assert "=> wrong [final]" in ln


def test_run_json_matches_human(tmp_path, capsys):
    program, sig = _write_length(tmp_path)
    args = ["run", program, "-q", "?- length(3, [a, b, c]).", "--sig", sig, "--trace"]
    _, human, _ = cli(capsys, *args)
    code, out, _ = cli(capsys, *args, "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["outcome"] == "no(wrong)"
    assert doc["budget_exceeded"] is False
    assert [b["verdict"] for b in doc["branches"]] == ["wrong", "wrong"]
    assert "\n".join(_human_run(doc)) + "\n" == human


def test_run_fresh_names_golden(tmp_path, capsys):
    # The 51 in $L_51 comes from the one fresh-name counter that clause
    # renaming and type instantiation share: a step that draws one type
    # variable more or fewer changes this line.
    p = tmp_path / "app.pl"
    p.write_text("app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n")
    args = ["run", str(p), "-q", "?- app([1,2],Y,R)."]
    code, out, _ = cli(capsys, *args)
    assert code == 0
    assert out == "yes {R = [1, 2 | $L_51], Y = $L_51}\ntypes: {R : list(int), Y : list(int)}\n"
    code, out, _ = cli(capsys, *args, "--json")
    doc = json.loads(out)
    assert (code, doc["steps"], doc["bindings"]) == (0, 5, {"Y": "$L_51", "R": "[1, 2 | $L_51]"})


def test_run_corpus_prints_what_it_printed_before_the_memo(capsys, monkeypatch):
    # `run`, `run --json` and `run --trace` over the programs in
    # tests/data/run: facts scanned many times, open and closed argument
    # types, overrides, every verdict and a budget.  The outputs were
    # recorded before resolution replayed clause tries from its memo of type
    # phases, so steps, notes, bindings, types and fresh names must be
    # byte-identical to a search that types every try.
    root = Path(__file__).parent.parent
    corpus = json.loads((root / "tests/data/run/corpus.json").read_text(encoding="utf-8"))
    assert len(corpus) == 102
    monkeypatch.chdir(root)
    for entry in corpus:
        code, out, err = cli(capsys, *entry["argv"])
        assert (code, out, err) == (entry["code"], entry["stdout"], entry["stderr"]), entry["argv"]


def test_run_facts_corpus_prints_what_it_printed_before_fact_matching(capsys, monkeypatch):
    # `run`, `run --json` and `run --trace` of tests/data/run/facts.pl:
    # goals with repeated variables against ground facts, nested ground
    # heads, literals of every kind (1, 1.0 and "1"), functions that forget
    # their argument's type, and user constants with closed and open types.
    # The outputs were recorded before a try against a ground fact matched
    # its terms instead of solving them and before a try typed its ground
    # arguments by their closed types, so every byte must be the same.
    root = Path(__file__).parent.parent
    corpus = json.loads((root / "tests/data/run/facts_corpus.json").read_text(encoding="utf-8"))
    assert len(corpus) == 105
    monkeypatch.chdir(root)
    for entry in corpus:
        code, out, err = cli(capsys, *entry["argv"])
        assert (code, out, err) == (entry["code"], entry["stdout"], entry["stderr"]), entry["argv"]


def test_run_budget(tmp_path, capsys):
    p = tmp_path / "loop.pl"
    p.write_text("p :- p.\n")
    code, out, _ = cli(capsys, "run", str(p), "-q", "?- p.", "--max-steps", "5")
    assert code == 3
    assert out == "no(?)\nbudget exceeded\n"


# --- validate ----------------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    f = tmp_path / "tree.t"
    f.write_text("tree(A) --> leaf(A) + node(tree(A), tree(A)).\n")
    code, out, _ = cli(capsys, "validate", str(f))
    assert code == 0
    assert out == "ok: 2 type symbols (list, tree)\n"


def test_validate_violations(tmp_path, capsys):
    f = tmp_path / "bad.t"
    f.write_text("t(A, A) --> c(A).\n")
    code, out, _ = cli(capsys, "validate", str(f))
    assert code == 65
    assert re.match(r"^[A-Za-z]+ in t: .+$", out.splitlines()[0])


def test_validate_json(tmp_path, capsys):
    f = tmp_path / "tree.t"
    f.write_text("tree(A) --> leaf(A) + node(tree(A), tree(A)).\n")
    code, out, _ = cli(capsys, "validate", str(f), "--json")
    doc = json.loads(out)
    assert (code, doc["ok"], doc["symbols"]) == (0, True, ["list", "tree"])


# --- oracle ------------------------------------------------------------------------


def test_oracle_small(capsys):
    code, out, _ = cli(capsys, "oracle", "--depth", "1", "--limit", "200")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "terms: 24"
    assert lines[2] == "mismatches: 0"


def test_oracle_depth2_and_depth3(capsys):
    # of 604 or 365 424 terms, 24 are shallow: 16 deep ones are kept for
    # 1600 pairs and 76 for the default 10 000
    for depth, terms in (("2", 604), ("3", 365_424)):
        code, out, _ = cli(capsys, "oracle", "--depth", depth, "--limit", "1600", "--seed", "3")
        assert (code, out) == (0, f"terms: {terms}\npairs: 1600\nmismatches: 0\n")
        code, out, _ = cli(capsys, "oracle", "--depth", depth, "--json")
        doc = json.loads(out)
        assert code == 0
        assert (doc["depth"], doc["terms"], doc["pairs"]) == (int(depth), terms, 10_000)
        assert (doc["mismatch_count"], doc["mismatches"]) == (0, [])


def test_oracle_states_match_per_pair_generation(capsys, monkeypatch):
    """Each term typed once per side gives every pair the state that
    `gen_equation` builds, up to type variable names: the same steps, rules
    and verdict on every pair of a depth-2 sweep.
    """
    from regunify import cli as cli_mod
    from regunify import derive_signatures, validate
    from regunify.constraints import (
        ConstraintState,
        FreshSupply,
        TermConstraint,
        TypeConstraint,
        gen_equation,
    )
    from regunify.semantics import LiteralPool, enumerate_ground_terms, stratified_pairs
    from regunify.solver import solve, solve_columns

    runs = []

    def objects(columns, make):
        lhs, rhs, _, made = columns
        return tuple(c or make(a, b) for a, b, c in zip(lhs, rhs, made))

    def recording_solve_columns(types, terms):
        # the state the columns hold, read before the solver rewrites them
        state = ConstraintState(objects(terms, TermConstraint), objects(types, TypeConstraint))
        run = solve_columns(types, terms, trace=True)
        runs.append((state, run))
        return run

    monkeypatch.setattr(cli_mod, "solve_columns", recording_solve_columns)
    code, out, _ = cli(capsys, "oracle", "--depth", "2", "--limit", "4225", "--seed", "5")
    assert (code, out.splitlines()[1]) == (0, "pairs: 4225")

    sig = derive_signatures(validate(())).with_function("f", 1)
    pool = LiteralPool(ints=(0, 1), floats=(), strings=(), atoms=("a",))
    pairs = stratified_pairs(list(enumerate_ground_terms(sig, 2, pool)), max_pairs=4225, seed=5)
    assert [(s.terms[0].lhs, s.terms[0].rhs) for s, _ in runs] == pairs
    for state, run in runs:
        t1, t2 = state.terms[0].lhs, state.terms[0].rhs
        ref_state = gen_equation({}, sig, t1, t2, FreshSupply())
        ref = solve(ref_state, trace=True)
        assert _canonical_types(state.types) == _canonical_types(ref_state.types), (t1, t2)
        assert (run.steps, type(run.result)) == (ref.steps, type(ref.result)), (t1, t2)
        assert [s.rule for s in run.trace] == [s.rule for s in ref.trace], (t1, t2)


def _canonical_types(types):
    """Type constraints as text, each type variable renamed to the order of
    its first occurrence: equal exactly when equal up to variable names.
    """
    from regunify.pretty import pp_type

    text = "; ".join(f"{pp_type(c.lhs)} = {pp_type(c.rhs)}" for c in types)
    names = {}
    return re.sub(r"\$t\d+", lambda m: names.setdefault(m.group(), f"#{len(names)}"), text)


def test_oracle_over_budget_depth_is_a_usage_error(capsys):
    # refused from the level counts, before a term is built: a request too
    # large for the budget, not a broken invariant
    data = Path(__file__).parent / "data" / "over_budget_at_depth2.t"
    for argv in (["--depth", "4"], ["--types", str(data), "--depth", "2"]):
        code, out, err = cli(capsys, "oracle", *argv)
        depth = argv[-1]
        assert (code, out, err) == (
            64,
            "",
            f"usage error: argument --depth: depth {depth} has more than 1000000 terms,"
            " the enumeration budget; give a smaller --depth\n",
        )


def test_oracle_negative_limit_is_a_usage_error(capsys):
    code, out, err = cli(capsys, "oracle", "--limit", "-5")
    assert (code, out) == (64, "")
    assert err.startswith("usage error: argument --limit:") and err.count("\n") == 1


# --- environment, errors, plumbing --------------------------------------------------


def test_every_json_document_starts_with_schema_version_and_command(tmp_path, capsys):
    program, sig = _write_length(tmp_path)
    tree = tmp_path / "tree.t"
    tree.write_text("tree(A) --> leaf(A) + node(tree(A), tree(A)).\n")
    calls = [
        ["validate", str(tree)],
        ["infer", "leaf(X)", "--types", str(tree), "--emit-constraints"],
        ["check", "cons(1, [])", "list(int)"],
        ["unify", "cons(X,[])", "cons(1,Y)", "--trace"],
        ["unify", "cons(1, 2)", "X"],
        ["run", program, "-q", "?- length([a], N).", "--sig", sig, "--trace"],
        ["oracle", "--depth", "1", "--limit", "20"],
    ]
    for argv in calls:
        _, out, _ = cli(capsys, *argv, "--json")
        pairs = json.loads(out, object_pairs_hook=list)  # keeps key order and repeats
        keys = [key for key, _ in pairs]
        assert pairs[:2] == [("schema_version", 1), ("command", argv[0])], argv
        assert len(keys) == len(set(keys)), argv


def test_types_env_variable(tmp_path, capsys, monkeypatch):
    f = tmp_path / "tree.t"
    f.write_text("tree(A) --> leaf(A) + node(tree(A), tree(A)).\n")
    monkeypatch.setenv("REGUNIFY_TYPES", str(f))
    code, out, _ = cli(capsys, "infer", "node(leaf(1), leaf(2))")
    assert code == 0
    assert out.splitlines()[-1] == "type: tree(int)"


def test_types_flag_beats_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REGUNIFY_TYPES", str(tmp_path / "missing.t"))
    f = tmp_path / "tree.t"
    f.write_text("tree(A) --> leaf(A) + node(tree(A), tree(A)).\n")
    code, _, _ = cli(capsys, "infer", "leaf(1)", "--types", str(f))
    assert code == 0


def test_parse_error_is_data_error(capsys):
    code, _, err = cli(capsys, "unify", "f(", "x")
    assert code == 65
    assert "error: " in err


def test_missing_file_is_data_error(tmp_path, capsys):
    code, _, err = cli(capsys, "run", str(tmp_path / "nope.pl"), "-q", "?- p.")
    assert code == 65


def test_usage_errors(capsys):
    assert cli(capsys, "frobnicate")[0] == 64
    assert cli(capsys, "unify", "only-one")[0] == 64
    assert cli(capsys)[0] == 64


def test_fifteen_hundred_element_lists_answer(capsys):
    # constraint generation keeps its own stack, so a long list is no deeper
    # for it than a short one
    n = 1500
    variables = "[" + ", ".join(f"X{i}" for i in range(n)) + "]"
    ints = "[" + ", ".join(str(i) for i in range(n)) + "]"
    code, out, err = cli(capsys, "unify", variables, ints)
    assert (code, err) == (0, "")
    names = sorted(f"X{i}" for i in range(n))  # both maps print in name order
    assert out.splitlines() == [
        "solved",
        "bindings: {" + ", ".join(f"{x} = {x[1:]}" for x in names) + "}",
        "types: {" + ", ".join(f"{x} : int" for x in names) + "}",
    ]
    code, out, err = cli(capsys, "infer", ints)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["context: {}", "type: list(int)"]


def test_long_later_goal_answers(tmp_path, capsys):
    # the first goal's unifier is applied to the second, a 1500-element list,
    # without a Python frame per element
    p = tmp_path / "app.pl"
    p.write_text("app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n")
    ints = ", ".join(str(i) for i in range(1500))
    code, out, err = cli(capsys, "run", str(p), "-q", f"?- X = 1, Y = [X, {ints}].")
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"yes {{X = 1, Y = [1, {ints}]}}", "types: {X : int, Y : list(int)}"]


def test_nine_hundred_deep_answers_print(tmp_path, capsys):
    # each side is 300 deep, which the parser reads; the answer, f^900(a)
    # of type f°^900(atom), is printed without a Python frame per level
    def f(n, inner):
        return "f(" * n + inner + ")" * n

    p = tmp_path / "p.pl"
    p.write_text("p.\n")
    binding, ty = f(900, "a"), "f°(" * 900 + "atom" + ")" * 900
    unify = ["unify", "h(X1, X2, X3, X4)", f"h({f(300, 'X2')}, {f(300, 'X3')}, {f(300, 'X4')}, a)"]
    run = ["run", str(p), "-q", f"?- X1 = {f(300, 'X2')}, X2 = {f(300, 'X3')}, X3 = {f(300, 'a')}."]
    for argv in (unify, run):
        code, out, err = cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert f"X1 = {binding}," in out and f"X1 : {ty}," in out
        code, out, err = cli(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["bindings"]["X1"] == binding and doc["var_types"]["X1"] == ty


def test_oversized_inputs_never_exit_false(capsys):
    # whatever such inputs do, exit 1 is kept for false and no traceback leaks
    long_list = "[" + ", ".join(str(i) for i in range(1500)) + "]"
    deep_term = "f(" * 1200 + "a" + ")" * 1200
    for argv in (["unify", long_list, "X"], ["unify", deep_term, "X"], ["infer", deep_term]):
        code, _, err = cli(capsys, *argv)
        assert code in (0, 70)
        assert "Traceback" not in err
        if code == 70:
            assert re.fullmatch(r"internal error: \w+: .*\n", err)


def test_repl_session(capsys, monkeypatch):
    script = "p(0).\n?- p(X).\nX = 1.\ncons(1, 2) = Y.\nquit.\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(script))
    code = main(["repl"])
    out = capsys.readouterr().out
    assert code == 0
    assert "asserted (1 clauses)" in out
    assert "yes {X = 0}" in out
    assert "bindings: {X = 1}" in out
    assert "wrong" in out


REPL_SCRIPT = """\
% a comment

p(0).
q(a) :- p(0).
?- p(X).
?- q(Y).
?- p(1).
?- p(a).
?- p(1), p(0).
X = 1.
f(1, a) = f(2, a).
cons(1, 2) = Y.
cons(X, []) = cons(1, Y).
f( = x.
?- p(
quit.
?- p(X).
"""

REPL_GOLDEN = """\
one statement per line: fact/rule to assert, t1 = t2, or ?- goals.
asserted (1 clauses)
asserted (2 clauses)
yes {X = 0}
types: {X : int}
yes {Y = a}
types: {Y : atom}
no(false)
no(wrong)
no(?)
solved
bindings: {X = 1}
types: {X : int}
false
disagreement: 1 = 2
types: {}
wrong
clash: int = list($t1)
solved
bindings: {X = 1, Y = []}
types: {X : int, Y : list(int)}
error: <repl>:1:4: expected a term, found '='
error: <repl>:1:6: unexpected end of input
"""


def test_repl_transcript_golden(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(REPL_SCRIPT))
    code = main(["repl"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (0, REPL_GOLDEN, "")


def test_repl_query_prints_like_run(tmp_path, capsys, monkeypatch):
    # a query that runs out of budget says so, exactly as `run` does
    monkeypatch.setattr(sys, "stdin", io.StringIO("p :- p.\n?- p.\n"))
    code = main(["repl"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1:] == ["asserted (1 clauses)", "no(?)", "budget exceeded"]
    p = tmp_path / "loop.pl"
    p.write_text("p :- p.\n")
    assert cli(capsys, "run", str(p), "-q", "?- p.") == (3, "no(?)\nbudget exceeded\n", "")


def test_unify_step_cap_is_internal_error(capsys):
    # a cap the user sets is checked like the default budget: exit 70, one line
    code, out, err = cli(capsys, "unify", "f(X,Y,Z)", "f(1,2,3)", "--max-steps", "1")
    assert (code, out, err) == (70, "", "internal error: rewriting exceeded 1 steps\n")


def test_zero_max_steps_allows_no_step(tmp_path, capsys):
    p = tmp_path / "facts.pl"
    p.write_text("q.\n")
    assert cli(capsys, "run", str(p), "-q", "?- q.") == (0, "yes {}\ntypes: {}\n", "")
    assert cli(capsys, "run", str(p), "-q", "?- q.", "--max-steps", "0") == (
        3, "no(?)\nbudget exceeded\n", ""
    )
    code, out, err = cli(capsys, "unify", "f(X)", "f(1)", "--max-steps", "0")
    assert (code, out, err) == (70, "", "internal error: rewriting exceeded 0 steps\n")


def test_negative_max_steps_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "facts.pl"
    p.write_text("q.\n")
    for cmd in (["unify", "f(X)", "f(1)"], ["run", str(p), "-q", "?- q."]):
        assert cli(capsys, *cmd, "--max-steps", "-5") == (
            64, "", "usage error: argument --max-steps: must be at least 0, got -5\n"
        )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "regunify", "unify", "cons(X,[])", "cons(1,Y)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("solved\n")
