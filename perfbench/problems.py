"""Seeded problem generators for the four workloads, with expected answers.

Every problem carries its own expected answer.  None of them comes from the
code under test: a verdict follows from how the problem was built (its shape
and variant), solved bindings are cross-checked at generation time against
the untyped unifier in `tests/oracles.py`, the oracle's term and pair counts
are computed here from its documented enumeration and sampling rules, and the
oracle reports its own mismatch count.

A round is one pass over a workload's fixed size ladder.  The seed and the
round number pick the contents (constants, variable names, positions, graph
nodes); the sizes never depend on the seed, so every seed costs about the
same.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import operator
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

from oracles import resolve_term, unify_terms
from regunify import (
    NoFalse,
    NoUnknown,
    NoWrong,
    ResolutionBudget,
    Solved,
    SolveFalse,
    SolveWrong,
    Yes,
    resolve,
    typed_unify,
)
from regunify.cli import main as cli_main
from regunify.syntax import NIL, Base, Compound, Const, SymApp, TVar, Var

# A class is timed by its fastest round, and on a shared host a fast spell
# that covers a whole problem is rarer the longer the problem runs.  So the
# ladders stop where one problem takes a few tenths of a second, and a run
# holds about ten rounds.
WIDE_SIZES = (10, 25, 50, 100)
DEEP_SIZES = (5, 10, 20, 30, 45)
CHAIN_SIZES = (4, 6, 8, 10, 12)
VARIANTS = ("solved", "false", "wrong")
# A round costs about as much as its largest app queries, and a class is
# timed by its fastest round, so few large sizes leave room for more rounds.
APP_SIZES = (5, 10, 20, 50)
ORACLE_LIMITS = (1600, 2025, 2500, 3025, 3600, 4225)

INT = Base("int")
ATOM = Base("atom")
LIST_INT = SymApp("list", (INT,))


@dataclass
class Problem:
    """One call into the program under test and the check of its answer.

    `check` returns None when the answer is right, else a one-line reason.
    `work` is how many problems the call answers (checked pairs for the
    oracle, 1 elsewhere); `nodes` is the input size for the scaling fit.
    `curve` names the scaling curve the problem is a point of, if any.
    `inputs` is what `call` hands to the package.
    """

    pid: str
    family: str
    size: int
    nodes: int
    inputs: tuple
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    work: int = 1
    curve: Optional[str] = None
    stats: Optional[dict] = None


def _rng(seed: int, rnd: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{rnd}")


def term_nodes(t) -> int:
    count, stack = 0, [t]
    while stack:
        t = stack.pop()
        count += 1
        if isinstance(t, Compound):
            stack.extend(t.args)
    return count


def mk_list(items, tail=NIL):
    out = tail
    for item in reversed(items):
        out = Compound("cons", (item, out))
    return out


def nest(functor: str, n: int, t):
    for _ in range(n):
        t = Compound(functor, (t,))
    return t


def integer(n: int) -> Const:
    return Const(n, "int")


def atom(name: str) -> Const:
    return Const(name, "atom")


# --- unify_large -------------------------------------------------------------------


def _wide(n, variant, rng):
    # the wrong variant needs an int element for its atom to clash with
    if n < 2:
        raise ValueError("wide lists have at least two elements")
    prefix = rng.choice("XYZVW")
    names = [f"{prefix}{i}" for i in range(n)]
    vals = [rng.randrange(1000) for _ in range(n)]
    # the type clash of the wrong variant costs less the later it sits, so
    # it stays near the middle for every seed
    k = min(n - 1, n // 2 + rng.choice((-1, 0, 1)))
    left = [Var(x) for x in names]
    right = [integer(v) for v in vals]
    if variant == "false":
        left[k] = integer(vals[k] + 1 + rng.randrange(5))
    elif variant == "wrong":
        right[k] = atom(f"a{rng.randrange(100)}")
    bindings = {x: integer(v) for x, v in zip(names, vals)}
    types_ok = functools.partial(operator.eq, {x: INT for x in names})
    return mk_list(left), mk_list(right), bindings, types_ok, (left[k], right[k])


def _deep(n, variant, rng):
    x = Var(rng.choice("XYZVW"))
    c = rng.randrange(1000)
    if variant == "solved":
        types_ok = functools.partial(operator.eq, {x.name: INT})
        return nest("f", n, x), nest("f", n, integer(c)), {x.name: integer(c)}, types_ok, None
    other = integer(c + 1 + rng.randrange(5)) if variant == "false" else atom(f"a{c}")
    left = Compound("g", (x, nest("f", n, integer(c))))
    right = Compound("g", (integer(rng.randrange(1000)), nest("f", n, other)))
    return left, right, None, None, (integer(c), other)


def _chain(n, variant, rng):
    prefix = rng.choice("XYZVW")
    xs = [Var(f"{prefix}{i}") for i in range(n + 1)]
    links = [Compound("g", (xs[i], xs[i])) for i in range(n)]
    clash = None
    if variant == "solved":
        left, right = Compound("f", tuple(xs[1:])), Compound("f", tuple(links))
    else:
        c = rng.randrange(1000)
        last = integer(c + 1) if variant == "false" else atom(f"a{c}")
        left = Compound("f", (*xs[1:], xs[0], xs[0]))
        right = Compound("f", (*links, integer(c), last))
        clash = (integer(c), last)  # X0 is bound to c before it meets `last`
    expected = {}
    tree = xs[0]
    for x in xs[1:]:
        tree = Compound("g", (tree, tree))
        expected[x.name] = tree
    return left, right, expected, functools.partial(_chain_types_ok, [x.name for x in xs]), clash


def _chain_types_ok(names, got):
    """Solved types of a chain: X0 has a type variable, and each Xi has the
    type of g(X(i-1), X(i-1)), one type symbol applied to two copies of the
    type before it.  The variable and the symbol are named by the package,
    so they are read from the answer and then held to this shape.
    """
    if set(got) != set(names) or not isinstance(got[names[0]], TVar):
        return False
    symbol = getattr(got[names[1]], "symbol", None)
    return all(got[x] == SymApp(symbol, (got[prev], got[prev])) for prev, x in zip(names, names[1:]))


SHAPES = {"wide": (_wide, WIDE_SIZES), "deep": (_deep, DEEP_SIZES), "chain": (_chain, CHAIN_SIZES)}
# The largest size of each shape comes in the solved variant only.  Its
# false and wrong variants would cost as much again and so halve the rounds
# a run holds; the smaller sizes show the same verdicts.
SOLVED_ONLY = {(shape, sizes[-1]) for shape, (_gen, sizes) in SHAPES.items()}


def _same_pair(got, pair):
    """The witness, a constraint between the clashing pair, in either order:
    the order is the solver's choice, not part of the answer.
    """
    return got is not None and {(got.lhs, got.rhs), (got.rhs, got.lhs)} == {pair, pair[::-1]}


def unify_problem(shape, n, variant, rng, defs):
    """A unification whose verdict the variant fixes.  The shape generator
    also returns the solved variant's bindings, a test of its variable
    types, and the pair of terms that clash in the false and wrong variants;
    the bindings must agree with the untyped reference unifier.
    """
    left, right, bindings, types_ok, clash = SHAPES[shape][0](n, variant, rng)
    # A wrong variant clashes on the types of the pair: int against atom.
    witness = (INT, ATOM) if variant == "wrong" else clash
    oracle = unify_terms([(left, right)])
    if variant == "solved":
        got = {x: resolve_term(Var(x), oracle) for x in bindings} if oracle is not None else None
        if got != bindings:
            raise RuntimeError(f"generator and untyped oracle disagree on {shape}-{n}")
    elif variant == "false" and oracle is not None:
        raise RuntimeError(f"false variant {shape}-{n} unifies without types")
    want = {"solved": Solved, "false": SolveFalse, "wrong": SolveWrong}[variant]

    def check(run):
        if not isinstance(run.result, want):
            return f"verdict {type(run.result).__name__}, expected {want.__name__}"
        if variant == "solved":
            if run.result.subst != bindings:
                return "solved bindings differ from the generated ones"
            if not types_ok(run.var_types):
                return "variable types differ from the generated ones"
        elif not _same_pair(run.result.witness, witness):
            return f"witness {run.result.witness!r}, expected a constraint between {witness!r}"
        return None

    return Problem(
        pid=f"{shape}-{n}-{variant}",
        family=shape,
        size=n,
        nodes=term_nodes(left) + term_nodes(right),
        inputs=(left, right),
        call=lambda: typed_unify(left, right, defs),
        check=check,
        curve=f"{shape}-{variant}",
    )


def unify_large_round(seed, rnd, env):
    rng = _rng(seed, rnd, "unify_large")
    return [
        unify_problem(shape, n, variant, rng, env["defs"])
        for shape, (_gen, sizes) in SHAPES.items()
        for n in sizes
        for variant in VARIANTS
        if variant == "solved" or (shape, n) not in SOLVED_ONLY
    ]


# --- resolve_programs ----------------------------------------------------------------


def read_edges(text: str):
    """Edge facts in file order, read with a pattern, not the package parser."""
    return re.findall(r"^edge\((\w+), (\w+)\)\.", text, flags=re.M)


def _goal(name, *args):
    return Compound(name, tuple(args))


def _resolve_problem(
    pid, family, size, query, env, want, bindings=None, types=None, steps=None, curve=None
):
    program, defs = env["program"], env["defs"]

    def check(report):
        out = report.outcome
        if want is Yes:
            if not isinstance(out, Yes):
                return f"outcome {type(out).__name__}, expected Yes"
            if out.bindings != bindings or out.var_types != types:
                return "answer bindings or types differ from the expected ones"
            return None
        if out != want:
            return f"outcome {out!r}, expected {want!r}"
        if steps is not None and report.steps != steps:
            return f"{report.steps} steps, expected the whole budget of {steps}"
        return None

    return Problem(
        pid=pid,
        family=family,
        size=size,
        nodes=sum(term_nodes(g) for g in query),
        inputs=query,
        call=lambda: resolve(program, query, defs),
        check=check,
        curve=curve,
    )


def _spread(rng, items, count):
    """`count` items, one next to the middle of each of `count` equal strata.
    A lookup costs more the later its fact sits in the file, so evenly spread
    picks keep the cost of a round the same for every seed.  Needs
    `count <= len(items) // 2`.
    """
    n = len(items)
    return [items[n * (2 * i + 1) // (2 * count) + rng.choice((-1, 0, 1))] for i in range(count)]


def resolve_round(seed, rnd, env):
    rng = _rng(seed, rnd, "resolve_programs")
    edges = read_edges(env["program_text"])
    succ = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
    sources = sorted(succ, key=lambda s: int(s[1:]))
    edge_set = set(edges)
    out = []

    # deep: app on long lists, the solver dominates
    for k in APP_SIZES:
        xs = [integer(rng.randrange(100)) for _ in range(k)]
        c = integer(rng.randrange(1000))
        query = (_goal("app", mk_list(xs), mk_list([c]), Var("R")),)
        out.append(
            _resolve_problem(
                f"app-{k}", "app", k, query, env, Yes,
                {"R": mk_list(xs + [c])}, {"R": LIST_INT}, curve="app",
            )
        )

    # broad: fact lookups and short path walks, many tiny unifications
    for i, src in enumerate(_spread(rng, sources, 16)):
        query = (_goal("edge", atom(src), Var("X")),)
        out.append(
            _resolve_problem(
                f"edge-{i}", "edge", 1, query, env, Yes,
                {"X": atom(succ[src][0])}, {"X": ATOM},
            )
        )
    for i, src in enumerate(_spread(rng, sources, 8)):
        query = (_goal("path", atom(src), Var("Y")),)
        out.append(
            _resolve_problem(
                f"path-first-{i}", "path", 1, query, env, Yes,
                {"Y": atom(succ[src][0])}, {"Y": ATOM},
            )
        )
    starts = _spread(rng, sources[: len(sources) - 12], 6)
    for i, (hops, src) in enumerate(zip((1, 2, 3, 1, 2, 3), starts)):
        # the depth-first search follows first edges, so this target is found
        # without backtracking out of a dead subtree
        dst = src
        for _ in range(hops):
            dst = succ[dst][0]
        query = (_goal("path", atom(src), atom(dst)),)
        out.append(
            _resolve_problem(f"path-{hops}hop-{i}", "path", hops, query, env, Yes, {}, {}, curve="path")
        )

    # verdicts other than yes
    for k in (4, 8):
        xs = [integer(rng.randrange(100)) for _ in range(k)]
        c = rng.randrange(1000)
        bad = mk_list(xs + [integer(c + 1)])
        query = (_goal("app", mk_list(xs), mk_list([integer(c)]), bad),)
        out.append(_resolve_problem(f"app-false-{k}", "app", k, query, env, NoFalse()))
    non_edges = []
    while len(non_edges) < 4:
        a, b = rng.choice(sources), rng.choice(sources)
        if (a, b) not in edge_set:
            non_edges.append((a, b))
    for i, (a, b) in enumerate(non_edges[:2]):
        query = (_goal("edge", atom(a), atom(b)),)
        out.append(_resolve_problem(f"edge-false-{i}", "edge", 1, query, env, NoFalse()))
    for i in range(2):
        query = (_goal("edge", atom(rng.choice(sources)), integer(rng.randrange(100))),)
        out.append(_resolve_problem(f"edge-wrong-{i}", "edge", 1, query, env, NoWrong()))
    query = (_goal("app", atom(f"a{rng.randrange(100)}"), NIL, Var("R")),)
    out.append(_resolve_problem("app-wrong", "app", 1, query, env, NoWrong()))
    for i, (a, b) in enumerate(non_edges[2:]):
        # a plain failure with a goal still pending is no(?), not no(false)
        query = (_goal("edge", atom(a), atom(b)), _goal("edge", atom(rng.choice(sources)), Var("X")))
        out.append(_resolve_problem(f"pending-{i}", "edge", 2, query, env, NoUnknown()))
    query = (_goal("loop", integer(rng.randrange(100))),)
    out.append(
        _resolve_problem("loop-depth", "loop", 1, query, env, NoUnknown(budget_exceeded=True))
    )
    # an unreachable target: the search space is far beyond the step budget
    src = rng.choice(sources[:40])
    query = (_goal("path", atom(src), atom("nowhere")),)
    out.append(
        _resolve_problem(
            "path-budget", "path", 0, query, env, NoUnknown(budget_exceeded=True),
            steps=ResolutionBudget().max_steps,
        )
    )
    return out


# --- cli_small -------------------------------------------------------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _text_list(items):
    return "[" + ", ".join(items) + "]"


def _map_text(d, sep):
    return "{" + ", ".join(f"{k}{sep}{d[k]}" for k in sorted(d)) + "}"


def _cli_problem(pid, family, nodes, argv, code, check_output):
    def check(result):
        got_code, out, err = result
        if got_code != code:
            return f"exit code {got_code}, expected {code}; stderr {err.strip()!r}"
        return check_output(out, err)

    return Problem(pid, family, nodes, nodes, tuple(argv), lambda: run_cli(argv), check)


def _expect_lines(*want, tail=False):
    def check(out, err):
        lines = out.splitlines()
        got = lines[-len(want):] if tail else lines
        if got != list(want):
            return f"output {got!r}, expected {list(want)!r}"
        return None

    return check


def _expect_json(**want):
    def check(out, err):
        doc = json.loads(out)
        for key, value in want.items():
            if doc.get(key) != value:
                return f"json {key} = {doc.get(key)!r}, expected {value!r}"
        return None

    return check


def _expect_error(prefix):
    def check(out, err):
        if out or not err.startswith(prefix):
            return f"stdout {out!r}, stderr {err!r}; expected only a {prefix!r} message"
        return None

    return check


def _pair_lists(rng, n):
    """[X0, c1, ...] = [c0, Y1, ...]: each position binds one variable."""
    left, right, binds = [], [], {}
    for i in range(n):
        c = str(rng.randrange(100))
        name = f"{rng.choice('XYZ')}{i}"
        if rng.random() < 0.5:
            left.append(name)
            right.append(c)
        else:
            left.append(c)
            right.append(name)
        binds[name] = c
    return _text_list(left), _text_list(right), binds


def cli_round(seed, rnd, env):
    rng = _rng(seed, rnd, "cli_small")
    small = env["small_file"]
    out = []
    for n in (1, 2, 4, 6):
        left, right, binds = _pair_lists(rng, n)
        types = {x: "int" for x in binds}
        nodes = 4 * n + 2
        solved = ("solved", f"bindings: {_map_text(binds, ' = ')}", f"types: {_map_text(types, ' : ')}")
        out.append(_cli_problem(f"unify-{n}", "unify", nodes, ["unify", left, right], 0, _expect_lines(*solved)))
        out.append(
            _cli_problem(
                f"unify-json-{n}", "unify", nodes, ["unify", left, right, "--json"], 0,
                _expect_json(outcome="solved", bindings=binds, witness=None),
            )
        )
        if n <= 2:
            out.append(
                _cli_problem(
                    f"unify-trace-{n}", "unify", nodes, ["unify", left, right, "--trace"], 0,
                    _expect_lines(*solved, tail=True),
                )
            )
    c = rng.randrange(100)
    d = c + 1 + rng.randrange(5)
    out.append(
        _cli_problem(
            "unify-false", "unify", 10, ["unify", f"[{c}, X]", f"[{d}, Y]"], 1,
            _expect_lines("false", f"disagreement: {c} = {d}", "types: {X : int, Y : int}"),
        )
    )
    wrong = ["unify", f"cons({c}, X)", f"cons(Y, {d})"]
    out.append(
        _cli_problem(
            "unify-wrong", "unify", 6, wrong, 2,
            lambda o, e: None if o.splitlines()[:1] == ["wrong"] else f"output {o!r}",
        )
    )
    out.append(
        _cli_problem(
            "unify-wrong-json", "unify", 6, wrong + ["--json"], 2,
            _expect_json(outcome="wrong", bindings=None, var_types=None),
        )
    )
    for n in (1, 3, 5):
        items = [str(rng.randrange(100)) for _ in range(n)]
        text = _text_list(items)
        out.append(
            _cli_problem(
                f"infer-{n}", "infer", 2 * n + 1, ["infer", text], 0,
                _expect_lines(f"term: {text}", "context: {}", "type: list(int)"),
            )
        )
    h, t = f"H{rng.randrange(10)}", f"T{rng.randrange(10)}"
    out.append(
        _cli_problem(
            "infer-open", "infer", 3, ["infer", f"cons({h}, {t})"], 0,
            _expect_lines(f"term: [{h} | {t}]", f"context: {{{h} : A, {t} : list(A)}}", "type: list(A)"),
        )
    )
    out.append(
        _cli_problem(
            "infer-wrong", "infer", 3, ["infer", f"cons({c}, {d})"], 2,
            lambda o, e: None if o.splitlines()[:2] == [f"term: [{c} | {d}]", "wrong"] else f"output {o!r}",
        )
    )
    items = _text_list([str(rng.randrange(100)) for _ in range(3)])
    out.append(_cli_problem("check-yes", "check", 7, ["check", items, "list(int)"], 0, _expect_lines("yes")))
    out.append(
        _cli_problem(
            "check-no", "check", 7, ["check", items, "list(atom)"], 1,
            lambda o, e: None if o.splitlines()[:1] == ["no"] else f"output {o!r}",
        )
    )
    xs = [str(rng.randrange(100)) for _ in range(3)]
    z = str(rng.randrange(100))
    query = f"?- app({_text_list(xs)}, [{z}], R)."
    answer = (f"yes {{R = {_text_list(xs + [z])}}}", "types: {R : list(int)}")
    nodes = 2 * len(xs) + 6
    out.append(_cli_problem("run-yes", "run", nodes, ["run", small, "-q", query], 0, _expect_lines(*answer)))
    out.append(
        _cli_problem(
            "run-json", "run", nodes, ["run", small, "-q", query, "--json"], 0,
            _expect_json(outcome="yes", bindings={"R": _text_list(xs + [z])}, budget_exceeded=False),
        )
    )
    out.append(
        _cli_problem(
            "run-trace", "run", nodes, ["run", small, "-q", query, "--trace"], 0,
            _expect_lines(*answer, tail=True),
        )
    )
    bad = f"?- app({_text_list(xs)}, [{z}], {_text_list(xs + [z + '1'])})."
    out.append(_cli_problem("run-false", "run", 4 * len(xs) + 8, ["run", small, "-q", bad], 1, _expect_lines("no(false)")))
    # malformed invocations: 65 for bad input text, 64 for bad usage
    out.append(_cli_problem("parse-error", "error", 3, ["unify", f"f({c}", "X"], 65, _expect_error("error:")))
    out.append(_cli_problem("parse-error-2", "error", 3, ["infer", f"[{c},"], 65, _expect_error("error:")))
    out.append(_cli_problem("usage-missing", "error", 1, ["unify", "X"], 64, _expect_error("usage error:")))
    out.append(_cli_problem("usage-candidate", "error", 1, ["check", "X"], 64, _expect_error("usage error:")))
    out.append(_cli_problem("usage-option", "error", 2, ["unify", "X", "Y", "--bogus"], 64, _expect_error("usage error:")))
    out.append(_cli_problem("usage-command", "error", 1, ["frobnicate"], 64, _expect_error("usage error:")))
    return out


# --- oracle_sweep ------------------------------------------------------------------------

# The oracle enumerates over four leaves (0, 1, a, []) with cons/2 and f/1.
ORACLE_LEAVES = 4
ORACLE_FUNCTION_ARITIES = (2, 1)


def oracle_term_counts(depth: int):
    """Terms of depth <= d for each d up to `depth`: every term at depth d
    has at least one argument of depth exactly d - 1.
    """
    upto = [ORACLE_LEAVES]
    for d in range(1, depth + 1):
        below = upto[d - 2] if d >= 2 else 0
        level = sum(upto[d - 1] ** a - below**a for a in ORACLE_FUNCTION_ARITIES)
        upto.append(upto[-1] + level)
    return upto


def oracle_expected(depth: int, limit: int, seed: int):
    """(terms, pairs) the sweep must report: every term of depth <= 1 plus an
    evenly strided sample of deeper ones, all ordered pairs of those kept.
    """
    upto = oracle_term_counts(depth)
    terms = upto[depth]
    shallow = upto[min(depth, 1)]
    deep = terms - shallow
    keep = max(shallow + 1, math.isqrt(limit))
    extra = keep - shallow
    kept = shallow
    if deep and extra > 0:
        stride = max(1, deep // extra)
        kept += min(extra, len(range(seed % stride, deep, stride)))
    return terms, kept * kept


def _oracle_problem(depth, limit, seed):
    terms, pairs = oracle_expected(depth, limit, seed)
    argv = ["oracle", "--json", "--depth", str(depth), "--seed", str(seed), "--limit", str(limit)]

    def check(result):
        code, out, err = result
        if code != 0:
            return f"--seed {seed}: exit code {code}; stderr {err.strip()!r}"
        doc = json.loads(out)
        got = (doc["mismatch_count"], doc["terms"], doc["pairs"])
        if got != (0, terms, pairs):
            return f"--seed {seed}: (mismatches, terms, pairs) = {got}, expected {(0, terms, pairs)}"
        return None

    return Problem(
        pid=f"oracle-d{depth}-l{limit}",
        family=f"depth{depth}",
        size=limit,
        nodes=terms + pairs,
        inputs=tuple(argv),
        call=lambda: run_cli(argv),
        check=check,
        work=pairs,
        curve=f"oracle-depth{depth}",
        stats={"terms": terms, "pairs": pairs},
    )


def oracle_round(seed, rnd, env):
    rng = _rng(seed, rnd, "oracle_sweep")
    # one full depth-3 sweep per round: 365k terms enumerated to keep 10k
    # pairs.  Its pairs are about a quarter of the round's, so the p90 per
    # pair is a depth-3 pair and the median a depth-2 one, in every run.
    # Each depth-2 class runs on both sides of it, so its two runs in a
    # round lie seconds apart and the round gives it two chances.
    def depth2():
        return [_oracle_problem(2, limit, rng.randrange(1000)) for limit in ORACLE_LIMITS]

    out = depth2()
    out.append(_oracle_problem(3, 10_000, rng.randrange(1000)))
    return out + depth2()


ROUNDS = {
    "unify_large": unify_large_round,
    "resolve_programs": resolve_round,
    "cli_small": cli_round,
    "oracle_sweep": oracle_round,
}
