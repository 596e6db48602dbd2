"""Command-line surface: validate, infer, check, unify, run, oracle, repl.

Every subcommand prints a human-readable report by default and, with
`--json`, a structured document describing the same result field by field
(`schema_version` 1).  Exit codes are a function of the outcome alone, even
when the reader of stdout has gone away:

    0   solved / yes / judgment holds / oracle agrees
    1   false / no(false) / judgment fails
    2   wrong / no(wrong)
    3   no(?)
    64  usage error
    65  parse or validation error in the input
    70  internal invariant breach

Type definitions come from `--types FILE` or, failing that, the
REGUNIFY_TYPES environment variable; the built-in list definition is always
present.  Signature overrides (constants, functions, predicates) come from
`--sig FILE`.  Terms given as command-line arguments use the same grammar as
files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .constraints import FreshSupply, TermConstraint, gen_columns, gen_term, generic_context
from .errors import BudgetExceeded, RegunifyError, TypeValidationError
from .parser import (
    parse_context,
    parse_equation,
    parse_program,
    parse_query,
    parse_signatures,
    parse_term,
    parse_type,
    parse_typedefs,
)
from .pretty import display_renaming, pp_goal, pp_term, pp_type
from .resolution import (
    NoFalse,
    NoUnknown,
    NoWrong,
    ResolutionBudget,
    Yes,
    resolve,
)
from .semantics import MAX_TERMS, LiteralPool, eq_values, eval_term, sample_ground_terms
from .solver import (
    Solved,
    SolveFalse,
    SolveWrong,
    equation_columns,
    principal_typing,
    solve_columns,
    type_columns,
    typed_unify,
)
from .syntax import apply_type_subst
from .typecheck import check_equation_explain, check_explain
from .typedefs import derive_signatures, validate

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_WRONG = 2
EXIT_UNKNOWN = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70


class _UsageError(Exception):
    pass


class _ArgParser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code collides with "wrong"
        raise _UsageError(message)


# --- shared plumbing -----------------------------------------------------------


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_defs(path: str | None):
    if path is None:
        path = os.environ.get("REGUNIFY_TYPES")
    if not path:
        return validate(())
    return validate(parse_typedefs(_read(path), source=path))


def _load_overrides(path: str | None, defs):
    if path is None:
        return None
    return parse_signatures(_read(path), defs, source=path)


def _map_text(d: dict[str, str], sep: str) -> str:
    inner = ", ".join(f"{k}{sep}{d[k]}" for k in sorted(d))
    return "{" + inner + "}"


def _rename_types(var_types) -> dict[str, str]:
    ren = display_renaming(list(var_types.values()))
    return {
        name: pp_type(apply_type_subst(ren, ty)) for name, ty in var_types.items()
    }


def _c_doc(c) -> dict:
    if isinstance(c, TermConstraint):
        return {"kind": "term", "lhs": pp_term(c.lhs), "rhs": pp_term(c.rhs)}
    return {"kind": "type", "lhs": pp_type(c.lhs), "rhs": pp_type(c.rhs)}


def _c_text(cd: dict) -> str:
    return f"{cd['lhs']} = {cd['rhs']}"


def _state_doc(state) -> dict:
    return {
        "terms": [_c_doc(c) for c in state.terms],
        "types": [_c_doc(c) for c in state.types],
    }


def _state_text(sd: dict) -> str:
    cs = ", ".join(_c_text(c) for c in sd["terms"])
    ts = ", ".join(_c_text(c) for c in sd["types"])
    return f"C={{{cs}}}  T={{{ts}}}"


# --- subcommands ---------------------------------------------------------------


def cmd_validate(args):
    doc = {"file": args.file}
    try:
        dset = validate(parse_typedefs(_read(args.file), source=args.file))
    except TypeValidationError as e:
        doc["ok"] = False
        doc["violations"] = [
            {"kind": v.kind, "symbol": v.symbol, "detail": v.detail}
            for v in e.violations
        ]
        lines = [f"{v['kind']} in {v['symbol']}: {v['detail']}" for v in doc["violations"]]
        return EXIT_DATA, doc, lines
    doc["ok"] = True
    doc["symbols"] = sorted(dset.symbols())
    doc["violations"] = []
    return EXIT_OK, doc, [f"ok: {len(doc['symbols'])} type symbols ({', '.join(doc['symbols'])})"]


def cmd_infer(args, defs, overrides):
    term = parse_term(args.term, source="<term>")
    doc = {"term": pp_term(term)}
    if args.emit_constraints:
        sig = derive_signatures(defs, overrides)
        fresh = FreshSupply()
        ctx = generic_context([term], fresh)
        ty, term_cs, type_cs = gen_term(ctx, sig, term, fresh)
        doc["constraints"] = {
            "context": {name: pp_type(t) for name, t in ctx.items()},
            "type": pp_type(ty),
            "terms": [_c_doc(c) for c in term_cs],
            "types": [_c_doc(c) for c in type_cs],
        }
    result = principal_typing(term, defs, overrides=overrides)
    if isinstance(result, SolveWrong):
        doc["outcome"] = "wrong"
        doc["context"] = None
        doc["type"] = None
        doc["witness"] = _c_text(_c_doc(result.witness))
        code = EXIT_WRONG
    else:
        ren = display_renaming(list(result.context.values()) + [result.type])
        doc["outcome"] = "typing"
        doc["context"] = {
            name: pp_type(apply_type_subst(ren, t)) for name, t in result.context.items()
        }
        doc["type"] = pp_type(apply_type_subst(ren, result.type))
        doc["witness"] = None
        code = EXIT_OK
    return code, doc, _human_infer(doc)


def _human_infer(doc) -> list[str]:
    lines = [f"term: {doc['term']}"]
    if "constraints" in doc:
        c = doc["constraints"]
        lines.append(f"generic context: {_map_text(c['context'], ' : ')}")
        lines.append(f"generated type: {c['type']}")
        for kind in ("term", "type"):
            inner = ", ".join(_c_text(x) for x in c[kind + "s"])
            lines.append(f"{kind} constraints: {{{inner}}}")
    if doc["outcome"] == "wrong":
        lines.append("wrong")
        lines.append(f"clash: {doc['witness']}")
    else:
        lines.append(f"context: {_map_text(doc['context'], ' : ')}")
        lines.append(f"type: {doc['type']}")
    return lines


def cmd_check(args, defs, overrides):
    sig = derive_signatures(defs, overrides)
    ctx = parse_context(_read(args.context), defs, source=args.context) if args.context else {}
    parsed = parse_equation(args.expr, source="<expr>")
    if isinstance(parsed, tuple):
        if args.candidate not in (None, "bool"):
            raise _UsageError("an equation can only be checked at type bool")
        lhs, rhs = parsed
        ok, failing = check_equation_explain(ctx, sig, lhs, rhs)
        judgment = f"{pp_term(lhs)} = {pp_term(rhs)} : bool"
    else:
        if args.candidate is None:
            raise _UsageError("checking a plain term needs a candidate type")
        ty = parse_type(args.candidate, defs, source="<type>")
        ok, failing = check_explain(ctx, sig, parsed, ty)
        judgment = f"{pp_term(parsed)} : {pp_type(ty)}"
    doc = {
        "judgment": judgment,
        "context": {name: pp_type(t) for name, t in ctx.items()},
        "ok": ok,
        "failing": None
        if failing is None
        else {"term": pp_term(failing[0]), "type": pp_type(failing[1])},
    }
    lines = ["yes" if ok else "no"]
    if not ok and doc["failing"] is not None:
        lines.append(f"failing: {doc['failing']['term']} : {doc['failing']['type']}")
    return (EXIT_OK if ok else EXIT_FALSE), doc, lines


def _max_steps(args) -> int | None:
    """`--max-steps`, refused when negative; 0 allows no step at all."""
    if args.max_steps is not None and args.max_steps < 0:
        raise _UsageError(f"argument --max-steps: must be at least 0, got {args.max_steps}")
    return args.max_steps


def cmd_unify(args, defs, overrides):
    max_steps = _max_steps(args)
    lhs = parse_term(args.left, source="<left>")
    rhs = parse_term(args.right, source="<right>")
    run = typed_unify(lhs, rhs, defs, overrides=overrides, trace=args.trace, max_steps=max_steps)
    doc = {"steps": run.steps}
    if args.trace:
        doc["initial"] = _state_doc(run.initial)
        doc["trace"] = [
            {"rule": s.rule, "constraint": _c_doc(s.target), "after": _state_doc(s.state)}
            for s in run.trace
        ]
    doc.update(_unify_outcome(run))
    return _UNIFY_EXIT[doc["outcome"]], doc, _human_unify(doc)


_UNIFY_EXIT = {"solved": EXIT_OK, "false": EXIT_FALSE, "wrong": EXIT_WRONG}


def _unify_outcome(run) -> dict:
    """The outcome, bindings, var_types and witness fields of a unify doc."""
    result = run.result
    if isinstance(result, Solved):
        return {
            "outcome": "solved",
            "bindings": {name: pp_term(t) for name, t in result.subst.items()},
            "var_types": _rename_types(run.var_types),
            "witness": None,
        }
    solve_false = isinstance(result, SolveFalse)
    return {
        "outcome": "false" if solve_false else "wrong",
        "bindings": None,
        "var_types": _rename_types(run.var_types) if solve_false else None,
        "witness": _c_text(_c_doc(result.witness)),
    }


def _human_unify(doc) -> list[str]:
    lines = []
    if "initial" in doc:
        lines.append(f"start: {_state_text(doc['initial'])}")
        for s in doc["trace"]:
            lines.append(
                f"rule{s['rule']}: {_c_text(s['constraint'])} ==> {_state_text(s['after'])}"
            )
    lines.append(doc["outcome"])
    if doc["outcome"] == "solved":
        lines.append(f"bindings: {_map_text(doc['bindings'], ' = ')}")
        lines.append(f"types: {_map_text(doc['var_types'], ' : ')}")
    elif doc["outcome"] == "false":
        lines.append(f"disagreement: {doc['witness']}")
        lines.append(f"types: {_map_text(doc['var_types'], ' : ')}")
    else:
        lines.append(f"clash: {doc['witness']}")
    return lines


_RUN_OUTCOME = {  # outcome type -> (text, exit code)
    Yes: ("yes", EXIT_OK),
    NoFalse: ("no(false)", EXIT_FALSE),
    NoWrong: ("no(wrong)", EXIT_WRONG),
    NoUnknown: ("no(?)", EXIT_UNKNOWN),
}


def cmd_run(args, defs, overrides):
    budget = ResolutionBudget(max_steps=_max_steps(args))
    program = parse_program(_read(args.program), source=args.program)
    query = parse_query(args.query, source="<query>")
    report = resolve(program, query, defs, overrides=overrides, budget=budget)
    doc = _run_doc(report, args.trace)
    return _RUN_OUTCOME[type(report.outcome)][1], doc, _human_run(doc)


def _run_doc(report, trace: bool) -> dict:
    """The `run` document of a resolve report, with its branches if traced."""
    outcome = report.outcome
    doc = {
        "outcome": _RUN_OUTCOME[type(outcome)][0],
        "steps": report.steps,
        "budget_exceeded": isinstance(outcome, NoUnknown) and outcome.budget_exceeded,
        "bindings": None,
        "var_types": None,
    }
    if isinstance(outcome, Yes):
        doc["bindings"] = {name: pp_term(t) for name, t in outcome.bindings.items()}
        doc["var_types"] = _rename_types(outcome.var_types)
    if trace:
        doc["branches"] = [
            {
                "depth": b.depth,
                "goal": pp_goal(b.goal),
                "against": None if b.against is None else pp_goal(b.against),
                "verdict": b.verdict,
                "final": b.final,
                "via": b.via,
            }
            for b in report.branches
        ]
    return doc


def _human_run(doc) -> list[str]:
    lines = []
    for b in doc.get("branches", ()):
        if b["via"] == "clause":
            against = f" ~ {b['against']}"
        elif b["via"] == "equality":
            against = ""
        else:
            against = " (no clauses)"
        suffix = " [final]" if b["final"] else ""
        lines.append(f"branch d={b['depth']}: {b['goal']}{against} => {b['verdict']}{suffix}")
    if doc["outcome"] == "yes":
        lines.append(f"yes {_map_text(doc['bindings'], ' = ')}")
        lines.append(f"types: {_map_text(doc['var_types'], ' : ')}")
    else:
        lines.append(doc["outcome"])
    if doc["budget_exceeded"]:
        lines.append("budget exceeded")
    return lines


def cmd_oracle(args, defs, overrides):
    if args.limit < 0:
        raise _UsageError(f"argument --limit: must be at least 0, got {args.limit}")
    sig = derive_signatures(defs, overrides).with_function("f", 1)
    pool = LiteralPool(ints=(0, 1), floats=(), strings=(), atoms=("a",))
    try:  # the count comes before any term is built: a request too large
        n_terms, kept = sample_ground_terms(sig, args.depth, pool, max_pairs=args.limit, seed=args.seed)
    except BudgetExceeded:
        too_many = f"depth {args.depth} has more than {MAX_TERMS} terms, the enumeration budget"
        raise _UsageError(f"argument --depth: {too_many}; give a smaller --depth") from None
    # each kept term is typed once per side, from one supply, so the two
    # sides of a pair never share a variable: every pair's state is the
    # one `gen_equation` builds, up to the names of its type variables.
    # Its constraints are split into columns and classified then too, so a
    # pair only joins two blocks; each pair is still solved in full.
    fresh = FreshSupply()

    def typed(t):
        lhs: list = []
        rhs: list = []
        ty = gen_columns({}, sig, t, fresh, lhs, rhs)
        return ty, type_columns(lhs, rhs)

    values = [eval_term(t, defs=defs) for t in kept]
    lefts = [typed(t) for t in kept]
    rights = [typed(t) for t in kept]
    verdict_of = {Solved: "true", SolveFalse: "false", SolveWrong: "wrong"}
    mismatches = []
    for t1, v1, left in zip(kept, values, lefts):
        for t2, v2, right in zip(kept, values, rights):
            got = verdict_of[type(solve_columns(*equation_columns(t1, left, t2, right)).result)]
            want = eq_values(v1, v2)
            if got != want:
                mismatches.append(
                    {"left": pp_term(t1), "right": pp_term(t2), "solver": got, "semantics": want}
                )
    doc = {
        "depth": args.depth,
        "terms": n_terms,
        "pairs": len(kept) ** 2,
        "mismatch_count": len(mismatches),
        "mismatches": mismatches[:10],
    }
    lines = [
        f"terms: {doc['terms']}",
        f"pairs: {doc['pairs']}",
        f"mismatches: {doc['mismatch_count']}",
    ]
    for m in doc["mismatches"]:
        lines.append(
            f"  {m['left']} vs {m['right']}: solver {m['solver']}, semantics {m['semantics']}"
        )
    return (EXIT_OK if not mismatches else EXIT_INTERNAL), doc, lines


def cmd_repl(args, defs, overrides):
    program = []
    out = sys.stdout
    print("one statement per line: fact/rule to assert, t1 = t2, or ?- goals.", file=out)
    for raw in sys.stdin:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if line in ("quit.", "quit", "exit.", "exit"):
            break
        try:
            if line.startswith("?-"):
                query = parse_query(line, source="<repl>")
                report = resolve(program, query, defs, overrides=overrides)
                lines = _human_run(_run_doc(report, trace=False))
            else:
                parsed = None if ":-" in line else parse_equation(line, source="<repl>")
                if isinstance(parsed, tuple):
                    run = typed_unify(parsed[0], parsed[1], defs, overrides=overrides)
                    lines = _human_unify(_unify_outcome(run))
                else:
                    clauses = parse_program(line if line.endswith(".") else line + ".", source="<repl>")
                    program.extend(clauses)
                    lines = [f"asserted ({len(program)} clauses)"]
        except RegunifyError as e:
            lines = [f"error: {e}"]
        for ln in lines:
            print(ln, file=out)
    return EXIT_OK, {}, []


# --- driver ----------------------------------------------------------------------


def _build_parser() -> _ArgParser:
    p = _ArgParser(prog="regunify", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, sig=True):
        sp.add_argument("--types", help="type definitions file (default: $REGUNIFY_TYPES)")
        if sig:
            sp.add_argument("--sig", help="signature override file")
        sp.add_argument("--json", action="store_true", help="structured output")

    sp = sub.add_parser("validate", help="check a type definitions file")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("infer", help="principal typing of a term")
    sp.add_argument("term")
    common(sp)
    sp.add_argument(
        "--emit-constraints", action="store_true", help="also print the generated constraints"
    )
    sp.set_defaults(fn=cmd_infer)

    sp = sub.add_parser("check", help="check a term or equation against a type")
    sp.add_argument("expr", help="term, or equation t1 = t2")
    sp.add_argument("candidate", nargs="?", help="candidate type (bool for equations)")
    sp.add_argument("--context", help="context file of `X : type.` lines")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("unify", help="typed unification of two terms")
    sp.add_argument("left")
    sp.add_argument("right")
    common(sp)
    sp.add_argument("--trace", action="store_true", help="print each rewrite step")
    sp.add_argument("--max-steps", type=int, default=None)
    sp.set_defaults(fn=cmd_unify)

    sp = sub.add_parser("run", help="run a query against a program")
    sp.add_argument("program", help="program file of clauses")
    sp.add_argument("-q", "--query", required=True, help="comma-separated goals")
    common(sp)
    sp.add_argument("--trace", action="store_true", help="report every branch attempt")
    sp.add_argument("--max-steps", type=int, default=ResolutionBudget.max_steps)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("oracle", help="solver vs ground semantics over enumerated pairs")
    common(sp, sig=False)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--limit",
        type=int,
        default=10_000,
        help="keep every term of depth <= 1, then strided deeper ones up to isqrt(LIMIT)"
        " terms in all (at least one); every ordered pair of kept terms is checked",
    )
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("repl", help="interactive unify/run loop over stdin")
    sp.add_argument("--types")
    sp.add_argument("--sig")
    sp.set_defaults(fn=cmd_repl)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "types" in vars(args):  # type definitions first, then the overrides
            defs = _load_defs(args.types)
            overrides = _load_overrides(getattr(args, "sig", None), defs)
            code, doc, lines = args.fn(args, defs, overrides)
        else:
            code, doc, lines = args.fn(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as e:
        # the rewrite budget exists to catch non-termination bugs, so hitting
        # it is an internal failure, not bad input
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RegunifyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:  # last resort, so that exit 1 only ever means false
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        if getattr(args, "json", False):
            doc = {"schema_version": SCHEMA_VERSION, "command": args.cmd, **doc}
            print(json.dumps(doc, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout went away: the outcome's code still stands,
        # and stdout now writes to devnull, so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
