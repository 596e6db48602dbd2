"""The solver against the ground semantics over user type definitions.

Criterion 07 compares the two over the built-in list definition; here the
same comparison runs over small random definition sets, and `oracle --types`
runs over the definition files in `tests/data/`.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regunify import (
    Base,
    BudgetExceeded,
    Compound,
    CtorApp,
    FreshSupply,
    Solved,
    SolveFalse,
    SolveWrong,
    SymApp,
    TVar,
    derive_signatures,
    eq_values,
    eval_term,
    gen_equation,
    solve,
    validate,
)
from regunify.cli import main
from regunify.semantics import LiteralPool, sample_ground_terms
from regunify.typedefs import TypeDef

DATA = Path(__file__).parent / "data"
POOL = LiteralPool(ints=(0, 1), floats=(), strings=(), atoms=("a",))
VERDICT = {Solved: "true", SolveFalse: "false", SolveWrong: "wrong"}


@st.composite
def definition_sets(draw):
    """1-3 validated definitions d0, d1, d2 of 0-2 parameters each.  Their
    summands mix constants with constructors whose arguments are
    parameters, base types and symbol applications, nested one level;
    at most one argument in the set is a constructor term.
    """
    arities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    symbols = {f"d{i}": k for i, k in enumerate(arities)} | {"list": 1}
    ctor_term_left = True
    names = iter(f"c{i}" for i in range(100))

    def argument(params, nested):
        nonlocal ctor_term_left
        kinds = ["base", "sym"] + ["param"] * bool(params) + ["ctor"] * ctor_term_left
        kind = draw(st.sampled_from(kinds if nested else ["base"] + ["param"] * bool(params)))
        if kind == "param":
            return TVar(draw(st.sampled_from(params)))
        if kind == "base":
            return Base(draw(st.sampled_from(["int", "atom"])))
        if kind == "ctor":
            ctor_term_left = False
            inner = argument(params, False)
            return draw(st.sampled_from([CtorApp("cons", (inner, CtorApp("[]"))), CtorApp("zz")]))
        symbol = draw(st.sampled_from(sorted(symbols)))
        return SymApp(symbol, tuple(argument(params, False) for _ in range(symbols[symbol])))

    defs = []
    for i, k in enumerate(arities):
        params = ("A", "B")[:k]
        summands = [CtorApp(next(names)) for _ in range(draw(st.integers(0, 1)))]
        for _ in range(draw(st.integers(1, 2))):
            arity = draw(st.integers(1, 2))
            args = tuple(argument(params, True) for _ in range(arity))
            summands.append(CtorApp(next(names), args))
        used = {v.name for s in summands for v in _tvars(s)}
        if set(params) - used:
            summands.append(CtorApp(next(names), tuple(map(TVar, params))))
        defs.append(TypeDef(f"d{i}", params, tuple(summands)))
    return validate(defs)


def _tvars(ty):
    stack = [ty]
    while stack:
        ty = stack.pop()
        if isinstance(ty, TVar):
            yield ty
        stack.extend(getattr(ty, "args", ()))


def _shallow(t):
    return not any(isinstance(a, Compound) for a in getattr(t, "args", ()))


@settings(max_examples=100, deadline=None)
@given(definition_sets(), st.sampled_from([0, 1, 2]), st.randoms(use_true_random=False))
def test_solver_matches_semantics_over_user_definitions(defs, depth, rnd):
    sig = derive_signatures(defs).with_function("f", 1)
    try:
        _, kept = sample_ground_terms(sig, depth, POOL, max_pairs=10**6)
    except BudgetExceeded:
        _, kept = sample_ground_terms(sig, 1, POOL, max_pairs=10**6)
    shallow = [t for t in kept if _shallow(t)]
    deep = [t for t in kept if not _shallow(t)]
    # at most 16 terms, so at most 256 pairs per definition set
    terms = rnd.sample(shallow, min(10, len(shallow))) + rnd.sample(deep, min(6, len(deep)))
    values = [eval_term(t, defs=defs) for t in terms]
    for t1, v1 in zip(terms, values):
        for t2, v2 in zip(terms, values):
            got = VERDICT[type(solve(gen_equation({}, sig, t1, t2, FreshSupply())).result)]
            assert got == eq_values(v1, v2), (defs.defs(), t1, t2)


def test_definition_sets_reach_every_kind_of_argument():
    seen = set()

    @settings(max_examples=60, deadline=None, database=None)
    @given(definition_sets())
    def collect(defs):
        for s in (s for d in defs.defs() for s in d.summands):
            seen.update(type(a).__name__ for a in s.args)
            seen.update("nested" for a in s.args if isinstance(a, SymApp) and a.args)
            if not s.args:
                seen.add("constant")

    collect()
    assert seen >= {"TVar", "Base", "SymApp", "CtorApp", "nested", "constant"}


@pytest.mark.parametrize(
    "name,depth,pairs",
    [
        ("color_tri.t", 0, 64),
        ("tree_leaf_node.t", 1, 25_600),
        ("tree_leaf_of.t", 1, 1_936),
    ],
)
def test_oracle_over_user_definitions_finds_no_mismatch(capsys, name, depth, pairs):
    argv = ["oracle", "--types", str(DATA / name), "--depth", str(depth), "--limit", "0"]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == [f"pairs: {pairs}", "mismatches: 0"]
