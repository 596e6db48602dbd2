"""The printers against their frozen recursive versions, and at depth.

`tests/reference_pretty.py` holds `pp_term` and `pp_type` as they were
before printing became one iterative loop, and the text of a generated
dataclass repr; every text must stay the same.
The loop itself needs no Python stack per level, so a node as deep as the
solver can build prints as quickly as a flat one.
"""

import sys
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_pretty
from regunify import (
    Base,
    Bool,
    Compound,
    CtorApp,
    NIL,
    SymApp,
    TVar,
    Var,
    cons,
    mk_atom,
    mk_float,
    mk_int,
    mk_list,
    mk_string,
    pp_term,
    pp_type,
)

_atoms = st.sampled_from(
    ["a", "b", "nil", "[]", "cons", "hello world", "Weird'", "back\\slash", "x_1", "+", "", "ünï"]
)
_strings = st.sampled_from(["", "s", 'q"q', "a\\b", "\\", '"', "two words", "new\nline"])
_functors = st.sampled_from(["f", "g", "cons", "+", "=", "is", "Quoted f", "it's", "[]", "h_2"])


def _leaf_terms():
    return st.one_of(
        st.builds(Var, st.sampled_from(["X", "Y", "Zed", "_under", "$L_51"])),
        st.builds(mk_int, st.integers(-10**12, 10**12)),
        st.builds(mk_float, st.floats(allow_nan=False, allow_infinity=False)),
        st.builds(mk_string, _strings),
        st.builds(mk_atom, _atoms),
    )


def _extend_terms(inner):
    return st.one_of(
        st.builds(Compound, _functors, st.lists(inner, min_size=1, max_size=4).map(tuple)),
        st.builds(lambda items: mk_list(items), st.lists(inner, max_size=4)),
        st.builds(lambda items, tail: mk_list(items, tail), st.lists(inner, max_size=4), inner),
        # right-nested and left-nested sums
        st.builds(lambda a, b, c: Compound("+", (a, Compound("+", (b, c)))), inner, inner, inner),
        st.builds(lambda a, b, c: Compound("+", (Compound("+", (a, b)), c)), inner, inner, inner),
    )


terms = st.recursive(_leaf_terms(), _extend_terms, max_leaves=25)

_symbols = st.sampled_from(["list", "t", "tree", "f°", "nat", "Odd Sym"])
_ctors = st.sampled_from(["[]", "cons", "nil", "a", "Quoted", "it's", "back\\slash", "+", "s"])


def _leaf_types():
    return st.one_of(
        st.builds(TVar, st.sampled_from(["A", "B", "$t1", "$L_7"])),
        st.builds(Base, st.sampled_from(["int", "float", "string", "atom"])),
        st.just(Bool()),
        st.builds(SymApp, _symbols),
        st.builds(CtorApp, _ctors),
    )


def _extend_types(inner):
    args = st.lists(inner, min_size=1, max_size=3).map(tuple)
    return st.one_of(st.builds(SymApp, _symbols, args), st.builds(CtorApp, _ctors, args))


types = st.recursive(_leaf_types(), _extend_types, max_leaves=20)


@settings(max_examples=600, deadline=None)
@given(terms)
def test_pp_term_writes_what_the_recursive_printer_wrote(t):
    assert pp_term(t) == reference_pretty.pp_term(t)


@settings(max_examples=600, deadline=None)
@given(types)
def test_pp_type_writes_what_the_recursive_printer_wrote(ty):
    assert pp_type(ty) == reference_pretty.pp_type(ty)


@settings(max_examples=300, deadline=None)
@given(st.one_of(terms, types))
def test_repr_writes_the_dataclass_text(node):
    assert repr(node) == reference_pretty.node_repr(node)


def _deep(n, leaf, wrap):
    node = leaf
    for _ in range(n):
        node = wrap(node)
    return node


def test_deep_terms_and_types_print_without_the_stack():
    n = 10_000
    assert n > sys.getrecursionlimit()
    cases = [
        (pp_term, _deep(n, mk_atom("a"), lambda t: Compound("f", (t,))), "f(" * n + "a" + ")" * n),
        (pp_term, _deep(n, NIL, lambda t: cons(t, NIL)), "[" * (n + 1) + "]" * (n + 1)),
        (pp_term, _deep(n, Var("X"), lambda t: Compound("+", (mk_int(1), t))),
         "1 + (" * (n - 1) + "1 + X" + ")" * (n - 1)),
        (pp_type, _deep(n, Base("atom"), lambda t: SymApp("f°", (t,))), "f°(" * n + "atom" + ")" * n),
        (pp_type, _deep(n, CtorApp("[]"), lambda t: CtorApp("cons", (t, CtorApp("[]")))),
         "cons(" * n + "[]" + ", [])" * n),
    ]
    for printer, node, want in cases:
        start = time.perf_counter()
        assert printer(node) == want
        assert time.perf_counter() - start < 1.0

