"""Concrete syntax: parsing, printing, and the round-trip property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regunify import (
    Base,
    Bool,
    Clause,
    Compound,
    CtorApp,
    Const,
    NIL,
    ParseError,
    SymApp,
    TVar,
    Var,
    cons,
    mk_atom,
    mk_float,
    mk_int,
    mk_list,
    mk_string,
    parse_context,
    parse_equation,
    parse_program,
    parse_query,
    parse_signatures,
    parse_term,
    parse_type,
    parse_typedefs,
    pp_goal,
    pp_term,
    pp_type,
    validate,
)


def test_parse_compound():
    assert parse_term("cons(X,[])") == cons(Var("X"), NIL)


def test_list_sugar():
    assert parse_term("[1|Y]") == cons(mk_int(1), Var("Y"))
    assert parse_term("[1, 2]") == mk_list([mk_int(1), mk_int(2)])
    assert parse_term("[a, b | T]") == mk_list([mk_atom("a"), mk_atom("b")], tail=Var("T"))
    assert parse_term("[]") == NIL


def test_dot_functor_alias():
    assert parse_term("'.'(1, [])") == cons(mk_int(1), NIL)


def test_literals():
    assert parse_term("-3") == mk_int(-3)
    assert parse_term("2.5") == mk_float(2.5)
    assert parse_term('"hi there"') == mk_string("hi there")
    assert parse_term("'Quoted atom'") == mk_atom("Quoted atom")


def test_parse_errors_have_spans():
    with pytest.raises(ParseError) as exc:
        parse_term("f(")
    assert exc.value.span is not None
    with pytest.raises(ParseError):
        parse_term("f )")


def test_anonymous_vars_distinct():
    t = parse_term("f(_, _)")
    assert isinstance(t, Compound)
    a, b = t.args
    assert isinstance(a, Var) and isinstance(b, Var)
    assert a.name != b.name


def test_anonymous_vars_count_past_spelled_ones():
    # an anonymous variable never takes the name of a spelled _#n
    assert parse_term("f(_, _#1)") == Compound("f", (Var("_#2"), Var("_#1")))
    assert parse_query("?- p(_#3, _), q(_).") == (
        Compound("p", (Var("_#3"), Var("_#4"))),
        Compound("q", (Var("_#5"),)),
    )
    # input that spells no _#n keeps its names
    assert parse_term("f(_, _#0, _)") == Compound("f", (Var("_#1"), Var("_#0"), Var("_#2")))
    assert parse_term("g(_, \"_#9\", '_#8', _)") == Compound(
        "g", (Var("_#1"), mk_string("_#9"), mk_atom("_#8"), Var("_#2"))
    )


def test_printed_floats_and_empty_list_applications_parse():
    # the forms the printers give for these values, which parse back
    for value, text in ((1.0e20, "1e+20"), (0.00001, "1e-05"), (-2.5e-300, "-2.5e-300")):
        assert pp_term(mk_float(value)) == text
        assert parse_term(text) == mk_float(value)
    assert parse_term("-3E7") == mk_float(-3e7)
    assert parse_term("[](1)") == Compound("[]", (mk_int(1),))
    assert parse_term("[]([], [](X))") == Compound("[]", (NIL, Compound("[]", (Var("X"),))))
    assert parse_type("[](int)") == CtorApp("[]", (Base("int"),))
    assert parse_type("list([](A, []))") == SymApp("list", (CtorApp("[]", (TVar("A"), CtorApp("[]", ()))),))


def test_nested_equals_rejected():
    with pytest.raises(ParseError):
        parse_term("f(X = Y)")


def test_parse_equation():
    eq = parse_equation("cons(X,[]) = cons(1,Y)")
    assert eq == (cons(Var("X"), NIL), cons(mk_int(1), Var("Y")))
    assert parse_equation("f(X)") == Compound("f", (Var("X"),))


def test_parse_program_and_query():
    program = parse_program("length([],0).\nlength([_|T], N) :- length(T, N1), N is N1 + 1.")
    assert len(program) == 2
    assert program[0] == Clause(Compound("length", (NIL, mk_int(0))))
    assert len(program[1].body) == 2
    query = parse_query("?- length(3,[a,b,c]).")
    assert len(query) == 1
    assert query[0].functor == "length"
    assert parse_query("p(1), p(2)") == (
        Compound("p", (mk_int(1),)),
        Compound("p", (mk_int(2),)),
    )


def test_equation_goal_and_head_rules():
    query = parse_query("X = f(Y)")
    assert query[0] == Compound("=", (Var("X"), Compound("f", (Var("Y"),))))
    with pytest.raises(ParseError):
        parse_program("X = 1.")  # equations cannot head clauses


def test_parse_typedefs_roundtrip():
    defs = parse_typedefs("pair(A, B) --> mk(A, B).\nnat --> zero + s(nat).")
    names = {d.symbol for d in defs}
    assert names == {"pair", "nat"}
    nat = next(d for d in defs if d.symbol == "nat")
    assert len(nat.summands) == 2


def test_parse_type_resolution(tree_defs):
    ty = parse_type("tree(list(int))", tree_defs)
    assert ty == SymApp("tree", (SymApp("list", (Base("int"),)),))
    assert parse_type("A") == TVar("A")
    with pytest.raises(ParseError):
        parse_type("bool(int)")


def test_parse_context(defs):
    ctx = parse_context("X : int.\nY : list(A).", defs)
    assert ctx == {"X": Base("int"), "Y": SymApp("list", (TVar("A"),))}


def test_comments_ignored():
    assert parse_term("% nothing\n f(X) % trailing\n") == Compound("f", (Var("X"),))


@pytest.mark.parametrize(
    "parse, text, message",
    [
        # one malformed input per "item (separator item)*" construct
        (parse_term, "1 +", "<term>:1:4: unexpected end of input"),
        (parse_term, "f(1,)", "<term>:1:5: expected a term, found ')'"),
        (parse_term, "f(1 2)", "<term>:1:5: expected RPAREN, found '2'"),
        (parse_term, "[1,]", "<term>:1:4: expected a term, found ']'"),
        (parse_query, "p(1),", "<query>:1:6: unexpected end of input"),
        (parse_typedefs, "t(A,) --> a.", "<types>:1:5: expected type parameter, found ')'"),
        (parse_typedefs, "t(A, b) --> a.", "<types>:1:6: expected type parameter, found 'b'"),
        (parse_typedefs, "t --> a +.", "<types>:1:10: expected a type, found '.'"),
        (parse_signatures, "p : int * -> bool.", "<signatures>:1:11: expected a type, found '->'"),
        # each part resolves as soon as it is read, before the next is parsed
        (parse_signatures, "p : bool(int) * ) -> bool.", "<signatures>:1:5: bool takes no arguments"),
        (parse_type, "list(int,)", "<type>:1:10: expected a type, found ')'"),
        # a misused base name is reported where it stands, however deep
        (parse_type, "list(int(x))", "<type>:1:6: int takes no arguments"),
        (parse_typedefs, "t --> a(bool(int)).", "<types>:1:9: bool takes no arguments"),
        (parse_context, "X : string(a).", "<context>:1:5: string takes no arguments"),
    ],
)
def test_separated_list_errors(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_term, "f(a, #)", "<term>:1:6: unexpected character '#'"),
        (parse_query, "?- p, X.", "<query>:1:7: a goal cannot be a bare variable"),
        (parse_query, '?- "s".', "<query>:1:4: a goal cannot be a literal"),
        (parse_program, "p.\n'='(X, Y) :- p.", "<program>:2:1: the equality predicate cannot be redefined"),
        (parse_program, "X :- p.", "<program>:1:1: a clause head must be an atom or compound"),
        (parse_type, "list(_)", "<type>:1:6: anonymous variables are not allowed in types"),
        (parse_typedefs, "t --> a.\nint --> a.", "<types>:2:1: int is a reserved type name"),
        (parse_signatures, "X : int.", "<signatures>:1:1: expected a symbol name"),
        (
            parse_signatures,
            "p : int -> bool.\n'q' : atom * atom.",
            "<signatures>:2:1: a constant declaration takes a single type",
        ),
    ],
)
def test_error_messages(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("open_, close", [("f(", ")"), ("[", "]")])
def test_deeply_nested_term_parses(open_, close):
    # 300 levels, below the parser's nesting limit of about 330 (printing
    # has none); the term recursion of the parser must not grow by a frame
    # per level
    t = parse_term(open_ * 300 + "a" + close * 300)
    for _ in range(300):
        assert isinstance(t, Compound)
        t = t.args[0]
    assert t == Const("a", "atom")


# --- printing ------------------------------------------------------------------


def test_pp_list_sugar():
    assert pp_term(mk_list([mk_int(1), mk_int(2)])) == "[1, 2]"
    assert pp_term(cons(mk_int(1), Var("Y"))) == "[1 | Y]"
    assert pp_term(NIL) == "[]"


def test_pp_quoting():
    assert pp_term(mk_atom("hello")) == "hello"
    assert pp_term(mk_atom("Needs Quotes")) == "'Needs Quotes'"
    assert pp_term(mk_string("hi")) == '"hi"'


def test_pp_goal_infix():
    goal = Compound("=", (Var("X"), mk_int(1)))
    assert pp_goal(goal) == "X = 1"


def test_pp_type():
    assert pp_type(SymApp("list", (Base("int"),))) == "list(int)"


# --- round-trip property ----------------------------------------------------------

_atoms = st.sampled_from(["a", "b", "c", "hello world", "Weird'"])
_varnames = st.sampled_from(["X", "Y", "Zed", "_under"])


@st.composite
def terms(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        which = draw(st.integers(0, 4))
        if which == 0:
            return Var(draw(_varnames))
        if which == 1:
            return mk_int(draw(st.integers(-5, 5)))
        if which == 2:
            return mk_float(draw(st.floats(allow_nan=False, allow_infinity=False)))
        if which == 3:
            return mk_string(draw(st.sampled_from(["", "s", 'q"q', "a\\b"])))
        return mk_atom(draw(_atoms))
    functor = draw(st.sampled_from(["f", "g", "cons", "+", "[]"]))
    n = draw(st.integers(1, 2)) if functor == "[]" else 1 if functor == "f" else 2
    return Compound(functor, tuple(draw(terms(depth - 1)) for _ in range(n)))


@given(terms())
def test_print_parse_roundtrip(t):
    assert parse_term(pp_term(t)) == t


_TREE_DEFS = validate(parse_typedefs("tree(A) --> leaf(A) + node(tree(A), tree(A))."))
# Constructor names that are no type symbol and no reserved type name, `[]`
# among them, some of them quoted in print
_ctor_names = st.sampled_from(
    ["[]", "nil", "leaf", "node", "cons", "Quoted", "it's", "two words", "back\\slash"]
)

types = st.recursive(
    st.one_of(
        st.builds(TVar, st.sampled_from(["A", "B", "Elem", "_T"])),
        st.builds(Base, st.sampled_from(["int", "float", "string", "atom"])),
        st.just(Bool()),
        st.builds(CtorApp, _ctor_names),
        st.builds(SymApp, st.sampled_from(["list", "tree"])),
    ),
    lambda sub: st.one_of(
        st.builds(
            SymApp, st.sampled_from(["list", "tree"]), st.lists(sub, min_size=1, max_size=2).map(tuple)
        ),
        st.builds(CtorApp, _ctor_names, st.lists(sub, min_size=1, max_size=3).map(tuple)),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(types)
def test_type_print_parse_roundtrip(ty):
    assert parse_type(pp_type(ty), _TREE_DEFS) == ty
