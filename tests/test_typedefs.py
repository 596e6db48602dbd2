"""Type-definition validation and signature derivation."""

import pytest

from regunify import (
    Base,
    Bool,
    Const,
    CtorApp,
    FuncType,
    SignatureEnv,
    SymApp,
    TVar,
    TypeDef,
    TypeScheme,
    TypeValidationError,
    derive_signatures,
    instantiate,
    parse_signatures,
    parse_typedefs,
    validate,
)
from regunify.constraints import FreshSupply
from regunify.errors import ArityMismatch, ConflictingOverride
from regunify.syntax import free_ctor_symbol


def _violation_kinds(defs_text):
    with pytest.raises(TypeValidationError) as exc:
        validate(parse_typedefs(defs_text))
    return {v.kind for v in exc.value.violations}


def test_builtin_list_always_present():
    dset = validate(())
    assert "list" in dset.symbols()
    d = dset.lookup("list")
    assert d.params == ("A",)
    assert len(d.summands) == 2


def test_builtin_list_verbatim_restatement_ok():
    dset = validate(parse_typedefs("list(E) --> [] + cons(E, list(E))."))
    assert "list" in dset.symbols()


def test_builtin_list_other_restatement_rejected():
    kinds = _violation_kinds("list(E) --> [] + cons(E, E).")
    assert "DuplicateTypeSymbol" in kinds


def test_duplicate_constructor_across_defs():
    kinds = _violation_kinds("t(A) --> f(A).\ns(B) --> f(B).")
    assert kinds == {"DuplicateConstructor"}


def test_duplicate_param():
    with pytest.raises(TypeValidationError) as exc:
        validate((TypeDef("t", ("A", "A"), (CtorApp("f", (TVar("A"),)),)),))
    assert {v.kind for v in exc.value.violations} == {"DuplicateParam"}


def test_unused_param_and_unbound_var():
    assert "UnusedParam" in _violation_kinds("t(A, B) --> f(A).")
    assert "UnboundTypeVar" in _violation_kinds("t(A) --> f(A, B).")


def test_unbound_var_reported_once_per_summand():
    with pytest.raises(TypeValidationError) as exc:
        validate(parse_typedefs("t(A) --> f(B, B) + g(A)."))
    assert [(v.kind, v.detail) for v in exc.value.violations] == [
        ("UnboundTypeVar", "variable B does not appear in the parameter list")
    ]


def test_bare_variable_summand_rejected():
    assert "IllegalSummand" in _violation_kinds("t(A) --> A + f(A).")


def test_literal_summand_rejected():
    # the type grammar has no literal production, so this dies in the parser
    from regunify import ParseError

    with pytest.raises(ParseError):
        parse_typedefs("t --> 1 + f(t).")
    # a hand-built definition with a non-constructor summand fails validation
    with pytest.raises(TypeValidationError) as exc:
        validate((TypeDef("t", (), (Base("int"),)),))
    assert {v.kind for v in exc.value.violations} == {"IllegalSummand"}


def test_bool_inside_summand_rejected():
    with pytest.raises(TypeValidationError) as exc:
        validate((TypeDef("t", (), (CtorApp("f", (Bool(),)),)),))
    assert "IllegalSummand" in {v.kind for v in exc.value.violations}


def test_valid_tree(tree_defs):
    assert set(tree_defs.symbols()) >= {"list", "tree"}


# --- signature derivation ----------------------------------------------------


def test_list_schemes(sig):
    nil = sig.lookup_constant(Const("[]", "atom"))
    assert nil.body == SymApp("list", (TVar(nil.generics[0]),))
    cons_scheme = sig.lookup_function("cons", 2)
    a = TVar(cons_scheme.generics[0])
    assert cons_scheme.body == FuncType((a, SymApp("list", (a,))), SymApp("list", (a,)))


def test_literal_schemes(sig):
    assert sig.lookup_constant(Const(1, "int")).body == Base("int")
    assert sig.lookup_constant(Const(0.5, "float")).body == Base("float")
    assert sig.lookup_constant(Const("s", "string")).body == Base("string")
    assert sig.lookup_constant(Const("zzz", "atom")).body == Base("atom")


def test_free_functor_scheme(sig):
    scheme = sig.lookup_function("g", 2)
    assert len(scheme.generics) == 2
    assert isinstance(scheme.body, FuncType)
    a1, a2 = scheme.body.domain
    codomain = scheme.body.codomain
    assert isinstance(codomain, SymApp)
    assert codomain.args == (a1, a2)
    # the implicit symbol is not spellable in source text
    assert codomain.symbol not in ("g",)


def test_default_predicate_scheme(sig):
    scheme = sig.lookup_predicate("p", 3)
    assert isinstance(scheme.body, FuncType)
    assert len(scheme.body.domain) == 3
    assert isinstance(scheme.body.codomain, Bool)


def test_generics_are_exactly_body_vars(sig, tree_defs):
    for dset in (validate(()), tree_defs):
        env = derive_signatures(dset)
        for scheme in list(env.constants.values()) + list(env.functions.values()):
            from regunify import free_type_vars

            assert sorted(scheme.generics) == sorted(set(free_type_vars(scheme.body)))


def test_declared_arity_protected(sig):
    with pytest.raises(ArityMismatch):
        sig.lookup_function("cons", 3)
    with pytest.raises(ArityMismatch):
        sig.lookup_constant(Const("cons", "atom"))


def test_default_schemes_are_built_once(sig):
    assert sig.lookup_predicate("p", 2) is sig.lookup_predicate("q", 2)
    assert sig.lookup_predicate("p", 2) is not sig.lookup_predicate("p", 3)
    assert sig.lookup_function("g", 2) is sig.lookup_function("g", 2)
    assert sig.lookup_function("g", 2) is not sig.lookup_function("h", 2)
    for k in (Const("a", "atom"), Const(1, "int"), Const(0.5, "float"), Const("s", "string")):
        assert sig.lookup_constant(k) is sig.lookup_constant(Const(k.symbol, k.kind))


def test_lookup_errors_are_raised_on_every_call(sig):
    for _ in range(3):
        with pytest.raises(ArityMismatch, match="declared functor, not a constant"):
            sig.lookup_constant(Const("cons", "atom"))
        with pytest.raises(ArityMismatch, match="different arity"):
            sig.lookup_function("cons", 1)
        with pytest.raises(ArityMismatch, match="different arity"):
            sig.lookup_function("[]", 1)


def test_maps_are_read_only_copies(sig):
    # the cached defaults and functor names rest on maps nobody can change
    functions = {("k", 2): sig.lookup_function("k", 2)}
    env = SignatureEnv(functions=functions)
    functions[("m", 1)] = sig.lookup_function("m", 1)
    assert ("m", 1) not in env.functions  # the caller's later change is not seen ...
    assert env.lookup_function("m", 2) is env.lookup_function("m", 2)  # ... by lookups either
    for table in (env.constants, env.functions, env.predicates):
        with pytest.raises(TypeError):
            table[("z", 0)] = None
    assert env.with_function("m", 1).lookup_function("m", 1).body.codomain == SymApp(
        free_ctor_symbol("m"), (TVar("A1"),)
    )
    with pytest.raises(ArityMismatch, match="different arity"):
        env.with_function("m", 1).lookup_function("m", 2)


def test_declared_and_overridden_schemes_beat_the_defaults(defs):
    env = derive_signatures(
        defs, parse_signatures("p : int -> bool.\ne : list(int).\nk : int * int -> int.", defs)
    )
    assert env.lookup_predicate("q", 1).body.domain != (Base("int"),)  # the default, built first
    assert env.lookup_predicate("p", 1).body == FuncType((Base("int"),), Bool())
    assert env.lookup_constant(Const("e", "atom")).body == SymApp("list", (Base("int"),))
    assert env.lookup_function("k", 2).body == FuncType((Base("int"),) * 2, Base("int"))
    assert env.lookup_function("cons", 2) is env.functions[("cons", 2)]
    assert env.lookup_constant(Const("[]", "atom")) is env.constants["[]"]


def test_override_predicate_allowed(defs):
    env = parse_signatures("length : list(A) * int -> bool.", defs)
    merged = derive_signatures(defs, env)
    scheme = merged.lookup_predicate("length", 2)
    assert scheme.body.domain[1] == Base("int")


def test_override_constant_allowed(defs):
    env = parse_signatures("e : list(int).", defs)
    merged = derive_signatures(defs, env)
    assert merged.lookup_constant(Const("e", "atom")).body == SymApp("list", (Base("int"),))


def test_override_of_declared_constructor_rejected(defs):
    env = parse_signatures("cons : int * int -> int.", defs)
    with pytest.raises(ConflictingOverride):
        derive_signatures(defs, env)


def test_instantiate_freshness(sig):
    fresh = FreshSupply()
    scheme = sig.lookup_constant(Const("[]", "atom"))
    one = instantiate(scheme, fresh)
    two = instantiate(scheme, fresh)
    assert isinstance(one, SymApp) and isinstance(two, SymApp)
    assert one != two  # distinct fresh variables per instantiation
    assert instantiate(TypeScheme((), Base("int")), fresh) == Base("int")


def test_instantiate_without_generics_is_the_body():
    fresh = FreshSupply()
    body = FuncType((Base("int"),), Bool())
    assert instantiate(TypeScheme((), body), fresh) is body
    assert fresh.tvar() == TVar("$t1")  # no name drawn


def test_signatures_are_derived_once_per_definition_set(defs, tree_defs):
    # a definition set is immutable, so its own environment is kept on it;
    # any overrides, or another set, get an environment of their own
    env = derive_signatures(defs)
    assert derive_signatures(defs) is env
    assert derive_signatures(tree_defs) is derive_signatures(tree_defs) is not env
    overrides = SignatureEnv(predicates={("p", 1): derive_signatures(defs).lookup_predicate("p", 1)})
    with_overrides = derive_signatures(defs, overrides)
    assert with_overrides is not env and with_overrides is not derive_signatures(defs, overrides)
    assert derive_signatures(defs, SignatureEnv()) is not env
    assert derive_signatures(defs) is env
