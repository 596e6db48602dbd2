"""Regular type definitions and the signature environment derived from them.

A definition names a type symbol over distinct parameters and lists its
summands, each a constructor constant or constructor application:

    tree(A) --> leaf + node(A, tree(A), tree(A)).

A definition set is deterministic: every constructor belongs to at most one
definition.  The built-in definition

    list(A) --> [] + cons(A, list(A)).

is always present; a user file may restate it verbatim but not change it.

From a validated set we derive signatures: each constructor gets a scheme
whose codomain is its owning type symbol.  Symbols outside the definitions
fall back to defaults: literals type as their base type, undeclared atoms as
atom, an undeclared functor f/n as a free constructor with its own implicit
type symbol f°, and an undeclared predicate p/n as a predicate over n generic
argument types.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

from .errors import ArityMismatch, ConflictingOverride, TypeValidationError
from .syntax import (
    BASE_KINDS,
    Base,
    Bool,
    Const,
    CtorApp,
    FuncType,
    SymApp,
    TVar,
    TypeExpr,
    TypeScheme,
    apply_type_subst,
    free_ctor_functor,
    free_ctor_symbol,
    free_type_vars,
)


@dataclass(frozen=True)
class TypeDef:
    """One definition: symbol(params) --> summands."""

    symbol: str
    params: tuple[str, ...]
    summands: tuple[CtorApp, ...]


BUILTIN_LIST = TypeDef(
    "list",
    ("A",),
    (CtorApp("[]"), CtorApp("cons", (TVar("A"), SymApp("list", (TVar("A"),))))),
)


@dataclass(frozen=True)
class Violation:
    """A single validation problem, tagged with a stable kind name."""

    kind: str
    symbol: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} in {self.symbol}: {self.detail}"


def _alpha_equal_def(a: TypeDef, b: TypeDef) -> bool:
    if a.symbol != b.symbol or len(a.params) != len(b.params):
        return False
    ren = dict(zip(a.params, (TVar(p) for p in b.params)))
    renamed = tuple(apply_type_subst(ren, s) for s in a.summands)
    return renamed == b.summands


def _check_summand_shape(ty: TypeExpr, symbol: str, out: list[Violation], top: bool) -> None:
    if top and not isinstance(ty, CtorApp):
        out.append(
            Violation("IllegalSummand", symbol, f"summand {ty!r} is not a constructor term")
        )
        return
    if isinstance(ty, Bool):
        out.append(Violation("IllegalSummand", symbol, "bool cannot appear inside a summand"))
    elif isinstance(ty, (SymApp, CtorApp)):
        for arg in ty.args:
            _check_summand_shape(arg, symbol, out, top=False)


class TypeDefSet:
    """A validated, deterministic collection of type definitions.

    Build one through validate(); direct construction skips validation and is
    reserved for internal use.  Instances are immutable after construction,
    so the signatures derived from one alone are derived once and kept on it
    (see derive_signatures).
    """

    def __init__(self, defs: dict[str, TypeDef]):
        self._defs = dict(defs)
        self._signatures: SignatureEnv | None = None
        self._ctors = {
            (s.ctor, len(s.args)): (d, s) for d in self._defs.values() for s in d.summands
        }

    def lookup(self, symbol: str) -> TypeDef | None:
        return self._defs.get(symbol)

    def lookup_ctor(self, ctor: str, arity: int) -> tuple[TypeDef, CtorApp] | None:
        """The definition and the summand that declare ctor/arity, if any."""
        return self._ctors.get((ctor, arity))

    def lookup_free(self, symbol: str, arity: int) -> TypeDef | None:
        """Implicit definition backing a free-constructor type symbol."""
        functor = free_ctor_functor(symbol)
        if functor is None:
            return None
        params = tuple(f"A{i + 1}" for i in range(arity))
        return TypeDef(symbol, params, (CtorApp(functor, tuple(TVar(p) for p in params)),))

    def symbols(self) -> tuple[str, ...]:
        return tuple(self._defs)

    def defs(self) -> tuple[TypeDef, ...]:
        return tuple(self._defs.values())

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._defs


def validate(defs) -> TypeDefSet:
    """Check well-formedness and determinism; raise TypeValidationError listing
    every violation, otherwise return the definition set (built-ins included).
    """
    out: list[Violation] = []
    accepted: dict[str, TypeDef] = {"list": BUILTIN_LIST}
    ctor_owner: dict[str, str] = {s.ctor: "list" for s in BUILTIN_LIST.summands}

    for d in defs:
        if d.symbol in accepted:
            if d.symbol == "list" and _alpha_equal_def(d, BUILTIN_LIST):
                continue
            out.append(
                Violation(
                    "DuplicateTypeSymbol",
                    d.symbol,
                    "type symbol already defined"
                    + (" (built-in list may only be restated verbatim)" if d.symbol == "list" else ""),
                )
            )
            continue
        if len(set(d.params)) != len(d.params):
            out.append(Violation("DuplicateParam", d.symbol, "parameters must be distinct"))
        if not d.summands:
            out.append(Violation("IllegalSummand", d.symbol, "definition has no summands"))

        used: set[str] = set()
        for s in d.summands:
            _check_summand_shape(s, d.symbol, out, top=True)
            if isinstance(s, CtorApp):
                if s.ctor != "[]" and not _plain_atom_name(s.ctor):
                    out.append(
                        Violation(
                            "IllegalSummand",
                            d.symbol,
                            f"constructor {s.ctor!r} must be an atom, not a literal",
                        )
                    )
                for v in free_type_vars(s):
                    used.add(v)
                    if v not in d.params:
                        out.append(
                            Violation(
                                "UnboundTypeVar",
                                d.symbol,
                                f"variable {v} does not appear in the parameter list",
                            )
                        )
                prev = ctor_owner.get(s.ctor)
                if prev is not None:
                    out.append(
                        Violation(
                            "DuplicateConstructor",
                            d.symbol,
                            f"constructor {s.ctor} already belongs to {prev}",
                        )
                    )
                else:
                    ctor_owner[s.ctor] = d.symbol
        for p in d.params:
            if p not in used:
                out.append(
                    Violation("UnusedParam", d.symbol, f"parameter {p} is unused on the right side")
                )
        accepted[d.symbol] = d

    # Summand arguments naming type symbols must reference defined ones with
    # the right arity; unknown names parse as constructor terms, so only
    # arity errors on known symbols remain to check here.
    for d in accepted.values():
        for s in d.summands:
            _check_symapp_arities(s, accepted, d.symbol, out)

    if out:
        raise TypeValidationError(out)
    return TypeDefSet(accepted)


def _plain_atom_name(name: str) -> bool:
    return bool(name) and (name[0].islower() or not name[0].isalnum())


def _check_symapp_arities(ty: TypeExpr, defs: dict[str, TypeDef], where: str, out: list[Violation]):
    if isinstance(ty, SymApp):
        d = defs.get(ty.symbol)
        if d is not None and len(d.params) != len(ty.args):
            out.append(
                Violation(
                    "IllegalSummand",
                    where,
                    f"{ty.symbol} expects {len(d.params)} arguments, got {len(ty.args)}",
                )
            )
    if isinstance(ty, (SymApp, CtorApp)):
        for a in ty.args:
            _check_symapp_arities(a, defs, where, out)


# --- signature environment ---------------------------------------------------


# The scheme of each literal kind, the atom default among them: one object
# per kind, shared by every environment.
_LITERAL_SCHEMES = {kind: TypeScheme((), Base(kind)) for kind in BASE_KINDS}


@dataclass(frozen=True)
class SignatureEnv:
    """Schemes for constants, functions, and predicates.

    Lookups fall back to the defaults described in the module docstring.
    Each default scheme is built once per key and then shared.  The three
    maps are copied into read-only views at construction, so the defaults
    and the declared functor names cannot go stale; to extend an
    environment, build a new one (see with_function).  Errors are never
    remembered: a lookup that raises raises again on every call.
    """

    constants: Mapping[str, TypeScheme] = field(default_factory=dict)
    functions: Mapping[tuple[str, int], TypeScheme] = field(default_factory=dict)
    predicates: Mapping[tuple[str, int], TypeScheme] = field(default_factory=dict)
    _functors: frozenset = field(init=False, repr=False, compare=False)  # names in `functions`
    _function_defaults: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _predicate_defaults: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("constants", "functions", "predicates"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(self, "_functors", frozenset(f for (f, _n) in self.functions))

    def lookup_constant(self, const: Const) -> TypeScheme:
        if const.kind != "atom":  # literal kinds are base type names
            return _LITERAL_SCHEMES[const.kind]
        name = const.symbol
        scheme = self.constants.get(name)
        if scheme is not None:
            return scheme
        if name in self._functors:
            raise ArityMismatch(f"{name} is a declared functor, not a constant")
        return _LITERAL_SCHEMES["atom"]

    def lookup_function(self, functor: str, arity: int) -> TypeScheme:
        key = (functor, arity)
        scheme = self.functions.get(key)
        if scheme is not None:
            return scheme
        if functor in self.constants or functor in self._functors:
            raise ArityMismatch(f"{functor} is declared with a different arity")
        scheme = self._function_defaults.get(key)
        if scheme is None:
            params = tuple(f"A{i + 1}" for i in range(arity))
            args = tuple(TVar(p) for p in params)
            scheme = TypeScheme(params, FuncType(args, SymApp(free_ctor_symbol(functor), args)))
            self._function_defaults[key] = scheme
        return scheme

    def function_instance(self, functor: str, arity: int, fresh) -> tuple[tuple, TypeExpr]:
        """The domain and codomain of `instantiate(self.lookup_function(functor,
        arity), fresh)`, built from the scheme's instance plan (_plan), which
        the first successful lookup of the key makes and keeps.
        """
        key = (functor, arity)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _plan(self.lookup_function(functor, arity))
        if type(plan) is TypeScheme:
            ft = instantiate(plan, fresh)
            return ft.domain, ft.codomain
        generics, kind, symbol, domain, grounds = plan
        variables = tuple([fresh.tvar() for _ in generics])
        codomain = kind(symbol, variables)
        slots = variables + (codomain,) + grounds
        return tuple(map(slots.__getitem__, domain)), codomain

    def lookup_predicate(self, name: str, arity: int) -> TypeScheme:
        scheme = self.predicates.get((name, arity))
        if scheme is not None:
            return scheme
        scheme = self._predicate_defaults.get(arity)  # the default depends on the arity alone
        if scheme is None:
            params = tuple(f"A{i + 1}" for i in range(arity))
            scheme = TypeScheme(params, FuncType(tuple(TVar(p) for p in params), Bool()))
            self._predicate_defaults[arity] = scheme
        return scheme

    def with_function(self, functor: str, arity: int) -> "SignatureEnv":
        """Extended copy with the default scheme for functor/arity made explicit.

        Used to seed enumeration vocabularies with free constructors.
        """
        scheme = self.lookup_function(functor, arity)
        functions = dict(self.functions)
        functions[(functor, arity)] = scheme
        return replace(self, functions=functions)


def derive_signatures(defs: TypeDefSet, overrides: SignatureEnv | None = None) -> SignatureEnv:
    """Constructor schemes from the definitions, plus user overrides.

    Overrides may add predicate signatures freely and may restate constructor
    schemes only at the declared arity; anything contradicting a derived
    constructor scheme's arity, or naming a numeric/string literal, is
    rejected with ConflictingOverride.

    Without overrides, the environment of a definition set is derived on the
    first call and kept on the set, so every later call returns that one
    object and its default schemes are built once.
    """
    if overrides is None:
        if defs._signatures is None:
            defs._signatures = _derive(defs, None)
        return defs._signatures
    return _derive(defs, overrides)


def _derive(defs: TypeDefSet, overrides: SignatureEnv | None) -> SignatureEnv:
    constants: dict[str, TypeScheme] = {}
    functions: dict[tuple[str, int], TypeScheme] = {}
    for d in defs.defs():
        codomain = SymApp(d.symbol, tuple(TVar(p) for p in d.params))
        for s in d.summands:
            if s.args:
                # an argument of the codomain's own type is the codomain object,
                # so an instance of the scheme builds it once
                args = tuple(codomain if a == codomain else a for a in s.args)
                scheme = TypeScheme(d.params, FuncType(args, codomain))
                # the codomain mentions every parameter, so generics and body
                # variables coincide
                assert set(free_type_vars(scheme.body)) == set(d.params)
                functions[(s.ctor, len(s.args))] = scheme
            else:
                constants[s.ctor] = TypeScheme(d.params, codomain)

    predicates: dict[tuple[str, int], TypeScheme] = {}
    if overrides is not None:
        for name in overrides.constants:
            if not isinstance(name, str) or not _plain_atom_name(name):
                raise ConflictingOverride(f"cannot override the type of literal {name!r}")
            if name in constants or any(f == name for (f, _n) in functions):
                raise ConflictingOverride(f"{name} is a declared constructor")
            constants[name] = overrides.constants[name]
        for (name, arity), scheme in overrides.functions.items():
            declared = [n for (f, n) in functions if f == name]
            if declared and declared != [arity]:
                raise ConflictingOverride(
                    f"{name} is a declared constructor of arity {declared[0]}, not {arity}"
                )
            if declared:
                raise ConflictingOverride(f"{name} is a declared constructor")
            functions[(name, arity)] = scheme
        predicates.update(overrides.predicates)

    return SignatureEnv(constants=constants, functions=functions, predicates=predicates)


def _plan(scheme: TypeScheme):
    """How to build an instance of a function scheme without walking its
    body: (generics, codomain class, codomain symbol, domain slots, ground
    types).  The codomain must apply its symbol to the generics in order,
    as every derived and default scheme does.  With k generics, slot i < k
    is the instance's i-th fresh variable, slot k its codomain, and the
    slots after it the ground types, each used as it is.  So a domain entry
    may be a generic, the codomain object itself or a type without
    variables; for any other scheme the plan is the scheme, instantiated
    as written.
    """
    body, generics = scheme.body, scheme.generics
    codomain = body.codomain
    if (
        not generics
        or type(codomain) not in (SymApp, CtorApp)
        or codomain.args != tuple(TVar(g) for g in generics)
    ):
        return scheme
    slots = {g: i for i, g in enumerate(generics)}
    domain, grounds = [], []
    for ty in body.domain:
        if ty is codomain:
            domain.append(len(generics))
        elif type(ty) is TVar and ty.name in slots:
            domain.append(slots[ty.name])
        elif not free_type_vars(ty):
            domain.append(len(generics) + 1 + len(grounds))
            grounds.append(ty)
        else:
            return scheme
    symbol = codomain.symbol if type(codomain) is SymApp else codomain.ctor
    return generics, type(codomain), symbol, tuple(domain), tuple(grounds)


def instantiate(scheme: TypeScheme, fresh) -> TypeExpr | FuncType:
    """Replace the scheme's generics with variables from the fresh supply.
    A scheme without generics is its own instance: its body is returned.
    """
    if not scheme.generics:
        return scheme.body
    mapping = {g: fresh.tvar() for g in scheme.generics}
    body = scheme.body
    if isinstance(body, FuncType):
        codomain = apply_type_subst(mapping, body.codomain)
        return FuncType(  # a list, not a generator, is the faster way to a short tuple
            tuple([
                codomain if d is body.codomain else apply_type_subst(mapping, d)
                for d in body.domain
            ]),
            codomain,
        )
    return apply_type_subst(mapping, body)
