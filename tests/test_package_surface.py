"""The package's surface: no dead imports, an `__all__` that resolves, and
no recursive function or generated tree walk beyond a shrinking list.

Standard library only (`ast`), so it runs wherever the rest of the suite does.
"""

import ast
import dataclasses
import importlib
import typing
from pathlib import Path

import regunify
from regunify import Base, Bool, Compound, Const, CtorApp, SymApp, Term, TVar, Var
from regunify.syntax import is_ground

SRC = Path(regunify.__file__).parent


def _imported_names(tree):
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # `__all__` entries and quoted annotations name things as strings
            used.add(node.value)
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        for name, line in _imported_names(tree):
            if name not in used:
                unused.append(f"{path.name}:{line}: {name}")
    assert unused == []


def test_all_entries_resolve_and_are_unique():
    assert len(regunify.__all__) == len(set(regunify.__all__))
    assert [n for n in regunify.__all__ if not hasattr(regunify, n)] == []


def test_readme_library_example_prints_its_comments(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    comments = [ln.split("# ", 1)[1] for ln in block.splitlines() if ln.startswith("print(")]
    assert comments == ["{X = 1, Y = []}", "{X : int, Y : list(int)}", "{X : $t1, Y : list($t1)}"]
    assert capsys.readouterr().out.splitlines() == comments


def test_unused_import_is_reported():
    # the check above must see through attribute use, aliases and strings
    tree = ast.parse(
        "import os.path\nimport json as j\nfrom x import a, b, c\n"
        "def f(v: 'a') -> None:\n    return os.path.join(j.dumps(v))\n__all__ = ['c']\n"
    )
    used = _used_names(tree)
    assert [n for n, _ in _imported_names(tree) if n not in used] == ["b"]


# Functions under src/ that call themselves directly, each limited by Python's
# recursion depth (ROADMAP item 3).  The list may only shrink: a walk made
# iterative leaves it, and a new recursive walk fails the test below.
RECURSIVE = {
    "parser._resolve_type",
}


def _self_calling(tree):
    """Names of the functions that call themselves, as `f(...)` or `self.f(...)`."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                f = node.func if isinstance(node, ast.Call) else None
                if isinstance(f, ast.Name) and f.id == fn.name or (
                    isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"
                ):
                    yield fn.name
                    break


def test_no_new_recursive_function():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _self_calling(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert sorted(found - RECURSIVE) == []


def test_self_call_is_reported():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "class C(E):\n    def __init__(self):\n        super().__init__()\n"
        "    def m(self, n):\n        return [self.m(k) for k in n]\n"
        "def g():\n    return f(0)\n"
    )
    assert list(_self_calling(tree)) == ["f", "m"]


# Dataclasses under src/ whose fields can hold terms or types and that keep a
# generated `__eq__`, `__hash__` or `__repr__`.  Those methods walk a shared
# subterm as a tree and recurse once per level (ROADMAP item 2), and the
# ast scan above cannot see them, because no source spells them out.  The
# list may only shrink: a class that gets its own methods leaves it.
GENERATED_WALKS = {
    "constraints.ConstraintState",
    "constraints.TermConstraint",
    "constraints.TypeConstraint",
    "resolution.BranchNote",
    "resolution.Clause",
    "resolution.ResolveReport",
    "resolution.Yes",
    "solver.PrincipalTyping",
    "solver.SolveFalse",
    "solver.SolveRun",
    "solver.SolveWrong",
    "solver.Solved",
    "solver.TraceStep",
    "solver.UnifyRun",
    "syntax.Compound",
    "syntax.CtorApp",
    "syntax.FuncType",
    "syntax.SymApp",
    "syntax.TypeScheme",
    "typedefs.SignatureEnv",
    "typedefs.TypeDef",
}

_NODES = (Var, Const, Compound, TVar, Base, Bool, SymApp, CtorApp)


def test_nodes_hold_only_their_structure():
    # every node is built on the hot paths, so a field that nothing reads
    # costs each construction; source positions stay with the parser's tokens
    assert {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in _NODES} == {
        "Var": ["name"],
        "Const": ["symbol", "kind"],
        "Compound": ["functor", "args"],
        "TVar": ["name"],
        "Base": ["kind"],
        "Bool": [],
        "SymApp": ["symbol", "args"],
        "CtorApp": ["ctor", "args"],
    }


def test_groundness_is_read_by_the_walks_and_is_no_field():
    # every node also answers `ground`, which the walks that look for
    # variables read to stop at a ground node (`syntax.is_ground`).  It is
    # a class attribute, not a field: a leaf's class answers, and an
    # application's answer is None until first asked, then kept on the
    # node, so building a node costs nothing more, and equality, hashing
    # and printing never see it
    assert {cls.__name__: cls.__dict__["ground"] for cls in _NODES} == {
        "Var": False,
        "Const": True,
        "Compound": None,
        "TVar": False,
        "Base": True,
        "Bool": True,
        "SymApp": None,
        "CtorApp": None,
    }
    asked, fresh = Compound("f", (Var("X"), Const(1, "int"))), Compound("f", (Var("X"), Const(1, "int")))
    assert is_ground(asked) is False and asked.ground is False and fresh.ground is None
    assert asked == fresh and hash(asked) == hash(fresh) and repr(asked) == repr(fresh)
    assert is_ground(SymApp("list", (Base("int"),))) and is_ground(CtorApp("nil"))


def _generated_walks(classes):
    """The dataclasses among `classes` whose fields can hold a term or type,
    directly or through another of them, and that keep a generated method.
    """
    hints = {
        cls: [typing.get_type_hints(cls)[f.name] for f in dataclasses.fields(cls)]
        for cls in classes
    }

    def holds(hint, holders):
        stack = [hint]
        while stack:
            t = stack.pop()
            if t in _NODES or t in holders:
                return True
            stack.extend(typing.get_args(t))
        return False

    holders: set = set()
    grown = True
    while grown:
        new = {
            cls for cls, hs in hints.items()
            if cls not in holders and any(holds(h, holders) for h in hs)
        }
        holders |= new
        grown = bool(new)

    def generated(cls, name):  # dataclass methods are compiled from strings
        fn = cls.__dict__.get(name)
        code = getattr(getattr(fn, "__wrapped__", fn), "__code__", None)
        return code is not None and code.co_filename == "<string>"

    return [
        cls for cls in classes
        if cls in holders and any(generated(cls, m) for m in ("__eq__", "__hash__", "__repr__"))
    ]


def test_no_new_generated_walk():
    classes = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"regunify.{path.stem}")
        classes += [
            obj for obj in vars(module).values()
            if dataclasses.is_dataclass(obj) and isinstance(obj, type)
            and obj.__module__ == module.__name__
        ]
    found = {
        f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}" for cls in _generated_walks(classes)
    }
    assert sorted(found - GENERATED_WALKS) == []


@dataclasses.dataclass(frozen=True)
class _Holder:
    term: Term


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: tuple[_Holder, ...]


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class _Written:
    term: Term

    def __repr__(self):
        return "written"


@dataclasses.dataclass(frozen=True)
class _Plain:
    name: str


def test_generated_walk_is_reported():
    # a term field, one reached through another dataclass, a class with its
    # own methods and one with no term in reach
    assert _generated_walks([_Holder, _Outer, _Written, _Plain]) == [_Holder, _Outer]
