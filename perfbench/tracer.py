"""Per-layer spans and counters, measured from outside the package.

A layer is one module of `regunify`.  The tracer times calls into a layer's
public functions by rebinding those names in the modules that import them
(and in the benchmark's own modules).  A call made inside the defining module
is not rebound, so recursion and same-layer helpers stay inside one span.

A span records name, start, end, parent and problem id.  A layer's self time
is the span time minus the time of its child spans.  Spans stay in memory;
hot leaf functions are only aggregated per layer, not stored one per call.
`uninstall` restores every rebound name.

`Counter` is the untimed counting pass: it rebinds `solve` and `resolve` to
collect rule counts, constraint sizes and resolution statistics.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "parser",
    "typedefs",
    "constraints",
    "solver",
    "resolution",
    "semantics",
    "typecheck",
    "pretty",
    "cli",
)

# Called so often that one stored span per call would dominate the trace.
AGGREGATED = {
    "instantiate",
    "eval_term",
    "eq_values",
    "pp_term",
    "pp_type",
    "pp_goal",
    "display_renaming",
    "apply_subst",
    "apply_type_subst",
    "_compose",
}  # generators, such as enumerate_ground_terms, are aggregated per step too

# Sub-parts of a layer.  Their time is part of the layer's self time as well.
# Substitution that `rename_clause` does is charged to renaming (see _open).
PARTS = {
    ("resolution", "rename_clause"): "rename",
    ("resolution", "apply_subst"): "subst",
    ("resolution", "apply_type_subst"): "subst",
    ("resolution", "_compose"): "subst",
    ("semantics", "enumerate_ground_terms"): "enumerate",
    ("semantics", "eval_term"): "eval",
    ("semantics", "eq_values"): "eval",
    ("semantics", "stratified_pairs"): "pairs",
}

# Names that the resolution layer uses inside its own module: substitution
# helpers from `syntax`, its private composition, and clause renaming.
RESOLUTION_SITES = ("rename_clause", "apply_subst", "apply_type_subst", "_compose")

MAX_STORED_SPANS = 100_000


def _layer_functions():
    """(function, layer) for every public function a layer module defines."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"regunify.{layer}"]
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[obj] = layer
    return out


def _caller_modules(extra):
    mods = [m for n, m in sys.modules.items() if n == "regunify" or n.startswith("regunify.")]
    return mods + [m for m in extra if m not in mods]


def binding_sites(extra_modules=()):
    """Every (module, name, function, layer) the tracer rebinds."""
    funcs = _layer_functions()
    sites = []
    for mod in _caller_modules(extra_modules):
        for name, obj in list(vars(mod).items()):
            layer = funcs.get(obj) if inspect.isfunction(obj) else None
            if layer is not None and obj.__module__ != mod.__name__:
                sites.append((mod, name, obj, layer))
    resolution = sys.modules["regunify.resolution"]
    for name in RESOLUTION_SITES:
        site = (resolution, name, getattr(resolution, name), "resolution")
        if site not in sites:
            sites.append(site)
    return sites


class Tracer:
    """Span recorder.  Use `install`, run the traced work, then `uninstall`."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.self_s = defaultdict(float)  # (layer, part) -> self seconds
        self.calls = defaultdict(int)  # (layer, part) -> span count
        self.problem_self = defaultdict(float)  # (layer, problem id) -> self seconds
        self.spans = []  # (id, parent id, layer, name, start, end, problem id)
        self.dropped = 0
        self.problem = None
        self._stack = [[0.0, None, None]]  # [child seconds, span id, part]; the root frame
        self._next_id = 0
        self._saved = []

    # --- recording -------------------------------------------------------------

    def _open(self, part):
        if part == "subst" and self._stack[-1][2] == "rename":
            part = "rename"  # renaming applies a substitution too
        self._next_id += 1
        frame = [0.0, self._next_id, part]
        self._stack.append(frame)
        return frame

    def _close(self, frame, layer, name, start, end, store):
        self._stack.pop()
        parent = self._stack[-1]
        part = frame[2]
        d = end - start
        parent[0] += d
        own = d - frame[0]
        self.self_s[(layer, part)] += own
        self.calls[(layer, part)] += 1
        self.problem_self[(layer, self.problem)] += own
        if store:
            if len(self.spans) < MAX_STORED_SPANS:
                self.spans.append((frame[1], parent[1], layer, name, start, end, self.problem))
            else:
                self.dropped += 1

    def span(self, layer, part, name):
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, layer, part, name)

    def _wrap(self, fn, layer):
        name = fn.__name__
        part = PARTS.get((layer, name), layer)
        store = name not in AGGREGATED
        clock = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                return _TimedIter(tracer, fn(*args, **kwargs), layer, part, name)

            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = tracer._open(part)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, layer, name, start, clock(), store)

        return wrapper

    # --- rebinding -------------------------------------------------------------

    def install(self):
        wrappers = {}
        for mod, name, fn, layer in binding_sites(self.extra_modules):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, layer)
            self._saved.append((mod, name, fn))
            setattr(mod, name, wrappers[fn])

    def uninstall(self):
        while self._saved:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)

    # --- results ---------------------------------------------------------------

    def layer_self(self, layer):
        return sum(s for (lay, _part), s in self.self_s.items() if lay == layer)

    def layer_calls(self, layer):
        return sum(n for (lay, _part), n in self.calls.items() if lay == layer)


class _Span:
    def __init__(self, tracer, layer, part, name):
        self.tracer, self.layer, self.part, self.name = tracer, layer, part, name

    def __enter__(self):
        self.frame = self.tracer._open(self.part)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(
            self.frame, self.layer, self.name, self.start, time.perf_counter(), True
        )
        return False


class _TimedIter:
    """Times each step of a generator as an aggregated span."""

    def __init__(self, tracer, it, layer, part, name):
        self.tracer, self.it = tracer, it
        self.layer, self.part, self.name = layer, part, name

    def __iter__(self):
        return self

    def __next__(self):
        frame = self.tracer._open(self.part)
        start = time.perf_counter()
        try:
            return next(self.it)
        finally:
            self.tracer._close(
                frame, self.layer, self.name, start, time.perf_counter(), False
            )


# --- untimed counting pass -------------------------------------------------------


def _node_counter():
    """Tree size of terms and types, memoised on object identity.

    Substitution shares the bound subterm, so a solver state can be a large
    tree held by few objects; the memo keeps counting linear in objects.
    Callers keep the counted objects alive while the memo is in use.
    """
    memo = {}

    def size(node):
        key = id(node)
        got = memo.get(key)
        if got is not None:
            return got
        args = getattr(node, "args", None)
        n = 1 if not args else 1 + sum(size(a) for a in args)
        memo[key] = n
        return n

    def state_size(state):
        return sum(size(c.lhs) + size(c.rhs) for c in (*state.terms, *state.types))

    return state_size


class Counter:
    """Rebinds `solve` and `resolve` to count work without timing it."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.rules = [0] * 13
        self.steps = 0
        self.outcomes = defaultdict(int)
        self.type_constraints = 0
        self.state_nodes = 0
        self.peak_constraints = 0
        self.peak_nodes = 0
        self.resolution = defaultdict(int)
        self._saved = []

    def install(self):
        import regunify.resolution as resolution_mod
        import regunify.solver as solver_mod

        solve, resolve = solver_mod.solve, resolution_mod.resolve
        counted = {solve: self._counting_solve(solve), resolve: self._counting_resolve(resolve)}
        for mod in _caller_modules(self.extra_modules):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in counted:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, counted[obj])

    def uninstall(self):
        while self._saved:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)

    def _counting_solve(self, solve):
        from regunify.solver import Solved, SolveFalse

        verdict = {Solved: "solved", SolveFalse: "false"}

        def counting_solve(state, trace=False, max_steps=None):
            run = solve(state, trace=True, max_steps=max_steps)
            state_size = _node_counter()
            self.steps += run.steps
            self.type_constraints += len(state.types)
            nodes = state_size(state)
            self.state_nodes += nodes
            peak_c = len(state.terms) + len(state.types)
            peak_n = nodes
            for s in run.trace:
                self.rules[s.rule] += 1
                peak_c = max(peak_c, len(s.state.terms) + len(s.state.types))
                peak_n = max(peak_n, state_size(s.state))
            if len(run.trace) < run.steps:  # the final clash or occurs step
                self.rules[_final_rule(run.result)] += 1
            self.peak_constraints = max(self.peak_constraints, peak_c)
            self.peak_nodes = max(self.peak_nodes, peak_n)
            self.outcomes[verdict.get(type(run.result), "wrong")] += 1
            return run if trace else dataclasses.replace(run, trace=())

        return counting_solve

    def _counting_resolve(self, resolve):
        from regunify.resolution import NoUnknown

        def counting_resolve(*args, **kwargs):
            report = resolve(*args, **kwargs)
            r = self.resolution
            r["steps"] += report.steps
            r["branches"] += len(report.branches)
            for b in report.branches:
                r[f"branch.{b.verdict}"] += 1
            if isinstance(report.outcome, NoUnknown) and report.outcome.budget_exceeded:
                r["budget_exceeded"] += 1
            return report

        return counting_resolve


def _final_rule(result):
    """The clash/occurs rule that ended a failed run.  The trace stops just
    before it, so its number is read from the witness shape: a clash has a
    non-variable on the left, occurs has a variable there.
    """
    from regunify.solver import SolveWrong
    from regunify.syntax import TVar, Var

    left = result.witness.lhs
    if isinstance(result, SolveWrong):
        return 6 if isinstance(left, TVar) else 3
    return 12 if isinstance(left, Var) else 9
