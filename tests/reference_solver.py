"""Reference engine for the twelve rewriting rules: the plain rescanning loop.

Each step recounts every variable occurrence, rescans every constraint for
the lowest applicable rule (leftmost among equals) and rewrites by copying,
exactly as the rules are stated.  It is slow on purpose and shares no code
with `regunify.solver`, whose incremental engine the differential tests hold
to this one: same steps, same rule and target per step, same states, same
result.  Nor does it share the package's substitution: `substitute` below
walks every node, ground or not, so a walk of the package's that stops early
is held to one that does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from regunify.constraints import ConstraintState, TermConstraint, TypeConstraint
from regunify.syntax import (
    Base,
    Bool,
    Compound,
    Const,
    CtorApp,
    SymApp,
    TVar,
    Var,
)


@dataclass(frozen=True)
class RefRun:
    """Outcome of a reference run.  `verdict` is solved, false or wrong;
    `trace` holds (rule, target, state) per step when tracing.
    """

    verdict: str
    steps: int
    trace: tuple
    subst: Optional[dict] = None
    type_subst: Optional[dict] = None
    witness: object = None


def substitute(binding: dict, node):
    """`node`, a term or a type, with every variable `binding` binds replaced
    by its binding, all at once.  Every node is walked, with a stack, and a
    node is rebuilt only where an argument changed.
    """
    out = []  # the images of the nodes closed so far, in order
    stack = [(node, False)]
    while stack:
        node, closing = stack.pop()
        kind = type(node)
        if kind is Var or kind is TVar:
            out.append(binding.get(node.name, node))
        elif kind not in (Compound, SymApp, CtorApp) or not node.args:
            out.append(node)
        elif not closing:
            stack.append((node, True))
            stack.extend((arg, False) for arg in reversed(node.args))
        else:
            n = len(node.args)
            args = tuple(out[-n:])
            del out[-n:]
            if all(a is b for a, b in zip(args, node.args)):
                out.append(node)
            elif kind is Compound:
                out.append(Compound(node.functor, args))
            elif kind is SymApp:
                out.append(SymApp(node.symbol, args))
            else:
                out.append(CtorApp(node.ctor, args))
    return out[0]


def _type_head(ty):
    if isinstance(ty, TVar):
        return None
    if isinstance(ty, Base):
        return ("base", ty.kind, 0)
    if isinstance(ty, Bool):
        return ("bool", "", 0)
    if isinstance(ty, SymApp):
        return ("sym", ty.symbol, len(ty.args))
    return ("ctor", ty.ctor, len(ty.args))


def _term_head(t):
    if isinstance(t, Var):
        return None
    if isinstance(t, Const):
        return ("const", (t.symbol, t.kind), 0)
    return ("fn", t.functor, len(t.args))


def _type_rule(c, counts):
    lh, rh = _type_head(c.lhs), _type_head(c.rhs)
    if lh is not None and rh is not None:
        if lh == rh and lh[2] >= 1:
            return 1
        if c.lhs == c.rhs:
            return 2
        return 3
    if c.lhs == c.rhs:
        return 2
    if lh is not None:
        return 4
    name = c.lhs.name
    if _occurs(name, c.rhs, TVar):
        return 6
    if counts.get(name, 0) > 1:
        return 5
    return None


def _term_rule(c, counts):
    lh, rh = _term_head(c.lhs), _term_head(c.rhs)
    if lh is not None and rh is not None:
        if lh == rh and lh[2] >= 1:
            return 7
        if c.lhs == c.rhs:
            return 8
        return 9
    if c.lhs == c.rhs:
        return 8
    if lh is not None:
        return 10
    name = c.lhs.name
    if _occurs(name, c.rhs, Var):
        return 12
    if counts.get(name, 0) > 1:
        return 11
    return None


def _occurs(name, node, var_type):
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, var_type):
            if node.name == name:
                return True
        else:
            stack.extend(getattr(node, "args", ()))
    return False


def _counts(constraints, var_type):
    counts = {}
    stack = []
    for c in constraints:
        stack.append(c.lhs)
        stack.append(c.rhs)
    while stack:
        node = stack.pop()
        if isinstance(node, var_type):
            counts[node.name] = counts.get(node.name, 0) + 1
        else:
            stack.extend(getattr(node, "args", ()))
    return counts


def _find_redex(terms, types):
    """Lowest applicable rule and the leftmost constraint it applies to."""
    best = None
    counts = _counts(types, TVar)
    for i, c in enumerate(types):
        rule = _type_rule(c, counts)
        if rule is not None and (best is None or rule < best[0]):
            best = (rule, i)
            if rule == 1:
                break
    if best is not None:
        return best
    counts = _counts(terms, Var)
    for i, c in enumerate(terms):
        rule = _term_rule(c, counts)
        if rule is not None and (best is None or rule < best[0]):
            best = (rule, i)
            if rule == 7:
                break
    return best


def _apply_type_rule(rule, i, types):
    """Rewrite in place; returns the witness when a clash or occurs rule fires."""
    c = types[i]
    if rule == 1:
        types[i : i + 1] = [TypeConstraint(a, b) for a, b in zip(c.lhs.args, c.rhs.args)]
    elif rule == 2:
        del types[i]
    elif rule == 4:
        types[i] = TypeConstraint(c.rhs, c.lhs)
    elif rule == 5:
        binding = {c.lhs.name: c.rhs}
        for j, other in enumerate(types):
            if j != i:
                types[j] = TypeConstraint(
                    substitute(binding, other.lhs), substitute(binding, other.rhs)
                )
    else:  # rules 3 and 6
        return c
    return None


def _apply_term_rule(rule, i, terms):
    c = terms[i]
    if rule == 7:
        terms[i : i + 1] = [TermConstraint(a, b) for a, b in zip(c.lhs.args, c.rhs.args)]
    elif rule == 8:
        del terms[i]
    elif rule == 10:
        terms[i] = TermConstraint(c.rhs, c.lhs)
    elif rule == 11:
        binding = {c.lhs.name: c.rhs}
        for j, other in enumerate(terms):
            if j != i:
                terms[j] = TermConstraint(
                    substitute(binding, other.lhs), substitute(binding, other.rhs)
                )
    else:  # rules 9 and 12
        return c
    return None


def _read(constraints):
    return {c.lhs.name: c.rhs for c in constraints}


def reference_solve(state: ConstraintState, trace: bool = False) -> RefRun:
    terms, types = list(state.terms), list(state.types)
    steps = 0
    trace_steps = []
    while True:
        redex = _find_redex(terms, types)
        if redex is None:
            break
        steps += 1
        rule, i = redex
        if rule <= 6:
            target = types[i]
            bad = _apply_type_rule(rule, i, types)
            if bad is not None:
                return RefRun("wrong", steps, tuple(trace_steps), witness=bad)
        else:
            target = terms[i]
            bad = _apply_term_rule(rule, i, terms)
            if bad is not None:
                return RefRun(
                    "false", steps, tuple(trace_steps), type_subst=_read(types), witness=bad
                )
        if trace:
            trace_steps.append((rule, target, ConstraintState(tuple(terms), tuple(types))))
    return RefRun(
        "solved", steps, tuple(trace_steps), subst=_read(terms), type_subst=_read(types)
    )
