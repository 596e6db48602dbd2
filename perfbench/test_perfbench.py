"""Self-tests of the benchmark: deterministic generators, promised verdicts,
and a tracer that restores what it rebinds.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE.parent / "tests", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import problems  # noqa: E402
import setup_probe  # noqa: E402
import tracer  # noqa: E402


def _env(workload):
    return setup_probe.setup(workload)


def _fingerprint(round_):
    return [(p.pid, p.size, p.nodes, p.work, p.inputs) for p in round_]


def _module_bindings():
    mods = [m for n, m in sys.modules.items() if n == "regunify" or n.startswith("regunify.")]
    return {(m.__name__, k): v for m in mods + [problems] for k, v in vars(m).items()}


class GeneratorsAreDeterministic(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload, make_round in problems.ROUNDS.items():
            env = _env(workload)
            with self.subTest(workload=workload):
                first = _fingerprint(make_round(7, 1, env))
                self.assertEqual(first, _fingerprint(make_round(7, 1, env)))
                self.assertNotEqual(first, _fingerprint(make_round(8, 1, env)))

    def test_every_round_runs_the_same_classes(self):
        for workload, make_round in problems.ROUNDS.items():
            env = _env(workload)
            pids = [[p.pid for p in make_round(s, r, env)] for s, r in ((1, 1), (2, 3))]
            self.assertEqual(pids[0], pids[1], workload)

    def test_seed_does_not_change_sizes(self):
        for workload, make_round in problems.ROUNDS.items():
            env = _env(workload)
            sizes = [[(p.family, p.size) for p in make_round(s, 1, env)] for s in (1, 2)]
            self.assertEqual(sizes[0], sizes[1], workload)


class VerdictsAsPromised(unittest.TestCase):
    def _assert_right(self, problem):
        self.assertIsNone(problem.check(problem.call()), problem.pid)

    def test_unify_shapes_and_variants_at_small_sizes(self):
        import random

        defs = _env("unify_large")["defs"]
        rng = random.Random(3)
        for shape in problems.SHAPES:
            for n in (2, 3, 5):
                for variant in problems.VARIANTS:
                    self._assert_right(problems.unify_problem(shape, n, variant, rng, defs))

    def test_wrong_witness_or_types_are_caught(self):
        import dataclasses
        import random

        from regunify.constraints import TermConstraint, TypeConstraint
        from regunify.syntax import Base, Const

        defs = _env("unify_large")["defs"]
        rng = random.Random(4)
        for shape in problems.SHAPES:
            for variant in ("false", "wrong"):
                p = problems.unify_problem(shape, 4, variant, rng, defs)
                run = p.call()
                other = (
                    TermConstraint(Const(1, "int"), Const(2, "int"))
                    if variant == "false"
                    else TypeConstraint(Base("int"), Base("float"))
                )
                bad = dataclasses.replace(run, result=dataclasses.replace(run.result, witness=other))
                self.assertIsNotNone(p.check(bad), p.pid)
            p = problems.unify_problem(shape, 4, "solved", rng, defs)
            run = p.call()
            types = dict(run.var_types)
            types[next(iter(types))] = Base("atom")
            bad = dataclasses.replace(run, context=dict(types))
            self.assertIsNotNone(p.check(bad), p.pid)

    def test_cli_round(self):
        for p in problems.cli_round(5, 0, _env("cli_small")):
            self._assert_right(p)

    def test_resolve_round_without_the_largest_app(self):
        for p in problems.resolve_round(5, 0, _env("resolve_programs")):
            if p.pid != "app-50":
                self._assert_right(p)

    def test_oracle_counts(self):
        self.assertEqual(problems.oracle_term_counts(3), [4, 24, 604, 365_424])
        self.assertEqual(problems.oracle_expected(3, 10_000, 0), (365_424, 10_000))
        self._assert_right(problems._oracle_problem(2, 625, 11))
        self._assert_right(problems._oracle_problem(1, 900, 4))


class TracerRestoresBindings(unittest.TestCase):
    def test_tracer_and_counter_restore_every_binding(self):
        env = _env("cli_small")
        round_ = problems.cli_round(2, 0, env)
        before = _module_bindings()
        for make in (tracer.Tracer, tracer.Counter):
            rec = make(extra_modules=[problems])
            rec.install()
            try:
                changed = [k for k, v in _module_bindings().items() if before.get(k) is not v]
                self.assertTrue(changed, make.__name__)
                for p in round_[:5]:
                    self.assertIsNone(p.check(p.call()), p.pid)
            finally:
                rec.uninstall()
            after = _module_bindings()
            self.assertEqual(before.keys(), after.keys())
            self.assertEqual([k for k in before if before[k] is not after[k]], [])

    def test_tracer_sees_layers_inside_one_problem(self):
        env = _env("resolve_programs")
        p = next(p for p in problems.resolve_round(1, 0, env) if p.pid == "app-5")
        rec = tracer.Tracer(extra_modules=[problems])
        rec.install()
        try:
            rec.problem = 0
            with rec.span("bench", "bench", p.pid):
                self.assertIsNone(p.check(p.call()))
        finally:
            rec.uninstall()
        for layer in ("resolution", "solver", "constraints", "typedefs"):
            self.assertGreater(rec.layer_calls(layer), 0, layer)
        self.assertGreater(rec.self_s[("resolution", "rename")], 0)
        self.assertGreater(rec.self_s[("resolution", "subst")], 0)
        total = sum(rec.self_s.values())
        outer = max(end - start for _i, parent, *_rest, start, end, _p in rec.spans if parent is None)
        self.assertAlmostEqual(total, outer, delta=1e-6 * max(1.0, outer))

    def test_substitution_inside_renaming_counts_as_renaming(self):
        rec = tracer.Tracer()
        with rec.span("resolution", "rename", "rename_clause"):
            with rec.span("resolution", "subst", "apply_subst"):
                with rec.span("resolution", "subst", "_compose"):
                    pass
        with rec.span("resolution", "subst", "apply_subst"):
            pass
        self.assertEqual(rec.calls[("resolution", "rename")], 3)
        self.assertEqual(rec.calls[("resolution", "subst")], 1)


if __name__ == "__main__":
    unittest.main()
