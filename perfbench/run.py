"""regunify benchmark: verdict workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
Workloads: unify_large, resolve_programs, cli_small, oracle_sweep (see
README.md).  Load is a closed loop with one caller in this one process.

With `--trace 0` the run measures the end-to-end metrics with tracing off.
With `--trace 1` it runs the same rounds untraced, then traced (spans around
each layer), then once more in an untimed counting pass, and reports the
per-layer metrics.  Every answer is checked against an expected answer that
the package did not produce.  Metric lines go to stdout with their units;
the last line is one JSON object.  A results file (and, when traced, a span
file) is written under perfbench/out/.  The exit code is 1 when any answer
is wrong, 2 when the checkout lacks the package.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REQUIRED = (ROOT / "src" / "regunify" / "__init__.py", ROOT / "tests" / "oracles.py")

WORKLOADS = ("unify_large", "resolve_programs", "cli_small", "oracle_sweep")
MIN_SAMPLES = 100  # problems, so the p90 has at least ten beyond it
# Each problem class runs once per round and is timed by its fastest round:
# on a shared host a slowdown only ever adds time, and spells of it last
# seconds, so the fastest of rounds that lie seconds apart is the figure
# that repeats.  (On oracle_sweep a second depth-3 sweep also raises the
# peak RSS once and for all, so peak_rss_mb does not depend on how many
# rounds fit.)
MIN_ROUNDS = 3
SETUP_PROBES = 11  # fresh interpreters per run; the first one only warms caches

# Points of the scaling curves that earlier one-off timings fixed on the same
# hardware class.  A ratio beyond 2x at the commit that added this benchmark
# meant a harness bug.
BASELINE_S = {("wide-solved", 100): 0.204, ("chain-solved", 12): 0.39, ("app", 50): 0.94}

END_TO_END_UNITS = {
    "setup_s": "s",
    "problems_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "time_exponent": "slope",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --- measurement loop ------------------------------------------------------------


class Sample:
    """What a pass keeps of a problem once it ran: not its inputs, so earlier
    rounds do not stay alive and add to the memory and collector work the
    run measures.
    """

    __slots__ = ("pid", "family", "size", "nodes", "work", "curve", "stats", "seconds", "error")

    def __init__(self, problem, seconds, error):
        for name in self.__slots__[:-2]:
            setattr(self, name, getattr(problem, name))
        self.pid = sys.intern(self.pid)
        self.seconds, self.error = seconds, error


class Pass:
    """One pass of whole rounds: each problem timed, then checked."""

    def __init__(self):
        self.samples = []
        self.rounds = 0
        self.wall = 0.0

    def failures(self):
        return [(s.pid, s.error) for s in self.samples if s.error is not None]


def _solve_one(problem):
    clock = time.perf_counter
    start = clock()
    try:
        answer = problem.call()
    except Exception as e:  # a problem that raises is a failed problem
        return clock() - start, f"raised {type(e).__name__}: {e}"
    elapsed = clock() - start
    return elapsed, problem.check(answer)


def run_pass(
    make_round, seed, env, seconds=None, rounds=None, tracer=None,
    min_samples=MIN_SAMPLES, min_rounds=MIN_ROUNDS, between=None,
):
    """Run rounds until `rounds` are done or, without it, until `seconds`
    have passed and at least `min_rounds` rounds and `min_samples` problems
    ran.  Rounds are whole, so every run sees the same mix of sizes.
    `between` is called after each problem, outside its timing.
    """
    result = Pass()
    start = time.perf_counter()
    while True:
        if rounds is not None:
            if result.rounds >= rounds:
                break
        elif result.rounds >= min_rounds and time.perf_counter() - start >= seconds:
            if sum(s.work for s in result.samples) >= min_samples:
                break
        if tracer is None:
            for p in make_round(seed, result.rounds, env):
                result.samples.append(Sample(p, *_solve_one(p)))
                if between is not None:
                    between()
        else:
            tracer.problem = None
            with tracer.span("bench", "bench", "generate"):
                problems = make_round(seed, result.rounds, env)
            for p in problems:
                tracer.problem = len(result.samples)
                with tracer.span("bench", "bench", p.pid):
                    result.samples.append(Sample(p, *_solve_one(p)))
        result.rounds += 1
    result.wall = time.perf_counter() - start
    return result


# --- statistics -------------------------------------------------------------------


def slope(points):
    """Least-squares slope of log y against log x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def percentile(samples, q):
    """Nearest-rank percentile of (value, weight) samples: the smallest value
    with at least a share q of the total weight at or below it.
    """
    ordered = sorted(samples)
    target = q * sum(w for _v, w in ordered)
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= target:
            return value
    return ordered[-1][0]


def curves(samples):
    """Median seconds per size for each scaling curve."""
    points = {}
    for s in samples:
        if s.curve is not None and s.error is None:
            points.setdefault(s.curve, {}).setdefault(s.size, []).append(s.seconds)
    return {
        c: {str(size): statistics.median(ts) for size, ts in sorted(by_size.items())}
        for c, by_size in sorted(points.items())
    }


def baseline_check(curve_table):
    out = []
    for (c, size), ref in BASELINE_S.items():
        got = curve_table.get(c, {}).get(str(size))
        if got is not None:
            ratio = got / ref
            out.append(
                {"curve": c, "size": size, "median_s": got, "baseline_s": ref,
                 "ratio": ratio, "within_2x": 0.5 <= ratio <= 2.0}
            )
    return out


def class_seconds(samples):
    """Seconds of each correct run of each problem class, in order."""
    by_class = {}
    for s in samples:
        if s.error is None:
            by_class.setdefault(s.pid, []).append(s.seconds)
    return by_class


def end_to_end(measured: Pass, setup_s):
    # A problem's time is the fastest, over the rounds, of its class (same
    # pid, fresh contents each round).  A call that answers `work` problems
    # (an oracle sweep answers one per pair) gives each its time / `work`.
    class_s = {pid: min(ts) for pid, ts in class_seconds(measured.samples).items()}
    latency = []
    points = []
    correct_work, busy = 0, 0.0
    for s in measured.samples:
        if s.error is None:
            t = class_s[s.pid]
            busy += t
            correct_work += s.work
            latency.append((1000.0 * t / s.work, s.work))
            points.append((s.nodes, t))
        else:
            busy += s.seconds
            latency.append((math.inf, s.work))  # a failed problem ranks as slowest
    return {
        "setup_s": setup_s,
        "problems_per_s": correct_work / busy,
        "latency_ms_p50": percentile(latency, 0.5),
        "latency_ms_p90": percentile(latency, 0.9),
        "time_exponent": slope(points),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


class SetupProbes:
    """Times the workload's set-up in fresh interpreters, spread evenly over
    the measured run, so that their median sees the same spells of host
    slowness as the problems do.  The first probe only warms caches.
    """

    def __init__(self, workload, seconds):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload]
        self.every = seconds / (SETUP_PROBES - 1)
        self.times = []
        self.start = time.perf_counter()

    def probe(self):
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.strip()}")
        self.times.append(float(proc.stdout.strip().splitlines()[-1]))

    def when_due(self):
        due = len(self.times) < SETUP_PROBES
        if due and time.perf_counter() - self.start >= (len(self.times) - 1) * self.every:
            self.probe()

    def median(self):
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times[1:])


# --- per-layer metrics --------------------------------------------------------------


def per_layer(traced: Pass, untraced: Pass, tracer, counter):
    from tracer import LAYERS

    m = {}
    self_of = tracer.layer_self
    for layer in ("parser", "typedefs", "constraints", "solver", "typecheck", "pretty", "cli"):
        m[f"{layer}.s"] = self_of(layer)
        m[f"{layer}.calls"] = tracer.layer_calls(layer)
    m["constraints.type_constraints"] = counter.type_constraints
    m["constraints.state_nodes"] = counter.state_nodes
    m["solver.steps"] = counter.steps
    m["solver.steps_per_s"] = counter.steps / m["solver.s"] if m["solver.s"] else 0.0
    for rule in range(1, 13):
        m[f"solver.rule{rule:02d}"] = counter.rules[rule]
    m["solver.peak_constraints"] = counter.peak_constraints
    m["solver.peak_nodes"] = counter.peak_nodes
    for kind in ("solved", "false", "wrong"):
        m[f"solver.outcome.{kind}"] = counter.outcomes[kind]
    for shape in ("wide", "deep", "chain"):
        pts = [
            (s.nodes, tracer.problem_self[("solver", i)])
            for i, s in enumerate(traced.samples)
            if s.family == shape and s.error is None
        ]
        m[f"solver.exponent.{shape}"] = slope(pts)
    r = counter.resolution
    m["resolution.s"] = self_of("resolution")
    m["resolution.rename_s"] = tracer.self_s[("resolution", "rename")]
    m["resolution.subst_s"] = tracer.self_s[("resolution", "subst")]
    m["resolution.steps"] = r["steps"]
    m["resolution.branches"] = r["branches"]
    for kind in ("solved", "false", "wrong"):
        m[f"resolution.branch.{kind}"] = r[f"branch.{kind}"]
    m["resolution.useful_ratio"] = r["branch.solved"] / r["steps"] if r["steps"] else 0.0
    m["resolution.budget_exceeded"] = r["budget_exceeded"]
    m["semantics.enumerate_s"] = tracer.self_s[("semantics", "enumerate")]
    m["semantics.eval_s"] = tracer.self_s[("semantics", "eval")]
    m["semantics.pairs_s"] = tracer.self_s[("semantics", "pairs")]
    terms = sum(s.stats["terms"] for s in traced.samples if s.stats)
    pairs = sum(s.stats["pairs"] for s in traced.samples if s.stats)
    m["semantics.terms"] = terms
    m["semantics.kept_ratio"] = pairs / terms if terms else 0.0
    m["bench.s"] = self_of("bench")
    m["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0
    layers_total = sum(self_of(layer) for layer in (*LAYERS, "bench"))
    m["trace.accounted_frac"] = layers_total / traced.wall
    return m


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if "exponent" in name:
        return "slope"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# --- results file -------------------------------------------------------------------


def commit_hash():
    """HEAD of the checkout; 'unknown' outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=str(ROOT),
            # stop at the checkout, so a repository around it is not reported
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# --- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        _fail(f"run from the root of a regunify checkout; missing {', '.join(missing)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    load_before = os.getloadavg()

    import setup_probe

    env = setup_probe.setup(args.workload)
    sys.path.insert(0, str(ROOT / "tests"))
    import problems

    make_round = problems.ROUNDS[args.workload]

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_hash(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
    }
    if not args.trace:
        probes = SetupProbes(args.workload, args.seconds)
        probes.probe()
        measured = run_pass(make_round, args.seed, env, seconds=args.seconds, between=probes.when_due)
        metrics = end_to_end(measured, probes.median())
        units = END_TO_END_UNITS
        passes = [measured]
        doc["class_seconds"] = class_seconds(measured.samples)
        doc["setup_samples_s"] = probes.times
        doc["curves_median_s"] = curves(measured.samples)
        doc["baseline_check"] = baseline_check(doc["curves_median_s"])
    else:
        from tracer import Counter, Tracer

        untraced = run_pass(
            make_round, args.seed, env, seconds=args.seconds / 2, min_samples=1, min_rounds=1
        )
        tracer = Tracer(extra_modules=[problems])
        tracer.install()
        try:
            traced = run_pass(make_round, args.seed, env, rounds=untraced.rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        counter = Counter(extra_modules=[problems])
        counter.install()
        try:
            counted = run_pass(make_round, args.seed, env, rounds=untraced.rounds)
        finally:
            counter.uninstall()
        metrics = per_layer(traced, untraced, tracer, counter)
        units = {name: layer_unit(name) for name in metrics}
        passes = [untraced, traced, counted]
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        OUT.mkdir(exist_ok=True)
        with spans_path.open("w", encoding="utf-8") as f:
            f.write(json.dumps(["id", "parent", "layer", "name", "start", "end", "problem"]) + "\n")
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
        doc["spans_file"] = str(spans_path.relative_to(ROOT))
        doc["spans_stored"] = len(tracer.spans)
        doc["spans_dropped"] = tracer.dropped

    attempted = sum(len(p.samples) for p in passes)
    failures = [f for p in passes for f in p.failures()]
    doc.update(
        {
            "rounds": passes[0].rounds,
            "wall_s": [p.wall for p in passes],
            "attempted": attempted,
            "failed": len(failures),
            "failures": [{"problem": pid, "reason": why} for pid, why in failures[:50]],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "loadavg_after": os.getloadavg(),
        }
    )
    OUT.mkdir(exist_ok=True)
    results_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    for pid, why in failures[:20]:
        print(f"WRONG ANSWER {args.workload}/{pid}: {why}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print(f"{'failed_frac':32s} {len(failures) / attempted:.6g} ratio")
    for b in doc.get("baseline_check", ()):
        flag = "ok" if b["within_2x"] else "MORE THAN 2x OFF"
        print(f"baseline {b['curve']} n={b['size']}: {b['median_s']:.3f} s vs {b['baseline_s']} s ({flag})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": doc["metrics"],
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
