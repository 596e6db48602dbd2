"""Set-up a workload needs before its first verdict, timed in a fresh process.

    python3 perfbench/setup_probe.py WORKLOAD

prints the seconds spent importing `regunify`, validating the type
definitions, deriving signatures and, for resolve_programs, parsing the
clause file.
`run.py` starts this several times per run and reports the median as
`setup_s`; it also calls `setup` in its own process to get the objects.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GRAPH_FILE = HERE / "data" / "graph.pl"
SMALL_FILE = HERE / "data" / "small.pl"


def setup(workload: str) -> dict:
    """Objects the workload's problems run against."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import regunify

    env = {"defs": regunify.validate(())}
    env["sig"] = regunify.derive_signatures(env["defs"])
    if workload == "resolve_programs":
        env["program_text"] = GRAPH_FILE.read_text(encoding="utf-8")
        env["program"] = regunify.parse_program(env["program_text"], source=str(GRAPH_FILE))
    elif workload in ("cli_small", "oracle_sweep"):
        import regunify.cli  # noqa: F401  (argparse and json come with it)

        env["small_file"] = str(SMALL_FILE)  # each `run` call parses it again
    return env


if __name__ == "__main__":
    start = time.perf_counter()
    setup(sys.argv[1])
    print(repr(time.perf_counter() - start))
