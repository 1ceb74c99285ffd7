"""Command line interface: `mapf solve` and `mapf bench`.

Exit code 0 means the command ran. Exit code 2 means bad input, reported as
one `mapf: <message>` line per problem on stderr. For `solve` that is a map
or scenario file that is missing, unreadable or fails to parse, an agent
count below 1 or beyond the scenario, a start or goal on a blocked cell, a
`--timeout` that is not positive (NaN included), a `--cost-cap` below the
sum of shortest-path costs, or an `--out` path that cannot be opened for
writing. For `bench` it is a `--suite` that is not a directory, an
`--algos` or `--agents` list with no entry (`--algos ,`, `--agents ""`), an
unknown name in `--algos`, an `--agents` entry that is not an integer or is
below 1, a `--per-count` or `--workers` below 1, a `--timeout` that is not
positive (NaN included), a `--csv` path that cannot be opened for writing,
or a map or scenario file that fails to parse; other unusable inputs become
`error` records with a reason and leave the exit code at 0. Both commands check that
their output file can be written before they solve, without truncating it,
so an unwritable path costs no run; the output is written when the command
is done. Bad input found after that check leaves a file that was already
there unchanged and removes one that the check created.

Exit code 1 means a solver fault: a run raised one of `bench.SOLVER_FAULTS`.
Both commands re-check every `solved` outcome independently
(`solvers.revalidate`: walks, collisions, sum of costs), and one that fails
raises `EncodingSoundnessError`. `solve` then prints one `mapf: <class>:
<message>` line, writes no solution, and removes an output file that its
writability check created. `bench` exits 1 ahead of bad input; the faulty
run is one `error` record with one `mapf: <reason>` line, and the other runs
complete.

A reader that closes standard output early (`mapf solve ... | head -1`) does
not change the exit code: the output it no longer takes is dropped without
a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path as FsPath

from .bench import PARSE_ERROR, SOLVER_FAULTS, run_benchmark, write_csv
from .instance import InstanceError, ParseError, build_instance, parse_map, parse_scen
from .solvers import ALGORITHMS, ConfigError, SolverConfig, revalidate, solution_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mapf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("--map", required=True, help="movingai .map file")
    p_solve.add_argument("--scen", required=True, help="movingai .scen file")
    p_solve.add_argument("--agents", type=int, required=True)
    p_solve.add_argument("--algo", choices=sorted(ALGORITHMS), default="heuristic")
    p_solve.add_argument("--timeout", type=float, default=128.0, help="seconds")
    p_solve.add_argument("--cost-cap", type=int, default=None)
    p_solve.add_argument("--out", default=None, help="solution JSON path (default stdout)")

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--suite", required=True, help="directory of .map/.scen pairs")
    p_bench.add_argument("--algos", default="heuristic",
                         help="comma-separated algorithm names")
    p_bench.add_argument("--agents", default="2",
                         help="comma-separated agent counts")
    p_bench.add_argument("--per-count", type=int, default=25)
    p_bench.add_argument("--timeout", type=float, default=128.0)
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.add_argument("--csv", required=True, help="output CSV path")
    return parser


def _emit(text: str) -> None:
    """Print `text` on stdout; drop it quietly if the reader has gone."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # later writes, including the interpreter's own final flush, go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _bad_input(problem: Exception | str) -> int:
    print(f"mapf: {problem}", file=sys.stderr)
    return 2


def _check_writable(path: str) -> bool:
    """Raise OSError unless `path` opens for writing; leave its content alone.

    Returns whether the check created the file, so that bad input found later
    removes only a file this command made.
    """
    created = not os.path.lexists(path)
    open(path, "a").close()
    return created


def _cmd_solve(args) -> int:
    try:
        graph = parse_map(FsPath(args.map).read_text())
        specs = parse_scen(FsPath(args.scen).read_text())
        instance = build_instance(graph, specs, args.agents)
    except (OSError, ParseError, InstanceError) as exc:
        return _bad_input(exc)
    try:
        config = SolverConfig(timeout_s=args.timeout, cost_cap=args.cost_cap)
        # checked before the solve, so that an unwritable path costs no solve
        created = _check_writable(args.out) if args.out else False
    except (ConfigError, OSError) as exc:
        return _bad_input(exc)
    try:
        outcome = ALGORITHMS[args.algo](instance, config)
        if outcome.solved:
            revalidate(instance, outcome)
    except (ConfigError, *SOLVER_FAULTS) as exc:
        if created:
            os.unlink(args.out)
        if isinstance(exc, ConfigError):
            return _bad_input(exc)
        print(f"mapf: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    instance_id = f"{FsPath(args.map).name}:{FsPath(args.scen).name}:{args.agents}"
    payload = json.dumps(solution_json(instance_id, args.algo, outcome), indent=2)
    if args.out:
        FsPath(args.out).write_text(payload + "\n")
    else:
        _emit(payload)
    return 0


def _cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    try:
        counts = [int(n) for n in args.agents.split(",") if n.strip()]
    except ValueError:
        return _bad_input(f"--agents wants comma-separated integers, got {args.agents!r}")
    try:
        # checked before the runs, so that an unwritable path loses no results
        created = _check_writable(args.csv)
    except OSError as exc:
        return _bad_input(exc)
    try:
        records = run_benchmark(
            args.suite, algos, counts,
            per_count=args.per_count, timeout_s=args.timeout, workers=args.workers,
        )
    except ConfigError as exc:
        if created:
            os.unlink(args.csv)
        return _bad_input(exc)
    write_csv(records, args.csv)
    _emit(f"wrote {len(records)} records to {args.csv}")
    failures = dict.fromkeys(r.reason for r in records if r.reason.startswith(PARSE_ERROR))
    fault_prefixes = tuple(f"{e.__name__}: " for e in SOLVER_FAULTS)
    faults = [r.reason for r in records if r.reason.startswith(fault_prefixes)]
    for reason in [*failures, *faults]:
        print(f"mapf: {reason}", file=sys.stderr)
    return 1 if faults else 2 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    return _cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
