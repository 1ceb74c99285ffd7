"""Same-search replay: fingerprint fixed solver runs and compare two trees.

    python tools/replay.py --write runs.jsonl
    python tools/replay.py --diff parent.jsonl change.jsonl

`--write` solves a fixed set of benchmark draws with the library under this
file's tree (`src/`) and writes one JSON line per run: its key (workload,
seed, instance, algorithm), status, SOC, `sat_calls`, `conflicts`, every
`IterationStat`, the paths, and for each `CdclSolver.solve` call its answer,
`num_vars`, `num_clauses` and the conflicts and decisions that call made.
The runs are the four SAT algorithms on every draw of dense-sat seeds 3 and
4 and of large-sparse seed 3, and `cbs` on every draw of cbs-rooms seed 3:
804 runs, about 15 s of wall time on one core of a 2-core x86 host. To
fingerprint another tree, copy this file into that tree's `tools/` and run
it there.

`--diff` prints, per run, the fields that differ between two such files,
then per workload and algorithm the number of differing runs and, for each
summed counter that moved, the first file's total beside the delta (second
file minus first), as in "num_clauses 19860836 -9995343", and a last line
"N differences over M runs". Besides the search counters, `all_full` counts
the runs in which some model had every agent on its full diagram, so a
change to how the guided algorithms promote agents shows as its delta.
`no_model` counts the runs with an empty iteration list: every `cbs` run,
and each SAT run that built no model, as when the shortest paths collide
nowhere. It exits 1 when a run's status or SOC differs or a run is in only
one file, else 0. A change that keeps the search shows 0 differences.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path as FsPath

ROOT = FsPath(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mapfsat import ALGORITHMS, SolverConfig  # noqa: E402
from mapfsat.satif import CdclSolver  # noqa: E402

# (workload, seed, algorithms): every draw of the seed runs every algorithm
PLAN = (
    ("dense-sat", 3, ("mddsat", "smtcbs", "sparse", "heuristic")),
    ("dense-sat", 4, ("mddsat", "smtcbs", "sparse", "heuristic")),
    ("large-sparse", 3, ("mddsat", "smtcbs", "sparse", "heuristic")),
    ("cbs-rooms", 3, ("cbs",)),
)
KEY = ("workload", "seed", "instance", "algo")
# summed per workload and algorithm by --diff: name -> value of one record
COUNTERS = {
    "sat_calls": lambda r: r["sat_calls"],
    "conflicts": lambda r: r["conflicts"],
    "iterations": lambda r: len(r["iterations"]),
    "diagram_nodes": lambda r: sum(sum(it["nodes_per_agent"]) for it in r["iterations"]),
    "num_vars": lambda r: sum(c["num_vars"] for c in r["solve_calls"]),
    "num_clauses": lambda r: sum(c["num_clauses"] for c in r["solve_calls"]),
    "cdcl_conflicts": lambda r: sum(c["conflicts"] for c in r["solve_calls"]),
    "cdcl_decisions": lambda r: sum(c["decisions"] for c in r["solve_calls"]),
    "all_full": lambda r: int(any(all(it["full_mdd"]) for it in r["iterations"])),
    "no_model": lambda r: int(not r["iterations"]),
}


def planned_runs():
    """(key, instance, algorithm, time limit) for every run of `PLAN`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    table = workloads.load_reference()
    runs = []
    for name, seed, algos in PLAN:
        workload = workloads.WORKLOADS[name]
        for bench, _ in workload.generate(seed, table):
            runs += [((name, seed, bench.id, algo), bench.instance, algo, workload.limit_s)
                     for algo in algos]
    return runs


def fingerprint(key, instance, algo: str, limit_s: float) -> dict:
    """Solve once and return the run's fingerprint record."""
    calls = []
    solve = CdclSolver.solve

    def recording_solve(solver):
        conflicts, decisions = solver._conflict_count, solver._decision_count
        answer = solve(solver)
        calls.append({
            "answer": answer,
            "num_vars": solver.num_vars,
            "num_clauses": solver.num_clauses,
            "conflicts": solver._conflict_count - conflicts,
            "decisions": solver._decision_count - decisions,
        })
        return answer

    CdclSolver.solve = recording_solve
    try:
        out = ALGORITHMS[algo](instance, SolverConfig(timeout_s=limit_s))
    finally:
        CdclSolver.solve = solve
    return {
        **dict(zip(KEY, key)),
        "status": out.status,
        "soc": out.soc,
        "sat_calls": out.stats.sat_calls,
        "conflicts": out.stats.conflicts,
        "iterations": [dataclasses.asdict(it) for it in out.stats.iterations],
        "paths": (None if out.solution is None
                  else [list(p.positions) for p in out.solution.paths]),
        "solve_calls": calls,
    }


def write(records, path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read(path) -> dict[tuple, dict]:
    """Records of a `--write` file, by run key."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {tuple(rec[k] for k in KEY): rec for rec in records}


def diff(a: dict[tuple, dict], b: dict[tuple, dict], out=None) -> int:
    """Print how `b` differs from `a` (to `out`, default stdout); 1 on a status,
    SOC or run-set difference."""
    code = 0
    for key in sorted(a.keys() ^ b.keys(), key=str):
        print(f"{'/'.join(map(str, key))}: only in {'first' if key in a else 'second'} file",
              file=out)
        code = 1
    groups: dict[tuple, dict] = {}
    for key in sorted(a.keys() & b.keys(), key=str):
        ra, rb = a[key], b[key]
        fields = [f for f in ra if f not in KEY and ra[f] != rb.get(f)]
        group = groups.setdefault((key[0], key[3]), {
            "runs": 0, "differ": 0, "base": dict.fromkeys(COUNTERS, 0),
            "delta": dict.fromkeys(COUNTERS, 0)})
        group["runs"] += 1
        for name, count in COUNTERS.items():
            group["base"][name] += count(ra)
            group["delta"][name] += count(rb) - count(ra)
        if not fields:
            continue
        group["differ"] += 1
        shown = [f"{f} {ra[f]} -> {rb[f]}" if f in ("status", "soc", "sat_calls", "conflicts")
                 else f for f in fields]
        print(f"{'/'.join(map(str, key))}: {', '.join(shown)}", file=out)
        if "status" in fields or "soc" in fields:
            code = 1
    for (workload, algo), group in sorted(groups.items()):
        deltas = ", ".join(f"{name} {group['base'][name]} {group['delta'][name]:+d}"
                           for name in COUNTERS if group["delta"][name])
        print(f"{workload} {algo}: {group['differ']} differences over {group['runs']} runs"
              + (f"; {deltas}" if deltas else ""), file=out)
    differ = sum(g["differ"] for g in groups.values()) + len(a.keys() ^ b.keys())
    print(f"{differ} differences over {len(a.keys() | b.keys())} runs", file=out)
    return code


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="RUNS_JSONL")
    mode.add_argument("--diff", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args(argv)
    if args.diff:
        return diff(read(args.diff[0]), read(args.diff[1]))
    runs = planned_runs()
    records = []
    for i, (key, instance, algo, limit_s) in enumerate(runs, 1):
        records.append(fingerprint(key, instance, algo, limit_s))
        print(f"\r{i}/{len(runs)}", end="", file=sys.stderr, flush=True)
    print(file=sys.stderr)
    write(records, args.write)
    return 0


if __name__ == "__main__":
    sys.exit(main())
