"""Benchmark harness: batched runs, success rates, cactus data, CSV.

A suite directory holds `.scen` files plus the `.map` files they name.
Scenario files are taken in sorted order; one benchmark instance is the
first N agents of one scenario.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass
from pathlib import Path as FsPath
from typing import Iterable, Sequence

from .encoding import EncodingSoundnessError
from .instance import ParseError, build_instance, parse_map, parse_scen
from .satif import SatBackendError
from .solvers import ALGORITHMS, ConfigError, SolverConfig, revalidate

ERROR = "error"
PARSE_ERROR = "parse error"  # reason prefix: a map or scenario failed to parse
# faults of one run that become one `error` record, reason "<class>: <message>"
SOLVER_FAULTS = (EncodingSoundnessError, SatBackendError, MemoryError)

# one per `BenchRecord` field, in its order: `write_csv` writes `astuple(record)`
CSV_COLUMNS = ["map", "scen", "agents", "algo", "status", "runtime_s", "soc",
               "sat_calls", "conflicts", "reason"]


@dataclass(frozen=True)
class BenchRecord:
    map_name: str
    scen_name: str
    agents: int
    algo: str
    status: str
    runtime_s: float
    soc: int | None
    sat_calls: int
    conflicts: int
    reason: str = ""  # why an `error` record failed; empty otherwise


def discover_suite(suite_dir: str | FsPath) -> list[FsPath]:
    """Scenario files of a suite, in sorted order."""
    return sorted(FsPath(suite_dir).glob("*.scen"))


def _run_one(scen_path: FsPath, agents: int, algo: str, config: SolverConfig) -> BenchRecord:
    scen_name = scen_path.name

    def err(reason: str, map_name: str = "") -> BenchRecord:
        return BenchRecord(map_name, scen_name, agents, algo, ERROR, 0.0, None, 0, 0, reason)

    try:
        specs = parse_scen(scen_path.read_text())
    except OSError as exc:
        return err(str(exc))
    except ParseError as exc:
        return err(f"{PARSE_ERROR}: {scen_name}: {exc}")
    if not specs:
        return err(f"{scen_name}: no agents")
    map_name = specs[0].map_name
    map_path = scen_path.parent / map_name
    try:
        graph = parse_map(map_path.read_text())
    except OSError as exc:
        return err(str(exc), map_name)
    except ParseError as exc:
        return err(f"{PARSE_ERROR}: {map_name}: {exc}", map_name)
    try:
        instance = build_instance(graph, specs, agents)
    except ValueError as exc:
        return err(str(exc), map_name)
    try:
        outcome = ALGORITHMS[algo](instance, config)
        if outcome.solved:
            revalidate(instance, outcome)
    except SOLVER_FAULTS as exc:
        return err(f"{type(exc).__name__}: {exc}", map_name)
    return BenchRecord(
        map_name=map_name,
        scen_name=scen_name,
        agents=agents,
        algo=algo,
        status=outcome.status,
        runtime_s=outcome.stats.runtime_s,
        soc=outcome.soc,
        sat_calls=outcome.stats.sat_calls,
        conflicts=outcome.stats.conflicts,
    )


def run_benchmark(
    suite_dir: str | FsPath,
    algorithms: Sequence[str],
    agent_counts: Sequence[int],
    per_count: int = 25,
    timeout_s: float = 128.0,
    workers: int = 1,
) -> list[BenchRecord]:
    """One record per (scenario, agent count, algorithm), in stable order.

    Raises ConfigError, before any run starts, on a `suite_dir` that is not a
    directory, no algorithm or agent count, an unknown algorithm, an agent
    count, per-count or worker count below 1, or a time limit that is not
    positive. A directory without scenario files gives no records.
    """
    if not FsPath(suite_dir).is_dir():
        raise ConfigError(f"suite {str(suite_dir)!r} is not a directory")
    if not algorithms:
        raise ConfigError("no algorithm given")
    if not agent_counts:
        raise ConfigError("no agent count given")
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algo!r}")
    for n in agent_counts:
        if n < 1:
            raise ConfigError(f"agent count must be at least 1, got {n}")
    if per_count < 1:
        raise ConfigError(f"per-count must be at least 1, got {per_count}")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    config = SolverConfig(timeout_s=timeout_s)
    scens = discover_suite(suite_dir)[:per_count]
    tasks = [
        (scen, n, algo, config)
        for scen in scens
        for n in agent_counts
        for algo in algorithms
    ]
    # a pool forks all of its workers at the first submit: no more than runs
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [_run_one(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, *zip(*tasks)))


def success_rate(records: Iterable[BenchRecord], algorithm: str, agent_count: int) -> float | None:
    """Solved share for one (algorithm, agent count) group; None when empty."""
    group = [r for r in records if r.algo == algorithm and r.agents == agent_count]
    if not group:
        return None
    return sum(1 for r in group if r.status == "solved") / len(group)


def sorted_runtimes(records: Iterable[BenchRecord], algorithm: str) -> list[float]:
    """Cactus-plot data: runtimes of solved records, ascending."""
    return sorted(r.runtime_s for r in records if r.algo == algorithm and r.status == "solved")


def write_csv(records: Iterable[BenchRecord], path: str | FsPath) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(astuple(r) for r in records)


def read_csv(path: str | FsPath) -> list[BenchRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise ValueError("empty CSV, no header" if header is None
                             else f"unexpected CSV header {header!r}")
        out = []
        for row in reader:
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"CSV line {reader.line_num} has {len(row)} columns, "
                                 f"expected {len(CSV_COLUMNS)}")
            out.append(BenchRecord(
                map_name=row[0],
                scen_name=row[1],
                agents=int(row[2]),
                algo=row[3],
                status=row[4],
                runtime_s=float(row[5]),
                soc=None if row[6] == "" else int(row[6]),
                sat_calls=int(row[7]),
                conflicts=int(row[8]),
                reason=row[9],
            ))
    return out
