"""Benchmark workloads: instance families generated in code.

Every map is a 4-connected grid; agents are drawn from its largest component
with distinct starts and distinct goals. Pool instance `j` of a workload is a
pure function of the workload name and `j`, so any member can be rebuilt on
its own.

Solver runtime grows roughly threefold per unit of SOC slack (optimal sum of
costs minus the sum of shortest-path costs), and for CBS with the number of
colliding nodes it expands. A plain random draw therefore makes the mix of
easy and hard instances, and with it every tail metric, swing from seed to
seed. The reference table (`reference.json`, written by `make_reference.py`)
records for a screened prefix of each pool the optimal SOC, the agent count
and difficulty class (together, the stratum) and the time the workload's
algorithms took when the table was made. A seed draws a fixed number of
instances from every stratum, one from each of that many equal blocks of the
stratum sorted by reference time: the instances change with the seed, the
difficulty mix does not. The more of a stratum a seed draws, the less its
metrics depend on which instances it drew.

Where a pass over every drawn instance with every algorithm would not fit in
one run, each instance is solved by only some of the algorithms, chosen by
its pool index, so that more instances fit in the same number of runs. An
instance gets the same algorithms whichever seed draws it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Callable

from mapfsat import Agent, MapfInstance, parse_map

SAT_ALGOS = ("mddsat", "smtcbs", "sparse", "heuristic")
REFERENCE_PATH = FsPath(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Grid:
    """Passable mask of a generated map; cell id is y * width + x."""

    width: int
    height: int
    passable: tuple[tuple[bool, ...], ...]  # passable[y][x]

    def to_movingai(self) -> str:
        rows = ["".join("." if c else "@" for c in row) for row in self.passable]
        return "\n".join(["type octile", f"height {self.height}",
                          f"width {self.width}", "map", *rows]) + "\n"

    def cell(self, v: int) -> tuple[int, int]:
        return v % self.width, v // self.width

    def is_passable(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height and self.passable[y][x]

    def distances(self, src: int) -> dict[int, int]:
        """Hop distances from `src` over passable cells (breadth-first)."""
        dist = {src: 0}
        frontier = [src]
        for u in frontier:  # grows while iterated
            ux, uy = self.cell(u)
            for nx, ny in ((ux + 1, uy), (ux - 1, uy), (ux, uy + 1), (ux, uy - 1)):
                w = ny * self.width + nx
                if self.is_passable(nx, ny) and w not in dist:
                    dist[w] = dist[u] + 1
                    frontier.append(w)
        return dist

    def largest_component(self) -> list[int]:
        seen: set[int] = set()
        best: list[int] = []
        for y in range(self.height):
            for x in range(self.width):
                v = y * self.width + x
                if v in seen or not self.passable[y][x]:
                    continue
                comp = self.distances(v)
                seen.update(comp)
                if len(comp) > len(best):
                    best = list(comp)
        return sorted(best)


def random_grid(rng: random.Random, side: int, obstacle_share: float) -> Grid:
    return Grid(side, side, tuple(
        tuple(rng.random() >= obstacle_share for _ in range(side))
        for _ in range(side)
    ))


def rooms_grid(rng: random.Random, rooms: int = 4, room_side: int = 4) -> Grid:
    """`rooms` x `rooms` square rooms split by one-cell walls, one door per wall."""
    side = rooms * (room_side + 1) - 1
    walls = {k * (room_side + 1) - 1 for k in range(1, rooms)}
    open_cells = {(x, y) for y in range(side) for x in range(side)
                  if x not in walls and y not in walls}
    for r in range(rooms):
        for w in walls:  # one door in each wall segment of room row/column r
            offset = r * (room_side + 1) + rng.randrange(room_side)
            open_cells.add((w, offset))
            open_cells.add((offset, w))
    return Grid(side, side, tuple(
        tuple((x, y) in open_cells for x in range(side)) for y in range(side)
    ))


@dataclass(frozen=True)
class BenchInstance:
    id: str
    pool_index: int
    grid: Grid
    instance: MapfInstance

    @property
    def shortest_total(self) -> int:
        """Sum of the agents' shortest-path costs, from the grid alone."""
        return sum(self.grid.distances(a.start)[a.goal] for a in self.instance.agents)

    def fingerprint(self) -> str:
        """Digest of the map rows and agent endpoints."""
        agents = ";".join(f"{a.start}>{a.goal}" for a in self.instance.agents)
        return hashlib.sha1(f"{self.grid.to_movingai()}{agents}".encode()).hexdigest()[:16]


def sat_slack(outcome, shortest_total: int) -> int:
    """Optimal SOC minus the sum of shortest-path costs."""
    return outcome.soc - shortest_total


def collision_effort(outcome, shortest_total: int) -> int:
    """Bit length of the number of collisions the screening solver resolved."""
    return outcome.stats.conflicts.bit_length()


@dataclass(frozen=True)
class Workload:
    name: str
    make_grid: Callable[[random.Random], Grid]
    strata: dict[str, int]            # "agents/difficulty" -> instances per seed
    algos: tuple[str, ...]
    limit_s: float
    screen_algo: str                  # its outcome gives an instance's difficulty
    difficulty: Callable[..., int]    # (screen outcome, shortest_total) -> class
    min_distance: int = 0             # shortest start-goal hop count per agent
    capacity: int = 15                # table entries kept per stratum
    algos_per_instance: int = 0       # algorithms run on each instance; 0 for all

    @property
    def agent_counts(self) -> tuple[int, ...]:
        return tuple(sorted({int(key.split("/")[0]) for key in self.strata}))

    def pool_instance(self, j: int) -> BenchInstance:
        rng = random.Random(f"{self.name}/pool/{j}")
        k = self.agent_counts[j % len(self.agent_counts)]
        grid = self.make_grid(rng)
        comp = grid.largest_component()
        starts = rng.sample(comp, k)
        goals: list[int] = []
        for s in starts:
            dist = grid.distances(s) if self.min_distance else {}
            far = [v for v in comp if dist.get(v, 0) >= self.min_distance
                   and v not in goals and v != s]
            goals.append(rng.choice(far))
        graph = parse_map(grid.to_movingai())
        agents = [Agent(i + 1, s, g) for i, (s, g) in enumerate(zip(starts, goals))]
        return BenchInstance(f"{self.name}/p{j:05d}-k{k}", j, grid, MapfInstance(graph, agents))

    def generate(self, seed: int, table: dict) -> list[tuple[BenchInstance, dict]]:
        """The seed's draw: (instance, reference entry) pairs, pool order.

        Raises ValueError when the table lacks entries for a stratum or an
        entry no longer matches the instance the generator builds.
        """
        rng = random.Random(f"{self.name}/{seed}")
        strata = table[self.name]["strata"]
        picked = []
        for key, count in sorted(self.strata.items()):
            entries = sorted(strata.get(key, []), key=lambda e: (e["ref_s"], e["j"]))
            n = len(entries)
            if n < count:
                raise ValueError(f"{self.name}: stratum {key} has {n} "
                                 f"reference entries, {count} needed")
            picked += [rng.choice(entries[i * n // count:(i + 1) * n // count])
                       for i in range(count)]
        out = []
        for entry in sorted(picked, key=lambda e: e["j"]):
            inst = self.pool_instance(entry["j"])
            if inst.fingerprint() != entry["fp"]:
                raise ValueError(f"{inst.id}: instance differs from its reference entry")
            out.append((inst, entry))
        return out

    def runs(self, draws: list[tuple[BenchInstance, dict]]
             ) -> list[tuple[BenchInstance, dict, str]]:
        """(instance, reference entry, algorithm) triples of one pass over `draws`.

        Pool instance `j` runs `algos_per_instance` algorithms from position
        `j` of `algos` on (all of them when it is 0).
        """
        n = len(self.algos)
        per = self.algos_per_instance or n
        return [(bench, entry, self.algos[(bench.pool_index + k) % n])
                for bench, entry in draws for k in range(per)]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# Stratum keys are "agents/difficulty". Draw counts give each pass at least
# 96 runs and take about half of each stratum's table entries.
WORKLOADS = {w.name: w for w in (
    # complete models with UNSAT proofs below the optimum, and lazy loops with
    # many incremental solves: SOC slack 2-3 puts SAT search at about half of
    # the traced wall; one pass of all four algorithms on 24 instances fills a
    # run, so each instance gets two of them (enough to compare answers) and
    # a seed draws 48
    Workload("dense-sat", lambda rng: random_grid(rng, 8, 0.0),
             strata={"11/2": 8, "12/2": 8, "13/2": 8, "11/3": 8, "12/3": 8, "13/3": 8},
             algos=SAT_ALGOS, limit_s=20.0, screen_algo="smtcbs", difficulty=sat_slack,
             algos_per_instance=2),
    # long paths make big diagrams and models that are quick to solve; the
    # sparse solvers take one model when their first candidates do not collide
    # and several when they do, so their collision count (0 or 1) sets the
    # stratum
    Workload("large-sparse", lambda rng: random_grid(rng, 32, 0.10),
             strata={"4/0": 10, "6/0": 10, "8/0": 10, "4/1": 10, "6/1": 10, "8/1": 10},
             algos=SAT_ALGOS, limit_s=20.0, screen_algo="sparse",
             difficulty=collision_effort, min_distance=16, capacity=21),
    # CBS only: single-agent search, validation and BFS, no SAT at all
    Workload("cbs-rooms", rooms_grid,
             strata={"8/4": 45, "8/5": 45, "10/4": 45, "10/5": 45},
             algos=("cbs",), limit_s=20.0, screen_algo="cbs",
             difficulty=collision_effort, capacity=60),
)}
