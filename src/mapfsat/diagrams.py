"""Leveled time-expansion diagrams: full (all bounded paths) and sparse.

A diagram for one agent has one node per (vertex, timestep) it may occupy
and directed edges between consecutive levels (moves plus waits). The full
build keeps exactly the nodes reachable from the start in t steps that can
still reach the goal within the cost bound; the sparse build inserts an
explicit set of candidate paths, which may make extra combined paths
representable as a side effect.

A diagram keeps its levels and out-edge lists in the ids' order, as its
builder hands them over: the full build sweeps forward from the start, sorts
each level and filters `Graph.moves`; the sparse build, whose paths arrive in
any order, sorts both.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .instance import MapfInstance, Path, Vertex
from .pathing import Distances
from .pathing import bfs_distances  # noqa: F401  the layer tracer wraps this name here


class InfeasibleAgentError(ValueError):
    """The agent cannot reach its goal at all, or not within the horizon."""


class Mdd:
    """Per-agent leveled DAG of time-expanded nodes, kept as its builder orders it."""

    def __init__(self, agent: Hashable, horizon: int,
                 levels: tuple[tuple[Vertex, ...], ...],
                 out: dict[tuple[int, Vertex], tuple[Vertex, ...]]):
        if len(levels) != horizon + 1:
            raise ValueError(f"expected {horizon + 1} levels, got {len(levels)}")
        if len(levels[0]) != 1:
            raise ValueError("level 0 must hold exactly the start node")
        if len(levels[-1]) != 1:
            raise ValueError("last level must hold exactly the goal node")
        self.agent = agent
        self.horizon = horizon
        self.levels = levels
        self._out = out

    @property
    def start(self) -> Vertex:
        return self.levels[0][0]

    @property
    def goal(self) -> Vertex:
        return self.levels[-1][0]

    @property
    def node_count(self) -> int:
        return sum(len(level) for level in self.levels)

    @property
    def edge_count(self) -> int:
        return sum(len(heads) for heads in self._out.values())

    def outgoing(self, u: Vertex, t: int) -> tuple[Vertex, ...]:
        return self._out.get((t, u), ())


def build_mdd(instance: MapfInstance, agent_id: Hashable, horizon: int,
              cost_bound: int, distances: Distances) -> Mdd:
    """Full diagram of every start->goal path within the horizon and cost bound.

    The levels are swept forward from the start: level t + 1 holds the moves
    of level-t nodes that are the goal or can still reach it within the
    bound. That is the vertex set with dist(start, v) <= t <= bound -
    dist(v, goal), and only the goal's distance table is read. The goal node
    persists at every level from the earliest arrival onward, so trailing
    goal waits stay representable and free.
    """
    agent = instance.agent(agent_id)
    goal = agent.goal
    dist_goal = distances.dist(goal)
    xi = dist_goal.get(agent.start)
    if xi is None:
        raise InfeasibleAgentError(f"goal of agent {agent_id!r} is unreachable")
    if cost_bound < xi:
        raise ValueError(f"cost bound {cost_bound} below shortest-path cost {xi}")
    if horizon < xi:
        raise InfeasibleAgentError(
            f"agent {agent_id!r} cannot reach its goal within horizon {horizon}"
        )
    bound = min(cost_bound, horizon)

    # Graph.moves(u) is in the ids' order, so each out-edge list is as well.
    # No pruning pass: on an undirected graph where agents may wait, every
    # node swept here lies on a start->goal walk within the bound (checked by
    # test_matches_brute_force_expansion).
    moves = instance.graph.moves
    levels = [(agent.start,)]
    out = {}
    for t in range(horizon):
        slack = bound - (t + 1)
        reached: set[Vertex] = set()
        for u in levels[t]:
            heads = tuple([w for w in moves(u) if w == goal or dist_goal[w] <= slack])
            out[(t, u)] = heads
            reached.update(heads)
        levels.append(tuple(sorted(reached)))
    return Mdd(agent_id, horizon, tuple(levels), out)


def build_smdd(agent_id: Hashable, paths: Sequence[Path], horizon: int) -> Mdd:
    """Sparse diagram representing (at least) an explicit candidate path set."""
    if not paths:
        raise ValueError("empty candidate path set")
    goal = paths[0].positions[-1]
    start = paths[0].positions[0]
    members: list[set[Vertex]] = [set() for _ in range(horizon + 1)]
    heads: dict[tuple[int, Vertex], set[Vertex]] = {}
    for p in paths:
        if p.agent != agent_id:
            raise ValueError(f"path of agent {p.agent!r} in candidate set of {agent_id!r}")
        if p.positions[-1] != goal or p.positions[0] != start:
            raise ValueError("candidate paths disagree on start/goal")
        if p.length > horizon:
            raise ValueError(f"candidate path longer than horizon {horizon}")
        pos = p.padded(horizon).positions
        for t in range(horizon + 1):
            members[t].add(pos[t])
        for t in range(horizon):
            heads.setdefault((t, pos[t]), set()).add(pos[t + 1])
    levels = tuple(tuple(sorted(level)) for level in members)
    out = {key: tuple(sorted(vs)) for key, vs in heads.items()}
    return Mdd(agent_id, horizon, levels, out)


def count_represented_paths(mdd: Mdd) -> int:
    """Number of directed start->sink paths, by per-level dynamic programming."""
    counts = {(0, mdd.start): 1}
    for t in range(mdd.horizon):
        for u in mdd.levels[t]:
            c = counts.get((t, u), 0)
            if not c:
                continue
            for v in mdd.outgoing(u, t):
                key = (t + 1, v)
                counts[key] = counts.get(key, 0) + c
    return counts.get((mdd.horizon, mdd.goal), 0)
