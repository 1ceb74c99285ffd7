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
any order, sorts both. CBS runs the same forward sweep (`walk_levels`) under
an agent's constraints and reads only the level widths.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .instance import MapfInstance, Path, Vertex
from .pathing import UNREACHED, AgentConflicts, Distances
from .pathing import bfs_distances  # noqa: F401  the layer tracer wraps this name here


Levels = tuple[tuple[Vertex, ...], ...]
OutEdges = dict[tuple[int, Vertex], tuple[Vertex, ...]]  # (t, u) -> heads at t + 1


class InfeasibleAgentError(ValueError):
    """The agent cannot reach its goal at all, or not within the horizon."""


class Mdd:
    """Per-agent leveled DAG of time-expanded nodes, kept as its builder orders it."""

    def __init__(self, agent: Hashable, horizon: int,
                 levels: Levels, out: OutEdges):
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

    The goal node persists at every level from the earliest arrival onward,
    so trailing goal waits stay representable and free.
    """
    agent = instance.agent(agent_id)
    xi = distances.dist(agent.goal)[agent.start]
    if xi is UNREACHED:
        raise InfeasibleAgentError(f"goal of agent {agent_id!r} is unreachable")
    if cost_bound < xi:
        raise ValueError(f"cost bound {cost_bound} below shortest-path cost {xi}")
    if horizon < xi:
        raise InfeasibleAgentError(
            f"agent {agent_id!r} cannot reach its goal within horizon {horizon}"
        )
    levels, out = walk_levels(instance, agent_id, horizon, cost_bound, distances,
                              AgentConflicts())
    return Mdd(agent_id, horizon, levels, out)


def walk_levels(instance: MapfInstance, agent_id: Hashable, horizon: int, cost_bound: int,
                distances: Distances, avoid: AgentConflicts) -> tuple[Levels, OutEdges]:
    """Levels and out-edges of the agent's start->goal walks of `horizon`
    steps that cost at most `cost_bound` and keep clear of `avoid`.

    Level t + 1 holds the moves of level-t nodes that are the goal or can
    still reach it within the bound, less what `avoid` bans at t + 1 or cuts
    at t. Entries can leave a node with no move onward, so only then are the
    levels pruned backward, from the last constrained step: past it the sweep
    is unconstrained, and every node there already lies on a walk. With no
    such walk, every level is empty and there are no out-edges.
    """
    agent = instance.agent(agent_id)
    start, goal = agent.start, agent.goal
    dist_goal = distances.dist(goal)
    bound = min(cost_bound, horizon)
    banned, cut = avoid.by_step()
    xi = dist_goal[start]
    if xi is UNREACHED or xi > bound or start in banned.get(0, ()):
        return ((),) * (horizon + 1), {}

    # moves[u] is in the ids' order, so each out-edge list is as well.
    # Without entries there is no pruning pass: on an undirected graph where
    # agents may wait, every node swept here lies on a start->goal walk within
    # the bound (checked by test_matches_brute_force_expansion).
    moves = instance.graph.move_table
    levels = [(start,)]
    out = {}
    for t in range(horizon):
        slack = bound - (t + 1)
        ban, cuts = banned.get(t + 1, ()), cut.get(t, ())
        reached: set[Vertex] = set()
        for u in levels[t]:
            heads = [w for w in moves[u] if w == goal or dist_goal[w] <= slack]
            if ban or cuts:
                heads = [w for w in heads if w not in ban and (u, w) not in cuts]
            out[(t, u)] = tuple(heads)
            reached.update(heads)
        levels.append(tuple(sorted(reached)))
    if banned or cut:
        last = max(max(banned, default=0), max(cut, default=-1) + 1)
        for t in range(min(last, horizon) - 1, -1, -1):
            later = set(levels[t + 1])
            for u in levels[t]:
                out[(t, u)] = tuple([w for w in out[(t, u)] if w in later])
            levels[t] = tuple([u for u in levels[t] if out[(t, u)]])
        out = {key: heads for key, heads in out.items() if heads}
    return tuple(levels), out


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

