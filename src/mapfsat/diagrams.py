"""Leveled time-expansion diagrams: full (all bounded paths) and sparse.

A diagram for one agent has one node per (vertex, timestep) it may occupy
and directed edges between consecutive levels (moves plus waits), up to the
agent's cost bound; the encoder supplies the goal waits past it. The full
build keeps exactly the nodes reachable from the start in t steps that can
still reach the goal within the bound; the sparse build inserts an explicit
set of candidate paths, which may make extra combined paths representable as
a side effect.

A diagram keeps its levels and out-edge lists in the ids' order, as its
builder hands them over: the full build sweeps forward from the start, sorts
each level and filters `Graph.move_table`; the sparse build, whose paths
arrive in any order, sorts both. CBS runs the same forward sweep
(`walk_levels`) under an agent's constraints and reads only the level widths.
The sweep reads only per-step bans and cuts: it turns every held cell into
bans before it starts.

A full build can also leave out the goal cells that other agents hold
(`goal_bans`): under a sum-of-costs bound each agent has a latest arrival,
from which on it stands on its goal. The bans are `AgentConflicts.held`
pairs, the form CBS's target reasoning uses too. When they leave an agent no
walk, `build_mdd` raises `EmptyDiagramError`, and no solution meets the bound.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from .instance import MapfInstance, Path, Vertex
from .pathing import UNREACHED, AgentConflicts, Distances
from .pathing import bfs_distances  # noqa: F401  the layer tracer wraps this name here


Levels = tuple[tuple[Vertex, ...], ...]
OutEdges = dict[tuple[int, Vertex], tuple[Vertex, ...]]  # (t, u) -> heads at t + 1


class InfeasibleAgentError(ValueError):
    """The agent cannot reach its goal at all."""


class EmptyDiagramError(Exception):
    """The goal bans leave the agent no walk: no solution meets their bound."""


class Mdd:
    """Per-agent leveled DAG of time-expanded nodes, kept as its builder orders it."""

    def __init__(self, horizon: int, levels: Levels, out: OutEdges):
        if len(levels) != horizon + 1:
            raise ValueError(f"expected {horizon + 1} levels, got {len(levels)}")
        if len(levels[0]) != 1:
            raise ValueError("level 0 must hold exactly the start node")
        if len(levels[-1]) != 1:
            raise ValueError("last level must hold exactly the goal node")
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

    def represents(self, path: Path) -> bool:
        """True when every step of the path, padded to the horizon with goal
        waits, is one of the diagram's out-edges."""
        pos = path.padded(self.horizon).positions
        return all(pos[t + 1] in self.outgoing(pos[t], t) for t in range(self.horizon))


def build_mdd(instance: MapfInstance, agent_id: Hashable, bound: int,
              distances: Distances, avoid: AgentConflicts = AgentConflicts()) -> Mdd:
    """Full diagram, `bound + 1` levels, of every start->goal path of cost at
    most `bound` that keeps clear of `avoid`, as `walk_levels` reads it: in
    the solvers, the goal cells that the other agents hold (`goal_bans`).

    The goal node persists at every level from the earliest arrival onward,
    so trailing goal waits stay representable and free. `EmptyDiagramError`
    if `avoid` leaves no such path.
    """
    agent = instance.agent(agent_id)
    xi = distances.dist(agent.goal)[agent.start]
    if xi is UNREACHED:
        raise InfeasibleAgentError(f"goal of agent {agent_id!r} is unreachable")
    if bound < xi:
        raise ValueError(f"cost bound {bound} below shortest-path cost {xi}")
    levels, out = walk_levels(instance, agent_id, bound, distances, avoid)
    if not levels[0]:
        raise EmptyDiagramError(f"goal bans leave agent {agent_id!r} no walk")
    return Mdd(bound, levels, out)


def goal_bans(instance: MapfInstance,
              bounds: Mapping[Hashable, int]) -> dict[Hashable, AgentConflicts]:
    """Each agent's bans under per-agent cost bounds: the goal cells the
    other agents hold.

    Agent b costs at most `bounds[b]`, so from that step on it stands on its
    goal, and no other agent may be there: every other agent's `held` has
    `(goal of b, bounds[b])`. An agent's own goal is never held for it.
    """
    arrivals = {a.id: (a.goal, bounds[a.id]) for a in instance.agents}
    held = frozenset(arrivals.values())
    return {a: AgentConflicts(held=held - {own}) for a, own in arrivals.items()}


def walk_levels(instance: MapfInstance, agent_id: Hashable, bound: int,
                distances: Distances, avoid: AgentConflicts) -> tuple[Levels, OutEdges]:
    """Levels (`bound + 1`) and out-edges of the agent's start->goal walks of
    `bound` steps that keep clear of `avoid`'s vertex and edge entries and
    held cells. Its floor and cap are not read.

    Every entry becomes a per-step ban or cut before the sweep starts: a cell
    held from step s is banned at each step from s up to the bound, at which
    the agent stands on its goal. A held own goal leaves no walk, as in
    `constrained_shortest_path`. Level t + 1 holds the moves of level-t
    nodes that are the goal or can still reach it within the bound, less
    what is banned at t + 1 or cut at t. A node that the filters leave no
    move is dropped, and so, level by level backward, is every node whose
    moves all led to dropped ones; the prune starts at the last level that
    lost a node and touches only their predecessors. With no walk left,
    every level is empty and there are no out-edges.
    """
    agent = instance.agent(agent_id)
    start, goal = agent.start, agent.goal
    dist_goal = distances.dist(goal)
    banned, cut = avoid.by_step()
    for v, s in avoid.held:
        for t in range(s, bound):
            banned.setdefault(t, set()).add(v)
    xi = dist_goal[start]
    if (xi is UNREACHED or xi > bound or start in banned.get(0, ())
            or any(v == goal for v, _ in avoid.held)):
        return ((),) * (bound + 1), {}

    # moves[u] is in the ids' order, so each out-edge list is as well.
    # Unfiltered, every node swept here lies on a start->goal walk within the
    # bound: on an undirected graph where agents may wait, it keeps a move
    # (checked by test_matches_brute_force_expansion).
    moves = instance.graph.move_table
    levels = [(start,)]
    out = {}
    dead: dict[int, set[Vertex]] = {}  # level -> nodes the filters left no move
    for t in range(bound):
        slack = bound - (t + 1)
        ban, cuts = banned.get(t + 1, ()), cut.get(t, ())
        reached: set[Vertex] = set()
        for u in levels[t]:
            heads = [w for w in moves[u]
                     if (w == goal or dist_goal[w] <= slack) and w not in ban]
            if cuts:
                heads = [w for w in heads if (u, w) not in cuts]
            if not heads:
                dead.setdefault(t, set()).add(u)
            out[(t, u)] = tuple(heads)
            reached.update(heads)
        levels.append(tuple(sorted(reached)))
    if dead:
        _prune(moves, levels, out, dead)
    return tuple(levels), out


def _prune(moves, levels: list[tuple[Vertex, ...]], out: OutEdges,
           dead: dict[int, set[Vertex]]) -> None:
    """Drop the `dead` nodes, from the last level that has one back to the
    start, and with them every node whose moves all led to dropped ones.
    The graph is undirected and agents may wait, so only a dropped node's
    own moves lead into it."""
    for t in range(max(dead), -1, -1):
        gone = dead.get(t)
        if not gone:
            continue
        levels[t] = tuple([u for u in levels[t] if u not in gone])
        for v in gone:
            del out[(t, v)]
            for u in moves[v]:  # at level 0 there is no (-1, u) entry to trim
                heads = out.get((t - 1, u), ())
                if v in heads:
                    heads = out[(t - 1, u)] = tuple([w for w in heads if w not in gone])
                    if not heads:
                        dead.setdefault(t - 1, set()).add(u)


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
    return Mdd(horizon, levels, out)

