"""Single-agent shortest paths under vertex/edge avoidance constraints.

Path cost counts every step until the agent finally settles at its goal;
trailing goal waits are free. The space-time search below minimizes that
measure directly, so paths that leave the goal and come back are priced
correctly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Optional

from .instance import Graph, MapfInstance, Path, Vertex

if TYPE_CHECKING:
    from .diagrams import Mdd

# vertex -> hop distance: a list indexed by cell id on grids, else a dict
DistTable = list | dict
VertexConflict = tuple[Vertex, int]          # agent must not occupy v at t
EdgeConflict = tuple[tuple[Vertex, Vertex], int]  # agent must not traverse u->v at t

OR_SUBSET_LIMIT = 64  # most conflict subsets one new_or_paths call tries


@dataclass(frozen=True)
class AgentConflicts:
    """Avoidance entries for a single agent."""

    vertex: frozenset[VertexConflict] = frozenset()
    edge: frozenset[EdgeConflict] = frozenset()

    def with_entry(self, kind: str, entry: VertexConflict | EdgeConflict) -> "AgentConflicts":
        """A copy that also avoids `entry`, a "vertex" or an "edge" entry."""
        if kind == "vertex":
            return AgentConflicts(self.vertex | {entry}, self.edge)
        return AgentConflicts(self.vertex, self.edge | {entry})

    def by_step(self) -> tuple[dict[int, set[Vertex]], dict[int, set[tuple[Vertex, Vertex]]]]:
        """The entries indexed by timestep: the vertices banned at each step,
        and the moves cut between each step and the next."""
        banned: dict[int, set[Vertex]] = {}
        for v, t in self.vertex:
            banned.setdefault(t, set()).add(v)
        cut: dict[int, set[tuple[Vertex, Vertex]]] = {}
        for move, t in self.edge:
            cut.setdefault(t, set()).add(move)
        return banned, cut


UNREACHED = None  # a distance table's entry where no walk from the source leads


def bfs_distances(graph: Graph, source: Vertex) -> DistTable:
    """Exact hop distances from `source`, as a `Graph.table`: `dist[v]` for
    every vertex v, UNREACHED where no walk leads (and at a grid's blocked
    cells)."""
    if source not in graph:
        raise ValueError(f"source {source!r} not in graph")
    adj = graph.adjacency
    dist = graph.table(UNREACHED)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        reached = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] is UNREACHED:
                    dist[w] = d
                    reached.append(w)
        frontier = reached
    return dist


class Distances:
    """BFS tables of one graph (`bfs_distances`: each a `Graph.table`), each
    computed the first time it is asked for.

    The graph is undirected, so a goal's table also holds every start's
    distance to that goal: solvers ask only for goal tables, one per agent.
    `solvers._run` makes one per solve and passes it to every layer the solver
    calls; it is dropped when the solve returns: no layer makes a memo of its
    own, and no table outlives the solve that needed it.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._tables: dict[Vertex, DistTable] = {}

    def dist(self, source: Vertex) -> DistTable:
        table = self._tables.get(source)
        if table is None:
            table = self._tables[source] = bfs_distances(self.graph, source)
        return table


def constrained_shortest_path(
    instance: MapfInstance,
    agent_id: Hashable,
    avoid: AgentConflicts,
    horizon: int,
    cost_bound: int,
    distances: Distances,
    min_length: int = 0,
) -> Optional[Path]:
    """Minimum-cost start->goal path of length <= horizon and cost <= cost_bound.

    The path never occupies a conflicted vertex at its timestep nor traverses
    a conflicted directed edge. Its implicit goal-wait padding stays clear of
    every vertex conflict on the goal, also of those past the horizon: the
    path arrives after the goal's last one, so when that falls at or past the
    horizon there is no path. Returns None when no such path exists.

    The heap pops the state of lower f, then of higher timestep, then of
    smaller vertex id, then the first push. Among states of equal f it thus
    dives to the goal rather than sweep each level; f never drops along a
    move, so every state of f below the optimum is still popped first and the
    cost stays optimal.

    Each space-time state `(v, t)` is pushed only when its f is strictly lower
    than at its last push. Off the goal f is `t + dist(v, goal)` whatever the
    path, so such a state is pushed once; a goal state's f is its arrival
    time, which a later push can lower. No two live heap entries share
    `(f, t, v)`, so those three order the heap on their own.
    """
    if cost_bound < 0:
        raise ValueError("negative cost bound")
    agent = instance.agent(agent_id)
    start, goal = agent.start, agent.goal
    dist_goal = distances.dist(goal)
    if dist_goal[start] is UNREACHED:
        return None
    banned, cut = avoid.by_step()
    moves = instance.graph.move_table

    # Terminal states must keep the implicit goal-wait padding conflict-free.
    last_goal_conflict = max((t for t, vs in banned.items() if goal in vs), default=-1)
    earliest_stop = max(min_length, last_goal_conflict + 1)

    if earliest_stop > horizon or start in banned.get(0, ()):
        return None
    # f bounds the cost from below: t + dist(v, goal) off the goal, and the
    # last arrival time at it; the heap holds -t, so that ties go deeper
    f0 = 0 if start == goal else dist_goal[start]
    heap = [(f0, 0, start, (start, None))]
    best = {(start, 0): f0}
    while heap:
        f, neg_t, v, node = heapq.heappop(heap)
        t = -neg_t
        if f != best[(v, t)]:  # stale: the state was pushed again at a lower f
            continue
        if v == goal and t >= earliest_stop:
            positions = []
            cur = node
            while cur is not None:
                positions.append(cur[0])
                cur = cur[1]
            return Path(agent_id, tuple(reversed(positions)))
        if t == horizon:
            continue
        t1 = t + 1
        ban, cuts = banned.get(t1, ()), cut.get(t, ())
        for w in moves[v]:
            if w in ban or (cuts and w != v and (v, w) in cuts):
                continue
            # w shares v's component, so it reaches the goal too
            dg = dist_goal[w]
            if t1 + dg > horizon:
                continue
            if w != goal:
                f2 = t1 + dg
            elif v == goal:
                f2 = f
            else:
                f2 = t1
            if f2 > cost_bound:
                continue
            # f never drops along a move, so a popped state's best is <= f2
            # and it is never pushed again
            state = (w, t1)
            if best.get(state, f2 + 1) <= f2:
                continue
            best[state] = f2
            heapq.heappush(heap, (f2, -t1, w, (w, node)))
    return None


def shortest_path(instance: MapfInstance, agent_id: Hashable,
                  distances: Distances) -> Optional[Path]:
    """Deterministic unconstrained shortest path for one agent."""
    agent = instance.agent(agent_id)
    dist = distances.dist(agent.goal)[agent.start]
    if dist is UNREACHED:
        return None
    return constrained_shortest_path(instance, agent_id, AgentConflicts(), dist, dist,
                                     distances)


def new_and_path(
    instance: MapfInstance,
    agent_id: Hashable,
    mdd: Mdd,
    conflicts: AgentConflicts,
    horizon: int,
    cost_bound: int,
    distances: Distances,
) -> Optional[Path]:
    """Shortest path avoiding every conflict of the agent at once.

    Returns None when no such path exists within the bounds, or when the
    found path is already represented by `mdd`, the agent's current sparse
    diagram: every step of the path padded to `horizon` is one of its
    out-edges (adding the path would change nothing).
    """
    path = constrained_shortest_path(instance, agent_id, conflicts, horizon, cost_bound,
                                     distances)
    if path is None:
        return None
    pos = path.padded(horizon).positions
    if all(pos[t + 1] in mdd.outgoing(pos[t], t) for t in range(horizon)):
        return None
    return path


def new_or_paths(
    instance: MapfInstance,
    agent_id: Hashable,
    conflicts: AgentConflicts,
    horizon: int,
    cost_bound: int,
    distances: Distances,
) -> list[Path]:
    """One shortest avoiding path per nonempty conflict subset.

    Subsets are enumerated in increasing cardinality, stopping after
    `OR_SUBSET_LIMIT` subsets; duplicate paths are dropped. Each returned path
    extends past the last timestep of the subset it answers, so that it
    responds to the conflict rather than parking at the goal beforehand.
    """
    items = [("vertex", e) for e in conflicts.vertex] + [("edge", e) for e in conflicts.edge]
    # by timestep, vertex entries first, then by the vertex or the edge itself
    items.sort(key=lambda item: (item[1][1], item[0] == "edge", item[1][0]))
    out: list[Path] = []
    seen_positions: set[tuple[Vertex, ...]] = set()
    enumerated = 0
    for r in range(1, len(items) + 1):
        for subset in itertools.combinations(items, r):
            if enumerated >= OR_SUBSET_LIMIT:
                return out
            enumerated += 1
            vconf = frozenset(e for kind, e in subset if kind == "vertex")
            econf = frozenset(e for kind, e in subset if kind == "edge")
            last_t = max(
                (e[1] if kind == "vertex" else e[1] + 1) for kind, e in subset
            )
            path = constrained_shortest_path(
                instance,
                agent_id,
                AgentConflicts(vconf, econf),
                horizon,
                cost_bound,
                distances,
                min_length=last_t + 1,
            )
            if path is not None and path.positions not in seen_positions:
                seen_positions.add(path.positions)
                out.append(path)
    return out
