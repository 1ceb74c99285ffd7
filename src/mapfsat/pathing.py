"""Single-agent shortest paths under vertex/edge avoidance constraints.

Path cost counts every step until the agent finally settles at its goal;
trailing goal waits are free. The space-time search below minimizes that
measure directly, so paths that leave the goal and come back are priced
correctly. It takes one bound on that cost, and every path it returns ends
at its final arrival.
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
    """Avoidance entries for a single agent.

    `vertex` and `edge` ban one vertex or one directed move at one step.
    Target reasoning adds the rest: `held` holds `(v, t)` pairs, each keeping
    the agent off v at every step from t on (CBS's held goals and the SAT
    loop's `diagrams.goal_bans`); `floor` and `cap`, which only CBS sets,
    bound the agent's cost (its arrival time), `cap` None for no cap.
    """

    vertex: frozenset[VertexConflict] = frozenset()
    edge: frozenset[EdgeConflict] = frozenset()
    floor: int = 0
    cap: int | None = None
    held: frozenset[VertexConflict] = frozenset()

    def with_entry(self, kind: str, entry: VertexConflict | EdgeConflict) -> "AgentConflicts":
        """A copy that also avoids `entry`, a "vertex" or an "edge" entry."""
        if kind == "vertex":
            return AgentConflicts(self.vertex | {entry}, self.edge, self.floor, self.cap,
                                  self.held)
        return AgentConflicts(self.vertex, self.edge | {entry}, self.floor, self.cap, self.held)

    def arriving_after(self, t: int) -> "AgentConflicts":
        """A copy whose agent arrives after step t: its cost is at least t + 1."""
        return AgentConflicts(self.vertex, self.edge, max(self.floor, t + 1), self.cap,
                              self.held)

    def arriving_by(self, t: int) -> "AgentConflicts":
        """A copy whose agent arrives by step t: its cost is at most t."""
        return AgentConflicts(self.vertex, self.edge, self.floor,
                              t if self.cap is None else min(self.cap, t), self.held)

    def holding(self, v: Vertex, t: int) -> "AgentConflicts":
        """A copy that also keeps off v at every step from t on."""
        return AgentConflicts(self.vertex, self.edge, self.floor, self.cap,
                              self.held | {(v, t)})

    def held_from(self) -> dict[Vertex, int]:
        """Each held cell and the first step from which it is held."""
        first: dict[Vertex, int] = {}
        for v, t in self.held:
            if t < first.get(v, t + 1):
                first[v] = t
        return first

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
    bound: int,
    distances: Distances,
) -> Optional[Path]:
    """Minimum-cost start->goal path of cost <= bound.

    The path never occupies a conflicted vertex at its timestep nor traverses
    a conflicted directed edge. Its implicit goal-wait padding stays clear of
    every vertex conflict on the goal: the path arrives after the goal's last
    one, so when that falls at or past the bound there is no path. Returns
    None when no such path exists.

    A returned path ends at its final arrival, so its length is its cost:
    waits on the goal that began before the goal's last vertex conflict
    cannot cross it, and any later arrival ends the search when it is
    popped. No state at the bound is expanded.

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

    CBS's target entries (`AgentConflicts.floor`, `cap` and `held`): the cap
    lowers the bound, and a move onto a held cell at or after the step
    from which it is held is cut. Under a floor F the path's cost, not its
    length, must reach F, so a goal state that arrived before F is no end:
    the agent has to leave the goal and come back (Li et al.'s holding time,
    "Pairwise Symmetry Reasoning for Multi-Agent Path Finding Search", AIJ
    2021). Such a state's f is `max(F, t + 2)`, the earliest return, which
    lies above t, so it neither ends the search nor keeps out a later real
    arrival at the same `(v, t)`, whose f is t; a goal state ends only when
    its f is at most t. Every other f is raised to F as well, so f still
    never drops along a move. With none of them set, F is 0 and the search
    pops exactly the states it pops without them.
    """
    if bound < 0:
        raise ValueError("negative bound")
    agent = instance.agent(agent_id)
    start, goal = agent.start, agent.goal
    dist_goal = distances.dist(goal)
    if dist_goal[start] is UNREACHED:
        return None
    banned, cut = avoid.by_step()
    floor, held = avoid.floor, avoid.held_from()
    if avoid.cap is not None:
        bound = min(bound, avoid.cap)
    moves = instance.graph.move_table

    # Terminal states must keep the implicit goal-wait padding conflict-free.
    earliest_stop = max((t for t, vs in banned.items() if goal in vs), default=-1) + 1

    if (earliest_stop > bound or start in banned.get(0, ()) or goal in held
            or held.get(start) == 0):
        return None
    # f bounds the cost from below: t + dist(v, goal) off the goal, and the
    # last arrival time at it, both raised to the floor; the heap holds -t,
    # so that ties go deeper
    if start != goal:
        f0 = max(dist_goal[start], floor)
    else:
        f0 = 0 if floor == 0 else max(floor, 2)
    heap = [(f0, 0, start, (start, None))]
    best = {(start, 0): f0}
    while heap:
        f, neg_t, v, node = heapq.heappop(heap)
        t = -neg_t
        if f != best[(v, t)]:  # stale: the state was pushed again at a lower f
            continue
        if v == goal and t >= earliest_stop and f <= t:
            positions = []
            cur = node
            while cur is not None:
                positions.append(cur[0])
                cur = cur[1]
            return Path(agent_id, tuple(reversed(positions)))
        if t == bound:
            continue
        t1 = t + 1
        ban, cuts = banned.get(t1, ()), cut.get(t, ())
        for w in moves[v]:
            if w in ban or (cuts and w != v and (v, w) in cuts):
                continue
            if held and held.get(w, t1 + 1) <= t1:
                continue
            if w != goal:
                # w shares v's component, so it reaches the goal too
                f2 = t1 + dist_goal[w]
                if f2 < floor:
                    f2 = floor
            elif v == goal:  # a wait keeps the arrival, unless it came too early
                f2 = f if f <= t else max(floor, t1 + 2)
            else:
                f2 = t1 if t1 >= floor else max(floor, t1 + 2)
            if f2 > bound:
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
    return constrained_shortest_path(instance, agent_id, AgentConflicts(), dist, distances)


def new_and_path(
    instance: MapfInstance,
    agent_id: Hashable,
    mdd: Mdd,
    conflicts: AgentConflicts,
    distances: Distances,
) -> list[Path]:
    """The shortest path avoiding every conflict of the agent at once, within
    the horizon of `mdd`, the agent's sparse diagram, unless the diagram
    already represents it (`Mdd.represents`): a list of at most one path.
    """
    path = constrained_shortest_path(instance, agent_id, conflicts, mdd.horizon, distances)
    if path is None or mdd.represents(path):
        return []
    return [path]


def new_or_paths(
    instance: MapfInstance,
    agent_id: Hashable,
    mdd: Mdd,
    conflicts: AgentConflicts,
    distances: Distances,
) -> list[Path]:
    """One shortest avoiding path per nonempty conflict subset, within the
    horizon of `mdd`, the agent's sparse diagram, less the paths the diagram
    already represents (`Mdd.represents`).

    Subsets are enumerated in increasing cardinality, stopping after
    `OR_SUBSET_LIMIT` subsets; duplicate paths are dropped.
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
            path = constrained_shortest_path(instance, agent_id, AgentConflicts(vconf, econf),
                                             mdd.horizon, distances)
            if path is not None and path.positions not in seen_positions:
                seen_positions.add(path.positions)
                if not mdd.represents(path):
                    out.append(path)
    return out
