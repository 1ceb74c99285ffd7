"""Core MAPF data model: graphs, instances, paths, solutions, validation.

Vertex ids are arbitrary hashable values: integers (row-major cell index)
for grid maps, strings in hand-built graphs. Ids within one graph must be
mutually orderable, and `Graph` rejects ids that are not. Their own order is
the one vertex order. `Graph` sorts each neighbour list and each vertex's
moves once, when it is built; diagram levels and out-edges, ties in the
space-time search and every clause emission follow the same order, so no
result depends on hash order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

Vertex = Hashable

PASSABLE_CHARS = frozenset(".GS")
BLOCKED_CHARS = frozenset("@OTW")


class ParseError(ValueError):
    """A map or scenario file could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class MapParseError(ParseError):
    pass


class ScenParseError(ParseError):
    pass


class InstanceError(ValueError):
    """A graph, instance, path or solution violates a structural invariant."""


@dataclass(frozen=True)
class GridMeta:
    """2D provenance of a graph parsed from a map file."""

    width: int
    height: int
    passable: tuple[tuple[bool, ...], ...]  # passable[y][x]

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_passable(self, x: int, y: int) -> bool:
        return self.in_bounds(x, y) and self.passable[y][x]

    def cell_id(self, x: int, y: int) -> int:
        return y * self.width + x


class Graph:
    """Undirected graph without self-loops, kept as adjacency in the ids' order.

    Per-vertex tables (neighbours in `adjacency`, moves in `move_table`, and
    the distance tables that `table` makes) are read as `table[v]` in either
    of two storages. A grid graph, one with `grid` metadata, keeps them in
    lists indexed by cell id, `width * height` long; every other graph keeps
    them in dicts keyed by id.
    """

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Sequence[Vertex]],
                 grid: GridMeta | None = None):
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self._vertex_set = vset = frozenset(self.vertices)
        if len(vset) != len(self.vertices):
            raise InstanceError("duplicate vertex ids")
        try:
            sorted(self.vertices)
        except TypeError:
            raise InstanceError("vertex ids are not mutually orderable") from None
        if grid is not None:
            size = grid.width * grid.height
            for v in self.vertices:
                if type(v) is not int or not 0 <= v < size:
                    raise InstanceError(f"vertex {v!r} is not a cell index below {size}")
        self.grid = grid
        adj: dict[Vertex, set[Vertex]] = {v: set() for v in self.vertices}
        for e in edges:
            u, v = e
            if u == v:
                raise InstanceError(f"self-loop edge at {u!r}")
            if u not in vset or v not in vset:
                raise InstanceError(f"edge ({u!r}, {v!r}) references an undeclared vertex")
            adj[u].add(v)
            adj[v].add(u)
        # vertex -> its neighbours, and vertex -> its moves (itself, a wait,
        # and its neighbours), in the ids' order; None at a grid's blocked
        # cells; read-only
        self.adjacency = self.table(None)
        self.move_table = self.table(None)
        for v in self.vertices:
            self.adjacency[v] = tuple(sorted(adj[v]))
            self.move_table[v] = tuple(sorted((v, *adj[v])))

    def table(self, fill: object) -> list | dict:
        """A per-vertex table in this graph's storage, `fill` at every entry.

        A grid's list also holds `fill` at its blocked cells.
        """
        if self.grid is None:
            return dict.fromkeys(self.vertices, fill)
        return [fill] * (self.grid.width * self.grid.height)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._vertex_set

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._vertex_set and v in self.adjacency[u]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def cell_vertex(self, x: int, y: int) -> Optional[int]:
        """Vertex id for a grid cell, or None if blocked/out of bounds."""
        if self.grid is None:
            raise InstanceError("graph has no grid metadata")
        if not self.grid.is_passable(x, y):
            return None
        return self.grid.cell_id(x, y)


@dataclass(frozen=True)
class Agent:
    id: Hashable
    start: Vertex
    goal: Vertex


@dataclass(frozen=True)
class AgentSpec:
    """One scenario line: start/goal cells and the map it names."""

    start_cell: tuple[int, int]
    goal_cell: tuple[int, int]
    map_name: str = ""


class MapfInstance:
    """A graph plus an ordered list of agents with distinct starts and goals."""

    def __init__(self, graph: Graph, agents: Iterable[Agent]):
        self.graph = graph
        self.agents: tuple[Agent, ...] = tuple(agents)
        starts = [a.start for a in self.agents]
        goals = [a.goal for a in self.agents]
        if len(set(starts)) != len(starts):
            raise InstanceError("duplicate start vertices")
        if len(set(goals)) != len(goals):
            raise InstanceError("duplicate goal vertices")
        for a in self.agents:
            if a.start not in graph or a.goal not in graph:
                raise InstanceError(f"agent {a.id!r} start/goal not in graph")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise InstanceError("duplicate agent ids")
        self._by_id = {a.id: i for i, a in enumerate(self.agents)}

    @property
    def k(self) -> int:
        return len(self.agents)

    def agent(self, agent_id: Hashable) -> Agent:
        return self.agents[self._by_id[agent_id]]

    def agent_index(self, agent_id: Hashable) -> int:
        return self._by_id[agent_id]


@dataclass(frozen=True)
class Path:
    """Per-agent vertex sequence indexed by timestep 0..length."""

    agent: Hashable
    positions: tuple[Vertex, ...]

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(self.positions))
        if not self.positions:
            raise InstanceError("empty path")

    @property
    def length(self) -> int:
        return len(self.positions) - 1

    def padded(self, horizon: int) -> "Path":
        """Extend with trailing waits at the final position up to `horizon`."""
        if self.length > horizon:
            raise InstanceError(f"path longer than horizon {horizon}")
        if self.length == horizon:
            return self
        pad = (self.positions[-1],) * (horizon - self.length)
        return Path(self.agent, self.positions + pad)

    def is_walk(self, graph: Graph) -> bool:
        return all(
            u == v or graph.has_edge(u, v)
            for u, v in zip(self.positions, self.positions[1:])
        )


def path_cost(path: Path, goal: Vertex) -> int:
    """Timesteps needed to settle at the goal.

    Trailing waits at the goal are free; leaving the goal re-incurs cost for
    every step up to the final arrival.
    """
    if path.positions[-1] != goal:
        raise InstanceError(f"path of agent {path.agent!r} does not end at its goal")
    last = -1
    for t, v in enumerate(path.positions):
        if v != goal:
            last = t
    return last + 1


@dataclass(frozen=True)
class Solution:
    """One path per agent, all padded to a common horizon."""

    paths: tuple[Path, ...]

    @property
    def horizon(self) -> int:
        return self.paths[0].length if self.paths else 0

    @classmethod
    def from_paths(cls, instance: MapfInstance, paths: Iterable[Path]) -> "Solution":
        by_id = {p.agent: p for p in paths}
        ordered = []
        for a in instance.agents:
            p = by_id.get(a.id)
            if p is None:
                raise InstanceError(f"missing path for agent {a.id!r}")
            if p.positions[0] != a.start:
                raise InstanceError(f"path of agent {a.id!r} does not begin at its start")
            if p.positions[-1] != a.goal:
                raise InstanceError(f"path of agent {a.id!r} does not end at its goal")
            if not p.is_walk(instance.graph):
                raise InstanceError(f"path of agent {a.id!r} takes a non-edge step")
            ordered.append(p)
        horizon = max((p.length for p in ordered), default=0)
        return cls(tuple(p.padded(horizon) for p in ordered))


def sum_of_costs(instance: MapfInstance, solution: Solution) -> int:
    return sum(
        path_cost(solution.paths[i], a.goal) for i, a in enumerate(instance.agents)
    )


@dataclass(frozen=True)
class Collision:
    """Two agents sharing a vertex, or swapping across an edge, at one timestep.

    For edge collisions `location` is the directed pair as traversed by the
    first agent of the pair (lower instance index).
    """

    kind: str  # "vertex" | "edge"
    agents: tuple[Hashable, Hashable]
    location: Vertex | tuple[Vertex, Vertex]
    t: int

    def entry(self, side: int) -> tuple:
        """What the agent `agents[side]` must avoid: `(vertex, t)`, or
        `(edge, t)` with the edge in the direction that agent traversed it."""
        if self.kind == "vertex" or side == 0:
            return (self.location, self.t)
        u, v = self.location
        return ((v, u), self.t)


def validate_solution(instance: MapfInstance, solution: Solution) -> list[Collision]:
    """All vertex and edge collisions, ordered by timestep, then the agents'
    instance indices, then vertex before edge."""
    paths = solution.paths
    if len({p.length for p in paths}) > 1:
        raise InstanceError("solution paths are not padded to a common horizon")
    out: list[Collision] = []
    for i, a in enumerate(paths):
        for b in paths[i + 1:]:
            out += _pair_collisions(a, b)
    out.sort(key=lambda c: collision_key(instance, c))
    return out


def child_collisions(instance: MapfInstance, parent: list[Collision],
                     paths: dict[Hashable, Path], replanned: Hashable) -> list[Collision]:
    """`validate_solution`'s list for `paths` (agent id -> path), where
    `parent` is that list before `replanned` got its current path.

    Only pairs with `replanned` can change. The parent's other collisions stay
    as they are even when the common horizon grows or shrinks: past their own
    lengths, agents wait at distinct goals and cannot collide with each other.
    """
    out = [c for c in parent if replanned not in c.agents]
    mine = paths[replanned]
    i = instance.agent_index(replanned)
    for j, agent in enumerate(instance.agents):
        if j != i:
            theirs = paths[agent.id]
            out += _pair_collisions(mine, theirs) if i < j else _pair_collisions(theirs, mine)
    out.sort(key=lambda c: collision_key(instance, c))
    return out


def _pair_collisions(a: Path, b: Path) -> list[Collision]:
    """Collisions of two paths in timestep order; each waits past its end.

    `a` is the lower-index agent's path, so an edge collision's location is
    `a`'s move. A pair collides at most once per timestep: a swap needs both
    agents to move, and then they are apart at that step.
    """
    pa, pb = a.positions, b.positions
    if len(pa) != len(pb):
        # the shorter one waits at its last position up to the pair's horizon
        n = max(len(pa), len(pb))
        pa = pa + pa[-1:] * (n - len(pa))
        pb = pb + pb[-1:] * (n - len(pb))
    pair = (a.agent, b.agent)
    last = len(pa) - 1
    out = []
    for t, u in enumerate(pa):
        w = pb[t]
        if u == w:
            out.append(Collision("vertex", pair, u, t))
        elif t < last and u == pb[t + 1] and pa[t + 1] == w:
            out.append(Collision("edge", pair, (u, w), t))
    return out


def collision_key(instance: MapfInstance, c: Collision) -> tuple[int, int, int, int]:
    """Sort key of `validate_solution`'s list: timestep, then the agents'
    instance indices, then vertex before edge."""
    i = instance.agent_index(c.agents[0])
    j = instance.agent_index(c.agents[1])
    return (c.t, i, j, 0 if c.kind == "vertex" else 1)


def parse_map(text: str) -> Graph:
    """Parse movingai map text into a 4-connected grid graph.

    Cells `.`, `G`, `S` are passable, `@`, `O`, `T`, `W` blocked; anything
    else is an error. Vertex ids are row-major cell indices.
    """
    lines = text.splitlines()

    def header(idx: int, name: str) -> str:
        if idx >= len(lines):
            raise MapParseError(f"missing `{name}` header line", line=idx + 1)
        return lines[idx].strip()

    if not header(0, "type").startswith("type"):
        raise MapParseError("expected `type` header", line=1)
    dims: dict[str, int] = {}
    for idx in (1, 2):
        parts = header(idx, "height/width").split()
        if len(parts) != 2 or parts[0] not in ("height", "width"):
            raise MapParseError("expected `height H` or `width W` header", line=idx + 1)
        try:
            dims[parts[0]] = int(parts[1])
        except ValueError:
            raise MapParseError(f"non-numeric {parts[0]}", line=idx + 1) from None
    if set(dims) != {"height", "width"}:
        raise MapParseError("header must declare both height and width", line=3)
    height, width = dims["height"], dims["width"]
    if height <= 0 or width <= 0:
        raise MapParseError("height and width must be positive", line=2)
    if header(3, "map") != "map":
        raise MapParseError("expected `map` header", line=4)

    rows = lines[4:]
    while rows and not rows[-1].strip():
        rows.pop()
    if len(rows) != height:
        raise MapParseError(f"expected {height} map rows, found {len(rows)}", line=5 + len(rows))
    passable = []
    for y, row in enumerate(rows):
        if len(row) != width:
            raise MapParseError(
                f"row has {len(row)} cells, expected {width}", line=5 + y
            )
        mask = []
        for x, ch in enumerate(row):
            if ch in PASSABLE_CHARS:
                mask.append(True)
            elif ch in BLOCKED_CHARS:
                mask.append(False)
            else:
                raise MapParseError(f"unknown cell char {ch!r}", line=5 + y, column=x + 1)
        passable.append(tuple(mask))

    grid = GridMeta(width, height, tuple(passable))
    vertices = [grid.cell_id(x, y) for y in range(height) for x in range(width) if passable[y][x]]
    edges = []
    for y in range(height):
        for x in range(width):
            if not passable[y][x]:
                continue
            if x + 1 < width and passable[y][x + 1]:
                edges.append((grid.cell_id(x, y), grid.cell_id(x + 1, y)))
            if y + 1 < height and passable[y + 1][x]:
                edges.append((grid.cell_id(x, y), grid.cell_id(x, y + 1)))
    return Graph(vertices, edges, grid=grid)


def parse_scen(text: str) -> list[AgentSpec]:
    """Parse movingai scenario text into ordered agent specs.

    Fields may be tab- or whitespace-separated. The per-line optimal length
    must be a number and is otherwise ignored.
    """
    lines = text.splitlines()
    if not lines:
        raise ScenParseError("empty scenario file", line=1)
    head = lines[0].split()
    if len(head) != 2 or head[0] != "version":
        raise ScenParseError("expected `version 1` header", line=1)
    try:
        version = float(head[1])
    except ValueError:
        raise ScenParseError(f"non-numeric version {head[1]!r}", line=1) from None
    if version != 1.0:
        raise ScenParseError(f"unsupported scenario version {head[1]}", line=1)

    specs: list[AgentSpec] = []
    for n, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = raw.split()
        if len(fields) != 9:
            raise ScenParseError(f"expected 9 fields, found {len(fields)}", line=n)
        try:
            sx, sy, gx, gy = (int(f) for f in fields[4:8])
        except ValueError:
            raise ScenParseError("non-numeric start/goal coordinates", line=n) from None
        try:
            float(fields[8])
        except ValueError:
            raise ScenParseError("non-numeric optimal length", line=n) from None
        specs.append(AgentSpec((sx, sy), (gx, gy), map_name=fields[1]))
    return specs


def build_instance(graph: Graph, specs: Sequence[AgentSpec], n: int) -> MapfInstance:
    """Instance over the first `n` specs; agent ids are 1..n."""
    if n < 1:
        raise InstanceError(f"agent count must be at least 1, got {n}")
    if n > len(specs):
        raise InstanceError(f"requested {n} agents but only {len(specs)} specs available")
    agents = []
    for i, spec in enumerate(specs[:n]):
        ends = []
        for role, cell in (("start", spec.start_cell), ("goal", spec.goal_cell)):
            v = graph.cell_vertex(*cell)
            if v is None:
                g = graph.grid
                where = "blocked" if g.in_bounds(*cell) else f"outside the {g.width}x{g.height} map"
                raise InstanceError(f"{role} cell {cell} of agent {i + 1} is {where}")
            ends.append(v)
        agents.append(Agent(i + 1, *ends))
    return MapfInstance(graph, agents)
