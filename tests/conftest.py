from __future__ import annotations

import random

import pytest

from mapfsat import UNREACHED, Agent, Graph, MapfInstance, Path, bfs_distances, parse_map


@pytest.fixture
def fix_a() -> MapfInstance:
    """Path graph v1-v2-v3; a1: v1 -> v3."""
    g = Graph(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3")])
    return MapfInstance(g, [Agent("a1", "v1", "v3")])


@pytest.fixture
def fix_b() -> MapfInstance:
    """4-cycle (2x2 grid); a1: v00 -> v11, a2: v11 -> v00."""
    g = Graph(
        ["v00", "v01", "v10", "v11"],
        [("v00", "v01"), ("v01", "v11"), ("v11", "v10"), ("v10", "v00")],
    )
    return MapfInstance(g, [Agent("a1", "v00", "v11"), Agent("a2", "v11", "v00")])


@pytest.fixture
def fix_c() -> MapfInstance:
    """Path v1-v2-v3-v4 plus spur v5 off v2; a1: v1 -> v4, a2: v4 -> v1."""
    g = Graph(
        ["v1", "v2", "v3", "v4", "v5"],
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v2", "v5")],
    )
    return MapfInstance(g, [Agent("a1", "v1", "v4"), Agent("a2", "v4", "v1")])


@pytest.fixture
def fix_d_paths() -> list[Path]:
    """The two candidate paths of the sparse-diagram worked example."""
    return [
        Path("ax", ("v1", "v2", "v3", "v4", "v5")),
        Path("ax", ("v1", "v6", "v3", "v7", "v5")),
    ]


@pytest.fixture
def fix_d_graph() -> Graph:
    return Graph(
        ["v1", "v2", "v3", "v4", "v5", "v6", "v7"],
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"),
         ("v1", "v6"), ("v6", "v3"), ("v3", "v7"), ("v7", "v5")],
    )


def contains_path(mdd, path: Path) -> bool:
    """True when the goal-padded path is a directed walk of the diagram that
    stands on the goal at every step of the path past the diagram's end (a
    solution pads its paths to the latest arrival of all agents)."""
    pos = path.padded(max(mdd.horizon, path.length)).positions
    return (all(v == mdd.goal for v in pos[mdd.horizon:])
            and all(pos[t + 1] in mdd.outgoing(pos[t], t) for t in range(mdd.horizon)))


def random_grid_instance(rng: random.Random, max_side: int = 4,
                         max_obstacle_share: float = 0.3,
                         agents: tuple[int, int] = (2, 3)) -> MapfInstance:
    """Random connected grid instance with distinct starts and goals."""
    while True:
        w, h = rng.randint(2, max_side), rng.randint(2, max_side)
        cells = [(x, y) for x in range(w) for y in range(h)]
        blocked = set(rng.sample(cells, int(len(cells) * rng.uniform(0, max_obstacle_share))))
        rows = [
            "".join("@" if (x, y) in blocked else "." for x in range(w))
            for y in range(h)
        ]
        graph = parse_map("\n".join(["type octile", f"height {h}", f"width {w}", "map", *rows]))
        if graph.vertex_count < 4:
            continue
        dist = bfs_distances(graph, graph.vertices[0])
        if any(dist[v] == UNREACHED for v in graph.vertices):
            continue
        k = rng.randint(*agents)
        if graph.vertex_count < 2 * k:
            continue
        starts = rng.sample(list(graph.vertices), k)
        goals = rng.sample(list(graph.vertices), k)
        return MapfInstance(
            graph,
            [Agent(i + 1, s, g) for i, (s, g) in enumerate(zip(starts, goals))],
        )


def scrambled_grid_instance():
    """3x3 grid whose declaration order and BFS order both differ from the
    ids' sorted order, with three agents crossing it."""
    names = ["q", "b", "m", "z", "a", "k", "c", "y", "p"]  # row-major cells
    edges = [(names[i], names[i + 1]) for i in range(9) if i % 3 < 2]
    edges += [(names[i], names[i + 3]) for i in range(6)]
    g = Graph(list(reversed(names)), edges)
    agents = [Agent("a1", "q", "p"), Agent("a2", "p", "q"), Agent("a3", "m", "c")]
    return MapfInstance(g, agents)
