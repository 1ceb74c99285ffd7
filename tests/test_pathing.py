from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mapfsat import (
    UNREACHED,
    Agent,
    AgentConflicts,
    Distances,
    Graph,
    MapfInstance,
    Path,
    bfs_distances,
    build_smdd,
    constrained_shortest_path,
    new_and_path,
    new_or_paths,
    parse_map,
    path_cost,
    shortest_path,
)
from mapfsat import pathing
from conftest import random_grid_instance
from oracle import avoiding_walks, reference_distances, walk_cost


def vconf(*entries) -> AgentConflicts:
    return AgentConflicts(frozenset(entries), frozenset())


def open_grid(width, height):
    """Obstacle-free grid; cell (x, y) is vertex y * width + x."""
    rows = ["." * width] * height
    return parse_map("\n".join(["type octile", f"height {height}", f"width {width}", "map",
                                *rows]))


@st.composite
def split_grids(draw):
    """Map rows with a wall column between two random halves, and one passable
    cell walled in on all four sides (a vertex with no neighbours)."""
    w, h = draw(st.integers(3, 7)), draw(st.integers(1, 5))
    open_cells = draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h))
    wall = draw(st.integers(1, w - 2))
    lone = (draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)))
    walled = {(lone[0] + dx, lone[1] + dy) for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))}
    cells = [[open_cells[y * w + x] and x != wall and (x, y) not in walled
              for x in range(w)] for y in range(h)]
    cells[lone[1]][lone[0]] = True
    return w, h, cells


class CountingHeapq:
    """Stands in for `pathing.heapq` and counts the search's heap pops."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.pops = 0

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


def counter_search(instance, agent_id, avoid, horizon, cost_bound):
    """The space-time search without the push-once rule: a state is pushed
    from every predecessor, copies are dropped when popped, and a push
    counter breaks ties among equal (f, -t, vertex), so that the deeper state
    goes first among equal f."""
    graph = instance.graph
    agent = instance.agent(agent_id)
    start, goal = agent.start, agent.goal
    dist_goal = bfs_distances(graph, goal)
    if dist_goal[start] == UNREACHED:
        return None

    def h(v):
        return 0 if v == goal else dist_goal[v] - 1

    last_goal_conflict = max(
        (s for (v, s) in avoid.vertex if v == goal and s <= horizon), default=-1
    )
    earliest_stop = last_goal_conflict
    if (start, 0) in avoid.vertex:
        return None
    g0 = 0 if start == goal else 1
    counter = itertools.count()
    root = (start, 0, None)
    heap = [(g0 + h(start), 0, start, next(counter), g0, root)]
    settled = set()
    while heap:
        f, _, _, _, g, node = heapq.heappop(heap)
        v, t = node[0], node[1]
        key = (v, t)
        if key in settled:
            continue
        settled.add(key)
        if v == goal and t >= earliest_stop:
            positions = []
            cur = node
            while cur is not None:
                positions.append(cur[0])
                cur = cur[2]
            return Path(agent_id, tuple(reversed(positions)))
        if t == horizon:
            continue
        for w in graph.move_table[v]:
            if (w, t + 1) in avoid.vertex:
                continue
            if w != v and ((v, w), t) in avoid.edge:
                continue
            dg = dist_goal[w]
            if dg == UNREACHED or t + 1 + dg > horizon:
                continue
            g2 = g if w == goal else t + 2
            f2 = g2 + h(w)
            if f2 > cost_bound:
                continue
            if (w, t + 1) in settled:
                continue
            heapq.heappush(
                heap, (f2, -(t + 1), w, next(counter), g2, (w, t + 1, node))
            )
    return None


class TestBfsDistances:
    def test_path_graph(self, fix_a):
        d = bfs_distances(fix_a.graph, "v1")
        assert d == {"v1": 0, "v2": 1, "v3": 2}

    def test_cycle(self, fix_b):
        d = bfs_distances(fix_b.graph, "v00")
        assert d == {"v00": 0, "v01": 1, "v10": 1, "v11": 2}

    def test_disconnected_vertex_is_unreached(self):
        g = Graph(["a", "b", "c"], [("a", "b")])
        d = bfs_distances(g, "a")
        assert d["c"] == UNREACHED

    @settings(max_examples=150, deadline=None)
    @given(split_grids())
    def test_grid_tables_match_a_reference_bfs(self, grid):
        w, h, cells = grid
        rows = ["".join("." if c else "@" for c in row) for row in cells]
        graph = parse_map("\n".join(["type octile", f"height {h}", f"width {w}", "map", *rows]))
        passable = [y * w + x for y in range(h) for x in range(w) if cells[y][x]]
        assume(len(passable) >= 2)
        edges = [(v, v + 1) for v in passable if v % w + 1 < w and cells[v // w][v % w + 1]]
        edges += [(v, v + w) for v in passable if v // w + 1 < h and cells[v // w + 1][v % w]]
        assert list(graph.vertices) == passable
        lone = [v for v in passable if not graph.adjacency[v]]
        assert lone
        components = 0
        for source in passable:
            want = reference_distances(passable, edges, source)
            components += source == min(want)
            got = bfs_distances(graph, source)
            assert type(got) is list and len(got) == w * h
            for v in range(w * h):
                assert got[v] == want.get(v, UNREACHED)
        assert components >= 2

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_id_tables_match_a_reference_bfs(self, n, data):
        names = [f"v{i}" for i in range(n)]
        pairs = list(itertools.combinations(names, 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        graph = Graph(names, edges)
        for source in names:
            want = reference_distances(names, edges, source)
            got = bfs_distances(graph, source)
            assert type(got) is dict
            assert got == {v: want.get(v, UNREACHED) for v in names}

    def test_int_ids_far_apart_keep_dict_tables(self):
        far = 10**12
        graph = Graph([0, far, 7], [(0, far)])
        assert type(graph.adjacency) is dict
        assert bfs_distances(graph, 0) == {0: 0, far: 1, 7: UNREACHED}
        assert bfs_distances(graph, 7) == {0: UNREACHED, far: UNREACHED, 7: 0}

    def test_adjacent_vertices_differ_by_at_most_one(self, fix_c):
        d = bfs_distances(fix_c.graph, "v1")
        graph = fix_c.graph
        for u in graph.vertices:
            for v in graph.adjacency[u]:
                assert abs(d[u] - d[v]) <= 1


class TestConstrainedShortestPath:
    def test_unique_avoiding_path(self, fix_a):
        p = constrained_shortest_path(fix_a, "a1", vconf(("v2", 1)), 3, Distances(fix_a.graph))
        assert p.positions == ("v1", "v1", "v2", "v3")

    def test_blocked_on_both_steps(self, fix_a):
        p = constrained_shortest_path(fix_a, "a1", vconf(("v2", 1), ("v2", 2)), 3,
                                      Distances(fix_a.graph))
        assert p is None

    def test_plain_shortest(self, fix_a):
        p = constrained_shortest_path(fix_a, "a1", AgentConflicts(), 2, Distances(fix_a.graph))
        assert p.positions == ("v1", "v2", "v3")

    def test_edge_conflict_forces_detour(self, fix_b):
        avoid = AgentConflicts(frozenset(), frozenset({(("v00", "v01"), 0)}))
        p = constrained_shortest_path(fix_b, "a1", avoid, 2, Distances(fix_b.graph))
        assert p.positions == ("v00", "v10", "v11")

    def test_goal_conflict_after_arrival_forces_detour_or_wait(self, fix_a):
        # settling at the goal would hit (v3, 3): the agent must arrive late
        p = constrained_shortest_path(fix_a, "a1", vconf(("v3", 3)), 4, Distances(fix_a.graph))
        assert p is not None
        padded = p.padded(4).positions
        assert padded[3] != "v3"
        assert padded[-1] == "v3"

    def test_goal_conflict_past_the_horizon_leaves_no_path(self, fix_a):
        # v1 v2 v3 fits the bound, but the agent then waits on (v3, 5)
        avoid = vconf(("v3", 5))
        distances = Distances(fix_a.graph)
        assert constrained_shortest_path(fix_a, "a1", avoid, 3, distances) is None
        p = constrained_shortest_path(fix_a, "a1", avoid, 6, distances)
        assert p.length == 6 and p.positions[5] != "v3"

    def test_cost_equals_bfs_distance_without_conflicts(self):
        rng = random.Random(31)
        for _ in range(30):
            inst = random_grid_instance(rng)
            for a in inst.agents:
                want = bfs_distances(inst.graph, a.start)[a.goal]
                p = constrained_shortest_path(
                    inst, a.id, AgentConflicts(), want, Distances(inst.graph)
                )
                assert path_cost(p, a.goal) == want

    def test_determinism(self, fix_b):
        avoid = vconf(("v01", 1))
        first = constrained_shortest_path(fix_b, "a1", avoid, 4, Distances(fix_b.graph))
        for _ in range(5):
            again = constrained_shortest_path(fix_b, "a1", avoid, 4, Distances(fix_b.graph))
            assert again.positions == first.positions

    def test_respects_bounds_and_conflicts(self):
        rng = random.Random(77)
        for _ in range(60):
            inst = random_grid_instance(rng)
            agent = inst.agents[0]
            verts = list(inst.graph.vertices)
            horizon = rng.randint(2, 7)
            bound = rng.randint(1, horizon)
            avoid = AgentConflicts(
                frozenset(
                    (rng.choice(verts), rng.randint(0, horizon))
                    for _ in range(rng.randint(0, 4))
                ),
                frozenset(),
            )
            p = constrained_shortest_path(inst, agent.id, avoid, bound, Distances(inst.graph))
            if p is None:
                continue
            assert p.length <= horizon
            assert path_cost(p, agent.goal) <= bound
            assert p.is_walk(inst.graph)
            assert p.positions[0] == agent.start
            padded = p.padded(horizon).positions
            for t, v in enumerate(padded):
                assert (v, t) not in avoid.vertex

    def test_ties_go_to_the_deeper_state(self):
        # cells 0 1 2 / 3 4 5; (0, 0, 1, 4) and (0, 3, 3, 4) both cost 3. After
        # 3 at step 1, the f = 3 states are 0 at step 1 and 3 at step 2: the
        # search expands the deeper one, and so waits at 3 rather than at 0
        graph = open_grid(3, 2)
        inst = MapfInstance(graph, [Agent(1, 0, 4)])
        p = constrained_shortest_path(inst, 1, vconf((1, 1), (4, 2)), 3, Distances(graph))
        assert p.positions == (0, 3, 3, 4)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_counter_search(self, data):
        inst = random_grid_instance(random.Random(data.draw(st.integers(0, 2**32))),
                                    max_side=5)
        graph = inst.graph
        agent = data.draw(st.sampled_from(inst.agents))
        xi = bfs_distances(graph, agent.goal)[agent.start]
        horizon = data.draw(st.integers(xi, xi + 6))
        cost_bound = data.draw(st.integers(max(xi - 1, 0), horizon + 1))
        times = st.integers(0, horizon)
        vertex = data.draw(st.frozensets(st.tuples(st.sampled_from(graph.vertices), times),
                                         max_size=10))
        # goal conflicts after the earliest arrival force leaving and returning
        after_arrival = data.draw(st.frozensets(
            st.tuples(st.just(agent.goal), st.integers(xi, horizon)), max_size=3))
        steps = [(u, w) for u in graph.vertices for w in graph.adjacency[u]]
        edge = data.draw(st.frozensets(st.tuples(st.sampled_from(steps), times), max_size=10))
        avoid = AgentConflicts(vertex | after_arrival, edge)
        got = constrained_shortest_path(inst, agent.id, avoid, min(horizon, cost_bound),
                                        Distances(graph))
        assert got == counter_search(inst, agent.id, avoid, horizon, cost_bound)
        # a found path ends at its final arrival: its length is its cost
        assert got is None or got.length == path_cost(got, agent.goal)

    def test_matches_counter_search_on_tie_plateaus(self):
        # Two vertex entries on a shortest path, with the horizon above the
        # distance: every wait or detour around them starts a plateau of
        # equal-f states, and the pop order within it decides the path.
        rng = random.Random(53)
        plateaus = 0
        for _ in range(400):
            inst = random_grid_instance(rng, max_side=6, max_obstacle_share=0.2)
            agent = rng.choice(inst.agents)
            xi = bfs_distances(inst.graph, agent.goal)[agent.start]
            if xi < 3:
                continue
            free = counter_search(inst, agent.id, AgentConflicts(), xi, xi).positions
            k1, k2 = sorted(rng.sample(range(1, xi), 2))
            horizon = xi + rng.randint(1, 3)
            avoid = vconf((free[k1], k1), (free[k2], k2))
            assert (constrained_shortest_path(inst, agent.id, avoid, horizon, Distances(inst.graph))
                    == counter_search(inst, agent.id, avoid, horizon, horizon))
            plateaus += 1
        assert plateaus >= 150


class TestTargetEntries:
    """CBS's target entries: a floor and a cap on the agent's cost, and cells
    held from a step on."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_walk_enumeration(self, data):
        inst = random_grid_instance(random.Random(data.draw(st.integers(0, 2**32))),
                                    max_side=3)
        graph = inst.graph
        agent = data.draw(st.sampled_from(inst.agents))
        xi = bfs_distances(graph, agent.goal)[agent.start]
        horizon = data.draw(st.integers(xi, xi + 4))
        cost_bound = data.draw(st.integers(max(xi - 1, 0), horizon + 1))
        # counter_search reads no vertex entry past the horizon
        times = st.integers(0, horizon)
        cells = st.sampled_from(graph.vertices)
        vertex = data.draw(st.frozensets(st.tuples(cells, times), max_size=6))
        steps = [(u, w) for u in graph.vertices for w in graph.adjacency[u]]
        edge = data.draw(st.frozensets(st.tuples(st.sampled_from(steps), times), max_size=6))
        floor = data.draw(st.one_of(st.just(0), st.integers(1, horizon + 1)))
        cap = data.draw(st.one_of(st.none(), st.integers(0, horizon + 1)))
        held = data.draw(st.frozensets(st.tuples(cells, st.integers(0, horizon + 1)),
                                       max_size=3))
        avoid = AgentConflicts(vertex, edge, floor, cap, held)
        got = constrained_shortest_path(inst, agent.id, avoid, min(horizon, cost_bound),
                                        Distances(graph))
        costs = {walk: walk_cost(walk, agent.goal)
                 for walk in avoiding_walks(inst, agent.id, avoid, horizon)}
        costs = {walk: c for walk, c in costs.items() if c <= cost_bound}
        if not costs:
            assert got is None
        else:
            assert got is not None and got.length == path_cost(got, agent.goal)
            assert costs.get(got.padded(horizon).positions) == min(costs.values())
        if (floor, cap, held) == (0, None, frozenset()):
            assert got == counter_search(inst, agent.id, avoid, horizon, cost_bound)

    def test_an_early_arrival_does_not_end_the_search_nor_block_a_later_one(self):
        # cells 0 1 2; the agent goes 0 -> 1 and must arrive at step 2 or
        # later. Arriving at step 1 and waiting also reaches (1, 2), with an
        # earlier arrival; it must neither end the search nor keep out the
        # real arrival at (1, 2) through (0, 1).
        graph = open_grid(3, 1)
        inst = MapfInstance(graph, [Agent(1, 0, 1)])
        p = constrained_shortest_path(inst, 1, AgentConflicts(floor=2), 4, Distances(graph))
        assert p.positions == (0, 0, 1)

    def test_a_floor_sends_an_agent_on_its_goal_away_and_back(self):
        graph = open_grid(3, 1)
        inst = MapfInstance(graph, [Agent(1, 1, 1)])
        distances = Distances(graph)
        for floor in (1, 2):
            p = constrained_shortest_path(inst, 1, AgentConflicts(floor=floor), 4,
                                          distances)
            assert path_cost(p, 1) == 2 and p.positions[1] != 1
        p = constrained_shortest_path(inst, 1, AgentConflicts(floor=3), 4, distances)
        assert path_cost(p, 1) == 3
        assert constrained_shortest_path(inst, 1, AgentConflicts(floor=3), 2,
                                         distances) is None
        assert constrained_shortest_path(inst, 1, AgentConflicts(floor=5), 4,
                                         distances) is None
        # on goal 0, the lowest id, waits there come first among equal f and
        # equal steps: waiting up to the floor must not count as arriving
        inst = MapfInstance(graph, [Agent(1, 0, 0)])
        p = constrained_shortest_path(inst, 1, AgentConflicts(floor=4), 6, distances)
        assert path_cost(p, 0) == 4

    def test_cap_and_held_cells(self):
        # cells 0 1 2 / 3 4 5; 0 -> 2 costs 2 along the top row
        graph = open_grid(3, 2)
        inst = MapfInstance(graph, [Agent(1, 0, 2)])
        distances = Distances(graph)
        wait = vconf((1, 1))
        assert path_cost(constrained_shortest_path(inst, 1, wait, 5, distances), 2) == 3
        assert constrained_shortest_path(inst, 1, replace(wait, cap=2), 5,
                                         distances) is None
        # 1 held from step 1 on: the agent passes below it
        p = constrained_shortest_path(inst, 1, AgentConflicts(held=frozenset({(1, 1)})), 5,
                                      distances)
        assert p.positions == (0, 3, 4, 5, 2)
        # held from step 2 on: it may cross at step 1
        p = constrained_shortest_path(inst, 1, AgentConflicts(held=frozenset({(1, 2)})), 5,
                                      distances)
        assert p.positions == (0, 1, 2)
        held_goal = AgentConflicts(held=frozenset({(2, 4)}))
        assert constrained_shortest_path(inst, 1, held_goal, 5, distances) is None


class TestSearchEffort:
    """Among equal-f states the search dives to the goal, so on an open grid
    it pops little beyond the path it returns."""

    PAIRS = [(0, 35), (35, 0), (5, 30), (7, 22), (12, 17), (14, 14)]

    @pytest.fixture
    def counter(self, monkeypatch):
        counting = CountingHeapq()
        monkeypatch.setattr(pathing, "heapq", counting)
        return counting

    @pytest.mark.parametrize("start, goal", PAIRS)
    def test_unconstrained_pops_only_the_path(self, counter, start, goal):
        graph = open_grid(6, 6)
        inst = MapfInstance(graph, [Agent(1, start, goal)])
        p = shortest_path(inst, 1, Distances(graph))
        assert counter.pops <= p.length + 1

    @pytest.mark.parametrize("start, goal", [pair for pair in PAIRS if pair[0] != pair[1]])
    def test_one_entry_on_the_path_pops_at_most_one_state_more(self, counter, start, goal):
        graph = open_grid(6, 6)
        inst = MapfInstance(graph, [Agent(1, start, goal)])
        distances = Distances(graph)
        free = shortest_path(inst, 1, distances)
        k = free.length // 2
        horizon = free.length + 2
        counter.pops = 0
        p = constrained_shortest_path(inst, 1, vconf((free.positions[k], k)), horizon,
                                      distances)
        assert p.positions[k] != free.positions[k]
        assert counter.pops <= p.length + 2


class TestNewAndPath:
    @staticmethod
    def shortest_diagram(instance, bound):
        """The sparse diagram of a1's candidate set {its shortest path} at `bound`."""
        return build_smdd("a1", [shortest_path(instance, "a1", Distances(instance.graph))],
                          bound)

    def test_single_conflict(self, fix_a):
        [p] = new_and_path(fix_a, "a1", self.shortest_diagram(fix_a, 3), vconf(("v2", 1)),
                           Distances(fix_a.graph))
        assert p.positions == ("v1", "v1", "v2", "v3")

    def test_unavoidable_pair_gives_empty(self, fix_a):
        conf = vconf(("v2", 1), ("v2", 2))
        assert new_and_path(fix_a, "a1", self.shortest_diagram(fix_a, 3), conf,
                            Distances(fix_a.graph)) == []

    def test_vacuous_avoidance_is_the_shortest_path(self, fix_a):
        waits_first = build_smdd("a1", [Path("a1", ("v1", "v1", "v2", "v3"))], 3)
        [p] = new_and_path(fix_a, "a1", waits_first, AgentConflicts(),
                           Distances(fix_a.graph))
        assert p.positions == shortest_path(fix_a, "a1", Distances(fix_a.graph)).positions

    def test_path_already_represented_gives_empty(self, fix_a):
        assert (
            new_and_path(fix_a, "a1", self.shortest_diagram(fix_a, 2), AgentConflicts(),
                         Distances(fix_a.graph)) == []
        )

    def test_path_combined_from_candidate_steps_gives_empty(self, fix_d_graph, fix_d_paths):
        # the only cost-4 path off v6 at 1 and v4 at 3 is v1 v2 v3 v7 v5: no
        # candidate, but every step of it is one of the sparse diagram's moves
        inst = MapfInstance(fix_d_graph, [Agent("ax", "v1", "v5")])
        conf = vconf(("v6", 1), ("v4", 3))
        found = constrained_shortest_path(inst, "ax", conf, 4, Distances(fix_d_graph))
        assert found.positions == ("v1", "v2", "v3", "v7", "v5")
        assert new_and_path(inst, "ax", build_smdd("ax", fix_d_paths, 4), conf,
                            Distances(fix_d_graph)) == []

    def test_avoids_every_conflict(self, fix_c):
        conf = AgentConflicts(
            frozenset({("v2", 1), ("v3", 2)}),
            frozenset({(("v1", "v2"), 0)}),
        )
        [p] = new_and_path(fix_c, "a1", self.shortest_diagram(fix_c, 7), conf,
                           Distances(fix_c.graph))
        padded = p.padded(7).positions
        assert all((v, t) not in conf.vertex for t, v in enumerate(padded))
        assert all(
            ((padded[t], padded[t + 1]), t) not in conf.edge for t in range(7)
        )


class TestNewOrPaths:
    @staticmethod
    def dawdling_diagram():
        """a1's sparse diagram at bound 4 over v1 v2 v2 v3, which represents
        none of the paths expected below."""
        return build_smdd("a1", [Path("a1", ("v1", "v2", "v2", "v3"))], 4)

    def test_every_subset_forces_a_unique_avoider(self, fix_a):
        conf = vconf(("v2", 1), ("v2", 2))
        got = [p.positions for p in new_or_paths(fix_a, "a1", self.dawdling_diagram(), conf,
                                                 Distances(fix_a.graph))]
        assert got == [
            ("v1", "v1", "v2", "v3"),
            ("v1", "v2", "v3"),
            ("v1", "v1", "v1", "v2", "v3"),
        ]

    def test_no_conflicts_no_paths(self, fix_a):
        assert new_or_paths(fix_a, "a1", self.dawdling_diagram(), AgentConflicts(),
                            Distances(fix_a.graph)) == []

    def test_single_conflict_yields_at_most_one(self, fix_a):
        got = new_or_paths(fix_a, "a1", self.dawdling_diagram(), vconf(("v2", 1)),
                           Distances(fix_a.graph))
        assert len(got) <= 1

    def test_subset_cap_limits_enumeration(self, fix_a, monkeypatch):
        monkeypatch.setattr(pathing, "OR_SUBSET_LIMIT", 2)
        conf = vconf(("v2", 1), ("v2", 2))
        capped = new_or_paths(fix_a, "a1", self.dawdling_diagram(), conf,
                              Distances(fix_a.graph))
        assert [p.positions for p in capped] == [
            ("v1", "v1", "v2", "v3"),
            ("v1", "v2", "v3"),
        ]

    def test_returned_paths_respect_bounds(self, fix_b):
        conf = vconf(("v01", 1), ("v10", 1))
        mdd = build_smdd("a1", [Path("a1", ("v00", "v01", "v11"))], 4)
        for p in new_or_paths(fix_b, "a1", mdd, conf, Distances(fix_b.graph)):
            assert p.length <= mdd.horizon
            assert path_cost(p, "v11") <= mdd.horizon
            assert p.is_walk(fix_b.graph)

    def test_paths_the_diagram_represents_give_empty(self, fix_d_graph, fix_d_paths):
        # every subset of v6 at 1 and v4 at 3 is avoided by a candidate or by
        # their combination v1 v2 v3 v7 v5, which the diagram represents
        inst = MapfInstance(fix_d_graph, [Agent("ax", "v1", "v5")])
        conf = vconf(("v6", 1), ("v4", 3))
        assert new_or_paths(inst, "ax", build_smdd("ax", fix_d_paths, 4), conf,
                            Distances(fix_d_graph)) == []
