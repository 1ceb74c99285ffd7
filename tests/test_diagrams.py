from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfsat import (
    UNREACHED,
    Agent,
    AgentConflicts,
    Graph,
    InfeasibleAgentError,
    Distances,
    MapfInstance,
    Path,
    bfs_distances,
    build_mdd,
    build_smdd,
)
from mapfsat.diagrams import EmptyDiagramError, goal_bans, walk_levels
from conftest import contains_path, random_grid_instance, scrambled_grid_instance
from oracle import diagram_walks


def enumerate_expansions(graph, start, goal, bound):
    """All walks of `bound` steps ending at the goal, so of cost <= bound.

    Equals the union of goal-padded paths within the bound; serves as the
    independent ground truth for full-diagram construction.
    """
    done = []
    stack = [(start,)]
    while stack:
        walk = stack.pop()
        if len(walk) == bound + 1:
            if walk[-1] == goal:
                done.append(walk)
            continue
        for w in (walk[-1], *graph.adjacency[walk[-1]]):
            stack.append(walk + (w,))
    return done


def diagram_edges(mdd):
    """(t, u, v) triples read off the out-edge lists of the level nodes."""
    edges = {(t, u, v) for t in range(mdd.horizon) for u in mdd.levels[t]
             for v in mdd.outgoing(u, t)}
    assert len(edges) == mdd.edge_count  # no out-edge leaves a node off its level
    return edges


def expansion_nodes_edges(walks):
    nodes = {(t, v) for walk in walks for t, v in enumerate(walk)}
    edges = {(t, walk[t], walk[t + 1]) for walk in walks for t in range(len(walk) - 1)}
    return nodes, edges


class TestBuildMdd:
    def test_unique_shortest_path(self, fix_a):
        mdd = build_mdd(fix_a, "a1", 2, Distances(fix_a.graph))
        assert mdd.node_count == 3
        assert mdd.edge_count == 2
        assert mdd.levels == (("v1",), ("v2",), ("v3",))

    def test_one_unit_of_slack(self, fix_a):
        mdd = build_mdd(fix_a, "a1", 3, Distances(fix_a.graph))
        got = {(t, v) for t, level in enumerate(mdd.levels) for v in level}
        assert got == {(0, "v1"), (1, "v1"), (1, "v2"), (2, "v2"), (2, "v3"), (3, "v3")}

    def test_start_equals_goal(self):
        g = Graph(["a", "b"], [("a", "b")])
        inst = MapfInstance(g, [Agent(1, "a", "a")])
        mdd = build_mdd(inst, 1, 0, Distances(g))
        assert mdd.node_count == 1
        assert mdd.edge_count == 0

    def test_goal_unreachable(self):
        g = Graph(["a", "b", "c"], [("a", "b")])
        inst = MapfInstance(g, [Agent(1, "a", "c")])
        with pytest.raises(InfeasibleAgentError):
            build_mdd(inst, 1, 4, Distances(g))

    def test_bound_below_shortest_cost(self, fix_a):
        # the goal is reachable, so this is no InfeasibleAgentError
        with pytest.raises(ValueError, match="below shortest-path cost") as err:
            build_mdd(fix_a, "a1", 1, Distances(fix_a.graph))
        assert type(err.value) is ValueError

    def test_matches_brute_force_expansion(self):
        # the enumeration stops at 6 steps: a larger bound is checked at 6
        rng = random.Random(13)
        checked = 0
        while checked < 25:
            inst = random_grid_instance(rng)
            if inst.graph.vertex_count > 8:
                continue
            agent = inst.agents[0]
            distances = Distances(inst.graph)
            xi = bfs_distances(inst.graph, agent.start)[agent.goal]
            for bound in sorted({min(xi + slack, 6) for slack in (0, 1, 2)}):
                if bound < xi:
                    continue
                mdd = build_mdd(inst, agent.id, bound, distances)
                walks = enumerate_expansions(inst.graph, agent.start, agent.goal, bound)
                nodes, edges = expansion_nodes_edges(walks)
                got_nodes = {(t, v) for t, lvl in enumerate(mdd.levels) for v in lvl}
                assert got_nodes == nodes
                assert diagram_edges(mdd) == edges
            checked += 1

    def test_matches_interval_construction(self):
        # the forward sweep against the definition it replaced: v sits on
        # levels dist(start, v) .. bound - dist(v, goal), the goal on every
        # level from its arrival on, and each out-edge list is the moves of
        # the node that land on the next level
        def interval_mdd(graph, start, goal, bound):
            dist_start = bfs_distances(graph, start)
            dist_goal = bfs_distances(graph, goal)
            members = [set() for _ in range(bound + 1)]
            for v in graph.vertices:
                ds = dist_start[v]
                if ds == UNREACHED:
                    continue
                for t in range(ds, bound - dist_goal[v] + 1):
                    members[t].add(v)
            levels = tuple(tuple(sorted(level)) for level in members)
            out = {(t, u): tuple(w for w in graph.move_table[u] if w in members[t + 1])
                   for t in range(bound) for u in levels[t]}
            return levels, out

        rng = random.Random(29)
        checked = 0
        while checked < 40:
            inst = random_grid_instance(rng, max_side=7)
            if inst.graph.vertex_count <= 8:
                continue
            distances = Distances(inst.graph)
            for agent in inst.agents:
                xi = bfs_distances(inst.graph, agent.goal)[agent.start]
                for slack in range(4):
                    bound = xi + slack
                    mdd = build_mdd(inst, agent.id, bound, distances)
                    levels, out = interval_mdd(inst.graph, agent.start, agent.goal, bound)
                    assert mdd.levels == levels
                    assert {(t, u): mdd.outgoing(u, t) for t, u in out} == out
                    assert mdd.edge_count == sum(map(len, out.values()))
            checked += 1


class TestWalkLevels:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_enumerated_walks(self, data):
        inst = random_grid_instance(random.Random(data.draw(st.integers(0, 2**32))),
                                    max_side=5)
        graph = inst.graph
        agent = data.draw(st.sampled_from(inst.agents))
        goal = agent.goal
        dist = bfs_distances(graph, goal)
        xi = dist[agent.start]
        bound = data.draw(st.integers(max(xi - 1, 0), xi + 3))
        times = st.integers(0, bound)
        vertex = data.draw(st.frozensets(st.tuples(st.sampled_from(graph.vertices), times),
                                         max_size=6))
        pairs = [(u, w) for u in graph.vertices for w in graph.adjacency[u]]
        edge = data.draw(st.frozensets(st.tuples(st.sampled_from(pairs), times), max_size=6))

        # every walk of `bound` steps from the start that keeps clear of the
        # entries and stands on the goal at the end: at t it is at least
        # dist(v, goal) steps from there. A walk that can no longer meet
        # this is cut short, which drops no such walk.
        nodes = [set() for _ in range(bound + 1)]
        moves = set()

        def extend(walk):
            t, v = len(walk) - 1, walk[-1]
            if (v, t) in vertex or t + dist[v] > bound:
                return
            if t == bound:
                for i, u in enumerate(walk):
                    nodes[i].add(u)
                moves.update((i, walk[i], walk[i + 1]) for i in range(bound))
                return
            for w in graph.move_table[v]:
                if w == v or ((v, w), t) not in edge:
                    extend(walk + [w])

        extend([agent.start])
        levels, out = walk_levels(inst, agent.id, bound, Distances(graph),
                                  AgentConflicts(vertex, edge))
        # each level is the vertex set the walks occupy there, in the ids' order,
        # and each of its nodes below the bound lists the walks' moves out of it
        assert levels == tuple(tuple(sorted(level)) for level in nodes)
        assert set(out) == {(t, u) for t in range(bound) for u in levels[t]}
        assert {(t, u, w) for (t, u), heads in out.items() for w in heads} == moves
        if not nodes[0]:
            # no walk remains: every level is empty, and there are no out-edges
            assert levels == ((),) * (bound + 1)
            assert out == {}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_goal_bans_keep_exactly_the_walks_clear_of_them(self, data):
        inst = random_grid_instance(random.Random(data.draw(st.integers(0, 2**32))),
                                    max_side=5)
        graph = inst.graph
        agent = data.draw(st.sampled_from(inst.agents))
        goal = agent.goal
        distances = Distances(graph)
        xi = distances.dist(goal)[agent.start]
        bound = data.draw(st.integers(xi, xi + 3))
        cells = st.sampled_from(graph.vertices)
        if data.draw(st.booleans()):
            # shaped like the solvers' bans: each cell held from a step on, up
            # to two past the bound, the agent's own goal among the candidates
            held = data.draw(st.frozensets(st.tuples(cells, st.integers(0, bound + 2)),
                                           max_size=4))
            avoid = AgentConflicts(held=held)
            off = {(v, t) for v, since in held for t in range(since, bound + 1)}
            if any(v == goal for v, _ in held):
                # a held own goal leaves no walk, from whichever step it is held
                off |= {(goal, t) for t in range(bound + 1)}
                assert walk_levels(inst, agent.id, bound, distances, avoid) == \
                    (((),) * (bound + 1), {})
            else:
                # a cell held from step s is the vertex entries at s..bound
                assert walk_levels(inst, agent.id, bound, distances, avoid) == \
                    walk_levels(inst, agent.id, bound, distances, AgentConflicts(frozenset(off)))
        else:
            off = {(v, t) for t in range(bound + 1)
                   for v in data.draw(st.frozensets(cells, max_size=3))}
            avoid = AgentConflicts(frozenset(off))

        full = build_mdd(inst, agent.id, bound, distances)
        kept = {walk for walk in diagram_walks(full, bound)
                if not any((v, t) in off for t, v in enumerate(walk))}
        levels, out = walk_levels(inst, agent.id, bound, distances, avoid)
        # each level is the vertex set the kept walks occupy there, and each
        # of its nodes below the bound lists their moves out of it
        assert levels == tuple(tuple(sorted({walk[t] for walk in kept}))
                               for t in range(bound + 1))
        assert set(out) == {(t, u) for t in range(bound) for u in levels[t]}
        assert {(t, u, w) for (t, u), heads in out.items() for w in heads} == {
            (t, walk[t], walk[t + 1]) for walk in kept for t in range(bound)}
        if kept:
            banned = build_mdd(inst, agent.id, bound, distances, avoid)
            assert diagram_walks(banned, bound) == kept
        else:
            with pytest.raises(EmptyDiagramError):
                build_mdd(inst, agent.id, bound, distances, avoid)

    def test_goal_bans_hold_each_goal_from_its_latest_arrival(self, fix_c):
        # shortest costs 3 and 3, one unit of slack
        bans = goal_bans(fix_c, {"a1": 4, "a2": 4})
        assert bans == {"a1": AgentConflicts(held=frozenset({("v1", 4)})),
                        "a2": AgentConflicts(held=frozenset({("v4", 4)}))}
        # no agent's bans hold its own goal
        assert all(a.goal not in bans[a.id].held_from() for a in fix_c.agents)


class TestBuildSmdd:
    def test_two_path_example(self, fix_d_paths):
        smdd = build_smdd("ax", fix_d_paths, 4)
        got = {(t, v) for t, lvl in enumerate(smdd.levels) for v in lvl}
        assert got == {
            (0, "v1"), (1, "v2"), (1, "v6"), (2, "v3"), (3, "v4"), (3, "v7"), (4, "v5"),
        }
        assert smdd.edge_count == 8

    def test_single_path(self):
        smdd = build_smdd("a1", [Path("a1", ("v1", "v2", "v3"))], 2)
        assert smdd.node_count == 3
        assert smdd.edge_count == 2

    def test_goal_wait_padding(self):
        smdd = build_smdd("a1", [Path("a1", ("v1", "v2", "v3"))], 3)
        assert smdd.node_count == 4
        assert smdd.edge_count == 3
        assert "v3" in smdd.levels[3]

    def test_path_longer_than_horizon_rejected(self):
        with pytest.raises(ValueError):
            build_smdd("a1", [Path("a1", ("v1", "v2", "v3"))], 1)

    def test_mismatched_goal_rejected(self):
        with pytest.raises(ValueError):
            build_smdd("a1", [
                Path("a1", ("v1", "v2")),
                Path("a1", ("v1", "v3")),
            ], 2)

    def test_every_input_path_is_represented(self, fix_d_paths):
        smdd = build_smdd("ax", fix_d_paths, 4)
        for p in fix_d_paths:
            assert contains_path(smdd, p)


class TestRepresents:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agrees_with_the_reference_walk_check(self, data):
        # candidates drawn through the full diagram, then walks of the graph
        # from the start that mostly follow the sparse diagram's moves
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        inst = random_grid_instance(rng)
        agent = data.draw(st.sampled_from(inst.agents), label="agent")
        distances = Distances(inst.graph)
        xi = distances.dist(agent.goal)[agent.start]
        horizon = xi + data.draw(st.integers(0, 3), label="slack")
        full = build_mdd(inst, agent.id, horizon, distances)
        candidates = []
        for _ in range(rng.randint(1, 3)):
            pos = [full.start]
            for t in range(horizon):
                pos.append(rng.choice(full.outgoing(pos[-1], t)))
            candidates.append(Path(agent.id, tuple(pos)))
        smdd = build_smdd(agent.id, candidates, horizon)
        assert all(smdd.represents(p) for p in candidates)
        for _ in range(20):
            pos = [agent.start]
            for t in range(rng.randint(0, horizon)):
                heads = smdd.outgoing(pos[-1], t)
                if not heads or rng.random() < 0.2:
                    heads = inst.graph.move_table[pos[-1]]
                pos.append(rng.choice(heads))
            walk = Path(agent.id, tuple(pos))
            assert smdd.represents(walk) == contains_path(smdd, walk)


class TestOrderedDiagrams:
    """Both builders hand over levels and out-edge lists in the ids' order."""

    @staticmethod
    def assert_ordered(mdd):
        for t, level in enumerate(mdd.levels):
            assert list(level) == sorted(level)
            if t < mdd.horizon:
                for u in level:
                    heads = mdd.outgoing(u, t)
                    assert list(heads) == sorted(heads)
                    assert set(heads) <= set(mdd.levels[t + 1])

    def test_graph_moves_are_the_vertex_and_its_neighbours_sorted(self):
        rng = random.Random(5)
        graphs = [scrambled_grid_instance().graph]
        graphs += [random_grid_instance(rng).graph for _ in range(10)]
        for graph in graphs:
            for v in graph.vertices:
                assert graph.move_table[v] == tuple(sorted((v, *graph.adjacency[v])))

    def test_full_diagrams_are_ordered(self):
        inst = scrambled_grid_instance()
        distances = Distances(inst.graph)
        for agent in inst.agents:
            xi = bfs_distances(inst.graph, agent.start)[agent.goal]
            mdd = build_mdd(inst, agent.id, xi + 2, distances)
            assert mdd.node_count > mdd.horizon + 1
            self.assert_ordered(mdd)

    def test_sparse_diagrams_are_ordered(self):
        # row-major cells q b m / z a k / c y p; the candidates meet the vertices
        # of the branching levels and nodes against the ids' order
        paths = [
            Path("a1", ("q", "z", "c", "y", "p")),
            Path("a1", ("q", "b", "m", "k", "p")),
            Path("a1", ("q", "b", "a", "y", "p")),
            Path("a1", ("q", "z", "a", "k", "p")),
            Path("a1", ("q", "q", "z", "a", "y", "p")),
        ]
        smdd = build_smdd("a1", paths, 5)
        assert smdd.levels[1] == ("b", "q", "z")
        assert smdd.outgoing("q", 0) == ("b", "q", "z")
        assert smdd.outgoing("a", 2) == ("k", "y")
        self.assert_ordered(smdd)
        assert all(contains_path(smdd, p) for p in paths)


class TestCountRepresentedPaths:
    """A diagram represents as many paths as it has start->goal walks."""

    def test_overestimation_example(self, fix_d_paths):
        smdd = build_smdd("ax", fix_d_paths, 4)
        assert len(diagram_walks(smdd, smdd.horizon)) == 4

    def test_single_route(self, fix_a):
        mdd = build_mdd(fix_a, "a1", 2, Distances(fix_a.graph))
        assert len(diagram_walks(mdd, mdd.horizon)) == 1

    def test_three_routes_with_slack(self, fix_a):
        # enumeration: move-move-wait, wait-move-move, move-wait-move
        mdd = build_mdd(fix_a, "a1", 3, Distances(fix_a.graph))
        walks = enumerate_expansions(fix_a.graph, "v1", "v3", 3)
        assert len(walks) == 3
        assert len(diagram_walks(mdd, mdd.horizon)) == 3

    def test_at_least_the_input_paths(self, fix_d_paths):
        smdd = build_smdd("ax", fix_d_paths, 4)
        assert len(diagram_walks(smdd, smdd.horizon)) >= len(fix_d_paths)


class TestSparseVersusFull:
    def test_sparse_stays_inside_full(self, fix_d_graph, fix_d_paths):
        inst = MapfInstance(fix_d_graph, [Agent("ax", "v1", "v5")])
        full = build_mdd(inst, "ax", 4, Distances(fix_d_graph))
        smdd = build_smdd("ax", fix_d_paths, 4)
        for t, lvl in enumerate(smdd.levels):
            assert set(lvl) <= set(full.levels[t])
        assert diagram_edges(smdd) <= diagram_edges(full)

    def test_random_candidate_subsets_stay_inside_full(self):
        rng = random.Random(99)
        from mapfsat import AgentConflicts, constrained_shortest_path

        for _ in range(20):
            inst = random_grid_instance(rng)
            agent = inst.agents[0]
            distances = Distances(inst.graph)
            xi = bfs_distances(inst.graph, agent.start)[agent.goal]
            bound = xi + 2
            paths = []
            verts = list(inst.graph.vertices)
            for _ in range(4):
                avoid = AgentConflicts(
                    frozenset({(rng.choice(verts), rng.randint(1, bound))}),
                    frozenset(),
                )
                p = constrained_shortest_path(inst, agent.id, avoid, bound, distances)
                if p is not None:
                    paths.append(p)
            if not paths:
                continue
            smdd = build_smdd(agent.id, paths, bound)
            full = build_mdd(inst, agent.id, bound, distances)
            for t, lvl in enumerate(smdd.levels):
                assert set(lvl) <= set(full.levels[t])
            assert diagram_edges(smdd) <= diagram_edges(full)
            assert len(diagram_walks(smdd, bound)) >= len({p.positions for p in paths})


def test_dump_format_is_stable(fix_d_paths):
    smdd = build_smdd("ax", fix_d_paths, 4)
    assert smdd.horizon == 4
    assert smdd.levels == (("v1",), ("v2", "v6"), ("v3",), ("v4", "v7"), ("v5",))
    assert diagram_edges(smdd) == {
        (0, "v1", "v2"), (0, "v1", "v6"), (1, "v2", "v3"), (1, "v6", "v3"),
        (2, "v3", "v4"), (2, "v3", "v7"), (3, "v4", "v5"), (3, "v7", "v5"),
    }
