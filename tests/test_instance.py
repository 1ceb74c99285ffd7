from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfsat import (
    Agent,
    Graph,
    GridMeta,
    InstanceError,
    MapParseError,
    MapfInstance,
    ParseError,
    Path,
    ScenParseError,
    Solution,
    bfs_distances,
    build_instance,
    parse_map,
    parse_scen,
    path_cost,
    sum_of_costs,
    validate_solution,
)

from conftest import random_grid_instance
from oracle import edge_count, render_map


def map_text(rows: list[str]) -> str:
    return "\n".join(
        ["type octile", f"height {len(rows)}", f"width {len(rows[0])}", "map", *rows]
    )


MASKS = st.integers(1, 6).flatmap(
    lambda w: st.lists(st.lists(st.booleans(), min_size=w, max_size=w),
                       min_size=1, max_size=6))
SCEN_FIELDS = ["0", "open8.map", "8", "8", "6", "2", "0", "1", "7"]


def mask_text(mask: list[list[bool]]) -> str:
    return map_text(["".join(".@"[not c] for c in row) for row in mask])


def _map_with(mask, index: int, piece: str) -> str:
    text = mask_text(mask)
    index %= len(text)
    return text[:index] + piece + text[index + 1:]


def _scen_with(index: int, token: str) -> str:
    fields = SCEN_FIELDS[:index] + [token] + SCEN_FIELDS[index + 1:]
    return "version 1\n" + "\t".join(fields) + "\n"


# valid files with one spot replaced reach every check; arbitrary text rarely
# gets past the headers
MAP_TEXTS = st.builds(_map_with, MASKS, st.integers(0, 10**6), st.text(max_size=3))
SCEN_TEXTS = st.builds(_scen_with, st.integers(0, 9), st.one_of(
    st.text(max_size=4), st.sampled_from(["1.5", "nan", "-3", "1e9", "1_0", "\u0663"])))


class TestParseMap:
    def test_two_by_two_with_obstacle(self):
        g = parse_map(map_text(["..", ".@"]))
        assert g.vertex_count == 3
        assert edge_count(g) == 2

    def test_single_cell(self):
        g = parse_map(map_text(["."]))
        assert g.vertex_count == 1
        assert edge_count(g) == 0

    def test_one_by_three_path(self):
        g = parse_map(map_text(["..."]))
        assert g.vertex_count == 3
        assert edge_count(g) == 2

    def test_all_passable_and_blocked_chars(self):
        g = parse_map(map_text([".GS", "@OT", "W.."]))
        assert g.vertex_count == 5

    def test_malformed_header(self):
        with pytest.raises(MapParseError):
            parse_map("height 2\nwidth 2\nmap\n..\n..")

    def test_row_width_mismatch_names_line(self):
        with pytest.raises(MapParseError) as err:
            parse_map(map_text(["..", "."]))
        assert err.value.line == 6

    def test_unknown_char_names_line_and_column(self):
        with pytest.raises(MapParseError) as err:
            parse_map(map_text(["..", ".x"]))
        assert err.value.line == 6
        assert err.value.column == 2

    def test_row_count_mismatch(self):
        with pytest.raises(MapParseError):
            parse_map("type octile\nheight 3\nwidth 2\nmap\n..\n..")

    @settings(max_examples=200, deadline=None)
    @given(MASKS)
    def test_render_round_trip(self, mask):
        g = parse_map(mask_text(mask))
        again = parse_map(render_map(g))
        assert again.grid.passable == tuple(map(tuple, mask))
        assert again.vertices == g.vertices
        assert render_map(again) == render_map(g)


class TestParseScen:
    def test_single_line(self):
        specs = parse_scen("version 1\n0\tm.map\t2\t2\t0\t0\t1\t0\t1")
        assert len(specs) == 1
        assert specs[0].start_cell == (0, 0)
        assert specs[0].goal_cell == (1, 0)
        assert specs[0].map_name == "m.map"

    def test_empty_body(self):
        assert parse_scen("version 1\n") == []

    def test_two_lines_preserve_order(self):
        text = "version 1\n0 m.map 4 4 0 0 3 3 6\n1 m.map 4 4 1 1 2 2 2\n"
        specs = parse_scen(text)
        assert [s.start_cell for s in specs] == [(0, 0), (1, 1)]

    def test_whitespace_or_tabs_both_accepted(self):
        a = parse_scen("version 1\n0\tm.map\t2\t2\t0\t0\t1\t0\t1")
        b = parse_scen("version 1\n0 m.map 2 2 0 0 1 0 1")
        assert a == b

    def test_version_mismatch(self):
        with pytest.raises(ScenParseError):
            parse_scen("version 2\n")

    def test_field_count(self):
        with pytest.raises(ScenParseError) as err:
            parse_scen("version 1\n0 m.map 2 2 0 0 1 0")
        assert err.value.line == 2

    def test_non_numeric_coordinates(self):
        with pytest.raises(ScenParseError):
            parse_scen("version 1\n0 m.map 2 2 a 0 1 0 1")


class TestBuildInstance:
    def test_two_agents(self):
        g = parse_map(map_text(["..", ".."]))
        specs = parse_scen(
            "version 1\n0 m.map 2 2 0 0 1 1 2\n0 m.map 2 2 1 1 0 0 2\n"
        )
        inst = build_instance(g, specs, 2)
        assert inst.k == 2
        assert inst.agents[0].start != inst.agents[1].start

    def test_first_spec_only(self):
        g = parse_map(map_text(["..", ".."]))
        specs = parse_scen(
            "version 1\n0 m.map 2 2 0 0 1 1 2\n0 m.map 2 2 1 1 0 0 2\n"
        )
        inst = build_instance(g, specs, 1)
        assert inst.k == 1

    def test_blocked_goal_cell(self):
        g = parse_map(map_text(["..", ".@"]))
        specs = parse_scen("version 1\n0 m.map 2 2 0 0 1 1 2\n")
        with pytest.raises(InstanceError):
            build_instance(g, specs, 1)

    @pytest.mark.parametrize("role, cell", [
        ("start", (2, 0)), ("start", (0, 2)), ("start", (-1, 0)), ("goal", (1, -1))])
    def test_cell_outside_the_map(self, role, cell):
        g = parse_map(map_text(["..", ".."]))
        start, goal = (cell, (1, 1)) if role == "start" else ((0, 0), cell)
        specs = parse_scen(f"version 1\n0 m.map 2 2 {start[0]} {start[1]} {goal[0]} {goal[1]} 2\n")
        with pytest.raises(InstanceError) as err:
            build_instance(g, specs, 1)
        assert str(err.value) == f"{role} cell {cell} of agent 1 is outside the 2x2 map"

    def test_duplicate_starts(self):
        g = parse_map(map_text(["...", "..."]))
        specs = parse_scen(
            "version 1\n0 m.map 3 2 0 0 1 1 2\n0 m.map 3 2 0 0 2 1 3\n"
        )
        with pytest.raises(InstanceError):
            build_instance(g, specs, 2)

    def test_too_few_specs(self):
        g = parse_map(map_text(["..", ".."]))
        with pytest.raises(InstanceError):
            build_instance(g, [], 1)

    @pytest.mark.parametrize("n", [0, -2])
    def test_agent_count_below_one(self, n):
        g = parse_map(map_text(["..", ".."]))
        specs = parse_scen(
            "version 1\n0 m.map 2 2 0 0 1 1 2\n0 m.map 2 2 1 1 0 0 2\n"
        )
        with pytest.raises(InstanceError, match="at least 1"):
            build_instance(g, specs, n)


class TestGraphInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(InstanceError):
            Graph(["a"], [("a", "a")])

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(InstanceError):
            Graph(["a"], [("a", "b")])

    @pytest.mark.parametrize("ids", [[0, 4], [0, -1], ["a", "b"], [0.0, 1]])
    def test_grid_ids_must_be_cell_indices(self, ids):
        grid = GridMeta(2, 2, ((True, True), (True, True)))
        with pytest.raises(InstanceError, match="cell index"):
            Graph(ids, [], grid=grid)

    def test_grid_tables_are_lists_over_every_cell(self):
        graph = parse_map("type octile\nheight 2\nwidth 3\nmap\n.@.\n...\n")
        assert graph.adjacency == [(3,), None, (5,), (0, 4), (3, 5), (2, 4)]
        assert graph.move_table[4] == (3, 4, 5)
        assert 1 not in graph and -1 not in graph and 6 not in graph
        # a blocked cell's entries are None
        assert graph.adjacency[1] is None and graph.move_table[1] is None
        assert not graph.has_edge(1, 0) and not graph.has_edge(0, 1)

    def test_unorderable_ids_rejected(self):
        with pytest.raises(InstanceError, match="orderable"):
            Graph([1, "a"], [])

    def test_adjacency_is_symmetric(self):
        g = Graph(["a", "b", "c"], [("a", "b")])
        assert "b" in g.adjacency["a"]
        assert "a" in g.adjacency["b"]
        assert g.has_edge("a", "b") and g.has_edge("b", "a")
        assert not g.has_edge("a", "c") and not g.has_edge("c", "b")
        assert not g.has_edge("a", "nope") and not g.has_edge("nope", "a")


class TestPathCost:
    def test_trailing_goal_wait_is_free(self):
        assert path_cost(Path("a1", ("v1", "v2", "v3", "v3")), "v3") == 2

    def test_identity(self):
        assert path_cost(Path("a1", ("v3", "v3")), "v3") == 0

    def test_goal_departure_reincurs_cost(self):
        assert path_cost(Path("a1", ("v1", "v2", "v3", "v2", "v3")), "v3") == 4

    def test_wrong_endpoint_rejected(self):
        with pytest.raises(InstanceError):
            path_cost(Path("a1", ("v1", "v2")), "v3")


class TestValidateSolution:
    def test_vertex_collision(self, fix_b):
        sol = Solution.from_paths(fix_b, [
            Path("a1", ("v00", "v10", "v11")),
            Path("a2", ("v11", "v10", "v00")),
        ])
        cols = validate_solution(fix_b, sol)
        assert len(cols) == 1
        assert (cols[0].kind, cols[0].agents, cols[0].location, cols[0].t) == (
            "vertex", ("a1", "a2"), "v10", 1,
        )

    def test_edge_collision_head_on_swap(self):
        g = Graph(["v1", "v2"], [("v1", "v2")])
        inst = MapfInstance(g, [Agent("a1", "v1", "v2"), Agent("a2", "v2", "v1")])
        sol = Solution.from_paths(inst, [
            Path("a1", ("v1", "v2")), Path("a2", ("v2", "v1")),
        ])
        cols = validate_solution(inst, sol)
        assert len(cols) == 1
        assert (cols[0].kind, cols[0].agents, cols[0].location, cols[0].t) == (
            "edge", ("a1", "a2"), ("v1", "v2"), 0,
        )

    def test_disjoint_routes_are_clean(self, fix_b):
        sol = Solution.from_paths(fix_b, [
            Path("a1", ("v00", "v01", "v11")),
            Path("a2", ("v11", "v10", "v00")),
        ])
        assert validate_solution(fix_b, sol) == []

    def test_matches_naive_double_loop(self, fix_b):
        def walk(inst, agent):
            # up to six random moves, then a shortest way to the goal
            dist = bfs_distances(inst.graph, agent.goal)
            pos = [agent.start]
            for _ in range(rng.randint(0, 6)):
                pos.append(rng.choice(inst.graph.move_table[pos[-1]]))
            while pos[-1] != agent.goal:
                pos.append(min(inst.graph.adjacency[pos[-1]], key=dist.__getitem__))
            return Path(agent.id, tuple(pos))

        rng = random.Random(11)
        instances = [fix_b] * 80 + [random_grid_instance(rng, agents=(3, 6)) for _ in range(300)]
        seen = Counter()
        for inst in instances:
            sol = Solution.from_paths(inst, [walk(inst, a) for a in inst.agents])
            got = [(c.kind, c.agents, c.location, c.t) for c in validate_solution(inst, sol)]
            # every pair at every step, ordered by (t, i, j, vertex before edge)
            naive = []
            ps = sol.paths
            for i in range(len(ps)):
                for j in range(i + 1, len(ps)):
                    for t in range(sol.horizon + 1):
                        if ps[i].positions[t] == ps[j].positions[t]:
                            naive.append(((t, i, j, 0), ("vertex", (ps[i].agent, ps[j].agent),
                                                         ps[i].positions[t], t)))
                        if t < sol.horizon:
                            ui, vi = ps[i].positions[t], ps[i].positions[t + 1]
                            uj, vj = ps[j].positions[t], ps[j].positions[t + 1]
                            if ui != vi and ui == vj and vi == uj:
                                naive.append(((t, i, j, 1), ("edge", (ps[i].agent, ps[j].agent),
                                                             (ui, vi), t)))
            naive.sort(key=lambda n: n[0])
            assert got == [entry for _, entry in naive]
            seen["shared by three"] += any(
                max(Counter(p.positions[t] for p in ps).values()) >= 3
                for t in range(sol.horizon + 1)
            )
            seen["swap"] += any(kind == "edge" for kind, *_ in got)
        assert seen["shared by three"] > 0 and seen["swap"] > 0, seen


class TestSolution:
    def test_padding_to_common_horizon(self, fix_b):
        sol = Solution.from_paths(fix_b, [
            Path("a1", ("v00", "v01", "v11")),
            Path("a2", ("v11", "v10", "v00", "v00", "v00")),
        ])
        assert sol.horizon == 4
        assert sol.paths[0].positions[-1] == "v11"

    def test_sum_of_costs_is_sum_of_path_costs(self, fix_b):
        sol = Solution.from_paths(fix_b, [
            Path("a1", ("v00", "v01", "v11")),
            Path("a2", ("v11", "v10", "v00")),
        ])
        assert sum_of_costs(fix_b, sol) == sum(
            path_cost(p, fix_b.agent(p.agent).goal) for p in sol.paths
        )

    def test_wrong_start_rejected(self, fix_b):
        with pytest.raises(InstanceError):
            Solution.from_paths(fix_b, [
                Path("a1", ("v01", "v11")),
                Path("a2", ("v11", "v10", "v00")),
            ])

    def test_non_adjacent_step_rejected(self, fix_b):
        with pytest.raises(InstanceError):
            Solution.from_paths(fix_b, [
                Path("a1", ("v00", "v11", "v11")),
                Path("a2", ("v11", "v10", "v00")),
            ])


class TestInstanceInvariants:
    def test_duplicate_starts_rejected(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        with pytest.raises(InstanceError):
            MapfInstance(g, [Agent(1, "a", "b"), Agent(2, "a", "c")])

    def test_duplicate_goals_rejected(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        with pytest.raises(InstanceError):
            MapfInstance(g, [Agent(1, "a", "c"), Agent(2, "b", "c")])


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), MAP_TEXTS, SCEN_TEXTS))
def test_parsers_return_a_result_or_a_parse_error(text):
    for parse in (parse_map, parse_scen):
        try:
            parse(text)
        except ParseError:
            pass
