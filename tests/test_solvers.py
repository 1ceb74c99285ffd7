from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfsat import (
    ALGORITHMS,
    INFEASIBLE,
    SOLVED,
    TIMEOUT,
    Agent,
    AgentConflicts,
    CdclSolver,
    Collision,
    Distances,
    EncodingSoundnessError,
    Graph,
    InfeasibleAgentError,
    MapfInstance,
    Path,
    Solution,
    SolverConfig,
    bfs_distances,
    build_instance,
    constrained_shortest_path,
    build_mdd,
    build_smdd,
    parse_map,
    parse_scen,
    path_cost,
    solution_json,
    solve_cbs,
    solve_heuristic_smt_cbs,
    solve_mdd_sat,
    solve_smt_cbs,
    solve_sparse_smt_cbs,
    sum_of_costs,
    validate_solution,
)
import mapfsat
from mapfsat import diagrams, encoding, pathing, solvers
from mapfsat.solvers import INCOMPLETE, Deadline, SolveStats, _SatSolve
from conftest import SAT_ALGORITHMS, colliding_root, random_grid_instance
from oracle import brute_force_oracle

QUICK = SolverConfig(timeout_s=30)
CORRIDOR = FsPath(__file__).parent / "data" / "corridor"
# Open 8x8 with 26 agents that no SAT algorithm solves within seconds, written
# once from perfbench's generator: `random_grid(rng, 8, 0.0)` with
# `rng = random.Random("ladder/open8/26/2")`, then 26 starts and 26 goals
# drawn by `rng.sample` from the grid's largest component.
HARD = FsPath(__file__).parent / "data" / "deadline"
# How far a timed-out run may overrun its limit. The longest gap between two
# deadline checks on HARD was 0.41 s (mddsat, 5 s limit, 2-core x86 host);
# the slack leaves room for a host about three times slower.
DEADLINE_SLACK_S = 1.5


def xi_sum(instance) -> int:
    return sum(
        bfs_distances(instance.graph, a.start)[a.goal] for a in instance.agents
    )


def sat_solve(instance, extend="and", stats=None):
    """The loop state of one incomplete-model solve (`solvers._SatSolve`), with
    the distance memo, shortest paths and shortest costs (the paths' lengths)
    that `_run` and `_lazy_solve` would hand it; its `round(soc)` runs one
    fixed-bounds round."""
    distances = Distances(instance.graph)
    roots, _ = solvers._shortest_root(instance, distances)
    xi = {agent_id: path.length for agent_id, path in roots.items()}
    return _SatSolve(INCOMPLETE, extend, instance, Deadline(60),
                     SolveStats() if stats is None else stats, distances, xi, roots)


def corridor_instance() -> MapfInstance:
    """Agent 1 arrives at its goal in a corridor after one step; agent 2 must
    cross that goal, so agent 1 has to step into the pocket above it and
    back: optimum 7, two above the shortest-path total."""
    graph = parse_map((CORRIDOR / "corridor.map").read_text())
    return build_instance(graph, parse_scen((CORRIDOR / "corridor.scen").read_text()), 2)


def pocket_corridor_instance(rng: random.Random) -> MapfInstance:
    """One open row between two walls, with a few cells of the walls open,
    and two or three agents."""
    width = rng.randint(4, 7)
    walls = [["@"] * width for _ in range(2)]
    for _ in range(rng.randint(1, 2)):
        walls[rng.randint(0, 1)][rng.randrange(width)] = "."
    rows = ["".join(walls[0]), "." * width, "".join(walls[1])]
    graph = parse_map("\n".join(["type octile", "height 3", f"width {width}", "map", *rows]))
    k = rng.randint(2, 3)
    starts = rng.sample(graph.vertices, k)
    goals = rng.sample(graph.vertices, k)
    return MapfInstance(graph, [Agent(i + 1, s, g) for i, (s, g) in enumerate(zip(starts, goals))])


def swap_instance() -> MapfInstance:
    g = Graph(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3")])
    return MapfInstance(g, [Agent("a1", "v1", "v3"), Agent("a2", "v3", "v1")])


class TestOracle:
    def test_single_agent(self, fix_a):
        assert brute_force_oracle(fix_a, 10).soc == 2

    def test_cycle_rotation(self, fix_b):
        assert brute_force_oracle(fix_b, 10).soc == 4

    def test_spur_passing(self, fix_c):
        out = brute_force_oracle(fix_c, 14)
        assert out.soc == 8
        assert validate_solution(fix_c, out.solution) == []

    def test_swap_on_path_graph_is_infeasible(self):
        assert brute_force_oracle(swap_instance(), 10).status == INFEASIBLE

    def test_cap_below_shortest_total(self, fix_b):
        assert brute_force_oracle(fix_b, 3).status == INFEASIBLE


class TestFixtureOptima:
    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_single_agent(self, algo, fix_a):
        out = ALGORITHMS[algo](fix_a, QUICK)
        assert out.status == SOLVED
        assert out.soc == 2

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_cycle(self, algo, fix_b):
        out = ALGORITHMS[algo](fix_b, QUICK)
        assert out.status == SOLVED
        assert out.soc == 4
        assert validate_solution(fix_b, out.solution) == []

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_spur(self, algo, fix_c):
        want = brute_force_oracle(fix_c, 14).soc
        out = ALGORITHMS[algo](fix_c, QUICK)
        assert out.status == SOLVED
        assert out.soc == want
        assert validate_solution(fix_c, out.solution) == []

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_makespan_is_the_latest_arrival(self, algo, fix_a, fix_b, fix_c):
        # every path ends at its final arrival, so the solution's common
        # horizon is the latest one, not the horizon of a SAT model
        for inst in (fix_a, fix_b, fix_c, corridor_instance()):
            out = ALGORITHMS[algo](inst, QUICK)
            arrivals = [path_cost(p, a.goal) for p, a in zip(out.solution.paths, inst.agents)]
            assert out.makespan == out.solution.horizon == max(arrivals), inst

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_swap_infeasible_at_cap(self, algo):
        out = ALGORITHMS[algo](swap_instance(), QUICK)
        assert out.status == INFEASIBLE

    def test_unreachable_goal_is_infeasible_at_cap(self):
        # the goal of a2 lies in the other component of the graph
        g = Graph(["v1", "v2", "v3", "v4"], [("v1", "v2"), ("v3", "v4")])
        inst = MapfInstance(g, [Agent("a1", "v1", "v2"), Agent("a2", "v3", "v1")])
        for algo, fn in ALGORITHMS.items():
            assert fn(inst, QUICK).status == INFEASIBLE, algo
        assert brute_force_oracle(inst, 10).status == INFEASIBLE
        with pytest.raises(InfeasibleAgentError):
            sat_solve(inst).round(2)


class TestCbs:
    def test_branches_resolve_first_collision(self, fix_b):
        out = solve_cbs(fix_b, QUICK)
        assert out.soc == 4
        assert out.stats.conflicts >= 1

    def test_child_collisions_equal_full_revalidation(self):
        def walk(rng, inst, agent):
            # up to six random moves, then a shortest way to the goal
            dist = bfs_distances(inst.graph, agent.goal)
            pos = [agent.start]
            for _ in range(rng.randint(0, 6)):
                pos.append(rng.choice(inst.graph.move_table[pos[-1]]))
            while pos[-1] != agent.goal:
                pos.append(min(inst.graph.adjacency[pos[-1]], key=dist.__getitem__))
            return Path(agent.id, tuple(pos))

        rng = random.Random(53)
        seen = Counter()
        for _ in range(600):
            inst = random_grid_instance(rng, agents=(3, 4))
            paths = {a.id: walk(rng, inst, a) for a in inst.agents}
            parent = validate_solution(inst, Solution.from_paths(inst, paths.values()))
            agent = rng.choice(inst.agents)
            child = dict(paths)
            child[agent.id] = walk(rng, inst, agent)
            want = validate_solution(inst, Solution.from_paths(inst, child.values()))
            assert solvers.child_collisions(inst, parent, child, agent.id) == want
            before = max(p.length for p in paths.values())
            after = max(p.length for p in child.values())
            seen["longer horizon"] += after > before
            seen["shorter horizon"] += after < before
            mine = [c for c in want if agent.id in c.agents]
            at = Counter((c.location, c.t) for c in mine if c.kind == "vertex")
            seen["three-way vertex"] += max(at.values(), default=0) >= 2
            seen["swap, replanned second"] += any(
                c.kind == "edge" and c.agents[1] == agent.id for c in mine)
        assert len(seen) == 4 and min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("b1_goal, bypass", [("w5", False), ("w3", True)])
    def test_branches_on_a_later_cardinal_collision(self, b1_goal, bypass, monkeypatch):
        # two parts: a 4-cycle whose agents meet at t=1 with a second shortest
        # path each (not cardinal), and a corridor w1..w5 with a pocket w6 off
        # w3 whose agents meet at w3 at t=2. There b1 (w1 -> w5) and b2 (w5 ->
        # w1) both have one shortest path (cardinal), or b1 has just arrived
        # at its goal w3 and b2 could pass by x instead (semi-cardinal)
        edges = [("v00", "v01"), ("v01", "v11"), ("v11", "v10"), ("v10", "v00"),
                 ("w1", "w2"), ("w2", "w3"), ("w3", "w4"), ("w4", "w5"), ("w3", "w6")]
        if bypass:
            edges += [("w2", "x"), ("x", "w4")]
        g = Graph(["v00", "v01", "v10", "v11", "w1", "w2", "w3", "w4", "w5", "w6", "x"],
                  edges)
        inst = MapfInstance(g, [Agent("a1", "v00", "v11"), Agent("a2", "v11", "v00"),
                                Agent("b1", "w1", b1_goal), Agent("b2", "w5", "w1")])
        distances = Distances(inst.graph)
        root = Solution.from_paths(inst, [pathing.shortest_path(inst, a.id, distances)
                                          for a in inst.agents])
        first, later = validate_solution(inst, root)
        assert (first.agents, first.location, first.t) == (("a1", "a2"), "v01", 1)
        assert (later.agents, later.location, later.t) == (("b1", "b2"), "w3", 2)

        searched = []
        search = solvers.constrained_shortest_path

        def recording(instance, agent_id, avoid, *args, **kwargs):
            searched.append((agent_id, avoid))
            return search(instance, agent_id, avoid, *args, **kwargs)

        # the root's searches go through pathing.shortest_path
        for module in (pathing, solvers):
            monkeypatch.setattr(module, "constrained_shortest_path", recording)
        out = solve_cbs(inst, QUICK)
        assert out.status == SOLVED and validate_solution(inst, out.solution) == []
        # four root searches, then the root's first child, b1's: it bans w3
        # at 2, or, where b1 has arrived at its goal w3 (a target conflict),
        # it makes b1 arrive after step 2
        want = AgentConflicts(floor=3) if bypass else AgentConflicts(frozenset({("w3", 2)}))
        assert searched[4] == ("b1", want)

    def test_an_arrived_agent_may_stand_on_its_goal_and_finish_later(self):
        # @ 1 2 3      a1 goes 4 -> 6 and a3 stays on 1, so a2 (3 -> 4) must
        # 4 5 6 7      come down through 6 and along the bottom row. In the
        # optimum a1 arrives at 6 at step 2, steps aside to 7 and comes back:
        # the branch on a1's goal that makes a1 arrive later must keep a1's
        # walks over 6 at the collision's step. Banning only (6, t) loses them.
        graph = parse_map("type octile\nheight 2\nwidth 4\nmap\n@...\n....")
        inst = MapfInstance(graph, [Agent(1, 4, 6), Agent(2, 3, 4), Agent(3, 1, 1)])
        assert brute_force_oracle(inst, 10).soc == 9
        out = solve_cbs(inst, SolverConfig(timeout_s=30, cost_cap=10))
        assert (out.status, out.soc) == (SOLVED, 9)

    def test_cbs_branch_choice_on_corridors_with_pockets(self, monkeypatch):
        def child_constraints(avoid, collision, side, costs):
            """The constraints that the side's child gives its agent. A vertex
            collision at or after one agent's arrival lies on that agent's
            goal: the arrived agent must arrive later, and the other keeps off
            the goal from the collision's step on. Any other collision bans
            the side's entry."""
            if collision.kind == "vertex" and collision.t >= costs[side]:
                return avoid.arriving_after(collision.t)
            if collision.kind == "vertex" and collision.t >= costs[1 - side]:
                return avoid.holding(collision.location, collision.t)
            return avoid.with_entry(collision.kind, collision.entry(side))

        def raises_cost(inst, agent_id, child, collision, cost, distances):
            """No path of the agent's cost meets its child's constraints. The
            search looks no further than the later of that cost and the
            collision, since the agent's current path was found within its
            own budget."""
            bound = max(cost, collision.t)
            path = constrained_shortest_path(inst, agent_id, child, bound, distances)
            return path is None or path_cost(path, inst.agent(agent_id).goal) > cost

        seen = Counter()
        branch_on = solvers._branch_on

        def checking(instance, collisions, constraints, paths, widths, distances):
            chosen = branch_on(instance, collisions, constraints, paths, widths, distances)
            counts = []
            for c in collisions:
                costs = [path_cost(paths[a], instance.agent(a).goal) for a in c.agents]
                counts.append(sum(
                    raises_cost(instance, a, child_constraints(constraints[a], c, side, costs),
                                c, costs[side], distances)
                    for side, a in enumerate(c.agents)))
            want = collisions[counts.index(2) if 2 in counts else
                              counts.index(1) if 1 in counts else 0]
            assert chosen == want
            # each agent's path keeps its own constraints, so no side of a
            # collision is one already: each child adds a constraint
            costs = [path_cost(paths[a], instance.agent(a).goal) for a in chosen.agents]
            for side, a in enumerate(chosen.agents):
                assert child_constraints(constraints[a], chosen, side, costs) != constraints[a]
            i = collisions.index(chosen)
            seen["cardinal"] += counts[i] == 2
            seen["semi-cardinal"] += counts[i] == 1
            seen["edge-cardinal"] += chosen.kind == "edge" and counts[i] == 2
            seen["goal-after-arrival"] += chosen.kind == "vertex" and any(
                chosen.t >= path_cost(paths[a], instance.agent(a).goal)
                for a in chosen.agents)
            return chosen

        monkeypatch.setattr(solvers, "_branch_on", checking)
        rng = random.Random(29)
        for _ in range(30):
            inst = pocket_corridor_instance(rng)
            cap = xi_sum(inst) + 4
            oracle = brute_force_oracle(inst, cap)
            out = solve_cbs(inst, SolverConfig(timeout_s=60, cost_cap=cap))
            assert (out.status, out.soc) == (oracle.status, oracle.soc)
        assert len(seen) == 4 and min(seen.values()) >= 20, seen

    def test_width_sweeps_lose_no_walk_to_the_goal_ban(self, monkeypatch):
        """Every width sweep runs under the agent's constraints plus the goal
        at the step before its current cost. Under constraints with no floor
        that ban drops no walk, since the agent's current path is optimal
        under them: the widths are those of the sweep without it."""
        branch_on, walk = solvers._branch_on, solvers.walk_levels
        sweeps = []
        checked = Counter()

        def recording(instance, agent_id, bound, distances, avoid):
            sweeps.append((agent_id, bound, avoid))
            return walk(instance, agent_id, bound, distances, avoid)

        def widths(levels_out):
            return [len(level) for level in levels_out[0]]

        def checking(instance, collisions, constraints, paths, cache, distances):
            sweeps.clear()
            chosen = branch_on(instance, collisions, constraints, paths, cache, distances)
            for agent_id, cost, avoid in sweeps:
                goal = instance.agent(agent_id).goal
                own = constraints[agent_id]
                # a sweep runs under the agent's own constraints, or under
                # those of a target conflict's child that holds the goal
                bases = {own, *(own.holding(c.location, c.t) for c in collisions)}
                base = [b for b in bases
                        if b.with_entry("vertex", (goal, cost - 1)) == avoid]
                assert base, (agent_id, cost, avoid)
                if base[0].floor == 0:
                    assert widths(walk(instance, agent_id, cost, distances, base[0])) == \
                        widths(walk(instance, agent_id, cost, distances, avoid))
                    checked["no floor"] += 1
                else:
                    checked["floor"] += 1
            return chosen

        monkeypatch.setattr(solvers, "_branch_on", checking)
        monkeypatch.setattr(solvers, "walk_levels", recording)
        rng = random.Random(29)
        for _ in range(30):
            inst = pocket_corridor_instance(rng)
            out = solve_cbs(inst, SolverConfig(timeout_s=60, cost_cap=xi_sum(inst) + 4))
            assert out.status in (SOLVED, INFEASIBLE)
        assert checked["no floor"] >= 200 and checked["floor"] >= 100, checked

    def test_mdd_sat_counts_cost_iterations(self, fix_c):
        out = solve_mdd_sat(fix_c, QUICK)
        # two cost bumps past the shortest-path total of 6
        assert [it.soc for it in out.stats.iterations] == [6, 7, 8]
        assert out.stats.sat_calls == 3


class TestSmtCbs:
    def test_refinement_happens_on_cycle(self, fix_b):
        out = solve_smt_cbs(fix_b, QUICK)
        assert out.soc == 4
        assert out.stats.conflicts >= 0
        assert out.stats.sat_calls >= 1

    def test_single_agent_matches_mdd_sat_with_zero_conflicts(self, fix_a):
        lazy = solve_smt_cbs(fix_a, QUICK)
        eager = solve_mdd_sat(fix_a, QUICK)
        assert lazy.soc == eager.soc == 2
        assert lazy.stats.conflicts == 0

    def test_conflicts_persist_across_cost_iterations(self, fix_c):
        out = solve_smt_cbs(fix_c, QUICK)
        assert out.soc == 8
        assert len(out.stats.iterations) == 3  # bounds 6, 7, 8


class TestSparseFamily:
    def test_sparse_diagrams_never_exceed_full(self, fix_b):
        out = solve_sparse_smt_cbs(fix_b, QUICK)
        assert out.soc == 4
        for it in out.stats.iterations:
            for idx, agent in enumerate(fix_b.agents):
                if it.full_mdd[idx]:
                    continue
                full = build_mdd(
                    fix_b, agent.id,
                    bfs_distances(fix_b.graph, agent.start)[agent.goal]
                    + (it.soc - xi_sum(fix_b)),
                    Distances(fix_b.graph),
                )
                assert it.nodes_per_agent[idx] <= full.node_count

    def test_single_agent_keeps_one_candidate(self, fix_a):
        out = solve_heuristic_smt_cbs(fix_a, QUICK)
        assert out.soc == 2
        assert out.stats.conflicts == 0
        assert all(it.nodes_per_agent == (3,) for it in out.stats.iterations)

    def test_heuristic_refines_at_least_once_on_cycle(self, fix_b):
        out = solve_heuristic_smt_cbs(fix_b, QUICK)
        assert out.soc == 4
        assert out.stats.conflicts >= 1

    def test_heuristic_explores_spur_candidates(self, fix_c):
        out = solve_heuristic_smt_cbs(fix_c, QUICK)
        assert out.soc == 8
        # by the solved iteration the spur vertex entered a1's diagram
        assert any("v5" in str(p.positions) for p in out.solution.paths) or any(
            it.full_mdd[0] for it in out.stats.iterations
        )

    def test_horizon_tracks_cost_bound(self, fix_c):
        for solver in (solve_sparse_smt_cbs, solve_heuristic_smt_cbs, solve_smt_cbs):
            out = solver(fix_c, QUICK)
            base = out.stats.iterations[0]
            for it in out.stats.iterations:
                assert it.horizon - base.horizon == it.soc - base.soc

    def test_first_iteration_never_larger_than_full_diagrams(self, fix_b, fix_c):
        for inst in (fix_b, fix_c):
            sparse = solve_heuristic_smt_cbs(inst, QUICK)
            eager = solve_smt_cbs(inst, QUICK)
            assert (
                sum(sparse.stats.iterations[0].nodes_per_agent)
                <= sum(eager.stats.iterations[0].nodes_per_agent)
            )


class TestHeuristicFixed:
    def test_cycle_at_tight_bounds(self, fix_b):
        solution = sat_solve(fix_b).round(4)
        assert solution is not None
        assert sum_of_costs(fix_b, solution) == 4
        assert validate_solution(fix_b, solution) == []

    def test_spur_below_optimum_is_unsat_after_promotion(self, fix_c):
        solve = sat_solve(fix_c)
        solution = solve.round(6)
        assert solution is None
        assert all(solve.candidates[a.id] is None for a in fix_c.agents)
        assert solve.met

    @pytest.mark.parametrize("extend", ["and", "or"])
    def test_both_agents_of_every_collision_carry_it(self, extend, fix_c, monkeypatch):
        found = []

        def spy(instance, solution):
            collisions = validate_solution(instance, solution)
            found.extend(collisions)
            return collisions

        # built before the spy, which then sees only the round's answers, not
        # the check of the shortest paths that seed the candidate sets
        solve = sat_solve(fix_c, extend)
        monkeypatch.setattr(solvers, "validate_solution", spy)
        # below the optimum of 8: the round meets an edge and two vertex
        # collisions before it promotes both agents and proves UNSAT
        assert solve.round(7) is None
        met = solve.met
        assert met == found
        assert {col.kind for col in met} == {"vertex", "edge"}
        for col in met:
            for side, agent_id in enumerate(col.agents):
                carried = solve._avoidance(agent_id)
                entries = carried.vertex if col.kind == "vertex" else carried.edge
                assert col.entry(side) in entries

    def test_a_sparse_agent_blocked_by_an_arrived_agent_ends_the_round(self):
        # at the shortest-path total, agent 1 holds its goal from step 1 on;
        # agent 2's candidate crosses it at step 2, and no walk avoids it
        inst = corridor_instance()
        stats = SolveStats()
        solve = sat_solve(inst, stats=stats)
        assert solve.round(5) is None
        assert all(solve.candidates[a.id] is None for a in inst.agents)
        assert (stats.iterations, stats.sat_calls) == ([], 0)

    def test_a_candidate_clear_of_the_bans_needs_no_search(self, fix_b, monkeypatch):
        # each shortest path ends on its own goal at the bound, the step from
        # which that goal is held: an agent's own goal is never banned for it
        searched = []
        monkeypatch.setattr(solvers, "constrained_shortest_path",
                            lambda *args, **kwargs: searched.append(args))
        assert sat_solve(fix_b).round(4) is not None
        assert searched == []

    def test_single_agent_immediate(self, fix_a):
        solve = sat_solve(fix_a)
        solution = solve.round(2)
        assert solution.paths[0].positions == ("v1", "v2", "v3")
        assert solve.met == []

    def test_unsat_over_sparse_sets_promotes_all_agents(self, fix_b):
        # a pre-recorded collision makes the single-candidate model UNSAT even
        # though the instance is solvable at these bounds
        solve = sat_solve(fix_b)
        solve.met.append(Collision("vertex", ("a1", "a2"), "v01", 1))
        solution = solve.round(4)
        assert solution is not None
        assert sum_of_costs(fix_b, solution) == 4
        assert all(solve.candidates[a.id] is None for a in fix_b.agents)

    def test_only_colliding_agents_grow(self, fix_b):
        # a3 has a road of its own and never collides: it keeps its one path
        g = Graph(
            [*fix_b.graph.vertices, "w1", "w2", "w3"],
            [("v00", "v01"), ("v01", "v11"), ("v11", "v10"), ("v10", "v00"),
             ("w1", "w2"), ("w2", "w3")],
        )
        inst = MapfInstance(g, [*fix_b.agents, Agent("a3", "w1", "w3")])
        solve = sat_solve(inst)
        solution = solve.round(6)
        candidates = solve.candidates
        assert sum_of_costs(inst, solution) == 6
        assert candidates["a3"] is not None
        assert candidates["a3"] == [Path("a3", ("w1", "w2", "w3"))]

    @pytest.mark.parametrize("extend", ["and", "or"])
    def test_only_an_agent_with_nothing_new_moves_to_its_full_diagram(self, extend):
        # a1 and a2 meet at m at t=1; a1 has no other way at its bound, a2
        # can go round through w, and a3 is on a road of its own
        g = Graph(["s1", "m", "g1", "s2", "w", "g2", "x1", "x2"],
                  [("s1", "m"), ("m", "g1"), ("s2", "m"), ("m", "g2"), ("s2", "w"),
                   ("w", "g2"), ("x1", "x2")])
        inst = MapfInstance(g, [Agent("a1", "s1", "g1"), Agent("a2", "s2", "g2"),
                                Agent("a3", "x1", "x2")])
        stats = SolveStats()
        solve = sat_solve(inst, extend, stats)
        candidates = solve.candidates
        assert [p.positions for p in candidates["a2"]] == [("s2", "m", "g2")]
        solution = solve.round(5)
        assert validate_solution(inst, solution) == []
        assert candidates["a1"] is None
        assert [p.positions for p in candidates["a2"]] == [("s2", "m", "g2"),
                                                           ("s2", "w", "g2")]
        assert [p.positions for p in candidates["a3"]] == [("x1", "x2")]
        assert [it.full_mdd for it in stats.iterations] == [(False, False, False),
                                                           (True, False, False)]

    @pytest.mark.parametrize("extend", ["and", "or"])
    def test_an_agent_whose_diagram_represents_every_avoider_is_promoted(
            self, extend, fix_d_graph, fix_d_paths):
        # off v6 at 1 and v4 at 3 ax has the combined path v1 v2 v3 v7 v5,
        # which is no candidate but every step of which the diagram represents
        inst = MapfInstance(fix_d_graph, [Agent("ax", "v1", "v5"), Agent("ay", "v7", "v6")])
        solve = sat_solve(inst, extend)
        solve.candidates = {"ax": list(fix_d_paths), "ay": None}
        diagrams = {"ax": build_smdd("ax", fix_d_paths, 4)}
        solve.met += [Collision("vertex", ("ax", "ay"), "v6", 1),
                      Collision("vertex", ("ax", "ay"), "v4", 3)]
        assert solve._grow(diagrams, solve.met)
        assert solve.candidates == {"ax": None, "ay": None}


class TestOptimalityAgreement:
    def test_solvers_match_oracle_on_random_instances(self):
        rng = random.Random(606)
        for _ in range(12):
            inst = random_grid_instance(rng)
            cap = xi_sum(inst) + 4
            oracle = brute_force_oracle(inst, cap)
            for algo, fn in ALGORITHMS.items():
                out = fn(inst, SolverConfig(timeout_s=60, cost_cap=cap))
                assert out.status == oracle.status, algo
                assert out.soc == oracle.soc, algo
                if out.solution is not None:
                    assert validate_solution(inst, out.solution) == []

    def test_solvers_match_oracle_with_goals_in_one_cell_corridors(self, monkeypatch):
        # one open row between two walls with a few openings; every goal lies
        # on a row cell with walls above and below, so an agent standing on
        # its goal blocks the row
        def goal_corridor_instance(rng):
            narrow = []
            while len(narrow) < 3:
                width = rng.randint(4, 7)
                walls = [["@"] * width for _ in range(2)]
                for _ in range(rng.randint(1, 3)):
                    walls[rng.randint(0, 1)][rng.randrange(width)] = "."
                narrow = [width + x for x in range(width) if walls[0][x] == walls[1][x] == "@"]
            rows = ["".join(walls[0]), "." * width, "".join(walls[1])]
            graph = parse_map("\n".join(["type octile", "height 3", f"width {width}", "map",
                                         *rows]))
            k = rng.randint(2, 3)
            goals = rng.sample(narrow, k)
            starts = rng.sample(graph.vertices, k)
            return MapfInstance(graph, [Agent(i + 1, s, g)
                                        for i, (s, g) in enumerate(zip(starts, goals))])

        targets = Counter()
        branch_on = solvers._branch_on

        def counting(instance, collisions, constraints, paths, *args):
            chosen = branch_on(instance, collisions, constraints, paths, *args)
            targets["branches"] += 1
            targets["on a goal after arrival"] += chosen.kind == "vertex" and any(
                chosen.t >= path_cost(paths[a], instance.agent(a).goal) for a in chosen.agents)
            return chosen

        monkeypatch.setattr(solvers, "_branch_on", counting)
        rng = random.Random(2111)
        for _ in range(25):
            inst = goal_corridor_instance(rng)
            cap = xi_sum(inst) + 4
            oracle = brute_force_oracle(inst, cap)
            for algo, fn in ALGORITHMS.items():
                out = fn(inst, SolverConfig(timeout_s=60, cost_cap=cap))
                assert (out.status, out.soc) == (oracle.status, oracle.soc), algo
                if out.solution is not None:
                    assert validate_solution(inst, out.solution) == []
        assert targets["on a goal after arrival"] >= 50, targets

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_solvers_match_oracle_on_drawn_instances(self, seed):
        inst = random_grid_instance(random.Random(seed))
        cap = xi_sum(inst) + 3
        oracle = brute_force_oracle(inst, cap)

        def compare(algo):
            out = ALGORITHMS[algo](inst, SolverConfig(timeout_s=60, cost_cap=cap))
            assert (out.status, out.soc) == (oracle.status, oracle.soc), algo
            if out.solution is not None:
                assert validate_solution(inst, out.solution) == []
            return out

        for algo in ALGORITHMS:
            compare(algo)
        # again with every SAT solve through its bound loop
        with colliding_root():
            for algo in SAT_ALGORITHMS:
                out = compare(algo)
                assert not out.solved or out.stats.iterations, algo

    # (soc, sat_calls, conflicts, iterations) per SAT algorithm, pinned so
    # that a change to the shared loop cannot silently change the search
    PINNED = {
        "fix_b": {"mddsat": (4, 1, 0, 1), "smtcbs": (4, 2, 1, 1),
                  "sparse": (4, 3, 2, 3), "heuristic": (4, 3, 2, 3)},
        "fix_c": {"mddsat": (8, 3, 0, 3), "smtcbs": (8, 6, 3, 3),
                  "sparse": (8, 6, 3, 4), "heuristic": (8, 6, 3, 4)},
        0: {"mddsat": (8, 3, 0, 3), "smtcbs": (8, 7, 4, 3),
            "sparse": (8, 8, 4, 5), "heuristic": (8, 8, 4, 5)},
        1: {"mddsat": (9, 3, 0, 3), "smtcbs": (9, 14, 11, 3),
            "sparse": (9, 14, 11, 3), "heuristic": (9, 14, 11, 3)},
        2: {"mddsat": (4, 0, 0, 0), "smtcbs": (4, 0, 0, 0),
            "sparse": (4, 0, 0, 0), "heuristic": (4, 0, 0, 0)},
        3: {"mddsat": (13, 1, 0, 1), "smtcbs": (13, 3, 4, 1),
            "sparse": (13, 3, 4, 1), "heuristic": (13, 3, 4, 1)},
    }

    def test_sat_solvers_keep_pinned_search(self, fix_b, fix_c):
        rng = random.Random(606)
        instances = {"fix_b": fix_b, "fix_c": fix_c}
        instances.update((i, random_grid_instance(rng)) for i in range(4))
        for key, inst in instances.items():
            config = SolverConfig(timeout_s=60, cost_cap=xi_sum(inst) + 4)
            for algo, want in self.PINNED[key].items():
                out = ALGORITHMS[algo](inst, config)
                got = (out.soc, out.stats.sat_calls, out.stats.conflicts,
                       len(out.stats.iterations))
                assert got == want, (key, algo)

    # (soc, conflicts) of cbs on the same instances, pinned for the same reason
    CBS_PINNED = {"fix_b": (4, 1), "fix_c": (8, 4), 0: (8, 4), 1: (9, 12), 2: (4, 0),
                  3: (13, 3)}

    def test_cbs_keeps_pinned_search(self, fix_b, fix_c):
        rng = random.Random(606)
        instances = {"fix_b": fix_b, "fix_c": fix_c}
        instances.update((i, random_grid_instance(rng)) for i in range(4))
        for key, inst in instances.items():
            out = solve_cbs(inst, SolverConfig(timeout_s=60, cost_cap=xi_sum(inst) + 4))
            assert (out.soc, out.stats.conflicts) == self.CBS_PINNED[key], key

    def test_no_model_receives_a_conflict_clause_twice(self, fix_a, fix_b, fix_c,
                                                       monkeypatch):
        # conflict clauses are the only ones the encoder adds one at a time
        received: dict[CdclSolver, list[tuple[int, ...]]] = {}
        add_clause = CdclSolver.add_clause

        def recording(solver, lits):
            received.setdefault(solver, []).append(tuple(sorted(lits)))
            add_clause(solver, lits)

        monkeypatch.setattr(CdclSolver, "add_clause", recording)
        rng = random.Random(606)
        instances = [fix_a, fix_b, fix_c] + [random_grid_instance(rng) for _ in range(12)]
        for inst in instances:
            config = SolverConfig(timeout_s=60, cost_cap=xi_sum(inst) + 4)
            for algo in ("smtcbs", "sparse", "heuristic"):
                ALGORITHMS[algo](inst, config)
        clauses = [c for per_model in received.values() for c in per_model]
        assert len(clauses) > 100
        for per_model in received.values():
            assert len(set(per_model)) == len(per_model)

    def test_every_conflict_clause_is_the_clause_of_a_collision_met(self, fix_a, fix_b,
                                                                     fix_c, monkeypatch):
        # a clause over the pair that collided, of the collision's kind and
        # entry, in the model that met it and in every later model
        received: dict[CdclSolver, list[tuple[int, ...]]] = {}
        add_clause = CdclSolver.add_clause

        def recording(solver, lits):
            received.setdefault(solver, []).append(tuple(sorted(lits)))
            add_clause(solver, lits)

        models, met = [], []
        build_model, validate = solvers.build_model, solvers.validate_solution

        def building(*args, **kwargs):
            models.append(build_model(*args, **kwargs))
            return models[-1]

        def validating(instance, solution):
            collisions = validate(instance, solution)
            met.extend(collisions)
            return collisions

        shortest_root = solvers._shortest_root

        def rooting(instance, distances):
            root = shortest_root(instance, distances)
            met.clear()  # the check of the shortest paths met no collision in a model
            return root

        monkeypatch.setattr(CdclSolver, "add_clause", recording)
        monkeypatch.setattr(solvers, "build_model", building)
        monkeypatch.setattr(solvers, "validate_solution", validating)
        monkeypatch.setattr(solvers, "_shortest_root", rooting)

        def clause(model, col):
            x, (ai, aj), t = model.x, col.agents, col.t
            if col.kind == "vertex":
                lits = (x.get((ai, col.location, t)), x.get((aj, col.location, t)))
            else:
                u, v = col.location
                lits = (x.get((ai, u, t)), x.get((ai, v, t + 1)), x.get((aj, v, t)),
                        x.get((aj, u, t + 1)))
            return None if None in lits else tuple(sorted(-lit for lit in lits))

        rng = random.Random(606)
        instances = [fix_a, fix_b, fix_c] + [random_grid_instance(rng) for _ in range(12)]
        checked = 0
        for inst in instances:
            config = SolverConfig(timeout_s=60, cost_cap=xi_sum(inst) + 4)
            for algo in ("smtcbs", "sparse", "heuristic"):
                models.clear(), met.clear(), received.clear()
                out = ALGORITHMS[algo](inst, config)
                assert out.stats.conflicts == len(met) == len(set(met)), (algo, inst)
                for model in models:
                    allowed = {clause(model, col) for col in met}
                    for lits in received.get(model.solver, []):
                        assert lits in allowed, (algo, inst, lits)
                        checked += 1
        assert checked > 100

    def test_conflict_sets_only_grow(self, fix_c, monkeypatch):
        # the collisions met as each round starts and ends: each snapshot is a
        # prefix of the next, and the last is every collision the solve counted
        real, snapshots = _SatSolve.round, []

        def snapshot(solve, soc):
            snapshots.append(list(solve.met))
            solution = real(solve, soc)
            snapshots.append(list(solve.met))
            return solution

        monkeypatch.setattr(_SatSolve, "round", snapshot)
        for algo in ("sparse", "heuristic"):
            snapshots.clear()
            out = ALGORITHMS[algo](fix_c, QUICK)
            assert out.soc == 8, algo
            # rounds at SOC 6, 7 and 8, and the first meets a collision
            assert len(snapshots) == 6 and snapshots[1], algo
            for before, after in zip(snapshots, snapshots[1:]):
                assert after[:len(before)] == before, algo
            assert out.stats.conflicts == len(snapshots[-1]), algo


class TestTimeoutAndConfig:
    def test_tiny_timeout_reports_timeout(self):
        rng = random.Random(3)
        inst = random_grid_instance(rng, max_side=4, agents=(3, 3))
        out = solve_mdd_sat(inst, SolverConfig(timeout_s=1e-9))
        assert out.status == TIMEOUT
        assert out.solution is None
        assert out.soc is None

    @pytest.mark.parametrize("algo", ["mddsat", "smtcbs", "sparse", "heuristic"])
    def test_hard_instance_times_out_within_the_slack(self, algo):
        graph = parse_map((HARD / "open8.map").read_text())
        inst = build_instance(graph, parse_scen((HARD / "open8-26.scen").read_text()), 26)
        start = time.perf_counter()
        out = ALGORITHMS[algo](inst, SolverConfig(timeout_s=1.0))
        wall = time.perf_counter() - start
        assert out.status == TIMEOUT
        assert out.stats.runtime_s <= wall <= 1.0 + DEADLINE_SLACK_S

    def test_invalid_timeout_rejected(self):
        for timeout in (0, float("nan")):
            with pytest.raises(ValueError):
                SolverConfig(timeout_s=timeout)

    def test_infinite_timeout_means_no_limit(self, fix_b):
        out = solve_mdd_sat(fix_b, SolverConfig(timeout_s=float("inf")))
        assert out.status == SOLVED and out.soc == 4

    def test_cost_cap_below_shortest_total_rejected(self, fix_b):
        with pytest.raises(ValueError):
            solve_mdd_sat(fix_b, SolverConfig(cost_cap=3))


def test_solution_json_shape(fix_b):
    out = solve_heuristic_smt_cbs(fix_b, QUICK)
    payload = solution_json("fixB:2", "heuristic", out)
    assert payload["instance"] == "fixB:2"
    assert payload["status"] == SOLVED
    assert payload["soc"] == 4
    assert payload["makespan"] == out.solution.horizon
    assert len(payload["paths"]) == 2
    stats = payload["stats"]
    assert list(stats) == ["sat_calls", "conflicts", "iterations", "runtime_s"]
    assert stats["sat_calls"] >= 1
    assert stats["iterations"] == [
        {"soc": it.soc, "horizon": it.horizon, "nodes_per_agent": it.nodes_per_agent,
         "full_mdd": it.full_mdd} for it in out.stats.iterations]
    assert json.loads(json.dumps(stats))["iterations"][0]["nodes_per_agent"] == list(
        out.stats.iterations[0].nodes_per_agent)


def test_stats_runtime_is_recorded(fix_a):
    out = solve_cbs(fix_a, QUICK)
    assert out.stats.runtime_s >= 0.0
    assert isinstance(out.stats, SolveStats)


def test_complete_model_collision_is_a_soundness_error(fix_b, monkeypatch):
    # a collision in a complete model's answer is an encoding bug, not a
    # conflict to add lazily
    fake = Collision("vertex", ("a1", "a2"), "v01", 1)
    monkeypatch.setattr(solvers, "validate_solution", lambda inst, sol: [fake])
    with pytest.raises(EncodingSoundnessError):
        solve_mdd_sat(fix_b, QUICK)


@pytest.mark.parametrize("algo", ["mddsat", "smtcbs", "sparse", "heuristic"])
def test_a_bound_blocked_by_an_arrived_agent_costs_no_model(algo):
    inst = corridor_instance()
    soc0 = xi_sum(inst)
    oracle = brute_force_oracle(inst, soc0 + 4)
    out = ALGORITHMS[algo](inst, QUICK)
    assert out.soc == solve_cbs(inst, QUICK).soc == oracle.soc == soc0 + 2
    # both lower bounds end on an agent with no walk clear of the other's goal
    assert [it.soc for it in out.stats.iterations] == [soc0 + 2]


@pytest.mark.parametrize("algo", ["mddsat", "smtcbs", "sparse", "heuristic"])
def test_reported_soc_is_the_bound_the_loop_proved(algo, fix_a, fix_b, fix_c):
    # fix_a's one shortest path collides with nothing: no round, and its cost
    out = ALGORITHMS[algo](fix_a, QUICK)
    assert (out.soc, out.stats.iterations) == (xi_sum(fix_a), [])
    for inst in (fix_b, fix_c):
        out = ALGORITHMS[algo](inst, QUICK)
        assert out.soc == out.stats.iterations[-1].soc


@pytest.mark.parametrize("algo", ["mddsat", "smtcbs", "sparse", "heuristic"])
def test_revalidate_catches_a_wrongly_unsat_lower_bound(algo, fix_b, monkeypatch):
    # on fix_b's cycle a2 stands on its goal v01, which a1's shortest path
    # crosses, so the loop runs; its first round answers "no solution"
    # although cost 2 is feasible (a1 goes round by v10): the loop then
    # solves at bound 3 and reports 3, while the paths cost 2
    inst = MapfInstance(fix_b.graph, [Agent("a1", "v00", "v11"), Agent("a2", "v01", "v01")])
    real, rounds = _SatSolve.round, []

    def unsat_first(solve, soc):
        rounds.append(None)
        return None if len(rounds) == 1 else real(solve, soc)

    monkeypatch.setattr(_SatSolve, "round", unsat_first)
    out = ALGORITHMS[algo](inst, QUICK)
    assert (out.status, out.soc) == (SOLVED, 3)
    assert sum_of_costs(inst, out.solution) == 2
    with pytest.raises(EncodingSoundnessError):
        solvers.revalidate(inst, out)


@pytest.mark.parametrize("algo", ["mddsat", "smtcbs", "sparse", "heuristic"])
def test_each_solve_starts_from_fresh_loop_state(algo, fix_b, fix_c, monkeypatch):
    # candidate sets and collisions met belong to one solve: each solve's
    # state starts as its algorithm's first, and solving the same instances
    # again, in the same order, repeats every answer and counter
    starts, made = [], _SatSolve.__post_init__

    def recording(solve, roots):
        made(solve, roots)
        starts.append((solve.instance, solve.extend, copy.deepcopy(solve.candidates),
                       list(solve.met)))

    monkeypatch.setattr(_SatSolve, "__post_init__", recording)
    rng = random.Random(606)
    instances = [fix_b, fix_c, random_grid_instance(rng)]

    def runs():
        outs = [ALGORITHMS[algo](inst, QUICK) for inst in instances]
        return [(out.status, out.soc, out.solution.paths, out.stats.sat_calls,
                 out.stats.conflicts, out.stats.iterations) for out in outs]

    first = runs()
    assert first == runs()
    # the incomplete models meet collisions, so there is state to carry over
    assert algo == "mddsat" or any(conflicts for *_, conflicts, _ in first)
    assert len(starts) == 2 * len(instances)
    for inst, extend, candidates, met in starts:
        fresh = (dict.fromkeys(a.id for a in inst.agents) if extend is None
                 else {a.id: [pathing.shortest_path(inst, a.id, Distances(inst.graph))]
                       for a in inst.agents})
        assert (candidates, met) == (fresh, [])


def collision_free_draws(n: int) -> list[MapfInstance]:
    """The first `n` draws of `random_grid_instance` from seed 606 on which
    the agents' shortest paths collide nowhere."""
    rng, draws = random.Random(606), []
    while len(draws) < n:
        inst = random_grid_instance(rng)
        if not solvers._shortest_root(inst, Distances(inst.graph))[1]:
            draws.append(inst)
    return draws


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_shortest_paths_that_collide_nowhere_are_solved_with_no_model(algo, fix_a,
                                                                      monkeypatch):
    # their total is a lower bound that they meet, so they are optimal: `_run`
    # returns CBS's root at that total for every algorithm, and neither
    # searches nor builds anything
    def unbuilt(*args, **kwargs):
        raise AssertionError("no search, diagram or model for collision-free shortest paths")

    for name in ("build_mdd", "build_smdd", "build_model", "_cbs", "_lazy_solve"):
        monkeypatch.setattr(solvers, name, unbuilt)
    for inst in [fix_a, *collision_free_draws(12)]:
        out = ALGORITHMS[algo](inst, QUICK)
        assert (out.status, out.soc) == (SOLVED, xi_sum(inst))
        assert (out.stats.sat_calls, out.stats.conflicts, out.stats.iterations) == (0, 0, [])
        solvers.revalidate(inst, out)
        assert out.solution.paths == solve_cbs(inst, QUICK).solution.paths


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_each_solve_finds_the_shortest_paths_once(algo, fix_b, fix_c, monkeypatch):
    # `_run` finds the root once and hands its paths on: neither CBS nor the
    # SAT loop searches an agent's unconstrained shortest path again
    rng, colliding = random.Random(606), None
    while colliding is None:
        inst = random_grid_instance(rng)
        if solvers._shortest_root(inst, Distances(inst.graph))[1]:
            colliding = inst
    calls = []
    shortest_path = solvers.shortest_path

    def counting(instance, agent_id, distances):
        calls.append(agent_id)
        return shortest_path(instance, agent_id, distances)

    monkeypatch.setattr(solvers, "shortest_path", counting)
    for inst in (fix_b, fix_c, colliding):
        calls.clear()
        out = ALGORITHMS[algo](inst, QUICK)
        assert out.solved and out.stats.conflicts + out.stats.sat_calls > 0  # it searched
        assert calls == [a.id for a in inst.agents]


@pytest.mark.parametrize("algo", ["sparse", "heuristic"])
def test_guided_loop_answers_collision_free_shortest_paths_with_them(algo, fix_a):
    # with the shortcut forced off, the guided algorithms' first model has
    # only the shortest paths to choose from: one SAT call answers them
    for inst in [fix_a, *collision_free_draws(12)]:
        with colliding_root():
            out = ALGORITHMS[algo](inst, QUICK)
        assert (out.soc, out.stats.sat_calls, len(out.stats.iterations)) == (xi_sum(inst), 1, 1)
        assert out.solution.paths == solve_cbs(inst, QUICK).solution.paths


def test_distance_tables_come_from_goals_once_per_solve(fix_c, monkeypatch):
    # the graph is undirected, so each goal's table also gives every start's
    # cost: one table per goal, shared by every layer of the solve, and none
    # from a start; the same tables on a second solve show none outlived the
    # first
    sources = []
    real = pathing.bfs_distances

    def recording(graph, source):
        sources.append(source)
        return real(graph, source)

    for module in (pathing, diagrams, encoding, solvers):
        monkeypatch.setattr(module, "bfs_distances", recording)
    rng = random.Random(606)
    instances = [fix_c, *(random_grid_instance(rng) for _ in range(4))]
    for inst in instances:
        goals = {a.goal for a in inst.agents}
        for algo, solve in ALGORITHMS.items():
            runs = []
            for _ in range(2):
                sources.clear()
                assert solve(inst, QUICK).solved
                runs.append(list(sources))
            assert runs[0], algo
            assert set(runs[0]) <= goals, algo
            assert len(set(runs[0])) == len(runs[0]), algo
            assert runs[1] == runs[0], algo


STRING_GRID_SOLVE = """
import json, random
from mapfsat import ALGORITHMS, Agent, Graph, MapfInstance, SolverConfig
cells = [f"r{y}c{x}" for y in range(5) for x in range(5)]
edges = [(f"r{y}c{x}", f"r{y}c{x + 1}") for y in range(5) for x in range(4)]
edges += [(f"r{y}c{x}", f"r{y + 1}c{x}") for y in range(4) for x in range(5)]
rng = random.Random(1)
starts, goals = rng.sample(cells, 8), rng.sample(cells, 8)
agents = [Agent(i + 1, s, g) for i, (s, g) in enumerate(zip(starts, goals))]
instance = MapfInstance(Graph(cells, edges), agents)
answers = {}
for name, solve in sorted(ALGORITHMS.items()):
    out = solve(instance, SolverConfig(timeout_s=60))
    answers[name] = [out.soc, out.stats.sat_calls, out.stats.conflicts,
                     [p.positions for p in out.solution.paths]]
print(json.dumps(answers))
"""


def test_string_id_solves_do_not_depend_on_hash_seed():
    """String ids hash differently under every PYTHONHASHSEED; no emission
    may read that order, so soc, counters and paths must all agree."""
    package_root = str(FsPath(mapfsat.__file__).resolve().parent.parent)
    answers = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        run = subprocess.run([sys.executable, "-c", STRING_GRID_SOLVE], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        answers.append(json.loads(run.stdout))
    assert set(answers[0]) == set(ALGORITHMS)
    assert all(soc is not None for soc, *_ in answers[0].values())
    assert answers[1] == answers[0] and answers[2] == answers[0]
