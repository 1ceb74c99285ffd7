"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path as FsPath

import pytest

from mapfsat import (
    ALGORITHMS,
    UNREACHED,
    COMPLETE,
    INCOMPLETE,
    Agent,
    Distances,
    Graph,
    MapfInstance,
    Path,
    SolverConfig,
    bfs_distances,
    build_instance,
    build_mdd,
    build_model,
    build_smdd,
    parse_map,
    parse_scen,
    solve_heuristic_smt_cbs,
    solve_smt_cbs,
    validate_solution,
)
from mapfsat.diagrams import EmptyDiagramError, goal_bans
from mapfsat.bench import read_csv, run_benchmark, sorted_runtimes, success_rate, write_csv
from conftest import SAT_ALGORITHMS, colliding_root, random_grid_instance
from oracle import brute_force_oracle, diagram_walks

SUITE = FsPath(__file__).parent / "data" / "suite8x8"


def check(criterion: int, label: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {label}")
    assert ok, f"criterion {criterion}: {label}"


@pytest.fixture(scope="module")
def random_batch():
    """>= 100 randomized connected solvable instances with their oracle optima."""
    rng = random.Random(20260810)
    batch = []
    while len(batch) < 100:
        inst = random_grid_instance(rng, max_side=4, max_obstacle_share=0.3, agents=(2, 3))
        cap = sum(
            bfs_distances(inst.graph, a.start)[a.goal] for a in inst.agents
        ) + 4
        oracle = brute_force_oracle(inst, cap)
        if not oracle.solved:
            continue  # the criterion compares against an existing optimum
        batch.append((inst, oracle, cap))
    return batch


def fixture_a():
    g = Graph(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3")])
    return MapfInstance(g, [Agent("a1", "v1", "v3")])


def fixture_b():
    g = Graph(
        ["v00", "v01", "v10", "v11"],
        [("v00", "v01"), ("v01", "v11"), ("v11", "v10"), ("v10", "v00")],
    )
    return MapfInstance(g, [Agent("a1", "v00", "v11"), Agent("a2", "v11", "v00")])


def fixture_c():
    g = Graph(
        ["v1", "v2", "v3", "v4", "v5"],
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v2", "v5")],
    )
    return MapfInstance(g, [Agent("a1", "v1", "v4"), Agent("a2", "v4", "v1")])


def test_criterion_1_oracle_equivalence(random_batch):
    t0 = time.perf_counter()
    failures = []

    def compare(idx, inst, oracle, cap, algo):
        out = ALGORITHMS[algo](inst, SolverConfig(timeout_s=120, cost_cap=cap))
        if out.status != "solved" or out.soc != oracle.soc:
            failures.append((idx, algo, out.status, out.soc, oracle.soc))
        elif validate_solution(inst, out.solution):
            failures.append((idx, algo, "collisions", None, None))
        return out

    for idx, (inst, oracle, cap) in enumerate(random_batch):
        for algo in ALGORITHMS:
            compare(idx, inst, oracle, cap, algo)
    # again with every SAT solve through its bound loop, where the shortest
    # paths that collide nowhere would end it with no model
    with colliding_root():
        for idx, (inst, oracle, cap) in enumerate(random_batch):
            for algo in SAT_ALGORITHMS:
                if not compare(idx, inst, oracle, cap, algo).stats.iterations:
                    failures.append((idx, algo, "no model", None, None))
    elapsed = time.perf_counter() - t0
    check(
        1,
        f"all five solvers matched the oracle on {len(random_batch)} random "
        f"instances, and the four SAT solvers again with no shortcut past their "
        f"bound loop, in {elapsed:.1f}s ({len(failures)} disagreements)",
        not failures and elapsed < 300,
    )


def test_criterion_2_sparse_diagram_example():
    paths = [
        Path("ax", ("v1", "v2", "v3", "v4", "v5")),
        Path("ax", ("v1", "v6", "v3", "v7", "v5")),
    ]
    smdd = build_smdd("ax", paths, 4)
    represented = len(diagram_walks(smdd, smdd.horizon))
    ok = (
        smdd.node_count == 7
        and smdd.edge_count == 8
        and represented == 4
    )
    check(
        2,
        f"two-path sparse diagram has {smdd.node_count} nodes, "
        f"{smdd.edge_count} edges, represents {represented} paths",
        ok,
    )


def test_criterion_3_fixture_optima():
    recomputed_c = brute_force_oracle(fixture_c(), 14).soc
    expected = {"A": 2, "B": 4, "C": recomputed_c}
    results = {}
    ok = recomputed_c == 8
    for name, inst in (("A", fixture_a()), ("B", fixture_b()), ("C", fixture_c())):
        for algo, fn in ALGORITHMS.items():
            out = fn(inst, SolverConfig(timeout_s=60))
            results[(name, algo)] = out.soc
            ok = ok and out.status == "solved" and out.soc == expected[name]
    check(3, f"fixture optima A=2 B=4 C={recomputed_c} across all five solvers", ok)


def test_criterion_4_sparsification(random_batch):
    soc_floor = lambda inst: sum(
        bfs_distances(inst.graph, a.start)[a.goal] for a in inst.agents
    )
    violations = 0
    compared = 0
    modelled = 0
    for inst, oracle, cap in random_batch:
        distances = Distances(inst.graph)
        sparse = solve_heuristic_smt_cbs(inst, SolverConfig(timeout_s=120, cost_cap=cap))
        eager = solve_smt_cbs(inst, SolverConfig(timeout_s=120, cost_cap=cap))
        base = soc_floor(inst)
        for it in sparse.stats.iterations:
            delta = it.soc - base
            for idx, agent in enumerate(inst.agents):
                if it.full_mdd[idx]:
                    continue
                compared += 1
                xi = bfs_distances(inst.graph, agent.start)[agent.goal]
                full = build_mdd(inst, agent.id, xi + delta, distances)
                if it.nodes_per_agent[idx] > full.node_count:
                    violations += 1
        # both skip the model exactly when the shortest paths collide nowhere
        if bool(sparse.stats.iterations) != bool(eager.stats.iterations):
            violations += 1
        elif sparse.stats.iterations:
            modelled += 1
            if (
                sum(sparse.stats.iterations[0].nodes_per_agent)
                > sum(eager.stats.iterations[0].nodes_per_agent)
            ):
                violations += 1
    check(
        4,
        f"sparse diagrams stayed within full diagrams on {compared} agent-iterations, "
        f"both algorithms built a model on the same {modelled} instances, and there "
        f"first-iteration models never used more decision variables "
        f"({violations} violations)",
        violations == 0,
    )


def connected_graphs(n: int) -> list[Graph]:
    verts = list(range(n))
    all_edges = list(itertools.combinations(verts, 2))
    out = []
    for mask in range(1 << len(all_edges)):
        edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
        g = Graph(verts, edges)
        dist = bfs_distances(g, 0)
        if all(dist[v] != UNREACHED for v in verts):
            out.append(g)
    return out


def canonical_larger_graphs() -> list[Graph]:
    path5 = Graph(range(5), [(i, i + 1) for i in range(4)])
    cycle5 = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    star5 = Graph(range(5), [(0, i) for i in range(1, 5)])
    spur5 = Graph(range(5), [(0, 1), (1, 2), (2, 3), (1, 4)])
    path6 = Graph(range(6), [(i, i + 1) for i in range(5)])
    cycle6 = Graph(range(6), [(i, (i + 1) % 6) for i in range(6)])
    grid23 = Graph(range(6), [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    return [path5, cycle5, star5, spur5, path6, cycle6, grid23]


def test_criterion_5_model_definitions():
    """Complete model <=> solvability and incomplete model <= solvability.

    Exhaustive over every labeled connected graph on 2..4 vertices plus a
    canonical family of 5- and 6-vertex graphs (paths, cycles, stars, a spur,
    a 2x3 grid), over every ordered two-agent configuration with distinct
    starts, distinct goals and reachable goals, for slack 0, 1 and 2.
    """
    graphs = [g for n in (2, 3, 4) for g in connected_graphs(n)]
    graphs += canonical_larger_graphs()
    cases = mismatches = 0
    for g in graphs:
        n = g.vertex_count
        distances = Distances(g)
        for s1, s2 in itertools.permutations(range(n), 2):
            for g1, g2 in itertools.permutations(range(n), 2):
                inst = MapfInstance(g, [Agent(1, s1, g1), Agent(2, s2, g2)])
                xi = [bfs_distances(g, a.start)[a.goal] for a in inst.agents]
                if any(x == UNREACHED for x in xi):
                    continue
                costs = {a.id: x for a, x in zip(inst.agents, xi)}
                soc0 = sum(xi)
                oracle = brute_force_oracle(inst, soc0 + 2)
                opt = oracle.soc if oracle.solved else None
                for delta in (0, 1, 2):
                    cases += 1
                    soc = soc0 + delta
                    diagrams = {
                        a.id: build_mdd(inst, a.id, xi[i] + delta, distances)
                        for i, a in enumerate(inst.agents)
                    }
                    complete = build_model(inst, diagrams, [], soc, COMPLETE, costs)
                    sat = complete.solve() is not None
                    solvable = opt is not None and opt <= soc
                    if sat != solvable:
                        mismatches += 1
                    if solvable:
                        incomplete = build_model(inst, diagrams, [], soc, INCOMPLETE, costs)
                        if incomplete.solve() is None:
                            mismatches += 1
    check(
        5,
        f"complete-model equivalence and incomplete-model implication held on "
        f"{cases} graph/configuration/slack cases ({mismatches} mismatches)",
        cases > 10000 and mismatches == 0,
    )


def test_goal_bans_keep_criterion_5():
    """Goal bans lose no solution on criterion 5's graphs and configurations.

    Under each slack 0, 1 and 2, the full diagrams leave out the goal cells
    that arrived agents hold (`goal_bans`). Where that leaves an agent no
    walk, the brute-force oracle finds no solution within the bound; else the
    complete model over the banned diagrams is SAT exactly when it finds one.
    """
    graphs = [g for n in (2, 3, 4) for g in connected_graphs(n)]
    graphs += canonical_larger_graphs()
    cases = empty = mismatches = 0
    for g in graphs:
        n = g.vertex_count
        distances = Distances(g)
        for s1, s2 in itertools.permutations(range(n), 2):
            for g1, g2 in itertools.permutations(range(n), 2):
                inst = MapfInstance(g, [Agent(1, s1, g1), Agent(2, s2, g2)])
                costs = {a.id: distances.dist(a.goal)[a.start] for a in inst.agents}
                if UNREACHED in costs.values():
                    continue
                soc0 = sum(costs.values())
                oracle = brute_force_oracle(inst, soc0 + 2)
                for delta in (0, 1, 2):
                    cases += 1
                    soc = soc0 + delta
                    solvable = oracle.solved and oracle.soc <= soc
                    bounds = {aid: cost + delta for aid, cost in costs.items()}
                    bans = goal_bans(inst, bounds)
                    try:
                        diagrams = {a.id: build_mdd(inst, a.id, bounds[a.id], distances,
                                                    bans[a.id])
                                    for a in inst.agents}
                    except EmptyDiagramError:
                        empty += 1
                        mismatches += solvable
                        continue
                    complete = build_model(inst, diagrams, [], soc, COMPLETE, costs)
                    mismatches += (complete.solve() is not None) != solvable
    check(
        5,
        f"goal bans: {empty} of {cases} graph/configuration/slack cases proved "
        f"infeasible by an empty diagram, the rest decided by the complete model "
        f"over banned diagrams ({mismatches} mismatches)",
        cases > 10000 and empty > 0 and mismatches == 0,
    )


def test_criterion_6_infeasibility():
    g = Graph(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3")])
    inst = MapfInstance(g, [Agent("a1", "v1", "v3"), Agent("a2", "v3", "v1")])
    slow = []
    for algo, fn in ALGORITHMS.items():
        t0 = time.perf_counter()
        out = fn(inst, SolverConfig(timeout_s=30))
        elapsed = time.perf_counter() - t0
        if out.status != "infeasible-at-cap" or elapsed >= 1.0:
            slow.append((algo, out.status, elapsed))
    check(
        6,
        "head-on swap across a path graph is infeasible-at-cap for all five "
        "solvers within 1 s",
        not slow,
    )


def test_criterion_7_harness_smoke(tmp_path):
    t0 = time.perf_counter()
    records = run_benchmark(
        SUITE, sorted(ALGORITHMS), [4], per_count=10, timeout_s=128.0
    )
    elapsed = time.perf_counter() - t0
    ok = len(records) == 50
    rates = {}
    for algo in ALGORITHMS:
        rates[algo] = success_rate(records, algo, 4)
        ok = ok and rates[algo] == 1.0
        cactus = sorted_runtimes(records, algo)
        ok = ok and len(cactus) == 10 and cactus == sorted(cactus)
    csv_path = tmp_path / "bench.csv"
    write_csv(records, csv_path)
    ok = ok and read_csv(csv_path) == records
    ok = ok and elapsed < 120
    check(
        7,
        f"bundled 8x8 suite: success rate 1.0 for every algorithm, well-formed "
        f"CSV and cactus data in {elapsed:.1f}s",
        ok,
    )


def test_bundled_suite_is_wellformed():
    graph = parse_map((SUITE / "open8.map").read_text())
    assert graph.vertex_count == 64
    for scen in sorted(SUITE.glob("*.scen")):
        specs = parse_scen(scen.read_text())
        assert len(specs) >= 4
        build_instance(graph, specs, 4)
