from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfsat import (
    COMPLETE,
    INCOMPLETE,
    Agent,
    CdclSolver,
    Collision,
    Distances,
    EncodingSoundnessError,
    Graph,
    MapfInstance,
    Path,
    Solution,
    add_conflict_clauses,
    bfs_distances,
    build_mdd,
    build_model,
    build_smdd,
    cardinality_le,
    extract_solution,
    path_cost,
    sum_of_costs,
    validate_solution,
)
from mapfsat.diagrams import Mdd
from mapfsat.instance import collision_key
from conftest import contains_path, random_grid_instance, scrambled_grid_instance
from oracle import brute_force_oracle, diagram_walks, pairwise_swap_clauses, walk_cost


class RecordingSolver(CdclSolver):
    """Keeps every clause it is given, in order, and each call's batch.

    `add_clause` hands its clause to `add_clauses`, so recording the batched
    path records both.
    """

    def __init__(self):
        super().__init__()
        self.clauses: list[list[int]] = []
        self.batches: list[list[list[int]]] = []

    def add_clauses(self, clauses):
        clauses = [list(lits) for lits in clauses]
        self.clauses.extend(clauses)
        self.batches.append(clauses)
        super().add_clauses(clauses)


def shortest_costs(instance):
    return {a.id: bfs_distances(instance.graph, a.start)[a.goal] for a in instance.agents}


def full_model(instance, delta=0, mode=INCOMPLETE, recorded=(), solver=None):
    xi = shortest_costs(instance)
    soc = sum(xi.values()) + delta
    distances = Distances(instance.graph)
    diagrams = {
        a.id: build_mdd(instance, a.id, xi[a.id] + delta, distances)
        for a in instance.agents
    }
    return build_model(instance, diagrams, recorded, soc, mode, xi, solver=solver)


class TestBuildModel:
    def test_single_agent_variable_counts(self, fix_a):
        model = full_model(fix_a)
        # one vertex per level, no slack indicators, and nothing else
        assert len(model.x) == 3
        assert len(model.c) == 0
        assert model.solver.num_vars == 3
        assert model.solve() is not None

    def test_no_variables_beyond_nodes_indicators_and_counters(self):
        rng = random.Random(31)
        widest = 0
        for _ in range(10):
            inst = random_grid_instance(rng)
            model = full_model(inst, delta=2)
            counter = CdclSolver()
            cardinality_le(counter, list(counter.new_vars(len(model.c))), 2, [])
            r = counter.num_vars - len(model.c)
            # no level takes a counter of its own, however wide; a goal tail
            # shares its settle node's variable
            assert model.solver.num_vars == len(set(model.x.values())) + len(model.c) + r
            widest = max(widest, *(len(level) for mdd in model.diagrams.values()
                                   for level in mdd.levels))
        assert widest > 5

    def test_forced_shared_vertex_is_unsat(self, fix_b):
        # single-candidate diagrams push both agents through v01 at step 1
        diagrams = {
            "a1": build_smdd("a1", [Path("a1", ("v00", "v01", "v11"))], 2),
            "a2": build_smdd("a2", [Path("a2", ("v11", "v01", "v00"))], 2),
        }
        model = build_model(fix_b, diagrams, [], 4, INCOMPLETE, shortest_costs(fix_b))
        assert model.solve() is not None  # no collision clause yet
        add_conflict_clauses(model, [Collision("vertex", ("a1", "a2"), "v01", 1)])
        assert model.solve() is None

    def test_complete_mode_yields_collision_free_solution(self, fix_b):
        oracle = brute_force_oracle(fix_b, 8)
        assert oracle.soc == 4
        model = full_model(fix_b, delta=0, mode=COMPLETE)
        assignment = model.solve()
        assert assignment is not None
        solution = extract_solution(model, assignment)
        assert validate_solution(fix_b, solution) == []
        assert sum_of_costs(fix_b, solution) == 4

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_unequal_horizons_compile_as_padded_ones(self, data):
        # each unbanned diagram ends at its agent's own bound; padded with goal
        # levels to the longest, the diagrams give the same variables, horizon
        # and clause stream, recorded collisions included: past its diagram's
        # end an agent still holds its goal against the others
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        mode = data.draw(st.sampled_from([INCOMPLETE, COMPLETE]), label="mode")
        delta = data.draw(st.integers(0, 2), label="delta")
        inst = random_grid_instance(rng)
        xi = shortest_costs(inst)
        horizon = max(xi.values()) + delta
        distances = Distances(inst.graph)
        own = {aid: build_mdd(inst, aid, xi[aid] + delta, distances) for aid in xi}
        padded = {aid: padded_diagram(mdd, horizon) for aid, mdd in own.items()}
        cells = list(inst.graph.vertices)
        moves = [(u, w) for u in cells for w in inst.graph.adjacency[u]]
        pairs = list(itertools.combinations(xi, 2))
        recorded = [Collision("vertex", rng.choice(pairs), rng.choice(cells),
                              rng.randint(0, horizon)) for _ in range(3 * len(xi))]
        recorded += [Collision("edge", rng.choice(pairs), rng.choice(moves),
                               rng.randint(0, horizon)) for _ in range(2 * len(xi))]
        soc = sum(xi.values()) + delta
        first, second = (build_model(inst, diagrams, recorded, soc, mode, xi,
                                     solver=RecordingSolver())
                         for diagrams in (own, padded))
        assert first.horizon == second.horizon == horizon
        assert list(first.x.items()) == list(second.x.items())
        assert first.solver.num_vars == second.solver.num_vars
        assert first.solver.clauses == second.solver.clauses

    def test_negative_slack_rejected(self, fix_b):
        distances = Distances(fix_b.graph)
        diagrams = {a.id: build_mdd(fix_b, a.id, 2, distances) for a in fix_b.agents}
        with pytest.raises(ValueError):
            build_model(fix_b, diagrams, [], 3, INCOMPLETE, shortest_costs(fix_b))


class TestAddConflictClauses:
    def test_vertex_collision_becomes_binary_clause(self, fix_b):
        model = full_model(fix_b, solver=RecordingSolver())
        before = model.solver.num_clauses
        add_conflict_clauses(model, [Collision("vertex", ("a1", "a2"), "v10", 1)])
        assert model.solver.num_clauses == before + 1
        x1 = model.x[("a1", "v10", 1)]
        x2 = model.x[("a2", "v10", 1)]
        assert sorted(model.solver.clauses[-1]) == sorted((-x1, -x2))

    def test_edge_collision_forbids_both_moves(self):
        g = Graph(["v1", "v2"], [("v1", "v2")])
        inst = MapfInstance(g, [Agent("a1", "v1", "v2"), Agent("a2", "v2", "v1")])
        model = full_model(inst, solver=RecordingSolver())
        add_conflict_clauses(model, [Collision("edge", ("a1", "a2"), ("v1", "v2"), 0)])
        # a1 at v1 then v2, and a2 at v2 then v1, are not all occupied
        nodes = [("a1", "v1", 0), ("a1", "v2", 1), ("a2", "v2", 0), ("a2", "v1", 1)]
        assert sorted(model.solver.clauses[-1]) == sorted(-model.x[n] for n in nodes)
        assert model.solve() is None

    def test_missing_node_skips_clause(self, fix_b):
        model = full_model(fix_b)
        before = model.solver.num_clauses
        # v10 at step 5 is outside every diagram at these bounds
        add_conflict_clauses(model, [Collision("vertex", ("a1", "a2"), "v10", 5)])
        assert model.solver.num_clauses == before

    def test_leaves_the_recorded_conflicts_unchanged(self, fix_b):
        recorded = [Collision("vertex", ("a1", "a2"), "v10", 1)]
        model = full_model(fix_b, recorded=recorded)
        add_conflict_clauses(model, [Collision("vertex", ("a1", "a2"), "v01", 1),
                                     Collision("edge", ("a1", "a2"), ("v00", "v01"), 0)])
        assert recorded == [Collision("vertex", ("a1", "a2"), "v10", 1)]

    def test_recorded_conflicts_reach_fresh_models(self, fix_b):
        rebuilt = full_model(fix_b, recorded=[Collision("vertex", ("a1", "a2"), "v01", 1)],
                             solver=RecordingSolver())
        x1 = rebuilt.x[("a1", "v01", 1)]
        x2 = rebuilt.x[("a2", "v01", 1)]
        assert any(
            sorted(c) == sorted((-x1, -x2)) for c in rebuilt.solver.clauses
        )

    def test_fresh_models_hold_one_clause_per_recorded_collision(self):
        # a1-a2 and a3-a4 meet at the centre at step 2, and swap across one
        # edge at step 2: a1 and a3, like a2 and a4, carry the same entries,
        # but only the pairs that collided get a clause, each collision one
        names = [f"v{x}{y}" for y in range(3) for x in range(3)]
        edges = ([(f"v{x}{y}", f"v{x + 1}{y}") for y in range(3) for x in range(2)]
                 + [(f"v{x}{y}", f"v{x}{y + 1}") for y in range(2) for x in range(3)])
        inst = MapfInstance(Graph(names, edges),
                            [Agent("a1", "v00", "v22"), Agent("a2", "v22", "v00"),
                             Agent("a3", "v20", "v02"), Agent("a4", "v02", "v20")])
        recorded = [Collision("vertex", ("a1", "a2"), "v11", 2),
                    Collision("vertex", ("a3", "a4"), "v11", 2),
                    Collision("edge", ("a1", "a2"), ("v10", "v11"), 2),
                    Collision("edge", ("a3", "a4"), ("v10", "v11"), 2)]
        base = full_model(inst, delta=2, solver=RecordingSolver())
        model = full_model(inst, delta=2, recorded=recorded, solver=RecordingSolver())
        x = model.x
        n = len(base.solver.clauses)
        assert model.solver.clauses[:n] == base.solver.clauses
        assert model.solver.clauses[n:] == [
            [-x[("a1", "v11", 2)], -x[("a2", "v11", 2)]],
            [-x[("a3", "v11", 2)], -x[("a4", "v11", 2)]],
            [-x[("a1", "v10", 2)], -x[("a1", "v11", 3)], -x[("a2", "v11", 2)],
             -x[("a2", "v10", 3)]],
            [-x[("a3", "v10", 2)], -x[("a3", "v11", 3)], -x[("a4", "v11", 2)],
             -x[("a4", "v10", 3)]],
        ]


def canonical(entries):
    return entries == sorted(entries)


def distinct_vars(model, agent):
    """Each distinct node variable of `agent` with the first key `(t, v)` that
    names it: a goal tail shares its settle node's variable."""
    first: dict[int, tuple] = {}
    for (a, v, t), var in model.x.items():
        if a == agent:
            first.setdefault(var, (t, v))
    return first


class TestEmissionOrder:
    """Node variables and clauses follow (t, u, v) order."""

    def test_node_variables_are_allocated_in_canonical_order(self):
        inst = scrambled_grid_instance()
        ordered = sorted(inst.graph.vertices)
        assert list(inst.graph.vertices) != ordered
        dist = bfs_distances(inst.graph, "q")
        assert sorted(inst.graph.vertices, key=lambda v: dist[v]) != ordered
        model = full_model(inst, delta=2, solver=RecordingSolver())
        for agent in ("a1", "a2", "a3"):
            by_var = sorted(distinct_vars(model, agent).items())
            assert len(by_var) > 10
            assert canonical([key for _, key in by_var])
            # contiguous from the start node
            assert [var for var, _ in by_var] == list(range(by_var[0][0],
                                                            by_var[0][0] + len(by_var)))

    def test_variables_are_allocated_agent_by_agent(self):
        inst = scrambled_grid_instance()
        delta = 2
        model = full_model(inst, delta=delta, solver=RecordingSolver())
        # each agent's node variables, then its indicators, form one block
        # that ends just below the next agent's block
        blocks, top = [], 0
        for a in inst.agents:
            nodes = sorted({var for (aid, _, _), var in model.x.items() if aid == a.id})
            indicators = [var for (aid, _), var in model.c.items() if aid == a.id]
            assert indicators and max(nodes) < min(indicators)
            block = nodes + sorted(indicators)
            assert block == list(range(top + 1, top + 1 + len(block)))
            blocks.append(set(block))
            top = block[-1]
        # the counter's registers come after every agent's block
        counter = CdclSolver()
        cardinality_le(counter, list(counter.new_vars(len(model.c))), delta, [])
        registers = counter.num_vars - len(model.c)
        assert registers > 0
        assert model.solver.num_vars == top + registers
        # each agent's clause batch names only that agent's variables
        for block, batch in zip(blocks, model.solver.batches):
            assert batch and all(abs(lit) in block for clause in batch for lit in clause)

    @staticmethod
    def chain_clauses(model):
        """Per agent, the clauses `[-x(u, t)]` plus nodes of the same agent,
        all one level after `t` (successor) or all one before (predecessor):
        `(index, kind, (t, u), [(t', w), ...])`."""
        node_of = {var: (a, t, v) for (a, v, t), var in model.x.items()}
        found: dict[str, list] = {}
        for i, clause in enumerate(model.solver.clauses):
            head = node_of.get(-clause[0])
            rest = [node_of.get(lit) for lit in clause[1:]]
            if head is None or not rest or None in rest:
                continue
            agent, t, u = head
            for kind, step in (("successor", 1), ("predecessor", -1)):
                if all(a == agent and tw == t + step for a, tw, _ in rest):
                    found.setdefault(agent, []).append(
                        (i, kind, (t, u), [(tw, w) for _, tw, w in rest]))
        return found

    def test_successor_clauses_are_in_canonical_order(self):
        model = full_model(scrambled_grid_instance(), delta=2, solver=RecordingSolver())
        found = self.chain_clauses(model)
        assert set(found) == {"a1", "a2", "a3"}
        for agent, entries in found.items():
            mdd = model.diagrams[agent]
            succ = [(node, heads) for _, kind, node, heads in entries if kind == "successor"]
            # one per node below the horizon, each with every move in the
            # heads' order
            assert [node for node, _ in succ] == sorted(
                (t, v) for (a, v, t) in model.x if a == agent and t < model.horizon)
            for (t, u), heads in succ:
                assert heads == [(t + 1, w) for w in mdd.outgoing(u, t)]
                assert canonical(heads)
            assert max(len(heads) for _, heads in succ) > 1

    def test_predecessor_clauses_follow_in_canonical_order(self):
        model = full_model(scrambled_grid_instance(), delta=2, solver=RecordingSolver())
        found = self.chain_clauses(model)
        assert set(found) == {"a1", "a2", "a3"}
        for agent, entries in found.items():
            mdd = model.diagrams[agent]
            last_succ = max(i for i, kind, _, _ in entries if kind == "successor")
            pred = [(i, node, tails) for i, kind, node, tails in entries
                    if kind == "predecessor"]
            assert pred[0][0] > last_succ
            assert [node for _, node, _ in pred] == sorted(
                (t, v) for (a, v, t) in model.x if a == agent and t >= 1)
            for _, (t, w), tails in pred:
                # every node with a move into (w, t), in the tails' order
                assert tails == [(t - 1, u) for u in mdd.levels[t - 1]
                                 if w in mdd.outgoing(u, t - 1)]
            assert max(len(tails) for _, _, tails in pred) > 1

    @staticmethod
    def swaps(model, clause):
        """`(ai, aj, (t, u, v))` when `clause` forbids ai's move u -> v and
        aj's move v -> u between t and t + 1, in that literal order, else None."""
        node_of = {var: (a, t, v) for (a, v, t), var in model.x.items()}
        if len(clause) != 4 or any(-lit not in node_of for lit in clause):
            return None
        (ai, t, u), (ai2, t2, v), (aj, t3, v2), (aj2, t4, u2) = (node_of[-lit] for lit in clause)
        if (ai, aj, t2, t3, t4, v2, u2) != (ai2, aj2, t + 1, t, t + 1, v, u) or ai == aj:
            return None
        return ai, aj, (t, u, v)

    def test_complete_swap_clauses_are_in_canonical_order(self):
        model = full_model(scrambled_grid_instance(), delta=2, mode=COMPLETE,
                           solver=RecordingSolver())
        swaps: dict[tuple, list] = {}
        for clause in model.solver.clauses:
            swap = self.swaps(model, clause)
            if swap is not None:
                ai, aj, move = swap
                assert move[1] != move[2]  # two waits are a vertex collision
                swaps.setdefault((ai, aj), []).append(move)
        assert set(swaps) == {("a1", "a2"), ("a1", "a3"), ("a2", "a3")}
        for (ai, aj), entries in swaps.items():
            assert len(entries) > 1 and canonical(entries)
            # one for each move of ai that aj can take the other way
            mi, mj = model.diagrams[ai], model.diagrams[aj]
            assert entries == [(t, u, v) for t in range(model.horizon) for u in mi.levels[t]
                               for v in mi.outgoing(u, t)
                               if v != u and u in mj.outgoing(v, t)]

    def test_complete_swap_clauses_match_the_pairwise_loop(self):
        # the complete build emits exactly the clauses of probing every move
        # of every pair, in that loop's order; no other clause has four
        # negative literals when no conflict is recorded
        rng = random.Random(83)
        checked = 0
        for _ in range(20):
            inst = random_grid_instance(rng, agents=(2, 4))
            for model in recorded_models(inst, rng, delta=rng.randint(0, 2), mode=COMPLETE):
                emitted = [tuple(c) for c in model.solver.clauses
                           if len(c) == 4 and all(lit < 0 for lit in c)]
                assert emitted == pairwise_swap_clauses(model)
                checked += len(emitted)
        assert checked > 100

    def test_recorded_conflict_clauses_are_in_canonical_order(self):
        # the collisions of random answers, each answer's in
        # `validate_solution`'s order, re-emit in that order: no clause order
        # depends on a set's or a dict's iteration order
        inst = scrambled_grid_instance()
        rng = random.Random(7)
        full = full_model(inst, delta=2)
        recorded = []
        for _ in range(40):
            walks = [random_walks(full.diagrams[a.id], a.id, rng, 1)[0] for a in inst.agents]
            met = validate_solution(inst, Solution.from_paths(inst, walks))
            assert [collision_key(inst, c) for c in met] == sorted(
                collision_key(inst, c) for c in met)
            recorded += [c for c in met if c not in recorded]
        assert {c.kind for c in recorded} == {"vertex", "edge"} and len(recorded) > 20
        base = full_model(inst, delta=2, solver=RecordingSolver())
        model = full_model(inst, delta=2, recorded=recorded, solver=RecordingSolver())
        x = model.x
        expected = []
        for c in recorded:
            (ai, aj), t = c.agents, c.t
            if c.kind == "vertex":
                expected.append([-x[(ai, c.location, t)], -x[(aj, c.location, t)]])
            else:
                u, v = c.location
                expected.append([-x[(ai, u, t)], -x[(ai, v, t + 1)], -x[(aj, v, t)],
                                 -x[(aj, u, t + 1)]])
        assert model.solver.clauses[len(base.solver.clauses):] == expected


def fresh_solver(nvars):
    solver = CdclSolver()
    return solver, [solver.new_var() for _ in range(nvars)]


def at_most(solver, lits, k):
    clauses = []
    cardinality_le(solver, lits, k, clauses)
    solver.add_clauses(clauses)


class TestCardinality:
    def test_at_most_one_of_three_matches_enumeration(self):
        # every assignment with <= 1 true literal extends to the counter
        # variables; every assignment with >= 2 true literals is excluded
        for bits in itertools.product([False, True], repeat=3):
            solver, lits = fresh_solver(3)
            at_most(solver, lits, 1)
            for lit, bit in zip(lits, bits):
                solver.add_clause([lit if bit else -lit])
            assert solver.solve() == (sum(bits) <= 1), bits

    def test_zero_bound_forces_all_false(self):
        solver, lits = fresh_solver(4)
        at_most(solver, lits, 0)
        assert solver.solve()
        assignment = solver.model()
        assert all(not assignment[lit] for lit in lits)

    def test_slack_bound_has_no_effect(self):
        for bits in itertools.product([False, True], repeat=3):
            solver, lits = fresh_solver(3)
            at_most(solver, lits, 3)
            for lit, bit in zip(lits, bits):
                solver.add_clause([lit if bit else -lit])
            assert solver.solve()

    def test_general_bound_matches_enumeration(self):
        for k in (1, 2, 3):
            for bits in itertools.product([False, True], repeat=5):
                solver, lits = fresh_solver(5)
                at_most(solver, lits, k)
                for lit, bit in zip(lits, bits):
                    solver.add_clause([lit if bit else -lit])
                assert solver.solve() == (sum(bits) <= k)


class TestExtractSolution:
    def test_single_agent_path(self, fix_a):
        model = full_model(fix_a)
        solution = extract_solution(model, model.solve())
        assert solution.paths[0].positions == ("v1", "v2", "v3")

    def test_start_equals_goal_zero_horizon(self):
        g = Graph(["a", "b"], [("a", "b")])
        inst = MapfInstance(g, [Agent(1, "a", "a")])
        model = full_model(inst)
        solution = extract_solution(model, model.solve())
        assert solution.paths[0].positions == ("a",)

    def test_corrupt_assignment_raises_soundness_fault(self, fix_a):
        model = full_model(fix_a)
        assignment = model.solve()
        assignment[model.x[("a1", "v2", 1)]] = False
        with pytest.raises(EncodingSoundnessError):
            extract_solution(model, assignment)

    @staticmethod
    def slack_model(fix_a, soc):
        """a1 over its diagram of cost bound 3, under `soc`."""
        diagrams = {"a1": build_mdd(fix_a, "a1", 3, Distances(fix_a.graph))}
        return build_model(fix_a, diagrams, [], soc, INCOMPLETE, {"a1": 2})

    @pytest.mark.parametrize("clear, occupy, match", [
        ([("v1", 0)], [], "occupies none of"),  # the start node
        ([], [("v1", 1)], "occupies none of"),  # the first head of the start, with no head
        # the walk v1 v1 v2 v3 of cost 3 under a bound of 2
        ([("v2", 1), ("v3", 2)], [("v1", 1), ("v2", 2)], "cost more than 2"),
    ])
    def test_broken_walk_raises_soundness_fault(self, fix_a, clear, occupy, match):
        model = self.slack_model(fix_a, soc=2)
        assignment = model.solve()
        walk = ("v1", "v2", "v3", "v3")
        assert [n for n, var in model.x.items() if assignment[var]] == [
            ("a1", v, t) for t, v in enumerate(walk)]
        assert not assignment[model.c[("a1", 2)]]
        for v, t in clear:
            assignment[model.x[("a1", v, t)]] = False
        for v, t in occupy:
            assignment[model.x[("a1", v, t)]] = True
        with pytest.raises(EncodingSoundnessError, match=match):
            extract_solution(model, assignment)

    def test_read_out_takes_the_first_occupied_head(self, fix_a):
        model = self.slack_model(fix_a, soc=3)
        assignment = model.solve()
        # both nodes of levels 1 and 2; the start's heads are (v1, v2)
        for v, t in (("v1", 1), ("v2", 1), ("v2", 2), ("v3", 2)):
            assignment[model.x[("a1", v, t)]] = True
        assert model.diagrams["a1"].outgoing("v1", 0) == ("v1", "v2")
        solution = extract_solution(model, assignment)
        assert solution.paths[0].positions == ("v1", "v1", "v2", "v3")
        assignment[model.x[("a1", "v1", 1)]] = False
        solution = extract_solution(model, assignment)
        assert solution.paths[0].positions == ("v1", "v2", "v2", "v3")

    def test_extracted_paths_fit_diagrams_and_bounds(self):
        rng = random.Random(17)
        for _ in range(15):
            inst = random_grid_instance(rng)
            delta = rng.randint(0, 2)
            model = full_model(inst, delta=delta)
            assignment = model.solve()
            assert assignment is not None  # full diagrams always admit a tuple
            solution = extract_solution(model, assignment)
            for a, p in zip(inst.agents, solution.paths):
                assert contains_path(model.diagrams[a.id], p)
            xi_sum = sum(bfs_distances(inst.graph, a.start)[a.goal] for a in inst.agents)
            assert sum_of_costs(inst, solution) <= xi_sum + delta


class TestCostIndicators:
    def test_true_count_equals_excess_cost(self):
        rng = random.Random(23)
        for _ in range(20):
            inst = random_grid_instance(rng)
            delta = rng.randint(0, 2)
            model = full_model(inst, delta=delta)
            assignment = model.solve()
            solution = extract_solution(model, assignment)
            for a, p in zip(inst.agents, solution.paths):
                xi = bfs_distances(inst.graph, a.start)[a.goal]
                true_c = sum(
                    1
                    for (agent_id, _t), var in model.c.items()
                    if agent_id == a.id and assignment[var]
                )
                assert true_c == path_cost(p, a.goal) - xi


class TestModelDefinitions:
    def test_complete_equivalence_on_fixtures(self, fix_b, fix_c):
        for inst in (fix_b, fix_c):
            xi_sum = sum(
                bfs_distances(inst.graph, a.start)[a.goal] for a in inst.agents
            )
            oracle = brute_force_oracle(inst, xi_sum + 2)
            for delta in (0, 1, 2):
                model = full_model(inst, delta=delta, mode=COMPLETE)
                sat = model.solve() is not None
                solvable = oracle.solved and oracle.soc <= xi_sum + delta
                assert sat == solvable

    def test_incomplete_sat_whenever_solvable(self, fix_b):
        oracle = brute_force_oracle(fix_b, 8)
        for delta in range(oracle.soc - 4, 3):
            if delta < 0:
                continue
            model = full_model(fix_b, delta=delta, mode=INCOMPLETE)
            assert model.solve() is not None


def padded_diagram(mdd, horizon):
    """`mdd` with goal levels, joined by goal waits, up to `horizon`."""
    tail = range(mdd.horizon, horizon)
    return Mdd(horizon, mdd.levels + ((mdd.goal,),) * len(tail),
               {**mdd._out, **{(t, mdd.goal): (mdd.goal,) for t in tail}})


def random_walks(mdd, agent_id, rng, k):
    """`k` random start-to-goal walks of agent `agent_id` through a full diagram."""
    walks = []
    for _ in range(k):
        pos = [mdd.start]
        for t in range(mdd.horizon):
            pos.append(rng.choice(mdd.outgoing(pos[-1], t)))
        walks.append(Path(agent_id, tuple(pos)))
    return walks


def recorded_models(instance, rng, delta=2, mode=INCOMPLETE):
    """Models over full diagrams and over sparse diagrams of three random
    walks per agent, each diagram at its agent's bound `xi + delta`, each
    model built on a `RecordingSolver`."""
    distances = Distances(instance.graph)
    xi = {a.id: distances.dist(a.goal)[a.start] for a in instance.agents}
    full = {aid: build_mdd(instance, aid, xi[aid] + delta, distances) for aid in xi}
    sparse = {aid: build_smdd(aid, random_walks(mdd, aid, rng, 3), mdd.horizon)
              for aid, mdd in full.items()}
    # room for every agent to take its full slack
    soc = sum(xi.values()) + delta * len(xi)
    return [build_model(instance, diagrams, [], soc, mode, xi, solver=RecordingSolver())
            for diagrams in (full, sparse)]


def answer_with(model, lits):
    """An answer of the recorded clause stream with every literal of `lits`
    true, solved on a fresh solver, or None."""
    solver = CdclSolver()
    solver.new_vars(model.solver.num_vars)
    solver.add_clauses(model.solver.clauses + [[lit] for lit in lits])
    return solver.model() if solver.solve() else None


def forced_answers(model):
    """`answer_with` one node occupied, for each node, and two nodes of one
    agent's level occupied, for each pair."""
    forced = [[var] for var in model.x.values()]
    for a in model.instance.agents:
        for t, level in enumerate(model.diagrams[a.id].levels):
            forced += [[model.x[(a.id, v, t)], model.x[(a.id, w, t)]]
                       for v, w in itertools.combinations(level, 2)]
    for lits in forced:
        yield answer_with(model, lits)


class TestReadOut:
    """An answer may occupy several nodes of one level; each agent's path is
    read as the walk of first occupied heads from its start node."""

    def cases(self, fix_a, fix_b, fix_c, mode=INCOMPLETE):
        rng = random.Random(41)
        instances = [fix_a, fix_b, fix_c] + [random_grid_instance(rng) for _ in range(6)]
        return [model for inst in instances for model in recorded_models(inst, rng, mode=mode)]

    @pytest.mark.parametrize("mode", [INCOMPLETE, COMPLETE])
    def test_every_answer_reads_out_as_a_diagram_walk_within_the_bound(self, fix_a, fix_b,
                                                                        fix_c, mode):
        answers = crowded = 0
        for model in self.cases(fix_a, fix_b, fix_c, mode):
            inst = model.instance
            for assignment in forced_answers(model):
                if assignment is None:
                    continue
                solution = extract_solution(model, assignment)
                for a, p in zip(inst.agents, solution.paths):
                    assert contains_path(model.diagrams[a.id], p)
                assert sum_of_costs(inst, solution) <= model.soc
                if mode == COMPLETE:
                    assert validate_solution(inst, solution) == []
                answers += 1
                occupied = [(a, t) for (a, _, t), var in model.x.items() if assignment[var]]
                crowded += len(occupied) != len(set(occupied))
        # some answers occupy two nodes of one level, so the read-out matters
        assert answers > 500 and crowded > 200

    def test_an_occupied_node_forces_an_occupied_head(self, fix_a, fix_b, fix_c):
        checked = 0
        for model in self.cases(fix_a, fix_b, fix_c):
            for (agent, v, t), var in model.x.items():
                # the nodes of the diagram below its last level
                if t < model.diagrams[agent].horizon:
                    heads = model.diagrams[agent].outgoing(v, t)
                    cleared = [-model.x[(agent, w, t + 1)] for w in heads]
                    assert answer_with(model, [var] + cleared) is None
                    checked += 1
        assert checked > 300

    def test_an_occupied_non_goal_node_forces_its_indicator(self, fix_a, fix_b, fix_c):
        checked = 0
        for model in self.cases(fix_a, fix_b, fix_c):
            goals = {a.id: a.goal for a in model.instance.agents}
            for (agent, v, t), var in model.x.items():
                ct = model.c.get((agent, t))
                if v != goals[agent] and ct is not None:
                    assert answer_with(model, [var, -ct]) is None
                    checked += 1
        assert checked > 100

    def test_endpoints_are_units(self, fix_a, fix_b, fix_c):
        # implied by the rest; the goal unit lets propagation run backward
        for model in self.cases(fix_a, fix_b, fix_c):
            for a in model.instance.agents:
                mdd = model.diagrams[a.id]
                assert [model.x[(a.id, mdd.start, 0)]] in model.solver.clauses
                assert [model.x[(a.id, mdd.goal, model.horizon)]] in model.solver.clauses


def model_walks(model, agent):
    """Every walk a single-agent model reads out, padded to the horizon, found
    by blocking the nodes of each padded walk together in turn. The
    one-node-per-level answer of a walk survives until that walk itself is
    blocked."""
    found = set()
    while (assignment := model.solve()) is not None:
        walk = extract_solution(model, assignment).paths[0].padded(model.horizon).positions
        found.add(walk)
        model.solver.add_clause([-model.x[(agent, v, t)] for t, v in enumerate(walk)])
    return found


class TestAdmittedWalks:
    """A single-agent model admits exactly its diagram's start->goal walks
    within the cost bound, no more and no fewer."""

    def test_models_admit_exactly_the_diagram_walks(self, fix_a, fix_b, fix_c):
        rng = random.Random(53)
        instances = [fix_a, fix_b, fix_c] + [random_grid_instance(rng) for _ in range(12)]
        checked = tight = 0
        for inst in instances:
            distances = Distances(inst.graph)
            for a in inst.agents:
                xi = distances.dist(a.goal)[a.start]
                delta = rng.randint(1, 2)
                full = build_mdd(inst, a.id, xi + delta, distances)
                sparse = build_smdd(a.id, random_walks(full, a.id, rng, 3), xi + delta)
                single = MapfInstance(inst.graph, [a])
                for mdd in (full, sparse):
                    for soc in range(xi, xi + delta + 1):
                        model = build_model(single, {a.id: mdd}, [], soc, INCOMPLETE,
                                            {a.id: xi})
                        walks = diagram_walks(mdd, soc)
                        assert model_walks(model, a.id) == walks
                        checked += len(walks)
                        tight += soc < xi + delta and walks != diagram_walks(mdd, xi + delta)
        assert checked > 500 and tight > 0


def settle_step(mdd):
    """First level from which every level of the diagram is the goal alone."""
    return min(t for t in range(mdd.horizon + 1)
               if all(level == (mdd.goal,) for level in mdd.levels[t:]))


def candidate_walks(mdd, agent_id, rng):
    """One to three random walks of agent `agent_id` through a full diagram,
    with the step at which the last of them arrives for good."""
    walks = random_walks(mdd, agent_id, rng, rng.randint(1, 3))
    return walks, max(walk_cost(p.positions, mdd.goal) for p in walks)


def collision_free(walks):
    """True when no two equal-length walks meet at a vertex or swap along an edge."""
    for p, q in itertools.combinations(walks, 2):
        for t in range(len(p)):
            if p[t] == q[t] or (t and p[t] == q[t - 1] and p[t - 1] == q[t]):
                return False
    return True


class TestSettleStep:
    """Each agent's model ends at its settle step, the first level from which
    its diagram holds only its goal: nodes, clauses and cost indicators stop
    there, and every later goal node answers with the settle node's variable."""

    def cases(self):
        """`(model, delta, full)` over full and sparse diagrams of random
        instances; `delta` bounds each agent's full diagram at xi + delta."""
        rng = random.Random(71)
        for _ in range(15):
            inst = random_grid_instance(rng)
            delta = rng.randint(1, 2)
            full, sparse = recorded_models(inst, rng, delta=delta)
            yield full, delta, True
            yield sparse, delta, False

    def test_node_variables_end_at_the_settle_step(self):
        tails = 0
        for model, _, _ in self.cases():
            for a in model.instance.agents:
                mdd = model.diagrams[a.id]
                end = settle_step(mdd)
                nodes = [(t, v) for t in range(end + 1) for v in mdd.levels[t]]
                by_var = sorted(distinct_vars(model, a.id).items())
                # exactly the nodes of levels 0..end, contiguous in (t, v) order
                assert [key for _, key in by_var] == nodes
                assert [var for var, _ in by_var] == list(range(by_var[0][0],
                                                                by_var[0][0] + len(nodes)))
                tails += model.horizon - end
        assert tails > 30

    def test_goal_tail_answers_with_the_settle_node(self):
        for model, _, _ in self.cases():
            for a in model.instance.agents:
                mdd = model.diagrams[a.id]
                end = settle_step(mdd)
                settled = model.x[(a.id, mdd.goal, end)]
                assert [settled] in model.solver.clauses
                assert [model.x[(a.id, mdd.goal, t)] for t in range(end, model.horizon + 1)] == \
                    [settled] * (model.horizon + 1 - end)
                # every diagram node has a key, and so has the goal at each
                # step past the diagram's end up to the model's horizon;
                # nothing else does
                assert sorted((t, v) for (b, v, t) in model.x if b == a.id) == sorted(
                    [(t, v) for t, level in enumerate(mdd.levels) for v in level]
                    + [(t, mdd.goal) for t in range(mdd.horizon + 1, model.horizon + 1)])

    def test_indicators_stop_before_the_settle_step(self):
        for model, delta, full in self.cases():
            xi = shortest_costs(model.instance)
            for a in model.instance.agents:
                end = settle_step(model.diagrams[a.id])
                assert sorted(t for (b, t) in model.c if b == a.id) == list(range(xi[a.id], end))
                if full:
                    assert end <= xi[a.id] + delta

    def test_read_out_stops_at_the_settle_step(self):
        # the walk read step by step up to the horizon, as before the read-out
        # stopped at the settle node, is the path extract_solution returns,
        # padded to the horizon
        read = 0
        for model, _, _ in self.cases():
            assignment = model.solve()
            solution = extract_solution(model, assignment)
            for a, path in zip(model.instance.agents, solution.paths):
                mdd = model.diagrams[a.id]
                walk, heads = [], (mdd.start,)
                for t in range(model.horizon + 1):
                    walk.append(next(v for v in heads if assignment[model.x[(a.id, v, t)]]))
                    # past its diagram's end the agent waits on its goal
                    heads = mdd.outgoing(walk[-1], t) if t < mdd.horizon else (mdd.goal,)
                assert path.padded(model.horizon).positions == tuple(walk)
                assert model.settle[a.id] == settle_step(mdd)
                read += model.settle[a.id] < model.horizon
        assert read > 20

    def test_sparse_agents_settle_when_their_candidates_arrive(self):
        rng = random.Random(73)
        early = 0
        for _ in range(20):
            inst = random_grid_instance(rng)
            distances = Distances(inst.graph)
            xi = {a.id: distances.dist(a.goal)[a.start] for a in inst.agents}
            diagrams, arrivals = {}, {}
            for aid in xi:
                full = build_mdd(inst, aid, xi[aid] + 2, distances)
                walks, arrivals[aid] = candidate_walks(full, aid, rng)
                diagrams[aid] = build_smdd(aid, walks, full.horizon)
            model = build_model(inst, diagrams, [], sum(xi.values()) + 2 * len(xi),
                                INCOMPLETE, xi)
            # the goal tail answers with the settle node up to the model's horizon
            for aid, s in arrivals.items():
                end = settle_step(diagrams[aid])
                assert end <= s
                assert len(set(model.x[(aid, diagrams[aid].goal, t)]
                               for t in range(s, model.horizon + 1))) == 1
                early += s < model.horizon
        assert early > 10

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sparse_models_are_sat_exactly_when_some_walk_choice_fits(self, data):
        # one walk per agent from its sparse diagram within the bound, and in
        # complete mode clear of every other; the diagrams' combined walks count
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        mode = data.draw(st.sampled_from([INCOMPLETE, COMPLETE]), label="mode")
        inst = random_grid_instance(rng, max_side=3)
        distances = Distances(inst.graph)
        xi = {a.id: distances.dist(a.goal)[a.start] for a in inst.agents}
        delta = data.draw(st.integers(0, 2), label="delta")
        horizon = max(xi.values()) + delta
        diagrams = {aid: build_smdd(aid, candidate_walks(
                        build_mdd(inst, aid, xi[aid] + delta, distances), aid, rng)[0],
                        xi[aid] + delta)
                    for aid in xi}
        soc = sum(xi.values()) + data.draw(st.integers(0, delta * len(xi)), label="slack")
        goals = [a.goal for a in inst.agents]
        # each walk waits on its goal up to the longest diagram's horizon
        choices = [sorted(walk + (a.goal,) * (horizon + 1 - len(walk))
                          for walk in diagram_walks(diagrams[a.id], horizon))
                   for a in inst.agents]
        fits = [combo for combo in itertools.product(*choices)
                if sum(walk_cost(w, g) for w, g in zip(combo, goals)) <= soc
                and (mode == INCOMPLETE or collision_free(combo))]
        model = build_model(inst, diagrams, [], soc, mode, xi)
        assert model.horizon == horizon
        assignment = model.solve()
        assert (assignment is not None) == bool(fits)
        if assignment is not None:
            solution = extract_solution(model, assignment)
            read = tuple(p.padded(horizon).positions for p in solution.paths)
            assert read in fits
