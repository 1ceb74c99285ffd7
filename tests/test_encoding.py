from __future__ import annotations

import itertools
import random

import pytest

from mapfsat import (
    COMPLETE,
    INCOMPLETE,
    Agent,
    CdclSolver,
    Collision,
    ConflictSet,
    Distances,
    EncodingSoundnessError,
    Graph,
    MapfInstance,
    Path,
    add_conflict_clauses,
    bfs_distances,
    brute_force_oracle,
    build_mdd,
    build_model,
    build_smdd,
    cardinality_le,
    count_represented_paths,
    extract_solution,
    path_cost,
    sum_of_costs,
    validate_solution,
)
from conftest import contains_path, random_grid_instance, scrambled_grid_instance


class RecordingSolver(CdclSolver):
    """Keeps every clause it is given, in order.

    `add_clause` hands its clause to `add_clauses`, so recording the batched
    path records both.
    """

    def __init__(self):
        super().__init__()
        self.clauses: list[list[int]] = []

    def add_clauses(self, clauses):
        clauses = [list(lits) for lits in clauses]
        self.clauses.extend(clauses)
        super().add_clauses(clauses)


def shortest_costs(instance):
    return {a.id: bfs_distances(instance.graph, a.start).get(a.goal) for a in instance.agents}


def full_model(instance, delta=0, mode=INCOMPLETE, conflicts=None, solver=None):
    xi = shortest_costs(instance)
    soc = sum(xi.values()) + delta
    horizon = max(xi.values()) + delta
    distances = Distances(instance.graph)
    diagrams = {
        a.id: build_mdd(instance, a.id, horizon, xi[a.id] + delta, distances)
        for a in instance.agents
    }
    return build_model(
        instance, diagrams, conflicts if conflicts is not None else ConflictSet(),
        horizon, soc, mode, xi, solver=solver,
    )


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
            # a level of up to five nodes is bounded pairwise; a wider one
            # takes a sequential counter of one register per node but one
            wide = [len(level) for mdd in model.diagrams.values() for level in mdd.levels
                    if len(level) > 5]
            levels = sum(width - 1 for width in wide)
            assert model.solver.num_vars == len(model.x) + len(model.c) + r + levels
            widest = max(widest, *wide, 0)
        assert widest > 5

    def test_forced_shared_vertex_is_unsat(self, fix_b):
        # single-candidate diagrams push both agents through v01 at step 1
        diagrams = {
            "a1": build_smdd("a1", [Path("a1", ("v00", "v01", "v11"))], 2),
            "a2": build_smdd("a2", [Path("a2", ("v11", "v01", "v00"))], 2),
        }
        model = build_model(fix_b, diagrams, ConflictSet(), 2, 4, INCOMPLETE,
                            shortest_costs(fix_b))
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

    def test_horizon_mismatch_rejected(self, fix_b):
        distances = Distances(fix_b.graph)
        diagrams = {
            "a1": build_mdd(fix_b, "a1", 2, 2, distances),
            "a2": build_mdd(fix_b, "a2", 3, 3, distances),
        }
        with pytest.raises(ValueError):
            build_model(fix_b, diagrams, ConflictSet(), 2, 4, INCOMPLETE, shortest_costs(fix_b))

    def test_negative_slack_rejected(self, fix_b):
        distances = Distances(fix_b.graph)
        diagrams = {a.id: build_mdd(fix_b, a.id, 2, 2, distances) for a in fix_b.agents}
        with pytest.raises(ValueError):
            build_model(fix_b, diagrams, ConflictSet(), 2, 3, INCOMPLETE, shortest_costs(fix_b))


class TestAddConflictClauses:
    def test_vertex_collision_becomes_binary_clause(self, fix_b):
        model = full_model(fix_b, solver=RecordingSolver())
        before = model.solver.num_clauses
        add_conflict_clauses(model, [Collision("vertex", ("a1", "a2"), "v10", 1)])
        assert model.solver.num_clauses == before + 1
        x1 = model.x_var("a1", "v10", 1)
        x2 = model.x_var("a2", "v10", 1)
        assert sorted(model.solver.clauses[-1]) == sorted((-x1, -x2))

    def test_edge_collision_forbids_both_moves(self):
        g = Graph(["v1", "v2"], [("v1", "v2")])
        inst = MapfInstance(g, [Agent("a1", "v1", "v2"), Agent("a2", "v2", "v1")])
        model = full_model(inst, solver=RecordingSolver())
        add_conflict_clauses(model, [Collision("edge", ("a1", "a2"), ("v1", "v2"), 0)])
        # a1 at v1 then v2, and a2 at v2 then v1, are not all occupied
        nodes = [("a1", "v1", 0), ("a1", "v2", 1), ("a2", "v2", 0), ("a2", "v1", 1)]
        assert sorted(model.solver.clauses[-1]) == sorted(-model.x_var(*n) for n in nodes)
        assert model.solve() is None

    def test_missing_node_skips_clause_but_records_conflict(self, fix_b):
        model = full_model(fix_b)
        before = model.solver.num_clauses
        # v10 at step 5 is outside every diagram at these bounds
        add_conflict_clauses(model, [Collision("vertex", ("a1", "a2"), "v10", 5)])
        assert model.solver.num_clauses == before
        assert ("v10", 5) in model.conflicts.for_agent("a1").vertex
        assert ("v10", 5) in model.conflicts.for_agent("a2").vertex

    def test_recorded_conflicts_reach_fresh_models(self, fix_b):
        conflicts = ConflictSet()
        model = full_model(fix_b, conflicts=conflicts)
        add_conflict_clauses(model, [Collision("vertex", ("a1", "a2"), "v01", 1)])
        rebuilt = full_model(fix_b, conflicts=conflicts, solver=RecordingSolver())
        x1 = rebuilt.x_var("a1", "v01", 1)
        x2 = rebuilt.x_var("a2", "v01", 1)
        assert any(
            sorted(c) == sorted((-x1, -x2)) for c in rebuilt.solver.clauses
        )


def canonical(entries):
    return entries == sorted(entries)


class TestEmissionOrder:
    """Node variables and clauses follow (t, u, v) order."""

    def test_node_variables_are_allocated_in_canonical_order(self):
        inst = scrambled_grid_instance()
        ordered = sorted(inst.graph.vertices)
        assert list(inst.graph.vertices) != ordered
        assert list(bfs_distances(inst.graph, "q")) != ordered
        model = full_model(inst, delta=2, solver=RecordingSolver())
        for agent in ("a1", "a2", "a3"):
            by_var = sorted((var, (t, v)) for (a, v, t), var in model.x.items() if a == agent)
            assert len(by_var) > 10
            assert canonical([key for _, key in by_var])
            # contiguous from the start node
            assert [var for var, _ in by_var] == list(range(by_var[0][0],
                                                            by_var[0][0] + len(by_var)))

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

    def test_recorded_conflict_clauses_are_in_canonical_order(self):
        inst = scrambled_grid_instance()
        conflicts = ConflictSet()
        graph = inst.graph
        pairs = [(u, v) for u in graph.vertices for v in graph.neighbors(u) if u < v]
        for t in range(5):
            for u, v in pairs:
                for a in ("a3", "a1", "a2"):
                    conflicts.add(a, "vertex", (v, t))
                    conflicts.add(a, "edge", ((u, v), t))
                    conflicts.add(a, "edge", ((v, u), t))
        model = full_model(inst, delta=2, conflicts=conflicts, solver=RecordingSolver())
        node_of = {var: (a, (t, v)) for (a, v, t), var in model.x.items()}
        emitted: dict[tuple, list] = {}
        for clause in model.solver.clauses:
            swap = self.swaps(model, clause)
            if swap is not None:
                ai, aj, move = swap
                emitted.setdefault((ai, aj), []).append(("edge", move))
            elif len(clause) == 2 and all(-lit in node_of for lit in clause):
                (ai, ei), (aj, _) = (node_of[-lit] for lit in clause)
                if ai != aj:
                    emitted.setdefault((ai, aj), []).append(("vertex", ei))
        assert set(emitted) == {("a1", "a2"), ("a1", "a3"), ("a2", "a3")}
        for entries in emitted.values():
            kinds = [kind for kind, _ in entries]
            assert kinds == sorted(kinds, key=["vertex", "edge"].index)
            for kind in ("vertex", "edge"):
                keys = [e for k, e in entries if k == kind]
                assert len(keys) > 1 and canonical(keys)


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
        assignment[model.x_var("a1", "v2", 1)] = False
        with pytest.raises(EncodingSoundnessError):
            extract_solution(model, assignment)

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
                xi = bfs_distances(inst.graph, a.start).get(a.goal)
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
                bfs_distances(inst.graph, a.start).get(a.goal) for a in inst.agents
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


def random_walks(mdd, rng, k):
    """`k` random start-to-goal walks through a full diagram."""
    walks = []
    for _ in range(k):
        pos = [mdd.start]
        for t in range(mdd.horizon):
            pos.append(rng.choice(mdd.outgoing(pos[-1], t)))
        walks.append(Path(mdd.agent, tuple(pos)))
    return walks


def recorded_models(instance, rng, delta=2):
    """Incomplete models over full diagrams and over sparse diagrams of three
    random walks per agent, each built on a `RecordingSolver`."""
    distances = Distances(instance.graph)
    xi = {a.id: distances.dist(a.goal)[a.start] for a in instance.agents}
    horizon = max(xi.values()) + delta
    full = {aid: build_mdd(instance, aid, horizon, xi[aid] + delta, distances)
            for aid in xi}
    sparse = {aid: build_smdd(aid, random_walks(mdd, rng, 3), horizon)
              for aid, mdd in full.items()}
    # room for every agent to take its full slack
    soc = sum(xi.values()) + delta * len(xi)
    return [build_model(instance, diagrams, ConflictSet(), horizon, soc, INCOMPLETE,
                        xi, solver=RecordingSolver())
            for diagrams in (full, sparse)]


def without_level_at_most_one(model):
    """The recorded clauses minus each level's at-most-one: the pairwise
    clauses `[-x(v, t), -x(w, t)]` of one agent, and every clause of a
    sequential counter whose registers meet a node literal."""
    node_of = {var: (a, t) for (a, v, t), var in model.x.items()}
    named = set(model.x.values()) | set(model.c.values())
    registers = {abs(lit) for clause in model.solver.clauses
                 if any(abs(lit) in node_of for lit in clause)
                 for lit in clause if abs(lit) not in named}

    def at_most_one(clause):
        if any(abs(lit) in registers for lit in clause):
            return True
        return (len(clause) == 2 and all(-lit in node_of for lit in clause)
                and node_of[-clause[0]] == node_of[-clause[1]])

    return [clause for clause in model.solver.clauses if not at_most_one(clause)]


def satisfiable_level_pairs(model, clauses):
    """Pairs of one agent's nodes on one level t >= 1 that `clauses` let be
    occupied together, each checked on a fresh solver."""
    found = []
    for a in model.instance.agents:
        levels = model.diagrams[a.id].levels
        for t in range(1, model.horizon + 1):
            for v, w in itertools.combinations(levels[t], 2):
                units = [[model.x[(a.id, v, t)]], [model.x[(a.id, w, t)]]]
                solver = CdclSolver()
                solver.new_vars(model.solver.num_vars)
                solver.add_clauses(clauses + units)
                if solver.solve():
                    found.append((a.id, t, v, w))
    return found


class TestImpliedExactlyOne:
    """The start unit, one successor per occupied node below the horizon and
    each level's at-most-one leave exactly one occupied node per level."""

    def cases(self, fix_a, fix_b, fix_c):
        rng = random.Random(41)
        instances = [fix_a, fix_b, fix_c] + [random_grid_instance(rng) for _ in range(6)]
        return [model for inst in instances for model in recorded_models(inst, rng)]

    def test_two_nodes_of_one_level_are_unsat(self, fix_a, fix_b, fix_c):
        pairs = 0
        for model in self.cases(fix_a, fix_b, fix_c):
            clauses = model.solver.clauses
            assert model.solve() is not None
            assert satisfiable_level_pairs(model, clauses) == []
            pairs += sum(len(level) * (len(level) - 1) // 2
                         for mdd in model.diagrams.values() for level in mdd.levels)
        assert pairs > 200

    def test_without_level_at_most_one_a_level_takes_two_nodes(self, fix_a, fix_b,
                                                                    fix_c):
        # the same clause stream minus each level's at-most-one
        wide = 0
        for model in self.cases(fix_a, fix_b, fix_c):
            clauses = without_level_at_most_one(model)
            widths = [len(level) for mdd in model.diagrams.values() for level in mdd.levels]
            # pairwise up to five nodes, else a counter of 3n - 4 clauses
            assert len(model.solver.clauses) - len(clauses) == sum(
                n * (n - 1) // 2 if n <= 5 else 3 * n - 4 for n in widths if n > 1)
            wide += sum(n > 5 for n in widths)
            if max(widths) > 1:
                assert satisfiable_level_pairs(model, clauses) != []
        assert wide > 0


def diagram_walks(mdd, soc):
    """Every start->goal walk of the diagram of cost at most `soc`, enumerated
    directly."""
    walks = [(mdd.start,)]
    for t in range(mdd.horizon):
        walks = [walk + (w,) for walk in walks for w in mdd.outgoing(walk[-1], t)]
    return {walk for walk in walks if walk[-1] == mdd.goal
            and path_cost(Path(mdd.agent, walk), mdd.goal) <= soc}


def model_walks(model, agent):
    """Every node set a single-agent model admits, each read as the sequence
    of its vertices by level; found by blocking each set in turn."""
    nodes = {var: (t, v) for (a, v, t), var in model.x.items() if a == agent}
    found = set()
    while (assignment := model.solve()) is not None:
        occupied = sorted(node for var, node in nodes.items() if assignment[var])
        found.add(tuple(v for _, v in occupied))
        model.solver.add_clause([-var for var in nodes if assignment[var]])
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
                horizon = xi + delta + rng.randint(0, 1)
                full = build_mdd(inst, a.id, horizon, xi + delta, distances)
                sparse = build_smdd(a.id, random_walks(full, rng, 3), horizon)
                assert len(diagram_walks(full, xi + delta)) == count_represented_paths(full)
                single = MapfInstance(inst.graph, [a])
                for mdd in (full, sparse):
                    for soc in range(xi, xi + delta + 1):
                        model = build_model(single, {a.id: mdd}, ConflictSet(), horizon, soc,
                                            INCOMPLETE, {a.id: xi})
                        walks = diagram_walks(mdd, soc)
                        assert model_walks(model, a.id) == walks
                        checked += len(walks)
                        tight += soc < xi + delta and walks != diagram_walks(mdd, xi + delta)
        assert checked > 500 and tight > 0
