"""Compile per-agent diagrams plus recorded collisions into a SAT model.

Decision variables: one per diagram node (agent at vertex v at step t) up
to the agent's settle step; a move is the pair of nodes it joins, so there
are no edge variables. The settle step is the first level from which the
agent's diagram holds only its goal. Each later goal node, up to the model's
horizon (the longest diagram's), shares the settle node's variable, so the
model answers for each node of the diagram and for the goal waits past its
end; a collision clause on such a node meets the settle unit and becomes a
unit itself. Cost is tracked by per-agent "still active"
indicators: one per timestep from the agent's shortest-path cost up to its
settle step, true while the agent has not yet settled at its goal. A single
global cardinality constraint caps the indicator count at the slack above
the sum of shortest-path costs.

Each agent's path is a walk of occupied nodes; a level may hold several.
The start and settle nodes are units and an occupied node below the settle
step needs an occupied successor, so taking the first occupied successor in
out-edge order leads from the start to the goal. The walk is off its goal
at step t only if a non-goal node of level t is occupied, which forces that
step's indicator and all before it: its excess cost is within the slack.
Collision clauses bind all occupied nodes, so the walks too, and a
collision-free solution's one-node-per-level answer satisfies every clause.
An occupied node after level 0 also needs an occupied predecessor; implied
by the rest, these let unit propagation run backward from the goal unit.

Each agent is compiled into one block in one pass, in instance order: its
node variables, then its indicators, then its clauses, which name only the
block's variables. Only the counter and the collision clauses, which follow
every block, tie agents together.

The complete mode adds every pairwise vertex/swap exclusion up front; the
incomplete mode relies on lazily added collision clauses instead. A swap
clause forbids the four nodes of two opposing moves together. The complete
mode indexes the agents at each vertex-timestep of `x`, goal waits
included, once for the vertex exclusions, and looks for a move's opposing
moves only among the agents at its head, not in every other agent's
diagram. A collision is forbidden by one clause over the pair that collided
(`add_conflict_clauses`), whether it was found in this model's answer or
recorded from an earlier model and re-emitted by `build_model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Optional

from .diagrams import Mdd
from .instance import Collision, MapfInstance, Path, Solution, Vertex, sum_of_costs
from .pathing import bfs_distances  # noqa: F401  the layer tracer wraps this name here
from .satif import CdclSolver

COMPLETE = "complete"
INCOMPLETE = "incomplete"


class EncodingSoundnessError(RuntimeError):
    """A satisfying assignment violated a structural guarantee of the encoding."""


@dataclass
class BooleanModel:
    """One solver instance, its horizon (the longest diagram's) and SOC
    bound, and the maps from diagram nodes (`x`) and cost indicators (`c`)
    to its SAT variables. `x` answers for every diagram node and for each
    agent's goal up to the horizon: each node up to its agent's settle step
    (`settle`) has a variable of its own, and the goal nodes after it share
    the settle node's; any other key is absent. The node variables decide an
    answer: indicators and counter registers follow."""

    solver: CdclSolver
    horizon: int
    soc: int
    instance: MapfInstance
    diagrams: Mapping[Hashable, Mdd]
    x: dict[tuple[Hashable, Vertex, int], int] = field(default_factory=dict)
    c: dict[tuple[Hashable, int], int] = field(default_factory=dict)
    settle: dict[Hashable, int] = field(default_factory=dict)

    def solve(self) -> Optional[list[bool]]:
        """Satisfying assignment of the current clause set, or None."""
        if self.solver.solve():
            return self.solver.model()
        return None


def _at_most_one(solver: CdclSolver, lits: list[int], clauses: list) -> None:
    # pairwise is smaller up to a handful of literals, counter beyond that
    n = len(lits)
    if n <= 5:
        for i in range(n):
            for j in range(i + 1, n):
                clauses.append([-lits[i], -lits[j]])
    else:
        cardinality_le(solver, lits, 1, clauses)


def cardinality_le(solver: CdclSolver, lits: list[int], k: int, clauses: list) -> None:
    """Sequential-counter clauses enforcing at most k of `lits` true.

    The counter's variables are allocated on `solver` at once; the clauses
    are appended to `clauses`, for the caller to add in order.
    """
    if k < 0:
        raise ValueError("negative cardinality bound")
    n = len(lits)
    if k >= n:
        return
    if k == 0:
        clauses.extend([-lit] for lit in lits)
        return
    regs = solver.new_vars(k * (n - 1))
    reg = [regs[i * k:(i + 1) * k] for i in range(n - 1)]
    clauses.append([-lits[0], reg[0][0]])
    for j in range(1, k):
        clauses.append([-reg[0][j]])
    for i in range(1, n - 1):
        clauses.append([-lits[i], reg[i][0]])
        clauses.append([-reg[i - 1][0], reg[i][0]])
        for j in range(1, k):
            clauses.append([-lits[i], -reg[i - 1][j - 1], reg[i][j]])
            clauses.append([-reg[i - 1][j], reg[i][j]])
        clauses.append([-lits[i], -reg[i - 1][k - 1]])
    clauses.append([-lits[n - 1], -reg[n - 2][k - 1]])


def _settle_step(mdd: Mdd) -> int:
    """First level from which every level of the diagram is the goal alone."""
    end, tail = mdd.horizon, (mdd.goal,)
    while end and mdd.levels[end - 1] == tail:
        end -= 1
    return end


def build_model(
    instance: MapfInstance,
    diagrams: Mapping[Hashable, Mdd],
    recorded: Iterable[Collision],
    soc: int,
    mode: str,
    xi: Mapping[Hashable, int],
    solver: CdclSolver | None = None,
) -> BooleanModel:
    """Fresh solver instance encoding the diagrams under the SOC bound; `xi`
    maps each agent id to its shortest-path cost. Each of the `recorded`
    collisions gets its pair's clause, in the order given, as
    `add_conflict_clauses` adds it to a live model.

    Variables are allocated agent by agent. Clauses reach the solver in
    emission order, in batches no larger than one agent's clauses or one
    section's, so a build never holds all of them at once.
    """
    if mode not in (COMPLETE, INCOMPLETE):
        raise ValueError(f"unknown mode {mode!r}")
    agents = instance.agents
    if set(diagrams) != {a.id for a in agents}:
        raise ValueError("diagrams do not cover exactly the instance agents")
    delta = soc - sum(xi.values())
    if delta < 0:
        raise ValueError(f"sum-of-costs {soc} below the shortest-path total")

    s = solver if solver is not None else CdclSolver()
    horizon = max((mdd.horizon for mdd in diagrams.values()), default=0)
    model = BooleanModel(s, horizon, soc, instance, diagrams)
    x, c = model.x, model.c

    # one block per agent: its nodes, then its indicators, then its clauses,
    # which name only the block's variables
    for a in agents:
        mdd = diagrams[a.id]
        end = model.settle[a.id] = _settle_step(mdd)
        nodes = [(a.id, v, t) for t in range(end + 1) for v in mdd.levels[t]]
        x.update(zip(nodes, s.new_vars(len(nodes))))
        # endpoints: the start and the settle node; the goal tail shares the
        # settle node's variable
        base, settled = x[(a.id, mdd.start, 0)], x[(a.id, mdd.goal, end)]
        for t in range(end + 1, horizon + 1):
            x[(a.id, mdd.goal, t)] = settled
        steps = [(a.id, t) for t in range(xi[a.id], end)]
        c.update(zip(steps, s.new_vars(len(steps))))
        clauses: list[list[int]] = [[base], [settled]]
        # an occupied node below the settle step needs a successor; each
        # node collects its predecessors. The agent's node variables run
        # contiguous from its start node to its settle node in (t, v) order,
        # so `ins` is indexed by `xv - base`.
        ins: list[list[int]] = [[] for _ in range(settled - base + 1)]
        for t in range(end):
            for u in mdd.levels[t]:
                xu = x[(a.id, u, t)]
                succ = [x[(a.id, w, t + 1)] for w in mdd.outgoing(u, t)]
                clauses.append([-xu] + succ)
                for xw in succ:
                    ins[xw - base].append(xu)
        # an occupied node after level 0 needs a predecessor
        for i in range(1, len(ins)):
            clauses.append([-(base + i)] + ins[i])
        # cost indicators: forced by an occupied non-goal node, monotone, and
        # true only with an occupied non-goal node at their step or later
        for t in range(xi[a.id], end):
            ct = c[(a.id, t)]
            support = [
                x[(a.id, v, t)] for v in mdd.levels[t] if v != a.goal
            ]
            for xv in support:
                clauses.append([-xv, ct])
            nxt = c.get((a.id, t + 1))
            if nxt is not None:
                clauses.append([-nxt, ct])
            clauses.append([-ct] + support + ([nxt] if nxt is not None else []))
        s.add_clauses(clauses)

    # allocated agent by agent in instance order, then by step
    clauses = []
    cardinality_le(s, list(c.values()), delta, clauses)
    s.add_clauses(clauses)

    if mode == COMPLETE:
        _emit_complete_constraints(model)
    add_conflict_clauses(model, recorded)
    return model


def _emit_complete_constraints(model: BooleanModel) -> None:
    agents, s, x = model.instance.agents, model.solver, model.x
    # the agents at each vertex-timestep of `x`, goal waits included, in
    # instance order: `x` is filled agent by agent
    index = {a.id: i for i, a in enumerate(agents)}
    present: dict[tuple[int, Vertex], list[int]] = {}
    for aid, v, t in x:
        present.setdefault((t, v), []).append(index[aid])
    # at most one agent per shared vertex-timestep; a key that one agent
    # holds emits nothing
    clauses: list[list[int]] = []
    for t, v in sorted([key for key, ids in present.items() if len(ids) > 1]):
        _at_most_one(s, [x[(agents[i].id, v, t)] for i in present[(t, v)]], clauses)
    s.add_clauses(clauses)
    del clauses  # a build holds one section's clauses at a time
    # no pair of agents may swap across one edge: i's move u -> v meets each
    # later agent at v at t that moves to u
    for i, a in enumerate(agents):
        mdd = model.diagrams[a.id]
        by_pair: dict[int, list[tuple[int, ...]]] = {}
        for t in range(mdd.horizon):
            for u in mdd.levels[t]:
                for v in mdd.outgoing(u, t):
                    if v == u:
                        continue  # two waits at u are a vertex collision
                    for j in present.get((t, v), ()):
                        aj = agents[j].id
                        if j > i and u in model.diagrams[aj].outgoing(v, t):
                            by_pair.setdefault(j, []).append(_swap_lits(x, a.id, aj, u, v, t))
        s.add_clauses(clause for j in sorted(by_pair) for clause in by_pair[j])


def _swap_lits(x, ai: Hashable, aj: Hashable, u: Vertex, v: Vertex, t: int) -> tuple[int, ...]:
    return (-x[(ai, u, t)], -x[(ai, v, t + 1)], -x[(aj, v, t)], -x[(aj, u, t + 1)])


def add_conflict_clauses(model: BooleanModel, collisions: Iterable[Collision]) -> None:
    """Forbid each collision in `model`'s solver with one clause over the pair
    that collided: the two nodes of a vertex collision, or the four nodes of
    the two opposing moves of an edge collision.

    A clause is skipped when either agent's diagram lacks the node or move;
    the rule is then vacuously enforced for the missing side. Recording the
    collisions, so that later models re-emit them, is the caller's part.
    """
    x = model.x
    for col in collisions:
        ai, aj = col.agents
        if col.kind == "vertex":
            li, lj = x.get((ai, col.location, col.t)), x.get((aj, col.location, col.t))
            if li is not None and lj is not None:
                model.solver.add_clause((-li, -lj))
            continue
        u, v = col.location
        if (u in model.diagrams[aj].outgoing(v, col.t)
                and v in model.diagrams[ai].outgoing(u, col.t)):
            model.solver.add_clause(_swap_lits(x, ai, aj, u, v, col.t))


def extract_solution(model: BooleanModel, assignment: list[bool]) -> Solution:
    """Each agent's path: the walk from its start node through the first
    occupied head in out-edge order, up to its settle node, cut at its final
    arrival. `Solution.from_paths` pads the paths to the latest arrival:
    goals are distinct, so no collision lies past it. `EncodingSoundnessError`
    if a walk breaks off or the walks cost more than `model.soc`."""
    instance, x = model.instance, model.x
    paths = []
    for a in instance.agents:
        mdd, end = model.diagrams[a.id], model.settle[a.id]
        positions, heads = [], (mdd.start,)
        for t in range(end + 1):
            cur = next((v for v in heads if assignment[x[(a.id, v, t)]]), None)
            if cur is None:
                raise EncodingSoundnessError(
                    f"agent {a.id!r} occupies none of {heads!r} at step {t}"
                )
            positions.append(cur)
            heads = mdd.outgoing(cur, t)
        # the settle node is the goal; drop the waits on it before the settle step
        while len(positions) > 1 and positions[-2] == mdd.goal:
            positions.pop()
        paths.append(Path(a.id, tuple(positions)))
    try:
        solution = Solution.from_paths(instance, paths)
    except Exception as exc:  # endpoint/adjacency breakage is an encoding bug
        raise EncodingSoundnessError(f"extracted paths are inconsistent: {exc}") from exc
    if sum_of_costs(instance, solution) > model.soc:
        raise EncodingSoundnessError(f"extracted walks cost more than {model.soc}")
    return solution
