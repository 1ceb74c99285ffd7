"""Sum-of-costs optimal MAPF solvers.

Five algorithms share one outcome shape:

* ``solve_cbs``              -- best-first constraint-tree search.
* ``solve_mdd_sat``          -- complete SAT model over full diagrams.
* ``solve_smt_cbs``          -- lazy collision clauses over full diagrams.
* ``solve_sparse_smt_cbs``   -- lazy clauses over sparse candidate sets,
                                extended per conflict subset.
* ``solve_heuristic_smt_cbs``-- lazy clauses over sparse candidate sets,
                                extended by one all-conflicts-avoiding path.

``_run`` builds each solve's ``Distances`` memo, shortest costs and cost cap
once, and hands them to ``_cbs`` or ``_lazy_solve``. Each path a solver
finds ends at its agent's final arrival and ``Solution.from_paths`` pads
them to the latest one, so every algorithm reports that as its makespan.

The four SAT algorithms run one loop (``_lazy_solve``): raise the cost bound
from the shortest-path total and run one fixed-bounds round
(``_SatSolve.round``) per bound; each agent's diagrams end at its own bound
``xi + delta``. One ``_SatSolve`` object per solve holds the candidate sets
and the list of collisions met, across bounds. Each collision of a
satisfying assignment joins the list and becomes one clause over the pair
that collided; every later model re-emits the list with the same rule, and
each agent's side of its recorded collisions steers its new candidate
paths. An algorithm is a fixed ``(mode, extend)`` pair:

* mddsat    -- ``(COMPLETE, None)``: a collision in an answer is an encoding
  bug and raises ``EncodingSoundnessError``.
* smtcbs    -- ``(INCOMPLETE, None)``.
* sparse    -- ``(INCOMPLETE, "or")``.
* heuristic -- ``(INCOMPLETE, "and")``.

Target reasoning (Li et al., "Pairwise Symmetry Reasoning for Multi-Agent
Path Finding Search", AIJ 2021) on both sides:

* On the compiled diagrams: under a bound with slack ``delta`` agent a costs
  at most ``xi[a] + delta``, so from that step on it stands on its goal.
  Full diagrams leave those goal cells out for every other agent
  (``diagrams.goal_bans``, as CBS's held goals: ``AgentConflicts.held``
  pairs). When the bans leave some agent no walk, the
  bound is proved infeasible without a model or a SAT call; a round tests
  this on every full diagram it builds, and on the candidate paths of the
  agents still on sparse sets before it builds their model.
* In CBS: a vertex collision on an agent's goal at or after its arrival
  branches once on that agent's arrival time (``_children``), not once per
  timestep that the other agent is pushed off the goal. Only CBS sets the
  arrival floor and cap of ``AgentConflicts``. The width sweeps that pick
  the collision (``_branch_on``) read no floor: each bans the agent's goal
  at the step before its current cost, which keeps exactly the walks of
  that cost.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Hashable

from .diagrams import (
    EmptyDiagramError,
    InfeasibleAgentError,
    build_mdd,
    build_smdd,
    goal_bans,
    walk_levels,
)
from .encoding import (
    COMPLETE,
    INCOMPLETE,
    EncodingSoundnessError,
    add_conflict_clauses,
    build_model,
    extract_solution,
)
from .instance import (
    Collision,
    InstanceError,
    MapfInstance,
    Path,
    Solution,
    child_collisions,
    path_cost,
    sum_of_costs,
    validate_solution,
)
from .pathing import (
    UNREACHED,
    AgentConflicts,
    Distances,
    bfs_distances,  # noqa: F401  the layer tracer wraps this name here
    constrained_shortest_path,
    new_and_path,
    new_or_paths,
    shortest_path,
)
from .satif import CdclSolver

SOLVED = "solved"
TIMEOUT = "timeout"
INFEASIBLE = "infeasible-at-cap"


class SolveTimeout(Exception):
    """Internal: cooperative cancellation hit the wall-clock limit."""


class _CapExceeded(Exception):
    """Internal: no solution within the cost cap."""


class ConfigError(ValueError):
    """An unusable setting: a time limit that is not positive, a cost cap below
    the shortest-path total, an unknown algorithm, an empty bench list, a bench
    count below 1, or a bench suite that is not a directory."""


class Deadline:
    """Wall-clock budget with cooperative check()."""

    def __init__(self, limit_s: float):
        self.limit_s = limit_s
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    @property
    def expired(self) -> bool:
        return self.elapsed > self.limit_s

    def check(self) -> None:
        if self.expired:
            raise SolveTimeout


@dataclass
class SolverConfig:
    timeout_s: float = 128.0  # inf: no limit
    cost_cap: int | None = None  # None: sum of shortest costs + |V| * k

    def __post_init__(self):
        if not self.timeout_s > 0:  # also rejects NaN, which would never expire
            raise ConfigError("timeout must be positive")


@dataclass(frozen=True)
class IterationStat:
    """One low-level model build: SOC bound, horizon (the longest diagram's)
    and per-agent diagram sizes. The model gives a variable of its own only
    to the nodes up to each agent's settle step (see `encoding`), so the node
    counts bound its node variables from above."""

    soc: int
    horizon: int
    nodes_per_agent: tuple[int, ...]
    full_mdd: tuple[bool, ...]


@dataclass
class SolveStats:
    sat_calls: int = 0
    conflicts: int = 0
    iterations: list[IterationStat] = field(default_factory=list)
    runtime_s: float = 0.0


@dataclass
class SolveOutcome:
    status: str
    solution: Solution | None = None
    soc: int | None = None
    makespan: int | None = None
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def solved(self) -> bool:
        return self.status == SOLVED


def revalidate(instance: MapfInstance, outcome: SolveOutcome) -> None:
    """Re-check a solved outcome: every path a walk from its start to its goal,
    no collision, the reported sum of costs. Raises EncodingSoundnessError."""
    try:
        solution = Solution.from_paths(instance, outcome.solution.paths)
    except InstanceError as exc:
        raise EncodingSoundnessError(f"solved paths are not valid walks: {exc}") from exc
    collisions = validate_solution(instance, solution)
    if collisions:
        raise EncodingSoundnessError(f"solved paths collide: {collisions[0]}")
    soc = sum_of_costs(instance, solution)
    if soc != outcome.soc:
        raise EncodingSoundnessError(f"reported sum of costs {outcome.soc}, paths cost {soc}")


def _shortest_costs(instance: MapfInstance, distances: Distances) -> dict[Hashable, int]:
    """Each agent's shortest-path cost; InfeasibleAgentError if one has none."""
    xi = {}
    for a in instance.agents:
        d = distances.dist(a.goal)[a.start]
        if d is UNREACHED:
            raise InfeasibleAgentError(f"goal of agent {a.id!r} is unreachable")
        xi[a.id] = d
    return xi


def _resolve_cap(instance: MapfInstance, config: SolverConfig, soc0: int) -> int:
    if config.cost_cap is None:
        return soc0 + instance.graph.vertex_count * max(instance.k, 1)
    if config.cost_cap < soc0:
        raise ConfigError(f"cost cap {config.cost_cap} below shortest-cost total {soc0}")
    return config.cost_cap


def _run(solver_fn: Callable[..., tuple[Solution, int]], instance: MapfInstance,
         config: SolverConfig | None) -> SolveOutcome:
    config = config if config is not None else SolverConfig()
    stats = SolveStats()
    deadline = Deadline(config.timeout_s)
    status = SOLVED
    solution: Solution | None = None
    soc: int | None = None
    try:
        distances = Distances(instance.graph)
        xi = _shortest_costs(instance, distances)
        cap = _resolve_cap(instance, config, sum(xi.values()))
        solution, soc = solver_fn(instance, deadline, stats, distances, xi, cap)
        if deadline.expired:
            status, solution, soc = TIMEOUT, None, None
    except SolveTimeout:
        status = TIMEOUT
    except (_CapExceeded, InfeasibleAgentError):
        status = INFEASIBLE
    stats.runtime_s = deadline.elapsed
    return SolveOutcome(
        status=status,
        solution=solution,
        soc=soc,
        makespan=solution.horizon if solution is not None else None,
        stats=stats,
    )


# --------------------------------------------------------------------------- CBS


def solve_cbs(instance: MapfInstance, config: SolverConfig | None = None) -> SolveOutcome:
    """Best-first constraint-tree search (CBS with ICBS's conflict choice and
    target reasoning).

    A node branches on its first collision that is cardinal for both agents,
    else on its first semi-cardinal one, else on its first (`_branch_on`).
    A collision on an arrived agent's goal splits on that agent's arrival
    time: it arrives after the collision's step, or by then while the other
    agent keeps off the goal from that step on (`_children`). Any other
    collision bans its vertex or move for one agent in each child. Among
    nodes of equal SOC the one with fewer collisions is expanded first.
    """
    return _run(_cbs, instance, config)


def _cbs(instance, deadline, stats, distances, xi, cap):
    soc0 = sum(xi.values())
    agent_ids = [a.id for a in instance.agents]

    root_constraints = {a: AgentConflicts() for a in agent_ids}
    root_paths = {a: shortest_path(instance, a, distances) for a in agent_ids}
    root = Solution.from_paths(instance, root_paths.values())
    root_collisions = validate_solution(instance, root)

    # a node: soc, its number of collisions, tiebreak, constraints, paths and
    # collisions; the root's paths are unconstrained shortest paths, so it
    # costs soc0
    counter = itertools.count()
    heap = [(soc0, len(root_collisions), next(counter), root_constraints, root_paths,
             root_collisions)]
    expanded: set = set()
    widths: dict = {}  # (agent, constraints, cost) -> level widths, for this solve
    while heap:
        deadline.check()
        soc, _, _, constraints, paths, collisions = heapq.heappop(heap)
        if soc > cap:
            raise _CapExceeded
        key = tuple(constraints[a] for a in agent_ids)
        if key in expanded:  # the same constraint sets arise via both branches
            continue
        expanded.add(key)
        if not collisions:
            return Solution.from_paths(instance, paths.values()), soc
        stats.conflicts += 1
        col = _branch_on(instance, collisions, constraints, paths, widths, distances)
        for agent_id, child in _children(instance, col, constraints, paths):
            # constraints only accumulate, so the other agents' current costs
            # are lower bounds below this node: budget what is left of the cap
            goal = instance.agent(agent_id).goal
            others = soc - path_cost(paths[agent_id], goal)
            budget = cap - others
            if budget < xi[agent_id]:
                continue
            path = constrained_shortest_path(instance, agent_id, child[agent_id], budget,
                                             distances)
            if path is None:
                continue
            new_constraints = dict(constraints)
            new_constraints.update(child)
            new_paths = dict(paths)
            new_paths[agent_id] = path
            new_collisions = child_collisions(instance, collisions, new_paths, agent_id)
            heapq.heappush(heap, (others + path_cost(path, goal), len(new_collisions),
                                  next(counter), new_constraints, new_paths, new_collisions))
    raise _CapExceeded


def _children(instance: MapfInstance, col: Collision,
              constraints: dict[Hashable, AgentConflicts],
              paths: dict[Hashable, Path]) -> list[tuple[Hashable, dict]]:
    """The two children of a node that branches on `col`, in the order of its
    sides: the agent each replans, and the constraints each changes.

    A vertex collision on an agent's goal at or after its arrival is a target
    conflict (Li et al., AIJ 2021). Either that agent arrives after the
    collision's step, or it arrives by then and the other agent keeps off its
    goal from that step on. The second child replans only the other agent:
    the arrived agent's path already meets its cap. Any other collision bans
    its entry for one agent in each child.
    """
    target = _target(instance, col, paths)
    children = []
    for side, agent_id in enumerate(col.agents):
        own = constraints[agent_id]
        if target is None:
            child = {agent_id: own.with_entry(col.kind, col.entry(side))}
        elif agent_id == target:
            child = {agent_id: own.arriving_after(col.t)}
        else:
            child = {agent_id: own.holding(col.location, col.t),
                     target: constraints[target].arriving_by(col.t)}
        children.append((agent_id, child))
    return children


def _target(instance: MapfInstance, col: Collision,
            paths: dict[Hashable, Path]) -> Hashable | None:
    """The agent whose goal `col` is a target conflict on, or None: a vertex
    collision at or after the agent's arrival lies on its goal. Goals are
    distinct, so at most one agent of the pair has arrived."""
    if col.kind != "vertex":
        return None
    return next((a for a in col.agents
                 if col.t >= path_cost(paths[a], instance.agent(a).goal)), None)


def _branch_on(instance: MapfInstance, collisions: list[Collision],
               constraints: dict[Hashable, AgentConflicts], paths: dict[Hashable, Path],
               widths: dict, distances: Distances) -> Collision:
    """The first of `collisions` that is cardinal for both agents, else the
    first cardinal for one of them, else the first.

    A side is cardinal when its child (`_children`) raises its agent's cost:
    - of a target conflict, always the arrived agent's, whose child floors
      its cost above the step; the other agent's when every path of its cost
      stands on the goal at some step from then on, so that its child's
      sweep finds no walk;
    - of any other collision, when every minimum-cost path of the agent under
      its constraints makes the same move: a vertex collision at a level of
      width 1, an edge collision between two levels of width 1.
    `widths` caches `walk_levels`' level widths per agent, constraints and
    cost; the sweep is called directly, so that CBS counts no diagram build.
    Each sweep runs over the paths of the agent's current cost that meet its
    constraints. The sweep does not read the floor, so it bans the goal at
    step `cost - 1`, which keeps out exactly the walks that settle earlier.
    Without a floor that ban drops nothing: the agent's current path is
    optimal under its constraints, so no walk that meets them costs less.
    """
    def level_widths(agent_id, avoid, cost):
        key = (agent_id, avoid, cost)
        w = widths.get(key)
        if w is None:
            goal = instance.agent(agent_id).goal
            levels, _ = walk_levels(instance, agent_id, cost, distances,
                                    avoid.with_entry("vertex", (goal, cost - 1)))
            w = widths[key] = [len(level) for level in levels]
        return w

    def cardinal(agent_id, c, target):
        if agent_id == target:
            return True
        cost = path_cost(paths[agent_id], instance.agent(agent_id).goal)
        if target is not None:
            return not level_widths(agent_id, constraints[agent_id].holding(c.location, c.t),
                                    cost)[0]
        w = level_widths(agent_id, constraints[agent_id], cost)
        return w[c.t] == 1 and (c.kind == "vertex" or w[c.t + 1] == 1)

    semi = None
    for c in collisions:
        target = _target(instance, c, paths)
        sides = cardinal(c.agents[0], c, target) + cardinal(c.agents[1], c, target)
        if sides == 2:
            return c
        if sides == 1 and semi is None:
            semi = c
    return semi or collisions[0]


# ----------------------------------------------------------------- SAT solvers


def solve_mdd_sat(instance: MapfInstance, config: SolverConfig | None = None) -> SolveOutcome:
    """Complete model over full diagrams; first satisfiable cost bound wins."""
    return _run(partial(_lazy_solve, COMPLETE, None), instance, config)


def solve_smt_cbs(instance: MapfInstance, config: SolverConfig | None = None) -> SolveOutcome:
    """Incomplete model over full diagrams, collision clauses added on demand."""
    return _run(partial(_lazy_solve, INCOMPLETE, None), instance, config)


def solve_sparse_smt_cbs(instance: MapfInstance, config: SolverConfig | None = None) -> SolveOutcome:
    """Sparse candidate sets, extended with one path per conflict subset."""
    return _run(partial(_lazy_solve, INCOMPLETE, "or"), instance, config)


def solve_heuristic_smt_cbs(instance: MapfInstance, config: SolverConfig | None = None) -> SolveOutcome:
    """Sparse candidate sets, extended with one all-conflicts-avoiding path."""
    return _run(partial(_lazy_solve, INCOMPLETE, "and"), instance, config)


def _lazy_solve(mode, extend, instance, deadline, stats, distances, xi, cap):
    """Raise the cost bound from the shortest-path total, one round per bound.

    One `_SatSolve` carries the candidate sets and the collisions met from
    bound to bound. Returns the solution and its bound: every lower bound's
    round proved infeasible, so the bound is the SOC; `revalidate` checks it.
    """
    solve = _SatSolve(mode, extend, instance, deadline, stats, distances, xi)
    for soc in range(sum(xi.values()), cap + 1):
        solution = solve.round(soc)
        if solution is not None:
            return solution, soc
    raise _CapExceeded


def initial_candidates(instance: MapfInstance,
                       distances: Distances) -> dict[Hashable, list[Path] | None]:
    """Each agent's candidate set: a list of its shortest path."""
    return {a.id: [shortest_path(instance, a.id, distances)] for a in instance.agents}


@dataclass
class _SatSolve:
    """The state of one SAT solve, from its first bound to its last.

    `candidates` maps each agent id to its candidate paths, or to None once
    the agent is on its full diagram; with `extend` None every agent starts
    there. `met` lists every collision the solve has met, in order.
    """

    mode: str
    extend: str | None
    instance: MapfInstance
    deadline: Deadline
    stats: SolveStats
    distances: Distances
    xi: dict[Hashable, int]
    candidates: dict[Hashable, list[Path] | None] = field(init=False)
    met: list[Collision] = field(init=False, default_factory=list)

    def __post_init__(self):
        if self.extend is None:
            self.candidates = dict.fromkeys(a.id for a in self.instance.agents)
        else:
            self.candidates = initial_candidates(self.instance, self.distances)

    def round(self, soc: int) -> Solution | None:
        """One round at a fixed SOC bound: a collision-free solution or None.

        Each answer's collisions join `met`, become lazy clauses and grow
        `candidates`; a model built in the round re-emits all of `met`.
        UNSAT is trusted only once every agent is on its full diagram. Each
        agent's diagram ends at its bound `xi + delta`.

        Full diagrams leave out the goal cells that arrived agents hold
        (`goal_bans`). A bound is infeasible with no model when those bans
        leave an agent no walk: a full diagram comes out empty, or an agent on
        a sparse set has no candidate path clear of them and no search under
        them finds one. Such a round promotes every agent to its full
        diagram, as an UNSAT sparse round does, and returns None without a
        SAT call.
        """
        instance, candidates, distances = self.instance, self.candidates, self.distances
        delta = soc - sum(self.xi.values())
        bounds = {a.id: self.xi[a.id] + delta for a in instance.agents}
        bans = goal_bans(instance, bounds)
        if not all(self._clear_walk(agent_id, paths, bans[agent_id], bounds[agent_id])
                   for agent_id, paths in candidates.items() if paths is not None):
            candidates.update(dict.fromkeys(candidates))
            return None
        model = None
        while True:
            if model is None:
                self.deadline.check()
                try:
                    diagrams = {
                        a.id: build_mdd(instance, a.id, bounds[a.id], distances, bans[a.id])
                        if candidates[a.id] is None
                        else build_smdd(a.id, candidates[a.id], bounds[a.id])
                        for a in instance.agents
                    }
                except EmptyDiagramError:
                    candidates.update(dict.fromkeys(candidates))
                    return None
                # long single SAT calls poll the deadline between conflicts
                model = build_model(instance, diagrams, self.met, soc, self.mode, self.xi,
                                    solver=CdclSolver(interrupt=self.deadline.check))
                self.stats.iterations.append(IterationStat(
                    soc=soc,
                    horizon=model.horizon,
                    nodes_per_agent=tuple(diagrams[a.id].node_count for a in instance.agents),
                    full_mdd=tuple(candidates[a.id] is None for a in instance.agents),
                ))
            self.deadline.check()
            self.stats.sat_calls += 1
            assignment = model.solve()
            if assignment is None:
                if all(paths is None for paths in candidates.values()):
                    return None
                candidates.update(dict.fromkeys(candidates))
                model = None
                continue
            solution = extract_solution(model, assignment)
            collisions = validate_solution(instance, solution)
            if not collisions:
                return solution
            if self.mode == COMPLETE:
                raise EncodingSoundnessError(
                    f"complete model admitted a collision: {collisions[0]}"
                )
            self.stats.conflicts += len(collisions)
            self.met += collisions
            add_conflict_clauses(model, collisions)
            if self._grow(diagrams, collisions):
                model = None  # diagrams changed shape: rebuild on the next pass

    def _grow(self, diagrams, collisions) -> bool:
        """Grow the sparse candidate sets of the colliding agents; True if any changed.

        An agent's conflicts are its side of each collision in `met` it was
        in. "and" asks `new_and_path` for one path avoiding all of them, "or"
        asks `new_or_paths` for one path per conflict subset. Both search
        within the agent's current diagram's horizon and return only paths
        that the diagram does not already represent; these join the agent's
        set. An agent with nothing new is promoted to its full diagram.
        """
        grown = False
        for agent_id in dict.fromkeys(a for col in collisions for a in col.agents):
            known = self.candidates[agent_id]
            if known is None:
                continue
            conf = self._avoidance(agent_id)
            mdd = diagrams[agent_id]
            # looked up by name at each call, so that wrappers of either see it
            generate = new_and_path if self.extend == "and" else new_or_paths
            paths = generate(self.instance, agent_id, mdd, conf, self.distances)
            assert self.extend != "and" or all(_avoids(p, conf, mdd.horizon) for p in paths)
            known += paths
            if not paths:
                self.candidates[agent_id] = None
            grown = True
        return grown

    def _avoidance(self, agent_id: Hashable) -> AgentConflicts:
        """The agent's side (`Collision.entry`) of each collision in `met` it was in."""
        entries: dict[str, set] = {"vertex": set(), "edge": set()}
        for col in self.met:
            if agent_id in col.agents:
                entries[col.kind].add(col.entry(col.agents.index(agent_id)))
        return AgentConflicts(frozenset(entries["vertex"]), frozenset(entries["edge"]))

    def _clear_walk(self, agent_id: Hashable, paths: list[Path], bans: AgentConflicts,
                    bound: int) -> bool:
        """True if the agent has a walk within `bound` that keeps clear of the
        goal cells held in `bans`: one of its candidate `paths`, else one
        that a search under the bans finds. Past its end a candidate waits on
        its own goal, which the bans never hold."""
        first = bans.held_from()
        if any(all(first.get(v, t + 1) > t for t, v in enumerate(p.positions))
               for p in paths):
            return True
        return constrained_shortest_path(self.instance, agent_id, bans, bound,
                                         self.distances) is not None


def _avoids(path: Path, conf: AgentConflicts, horizon: int) -> bool:
    pos = path.padded(horizon).positions
    if any((pos[t], t) in conf.vertex for t in range(len(pos))):
        return False
    return not any(
        ((pos[t], pos[t + 1]), t) in conf.edge for t in range(len(pos) - 1)
    )


ALGORITHMS: dict[str, Callable[..., SolveOutcome]] = {
    "cbs": solve_cbs,
    "mddsat": solve_mdd_sat,
    "smtcbs": solve_smt_cbs,
    "sparse": solve_sparse_smt_cbs,
    "heuristic": solve_heuristic_smt_cbs,
}


def solution_json(instance_id: str, algorithm: str, outcome: SolveOutcome) -> dict:
    """Wire format for one solver run."""
    return {
        "instance": instance_id,
        "algorithm": algorithm,
        "status": outcome.status,
        "soc": outcome.soc,
        "makespan": outcome.makespan,
        "paths": (
            [list(p.positions) for p in outcome.solution.paths]
            if outcome.solution is not None
            else None
        ),
        "stats": asdict(outcome.stats),
    }
