"""Reference implementations the tests check the package against.

They live beside the tests, not in the package, and use only the package's
data types, so they stay independent of the solver machinery they check.
"""

from __future__ import annotations

from collections import deque

from mapfsat import (
    INFEASIBLE,
    SOLVED,
    Graph,
    MapfInstance,
    Path,
    Solution,
    SolveOutcome,
    validate_solution,
)


def edge_count(graph: Graph) -> int:
    """Number of undirected edges of the graph."""
    return sum(len(graph.adjacency[v]) for v in graph.vertices) // 2


def render_map(graph: Graph) -> str:
    """Movingai map text of a grid graph; round-trips the passable mask exactly."""
    g = graph.grid
    rows = ["".join("." if cell else "@" for cell in row) for row in g.passable]
    return "\n".join(["type octile", f"height {g.height}", f"width {g.width}", "map", *rows]) + "\n"


def walk_cost(positions, goal) -> int:
    """Timesteps to settle at `goal`; trailing waits there are free."""
    last = -1
    for t, v in enumerate(positions):
        if v != goal:
            last = t
    return last + 1


def reference_distances(vertices, edges, source):
    """Hop distances from `source` by a queue over an explicit edge list;
    a vertex no walk reaches is absent."""
    adj = {v: [] for v in vertices}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def diagram_walks(mdd, soc):
    """Every start->goal walk of the diagram of cost at most `soc`, enumerated
    directly. With `soc` at the horizon these are all of its walks."""
    walks = [(mdd.start,)]
    for t in range(mdd.horizon):
        walks = [walk + (w,) for walk in walks for w in mdd.outgoing(walk[-1], t)]
    return {walk for walk in walks if walk[-1] == mdd.goal
            and walk_cost(walk, mdd.goal) <= soc}


def avoiding_walks(instance: MapfInstance, agent_id, avoid, horizon: int) -> set[tuple]:
    """Every start->goal walk of exactly `horizon` steps that meets all of
    `avoid`, enumerated outright. Past the horizon the agent waits on its
    goal for ever: a vertex entry there, or a held goal, rules a walk out.
    Edge entries on waits are void. Walks that cannot reach the goal in the
    steps left are cut early, by `reference_distances`."""
    graph = instance.graph
    agent = instance.agent(agent_id)
    goal = agent.goal
    edges = [(u, w) for u in graph.vertices for w in graph.adjacency[u] if u < w]
    dist = reference_distances(graph.vertices, edges, goal)

    def off_limits(v, t):
        return (v, t) in avoid.vertex or any(v == u and t >= s for u, s in avoid.held)

    if any(v == goal and t > horizon for v, t in avoid.vertex) or any(
            v == goal for v, _ in avoid.held):
        return set()
    walks = set()
    stack = [(agent.start,)] if agent.start in dist and not off_limits(agent.start, 0) else []
    while stack:
        walk = stack.pop()
        t = len(walk) - 1
        if t == horizon:
            cost = walk_cost(walk, goal)
            if walk[-1] == goal and cost >= avoid.floor and (avoid.cap is None
                                                             or cost <= avoid.cap):
                walks.add(walk)
            continue
        u = walk[-1]
        for w in (u, *graph.adjacency[u]):
            if (dist[w] <= horizon - t - 1 and not off_limits(w, t + 1)
                    and (w == u or ((u, w), t) not in avoid.edge)):
                stack.append(walk + (w,))
    return walks


def pairwise_swap_clauses(model):
    """The swap clauses of a complete model, found by probing every move of
    every pair of agents: pair-major over i < j, then i's moves in (t, u, v)
    diagram order. Each forbids i's move u -> v and j's move v -> u between
    t and t + 1."""
    agents, x = model.instance.agents, model.x
    clauses = []
    for i, a in enumerate(agents):
        mi = model.diagrams[a.id]
        for b in agents[i + 1:]:
            mj = model.diagrams[b.id]
            for t in range(mi.horizon):
                for u in mi.levels[t]:
                    for v in mi.outgoing(u, t):
                        if v != u and u in mj.outgoing(v, t):
                            clauses.append((-x[(a.id, u, t)], -x[(a.id, v, t + 1)],
                                            -x[(b.id, v, t)], -x[(b.id, u, t + 1)]))
    return clauses


def brute_force_oracle(instance: MapfInstance, cost_cap: int) -> SolveOutcome:
    """Optimal sum of costs by enumerating per-agent path tuples outright.

    Distances come from `reference_distances` over the graph's edges, walks
    from a raw enumeration. Intended for small instances only.
    """
    graph = instance.graph
    edges = [(u, w) for u in graph.vertices for w in graph.adjacency[u] if u < w]
    xi = {}
    goal_dist = {}
    for a in instance.agents:
        d = reference_distances(graph.vertices, edges, a.goal)
        if a.start not in d:
            return SolveOutcome(status=INFEASIBLE)
        goal_dist[a.id] = d
        xi[a.id] = d[a.start]
    soc0 = sum(xi.values())
    if cost_cap < soc0:
        return SolveOutcome(status=INFEASIBLE)
    mu0 = max(xi.values(), default=0)
    agent_ids = [a.id for a in instance.agents]

    def enumerate_paths(agent, slack, len_cap):
        """Walks ending at the goal, grouped by cost, trailing waits stripped."""
        dist = goal_dist[agent.id]
        budget = xi[agent.id] + slack
        by_cost: dict[int, list[tuple]] = {}
        stack = [(agent.start,)]
        while stack:
            walk = stack.pop()
            v = walk[-1]
            t = len(walk) - 1
            if v == agent.goal and (len(walk) == 1 or walk[-2] != agent.goal):
                cost = walk_cost(walk, agent.goal)
                if cost <= budget:
                    by_cost.setdefault(cost, []).append(walk)
            if t >= len_cap:
                continue
            for w in sorted((v, *graph.adjacency[v]), key=str):
                d = dist.get(w)
                if d is None or t + 1 + d > len_cap:
                    continue
                lower = t + 1 + d if w != agent.goal else walk_cost(walk + (w,), agent.goal)
                if lower > budget:
                    continue
                stack.append(walk + (w,))
        return by_cost

    for soc in range(soc0, cost_cap + 1):
        # enumeration budgets follow the current bound, so early iterations
        # stay cheap and the loop usually stops before they grow
        slack = soc - soc0
        len_cap = mu0 + slack
        paths_by_cost = {a.id: enumerate_paths(a, slack, len_cap) for a in instance.agents}

        def tuples_with_total(total):
            def rec(idx, remaining):
                if idx == len(agent_ids) - 1:
                    for walk in paths_by_cost[agent_ids[idx]].get(remaining, ()):
                        yield (walk,)
                    return
                floor = sum(xi[a] for a in agent_ids[idx + 1:])
                for c in sorted(paths_by_cost[agent_ids[idx]]):
                    rest = remaining - c
                    if rest < floor:
                        continue
                    for walk in paths_by_cost[agent_ids[idx]][c]:
                        for tail in rec(idx + 1, rest):
                            yield (walk, *tail)
            return rec(0, total)

        for combo in tuples_with_total(soc):
            paths = [Path(agent_ids[i], combo[i]) for i in range(len(agent_ids))]
            solution = Solution.from_paths(instance, paths)
            if not validate_solution(instance, solution):
                return SolveOutcome(
                    status=SOLVED, solution=solution, soc=soc,
                    makespan=solution.horizon,
                )
    return SolveOutcome(status=INFEASIBLE)
