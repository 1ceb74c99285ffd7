"""Independent solution checker.

Works from the generated grid and the agents' endpoints alone; it uses none
of the library's own validation (`validate_solution`, `sum_of_costs`,
`Solution.from_paths`), so a bug there cannot hide a wrong answer here.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from workloads import Grid


def check_paths(grid: Grid, endpoints: dict[Hashable, tuple[int, int]],
                paths: Sequence[tuple[Hashable, Sequence[int]]], soc: int | None) -> list[str]:
    """Problems found in one reported solution; empty when it is correct.

    `endpoints` maps agent id -> (start, goal) cell ids, `paths` holds
    (agent id, positions) pairs and `soc` is the reported sum of costs.
    """
    problems: list[str] = []
    ids = [agent for agent, _ in paths]
    if set(ids) != set(endpoints) or len(set(ids)) != len(ids):
        return [f"paths cover agents {ids}, expected {list(endpoints)}"]
    total = 0
    horizon = max(len(pos) for _, pos in paths) - 1
    padded = []
    for agent, pos in paths:
        start, goal = endpoints[agent]
        if not pos or pos[0] != start or pos[-1] != goal:
            problems.append(f"agent {agent}: path does not run from {start} to {goal}")
            continue
        if not all(grid.is_passable(*grid.cell(v)) for v in pos):
            problems.append(f"agent {agent}: path visits a blocked or off-map cell")
            continue
        for t in range(len(pos) - 1):
            (x0, y0), (x1, y1) = grid.cell(pos[t]), grid.cell(pos[t + 1])
            if abs(x0 - x1) + abs(y0 - y1) > 1:
                problems.append(f"agent {agent}: step {pos[t]}->{pos[t + 1]} at t={t} "
                                "is neither a wait nor an edge")
        # trailing waits at the goal are free
        total += max((t + 1 for t, v in enumerate(pos) if v != goal), default=0)
        padded.append((agent, list(pos) + [goal] * (horizon + 1 - len(pos))))
    if problems:
        return problems
    for t in range(horizon + 1):
        at: dict[int, Hashable] = {}
        for agent, pos in padded:
            other = at.setdefault(pos[t], agent)
            if other != agent:
                problems.append(f"vertex collision: agents {other} and {agent} at {pos[t]}, t={t}")
        if t == horizon:
            break
        moves = {(pos[t], pos[t + 1]): agent for agent, pos in padded if pos[t] != pos[t + 1]}
        for (u, v), agent in moves.items():
            other = moves.get((v, u))
            if other is not None and str(agent) < str(other):
                problems.append(f"swap collision: agents {agent} and {other} on {u}-{v}, t={t}")
    if soc != total:
        problems.append(f"reported soc {soc} != recomputed {total}")
    return problems


def check_outcome(bench, outcome) -> list[str]:
    """Check a solver outcome for a generated `BenchInstance`."""
    if outcome.solution is None:
        return ["solved outcome carries no solution"]
    endpoints = {a.id: (a.start, a.goal) for a in bench.instance.agents}
    paths = [(p.agent, tuple(p.positions)) for p in outcome.solution.paths]
    return check_paths(bench.grid, endpoints, paths, outcome.soc)
