"""Sum-of-costs optimal multi-agent path finding via lazy SAT compilation."""

from .instance import (
    Agent,
    AgentSpec,
    Collision,
    Graph,
    GridMeta,
    InstanceError,
    MapParseError,
    MapfInstance,
    ParseError,
    Path,
    ScenParseError,
    Solution,
    build_instance,
    parse_map,
    parse_scen,
    path_cost,
    sum_of_costs,
    validate_solution,
)
from .pathing import (
    UNREACHED,
    AgentConflicts,
    Distances,
    bfs_distances,
    constrained_shortest_path,
    new_and_path,
    new_or_paths,
    shortest_path,
)
from .diagrams import (
    InfeasibleAgentError,
    Mdd,
    build_mdd,
    build_smdd,
)
from .satif import CdclSolver, SatBackendError
from .encoding import (
    COMPLETE,
    INCOMPLETE,
    BooleanModel,
    EncodingSoundnessError,
    add_conflict_clauses,
    build_model,
    cardinality_le,
    extract_solution,
)
from .solvers import (
    ALGORITHMS,
    INFEASIBLE,
    SOLVED,
    TIMEOUT,
    SolveOutcome,
    SolveStats,
    SolverConfig,
    solution_json,
    solve_cbs,
    solve_heuristic_smt_cbs,
    solve_mdd_sat,
    solve_smt_cbs,
    solve_sparse_smt_cbs,
)
from .bench import (
    BenchRecord,
    read_csv,
    run_benchmark,
    sorted_runtimes,
    success_rate,
    write_csv,
)

__version__ = "0.1.0"
