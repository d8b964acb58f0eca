"""Node-removal planning that maximizes network-wide degree centralization.

The library scores how dominated a network is by its most connected node
(1.0 for a star, 0.0 for any degree-regular graph), and searches for the
node set whose deletion pushes that score as high as possible, subject to a
protected "no-strike" set and a removal budget.
"""

from .baselines import (NodeRanking, betweenness_ranking, betweenness_scores,
                        closeness_ranking, closeness_scores, degree_ranking,
                        static_removal_schedule)
from .graph import (Graph, complete_graph, cycle_graph, fragile,
                    induced_subgraph, marginal_gain, network_degree_centrality,
                    path_graph, star_graph)
from .harness import (CSV_HEADER, CurvePoint, ExperimentConfig,
                      InfeasibleDensityError, STRATEGIES, ZeroBaselineError,
                      benchmark_runtime, emit_csv, generate_synthetic,
                      parse_csv, run_curves)
from .io import (DuplicateEdgeWarning, EdgeListError, RunManifest,
                 emit_edge_list, parse_edge_list, parse_no_strike)
from .ip_model import (FeasibilityReport, InfeasibleAssignmentError,
                       IpAssignment, IpModel, build_fragility_ip,
                       canonical_assignment, check_feasible, emit_lp,
                       emit_lp_family, evaluate_objective, linearize,
                       relax_bounds)
from .solvers import (DEFAULT_WORK_LIMIT, DegreeTracker, RemovalSolution,
                      WorkLimitExceeded, exact_opt, fragility_decision,
                      greedy_fragile, iter_greedy_steps)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER", "CurvePoint", "DEFAULT_WORK_LIMIT", "DegreeTracker",
    "DuplicateEdgeWarning", "EdgeListError", "ExperimentConfig",
    "FeasibilityReport", "Graph", "InfeasibleAssignmentError",
    "InfeasibleDensityError", "IpAssignment", "IpModel", "NodeRanking",
    "RemovalSolution", "RunManifest", "STRATEGIES", "WorkLimitExceeded",
    "ZeroBaselineError", "benchmark_runtime", "betweenness_ranking",
    "betweenness_scores", "build_fragility_ip", "canonical_assignment",
    "check_feasible", "closeness_ranking", "closeness_scores",
    "complete_graph", "cycle_graph", "degree_ranking", "emit_csv",
    "emit_edge_list", "emit_lp", "emit_lp_family", "evaluate_objective",
    "exact_opt", "fragile", "fragility_decision", "generate_synthetic",
    "greedy_fragile", "induced_subgraph", "iter_greedy_steps", "linearize",
    "marginal_gain", "network_degree_centrality", "parse_csv",
    "parse_edge_list", "parse_no_strike", "path_graph", "relax_bounds",
    "run_curves", "star_graph", "static_removal_schedule",
]
