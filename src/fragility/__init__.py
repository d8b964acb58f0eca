"""Node-removal planning that maximizes network-wide degree centralization.

The library scores how dominated a network is by its most connected node
(1.0 for a star, 0.0 for any degree-regular graph), and searches for the
node set whose deletion pushes that score as high as possible, subject to a
protected "no-strike" set and a removal budget.

Each exported name loads its module on first use, so ``import fragility``
loads no submodule and reading ``fragility.exact_opt`` loads the solvers.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "baselines": ("NodeRanking", "betweenness_ranking", "betweenness_scores",
                  "closeness_ranking", "closeness_scores", "degree_ranking",
                  "static_removal_schedule"),
    "defaults": ("DEFAULT_WORK_LIMIT", "STRATEGIES"),
    "graph": ("Graph", "complete_graph", "cycle_graph", "fragile",
              "induced_subgraph", "marginal_gain", "network_degree_centrality",
              "path_graph", "star_graph"),
    "harness": ("CSV_HEADER", "CurvePoint", "ExperimentConfig",
                "InfeasibleDensityError", "ZeroBaselineError", "benchmark_runtime",
                "emit_csv", "generate_synthetic", "parse_csv", "run_curves"),
    "io": ("DuplicateEdgeWarning", "EdgeListError", "RunManifest",
           "emit_edge_list", "parse_edge_list", "parse_no_strike"),
    "ip_model": ("FeasibilityReport", "InfeasibleAssignmentError", "IpAssignment",
                 "IpModel", "build_fragility_ip", "canonical_assignment",
                 "check_feasible", "emit_lp", "emit_lp_family",
                 "evaluate_objective", "linearize", "relax_bounds"),
    "solvers": ("DegreeTracker", "RemovalSolution", "WorkLimitExceeded",
                "exact_opt", "fragility_decision", "greedy_fragile",
                "iter_greedy_steps"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
