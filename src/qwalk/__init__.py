"""Simulation and certification laboratory for random walks and random
tree embeddings on quasirandom graphs.

The package couples a walk (or tree-indexed walk) to per-vertex lists of
uniform neighbor choices so that the traversed subgraph is exactly
sandwiched between two prefix subgraphs of the list model, and provides
the measurement tools (discrepancy, 4-cycle counts, spectral bounds,
visit statistics, mixing diagnostics) to test the quantitative
predictions of that coupling at desk scale.
"""

__version__ = "0.1.0"

from .graph import (DegreeProfile, Graph, VertexSet,
                    balanced_vertices, build_graph, connectivity_profile,
                    density, edges_between, gen_complete, gen_gnp,
                    gen_two_clique_bridge, load_graph, save_graph)
from .certify import (QuasirandomnessReport, certify, count_c4_labelled,
                      discrepancy_exhaustive, discrepancy_refined,
                      discrepancy_sampled, lambda_bound_from_trace,
                      lambda_estimate, trace_p4)
from .walks import (Distribution, ListModel, WalkTrace, balanced_start,
                    list_subgraph, load_trace, run_walk, sandwich_bounds,
                    save_trace, stationary, tv_distance, walk_edges,
                    walk_subgraph)
from .trees import (RootedTree, TreeDecomposition, TreeHomomorphism,
                    build_tree, decompose_tree, gen_nary_tree, gen_path_tree,
                    gen_random_tree, image_subgraph, load_tree,
                    random_homomorphism, save_homomorphism, save_tree)
from .experiments import (EXPERIMENTS, ExperimentConfig, ExperimentReport,
                          make_host, run_experiment)

__all__ = [
    "__version__",
    "Graph", "VertexSet", "DegreeProfile", "build_graph", "edges_between",
    "density", "balanced_vertices", "gen_gnp", "gen_complete",
    "gen_two_clique_bridge", "connectivity_profile", "load_graph",
    "save_graph",
    "QuasirandomnessReport", "certify",
    "discrepancy_exhaustive", "discrepancy_sampled", "discrepancy_refined",
    "count_c4_labelled",
    "trace_p4", "lambda_bound_from_trace", "lambda_estimate",
    "ListModel", "WalkTrace", "Distribution", "stationary", "balanced_start",
    "run_walk", "walk_edges", "walk_subgraph", "list_subgraph",
    "sandwich_bounds", "tv_distance", "save_trace", "load_trace",
    "RootedTree", "TreeHomomorphism", "TreeDecomposition", "build_tree",
    "gen_path_tree", "gen_nary_tree", "gen_random_tree", "random_homomorphism",
    "image_subgraph", "decompose_tree", "save_tree", "load_tree",
    "save_homomorphism",
    "ExperimentConfig", "ExperimentReport", "EXPERIMENTS", "make_host",
    "run_experiment",
]
