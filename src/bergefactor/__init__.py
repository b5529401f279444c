"""Exact toughness, parity-factor criteria and Berge-k-factor
construction for hypergraphs and their incidence bipartite graphs.

The pipeline: a hypergraph's Berge-k-factors correspond to (2,k)-factors
of its incidence bipartite graph; existence is decided either by an
exhaustive deficiency criterion (with barrier certificates for the
negative case) or constructively by a parity-gadget reduction to
maximum matching.  The two routes are independent and cross-checked.
"""

from .budget import BudgetExceededError
from .factor_solver import (FactorSubgraph, GadgetGraph, Infeasible,
                            build_gadget, find_2k_factor, find_berge_k_factor,
                            lift_to_berge, sparse_y_vertex, verify_2k_factor)
from .formats import (FormatError, load_barrier, load_bipartite,
                      load_certificate, load_hypergraph, parse_bar,
                      parse_big, parse_bkf, parse_hg, serialize_bar,
                      serialize_big, serialize_bkf, serialize_hg)
from .harness import (EdgeSizeLaw, ExhaustiveMode, GenParams, RandomMode,
                      TheoremReport, TightnessResult, Violation,
                      enumerate_bipartite_graphs, enumerate_graph_edge_sets,
                      enumerate_hypergraphs, gen_random_bipartite,
                      gen_random_hypergraph, possible_edges,
                      tightness_search, verify_theorem)
from .hypergraph import (BergeFactorCertificate, Hypergraph, StrongDeletion,
                         ToughnessValue, Verdict, components, is_complete,
                         strong_delete, toughness, verify_berge_factor)
from .incidence import (BipartiteGraph, YStrongDeletion, bipartite_components,
                        hypergraph_of, incidence_graph, strong_delete_y,
                        y_toughness)
from .matching import (GeneralGraph, Matching, is_perfect, max_matching,
                       perfect_matching)
from .parity_criterion import (Barrier, ClauseCheck, Component,
                               CriterionResult, DegreeSpec, FactorExistsError,
                               ScanResult, ScanStats, StructureReport,
                               check_barrier_structure, classify_component,
                               decide_by_criterion, deficiency_scan, delta,
                               find_biased_barrier, h_of_z)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "FactorSubgraph", "GadgetGraph", "Infeasible",
    "build_gadget", "find_2k_factor", "find_berge_k_factor",
    "lift_to_berge", "sparse_y_vertex", "verify_2k_factor",
    "FormatError", "load_barrier", "load_bipartite", "load_certificate",
    "load_hypergraph", "parse_bar", "parse_big", "parse_bkf", "parse_hg",
    "serialize_bar", "serialize_big", "serialize_bkf", "serialize_hg",
    "EdgeSizeLaw", "ExhaustiveMode", "GenParams", "RandomMode",
    "TheoremReport", "TightnessResult", "Violation",
    "enumerate_bipartite_graphs", "enumerate_graph_edge_sets",
    "enumerate_hypergraphs", "gen_random_bipartite", "gen_random_hypergraph",
    "possible_edges", "tightness_search", "verify_theorem",
    "BergeFactorCertificate", "Hypergraph", "StrongDeletion",
    "ToughnessValue", "Verdict", "components", "is_complete",
    "strong_delete", "toughness", "verify_berge_factor",
    "BipartiteGraph", "YStrongDeletion", "bipartite_components",
    "hypergraph_of", "incidence_graph", "strong_delete_y", "y_toughness",
    "GeneralGraph", "Matching", "is_perfect", "max_matching",
    "perfect_matching",
    "Barrier", "ClauseCheck", "Component", "CriterionResult", "DegreeSpec",
    "FactorExistsError", "ScanResult", "ScanStats", "StructureReport",
    "check_barrier_structure", "classify_component", "decide_by_criterion",
    "deficiency_scan", "delta", "find_biased_barrier", "h_of_z",
]
