"""Exact toughness, parity-factor criteria and Berge-k-factor
construction for hypergraphs and their incidence bipartite graphs.

The pipeline: a hypergraph's Berge-k-factors correspond to (2,k)-factors
of its incidence bipartite graph; existence is decided either by an
exhaustive deficiency criterion (with barrier certificates for the
negative case) or constructively by a parity-gadget reduction to
perfect matching, whose search runs in phases from every exposed vertex
and stops at a phase whose forest is Hungarian: no augmenting path
starts at any root.  The two routes are independent and cross-checked.
"""

from .budget import BudgetExceededError
from .factor_solver import (GadgetGraph, build_gadget, find_2k_factor,
                            find_berge_k_factor, greedy_selection,
                            lift_to_berge, no_scan_barrier, sparse_y_vertex,
                            verify_2k_factor)
from .formats import (FormatError, load_barrier, load_bipartite,
                      load_certificate, load_hypergraph, parse_bar,
                      parse_big, parse_bkf, parse_hg, serialize_bar,
                      serialize_big, serialize_bkf, serialize_hg)
from .harness import (ExhaustiveMode, RandomMode, TheoremReport,
                      TightnessResult, Violation,
                      enumerate_bipartite_graphs, enumerate_graph_edge_sets,
                      enumerate_hypergraphs, gen_random_bipartite,
                      gen_random_hypergraph, possible_edges,
                      tightness_search, verify_theorem)
from .hypergraph import (BergeFactorCertificate, Hypergraph, StrongDeletion,
                         ToughnessValue, Verdict, components, is_complete,
                         strong_delete, toughness, verify_berge_factor)
from .incidence import (BipartiteGraph, hypergraph_of, incidence_graph,
                        y_toughness)
from .matching import (GeneralGraph, Matching, complete_matching, is_perfect,
                       max_matching)
from .parity_criterion import (Barrier, ClauseCheck, Component,
                               CriterionResult, DegreeSpec, FactorExistsError,
                               ScanResult, ScanStats, StructureReport,
                               check_barrier_structure, decide_by_criterion,
                               deficiency_scan, delta, find_biased_barrier)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "GadgetGraph", "build_gadget", "find_2k_factor", "find_berge_k_factor",
    "greedy_selection", "lift_to_berge", "no_scan_barrier",
    "sparse_y_vertex", "verify_2k_factor",
    "FormatError", "load_barrier", "load_bipartite", "load_certificate",
    "load_hypergraph", "parse_bar", "parse_big", "parse_bkf", "parse_hg",
    "serialize_bar", "serialize_big", "serialize_bkf", "serialize_hg",
    "ExhaustiveMode", "RandomMode",
    "TheoremReport", "TightnessResult", "Violation",
    "enumerate_bipartite_graphs", "enumerate_graph_edge_sets",
    "enumerate_hypergraphs", "gen_random_bipartite", "gen_random_hypergraph",
    "possible_edges", "tightness_search", "verify_theorem",
    "BergeFactorCertificate", "Hypergraph", "StrongDeletion",
    "ToughnessValue", "Verdict", "components", "is_complete",
    "strong_delete", "toughness", "verify_berge_factor",
    "BipartiteGraph", "hypergraph_of", "incidence_graph", "y_toughness",
    "GeneralGraph", "Matching", "complete_matching", "is_perfect",
    "max_matching",
    "Barrier", "ClauseCheck", "Component", "CriterionResult", "DegreeSpec",
    "FactorExistsError", "ScanResult", "ScanStats", "StructureReport",
    "check_barrier_structure", "decide_by_criterion", "deficiency_scan",
    "delta", "find_biased_barrier",
]
