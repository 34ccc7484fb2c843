"""Graph substrates: social-graph generation, trust-graph sampling,
random baselines, and structural metrics (paper Sections IV-A and IV-C).
"""

from .fastgraph import FlatSnapshot, SnapshotAnalysis
from .io import load_edge_list, save_edge_list
from .metrics import (
    average_path_length,
    clustering_coefficient,
    degree_histogram,
    degree_sequence,
    fraction_disconnected,
    largest_component,
    normalized_path_length,
    powerlaw_exponent_estimate,
)
from .random_graphs import erdos_renyi_gnm, matching_random_graph, random_regular
from .sampling import sample_trust_graph
from .social import generate_community_social_graph, generate_social_graph

__all__ = [
    "generate_social_graph",
    "generate_community_social_graph",
    "sample_trust_graph",
    "erdos_renyi_gnm",
    "matching_random_graph",
    "random_regular",
    "largest_component",
    "fraction_disconnected",
    "average_path_length",
    "normalized_path_length",
    "degree_histogram",
    "degree_sequence",
    "clustering_coefficient",
    "powerlaw_exponent_estimate",
    "save_edge_list",
    "load_edge_list",
    "FlatSnapshot",
    "SnapshotAnalysis",
]
