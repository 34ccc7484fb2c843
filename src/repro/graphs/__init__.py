"""Graph substrates: social-graph generation, trust-graph sampling,
random baselines, and structural metrics (paper Sections IV-A and IV-C).
"""

from .fastgraph import FlatSnapshot, SnapshotAnalysis
from .random_graphs import erdos_renyi_gnm
from .sampling import sample_trust_graph
from .social import generate_community_social_graph, generate_social_graph

__all__ = [
    "generate_social_graph",
    "generate_community_social_graph",
    "sample_trust_graph",
    "erdos_renyi_gnm",
    "FlatSnapshot",
    "SnapshotAnalysis",
]
