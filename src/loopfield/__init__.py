"""Loop soups, Gaussian free fields and random interlacements on finite
weighted networks, with seeded Monte Carlo verification of the exact
couplings between them."""

from .network import (
    Network,
    NetworkError,
    build_box_network,
    grid_network,
    path_network,
    two_vertex_network,
    modified_network,
    network_from_json,
)
from .green import (
    GreenOperator,
    RecurrentNetworkError,
    compute_green,
    normalized_green,
    sqrt_det_ratio,
)
from .gff import (
    sample_gff,
    sample_edge_configuration,
    connectivity_probability,
    cluster_edges,
)
from .loopsoup import (
    LoopSoupSample,
    LoopSoupSampler,
    occupation_field,
    traversed_edges,
    loop_clusters,
)
from .coupling import CoupledSample, couple
from .bridges import (
    BridgeProblem,
    zero_probability_closed_form,
    zero_probability_quadrature,
    sample_first_zero,
    three_process_zero_mc,
)
from .interlacement import (
    StarGraph,
    CapacityReport,
    build_star_graph,
    compute_capacity,
    isomorphism_check,
    levelset_containment_check,
)
from .harness import ExperimentConfig, Report, run_experiment
from .streams import derive_stream

__version__ = "0.1.0"
