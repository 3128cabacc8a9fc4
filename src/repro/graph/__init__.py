"""Graph substrate: CSR container, builders, generators, reordering,
preprocessing, statistics and I/O."""

from .connectivity import (
    component_sizes,
    connected_components,
    is_connected,
)
from .builders import (
    from_arrays,
    from_edges,
    from_networkx,
    random_weights,
    to_networkx,
)
from .csr import CSRGraph
from .extra_generators import barabasi_albert, geometric_graph, watts_strogatz
from .formats import (
    load_matrix_market,
    load_metis,
    save_matrix_market,
    save_metis,
)
from .generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    paper_example,
    path_graph,
    rmat,
    road_lattice,
    star_graph,
)
from .io import load_edgelist, load_npz, save_edgelist, save_npz
from .preprocess import PreprocessResult, is_weight_sorted, preprocess
from .reorder import ReorderResult, dbg, identity_order, sort_by_degree
from .stats import (
    GraphSummary,
    degree_histogram,
    neighborhood_overlap,
    overlap_profile,
    powerlaw_exponent,
    summarize,
)

__all__ = [
    "CSRGraph",
    "from_arrays",
    "from_edges",
    "from_networkx",
    "to_networkx",
    "random_weights",
    "rmat",
    "road_lattice",
    "erdos_renyi",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "paper_example",
    "barabasi_albert",
    "watts_strogatz",
    "geometric_graph",
    "save_metis",
    "load_metis",
    "save_matrix_market",
    "load_matrix_market",
    "connected_components",
    "component_sizes",
    "is_connected",
    "load_edgelist",
    "save_edgelist",
    "load_npz",
    "save_npz",
    "preprocess",
    "PreprocessResult",
    "is_weight_sorted",
    "ReorderResult",
    "dbg",
    "sort_by_degree",
    "identity_order",
    "GraphSummary",
    "summarize",
    "degree_histogram",
    "neighborhood_overlap",
    "overlap_profile",
    "powerlaw_exponent",
]
