"""Community detection on weighted graphs via exact resolution sweeps."""

from .errors import (
    DisconnectedError,
    FormatError,
    IllegalStateError,
    IsolatedVertexError,
    SizeLimitError,
)
from .graph import (
    Graph,
    connected_components,
    format_edge_list,
    load_edge_list,
    min_cut,
    quotient,
    refine_connected,
    singleton_partition,
)
from .partition import (
    Partition,
    compose,
    format_partition,
    parse_partition,
    refines,
)
from .modularity import (
    BoundsReport,
    CommunityAggregates,
    bounds_report,
    is_merge_stable,
    merge_gain,
    modularity,
    modularity_complement,
    resolution,
)
from .engine import SweepEngine, TraceRecord, detect_communities, format_trace_csv
from .generators import (
    TreeBound,
    complete_binary_tree,
    daisy_graph,
    daisy_reference_modularity,
    daisy_stable_petal_count,
    tree_bound,
    tree_core_modularity,
    tree_core_partition,
    tree_modularity_identity,
    tree_score_profile,
)
from .oracle import OracleResult, best_partition, is_coarsening_optimal, set_partitions

__version__ = "0.1.0"

# every public name is one the import block above binds from the package
__all__ = sorted(name for name, value in globals().items()
                 if getattr(value, "__module__", "").startswith(f"{__name__}."))
