"""Exact computation with closed rational distance sets.

Core objects: :class:`RSet` (finite unions of closed rational intervals
with the truncated sum), :class:`RGraph` and :class:`FiniteMetricSpace`
(weighted graphs over a set and their completions), Cantor-type set
generators, the bridge/tree construction, and finite saturated spaces
with partition experiments.  All arithmetic is exact.
"""

from ._core import backend_name
from .approx import (
    ClosureTrace,
    is_eps_approximation,
    make_eps_approximation,
    subadditive_closure,
)
from .cantor import cantor_set, delta, gamma, parse_weights, remove_middle
from .checks import (
    CheckReport,
    Quadruple,
    VERDICT_EXHAUSTIVE,
    VERDICT_FAILED,
    VERDICT_HEURISTIC,
    check_4values,
    check_associativity,
    recheck_witness,
)
from .construction import (
    BridgeInput,
    NearbyCopy,
    TreeNode,
    build_bridge_graph,
    build_H_and_L,
    build_tree,
    derive_companion_W,
    find_nearby_copy,
    maximal_branch_lengths,
)
from .errors import (
    BudgetError,
    CheckFailedError,
    CompletionError,
    DisconnectedError,
    DistSetError,
    EdgeExistsError,
    HypothesisError,
    MembershipError,
    MetricityError,
    NonterminationError,
    NotAnEmbeddingError,
    NotAWalkError,
    NotMetricError,
    ParameterError,
    PartitionError,
    RangeError,
    SubsetError,
)
from .rationals import as_rational, rational_str
from .rgraph import (
    CycleWitness,
    FiniteMetricSpace,
    RGraph,
    add_shortcut,
    complete_to_metric_space,
    connect,
    distance,
    find_nonmetric_cycle,
    is_metric,
    is_regular,
    walk_weight,
)
from .rset import RSet
from .spaces import (
    Coloring,
    KatetovFunction,
    SaturationCapWarning,
    build_saturated_space,
    check_extension_property,
    check_universality,
    enumerate_katetov,
    eps_neighborhood,
    find_isometric_copy,
    find_order_embedding,
    find_unrealized_katetov,
    indivisibility_search,
    oscillation_search,
    partition_distance_function,
    realizes,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
