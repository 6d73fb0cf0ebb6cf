"""Graph products, automorphism groups, and symmetry-breaking labelings."""

from .graph import (
    Graph,
    closed_neighborhood,
    complete,
    cycle,
    is_connected,
    path,
)
from .formats import (
    FormatError,
    parse,
    parse_auto,
    parse_edgelist,
    parse_graph6,
    serialize,
    serialize_edgelist,
    serialize_graph6,
)
from .products import (
    cartesian_product,
    direct_product,
    strong_power,
    strong_product,
)
from .symmetry import (
    AutomorphismGroup,
    BudgetExceeded,
    Permutation,
    automorphism_group,
    compose,
    find_isomorphism,
    group_equal,
    has_nontrivial_automorphism,
    identity,
    inverse,
    is_automorphism,
    is_isomorphic,
    iter_automorphisms,
)
from .structure import (
    SPartition,
    declared_strong_prime,
    hamiltonian_path_exists,
    is_complete_graph,
    is_cycle_graph,
    is_path_graph,
    is_s_thin,
    is_spanning_subgraph,
    is_tree,
    s_partition,
)
from .distinguishing import (
    CERTIFIED_UPPER,
    DEFAULT_BUDGETS,
    EXACT,
    UNDEFINED,
    Budgets,
    DistinguishingResult,
    EdgeLabeling,
    VertexLabeling,
    distinguishing_index,
    distinguishing_number,
    is_distinguishing_edge,
    is_distinguishing_vertex,
)
from .checks import (
    BoundReport,
    SequenceFamily,
    all_applicable_pass,
    check_index_monotone,
    check_index_sthin,
    check_layered_labeling,
    check_lift,
    check_number_equality,
    check_number_sandwich,
    check_power_number,
    check_traceable_index,
    default_corpus,
    graph_name,
    layered_labeling,
    lift_edge_labeling,
    min_alphabet,
    min_exponent,
    run_all,
    sequence_labeling,
)

__version__ = "0.1.0"
