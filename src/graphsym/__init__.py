"""Graph products, automorphism groups, and symmetry-breaking labelings.

The core modules (graph, formats, products, symmetry, structure and
distinguishing) load with the package.  The verification harness,
graphsym.checks, and the names re-exported from it load on first use,
through the module __getattr__ (PEP 562): most callers never run a check,
and each import compiles the harness anew where no bytecode is cached.
graphsym.cli imports the harness itself.
"""

import importlib

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
    parse_auto,
    parse_edgelist,
    parse_graph6,
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
    identity,
    is_automorphism,
    is_isomorphic,
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

# The names re-exported from graphsym.checks, read through __getattr__.
_CHECKS = (
    "BoundReport", "all_applicable_pass", "check_index_monotone", "check_index_sthin",
    "check_layered_labeling", "check_lift", "check_number_equality",
    "check_number_sandwich", "check_power_number", "check_traceable_index",
    "default_corpus", "graph_name", "layered_labeling", "lift_edge_labeling",
    "min_alphabet", "min_exponent", "run_all", "sequence_labeling",
)


def __getattr__(name: str):
    if name == "checks" or name in _CHECKS:
        checks = importlib.import_module(".checks", __name__)
        return checks if name == "checks" else getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "checks", *_CHECKS})


__version__ = "0.1.0"
