"""Soft tree containment: decide whether a network softly displays a tree."""

from .digraph import (
    Digraph,
    PhyloClass,
    PhyloKind,
    classify,
    reaches,
)
from .errors import (
    InputError,
    InternalError,
    OracleTooLargeError,
    ParseError,
    RewriteError,
    SemanticError,
    STCError,
)
from .extension import (
    CUT_ABOVE,
    CUT_BELOW,
    TreeExtension,
    canonicalize,
    default_extension,
    update_extension,
)
from .formats import (
    parse_edgelist,
    parse_enewick,
    parse_extension,
    serialize_edgelist,
    serialize_extension,
)
from .generator import GeneratedInstance, GeneratorParams, generate
from .oracle import (
    enumerate_resolutions,
    firm_display,
    firm_display_switching,
    soft_display,
)
from .reduction import (
    AugmentedInstance,
    ReductionTrace,
    preprocess,
    prune_to_leafset,
    reduce_network,
)
from .solver import (
    SolveResult,
    check_embedding,
    eventually_arc_disjoint,
    reconstruct_witness,
    solve,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
