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

# The generator and the oracles are off the solve path, so their modules
# load on first use (PEP 562) and `import stc.cli` does not pay for them.
_LAZY = {
    "generator": "generator",
    "GeneratedInstance": "generator",
    "GeneratorParams": "generator",
    "generate": "generator",
    "oracle": "oracle",
    "enumerate_resolutions": "oracle",
    "firm_display": "oracle",
    "firm_display_switching": "oracle",
    "soft_display": "oracle",
}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{home}", __name__)   # also binds `stc.<home>`
    if name == home:
        return module
    value = globals()[name] = getattr(module, name)
    return value
